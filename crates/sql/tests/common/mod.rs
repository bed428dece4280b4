//! A brute-force reference evaluator for SELECT — the oracle the
//! engine-level equivalence suites compare [`SqlEngine`] rows against, and
//! `compiled_equivalence.rs` compares compiled expression programs against.
//!
//! It evaluates expressions itself, by the rules `docs/QUERIES.md`
//! ("Expression semantics") states, and shares three things with the
//! engine:
//!
//! * the parser and its AST;
//! * `Value` with its methods: ordering and equality across types
//!   (`total_cmp`, `sql_eq`), truthiness, `CAST` (`coerce`), numeric views
//!   and the display form `+` and `LIKE` read;
//! * the built-in scalar library, `functions::eval_builtin`.
//!
//! Nothing else: no planner, no indices, no compiled programs, no columnar
//! path, none of the engine's operators.  FROM is a nested-loop product over
//! rows read through the `Table` row API (view bodies recurse); ON / WHERE /
//! GROUP BY + aggregates / HAVING / ORDER BY / DISTINCT / TOP then run over
//! materialized rows.

use skyserver_sql::ast::{
    BinaryOp, Expr, FromItem, JoinKind, SelectItem, SelectStatement, TableSource, UnaryOp,
};
use skyserver_sql::functions::eval_builtin;
use skyserver_sql::{parse_select, QueryLimits, SqlEngine, SqlError};
use skyserver_storage::{Database, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

type Row = Vec<Value>;

/// The `(qualifier, name)` of each column of a row, in row order.
pub type Columns = Vec<(Option<String>, String)>;

/// What an expression reads besides the row.
pub struct Scope<'a> {
    /// The row's columns.
    pub columns: &'a [(Option<String>, String)],
    /// Session variables by lowercase name.
    pub variables: &'a HashMap<String, Value>,
    /// While projecting a group: each aggregate call with its value.
    pub aggregates: &'a [(Expr, Value)],
}

/// Run `sql` through the engine and through the reference and compare:
/// equal sequences under ORDER BY, equal multisets otherwise, and with an
/// unordered TOP any `top` rows of the reference multiset.  Errors must
/// agree, except that an unordered TOP may stop the engine's scan before
/// the row the reference fails on.
pub fn check(engine: &mut SqlEngine, sql: &str) -> Result<(), String> {
    let stmt = parse_select(sql).map_err(|e| format!("{e}: {sql}"))?;
    let top = stmt.top.map_or(usize::MAX, |t| t as usize);
    let got = engine.execute(sql, QueryLimits::UNLIMITED);
    let (got, all) = match (got, reference(engine.db(), &stmt)) {
        (Err(_), Err(_)) => return Ok(()),
        (Ok(got), Err(_)) if stmt.order_by.is_empty() && got.result.rows.len() == top => {
            return Ok(())
        }
        (Ok(_), Err(e)) => return Err(format!("only the reference fails ({e}): {sql}")),
        (Err(e), Ok(_)) => return Err(format!("only the engine fails ({e}): {sql}")),
        (Ok(got), Ok(rows)) => (got.result.rows, rows),
    };
    let (mut got, mut all) = (render(&got), render(&all));
    let limit = top.min(all.len());
    let agree = if !stmt.order_by.is_empty() {
        got[..] == all[..limit]
    } else {
        // Sorted, so a one-pass subsequence test is multiset inclusion —
        // and, without TOP, equality (the lengths agree).
        got.sort();
        all.sort();
        let mut pool = all.iter();
        got.iter().all(|row| pool.any(|r| r == row))
    };
    if agree && got.len() == limit {
        return Ok(());
    }
    Err(format!(
        "{sql}\n engine: {got:?}\n reference, any {limit} of: {all:?}"
    ))
}

/// The reference's output rows for `stmt`, before TOP, in the order its
/// nested-loop product over each table's row order gives them (sorted
/// only under ORDER BY).
pub fn reference(db: &Database, stmt: &SelectStatement) -> Result<Vec<Row>, SqlError> {
    select(db, stmt).map(|(rows, _names)| rows)
}

/// Rows as comparable strings.  Floats keep 13 significant digits: a float
/// aggregate sums in scan order, and an index scan's is not the heap's.
fn render(rows: &[Row]) -> Vec<String> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("{f:.12e}"),
        other => format!("{other:?}"),
    };
    rows.iter()
        .map(|r| r.iter().map(cell).collect::<Vec<_>>().join(", "))
        .collect()
}

fn execution(message: impl Into<String>) -> SqlError {
    SqlError::Execution(message.into())
}

/// SQL truth: `None` is unknown.
fn truth(v: &Value) -> Option<bool> {
    (!v.is_null()).then(|| v.is_truthy())
}

/// Evaluate `expr` over `row`.  Operands run left to right; `AND`, `OR`,
/// `IN` and `CASE` stop at the first operand that decides them, so an error
/// in a later one is never raised.
pub fn eval(expr: &Expr, row: &[Value], scope: &Scope<'_>) -> Result<Value, SqlError> {
    let ev = |e: &Expr| eval(e, row, scope);
    Ok(match expr {
        Expr::Literal(v) => v.clone(),
        Expr::Column { qualifier, name } => {
            row[resolve(scope.columns, qualifier.as_deref(), name)?].clone()
        }
        Expr::Variable(name) => {
            let value = scope.variables.get(&name.to_ascii_lowercase());
            value
                .cloned()
                .ok_or_else(|| execution(format!("@{name} is not defined")))?
        }
        Expr::Star => return Err(execution("'*' outside count(*)")),
        Expr::Unary { op, expr } => match (op, ev(expr)?) {
            (_, Value::Null) => Value::Null,
            (UnaryOp::Not, v) => Value::Bool(!v.is_truthy()),
            (UnaryOp::Neg, Value::Int(i)) => Value::Int(
                i.checked_neg()
                    .ok_or_else(|| execution("arithmetic overflow"))?,
            ),
            (UnaryOp::Neg, Value::Float(f)) => Value::Float(-f),
            (UnaryOp::Neg, v) => return Err(execution(format!("cannot negate {v}"))),
        },
        Expr::Binary { left, op, right } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
            // The value that decides the connective on its own.
            let decisive = *op == BinaryOp::Or;
            let l = truth(&ev(left)?);
            if l == Some(decisive) {
                return Ok(Value::Bool(decisive));
            }
            match (l, truth(&ev(right)?)) {
                (_, Some(r)) if r == decisive => Value::Bool(decisive),
                (Some(_), Some(_)) => Value::Bool(!decisive),
                _ => Value::Null,
            }
        }
        Expr::Binary { left, op, right } => binary(&ev(left)?, *op, &ev(right)?)?,
        Expr::Function { name, .. } if is_aggregate(name) => {
            let found = scope.aggregates.iter().find(|(call, _)| call == expr);
            let found = found.ok_or_else(|| SqlError::Plan(format!("{name}() out of place")))?;
            found.1.clone()
        }
        Expr::Function { name, args } => {
            let args = args.iter().map(ev).collect::<Result<Vec<_>, _>>()?;
            let result = eval_builtin(name, &args);
            result.unwrap_or_else(|| Err(SqlError::UnknownFunction(name.clone())))?
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // T-SQL's reading: `v >= low AND v <= high`, three-valued, so
            // one bound can decide it while the other is NULL.
            let (v, low, high) = (ev(expr)?, ev(low)?, ev(high)?);
            let half = |bound: &Value, ok: fn(std::cmp::Ordering) -> bool| {
                (!v.is_null() && !bound.is_null()).then(|| ok(v.total_cmp(bound)))
            };
            let (ge, le) = (half(&low, |o| o.is_ge()), half(&high, |o| o.is_le()));
            let within = match (ge, le) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            };
            within.map_or(Value::Null, |w| Value::Bool(w != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = ev(expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // `v = a OR v = b OR ...`: a match decides, and without one a
            // NULL item leaves the answer unknown.
            let mut unknown = false;
            for item in list {
                let item = ev(item)?;
                if v.sql_eq(&item) {
                    return Ok(Value::Bool(!*negated));
                }
                unknown |= item.is_null();
            }
            if unknown {
                Value::Null
            } else {
                Value::Bool(*negated)
            }
        }
        Expr::IsNull { expr, negated } => Value::Bool(ev(expr)?.is_null() != *negated),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match (ev(expr)?, ev(pattern)?) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (v, p) => Value::Bool(like(&v.to_string(), &p.to_string()) != *negated),
        },
        Expr::Case {
            branches,
            else_value,
        } => {
            for (condition, value) in branches {
                if ev(condition)?.is_truthy() {
                    return ev(value);
                }
            }
            match else_value {
                Some(e) => ev(e)?,
                None => Value::Null,
            }
        }
        Expr::Cast { expr, ty } => {
            let v = ev(expr)?;
            v.coerce(*ty)
                .ok_or_else(|| execution(format!("cannot cast {v} to {ty}")))?
        }
    })
}

/// Position of a column reference: a qualified name must match its
/// qualifier, an unqualified one must be unambiguous; both ignore case.
fn resolve(
    columns: &[(Option<String>, String)],
    qualifier: Option<&str>,
    name: &str,
) -> Result<usize, SqlError> {
    let same = |a: &str, b: &str| a.eq_ignore_ascii_case(b);
    let mut hits = columns.iter().enumerate().filter(|(_, (q, n))| {
        same(n, name) && qualifier.is_none_or(|want| q.as_deref().is_some_and(|q| same(q, want)))
    });
    match (hits.next(), hits.next()) {
        (Some((i, _)), None) => Ok(i),
        (None, _) => Err(SqlError::Plan(format!("unknown column {name}"))),
        _ => Err(SqlError::Plan(format!("ambiguous column {name}"))),
    }
}

/// A non-logical binary operator over evaluated operands.
fn binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value, SqlError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let order = l.total_cmp(r);
    Ok(Value::Bool(match op {
        BinaryOp::Eq => order.is_eq(),
        BinaryOp::NotEq => order.is_ne(),
        BinaryOp::Lt => order.is_lt(),
        BinaryOp::LtEq => order.is_le(),
        BinaryOp::Gt => order.is_gt(),
        BinaryOp::GtEq => order.is_ge(),
        BinaryOp::BitAnd | BinaryOp::BitOr => {
            let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) else {
                return Err(execution(format!("{l} {op} {r}: not integers")));
            };
            return Ok(Value::Int(if op == BinaryOp::BitAnd {
                a & b
            } else {
                a | b
            }));
        }
        _ => return arithmetic(l, op, r),
    }))
}

/// `+ - * / %` over two non-NULL operands.
fn arithmetic(l: &Value, op: BinaryOp, r: &Value) -> Result<Value, SqlError> {
    match (l, r) {
        // `+` with a string on either side joins the display forms.
        (Value::Str(_), _) | (_, Value::Str(_)) if op == BinaryOp::Add => {
            Ok(Value::str(format!("{l}{r}")))
        }
        // `/` always divides as floats, so `7 / 2` is 3.5 where T-SQL
        // says 3: a deviation docs/QUERIES.md ("Expression semantics")
        // records.
        (Value::Int(a), Value::Int(b)) if op != BinaryOp::Div => {
            let out = match op {
                BinaryOp::Add => a.checked_add(*b),
                BinaryOp::Sub => a.checked_sub(*b),
                BinaryOp::Mul => a.checked_mul(*b),
                _ if *b == 0 => return Err(execution("modulo by zero")),
                // Truncating: the remainder takes the dividend's sign.
                _ => a.checked_rem(*b),
            };
            // T-SQL's error 8115 where the result leaves 64 bits.
            out.map(Value::Int)
                .ok_or_else(|| execution("arithmetic overflow"))
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(execution(format!("{l} {op} {r}: not numbers")));
            };
            Ok(Value::Float(match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                _ if b == 0.0 => return Err(execution("division by zero")),
                BinaryOp::Div => a / b,
                _ => a % b,
            }))
        }
    }
}

/// `LIKE`, ignoring ASCII case: `%` matches any run, `_` one character.
/// On a mismatch the last `%` takes one more character and matching
/// resumes after it.
fn like(text: &str, pattern: &str) -> bool {
    let (t, p) = (
        text.to_ascii_lowercase().into_bytes(),
        pattern.to_ascii_lowercase().into_bytes(),
    );
    let (mut i, mut j, mut star) = (0, 0, None);
    while i < t.len() {
        match p.get(j) {
            Some(b'%') => {
                star = Some((j, i));
                j += 1;
            }
            Some(&c) if c == b'_' || c == t[i] => {
                i += 1;
                j += 1;
            }
            _ => match star {
                Some((s, from)) => {
                    star = Some((s, from + 1));
                    (i, j) = (from + 1, s + 1);
                }
                None => return false,
            },
        }
    }
    p[j..].iter().all(|&c| c == b'%')
}

const AGGREGATES: [&str; 7] = ["count", "min", "max", "sum", "avg", "var", "stdev"];

fn is_aggregate(name: &str) -> bool {
    AGGREGATES.contains(&name.to_ascii_lowercase().as_str())
}

/// Every distinct aggregate call in `expr`.
fn aggregate_calls(expr: &Expr, out: &mut Vec<Expr>) {
    let children: Vec<&Expr> = match expr {
        Expr::Function { name, .. } if is_aggregate(name) => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
            return;
        }
        Expr::Function { args, .. } => args.iter().collect(),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            vec![expr]
        }
        Expr::Binary { left, right, .. } => vec![left, right],
        Expr::Like { expr, pattern, .. } => vec![expr, pattern],
        Expr::Between {
            expr, low, high, ..
        } => vec![expr, low, high],
        Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
        Expr::Case {
            branches,
            else_value,
        } => {
            let pairs = branches.iter().flat_map(|(c, v)| [c, v]);
            pairs.chain(else_value.as_deref()).collect()
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Variable(_) | Expr::Star => Vec::new(),
    };
    for child in children {
        aggregate_calls(child, out);
    }
}

fn eval_all<'e>(
    exprs: impl Iterator<Item = &'e Expr>,
    row: &[Value],
    scope: &Scope<'_>,
) -> Result<Row, SqlError> {
    exprs.map(|e| eval(e, row, scope)).collect()
}

/// Does `row` pass the (optional) predicate?
fn passes(pred: Option<&Expr>, row: &[Value], scope: &Scope<'_>) -> Result<bool, SqlError> {
    pred.map_or(Ok(true), |p| Ok(eval(p, row, scope)?.is_truthy()))
}

/// Rows and columns of one FROM item: a table through the row API, or a
/// view body (a SELECT with its own TOP applied).
fn source(db: &Database, item: &FromItem) -> Result<(Vec<Row>, Columns), SqlError> {
    let TableSource::Named(name) = &item.source else {
        return Err(SqlError::Plan("reference: tables and views only".into()));
    };
    let (rows, names) = if db.has_table(name) {
        let t = db.table(name)?;
        let names = t.schema().column_names();
        let names = names.iter().map(|c| c.to_string()).collect();
        (t.iter().map(|(_, row)| row).collect(), names)
    } else {
        let view = db.view(name);
        let view = view.ok_or_else(|| SqlError::Plan(format!("unknown table or view {name}")))?;
        let body = parse_select(&view.sql)?;
        let (mut rows, names) = select(db, &body)?;
        rows.truncate(body.top.map_or(usize::MAX, |t| t as usize));
        (rows, names)
    };
    let alias = item.alias.as_deref().unwrap_or(name);
    let columns = names.into_iter().map(|n| (Some(alias.to_string()), n));
    Ok((rows, columns.collect()))
}

/// One SELECT up to, not including, TOP: `(output rows, output names)`.
fn select(db: &Database, stmt: &SelectStatement) -> Result<(Vec<Row>, Vec<String>), SqlError> {
    // The reference runs with no session variables.
    let variables = HashMap::new();
    // FROM: fold the items left to right into one product.
    let mut columns: Columns = Vec::new();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for item in &stmt.from {
        let (right, right_columns) = source(db, item)?;
        let joined: Columns = columns.iter().cloned().chain(right_columns).collect();
        let on = Scope {
            columns: &joined,
            variables: &variables,
            aggregates: &[],
        };
        let mut out = Vec::new();
        for left in &rows {
            let mut matched = false;
            let mut pair = left.clone();
            for r in &right {
                pair.truncate(left.len());
                pair.extend(r.iter().cloned());
                if passes(item.on.as_ref(), &pair, &on)? {
                    matched = true;
                    out.push(pair.clone());
                }
            }
            if !matched && item.join == Some(JoinKind::Left) {
                pair.truncate(left.len());
                pair.resize(joined.len(), Value::Null);
                out.push(pair);
            }
        }
        rows = out;
        columns = joined;
    }
    let plain = Scope {
        columns: &columns,
        variables: &variables,
        aggregates: &[],
    };
    let mut kept = Vec::new();
    for row in rows {
        if passes(stmt.selection.as_ref(), &row, &plain)? {
            kept.push(row);
        }
    }
    // Select list: expand wildcards, name the outputs.
    let mut items: Vec<(Expr, String)> = Vec::new();
    for (i, item) in stmt.projections.iter().enumerate() {
        let (expr, alias) = match item {
            SelectItem::Expr { expr, alias } => (expr, alias),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                let of = match item {
                    SelectItem::QualifiedWildcard(alias) => Some(alias),
                    _ => None,
                };
                let before = items.len();
                for (q, name) in &columns {
                    let ours = |a: &String| q.as_ref().is_some_and(|q| q.eq_ignore_ascii_case(a));
                    if of.is_none_or(ours) {
                        let (qualifier, name) = (q.clone(), name.clone());
                        items.push((
                            Expr::Column {
                                qualifier,
                                name: name.clone(),
                            },
                            name,
                        ));
                    }
                }
                if let (Some(alias), true) = (of, items.len() == before) {
                    return Err(SqlError::Plan(format!(
                        "unknown alias {alias} in {alias}.*"
                    )));
                }
                continue;
            }
        };
        let name = alias.clone().unwrap_or_else(|| match expr {
            Expr::Column { name, .. } => name.clone(),
            Expr::Function { name, .. } => name.rsplit('.').next().unwrap_or(name).into(),
            _ => format!("col{}", i + 1),
        });
        items.push((expr.clone(), name));
    }
    let exprs = || items.iter().map(|(e, _)| e);
    let mut agg_calls = Vec::new();
    for e in exprs().chain(&stmt.having) {
        aggregate_calls(e, &mut agg_calls);
    }
    // (input row, output row) pairs — one per row, or one per group.
    let mut pairs: Vec<(Row, Row)> = Vec::new();
    if agg_calls.is_empty() && stmt.group_by.is_empty() {
        for row in kept {
            let out = eval_all(exprs(), &row, &plain)?;
            pairs.push((row, out));
        }
    } else {
        let mut groups: Vec<(Row, Vec<Row>)> = Vec::new();
        for row in kept {
            let key = eval_all(stmt.group_by.iter(), &row, &plain)?;
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        if groups.is_empty() && stmt.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        for (_, members) in groups {
            let mut values = Vec::new();
            for call in &agg_calls {
                values.push((call.clone(), aggregate(call, &members, &plain)?));
            }
            let first = members.into_iter().next();
            let first = first.unwrap_or_else(|| vec![Value::Null; columns.len()]);
            let grouped = Scope {
                aggregates: &values,
                ..plain
            };
            if passes(stmt.having.as_ref(), &first, &grouped)? {
                let out = eval_all(exprs(), &first, &grouped)?;
                pairs.push((first, out));
            }
        }
    }
    if !stmt.order_by.is_empty() {
        let mut keyed: Vec<(Row, Row)> = Vec::new();
        for (input, out) in pairs {
            let mut keys = Vec::new();
            for o in &stmt.order_by {
                // An unqualified name that is an output column sorts by it.
                let position = match &o.expr {
                    Expr::Column { qualifier, name } if qualifier.is_none() => {
                        items.iter().position(|(_, n)| n.eq_ignore_ascii_case(name))
                    }
                    _ => None,
                };
                keys.push(match position {
                    Some(i) => out[i].clone(),
                    None => eval(&o.expr, &input, &plain)?,
                });
            }
            keyed.push((keys, out));
        }
        keyed.sort_by(|a, b| {
            let keys = stmt.order_by.iter().zip(a.0.iter().zip(&b.0));
            let mut ords = keys.map(|(o, (x, y))| match o.ascending {
                true => x.total_cmp(y),
                false => y.total_cmp(x),
            });
            ords.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
        pairs = keyed;
    }
    let mut out: Vec<Row> = Vec::new();
    for (_, row) in pairs {
        if !(stmt.distinct && out.contains(&row)) {
            out.push(row);
        }
    }
    Ok((out, items.into_iter().map(|(_, n)| n).collect()))
}

/// One aggregate call over the rows of one group.
fn aggregate(call: &Expr, rows: &[Row], scope: &Scope<'_>) -> Result<Value, SqlError> {
    let Expr::Function { name, args } = call else {
        return Err(SqlError::Plan("not an aggregate call".into()));
    };
    let name = name.to_ascii_lowercase();
    let arg = match args.first() {
        None | Some(Expr::Star) if name == "count" => return Ok(Value::Int(rows.len() as i64)),
        None => return Err(SqlError::Execution(format!("{name}() needs an argument"))),
        Some(arg) => arg,
    };
    let mut values = Vec::new();
    for row in rows {
        values.push(eval(arg, row, scope)?);
    }
    values.retain(|v| !v.is_null());
    // (sum, n, sample variance) in row order, the order the engine sums in.
    let stats = || {
        let xs: Option<Vec<f64>> = values.iter().map(Value::as_f64).collect();
        let xs =
            xs.ok_or_else(|| SqlError::Execution(format!("{name}() over non-numeric values")))?;
        let (sum, n) = (xs.iter().sum::<f64>(), xs.len() as f64);
        let squares: f64 = xs.iter().map(|x| (x - sum / n).powi(2)).sum();
        Ok::<_, SqlError>((sum, n, squares / (n - 1.0).max(1.0)))
    };
    let mut sorted = values.clone();
    sorted.sort_by(Value::total_cmp);
    Ok(match name.as_str() {
        "count" => Value::Int(values.len() as i64),
        "min" => sorted.first().cloned().unwrap_or(Value::Null),
        "max" => sorted.last().cloned().unwrap_or(Value::Null),
        "sum" | "avg" | "var" | "stdev" if values.is_empty() => Value::Null,
        "sum" => Value::Float(stats()?.0),
        "avg" => Value::Float(stats()?.0 / stats()?.1),
        "var" => Value::Float(stats()?.2),
        "stdev" => Value::Float(stats()?.2.sqrt()),
        other => return Err(SqlError::Execution(format!("unknown aggregate {other}"))),
    })
}
