//! A brute-force reference evaluator for SELECT — the oracle the
//! engine-level equivalence suites compare [`SqlEngine`] rows against.
//!
//! It shares the parser, `Value` and the AST interpreter ([`eval`]) with the
//! engine and nothing else: no planner, no indices, no compiled programs, no
//! columnar path.  FROM is a nested-loop product over rows read through the
//! `Table` row API (view bodies recurse); ON / WHERE / GROUP BY + aggregates
//! / HAVING / ORDER BY / DISTINCT / TOP then run over materialized rows.

use skyserver_sql::ast::{Expr, FromItem, JoinKind, SelectItem, SelectStatement, TableSource};
use skyserver_sql::exec::compile::collect_aggregates;
use skyserver_sql::expr::aggregate_key;
use skyserver_sql::{
    eval, parse_select, EvalContext, FunctionRegistry, QueryLimits, RowSchema, SqlEngine, SqlError,
};
use skyserver_storage::{Database, Value};
use std::collections::HashMap;

type Row = Vec<Value>;
type Aggregates = HashMap<String, Value>;

/// Run `sql` through the engine and through the reference and compare:
/// equal sequences under ORDER BY, equal multisets otherwise, and with an
/// unordered TOP any `top` rows of the reference multiset.  Errors must
/// agree, except that an unordered TOP may stop the engine's scan before
/// the row the reference fails on.
pub fn check(engine: &mut SqlEngine, sql: &str) -> Result<(), String> {
    let stmt = parse_select(sql).map_err(|e| format!("{e}: {sql}"))?;
    let top = stmt.top.map_or(usize::MAX, |t| t as usize);
    let got = engine.execute(sql, QueryLimits::UNLIMITED);
    let (got, all) = match (got, select(engine.db(), &stmt)) {
        (Err(_), Err(_)) => return Ok(()),
        (Ok(got), Err(_)) if stmt.order_by.is_empty() && got.result.rows.len() == top => {
            return Ok(())
        }
        (Ok(_), Err(e)) => return Err(format!("only the reference fails ({e}): {sql}")),
        (Err(e), Ok(_)) => return Err(format!("only the engine fails ({e}): {sql}")),
        (Ok(got), Ok((rows, _names))) => (got.result.rows, rows),
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

/// The reference evaluates with built-in functions and no variables.
type Env = (FunctionRegistry, HashMap<String, Value>);

fn ctx<'a>(env: &'a Env, schema: &'a RowSchema, aggs: Option<&'a Aggregates>) -> EvalContext<'a> {
    EvalContext {
        schema,
        functions: &env.0,
        variables: &env.1,
        aggregates: aggs,
    }
}

fn eval_all<'e>(
    exprs: impl Iterator<Item = &'e Expr>,
    row: &[Value],
    ctx: &EvalContext<'_>,
) -> Result<Row, SqlError> {
    exprs.map(|e| eval(e, row, ctx)).collect()
}

/// Does `row` pass the (optional) predicate?
fn passes(pred: Option<&Expr>, row: &[Value], ctx: &EvalContext<'_>) -> Result<bool, SqlError> {
    pred.map_or(Ok(true), |p| Ok(eval(p, row, ctx)?.is_truthy()))
}

/// Rows and schema of one FROM item: a table through the row API, or a
/// view body (a SELECT with its own TOP applied).
fn source(db: &Database, item: &FromItem) -> Result<(Vec<Row>, RowSchema), SqlError> {
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
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let alias = item.alias.as_deref().unwrap_or(name);
    Ok((rows, RowSchema::for_table(Some(alias), &names)))
}

/// One SELECT up to, not including, TOP: `(output rows, output names)`.
fn select(db: &Database, stmt: &SelectStatement) -> Result<(Vec<Row>, Vec<String>), SqlError> {
    let env: Env = (FunctionRegistry::new(), HashMap::new());
    // FROM: fold the items left to right into one product.
    let mut schema = RowSchema::default();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for item in &stmt.from {
        let (right, right_schema) = source(db, item)?;
        let joined = schema.join(&right_schema);
        let ctx = ctx(&env, &joined, None);
        let mut out = Vec::new();
        for left in &rows {
            let mut matched = false;
            let mut pair = left.clone();
            for r in &right {
                pair.truncate(left.len());
                pair.extend(r.iter().cloned());
                if passes(item.on.as_ref(), &pair, &ctx)? {
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
        schema = joined;
    }
    let plain = ctx(&env, &schema, None);
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
                for (q, name) in schema.columns() {
                    let ours = |a: &String| q.as_ref().is_some_and(|q| q.eq_ignore_ascii_case(a));
                    if of.is_none_or(ours) {
                        let (qualifier, output) = (q.map(str::to_string), name.to_string());
                        let name = name.to_string();
                        items.push((Expr::Column { qualifier, name }, output));
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
        collect_aggregates(e, &mut agg_calls);
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
            let mut values = Aggregates::new();
            for call in &agg_calls {
                values.insert(aggregate_key(call), aggregate(call, &members, &plain)?);
            }
            let first = members.into_iter().next();
            let first = first.unwrap_or_else(|| vec![Value::Null; schema.len()]);
            let ctx = ctx(&env, &schema, Some(&values));
            if passes(stmt.having.as_ref(), &first, &ctx)? {
                let out = eval_all(exprs(), &first, &ctx)?;
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
            ords.find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
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
fn aggregate(call: &Expr, rows: &[Row], ctx: &EvalContext<'_>) -> Result<Value, SqlError> {
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
        values.push(eval(arg, row, ctx)?);
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
