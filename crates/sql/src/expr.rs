//! Expression evaluation over rows.
//!
//! The executor flattens each joined row into a single `&[Value]` slice and
//! describes it with a [`RowSchema`] mapping `(qualifier, column)` pairs to
//! positions.  Expressions are evaluated against that schema with SQL
//! semantics: three-valued logic, NULL propagation through arithmetic, and
//! the T-SQL operators the paper's queries use (bitwise `&` flag tests,
//! `BETWEEN`, `LIKE`, `IN`, `CASE`).

use crate::ast::{is_aggregate_name, BinaryOp, Expr, UnaryOp};
use crate::error::SqlError;
use crate::functions::{eval_builtin, FunctionRegistry};
use skyserver_storage::{ColumnNames, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Describes the columns of a (possibly joined) row: a sequence of parts,
/// each one source's columns under one qualifier.  A part shares its
/// [`ColumnNames`] — a base table's are built once with its schema — so
/// building, cloning and joining schemas copies no names, and resolving a
/// name is one binary search per part.
#[derive(Debug, Clone, Default)]
pub struct RowSchema {
    parts: Vec<SchemaPart>,
}

#[derive(Debug, Clone)]
struct SchemaPart {
    qualifier: Option<String>,
    names: Arc<ColumnNames>,
    /// The ordinals of `names` the part carries, in row order (`None`: all).
    subset: Option<Vec<usize>>,
}

impl SchemaPart {
    fn len(&self) -> usize {
        self.subset.as_ref().map_or(self.names.len(), Vec::len)
    }
}

impl RowSchema {
    /// Build a schema for a single table/alias.
    pub fn for_table(qualifier: Option<&str>, names: &[&str]) -> Self {
        let names = ColumnNames::new(names.iter().map(|n| n.to_string()).collect());
        RowSchema::shared(qualifier, &Arc::new(names), None)
    }

    /// A schema over shared column names (a base table's), carrying the
    /// `subset` ordinals in that order, or every column for `None`.
    pub fn shared(
        qualifier: Option<&str>,
        names: &Arc<ColumnNames>,
        subset: Option<&[usize]>,
    ) -> Self {
        RowSchema {
            parts: vec![SchemaPart {
                qualifier: qualifier.map(str::to_string),
                names: Arc::clone(names),
                subset: subset.map(<[usize]>::to_vec),
            }],
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.parts.iter().map(SchemaPart::len).sum()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(qualifier, name)` pairs, in row order.
    pub fn columns(&self) -> impl Iterator<Item = (Option<&str>, &str)> + '_ {
        self.parts.iter().flat_map(|p| {
            (0..p.len()).map(move |i| {
                let ordinal = p.subset.as_ref().map_or(i, |s| s[i]);
                (
                    p.qualifier.as_deref(),
                    p.names.get(ordinal).unwrap_or_default(),
                )
            })
        })
    }

    /// Concatenate two schemas (join).
    pub fn join(&self, other: &RowSchema) -> RowSchema {
        let mut parts = self.parts.clone();
        parts.extend(other.parts.iter().cloned());
        RowSchema { parts }
    }

    /// Resolve a column reference to a position.
    ///
    /// Unqualified names must be unambiguous; qualified names must match the
    /// qualifier (table alias) and the column name.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, SqlError> {
        let spelled = || {
            format!(
                "{}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            )
        };
        let (mut found, mut offset) = (None, 0);
        for part in &self.parts {
            let have = part.qualifier.as_deref();
            let qualifies =
                qualifier.is_none_or(|q| have.is_some_and(|h| q.eq_ignore_ascii_case(h)));
            let subset = part.subset.as_deref();
            for &ordinal in part.names.ordinals(name).iter().filter(|_| qualifies) {
                // A subset may carry an ordinal twice: both are matches.
                let positions = subset.map_or(ordinal..ordinal + 1, |s| 0..s.len());
                for position in positions.filter(|&p| subset.is_none_or(|s| s[p] == ordinal)) {
                    if found.replace(offset + position).is_some() {
                        let message = format!("ambiguous column reference {}", spelled());
                        return Err(SqlError::Plan(message));
                    }
                }
            }
            offset += part.len();
        }
        found.ok_or_else(|| SqlError::Plan(format!("unknown column {}", spelled())))
    }

    /// Can the reference be resolved?
    pub fn can_resolve(&self, qualifier: Option<&str>, name: &str) -> bool {
        self.resolve(qualifier, name).is_ok()
    }
}

/// Schemas are equal when they list the same `(qualifier, name)` pairs,
/// however their parts are split.
impl PartialEq for RowSchema {
    fn eq(&self, other: &RowSchema) -> bool {
        self.len() == other.len() && self.columns().eq(other.columns())
    }
}

/// Everything an expression evaluation needs besides the row itself.
pub struct EvalContext<'a> {
    /// Schema of the row being evaluated.
    pub schema: &'a RowSchema,
    /// Session variables (`@name`).
    pub variables: &'a HashMap<String, Value>,
    /// Scalar function registry.
    pub functions: &'a FunctionRegistry,
    /// Pre-computed aggregate values keyed by [`aggregate_key`] (present only
    /// while projecting grouped results).
    pub aggregates: Option<&'a HashMap<String, Value>>,
}

/// Canonical key used to look up a pre-computed aggregate value.
pub fn aggregate_key(expr: &Expr) -> String {
    format!("{expr:?}")
}

/// Evaluate an expression against a row.
pub fn eval(expr: &Expr, row: &[Value], ctx: &EvalContext<'_>) -> Result<Value, SqlError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { qualifier, name } => {
            let idx = ctx.schema.resolve(qualifier.as_deref(), name)?;
            row.get(idx)
                .cloned()
                .ok_or_else(|| SqlError::Execution(format!("row too short for column {name}")))
        }
        Expr::Variable(name) => ctx
            .variables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| SqlError::Execution(format!("variable @{name} is not defined"))),
        Expr::Star => Err(SqlError::Execution(
            "'*' is only valid inside count(*)".into(),
        )),
        Expr::Unary { op, expr } => {
            let v = eval(expr, row, ctx)?;
            apply_unary(*op, v)
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, row, ctx),
        Expr::Function { name, args } => eval_function(name, args, row, ctx),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, row, ctx)?;
            let lo = eval(low, row, ctx)?;
            let hi = eval(high, row, ctx)?;
            Ok(between_value(&v, &lo, &hi, *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let iv = eval(item, row, ctx)?;
                if v.sql_eq(&iv) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row, ctx)?;
            let p = eval(pattern, row, ctx)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(&v.to_string(), &p.to_string());
            Ok(Value::Bool(matched != *negated))
        }
        Expr::Case {
            branches,
            else_value,
        } => {
            for (cond, value) in branches {
                if eval(cond, row, ctx)?.is_truthy() {
                    return eval(value, row, ctx);
                }
            }
            match else_value {
                Some(e) => eval(e, row, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty } => {
            let v = eval(expr, row, ctx)?;
            v.coerce(*ty)
                .ok_or_else(|| SqlError::Execution(format!("cannot cast {v} to {ty}")))
        }
    }
}

fn eval_function(
    name: &str,
    args: &[Expr],
    row: &[Value],
    ctx: &EvalContext<'_>,
) -> Result<Value, SqlError> {
    if is_aggregate_name(name) {
        // During grouped projection the executor provides pre-computed
        // aggregate values; anywhere else an aggregate is a planning error.
        let key = aggregate_key(&Expr::Function {
            name: name.to_string(),
            args: args.to_vec(),
        });
        if let Some(aggs) = ctx.aggregates {
            if let Some(v) = aggs.get(&key) {
                return Ok(v.clone());
            }
        }
        return Err(SqlError::Plan(format!(
            "aggregate {name}() is not valid in this context"
        )));
    }
    let mut values = Vec::with_capacity(args.len());
    for a in args {
        values.push(eval(a, row, ctx)?);
    }
    if let Some(result) = eval_builtin(name, &values) {
        return result;
    }
    if let Some(udf) = ctx.functions.scalar(name) {
        return udf(&values);
    }
    Err(SqlError::UnknownFunction(name.to_string()))
}

fn eval_binary(
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    row: &[Value],
    ctx: &EvalContext<'_>,
) -> Result<Value, SqlError> {
    // AND/OR need three-valued logic with short-circuiting.
    if op == BinaryOp::And {
        let l = eval(left, row, ctx)?;
        if !l.is_null() && !l.is_truthy() {
            return Ok(Value::Bool(false));
        }
        let r = eval(right, row, ctx)?;
        if !r.is_null() && !r.is_truthy() {
            return Ok(Value::Bool(false));
        }
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        return Ok(Value::Bool(true));
    }
    if op == BinaryOp::Or {
        let l = eval(left, row, ctx)?;
        if !l.is_null() && l.is_truthy() {
            return Ok(Value::Bool(true));
        }
        let r = eval(right, row, ctx)?;
        if !r.is_null() && r.is_truthy() {
            return Ok(Value::Bool(true));
        }
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        return Ok(Value::Bool(false));
    }
    let l = eval(left, row, ctx)?;
    let r = eval(right, row, ctx)?;
    apply_binary(&l, op, &r)
}

/// Apply a unary operator with the interpreter's NULL/type semantics.  The
/// single source of truth for both the interpreter and compiled programs.
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Result<Value, SqlError> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Execution(format!("cannot negate {other}"))),
        },
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Bool(!other.is_truthy())),
        },
    }
}

/// Apply a non-logical binary operator (arithmetic, comparison, bitwise) to
/// two already-evaluated operands with NULL propagation.  `AND`/`OR` need
/// short-circuiting over unevaluated operands and are handled by the caller.
pub(crate) fn apply_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value, SqlError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arithmetic(l, op, r)
        }
        BinaryOp::Eq => Ok(Value::Bool(l.sql_eq(r))),
        BinaryOp::NotEq => Ok(Value::Bool(!l.sql_eq(r))),
        BinaryOp::Lt => Ok(Value::Bool(l.total_cmp(r) == std::cmp::Ordering::Less)),
        BinaryOp::LtEq => Ok(Value::Bool(l.total_cmp(r) != std::cmp::Ordering::Greater)),
        BinaryOp::Gt => Ok(Value::Bool(l.total_cmp(r) == std::cmp::Ordering::Greater)),
        BinaryOp::GtEq => Ok(Value::Bool(l.total_cmp(r) != std::cmp::Ordering::Less)),
        BinaryOp::BitAnd | BinaryOp::BitOr => {
            let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) else {
                return Err(SqlError::Execution(format!(
                    "bitwise operator {op} needs integer operands, got {l} and {r}"
                )));
            };
            Ok(Value::Int(if op == BinaryOp::BitAnd {
                a & b
            } else {
                a | b
            }))
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("logical operators are handled by callers"),
    }
}

/// `BETWEEN` over already-evaluated operands: NULL anywhere is unknown,
/// otherwise an inclusive [`Value::total_cmp`] range check.
pub(crate) fn between_value(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    if v.is_null() || lo.is_null() || hi.is_null() {
        return Value::Null;
    }
    let within = v.total_cmp(lo) != std::cmp::Ordering::Less
        && v.total_cmp(hi) != std::cmp::Ordering::Greater;
    Value::Bool(within != negated)
}

fn arithmetic(l: &Value, op: BinaryOp, r: &Value) -> Result<Value, SqlError> {
    // String concatenation with '+' (T-SQL style).
    if op == BinaryOp::Add {
        if let (Value::Str(a), b) = (l, r) {
            return Ok(Value::str(format!("{a}{b}")));
        }
        if let (a, Value::Str(b)) = (l, r) {
            return Ok(Value::str(format!("{a}{b}")));
        }
    }
    let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(SqlError::Execution(format!(
            "arithmetic operator {op} needs numeric operands, got {l} and {r}"
        )));
    };
    if both_int && op != BinaryOp::Div {
        let (a, b) = (l.as_i64().unwrap(), r.as_i64().unwrap());
        let out = match op {
            BinaryOp::Add => a.wrapping_add(b),
            BinaryOp::Sub => a.wrapping_sub(b),
            BinaryOp::Mul => a.wrapping_mul(b),
            BinaryOp::Mod => {
                if b == 0 {
                    return Err(SqlError::Execution("integer modulo by zero".into()));
                }
                a % b
            }
            _ => unreachable!(),
        };
        return Ok(Value::Int(out));
    }
    let out = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(SqlError::Execution("division by zero".into()));
            }
            a / b
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(SqlError::Execution("modulo by zero".into()));
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(out))
}

/// SQL `LIKE` pattern matching: `%` matches any run of characters, `_`
/// matches exactly one.  Matching is case-insensitive (SQL Server default
/// collation).
///
/// One-shot convenience over [`crate::exec::compile::LikeMatcher`], which
/// parses the pattern into `%`-separated segments once and matches in
/// O(text x pattern) — pathological patterns like `a%a%a%...%b` cannot
/// trigger the exponential retry a naive recursive matcher suffers.  Hot
/// paths (compiled predicates) build the matcher once per query instead.
pub fn like_match(text: &str, pattern: &str) -> bool {
    crate::exec::compile::LikeMatcher::new(pattern).matches(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn ctx<'a>(
        schema: &'a RowSchema,
        vars: &'a HashMap<String, Value>,
        funcs: &'a FunctionRegistry,
    ) -> EvalContext<'a> {
        EvalContext {
            schema,
            variables: vars,
            functions: funcs,
            aggregates: None,
        }
    }

    fn eval_where(sql_where: &str, schema: &RowSchema, row: &[Value]) -> Value {
        let stmt = parse_select(&format!("select * from t where {sql_where}")).unwrap();
        let vars = HashMap::new();
        let funcs = FunctionRegistry::new();
        eval(&stmt.selection.unwrap(), row, &ctx(schema, &vars, &funcs)).unwrap()
    }

    #[test]
    fn column_resolution_qualified_and_not() {
        let schema = RowSchema::for_table(Some("r"), &["run"])
            .join(&RowSchema::for_table(Some("g"), &["run"]))
            .join(&RowSchema::for_table(None, &["objID"]));
        assert_eq!(schema.resolve(Some("g"), "run").unwrap(), 1);
        assert_eq!(schema.resolve(None, "objid").unwrap(), 2);
        assert!(schema.resolve(None, "run").is_err(), "ambiguous");
        assert!(schema.resolve(Some("x"), "run").is_err(), "unknown alias");
        assert!(schema.can_resolve(Some("r"), "RUN"));
    }

    #[test]
    fn arithmetic_and_comparison() {
        let schema = RowSchema::for_table(None, &["rowv", "colv"]);
        let row = vec![Value::Float(10.0), Value::Float(20.0)];
        assert_eq!(
            eval_where("rowv*rowv + colv*colv between 50 and 1000", &schema, &row),
            Value::Bool(true)
        );
        assert_eq!(eval_where("rowv > colv", &schema, &row), Value::Bool(false));
        assert_eq!(
            eval_where("rowv + 5 = 15", &schema, &row),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("rowv / 4 = 2.5", &schema, &row),
            Value::Bool(true)
        );
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let schema = RowSchema::for_table(None, &["a", "b"]);
        let row = vec![Value::Int(7), Value::Int(3)];
        let stmt = parse_select("select a * b + 1 from t").unwrap();
        let vars = HashMap::new();
        let funcs = FunctionRegistry::new();
        let c = ctx(&schema, &vars, &funcs);
        if let crate::ast::SelectItem::Expr { expr, .. } = &stmt.projections[0] {
            assert_eq!(eval(expr, &row, &c).unwrap(), Value::Int(22));
        } else {
            panic!()
        }
        assert_eq!(eval_where("a % b = 1", &schema, &row), Value::Bool(true));
    }

    #[test]
    fn bitwise_flag_test() {
        let schema = RowSchema::for_table(None, &["flags"]);
        let row = vec![Value::Int(0b1010)];
        assert_eq!(
            eval_where("(flags & 2) = 0", &schema, &row),
            Value::Bool(false)
        );
        assert_eq!(
            eval_where("(flags & 4) = 0", &schema, &row),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("(flags | 1) = 11", &schema, &row),
            Value::Bool(true)
        );
    }

    #[test]
    fn three_valued_logic() {
        let schema = RowSchema::for_table(None, &["a"]);
        let row = vec![Value::Null];
        assert_eq!(eval_where("a > 1 and 1 = 1", &schema, &row), Value::Null);
        assert_eq!(
            eval_where("a > 1 and 1 = 2", &schema, &row),
            Value::Bool(false)
        );
        assert_eq!(
            eval_where("a > 1 or 1 = 1", &schema, &row),
            Value::Bool(true)
        );
        assert_eq!(eval_where("a is null", &schema, &row), Value::Bool(true));
        assert_eq!(
            eval_where("a is not null", &schema, &row),
            Value::Bool(false)
        );
        assert_eq!(eval_where("not a > 1", &schema, &row), Value::Null);
    }

    #[test]
    fn in_list_and_case() {
        let schema = RowSchema::for_table(None, &["type"]);
        let row = vec![Value::Int(3)];
        assert_eq!(
            eval_where("type in (3, 6)", &schema, &row),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("type not in (3, 6)", &schema, &row),
            Value::Bool(false)
        );
        let stmt = parse_select("select case when type = 3 then 'galaxy' else 'other' end from t")
            .unwrap();
        let vars = HashMap::new();
        let funcs = FunctionRegistry::new();
        let c = ctx(&schema, &vars, &funcs);
        if let crate::ast::SelectItem::Expr { expr, .. } = &stmt.projections[0] {
            assert_eq!(eval(expr, &row, &c).unwrap(), Value::str("galaxy"));
        }
    }

    #[test]
    fn like_matching() {
        assert!(like_match("NGC1234", "ngc%"));
        assert!(like_match("skyserver", "%server"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("anything", "%"));
        assert!(!like_match("", "_"));
        let schema = RowSchema::for_table(None, &["name"]);
        let row = vec![Value::str("M64")];
        assert_eq!(
            eval_where("name like 'm%'", &schema, &row),
            Value::Bool(true)
        );
    }

    #[test]
    fn functions_and_variables() {
        let schema = RowSchema::for_table(None, &["rowv", "colv"]);
        let row = vec![Value::Float(3.0), Value::Float(4.0)];
        let mut vars = HashMap::new();
        vars.insert("limit".to_string(), Value::Float(4.5));
        let funcs = FunctionRegistry::new();
        let c = EvalContext {
            schema: &schema,
            variables: &vars,
            functions: &funcs,
            aggregates: None,
        };
        let stmt =
            parse_select("select sqrt(rowv*rowv + colv*colv) from t where sqrt(rowv) < @limit")
                .unwrap();
        if let crate::ast::SelectItem::Expr { expr, .. } = &stmt.projections[0] {
            assert_eq!(eval(expr, &row, &c).unwrap(), Value::Float(5.0));
        }
        assert_eq!(
            eval(&stmt.selection.unwrap(), &row, &c).unwrap(),
            Value::Bool(true)
        );
        // Unknown variable errors.
        let bad = parse_select("select * from t where rowv < @missing").unwrap();
        assert!(eval(&bad.selection.unwrap(), &row, &c).is_err());
    }

    #[test]
    fn unknown_function_is_reported() {
        let schema = RowSchema::for_table(None, &["x"]);
        let row = vec![Value::Int(1)];
        let vars = HashMap::new();
        let funcs = FunctionRegistry::new();
        let c = ctx(&schema, &vars, &funcs);
        let stmt = parse_select("select dbo.fNoSuchThing(x) from t").unwrap();
        if let crate::ast::SelectItem::Expr { expr, .. } = &stmt.projections[0] {
            assert!(matches!(
                eval(expr, &row, &c),
                Err(SqlError::UnknownFunction(_))
            ));
        }
    }

    #[test]
    fn string_concatenation() {
        let schema = RowSchema::for_table(None, &["objid"]);
        let row = vec![Value::Int(42)];
        let vars = HashMap::new();
        let funcs = FunctionRegistry::new();
        let c = ctx(&schema, &vars, &funcs);
        let stmt = parse_select("select 'http://skyserver/expid=' + str(objid) from t").unwrap();
        if let crate::ast::SelectItem::Expr { expr, .. } = &stmt.projections[0] {
            assert_eq!(
                eval(expr, &row, &c).unwrap(),
                Value::str("http://skyserver/expid=42")
            );
        }
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let schema = RowSchema::for_table(None, &["a"]);
        let row = vec![Value::Int(1)];
        let vars = HashMap::new();
        let funcs = FunctionRegistry::new();
        let c = ctx(&schema, &vars, &funcs);
        let stmt = parse_select("select a / 0 from t").unwrap();
        if let crate::ast::SelectItem::Expr { expr, .. } = &stmt.projections[0] {
            assert!(eval(expr, &row, &c).is_err());
        }
    }
}
