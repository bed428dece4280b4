//! What every compiled expression program shares: the row description and
//! the operators' semantics.
//!
//! The executor flattens each joined row into a single `&[Value]` slice and
//! describes it with a [`RowSchema`] mapping `(qualifier, column)` pairs to
//! positions; [`crate::exec::compile`] resolves names against it once, at
//! plan time.  The operators here are what its programs apply per row:
//! three-valued logic, NULL propagation through arithmetic, checked integer
//! arithmetic, and the T-SQL operators the paper's queries use (bitwise `&`
//! flag tests, `BETWEEN`).  `docs/QUERIES.md` ("Expression semantics")
//! states the rules and where they deviate from T-SQL.

use crate::ast::{BinaryOp, UnaryOp};
use crate::error::SqlError;
use crate::functions::FunctionRegistry;
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

/// Everything a program evaluation needs besides the row itself.
pub struct EvalContext<'a> {
    /// Session variables (`@name`).
    pub variables: &'a HashMap<String, Value>,
    /// Scalar function registry.
    pub functions: &'a FunctionRegistry,
    /// A group's aggregate values, by their position in
    /// `CompiledPrograms::aggregates` (present only while projecting
    /// grouped results).
    pub aggregates: Option<&'a [Value]>,
}

/// Apply a unary operator: NULL propagates, and negating the smallest
/// integer is an overflow error.
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Result<Value, SqlError> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| overflow(format!("-({i})"))),
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

/// `BETWEEN` over already-evaluated operands, as T-SQL reads it:
/// `v >= lo AND v <= hi` in three-valued logic, so a NULL bound leaves the
/// answer unknown only when the other bound does not already decide it
/// (`10 NOT BETWEEN NULL AND 5` is true).
pub(crate) fn between_value(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    let ge = (!lo.is_null()).then(|| v.total_cmp(lo) != std::cmp::Ordering::Less);
    let le = (!hi.is_null()).then(|| v.total_cmp(hi) != std::cmp::Ordering::Greater);
    between_holds(ge, le, negated).map_or(Value::Null, Value::Bool)
}

/// `[NOT] BETWEEN` from its two halves, `v >= lo` and `v <= hi` (`None`:
/// unknown, a NULL bound): their three-valued `AND`, negated for
/// `NOT BETWEEN`.
pub(crate) fn between_holds(ge: Option<bool>, le: Option<bool>, negated: bool) -> Option<bool> {
    let within = match (ge, le) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    };
    within.map(|w| w != negated)
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
    // `int / int` stays a float: a deviation from T-SQL that
    // docs/QUERIES.md ("Expression semantics") records.
    let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(SqlError::Execution(format!(
            "arithmetic operator {op} needs numeric operands, got {l} and {r}"
        )));
    };
    if both_int && op != BinaryOp::Div {
        let (a, b) = (l.as_i64().unwrap(), r.as_i64().unwrap());
        let out = match op {
            BinaryOp::Add => a.checked_add(b),
            BinaryOp::Sub => a.checked_sub(b),
            BinaryOp::Mul => a.checked_mul(b),
            BinaryOp::Mod => {
                if b == 0 {
                    return Err(SqlError::Execution("integer modulo by zero".into()));
                }
                // Truncating, as T-SQL's: the sign follows the dividend.
                a.checked_rem(b)
            }
            _ => unreachable!(),
        };
        return out
            .map(Value::Int)
            .ok_or_else(|| overflow(format!("{a} {op} {b}")));
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

/// T-SQL's error 8115: an integer result that does not fit 64 bits.
pub(crate) fn overflow(expr: String) -> SqlError {
    SqlError::Execution(format!("arithmetic overflow: {expr} does not fit a bigint"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::exec::compile::{compile, LikeMatcher};
    use crate::parser::parse_select;

    /// Compile `expr` against `schema` and run the program over `row`.
    fn run(
        expr: &Expr,
        schema: &RowSchema,
        row: &[Value],
        vars: &HashMap<String, Value>,
    ) -> Result<Value, SqlError> {
        let functions = FunctionRegistry::new();
        let ctx = EvalContext {
            variables: vars,
            functions: &functions,
            aggregates: None,
        };
        compile(expr, schema, &functions)?.eval(row, &ctx)
    }

    /// The first select-list expression of `sql`.
    fn projection(sql: &str) -> Expr {
        match parse_select(sql).unwrap().projections.remove(0) {
            crate::ast::SelectItem::Expr { expr, .. } => expr,
            other => panic!("not an expression: {other:?}"),
        }
    }

    fn eval_select(sql: &str, schema: &RowSchema, row: &[Value]) -> Result<Value, SqlError> {
        run(&projection(sql), schema, row, &HashMap::new())
    }

    fn eval_where(sql_where: &str, schema: &RowSchema, row: &[Value]) -> Value {
        let stmt = parse_select(&format!("select * from t where {sql_where}")).unwrap();
        run(&stmt.selection.unwrap(), schema, row, &HashMap::new()).unwrap()
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
        assert_eq!(
            eval_select("select a * b + 1 from t", &schema, &row).unwrap(),
            Value::Int(22)
        );
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
        let sql = "select case when type = 3 then 'galaxy' else 'other' end from t";
        assert_eq!(
            eval_select(sql, &schema, &row).unwrap(),
            Value::str("galaxy")
        );
    }

    #[test]
    fn like_matching() {
        let like = |text: &str, pattern: &str| LikeMatcher::new(pattern).matches(text);
        assert!(like("NGC1234", "ngc%"));
        assert!(like("skyserver", "%server"));
        assert!(like("abc", "a_c"));
        assert!(!like("abc", "a_d"));
        assert!(like("anything", "%"));
        assert!(!like("", "_"));
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
        let sql = "select sqrt(rowv*rowv + colv*colv) from t where sqrt(rowv) < @limit";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(
            run(&projection(sql), &schema, &row, &vars).unwrap(),
            Value::Float(5.0)
        );
        assert_eq!(
            run(&stmt.selection.unwrap(), &schema, &row, &vars).unwrap(),
            Value::Bool(true)
        );
        // Unknown variable errors.
        let bad = parse_select("select * from t where rowv < @missing").unwrap();
        assert!(run(&bad.selection.unwrap(), &schema, &row, &vars).is_err());
    }

    #[test]
    fn unknown_function_is_reported() {
        let schema = RowSchema::for_table(None, &["x"]);
        let row = vec![Value::Int(1)];
        assert!(matches!(
            eval_select("select dbo.fNoSuchThing(x) from t", &schema, &row),
            Err(SqlError::UnknownFunction(_))
        ));
    }

    #[test]
    fn string_concatenation() {
        let schema = RowSchema::for_table(None, &["objid"]);
        let row = vec![Value::Int(42)];
        let sql = "select 'http://skyserver/expid=' + str(objid) from t";
        assert_eq!(
            eval_select(sql, &schema, &row).unwrap(),
            Value::str("http://skyserver/expid=42")
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let schema = RowSchema::for_table(None, &["a"]);
        let row = vec![Value::Int(1)];
        assert!(eval_select("select a / 0 from t", &schema, &row).is_err());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let schema = RowSchema::for_table(None, &["big", "small"]);
        let row = vec![Value::Int(i64::MAX), Value::Int(i64::MIN)];
        for sql in [
            "select big + 1 from t",
            "select small - 1 from t",
            "select big * 2 from t",
            "select small % -1 from t",
            "select -small from t",
        ] {
            let got = eval_select(sql, &schema, &row);
            assert!(
                matches!(&got, Err(SqlError::Execution(m)) if m.contains("arithmetic overflow")),
                "{sql}: {got:?}"
            );
        }
        assert_eq!(
            eval_select("select -7 % 2 from t", &schema, &row).unwrap(),
            Value::Int(-1),
            "modulo truncates toward zero"
        );
    }
}
