//! Scalar and table-valued function registries.
//!
//! The SkyServer extends SQL Server with astronomy functions: scalar helpers
//! like `dbo.fPhotoFlags('saturated')` and `dbo.fGetUrlExpId(objID)`, and
//! table-valued spatial functions like `fGetNearbyObjEq(ra, dec, radius)`
//! and `spHTM_Cover(...)` that appear in `FROM` clauses.  The SQL engine
//! itself knows nothing about astronomy: the `skyserver-schema` crate
//! registers those functions here, and built-in math/string functions are
//! provided for everything the paper's queries use (`sqrt`, `power`, `abs`,
//! `pi`, `log`, `floor`, `str`, ...).

use crate::error::SqlError;
use crate::result::ResultSet;
use skyserver_storage::{Database, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A scalar user-defined function: values in, value out.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value, SqlError> + Send + Sync>;

/// A table-valued user-defined function run to completion: it receives
/// the database plus its arguments and returns a result set
/// (`spHTM_CoverCircleEq`).
pub type TableFn = Arc<dyn Fn(&Database, &[Value]) -> Result<ResultSet, SqlError> + Send + Sync>;

/// The fine test of a [`SeekForm`]: given one entry's tested cells (in
/// [`SeekForm::tested`] order), the measure the entry is kept with — a
/// cone's exact distance — or `None` to reject it.
pub type FineTest = Arc<dyn Fn(&[f64]) -> Option<f64> + Send + Sync>;

/// One call's two filters (§9.1.4): the coarse one, a set of key ranges
/// of the form's index, and the fine one, the exact per-entry test.
pub struct SeekCover {
    /// Inclusive `(lo, hi)` bounds on the index's leading key, ascending
    /// under [`Value::total_cmp`] and disjoint.
    pub ranges: Vec<(Value, Value)>,
    /// The exact test the entries under the ranges must pass.
    pub test: FineTest,
}

impl SeekCover {
    /// Why the ranges cannot be walked in one forward pass (`None` when
    /// they can): a range whose bounds are reversed, ranges out of order,
    /// or a range that starts before the previous one ends.
    pub fn range_fault(&self) -> Option<String> {
        for (i, (lo, hi)) in self.ranges.iter().enumerate() {
            if lo.total_cmp(hi).is_gt() {
                return Some(format!("range {i} ends before it starts"));
            }
        }
        for (i, w) in self.ranges.windows(2).enumerate() {
            let (prev, next) = (&w[0], &w[1]);
            if next.0.total_cmp(&prev.0).is_lt() {
                return Some(format!("unsorted: range {} starts before range {i}", i + 1));
            }
            if next.0.total_cmp(&prev.1).is_le() {
                return Some(format!("overlap: range {} starts inside range {i}", i + 1));
            }
        }
        None
    }
}

impl PartialEq for SeekCover {
    /// Covers compare by their ranges: the test is a function of the same
    /// arguments.
    fn eq(&self, other: &SeekCover) -> bool {
        self.ranges == other.ranges
    }
}

impl std::fmt::Debug for SeekCover {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeekCover")
            .field("ranges", &self.ranges)
            .finish_non_exhaustive()
    }
}

/// Computes a [`SeekCover`] from a call's arguments, or the call's error
/// (a non-positive radius, an empty rectangle).
pub type CoverFn = Arc<dyn Fn(&[Value]) -> Result<SeekCover, SqlError> + Send + Sync>;

/// A table-valued function the planner answers as a range-set seek over
/// one index of one table (the paper's spatial search, §9.1.4): the cover
/// turns the arguments into key ranges, the index runs under them are
/// walked once, and each entry's fine test yields its measure or rejects
/// it.  Every output column of the function is a column of the table or
/// the measure.  The form knows the geometry; the SQL engine only walks
/// ranges and calls the test.
pub struct SeekForm {
    /// The table searched.
    pub table: String,
    /// The index walked: it must lead on [`Self::key`].  Without it the
    /// table is scanned with the same fine test.
    pub index: String,
    /// The key column the cover's ranges bound.
    pub key: String,
    /// The table columns the fine test reads, in the order it reads them.
    pub tested: Vec<String>,
    /// The coarse and fine filters of one call.
    pub cover: CoverFn,
    /// The output column holding the fine test's measure, if any.
    pub measure: Option<String>,
    /// Rows leave ordered by the measure; ties keep index order.
    pub ordered: bool,
    /// Most rows one call returns (the nearest-object function's 1).
    pub limit: Option<u64>,
}

impl PartialEq for SeekForm {
    /// Forms compare by identity: the same registration.
    fn eq(&self, other: &SeekForm) -> bool {
        Arc::ptr_eq(&self.cover, &other.cover)
    }
}

impl std::fmt::Debug for SeekForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (table, index) = (&self.table, &self.index);
        write!(f, "SeekForm({table}.{index})")
    }
}

/// How a table-valued function is answered.
#[derive(Clone)]
pub enum TableBody {
    /// Run to completion by the executor.
    Closure(TableFn),
    /// Bound by the planner as a range-set seek of its table.
    Seek(Arc<SeekForm>),
}

/// A registered table-valued function: its output column names plus the
/// implementation.  The planner needs the column names to bind references
/// like `GN.distance` before the function has run.
#[derive(Clone)]
pub struct TableFunction {
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// The implementation.
    pub body: TableBody,
}

/// Registry of user-defined scalar and table-valued functions.
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    scalars: HashMap<String, ScalarFn>,
    tables: HashMap<String, TableFunction>,
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("scalars", &self.scalars.keys().collect::<Vec<_>>())
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Normalise a function name: lowercase with any `dbo.` prefix removed.
pub fn normalize_name(name: &str) -> String {
    let lower = name.to_ascii_lowercase();
    lower.strip_prefix("dbo.").unwrap_or(&lower).to_string()
}

impl FunctionRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a scalar UDF (name is matched case-insensitively, with or
    /// without a `dbo.` prefix).
    pub fn register_scalar(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value, SqlError> + Send + Sync + 'static,
    ) {
        self.scalars.insert(normalize_name(name), Arc::new(f));
    }

    /// Register a table-valued UDF with its output column names.
    pub fn register_table(
        &mut self,
        name: &str,
        columns: &[&str],
        f: impl Fn(&Database, &[Value]) -> Result<ResultSet, SqlError> + Send + Sync + 'static,
    ) {
        self.tables.insert(
            normalize_name(name),
            TableFunction {
                columns: columns.iter().map(|s| s.to_string()).collect(),
                body: TableBody::Closure(Arc::new(f)),
            },
        );
    }

    /// Register a table-valued function the planner answers as a
    /// range-set seek ([`SeekForm`]).  Each output column must be a column
    /// of the form's table or its measure.
    pub fn register_seek(&mut self, name: &str, columns: &[&str], form: SeekForm) {
        self.tables.insert(
            normalize_name(name),
            TableFunction {
                columns: columns.iter().map(|s| s.to_string()).collect(),
                body: TableBody::Seek(Arc::new(form)),
            },
        );
    }

    /// Look up a scalar UDF.
    pub fn scalar(&self, name: &str) -> Option<&ScalarFn> {
        self.scalars.get(&normalize_name(name))
    }

    /// Look up a scalar UDF by an already-[`normalize_name`]d name.  The
    /// compiled expression path normalizes once at plan time, so the per-row
    /// lookup allocates nothing.
    pub fn scalar_normalized(&self, normalized: &str) -> Option<&ScalarFn> {
        self.scalars.get(normalized)
    }

    /// Look up a table-valued UDF.
    pub fn table(&self, name: &str) -> Option<&TableFunction> {
        self.tables.get(&normalize_name(name))
    }

    /// Names of all registered scalar functions (sorted).
    pub fn scalar_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.scalars.keys().cloned().collect();
        v.sort();
        v
    }

    /// Names of all registered table-valued functions (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Evaluate a built-in scalar function.  Returns `None` when the name is not
/// a built-in (the caller then consults the UDF registry).
pub fn eval_builtin(name: &str, args: &[Value]) -> Option<Result<Value, SqlError>> {
    eval_builtin_normalized(&normalize_name(name), args)
}

/// Is the (already-normalized) name a built-in scalar function?  Used by the
/// expression compiler to classify calls at plan time.
pub fn is_builtin(normalized: &str) -> bool {
    // Every built-in arm returns `Some` for any argument list (bad arity is
    // `Some(Err)`), so probing with no arguments is a safe membership test.
    eval_builtin_normalized(normalized, &[]).is_some()
}

/// [`eval_builtin`] without the per-call name normalization: `name` must
/// already be lowercase with any `dbo.` prefix stripped.
pub fn eval_builtin_normalized(name: &str, args: &[Value]) -> Option<Result<Value, SqlError>> {
    let result = match name {
        "sqrt" => unary_math(name, args, f64::sqrt),
        "abs" => match args {
            [Value::Int(i)] => i
                .checked_abs()
                .map(Value::Int)
                .ok_or_else(|| crate::expr::overflow(format!("abs({i})"))),
            _ => unary_math(name, args, f64::abs),
        },
        "floor" => unary_math(name, args, f64::floor),
        "ceiling" | "ceil" => unary_math(name, args, f64::ceil),
        "exp" => unary_math(name, args, f64::exp),
        "log" => unary_math(name, args, f64::ln),
        "log10" => unary_math(name, args, f64::log10),
        "sin" => unary_math(name, args, f64::sin),
        "cos" => unary_math(name, args, f64::cos),
        "tan" => unary_math(name, args, f64::tan),
        "asin" => unary_math(name, args, f64::asin),
        "acos" => unary_math(name, args, f64::acos),
        "atan" => unary_math(name, args, f64::atan),
        "radians" => unary_math(name, args, f64::to_radians),
        "degrees" => unary_math(name, args, f64::to_degrees),
        "sign" => unary_math(name, args, f64::signum),
        "square" => unary_math(name, args, |x| x * x),
        "pi" => {
            if args.is_empty() {
                Ok(Value::Float(std::f64::consts::PI))
            } else {
                Err(SqlError::Execution("pi() takes no arguments".into()))
            }
        }
        "power" => binary_math(name, args, f64::powf),
        "atn2" | "atan2" => binary_math(name, args, f64::atan2),
        "round" => match args {
            [v] => unary_math(name, std::slice::from_ref(v), f64::round),
            [v, d] => round_to_digits(name, v, d),
            _ => Err(SqlError::Execution("round() takes 1 or 2 arguments".into())),
        },
        "str" => match args.first() {
            Some(v) => Ok(Value::str(v.to_string())),
            None => Err(SqlError::Execution("str() needs an argument".into())),
        },
        "len" | "length" => match args.first() {
            Some(Value::Str(s)) => Ok(Value::Int(s.len() as i64)),
            Some(v) => Ok(Value::Int(v.to_string().len() as i64)),
            None => Err(SqlError::Execution("len() needs an argument".into())),
        },
        "upper" => string_fn(name, args, |s| s.to_ascii_uppercase()),
        "lower" => string_fn(name, args, |s| s.to_ascii_lowercase()),
        "ltrim" => string_fn(name, args, |s| s.trim_start().to_string()),
        "rtrim" => string_fn(name, args, |s| s.trim_end().to_string()),
        "substring" => substring_fn(name, args),
        "coalesce" | "isnull" => {
            for a in args {
                if !a.is_null() {
                    return Some(Ok(a.clone()));
                }
            }
            Ok(Value::Null)
        }
        "nullif" => match args {
            [a, b] => {
                if a.sql_eq(b) {
                    Ok(Value::Null)
                } else {
                    Ok(a.clone())
                }
            }
            _ => Err(SqlError::Execution("nullif takes 2 arguments".into())),
        },
        _ => return None,
    };
    Some(result)
}

fn round_to_digits(name: &str, v: &Value, d: &Value) -> Result<Value, SqlError> {
    let x = numeric_arg(name, v)?;
    let digits = numeric_arg(name, d)? as i32;
    let factor = 10f64.powi(digits);
    Ok(Value::Float((x * factor).round() / factor))
}

fn substring_fn(name: &str, args: &[Value]) -> Result<Value, SqlError> {
    match args {
        [Value::Str(s), start, len] => {
            let start = (numeric_arg(name, start)? as usize).saturating_sub(1);
            let len = numeric_arg(name, len)? as usize;
            Ok(Value::str(
                s.chars().skip(start).take(len).collect::<String>(),
            ))
        }
        _ => Err(SqlError::Execution(
            "substring(str, start, len) argument error".into(),
        )),
    }
}

fn numeric_arg(name: &str, v: &Value) -> Result<f64, SqlError> {
    v.as_f64()
        .ok_or_else(|| SqlError::Execution(format!("{name}() expects a numeric argument, got {v}")))
}

fn unary_math(name: &str, args: &[Value], f: impl Fn(f64) -> f64) -> Result<Value, SqlError> {
    match args {
        [v] if v.is_null() => Ok(Value::Null),
        [v] => Ok(Value::Float(f(numeric_arg(name, v)?))),
        _ => Err(SqlError::Execution(format!("{name}() takes one argument"))),
    }
}

fn binary_math(name: &str, args: &[Value], f: impl Fn(f64, f64) -> f64) -> Result<Value, SqlError> {
    match args {
        [a, b] if a.is_null() || b.is_null() => Ok(Value::Null),
        [a, b] => Ok(Value::Float(f(
            numeric_arg(name, a)?,
            numeric_arg(name, b)?,
        ))),
        _ => Err(SqlError::Execution(format!("{name}() takes two arguments"))),
    }
}

fn string_fn(name: &str, args: &[Value], f: impl Fn(&str) -> String) -> Result<Value, SqlError> {
    match args {
        [Value::Str(s)] => Ok(Value::str(f(s))),
        [v] if v.is_null() => Ok(Value::Null),
        [v] => Ok(Value::str(f(&v.to_string()))),
        _ => Err(SqlError::Execution(format!("{name}() takes one argument"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_math() {
        assert_eq!(
            eval_builtin("sqrt", &[Value::Float(9.0)]).unwrap().unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            eval_builtin("POWER", &[Value::Int(2), Value::Int(10)])
                .unwrap()
                .unwrap(),
            Value::Float(1024.0)
        );
        assert_eq!(
            eval_builtin("abs", &[Value::Int(-5)]).unwrap().unwrap(),
            Value::Int(5)
        );
        let pi = eval_builtin("pi", &[]).unwrap().unwrap();
        assert!((pi.as_f64().unwrap() - std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(
            eval_builtin("round", &[Value::Float(2.567), Value::Int(2)])
                .unwrap()
                .unwrap(),
            Value::Float(2.57)
        );
    }

    #[test]
    fn builtin_strings() {
        assert_eq!(
            eval_builtin("upper", &[Value::str("ngc")])
                .unwrap()
                .unwrap(),
            Value::str("NGC")
        );
        assert_eq!(
            eval_builtin("len", &[Value::str("abc")]).unwrap().unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_builtin(
                "substring",
                &[Value::str("skyserver"), Value::Int(4), Value::Int(6)]
            )
            .unwrap()
            .unwrap(),
            Value::str("server")
        );
        assert_eq!(
            eval_builtin("str", &[Value::Int(42)]).unwrap().unwrap(),
            Value::str("42")
        );
    }

    #[test]
    fn null_propagation_and_coalesce() {
        assert_eq!(
            eval_builtin("sqrt", &[Value::Null]).unwrap().unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_builtin("coalesce", &[Value::Null, Value::Int(3), Value::Int(7)])
                .unwrap()
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_builtin("nullif", &[Value::Int(3), Value::Int(3)])
                .unwrap()
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn unknown_builtin_returns_none() {
        assert!(eval_builtin("fPhotoFlags", &[Value::str("saturated")]).is_none());
        assert!(eval_builtin("no_such_function", &[]).is_none());
    }

    #[test]
    fn bad_arity_is_an_error() {
        assert!(eval_builtin("sqrt", &[]).unwrap().is_err());
        assert!(eval_builtin("power", &[Value::Int(2)]).unwrap().is_err());
        assert!(eval_builtin("pi", &[Value::Int(1)]).unwrap().is_err());
        assert!(eval_builtin("sqrt", &[Value::str("x")]).unwrap().is_err());
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = FunctionRegistry::new();
        reg.register_scalar("dbo.fPhotoFlags", |args| {
            Ok(Value::Int(if args[0] == Value::str("saturated") {
                64
            } else {
                0
            }))
        });
        reg.register_table("fGetNearbyObjEq", &["objID", "distance"], |_db, _args| {
            Ok(ResultSet::empty(vec!["objID".into(), "distance".into()]))
        });
        // Lookup works with or without the dbo. prefix and any case.
        assert!(reg.scalar("fphotoflags").is_some());
        assert!(reg.scalar("DBO.FPHOTOFLAGS").is_some());
        assert!(reg.table("fgetnearbyobjeq").is_some());
        assert_eq!(
            reg.table("fGetNearbyObjEq").unwrap().columns,
            vec!["objID", "distance"]
        );
        assert!(reg.scalar("missing").is_none());
        assert_eq!(reg.scalar_names(), vec!["fphotoflags"]);
        assert_eq!(reg.table_names(), vec!["fgetnearbyobjeq"]);
        let f = reg.scalar("fPhotoFlags").unwrap();
        assert_eq!(f(&[Value::str("saturated")]).unwrap(), Value::Int(64));
    }

    #[test]
    fn normalize_names() {
        assert_eq!(normalize_name("dbo.fGetUrlExpId"), "fgeturlexpid");
        assert_eq!(normalize_name("SQRT"), "sqrt");
    }
}
