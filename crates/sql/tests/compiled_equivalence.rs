//! Property test: compiled expression programs agree with the reference
//! evaluator in `tests/common`, which shares no operator code with them.
//!
//! Random expression trees (covering NULLs, cross-type coercion, short-
//! circuiting three-valued logic, integer and float arithmetic, LIKE, CASE,
//! CAST, built-ins and session variables — including undefined ones) are
//! evaluated over random rows by both.  For every (expression, row) pair the
//! two must agree: same value (exact variant and bits) or both an error.

// This suite uses the reference's expression evaluator, not its SELECT.
#[allow(dead_code)]
mod common;

use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use skyserver_sql::ast::{BinaryOp, Expr, UnaryOp};
use skyserver_sql::exec::compile::compile;
use skyserver_sql::{EvalContext, FunctionRegistry, RowSchema};
use skyserver_storage::{DataType, Value};
use std::collections::HashMap;

/// Fixed test schema: a few numeric columns, a string, a bool.  Rows are
/// generated with NULLs sprinkled into every column.
const COLUMNS: &[&str] = &["a", "b", "c", "s", "flag"];

fn schema() -> RowSchema {
    RowSchema::for_table(Some("t"), COLUMNS)
}

fn random_value(rng: &mut ChaCha8Rng, column: usize) -> Value {
    if rng.gen_range(0..6usize) == 0 {
        return Value::Null;
    }
    match column {
        0 => Value::Int(rng.gen_range(-5i64..50)),
        1 => Value::Float(rng.gen_range(-10.0f64..10.0)),
        2 => Value::Int(rng.gen_range(0i64..8)),
        3 => {
            let len = rng.gen_range(0usize..6);
            let s: String = (0..len)
                .map(|_| {
                    *[b'a', b'b', b'N', b'_', b'%']
                        .get(rng.gen_range(0..5usize))
                        .unwrap() as char
                })
                .collect();
            Value::str(s)
        }
        _ => Value::Bool(rng.gen_range(0..2) == 1),
    }
}

fn random_literal(rng: &mut ChaCha8Rng) -> Expr {
    Expr::Literal(match rng.gen_range(0..7usize) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(-4i64..10)),
        2 => Value::Float(rng.gen_range(-4.0f64..4.0)),
        3 => Value::Bool(rng.gen_range(0..2) == 1),
        4 => Value::str(["", "a", "ab", "aNb", "b%"][rng.gen_range(0..5usize)]),
        // The ends of the bigint range, where integer arithmetic overflows.
        5 => Value::Int([i64::MIN, i64::MAX][rng.gen_range(0..2usize)]),
        _ => Value::Int(0),
    })
}

fn random_column(rng: &mut ChaCha8Rng) -> Expr {
    let idx = rng.gen_range(0..COLUMNS.len());
    Expr::Column {
        qualifier: if rng.gen_range(0..2) == 0 {
            Some("t".into())
        } else {
            None
        },
        name: COLUMNS[idx].to_string(),
    }
}

/// Build a random expression of bounded depth.  Only names the compiler can
/// resolve are generated (columns of the schema, built-in functions, the
/// `@lim` variable plus the deliberately undefined `@missing`), so that a
/// compilation failure in the test is a real bug, not a generator artifact.
fn random_expr(rng: &mut ChaCha8Rng, depth: usize) -> Expr {
    if depth == 0 {
        return match rng.gen_range(0..5usize) {
            0 | 1 => random_literal(rng),
            2 | 3 => random_column(rng),
            _ => Expr::Variable(if rng.gen_range(0..4) == 0 {
                "missing".into()
            } else {
                "lim".into()
            }),
        };
    }
    let next = depth - 1;
    match rng.gen_range(0..10usize) {
        0 => Expr::Unary {
            op: if rng.gen_range(0..2) == 0 {
                UnaryOp::Neg
            } else {
                UnaryOp::Not
            },
            expr: Box::new(random_expr(rng, next)),
        },
        1..=3 => {
            const OPS: &[BinaryOp] = &[
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::Mod,
                BinaryOp::Eq,
                BinaryOp::NotEq,
                BinaryOp::Lt,
                BinaryOp::LtEq,
                BinaryOp::Gt,
                BinaryOp::GtEq,
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::BitAnd,
                BinaryOp::BitOr,
            ];
            Expr::Binary {
                left: Box::new(random_expr(rng, next)),
                op: OPS[rng.gen_range(0..OPS.len())],
                right: Box::new(random_expr(rng, next)),
            }
        }
        4 => Expr::Between {
            expr: Box::new(random_expr(rng, next)),
            low: Box::new(random_expr(rng, next)),
            high: Box::new(random_expr(rng, next)),
            negated: rng.gen_range(0..2) == 0,
        },
        5 => {
            let n = rng.gen_range(1..4usize);
            Expr::InList {
                expr: Box::new(random_expr(rng, next)),
                list: (0..n).map(|_| random_expr(rng, next)).collect(),
                negated: rng.gen_range(0..2) == 0,
            }
        }
        6 => Expr::IsNull {
            expr: Box::new(random_expr(rng, next)),
            negated: rng.gen_range(0..2) == 0,
        },
        7 => {
            // Mostly constant patterns (the precompiled-matcher path),
            // sometimes a computed one (the dynamic path).
            let pattern = if rng.gen_range(0..4) != 0 {
                Expr::Literal(Value::str(
                    ["%", "a%", "%b", "a_b", "%a%b%", "", "_", "aN%"][rng.gen_range(0..8usize)],
                ))
            } else {
                random_expr(rng, next)
            };
            Expr::Like {
                expr: Box::new(random_expr(rng, next)),
                pattern: Box::new(pattern),
                negated: rng.gen_range(0..2) == 0,
            }
        }
        8 => {
            let n = rng.gen_range(1..3usize);
            Expr::Case {
                branches: (0..n)
                    .map(|_| (random_expr(rng, next), random_expr(rng, next)))
                    .collect(),
                else_value: if rng.gen_range(0..2) == 0 {
                    Some(Box::new(random_expr(rng, next)))
                } else {
                    None
                },
            }
        }
        _ => match rng.gen_range(0..3usize) {
            0 => Expr::Cast {
                expr: Box::new(random_expr(rng, next)),
                ty: [
                    DataType::Int,
                    DataType::Float,
                    DataType::Str,
                    DataType::Bool,
                ][rng.gen_range(0..4usize)],
            },
            1 => Expr::Function {
                name: ["sqrt", "abs", "floor", "upper", "len", "str", "sign"]
                    [rng.gen_range(0..7usize)]
                .to_string(),
                args: vec![random_expr(rng, next)],
            },
            _ => Expr::Function {
                name: ["coalesce", "nullif", "power"][rng.gen_range(0..3usize)].to_string(),
                args: vec![random_expr(rng, next), random_expr(rng, next)],
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Compiled evaluation ≡ the reference's evaluation, per (expression, row).
    #[test]
    fn compiled_matches_interpreted(seed in any::<u64>(),
                                    depth in 1usize..4,
                                    n_rows in 1usize..12) {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let schema = schema();
        let funcs = FunctionRegistry::new();
        let mut vars = HashMap::new();
        vars.insert("lim".to_string(), Value::Float(2.5));
        let ctx = EvalContext {
            variables: &vars,
            functions: &funcs,
            aggregates: None,
        };
        let columns: common::Columns =
            COLUMNS.iter().map(|c| (Some("t".into()), c.to_string())).collect();
        let scope = common::Scope {
            columns: &columns,
            variables: &vars,
            aggregates: &[],
        };
        let expr = random_expr(&mut rng, depth);
        let compiled = compile(&expr, &schema, &funcs)
            .expect("generated expressions only reference resolvable names");
        for _ in 0..n_rows {
            let row: Vec<Value> = (0..COLUMNS.len())
                .map(|c| random_value(&mut rng, c))
                .collect();
            let interpreted = common::eval(&expr, &row, &scope);
            let compiled_result = compiled.eval(&row, &ctx);
            match (&interpreted, &compiled_result) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "value mismatch for {:?} over {:?}",
                    expr,
                    row
                ),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(
                    false,
                    "divergence for {:?} over {:?}: interpreted={:?} compiled={:?}",
                    expr, row, interpreted, compiled_result
                ),
            }
        }
    }
}
