//! Property test: whole single-table queries through the engine (batch
//! kernels, zone pruning, TOP early stop) return what the brute-force
//! reference evaluator in `common/` computes from the same rows.
//!
//! Random queries (sargable and non-sargable predicates, NULL-laden
//! columns, LIKE, bitmask tests, IN lists, mod-by-zero error paths, TOP
//! limits that land exactly on batch boundaries) run over a randomly sized
//! table — sometimes smaller than one 1,024-row batch, sometimes spanning
//! several 1,024-row segments, sometimes with deleted rows punched into it.
//! Rows must agree as multisets (any `n` of them under an unordered TOP), or
//! both sides must fail.  The batch executor evaluates conjunct-major, so
//! errors are compared by presence, not message.

mod common;

use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use skyserver_sql::{FunctionRegistry, QueryLimits, SqlEngine};
use skyserver_storage::{ColumnDef, DataType, Database, TableSchema, Value};

/// Deterministically build one engine from a seeded RNG: `id` is monotonic
/// (so segment zone maps are disjoint and range predicates can prune),
/// every other column gets NULLs sprinkled in.
fn build_engine(rng: &mut ChaCha8Rng, n_rows: usize) -> SqlEngine {
    let mut db = Database::new("prop");
    let schema = TableSchema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("a", DataType::Int).nullable(),
        ColumnDef::new("f", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str).nullable(),
        ColumnDef::new("flags", DataType::Int),
    ]);
    db.create_table("obj", schema).unwrap();
    for i in 0..n_rows {
        let nullable = |rng: &mut ChaCha8Rng, v: Value| {
            if rng.gen_range(0..6usize) == 0 {
                Value::Null
            } else {
                v
            }
        };
        let a = Value::Int(rng.gen_range(-5i64..50));
        let f = Value::Float(rng.gen_range(-10.0f64..10.0));
        let len = rng.gen_range(0usize..5);
        let s: String = (0..len)
            .map(|_| ['a', 'b', 'N', '_'][rng.gen_range(0..4usize)])
            .collect();
        let row = vec![
            Value::Int(i as i64 * 3),
            nullable(rng, a),
            nullable(rng, f),
            nullable(rng, Value::str(s)),
            Value::Int(rng.gen_range(0i64..16)),
        ];
        db.insert("obj", row).unwrap();
    }
    SqlEngine::new(db, FunctionRegistry::new())
}

/// One random predicate atom.  Covers every vectorized kernel (constant
/// comparisons, BETWEEN, IN, IS NULL, LIKE, flag masks) plus shapes that
/// force the scalar fallback (arithmetic, column-column comparison,
/// disjunction) and an occasional mod-by-zero to exercise error paths.
fn atom(rng: &mut ChaCha8Rng) -> String {
    match rng.gen_range(0..12usize) {
        0 => format!("a > {}", rng.gen_range(-5i64..50)),
        1 => format!("a = {}", rng.gen_range(-5i64..50)),
        2 => format!("f <= {:.1}", rng.gen_range(-10.0f64..10.0)),
        3 => {
            let lo = rng.gen_range(0i64..15_000);
            format!("id between {lo} and {}", lo + rng.gen_range(0i64..6_000))
        }
        4 => format!(
            "s {}like '{}'",
            if rng.gen_range(0..3) == 0 { "not " } else { "" },
            ["a%", "%b", "_a%", "%", "ab", "%a%b%"][rng.gen_range(0..6usize)]
        ),
        5 => format!(
            "s is {}null",
            if rng.gen_range(0..2) == 0 { "" } else { "not " }
        ),
        6 => format!(
            "a {}in ({}, {}, {})",
            if rng.gen_range(0..3) == 0 { "not " } else { "" },
            rng.gen_range(-5i64..50),
            rng.gen_range(-5i64..50),
            rng.gen_range(-5i64..50)
        ),
        7 => format!("flags & {} = 0", rng.gen_range(0i64..8)),
        8 => format!("a + f > {}", rng.gen_range(-5i64..40)),
        9 => format!("a % {} = 1", rng.gen_range(0i64..5)),
        10 => format!("not (a < {})", rng.gen_range(-5i64..50)),
        _ => "f > a".to_string(),
    }
}

fn predicate(rng: &mut ChaCha8Rng) -> String {
    let n = rng.gen_range(1..4usize);
    (0..n)
        .map(|_| {
            let lhs = atom(rng);
            if rng.gen_range(0..4usize) == 0 {
                format!("({lhs} or {})", atom(rng))
            } else {
                lhs
            }
        })
        .collect::<Vec<_>>()
        .join(" and ")
}

fn query(rng: &mut ChaCha8Rng) -> String {
    let select = match rng.gen_range(0..6usize) {
        0 => "*",
        1 => "id, a, s",
        2 => "count(*)",
        3 => "a + 1 as x, f",
        4 => "id",
        _ => "s, flags",
    };
    // TOP values straddling the 1,024-row batch size pin the
    // only-at-chunk-boundary limit semantics.
    let top = if rng.gen_range(0..4usize) == 0 {
        format!(
            "top {} ",
            [7, 1023, 1024, 1025, 4096][rng.gen_range(0..5usize)]
        )
    } else {
        String::new()
    };
    let filter = if rng.gen_range(0..8usize) == 0 {
        String::new()
    } else {
        format!(" where {}", predicate(rng))
    };
    format!("select {top}{select} from obj{filter}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine ≡ reference evaluator on rows, or both fail.
    #[test]
    fn engine_rows_agree_with_the_reference(seed in any::<u64>(),
                                            n_rows in 1usize..5_200,
                                            n_queries in 4usize..9) {
        use rand::SeedableRng;
        let mut engine = build_engine(&mut ChaCha8Rng::seed_from_u64(seed), n_rows);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

        // Punch deleted rows into the table so the selection vector has
        // holes to skip (a delete whose predicate errors deletes nothing).
        for _ in 0..rng.gen_range(0..3usize) {
            let delete = format!("delete from obj where {}", atom(&mut rng));
            let _ = engine.execute(&delete, QueryLimits::UNLIMITED);
        }

        for _ in 0..n_queries {
            let sql = query(&mut rng);
            if let Err(divergence) = common::check(&mut engine, &sql) {
                prop_assert!(false, "{}", divergence);
            }
        }
    }
}
