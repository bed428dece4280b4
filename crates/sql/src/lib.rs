//! # skyserver-sql
//!
//! The SQL layer of the SkyServer reproduction: a lexer, parser, planner /
//! optimizer and executor for the subset of Transact-SQL the paper's 20
//! data-mining queries use, built on the `skyserver-storage` engine.
//!
//! Highlights that mirror the paper:
//!
//! * **Views as sub-classing** (§9.1.3): `Galaxy` / `Star` / `PhotoPrimary`
//!   queries are merged down to the base `photoObj` table with extra
//!   qualifiers.
//! * **Covering indices as tag tables**: queries covered by an index read
//!   the 10-100x smaller column subset instead of the heap.
//! * **Table-valued spatial functions** (`fGetNearbyObjEq`, `spHTM_Cover`)
//!   usable in `FROM` and nested-loop joined against the `objID` B-tree --
//!   the Figure 10 plan shape.
//! * **Parallel sequential scans** for unindexed predicates -- the Figure 11
//!   plan shape.
//! * **Public query limits** (1,000 rows / 30 seconds, §4).
//! * **EXPLAIN** and per-statement execution statistics with an I/O-model
//!   projection onto the paper's hardware.
//!
//! ```
//! use skyserver_sql::{SqlEngine, FunctionRegistry, QueryLimits};
//! use skyserver_storage::{ColumnDef, Database, DataType, TableSchema, Value};
//!
//! let mut db = Database::new("demo");
//! db.create_table(
//!     "photoObj",
//!     TableSchema::new(vec![
//!         ColumnDef::new("objID", DataType::Int),
//!         ColumnDef::new("modelMag_r", DataType::Float),
//!     ]),
//! ).unwrap();
//! db.insert("photoObj", vec![Value::Int(1), Value::Float(17.2)]).unwrap();
//!
//! let mut engine = SqlEngine::new(db, FunctionRegistry::new());
//! let result = engine.query("select count(*) as n from photoObj where modelMag_r < 18").unwrap();
//! assert_eq!(result.cell(0, "n"), Some(&Value::Int(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod exec;
pub mod executor;
pub mod expr;
pub mod functions;
pub mod lexer;
pub mod monitor;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod result;
pub mod verify;

pub use engine::{EngineStats, PlanSummary, SqlEngine};
pub use error::SqlError;
pub use exec::compile::{CompiledExpr, CompiledPrograms, LikeMatcher};
pub use executor::{Executor, QueryLimits};
pub use expr::{EvalContext, RowSchema};
pub use functions::{
    CoverFn, FineTest, FunctionRegistry, ScalarFn, SeekCover, SeekForm, TableBody, TableFn,
    TableFunction,
};
pub use monitor::{QueryMonitor, MONITOR_BATCH};
pub use parser::{parse_script, parse_select, parse_statement};
pub use plan::{AccessPath, PlanClass, SelectPlan};
pub use planner::Planner;
pub use result::{ResultSet, StatementOutcome};
pub use verify::{verify_plan, verify_plan_with_releases, VerifyReport, Violation, ViolationKind};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use skyserver_storage::{ColumnDef, DataType, Database, IndexDef, TableSchema, Value};

    fn engine_with_values(values: &[(i64, f64)]) -> SqlEngine {
        let mut db = Database::new("prop");
        db.create_table(
            "t",
            TableSchema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Float),
            ]),
        )
        .unwrap();
        db.create_index(IndexDef::new("ix_id", "t", &["id"]))
            .unwrap();
        for (id, v) in values {
            db.insert("t", vec![Value::Int(*id), Value::Float(*v)])
                .unwrap();
        }
        SqlEngine::new(db, FunctionRegistry::new())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// An indexed equality query returns exactly the rows a manual filter
        /// of the input data finds.
        #[test]
        fn index_seek_matches_manual_filter(
            rows in proptest::collection::vec((0i64..40, -100.0..100.0f64), 1..80),
            needle in 0i64..40,
        ) {
            let engine = engine_with_values(&rows);
            let expected = rows.iter().filter(|(id, _)| *id == needle).count();
            let r = engine
                .query(&format!("select count(*) from t where id = {needle}"))
                .unwrap();
            prop_assert_eq!(r.scalar().unwrap().as_i64().unwrap() as usize, expected);
        }

        /// ORDER BY returns values in non-decreasing order and preserves the
        /// multiset of values.
        #[test]
        fn order_by_sorts(rows in proptest::collection::vec((0i64..1000, -1e6..1e6f64), 1..60)) {
            let engine = engine_with_values(&rows);
            let r = engine.query("select v from t order by v").unwrap();
            let vals: Vec<f64> = r.rows.iter().map(|row| row[0].as_f64().unwrap()).collect();
            prop_assert_eq!(vals.len(), rows.len());
            for w in vals.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }

        /// TOP n never returns more than n rows and agrees with the sorted
        /// prefix.
        #[test]
        fn top_n_is_a_prefix(rows in proptest::collection::vec((0i64..1000, -1e3..1e3f64), 1..60),
                             n in 1u64..20) {
            let engine = engine_with_values(&rows);
            let all = engine.query("select v from t order by v").unwrap();
            let top = engine.query(&format!("select top {n} v from t order by v")).unwrap();
            prop_assert!(top.len() <= n as usize);
            prop_assert_eq!(&all.rows[..top.len()], &top.rows[..]);
        }

        /// count(*) with a range predicate equals the manual count, whether
        /// it runs as a scan or a seek.
        #[test]
        fn range_count_matches(rows in proptest::collection::vec((0i64..50, -10.0..10.0f64), 0..80),
                               lo in 0i64..50, hi in 0i64..50) {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let engine = engine_with_values(&rows);
            let expected = rows.iter().filter(|(id, _)| *id >= lo && *id <= hi).count();
            let r = engine
                .query(&format!("select count(*) from t where id between {lo} and {hi}"))
                .unwrap();
            prop_assert_eq!(r.scalar().unwrap().as_i64().unwrap() as usize, expected);
        }
    }
}
