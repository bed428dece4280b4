//! # skyserver-storage
//!
//! The relational storage engine substrate of the SkyServer reproduction.
//!
//! The original SkyServer runs on Microsoft SQL Server 2000; this crate is a
//! from-scratch stand-in providing the pieces the paper's design actually
//! relies on:
//!
//! * typed [`Value`]s and [`TableSchema`]s with NOT NULL enforcement
//!   (§9.1.3: *"We also insist that all fields are non-null"*),
//! * heap [`Table`]s whose rows carry insert timestamps (the loader's UNDO
//!   primitive, §9.4),
//! * composite, optionally covering [`BTreeIndex`]es -- the automatically
//!   managed replacement for the old "tag tables" (§9.1.3),
//! * a [`Database`] catalog with views, foreign keys and size accounting
//!   (Table 1),
//! * the per-statement access counters ([`ScanStats`]) that the
//!   reproduction crate projects onto the paper's 2002 hardware for
//!   Figure 13.
//!
//! The SQL layer (`skyserver-sql`) builds the parser, planner and executor
//! on top of these primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod error;
pub mod failpoints;
pub mod index;
pub mod release;
pub mod schema;
pub mod stats;
pub mod table;
pub mod table_stats;
pub mod value;

pub use database::{Database, ForeignKey, TableSummary, ViewDef};
pub use error::StorageError;
pub use failpoints::FailAction;
pub use index::{
    BTreeIndex, IndexCursor, IndexDef, IndexEntry, IndexKey, Run, SortedSeek, RUN_ENTRIES,
};
pub use release::{DiffStatus, ReleaseCatalog, ReleaseDiff, ReleaseInfo, TableDiff};
pub use schema::{ColumnDef, ColumnNames, SchemaError, TableSchema};
pub use stats::{ExecutionStats, ScanStats};
pub use table::{Column, ColumnData, RowId, Segment, Table, Timestamp, SEGMENT_ROWS};
pub use table_stats::{ColumnStats, Histogram, SegmentSummary, TableStats, HISTOGRAM_BINS, KMV_K};
pub use value::{csv_escape, hex_decode, hex_encode, DataType, Value};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>()
                .prop_filter("finite", |f| f.is_finite())
                .prop_map(Value::Float),
            "[a-zA-Z0-9 ,._-]{0,24}".prop_map(Value::str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest! {
        /// Value ordering is a total order: antisymmetric and transitive on
        /// sampled triples.
        #[test]
        fn value_ordering_total(a in arb_value(), b in arb_value(), c in arb_value()) {
            use std::cmp::Ordering::*;
            let ab = a.total_cmp(&b);
            let ba = b.total_cmp(&a);
            prop_assert_eq!(ab.reverse(), ba);
            if ab != Greater && b.total_cmp(&c) != Greater {
                prop_assert_ne!(a.total_cmp(&c), Greater);
            }
            prop_assert_eq!(a.total_cmp(&a), Equal);
        }

        /// Hex encoding of blobs round-trips.
        #[test]
        fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let enc = hex_encode(&data);
            prop_assert_eq!(hex_decode(&enc).unwrap(), data);
        }

        /// Inserting rows then deleting a timestamp window leaves exactly the
        /// rows outside the window, and index contents match the heap.
        #[test]
        fn undo_window_consistency(stamps in proptest::collection::vec(1u64..100, 1..60),
                                   lo in 1u64..100, hi in 1u64..100) {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let schema = TableSchema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ]);
            let mut db = Database::new("p");
            db.create_table("t", schema).unwrap();
            db.create_index(IndexDef::new("ix_v", "t", &["v"])).unwrap();
            for (i, ts) in stamps.iter().enumerate() {
                db.insert_with_timestamp("t", vec![Value::Int(i as i64), Value::Int(*ts as i64)], *ts).unwrap();
            }
            let expected_remaining = stamps.iter().filter(|&&t| t < lo || t > hi).count();
            let removed = db.delete_by_timestamp_range("t", lo, hi).unwrap();
            prop_assert_eq!(removed, stamps.len() - expected_remaining);
            prop_assert_eq!(db.table("t").unwrap().row_count(), expected_remaining);
            prop_assert_eq!(db.index("t", "ix_v").unwrap().len(), expected_remaining);
        }

        /// An index range scan returns exactly the rows a full scan + filter
        /// would (index and heap agree).
        #[test]
        fn index_range_matches_scan(values in proptest::collection::vec(-50i64..50, 1..80),
                                    lo in -50i64..50, hi in -50i64..50) {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let schema = TableSchema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ]);
            let mut db = Database::new("p");
            db.create_table("t", schema).unwrap();
            db.create_index(IndexDef::new("ix_v", "t", &["v"])).unwrap();
            for (i, v) in values.iter().enumerate() {
                db.insert("t", vec![Value::Int(i as i64), Value::Int(*v)]).unwrap();
            }
            let idx = db.index("t", "ix_v").unwrap();
            let from_index = idx.range(&[Value::Int(lo)], &[Value::Int(hi)]).count();
            let from_scan = values.iter().filter(|&&v| v >= lo && v <= hi).count();
            prop_assert_eq!(from_index, from_scan);
        }
    }
}
