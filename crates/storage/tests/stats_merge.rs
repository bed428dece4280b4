//! Optimizer statistics merged from per-segment summaries are equal, field
//! by field, to what a brute-force pass over the live rows computes — under
//! random batch inserts, single-row inserts, deletes, updates, tail trims
//! (UNDO of the newest batch) and forks written on both sides.  The
//! reference below shares no code with `table_stats`: it materializes the
//! live rows, hashes every value, keeps all distinct hashes in a
//! `BTreeSet` and bins every value.

use proptest::prelude::*;
use skyserver_storage::{
    ColumnDef, ColumnStats, DataType, Database, Histogram, Table, TableSchema, TableStats, Value,
    HISTOGRAM_BINS, KMV_K, SEGMENT_ROWS,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// An increasing key, a float that is NULL-laden and, depending on the
/// batch, spread over far more than `KMV_K` values or over five, strings,
/// bits, blobs, and an integer that is almost always NULL.
fn schema() -> TableSchema {
    TableSchema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("v", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str).nullable(),
        ColumnDef::new("b", DataType::Bool).nullable(),
        ColumnDef::new("x", DataType::Bytes).nullable(),
        ColumnDef::new("n", DataType::Int).nullable(),
    ])
}

fn row(id: i64, seed: usize, k: usize) -> Vec<Value> {
    let mix = seed.wrapping_mul(31).wrapping_add(k.wrapping_mul(7919));
    let v = match mix % 9 {
        0 => Value::Null,
        _ if seed.is_multiple_of(2) => {
            Value::Float((mix % 4000) as f64 * 0.25 - (seed % 50) as f64)
        }
        _ => Value::Float((mix % 5) as f64),
    };
    let s = match mix % 13 {
        0 => Value::Null,
        m => Value::str(format!("s{}", (m * 97 + seed) % 600)),
    };
    let b = match mix % 3 {
        0 => Value::Null,
        m => Value::Bool(m == 1),
    };
    let x = match mix % 5 {
        0 => Value::Null,
        m => Value::bytes([m as u8, (seed % 7) as u8]),
    };
    let n = match mix % 97 {
        0 => Value::Int(seed as i64 - 500),
        _ => Value::Null,
    };
    vec![Value::Int(id), v, s, b, x, n]
}

fn hash_of(h: impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    h.hash(&mut hasher);
    hasher.finish()
}

/// The hash the KMV sketch is defined over: the typed value's own bits
/// (strings and blobs as byte slices).
fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Int(i) => hash_of(i),
        Value::Float(f) => hash_of(f.to_bits()),
        Value::Str(s) => hash_of(s.as_bytes()),
        Value::Bytes(b) => hash_of(&b[..]),
        Value::Bool(b) => hash_of(b),
        Value::Null => unreachable!("NULLs are not hashed"),
    }
}

/// Column `c`'s min and max by definition: the widest zone over all
/// segments (zones are conservative, so these may predate deleted rows).
fn zone_bounds(table: &Table, c: usize) -> Option<(Value, Value)> {
    let zones = table.segments().iter().map(|s| s.column(c));
    let min = zones
        .clone()
        .filter_map(|z| z.zone_min())
        .min_by(|a, b| a.total_cmp(b))?;
    let max = zones
        .filter_map(|z| z.zone_max())
        .max_by(|a, b| a.total_cmp(b))?;
    Some((min.clone(), max.clone()))
}

fn reference(table: &Table, collected_at: u64) -> TableStats {
    let rows: Vec<Vec<Value>> = table.iter().map(|(_, r)| r).collect();
    let columns = table
        .schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(c, def)| {
            let (min, max) = zone_bounds(table, c)?;
            let nulls = rows.iter().filter(|r| r[c].is_null()).count() as u64;
            let values: Vec<&Value> = rows
                .iter()
                .map(|r| &r[c])
                .filter(|v| !v.is_null())
                .collect();
            if values.is_empty() && nulls == 0 {
                return None;
            }
            let distinct: BTreeSet<u64> = values.iter().map(|v| value_hash(v)).collect();
            let smallest: Vec<u64> = distinct.into_iter().take(KMV_K).collect();
            let ndv = match smallest.get(KMV_K - 1) {
                Some(&kth) if kth > 0 => {
                    ((KMV_K - 1) as f64 * u64::MAX as f64 / kth as f64).round() as u64
                }
                _ => smallest.len() as u64,
            };
            let numeric = matches!(def.ty, DataType::Int | DataType::Float);
            let histogram = match (min.as_f64(), max.as_f64()) {
                (Some(lo), Some(hi)) if numeric && !values.is_empty() => {
                    let mut counts = vec![0u64; HISTOGRAM_BINS];
                    for v in &values {
                        let v = v.as_f64().unwrap();
                        let bin = if hi <= lo {
                            0
                        } else {
                            let frac = (v - lo) / (hi - lo);
                            ((frac * HISTOGRAM_BINS as f64) as usize).min(HISTOGRAM_BINS - 1)
                        };
                        counts[bin] += 1;
                    }
                    Some(Histogram {
                        lo,
                        hi,
                        counts,
                        total: values.len() as u64,
                    })
                }
                _ => None,
            };
            Some(ColumnStats {
                min,
                max,
                null_count: nulls,
                ndv: ndv.max(u64::from(!values.is_empty())),
                histogram,
            })
        })
        .collect();
    TableStats {
        row_count: rows.len() as u64,
        collected_at,
        columns,
    }
}

/// Analyze `db`'s table and compare with the reference, and check the
/// tail invariant: the last slot, if any, is live.
fn check(db: &mut Database) {
    db.analyze_table("t").unwrap();
    let table = db.table("t").unwrap();
    let expected = reference(table, db.current_timestamp());
    assert_eq!(db.table_stats("t"), Some(&expected));
    let end = table.row_ids().last().map_or(0, |id| id + 1);
    assert_eq!(table.slot_count(), end, "a dead tail was left behind");
    assert!(table.segments().iter().all(|s| s.slot_count() > 0));
}

struct Writer {
    db: Database,
    forks: Vec<Database>,
    next_id: i64,
    /// Timestamp of the newest batch, for UNDO.
    last_batch: u64,
}

impl Writer {
    fn apply(&mut self, op: u8, a: usize, b: usize) {
        let db = &mut self.db;
        let live: Vec<usize> = db.table("t").unwrap().row_ids().collect();
        match op {
            0..=2 => {
                let ts = db.next_timestamp();
                let rows = (0..1 + a % 1200)
                    .map(|k| {
                        self.next_id += 1;
                        row(self.next_id, a ^ b, k)
                    })
                    .collect();
                db.insert_many("t", rows, ts).unwrap();
                self.last_batch = ts;
            }
            3 => {
                self.next_id += 1;
                db.insert("t", row(self.next_id, b, a)).unwrap();
            }
            4 if !live.is_empty() => {
                assert!(db.delete("t", live[a % live.len()]).unwrap());
            }
            5 if !live.is_empty() => {
                // Up to a whole segment and more, anywhere in the table:
                // leaves all-tombstoned segments in the middle.
                let from = live[a % live.len()];
                for &id in live.iter().filter(|&&id| id >= from).take(b % 1300) {
                    db.delete("t", id).unwrap();
                }
            }
            6 if !live.is_empty() => {
                let id = live[a % live.len()];
                let table = db.table_mut("t").unwrap();
                let mut new = row(0, b, a);
                new[0] = table.get_cell(id, 0).unwrap();
                assert!(table.update(id, new).unwrap());
            }
            7 => {
                db.delete_by_timestamp_range("t", self.last_batch, self.last_batch)
                    .unwrap();
            }
            8 => self.forks.push(db.clone()),
            9 if !self.forks.is_empty() => {
                let n = self.forks.len();
                std::mem::swap(&mut self.db, &mut self.forks[a % n]);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_statistics_equal_a_sweep_of_the_live_rows(
        ops in proptest::collection::vec((0u8..12, 0usize..5000, 0usize..5000), 10..40),
    ) {
        let mut db = Database::new("stats");
        db.create_table("t", schema()).unwrap();
        let mut w = Writer { db, forks: Vec::new(), next_id: 0, last_batch: 0 };
        for (op, a, b) in ops {
            w.apply(op, a, b);
            check(&mut w.db);
        }
        for fork in &mut w.forks {
            check(fork);
        }
    }
}

#[test]
fn moving_edges_rebin_and_an_emptied_table_has_no_column_statistics() {
    let mut db = Database::new("stats");
    db.create_table("t", schema()).unwrap();
    let rows = (0..3 * SEGMENT_ROWS).map(|k| row(k as i64, 2, k)).collect();
    db.insert_many("t", rows, 1).unwrap();
    check(&mut db);
    // One far-out value moves every numeric edge: every segment re-bins.
    let far = vec![
        Value::Int(1 << 40),
        Value::Float(1e9),
        Value::Null,
        Value::Null,
        Value::Null,
        Value::Int(-1 << 40),
    ];
    db.insert_many("t", vec![far], 2).unwrap();
    check(&mut db);
    assert!(db.table_stats("t").unwrap().column(1).unwrap().ndv > KMV_K as u64);
    // Its UNDO trims it away, and the edges move back.
    assert_eq!(db.delete_by_timestamp_range("t", 2, 2).unwrap(), 1);
    check(&mut db);
    assert_eq!(db.table("t").unwrap().slot_count(), 3 * SEGMENT_ROWS);
    assert_eq!(
        db.delete_by_timestamp_range("t", 1, 1).unwrap(),
        3 * SEGMENT_ROWS
    );
    check(&mut db);
    let stats = db.table_stats("t").unwrap();
    assert_eq!(stats.row_count, 0);
    assert!(stats.columns.iter().all(Option::is_none));
}
