//! Model test of the sorted-run index: random interleavings of inserts,
//! removes and probes against a `BTreeMap<(key, RowId), included>`, which
//! shares no code with the runs, the fence search or the cursor.

use proptest::prelude::*;
use skyserver_storage::{
    BTreeIndex, ColumnDef, DataType, IndexDef, IndexKey, RowId, Table, TableSchema, Value,
    RUN_ENTRIES,
};
use std::collections::BTreeMap;

type Model = BTreeMap<(Vec<Value>, RowId), Vec<Value>>;

/// `a float, b bigint, s varchar`, all nullable, drawn from domains small
/// enough that most keys repeat.
fn cell(column: usize, pick: usize) -> Value {
    let floats = [-1.5, 0.0, 1.0, 2.0, 2.5];
    let strs = ["", "x", "yy"];
    match (column, pick % 7) {
        (_, 0) => Value::Null,
        (0, p) => Value::Float(floats[p % floats.len()]),
        (1, p) => Value::Int(p as i64 - 2),
        (_, p) => Value::str(strs[p % strs.len()]),
    }
}

/// A probe value for key column `column`: the column's own type, the other
/// numeric type (`Int` on the float column and the reverse), or NULL.
fn probe(column: usize, pick: usize) -> Value {
    match (column, pick % 5) {
        (0, 3) => Value::Int(pick as i64 % 4 - 1),
        (1, 3) => Value::Float((pick % 9) as f64 / 2.0 - 2.0),
        _ => cell(column, pick),
    }
}

struct Indexed {
    idx: BTreeIndex,
    model: Model,
    /// Table positions of the key columns, then of the included ones.
    keys: Vec<usize>,
    included: Vec<usize>,
}

impl Indexed {
    fn new(def: IndexDef, table: &Table, keys: &[usize], included: &[usize]) -> Indexed {
        Indexed {
            idx: BTreeIndex::build(def, table).unwrap(),
            model: Model::new(),
            keys: keys.to_vec(),
            included: included.to_vec(),
        }
    }

    fn split(&self, row: &[Value]) -> (Vec<Value>, Vec<Value>) {
        let pick = |ps: &[usize]| ps.iter().map(|&p| row[p].clone()).collect();
        (pick(&self.keys), pick(&self.included))
    }

    fn insert(&mut self, id: RowId, row: &[Value]) {
        let (key, included) = self.split(row);
        self.idx.insert_row(id, row).unwrap();
        self.model.insert((key, id), included);
    }

    fn remove(&mut self, id: RowId, row: &[Value]) {
        self.idx.remove_row(id, row);
        self.model.remove(&(self.split(row).0, id));
    }

    /// What a cursor yields, in the model's shape.
    fn entries(&self, lo: &[Value], hi: &[Value]) -> Vec<(Vec<Value>, RowId, Vec<Value>)> {
        let (k, n) = (self.keys.len(), self.keys.len() + self.included.len());
        self.idx
            .range(lo, hi)
            .map(|e| {
                let cells = |r: std::ops::Range<usize>| r.map(|c| e.cell(c)).collect();
                (cells(0..k), e.row_id(), cells(k..n))
            })
            .collect()
    }

    /// The model's answer: bounds are inclusive key prefixes, and the empty
    /// prefix bounds nothing.
    fn expected(&self, lo: &[Value], hi: &[Value]) -> Vec<(Vec<Value>, RowId, Vec<Value>)> {
        self.model
            .iter()
            .filter(|((key, _), _)| &key[..lo.len()] >= lo && &key[..hi.len()] <= hi)
            .map(|((key, id), included)| (key.clone(), *id, included.clone()))
            .collect()
    }

    fn check_range(&self, lo: &[Value], hi: &[Value]) {
        let entries = self.entries(lo, hi);
        assert_eq!(entries, self.expected(lo, hi), "range {lo:?} ..= {hi:?}");
        assert_eq!(
            sliced(&self.idx, lo, hi),
            entries,
            "slices of {lo:?} ..= {hi:?}"
        );
    }

    /// Counters against a recount of the model; run shape.
    fn check_accounting(&self) {
        assert_eq!(self.idx.len(), self.model.len());
        let bytes = |cells: &[Value]| cells.iter().map(|v| v.byte_size() as u64).sum::<u64>();
        let recount: u64 = self
            .model
            .iter()
            .map(|((k, _), inc)| bytes(k) + bytes(inc) + 16)
            .sum();
        assert_eq!(self.idx.bytes(), recount);
        let mut distinct: Vec<&Vec<Value>> = self.model.keys().map(|(k, _)| k).collect();
        distinct.dedup();
        assert_eq!(self.idx.distinct_keys(), distinct.len());
        let runs = self.idx.runs();
        assert!(runs.iter().all(|r| (1..=RUN_ENTRIES).contains(&r.len())));
        assert_eq!(
            runs.iter().map(|r| r.len()).sum::<usize>(),
            self.model.len()
        );
    }
}

/// `range(lo, hi).slices()` flattened, in the model's shape: what the scan
/// kernels read must be exactly what the cursor yields.
fn sliced(idx: &BTreeIndex, lo: &[Value], hi: &[Value]) -> Vec<(Vec<Value>, RowId, Vec<Value>)> {
    let (k, n) = (
        idx.def().key_columns.len(),
        idx.def().covered_columns().len(),
    );
    let mut out = Vec::new();
    for (run, range) in idx.range(lo, hi).slices() {
        assert!(
            !range.is_empty() && range.end <= run.len(),
            "{range:?} of {}",
            run.len()
        );
        for off in range {
            let cells = |r: std::ops::Range<usize>| r.map(|c| run.column(c).value(off)).collect();
            out.push((cells(0..k), run.row_ids()[off], cells(k..n)));
        }
    }
    out
}

/// A table of `n` rows whose `b` is `0, 2, 4, ...`, and an index on `b`
/// built over it: one full run per `RUN_ENTRIES` rows.
fn even_keys(n: usize) -> (Table, Indexed) {
    let schema = TableSchema::new(vec![
        ColumnDef::new("a", DataType::Float).nullable(),
        ColumnDef::new("b", DataType::Int).nullable(),
        ColumnDef::new("s", DataType::Str).nullable(),
    ]);
    let mut table = Table::new("t", schema);
    let mut model = Model::new();
    for i in 0..n {
        let row = vec![
            Value::Float(i as f64),
            Value::Int(2 * i as i64),
            Value::str("x"),
        ];
        let id = table.insert(row.clone(), 0).unwrap();
        model.insert((vec![row[1].clone()], id), vec![row[0].clone()]);
    }
    let mut ix = Indexed::new(
        IndexDef::new("ix_b", "t", &["b"]).include(&["a"]),
        &table,
        &[1],
        &[0],
    );
    ix.model = model;
    (table, ix)
}

#[test]
fn slices_cover_empty_ranges_and_ranges_ending_on_a_run_boundary() {
    let (_, ix) = even_keys(2 * RUN_ENTRIES);
    assert_eq!(ix.idx.runs().len(), 2);
    let key = |i: usize| [Value::Int(2 * i as i64)];
    let last = RUN_ENTRIES - 1;
    let slices = |lo: &[Value], hi: &[Value]| -> Vec<(usize, std::ops::Range<usize>)> {
        let runs = ix.idx.runs();
        let run_of =
            |run: &skyserver_storage::Run| runs.iter().position(|r| std::ptr::eq(&**r, run));
        ix.idx
            .range(lo, hi)
            .slices()
            .map(|(run, range)| (run_of(run).unwrap(), range))
            .collect()
    };
    // Ends exactly on the boundary: one whole run, no empty second slice.
    assert_eq!(slices(&key(0), &key(last)), vec![(0, 0..RUN_ENTRIES)]);
    assert_eq!(slices(&key(RUN_ENTRIES), &[]), vec![(1, 0..RUN_ENTRIES)]);
    // Straddles it: one entry of each run.
    assert_eq!(
        slices(&key(last), &key(RUN_ENTRIES)),
        vec![(0, last..RUN_ENTRIES), (1, 0..1)]
    );
    // Empty: inverted, between two keys, past either end.
    let odd = [Value::Int(7)];
    for (lo, hi) in [
        (&key(9)[..], &key(3)[..]),
        (&odd, &odd),
        (&[Value::Int(-5)], &[Value::Int(-1)]),
        (&key(5000), &[]),
    ] {
        assert!(slices(lo, hi).is_empty(), "{lo:?} ..= {hi:?}");
        ix.check_range(lo, hi);
    }
    for (lo, hi) in [
        (&key(0)[..], &key(last)[..]),
        (&key(last), &key(RUN_ENTRIES)),
        (&[], &[]),
    ] {
        ix.check_range(lo, hi);
    }
}

/// A full run splits in two; an insert at exactly its midpoint (and one
/// either side of it) lands in the left half at or before the midpoint and
/// in the right half after it, in order, with every half non-empty.
#[test]
fn an_insert_at_the_exact_midpoint_of_a_full_run_splits_it_in_order() {
    let mid = RUN_ENTRIES / 2;
    for off in [mid - 1, mid, mid + 1] {
        let (mut table, mut ix) = even_keys(RUN_ENTRIES);
        assert_eq!(ix.idx.runs().len(), 1);
        // Between the keys at offsets off - 1 and off: it lands at `off`.
        let row = vec![
            Value::Float(-1.0),
            Value::Int(2 * off as i64 - 1),
            Value::str("x"),
        ];
        let id = table.insert(row.clone(), 0).unwrap();
        ix.insert(id, &row);
        let lengths: Vec<usize> = ix.idx.runs().iter().map(|r| r.len()).collect();
        let left = if off <= mid { mid + 1 } else { mid };
        assert_eq!(
            lengths,
            vec![left, RUN_ENTRIES + 1 - left],
            "insert at {off}"
        );
        ix.check_accounting();
        ix.check_range(&[], &[]);
        let at = [Value::Int(2 * off as i64 - 1)];
        ix.check_range(&at, &at);
        assert_eq!(ix.entries(&at, &at).len(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_agrees_with_a_btreemap_model(
        ops in proptest::collection::vec((0u8..12, 0usize..1000, 0usize..1000, 0usize..1000), 20..60),
    ) {
        let nullable = |name: &str, ty| ColumnDef::new(name, ty).nullable();
        let schema = TableSchema::new(vec![
            nullable("a", DataType::Float),
            nullable("b", DataType::Int),
            nullable("s", DataType::Str),
        ]);
        let mut table = Table::new("t", schema);
        let composite = IndexDef::new("ix_ab", "t", &["a", "b"]).include(&["s"]);
        let single = IndexDef::new("ix_b", "t", &["b"]).include(&["a"]);
        let mut indexes = [
            Indexed::new(composite.clone(), &table, &[0, 1], &[2]),
            Indexed::new(single.clone(), &table, &[1], &[0]),
        ];
        let mut live: Vec<RowId> = Vec::new();
        let insert = |table: &mut Table, indexes: &mut [Indexed; 2], live: &mut Vec<RowId>, row: Vec<Value>| {
            let id = table.insert(row.clone(), 0).unwrap();
            indexes.iter_mut().for_each(|ix| ix.insert(id, &row));
            live.push(id);
        };
        let remove = |table: &mut Table, indexes: &mut [Indexed; 2], id: RowId| {
            let row = table.get(id).unwrap();
            indexes.iter_mut().for_each(|ix| ix.remove(id, &row));
            table.delete(id);
        };
        for (kind, x, y, z) in ops {
            match kind {
                0..=2 => insert(&mut table, &mut indexes, &mut live, vec![cell(0, x), cell(1, y), cell(2, z)]),
                // A burst under one key: duplicates that span run boundaries
                // and force splits.
                3 => for _ in 0..x % 1500 {
                    insert(&mut table, &mut indexes, &mut live, vec![cell(0, y), cell(1, z), cell(2, x)]);
                },
                4 | 5 if !live.is_empty() => remove(&mut table, &mut indexes, live.swap_remove(x % live.len())),
                // Remove a contiguous stretch of row ids: runs empty out.
                6 if !live.is_empty() => {
                    live.sort_unstable();
                    let from = x % live.len();
                    let to = (from + y * 2).min(live.len());
                    for id in live.drain(from..to) {
                        remove(&mut table, &mut indexes, id);
                    }
                }
                7 => for ix in &indexes {
                    let key: Vec<Value> = (0..ix.keys.len()).map(|c| probe(ix.keys[c], x + c * y)).collect();
                    ix.check_range(&key, &key);
                    let exact = ix.idx.seek_exact(&IndexKey(key.clone())).map(|e| e.row_id());
                    let expected = ix.expected(&key, &key);
                    assert_eq!(exact.collect::<Vec<_>>(), expected.iter().map(|e| e.1).collect::<Vec<_>>());
                },
                8 => {
                    let ix = &indexes[0];
                    ix.check_range(&[probe(0, x)], &[probe(0, x)]);
                    ix.check_range(&[probe(0, x)], &[probe(0, y), probe(1, z)]);
                    ix.check_range(&[probe(0, x), probe(1, z)], &[probe(0, y)]);
                }
                9 => for ix in &indexes {
                    let (lo, hi) = ([probe(ix.keys[0], x)], [probe(ix.keys[0], y)]);
                    ix.check_range(&lo, &hi);
                    ix.check_range(&[], &hi);
                    ix.check_range(&lo, &[]);
                },
                _ => {}
            }
            if kind >= 9 || x % 8 == 0 {
                indexes.iter().for_each(Indexed::check_accounting);
            }
        }
        for (ix, def) in indexes.iter().zip([composite, single]) {
            ix.check_accounting();
            ix.check_range(&[], &[]);
            // Bulk build over the surviving rows is row-by-row insertion.
            let built = Indexed::new(def, &table, &ix.keys, &ix.included);
            assert_eq!(built.entries(&[], &[]), ix.entries(&[], &[]));
            assert_eq!((built.idx.len(), built.idx.bytes()), (ix.idx.len(), ix.idx.bytes()));
        }
    }
}
