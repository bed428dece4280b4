//! Secondary indices as sorted columnar runs, with composite keys and
//! included ("covering") columns.
//!
//! Section 9.1.3 of the paper argues that indices replace the hand-built
//! "tag tables" of the ObjectivityDB design: *"An index on fields A, B, and
//! C gives an automatically managed tag table on those 3 attributes plus the
//! primary key -- and the SQL query optimizer automatically uses that index
//! if the query is covered by those fields."*  This module stores exactly
//! that: a narrow vertical partition of the table — the key columns, the
//! included columns and a [`RowId`] column — sorted by (key columns under
//! [`Value::total_cmp`], then `RowId`).
//!
//! The partition is cut into [`Run`]s of at most [`RUN_ENTRIES`] entries.
//! A run holds its columns as the same typed arrays ([`Column`]) a table
//! segment does and sits behind an [`Arc`]; the index is a vector of those
//! pointers, and the first entry of each run is its fence.  A seek is a
//! binary search over the fences and then within one run; a range is read
//! as run slices ([`IndexCursor::slices`]), which the SQL executor's scan
//! kernels filter a whole column array at a time.  A write clones
//! the pointer vector (`Arc::make_mut` on the index after a snapshot) and
//! the one run it lands in; every other run stays shared with the
//! snapshots, releases and in-flight readers that hold it.  A full run
//! splits in two, an empty one is dropped.
//!
//! `RowId`s only grow (an `UPDATE` is delete + insert), so entries with equal
//! keys sit in insertion order.

use crate::table::{Column, RowId, Table, SEGMENT_ROWS};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Most entries a [`Run`] holds: what one write to an index copies.  A
/// power of two, so arrays grown by doubling end up with no slack.
pub const RUN_ENTRIES: usize = 1024;

/// A composite index key: the values of the indexed columns in order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexKey(pub Vec<Value>);

/// Definition of an index: which columns are keys and which are included.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// The indexed table.
    pub table: String,
    /// Key column names in order.
    pub key_columns: Vec<String>,
    /// Included (non-key, covering) column names.
    pub included_columns: Vec<String>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
}

impl IndexDef {
    /// A non-unique index on the given key columns.
    pub fn new(name: impl Into<String>, table: impl Into<String>, keys: &[&str]) -> Self {
        IndexDef {
            name: name.into(),
            table: table.into(),
            key_columns: keys.iter().map(|s| s.to_string()).collect(),
            included_columns: Vec::new(),
            unique: false,
        }
    }

    /// Add included (covering) columns.
    pub fn include(mut self, cols: &[&str]) -> Self {
        self.included_columns = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Mark the index unique.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// The leading key column — the one seeks and index-lookup joins bind
    /// to.  Indexes always have at least one key column.
    pub fn leading_column(&self) -> &str {
        &self.key_columns[0]
    }

    /// All columns the index can answer from (keys then included).
    pub fn covered_columns(&self) -> Vec<&str> {
        self.key_columns
            .iter()
            .chain(self.included_columns.iter())
            .map(String::as_str)
            .collect()
    }

    /// Does the index cover every column in `needed` (case-insensitive)?
    pub fn covers(&self, needed: &[&str]) -> bool {
        needed.iter().all(|n| {
            self.covered_columns()
                .iter()
                .any(|c| c.eq_ignore_ascii_case(n))
        })
    }
}

/// Errors raised while building or maintaining an index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// A key or included column does not exist on the table.
    UnknownColumn(String),
    /// A duplicate key was inserted into a unique index.
    UniqueViolation {
        /// The duplicated key, rendered for the error message.
        key: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::UnknownColumn(c) => write!(f, "index references unknown column {c}"),
            IndexError::UniqueViolation { key } => {
                write!(f, "unique index violation for key {key}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

fn unique_violation(key: &[Value]) -> IndexError {
    let cells: Vec<String> = key.iter().map(Value::to_string).collect();
    IndexError::UniqueViolation {
        key: format!("({})", cells.join(", ")),
    }
}

/// One sorted slice of an index: the covered columns (key columns first,
/// then the included ones) and the row ids, as parallel arrays.
#[derive(Debug, Clone)]
pub struct Run {
    columns: Vec<Column>,
    row_ids: Vec<RowId>,
}

impl Run {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// True when the run holds no entry (never true of a run in an index).
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Covered column `c` ([`IndexDef::covered_columns`] order): the same
    /// typed array a table segment holds, so the scan kernels read it alike.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// The row each entry points at, parallel to the columns.
    pub fn row_ids(&self) -> &[RowId] {
        &self.row_ids
    }

    fn empty(types: impl Iterator<Item = DataType>) -> Run {
        Run {
            columns: types.map(Column::new).collect(),
            row_ids: Vec::new(),
        }
    }

    /// A new run holding the entries `range` of this one, with zone maps
    /// and dictionaries of its own.
    fn slice(&self, range: std::ops::Range<usize>) -> Run {
        let mut run = Run::empty(self.columns.iter().map(Column::data_type));
        run.row_ids.extend(&self.row_ids[range.clone()]);
        for (column, from) in run.columns.iter_mut().zip(&self.columns) {
            range.clone().for_each(|off| column.push(&from.value(off)));
        }
        run
    }

    /// Order entry `off`'s leading key cells against `prefix`.
    fn cmp_prefix(&self, off: usize, prefix: &[Value]) -> Ordering {
        self.columns
            .iter()
            .zip(prefix)
            .map(|(column, v)| column.cmp_value(off, v))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

/// One entry of an index, borrowed from its run.
#[derive(Debug, Clone, Copy)]
pub struct IndexEntry<'a> {
    run: &'a Run,
    off: usize,
}

impl IndexEntry<'_> {
    /// The row this entry points at.
    pub fn row_id(&self) -> RowId {
        self.run.row_ids[self.off]
    }

    /// Covered cell `c` of the entry: the key columns first, then the
    /// included ones ([`IndexDef::covered_columns`] order).
    pub fn cell(&self, c: usize) -> Value {
        self.run.columns[c].value(self.off)
    }
}

/// A position in an index: a run and an offset into it.  The offset may
/// equal the run's length, meaning the start of the next run.
type Position = (usize, usize);

/// A forward cursor over a contiguous range of an index's entries, in
/// (key, `RowId`) order.  It reads the runs in place and does only as much
/// work as the consumer asks for.
#[derive(Debug, Clone)]
pub struct IndexCursor<'a> {
    runs: &'a [Arc<Run>],
    at: Position,
    end: Position,
}

impl<'a> Iterator for IndexCursor<'a> {
    type Item = IndexEntry<'a>;

    fn next(&mut self) -> Option<IndexEntry<'a>> {
        while self.at < self.end {
            let (run, off) = (&self.runs[self.at.0], self.at.1);
            if off < run.len() {
                self.at.1 += 1;
                return Some(IndexEntry { run, off });
            }
            self.at = (self.at.0 + 1, 0);
        }
        None
    }
}

impl<'a> IndexCursor<'a> {
    /// The rest of the range as run slices, one per run it crosses, in
    /// order and never empty: what the scan kernels read, a whole
    /// column array at a time.
    pub fn slices(self) -> impl Iterator<Item = (&'a Run, std::ops::Range<usize>)> {
        let (at, end) = (self.at, self.end);
        let runs = self.runs.get(at.0..self.runs.len().min(end.0 + 1));
        runs.into_iter()
            .flatten()
            .zip(at.0..)
            .map(move |(run, r)| {
                let from = if r == at.0 { at.1 } else { 0 };
                let to = if r == end.0 { end.1 } else { run.len() };
                (&**run, from..to.min(run.len()))
            })
            .filter(|(_, range)| !range.is_empty())
    }
}

/// The first index in `lo..hi` that `before` does not hold for (`hi` when it
/// holds for all), where `before` holds for a leading part of the range:
/// probe 1, 2, 4, ... places on from `lo`, then bisect the last step, so a
/// boundary `d` places away costs O(log d) probes.
fn gallop(mut lo: usize, mut hi: usize, before: impl Fn(usize) -> bool) -> usize {
    let mut step = 1;
    while lo + step - 1 < hi {
        let probe = lo + step - 1;
        if !before(probe) {
            hi = probe;
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// What a [`SortedSeek`] walks: single keys, or inclusive key ranges.
/// Either way ascending under [`Value::total_cmp`] and disjoint.
#[derive(Debug, Clone, Copy)]
enum Bounds<'k> {
    Keys(&'k [Value]),
    Ranges(&'k [(Value, Value)]),
}

impl<'k> Bounds<'k> {
    /// The inclusive bounds of the `i`-th key or range.
    fn get(self, i: usize) -> Option<(&'k Value, &'k Value)> {
        match self {
            Bounds::Keys(keys) => keys.get(i).map(|k| (k, k)),
            Bounds::Ranges(ranges) => ranges.get(i).map(|(lo, hi)| (lo, hi)),
        }
    }
}

/// The entries under each key (or key range) of a sorted list, found by
/// one forward walk of the runs ([`BTreeIndex::seek_sorted`],
/// [`BTreeIndex::seek_ranges`]).  Yields `(k, run, range)`: a non-empty
/// slice of `run` whose entries' leading key cell equals key `k` (lies in
/// range `k`), `k` being its position in the list, in index order.
#[derive(Debug, Clone)]
pub struct SortedSeek<'a, 'k> {
    runs: &'a [Arc<Run>],
    bounds: Bounds<'k>,
    /// The key being handed out, the part of its entries not yet handed
    /// out (`end` is also where the search for the next key starts), and
    /// the next key.
    key: usize,
    next: usize,
    at: Position,
    end: Position,
}

impl<'a, 'k> SortedSeek<'a, 'k> {
    fn new(runs: &'a [Arc<Run>], bounds: Bounds<'k>) -> Self {
        SortedSeek {
            runs,
            bounds,
            key: 0,
            next: 0,
            at: (0, 0),
            end: (0, 0),
        }
    }

    /// The first entry at or after `from` that `before` does not hold for
    /// (`(runs, 0)` past the last): gallop over the runs by their last
    /// entries, then within the run the boundary lies in.
    fn seek(&self, (r, off): Position, before: impl Fn(&Run, usize) -> bool) -> Position {
        let runs = self.runs;
        let j = gallop(r, runs.len(), |j| {
            before(&runs[j], runs[j].len().saturating_sub(1))
        });
        match runs.get(j) {
            None => (runs.len(), 0),
            Some(run) => {
                let from = if j == r { off } else { 0 };
                (j, gallop(from, run.len(), |o| before(run, o)))
            }
        }
    }
}

impl<'a> Iterator for SortedSeek<'a, '_> {
    type Item = (usize, &'a Run, std::ops::Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.at < self.end {
                let (r, from) = self.at;
                let run = &*self.runs[r];
                let last = r == self.end.0;
                let to = if last { self.end.1 } else { run.len() };
                self.at = if last { self.end } else { (r + 1, 0) };
                if from < to {
                    return Some((self.key, run, from..to));
                }
                continue;
            }
            let (lo, hi) = self.bounds.get(self.next)?;
            let (lo, hi) = (std::slice::from_ref(lo), std::slice::from_ref(hi));
            self.key = self.next;
            self.next += 1;
            self.at = self.seek(self.end, |run, off| run.cmp_prefix(off, lo).is_lt());
            self.end = self.seek(self.at, |run, off| run.cmp_prefix(off, hi).is_le());
        }
    }
}

/// A secondary index over one table (see the module docs for the layout).
/// The name is historical: it answers what a B-tree would.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    def: IndexDef,
    /// Base-table position and type of each covered column: keys, then
    /// included.
    covered: Vec<(usize, DataType)>,
    /// Non-empty runs in index order.
    runs: Vec<Arc<Run>>,
    entries: usize,
    /// Index size in bytes (covered cells + 16 per entry), for the "indices
    /// approximately double the space" accounting of Table 1.
    bytes: u64,
}

impl BTreeIndex {
    /// Build an index over the current contents of `table`: read the key
    /// columns, sort a permutation of the live rows, cut it into runs.
    pub fn build(def: IndexDef, table: &Table) -> Result<Self, IndexError> {
        let schema = table.schema();
        let covered = def
            .covered_columns()
            .into_iter()
            .map(|c| match schema.column_index(c) {
                Some(p) => Ok((p, schema.columns()[p].ty)),
                None => Err(IndexError::UnknownColumn(c.to_string())),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let segments = table.segments();
        let row_ids: Vec<RowId> = table.row_ids().collect();
        let cell = |id: RowId, p: usize| segments[id / SEGMENT_ROWS].value(id % SEGMENT_ROWS, p);
        let keys: Vec<Vec<Value>> = covered[..def.key_columns.len()]
            .iter()
            .map(|&(p, _)| row_ids.iter().map(|&id| cell(id, p)).collect())
            .collect();
        let cmp_keys = |a: usize, b: usize| {
            keys.iter()
                .map(|k| k[a].total_cmp(&k[b]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        // Stable: rows with equal keys stay in `RowId` order.
        let mut order: Vec<usize> = (0..row_ids.len()).collect();
        order.sort_by(|&a, &b| cmp_keys(a, b));
        if def.unique {
            if let Some(w) = order.windows(2).find(|w| cmp_keys(w[0], w[1]).is_eq()) {
                let key: Vec<Value> = keys.iter().map(|k| k[w[0]].clone()).collect();
                return Err(unique_violation(&key));
            }
        }
        let mut runs = Vec::with_capacity(order.len().div_ceil(RUN_ENTRIES));
        let mut bytes = 16 * order.len() as u64;
        for chunk in order.chunks(RUN_ENTRIES) {
            let mut run = Run::empty(covered.iter().map(|c| c.1));
            run.row_ids.extend(chunk.iter().map(|&i| row_ids[i]));
            for (column, &(p, _)) in run.columns.iter_mut().zip(&covered) {
                run.row_ids.iter().for_each(|&id| column.push(&cell(id, p)));
                bytes += column.bytes();
            }
            runs.push(Arc::new(run));
        }
        Ok(BTreeIndex {
            def,
            covered,
            runs,
            entries: order.len(),
            bytes,
        })
    }

    /// Give back the spare capacity of the runs no snapshot shares.
    pub(crate) fn shrink_unshared(&mut self) {
        for run in self.runs.iter_mut().filter_map(Arc::get_mut) {
            run.row_ids.shrink_to_fit();
            run.columns.iter_mut().for_each(Column::shrink_to_fit);
        }
    }

    /// The index definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Number of entries (== number of indexed rows).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Approximate size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The index's runs, in index order.  Runs are shared copy-on-write
    /// between cloned indexes; compare with `Arc::as_ptr` to test run
    /// identity across snapshots.
    pub fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// The table's storage ordinal of each run column, in run order: the
    /// map from a run's ordinal space to the heap's, resolved when the
    /// index was built.
    pub fn covered_ordinals(&self) -> impl Iterator<Item = usize> + '_ {
        self.covered.iter().map(|&(p, _)| p)
    }

    /// Extract the key for a row.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        let keys = &self.covered[..self.def.key_columns.len()];
        IndexKey(keys.iter().map(|&(p, _)| row[p].clone()).collect())
    }

    /// The position of the first entry `before` does not hold for.  `before`
    /// must hold for a leading part of the index and for nothing after it.
    fn partition(&self, before: impl Fn(&Run, usize) -> bool) -> Position {
        // The boundary lies in the last run whose fence is still `before`.
        let Some(r) = self
            .runs
            .partition_point(|run| before(run, 0))
            .checked_sub(1)
        else {
            return (0, 0);
        };
        let run = &self.runs[r];
        let (mut lo, mut hi) = (1, run.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(run, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (r, lo)
    }

    /// The position of the first entry not ordered before (`key`, `row_id`).
    fn lower_bound(&self, key: &IndexKey, row_id: RowId) -> Position {
        self.partition(|run, off| {
            run.cmp_prefix(off, &key.0)
                .then_with(|| run.row_ids[off].cmp(&row_id))
                .is_lt()
        })
    }

    /// `at` moved onto the entry it denotes; `None` past the last entry.
    fn settle(&self, (r, off): Position) -> Option<Position> {
        let on_boundary = self.runs.get(r).is_some_and(|run| off == run.len());
        let at = if on_boundary { (r + 1, 0) } else { (r, off) };
        (at.0 < self.runs.len()).then_some(at)
    }

    /// Would adding `row` put a second entry under one key of a unique
    /// index?  [`crate::Database`] asks before it touches the table, so a
    /// rejected insert changes nothing.
    pub fn check_unique(&self, row: &[Value]) -> Result<(), IndexError> {
        if !self.def.unique {
            return Ok(());
        }
        let key = self.key_of(row);
        match self.settle(self.lower_bound(&key, 0)) {
            Some((r, off)) if self.runs[r].cmp_prefix(off, &key.0).is_eq() => {
                Err(unique_violation(&key.0))
            }
            _ => Ok(()),
        }
    }

    /// Add a row to the index (called on insert).
    pub fn insert_row(&mut self, row_id: RowId, row: &[Value]) -> Result<(), IndexError> {
        self.check_unique(row)?;
        let (mut r, mut off) = self.lower_bound(&self.key_of(row), row_id);
        match self.runs.get(r).map(|run| run.len()) {
            None => {
                let types = self.covered.iter().map(|c| c.1);
                self.runs.push(Arc::new(Run::empty(types)));
            }
            Some(len) if len >= RUN_ENTRIES => {
                let mid = len / 2;
                let halves = [self.runs[r].slice(0..mid), self.runs[r].slice(mid..len)];
                self.runs.splice(r..=r, halves.map(Arc::new));
                if off > mid {
                    (r, off) = (r + 1, off - mid);
                }
            }
            Some(_) => {}
        }
        let run = Arc::make_mut(&mut self.runs[r]);
        run.row_ids.insert(off, row_id);
        for (column, &(p, _)) in run.columns.iter_mut().zip(&self.covered) {
            column.insert(off, &row[p]);
            self.bytes += row[p].byte_size() as u64;
        }
        self.entries += 1;
        self.bytes += 16;
        Ok(())
    }

    /// Remove a row from the index (called on delete).
    pub fn remove_row(&mut self, row_id: RowId, row: &[Value]) {
        let key = self.key_of(row);
        let Some((r, off)) = self.settle(self.lower_bound(&key, row_id)) else {
            return;
        };
        if self.runs[r].row_ids[off] != row_id || self.runs[r].cmp_prefix(off, &key.0).is_ne() {
            return;
        }
        let run = Arc::make_mut(&mut self.runs[r]);
        run.row_ids.remove(off);
        for column in &mut run.columns {
            self.bytes -= column.remove(off);
        }
        if run.is_empty() {
            self.runs.remove(r);
        }
        self.entries -= 1;
        self.bytes -= 16;
    }

    /// The entries whose leading key cells lie in `[lo, hi]`, in (key,
    /// `RowId`) order.  A bound is a *prefix* of the key (one value per
    /// leading key column), inclusive; the empty prefix leaves that side
    /// open.  So `range(&[run], &[run])` on a `(run, camcol, field)` index
    /// is every entry of that run, and `range(&[], &[])` is an index scan:
    /// the 10-100x smaller column-subset scan the paper describes.
    pub fn range(&self, lo: &[Value], hi: &[Value]) -> IndexCursor<'_> {
        let keys = self.def.key_columns.len();
        let (lo, hi) = (&lo[..lo.len().min(keys)], &hi[..hi.len().min(keys)]);
        IndexCursor {
            runs: &self.runs,
            at: self.partition(|run, off| run.cmp_prefix(off, lo).is_lt()),
            end: self.partition(|run, off| run.cmp_prefix(off, hi).is_le()),
        }
    }

    /// The entries whose leading key cell equals each of `keys` — which
    /// must ascend under [`Value::total_cmp`], no two equal — as run slices
    /// tagged with the key's position in `keys` ([`SortedSeek`]).  One
    /// forward walk: each key's search gallops on from where the previous
    /// key's entries ended, so a batch of nearby keys costs a few
    /// comparisons each instead of a search from the root.
    pub fn seek_sorted<'k>(&self, keys: &'k [Value]) -> SortedSeek<'_, 'k> {
        SortedSeek::new(&self.runs, Bounds::Keys(keys))
    }

    /// The entries whose leading key cell lies in each of `ranges` —
    /// inclusive `(lo, hi)` bounds, ascending under [`Value::total_cmp`]
    /// and disjoint — as run slices tagged with the range's position in
    /// `ranges`.  The same one forward walk as [`Self::seek_sorted`]: an
    /// HTM cover's ranges cost a few comparisons each, not a search from
    /// the root per range.
    pub fn seek_ranges<'k>(&self, ranges: &'k [(Value, Value)]) -> SortedSeek<'_, 'k> {
        SortedSeek::new(&self.runs, Bounds::Ranges(ranges))
    }

    /// The entries under exactly `key` (or, given fewer values than the
    /// index has key columns, under that key prefix).
    pub fn seek_exact(&self, key: &IndexKey) -> IndexCursor<'_> {
        self.range(&key.0, &key.0)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        let keys = self.def.key_columns.len();
        let mut last: Vec<Value> = Vec::new();
        let mut distinct = 0;
        for e in self.range(&[], &[]) {
            if distinct == 0 || e.run.cmp_prefix(e.off, &last).is_ne() {
                distinct += 1;
                last = (0..keys).map(|c| e.cell(c)).collect();
            }
        }
        distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};

    fn table_with_rows() -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::new("objID", DataType::Int),
            ColumnDef::new("htmID", DataType::Int),
            ColumnDef::new("ra", DataType::Float),
            ColumnDef::new("type", DataType::Str),
        ])
        .with_primary_key(&["objID"]);
        let mut t = Table::new("photoObj", schema);
        let rows = [
            (1, 500, 10.0, "galaxy"),
            (2, 400, 20.0, "star"),
            (3, 450, 30.0, "galaxy"),
            (4, 500, 40.0, "star"),
            (5, 700, 50.0, "galaxy"),
        ];
        for (id, htm, ra, ty) in rows {
            t.insert(
                vec![
                    Value::Int(id),
                    Value::Int(htm),
                    Value::Float(ra),
                    Value::str(ty),
                ],
                0,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn build_and_exact_seek() {
        let t = table_with_rows();
        let idx = BTreeIndex::build(IndexDef::new("ix_htm", "photoObj", &["htmID"]), &t).unwrap();
        assert_eq!(idx.len(), 5);
        let hits = idx.seek_exact(&IndexKey(vec![Value::Int(500)]));
        assert_eq!(hits.count(), 2);
        assert_eq!(idx.distinct_keys(), 4);
    }

    #[test]
    fn range_scan_is_ordered_and_bounded() {
        let t = table_with_rows();
        let idx = BTreeIndex::build(IndexDef::new("ix_htm", "photoObj", &["htmID"]), &t).unwrap();
        let hits = idx.range(&[Value::Int(400)], &[Value::Int(500)]);
        let keys: Vec<i64> = hits.map(|e| e.cell(0).as_i64().unwrap()).collect();
        assert_eq!(keys.len(), 4);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(keys.iter().all(|&k| (400..=500).contains(&k)));
    }

    #[test]
    fn covering_index_stores_included_values() {
        let t = table_with_rows();
        let idx = BTreeIndex::build(
            IndexDef::new("ix_type_ra", "photoObj", &["type"]).include(&["ra", "objID"]),
            &t,
        )
        .unwrap();
        let hits = idx.seek_exact(&IndexKey(vec![Value::str("galaxy")]));
        assert_eq!(hits.clone().count(), 3);
        for e in hits {
            assert_eq!(e.cell(0), Value::str("galaxy"));
            assert!(matches!(e.cell(1), Value::Float(_)));
            assert_eq!(e.cell(2), Value::Int(e.row_id() as i64 + 1));
        }
        assert!(idx.def().covers(&["type", "ra", "objid"]));
        assert!(!idx.def().covers(&["type", "htmID"]));
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let t = table_with_rows();
        assert!(
            BTreeIndex::build(IndexDef::new("pk", "photoObj", &["objID"]).unique(), &t).is_ok()
        );
        let err = BTreeIndex::build(IndexDef::new("uq_htm", "photoObj", &["htmID"]).unique(), &t)
            .unwrap_err();
        assert!(matches!(err, IndexError::UniqueViolation { .. }));
    }

    #[test]
    fn unknown_column_errors() {
        let t = table_with_rows();
        let err =
            BTreeIndex::build(IndexDef::new("bad", "photoObj", &["nonexistent"]), &t).unwrap_err();
        assert_eq!(err, IndexError::UnknownColumn("nonexistent".into()));
    }

    #[test]
    fn maintenance_on_insert_and_delete() {
        let mut t = table_with_rows();
        let mut idx =
            BTreeIndex::build(IndexDef::new("ix_htm", "photoObj", &["htmID"]), &t).unwrap();
        let rid = t
            .insert(
                vec![
                    Value::Int(6),
                    Value::Int(450),
                    Value::Float(60.0),
                    Value::str("star"),
                ],
                0,
            )
            .unwrap();
        idx.insert_row(rid, &t.get(rid).unwrap()).unwrap();
        assert_eq!(idx.seek_exact(&IndexKey(vec![Value::Int(450)])).count(), 2);
        let (row, bytes) = (t.get(rid).unwrap(), idx.bytes());
        t.delete(rid);
        idx.remove_row(rid, &row);
        assert_eq!(idx.seek_exact(&IndexKey(vec![Value::Int(450)])).count(), 1);
        assert_eq!(idx.len(), 5);
        assert_eq!(
            idx.bytes(),
            bytes - (8 + 16),
            "a removed entry gives its bytes back"
        );
    }

    #[test]
    fn prefix_scan_on_composite_key() {
        let t = table_with_rows();
        let idx = BTreeIndex::build(
            IndexDef::new("ix_type_htm", "photoObj", &["type", "htmID"]),
            &t,
        )
        .unwrap();
        let under = |ty: &str| idx.seek_exact(&IndexKey(vec![Value::str(ty)])).count();
        assert_eq!(under("galaxy"), 3);
        assert_eq!(under("star"), 2);
        assert_eq!(under("quasar"), 0);
    }

    #[test]
    fn a_sorted_seek_finds_what_one_range_per_key_finds() {
        // 8,000 rows over 40 keys (with NULLs and a key spanning several
        // runs): every sorted key list sees, key by key, the entries the
        // per-key range returns, across run boundaries.
        let schema = TableSchema::new(vec![
            ColumnDef::new("k", DataType::Int).nullable(),
            ColumnDef::new("v", DataType::Float),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..8000i64 {
            let k = match i % 7 {
                0 => Value::Null,
                1 | 2 => Value::Int(17),
                _ => Value::Int((i * 31) % 40),
            };
            t.insert(vec![k, Value::Float(i as f64)], 0).unwrap();
        }
        let idx = BTreeIndex::build(IndexDef::new("ix_k", "t", &["k"]), &t).unwrap();
        assert!(idx.range(&[Value::Int(17)], &[Value::Int(17)]).count() > 2 * RUN_ENTRIES);
        for keys in [
            vec![17],
            vec![-1, 0, 17, 39, 40],
            (0..40).collect(),
            vec![3, 16, 17, 18],
            vec![39],
        ] {
            let keys: Vec<Value> = keys.into_iter().map(Value::Int).collect();
            let mut got: Vec<Vec<RowId>> = vec![Vec::new(); keys.len()];
            for (k, run, range) in idx.seek_sorted(&keys) {
                assert!(!range.is_empty());
                got[k].extend(&run.row_ids()[range]);
            }
            for (k, key) in keys.iter().enumerate() {
                let key = std::slice::from_ref(key);
                let want: Vec<RowId> = idx.range(key, key).map(|e| e.row_id()).collect();
                assert_eq!(got[k], want, "key {key:?} of {keys:?}");
            }
        }
        // A Float key finds the Int entries it equals.
        let mut floats = idx.seek_sorted(&[Value::Float(17.0)]);
        assert!(floats.next().is_some_and(|(k, _, _)| k == 0));
    }

    #[test]
    fn a_range_set_seek_finds_what_one_range_per_range_finds() {
        // 8,000 rows over 400 keys, so runs hold ~50 keys each: range sets
        // that start, end and span across run boundaries, empty ranges,
        // and ranges past both ends all agree with one `range` each.
        let schema = TableSchema::new(vec![ColumnDef::new("k", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..8000i64 {
            t.insert(vec![Value::Int((i * 7919) % 400)], 0).unwrap();
        }
        let idx = BTreeIndex::build(IndexDef::new("ix_k", "t", &["k"]), &t).unwrap();
        assert!(idx.runs().len() > 4);
        for ranges in [
            vec![(0, 399)],
            vec![(-5, -1), (3, 3), (40, 140), (141, 141), (390, 500)],
            vec![(10, 60), (61, 200), (250, 251)],
            vec![(45, 55), (300, 310)],
            vec![(399, 399)],
            vec![(500, 600)],
        ] {
            let ranges: Vec<(Value, Value)> = ranges
                .into_iter()
                .map(|(lo, hi)| (Value::Int(lo), Value::Int(hi)))
                .collect();
            let mut got: Vec<Vec<RowId>> = vec![Vec::new(); ranges.len()];
            for (k, run, range) in idx.seek_ranges(&ranges) {
                assert!(!range.is_empty());
                got[k].extend(&run.row_ids()[range]);
            }
            for (k, (lo, hi)) in ranges.iter().enumerate() {
                let (lo, hi) = (std::slice::from_ref(lo), std::slice::from_ref(hi));
                let want: Vec<RowId> = idx.range(lo, hi).map(|e| e.row_id()).collect();
                assert_eq!(got[k], want, "range {k} of {ranges:?}");
            }
        }
    }

    #[test]
    fn scan_visits_everything_in_key_order() {
        let t = table_with_rows();
        let idx = BTreeIndex::build(IndexDef::new("ix_ra", "photoObj", &["ra"]), &t).unwrap();
        let scan = idx.range(&[], &[]);
        let ras: Vec<f64> = scan.map(|e| e.cell(0).as_f64().unwrap()).collect();
        let mut sorted = ras.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(ras, sorted);
        assert_eq!(ras.len(), 5);
        assert!(idx.bytes() > 0);
    }
}
