//! Columnar tables: typed column segments with zone maps.
//!
//! Rows are appended into fixed-size **segments** of [`SEGMENT_ROWS`] slots.
//! Within a segment every column is a typed array (`i64` / `f64` /
//! dictionary-encoded strings / bools / byte blobs) plus a validity bitmap,
//! and each column carries a **zone map**: the min/max of its non-null
//! values and a null count.  Scans can prune a whole segment when a
//! predicate's range is disjoint from the zone, and the vectorized executor
//! runs tight monomorphic loops directly over the arrays.
//!
//! The row-oriented API (insert / get / iter / update / delete) is kept as a
//! compatibility surface so the loader, indexes and admin writes keep
//! working; `get`/`iter` now materialize owned rows from the columns.
//!
//! Rows are addressed by a stable [`RowId`] (global slot index: segment
//! number x [`SEGMENT_ROWS`] + offset).  Deletions flip a tombstone flag
//! instead of moving rows, which keeps RowIds valid for secondary indices.
//! The one exception is the table's **dead tail**: a delete of the last
//! slot drops every trailing dead slot (whole segments, then the end of the
//! last one), so a batch insert followed by its UNDO leaves the table as
//! long as it was.  A live row's RowId never changes; a trimmed RowId is
//! handed out again by the next insert, above every RowId still indexed.
//! Every row carries a logical insert timestamp; this is what the loader's
//! **UNDO** step uses (§9.4: "Undo consists of deleting all records of that
//! table with an insert time between the bad load step start and stop
//! times").
//!
//! Segments sit behind [`Arc`]s and are shared copy-on-write between a
//! table and its snapshots; every write goes through one `segment_mut`,
//! which detaches the segment and drops its cached statistics summary
//! ([`Segment::cached_summary`], merged by [`crate::table_stats`]).
//!
//! Zone maps are maintained conservatively: inserts tighten them, updates
//! only widen them, and deletes and tail trims leave them untouched — a
//! zone is always a superset of the live values, so pruning on it is sound
//! (it can only be less effective than optimal, never wrong).

use crate::schema::{SchemaError, TableSchema};
use crate::table_stats::{self, SegmentSummary};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Identifier of a row within a table (its global slot index), stable for
/// as long as the row is live.
pub type RowId = usize;

/// Logical timestamp type (monotonically increasing, supplied by the
/// database-wide clock).
pub type Timestamp = u64;

/// Number of row slots per segment.  Fixed so `RowId -> (segment, offset)`
/// is a shift/mask.  A segment is the unit a write copies (copy-on-write
/// against every snapshot sharing it) and the unit zone maps prune, and it
/// matches an index run (`RUN_ENTRIES`) and a kernel batch (`BATCH_ROWS`
/// in the SQL executor): one chunk size everywhere.
pub const SEGMENT_ROWS: usize = 1024;

// ---------------------------------------------------------------------------
// Column storage
// ---------------------------------------------------------------------------

/// The typed array behind one column of one segment.
///
/// Slots whose validity bit is false (NULLs) hold an unspecified sentinel
/// (`0` / `0.0` / `u32::MAX` / `false` / empty) — readers must consult the
/// validity bitmap before touching the array value.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `bigint` columns.
    Int(Vec<i64>),
    /// `float` columns.
    Float(Vec<f64>),
    /// `varchar` columns, dictionary-encoded per segment: `codes[i]`
    /// indexes into `dict` (except NULL slots, which hold `u32::MAX`).
    Str {
        /// Distinct strings of this segment, in first-seen order.
        dict: Vec<Arc<str>>,
        /// Per-slot dictionary codes.
        codes: Vec<u32>,
    },
    /// `varbinary` columns.
    Bytes(Vec<Arc<[u8]>>),
    /// `bit` columns.
    Bool(Vec<bool>),
}

impl ColumnData {
    fn new(ty: DataType) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str {
                dict: Vec::new(),
                codes: Vec::new(),
            },
            DataType::Bytes => ColumnData::Bytes(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
        }
    }
}

/// One column of one segment: the typed array, its validity bitmap and its
/// zone map.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// `true` = the slot holds a real value; `false` = NULL.
    validity: Vec<bool>,
    /// Minimum non-null value ever stored in this segment (conservative
    /// under deletes/updates).
    zone_min: Option<Value>,
    /// Maximum non-null value ever stored in this segment (conservative).
    zone_max: Option<Value>,
    /// Number of NULLs ever stored in this segment (conservative: deletes
    /// do not decrement it).
    null_count: usize,
    /// Exact bytes of this column's *live* values.
    bytes: u64,
    /// Dictionary lookup for `Str` columns (dedup on append).
    dict_lookup: HashMap<Arc<str>, u32>,
}

impl Column {
    /// An empty column of type `ty`.
    pub(crate) fn new(ty: DataType) -> Column {
        Column {
            data: ColumnData::new(ty),
            validity: Vec::new(),
            zone_min: None,
            zone_max: None,
            null_count: 0,
            bytes: 0,
            dict_lookup: HashMap::new(),
        }
    }

    /// The typed value array.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Validity bitmap (`true` = non-null).
    pub fn validity(&self) -> &[bool] {
        &self.validity
    }

    /// Zone-map minimum over the segment's non-null values (None when the
    /// segment holds no non-null value for this column).
    pub fn zone_min(&self) -> Option<&Value> {
        self.zone_min.as_ref()
    }

    /// Zone-map maximum over the segment's non-null values.
    pub fn zone_max(&self) -> Option<&Value> {
        self.zone_max.as_ref()
    }

    /// Conservative count of NULLs stored in this segment (never less than
    /// the number of live NULLs).
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Exact bytes of this column's live values.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Widen the zone map to cover `v` (non-null values only).
    fn widen_zone(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        match &self.zone_min {
            Some(m) if v.total_cmp(m) != Ordering::Less => {}
            _ => self.zone_min = Some(v.clone()),
        }
        match &self.zone_max {
            Some(m) if v.total_cmp(m) != Ordering::Greater => {}
            _ => self.zone_max = Some(v.clone()),
        }
    }

    /// Append a validated value (matching the column's declared type, or
    /// NULL) to the end of the array.
    pub(crate) fn push(&mut self, v: &Value) {
        self.insert(self.validity.len(), v);
    }

    /// Insert a validated value at slot `off`, moving the slots from `off`
    /// on up by one (index runs keep their entries sorted; segments only
    /// ever append).
    pub(crate) fn insert(&mut self, off: usize, v: &Value) {
        self.validity.insert(off, !v.is_null());
        self.widen_zone(v);
        self.bytes += v.byte_size() as u64;
        match (&mut self.data, v) {
            (ColumnData::Int(arr), Value::Int(i)) => arr.insert(off, *i),
            (ColumnData::Int(arr), Value::Null) => arr.insert(off, 0),
            (ColumnData::Float(arr), Value::Float(f)) => arr.insert(off, *f),
            (ColumnData::Float(arr), Value::Null) => arr.insert(off, 0.0),
            (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                let code = match self.dict_lookup.get(s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(Arc::clone(s));
                        self.dict_lookup.insert(Arc::clone(s), c);
                        c
                    }
                };
                codes.insert(off, code);
            }
            (ColumnData::Str { codes, .. }, Value::Null) => codes.insert(off, u32::MAX),
            (ColumnData::Bytes(arr), Value::Bytes(b)) => arr.insert(off, Arc::clone(b)),
            (ColumnData::Bytes(arr), Value::Null) => arr.insert(off, Arc::from(&[][..])),
            (ColumnData::Bool(arr), Value::Bool(b)) => arr.insert(off, *b),
            (ColumnData::Bool(arr), Value::Null) => arr.insert(off, false),
            (data, v) => unreachable!("schema validation let {v:?} into a {data:?} column"),
        }
    }

    /// Remove slot `off`, moving the later slots down by one; returns the
    /// bytes its value accounted for.  The zone map and a string dictionary
    /// keep what they held (conservative, like a segment's after a delete).
    pub(crate) fn remove(&mut self, off: usize) -> u64 {
        let bytes = self.value_bytes(off);
        self.bytes -= bytes;
        self.validity.remove(off);
        match &mut self.data {
            ColumnData::Int(arr) => drop(arr.remove(off)),
            ColumnData::Float(arr) => drop(arr.remove(off)),
            ColumnData::Str { codes, .. } => drop(codes.remove(off)),
            ColumnData::Bytes(arr) => drop(arr.remove(off)),
            ColumnData::Bool(arr) => drop(arr.remove(off)),
        }
        bytes
    }

    /// Drop slots `len..`.  Only dead slots are dropped, and their bytes
    /// were given back when they were deleted.
    fn truncate(&mut self, len: usize) {
        self.validity.truncate(len);
        match &mut self.data {
            ColumnData::Int(arr) => arr.truncate(len),
            ColumnData::Float(arr) => arr.truncate(len),
            ColumnData::Str { codes, .. } => codes.truncate(len),
            ColumnData::Bytes(arr) => arr.truncate(len),
            ColumnData::Bool(arr) => arr.truncate(len),
        }
    }

    /// Give back the arrays' spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.validity.shrink_to_fit();
        match &mut self.data {
            ColumnData::Int(arr) => arr.shrink_to_fit(),
            ColumnData::Float(arr) => arr.shrink_to_fit(),
            ColumnData::Str { dict, codes } => {
                dict.shrink_to_fit();
                codes.shrink_to_fit();
            }
            ColumnData::Bytes(arr) => arr.shrink_to_fit(),
            ColumnData::Bool(arr) => arr.shrink_to_fit(),
        }
    }

    /// Overwrite the value at `off` (update path).  Zone maps only widen.
    fn set(&mut self, off: usize, v: &Value) {
        self.bytes = self.bytes.saturating_sub(self.value_bytes(off));
        self.bytes += v.byte_size() as u64;
        self.validity[off] = !v.is_null();
        self.widen_zone(v);
        match (&mut self.data, v) {
            (ColumnData::Int(arr), Value::Int(i)) => arr[off] = *i,
            (ColumnData::Int(arr), Value::Null) => arr[off] = 0,
            (ColumnData::Float(arr), Value::Float(f)) => arr[off] = *f,
            (ColumnData::Float(arr), Value::Null) => arr[off] = 0.0,
            (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                let code = match self.dict_lookup.get(s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(Arc::clone(s));
                        self.dict_lookup.insert(Arc::clone(s), c);
                        c
                    }
                };
                codes[off] = code;
            }
            (ColumnData::Str { codes, .. }, Value::Null) => codes[off] = u32::MAX,
            (ColumnData::Bytes(arr), Value::Bytes(b)) => arr[off] = Arc::clone(b),
            (ColumnData::Bytes(arr), Value::Null) => arr[off] = Arc::from(&[][..]),
            (ColumnData::Bool(arr), Value::Bool(b)) => arr[off] = *b,
            (ColumnData::Bool(arr), Value::Null) => arr[off] = false,
            (data, v) => unreachable!("schema validation let {v:?} into a {data:?} column"),
        }
    }

    /// Materialize the value at `off` as a [`Value`].
    pub fn value(&self, off: usize) -> Value {
        if !self.validity[off] {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(arr) => Value::Int(arr[off]),
            ColumnData::Float(arr) => Value::Float(arr[off]),
            ColumnData::Str { dict, codes } => Value::Str(Arc::clone(&dict[codes[off] as usize])),
            ColumnData::Bytes(arr) => Value::Bytes(Arc::clone(&arr[off])),
            ColumnData::Bool(arr) => Value::Bool(arr[off]),
        }
    }

    /// Order the value at `off` against `v` as [`Value::total_cmp`] would,
    /// without materializing it (no `Arc` traffic for strings).
    pub fn cmp_value(&self, off: usize, v: &Value) -> Ordering {
        if !self.validity[off] {
            return Value::Null.total_cmp(v);
        }
        match (&self.data, v) {
            (ColumnData::Int(arr), Value::Int(b)) => arr[off].cmp(b),
            (ColumnData::Float(arr), Value::Float(b)) => arr[off].total_cmp(b),
            (ColumnData::Str { dict, codes }, Value::Str(b)) => {
                dict[codes[off] as usize].as_ref().cmp(b.as_ref())
            }
            _ => self.value(off).total_cmp(v),
        }
    }

    /// The column's declared type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
            ColumnData::Bytes(_) => DataType::Bytes,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Bytes the value at `off` accounts for.
    fn value_bytes(&self, off: usize) -> u64 {
        if !self.validity[off] {
            return 1; // NULL
        }
        (match &self.data {
            ColumnData::Int(_) | ColumnData::Float(_) => 8,
            ColumnData::Str { dict, codes } => 2 + dict[codes[off] as usize].len(),
            ColumnData::Bytes(arr) => 4 + arr[off].len(),
            ColumnData::Bool(_) => 1,
        }) as u64
    }
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

/// One fixed-size horizontal slice of a table: per-column typed arrays plus
/// the per-slot insert timestamps and tombstones, and the segment's
/// statistics summary once one is computed.
#[derive(Debug)]
pub struct Segment {
    columns: Vec<Column>,
    insert_ts: Vec<Timestamp>,
    deleted: Vec<bool>,
    live: usize,
    /// What this segment contributes to its table's statistics; computed
    /// on first use, dropped by every write ([`Table`]'s `segment_mut`).
    summary: OnceLock<SegmentSummary>,
}

impl Clone for Segment {
    /// A copy starts without a summary: it is made to be written.
    fn clone(&self) -> Segment {
        Segment {
            columns: self.columns.clone(),
            insert_ts: self.insert_ts.clone(),
            deleted: self.deleted.clone(),
            live: self.live,
            summary: OnceLock::new(),
        }
    }
}

impl Segment {
    fn new(schema: &TableSchema) -> Segment {
        Segment {
            columns: schema.columns().iter().map(|c| Column::new(c.ty)).collect(),
            insert_ts: Vec::new(),
            deleted: Vec::new(),
            live: 0,
            summary: OnceLock::new(),
        }
    }

    /// This segment's statistics summary, computed on first use and kept
    /// until the segment is next written (see [`crate::table_stats`]).
    pub(crate) fn summary(&self) -> &SegmentSummary {
        self.summary
            .get_or_init(|| table_stats::summarize(&self.columns, &self.deleted))
    }

    /// The summary if one is cached.  A segment shared between snapshots
    /// shares its summary too; compare with `std::ptr::eq` to tell a
    /// shared summary from a recomputed one.
    pub fn cached_summary(&self) -> Option<&SegmentSummary> {
        self.summary.get()
    }

    /// Give back the arrays' spare capacity (the summary stays: the
    /// contents do not change).
    fn shrink_to_fit(&mut self) {
        self.columns.iter_mut().for_each(Column::shrink_to_fit);
        self.insert_ts.shrink_to_fit();
        self.deleted.shrink_to_fit();
    }

    /// Drop slots `len..` (all of them dead).
    fn truncate(&mut self, len: usize) {
        self.columns.iter_mut().for_each(|c| c.truncate(len));
        self.insert_ts.truncate(len);
        self.deleted.truncate(len);
    }

    /// Number of occupied slots (live + tombstoned).
    pub fn slot_count(&self) -> usize {
        self.deleted.len()
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.live
    }

    /// Tombstone bitmap (`true` = deleted).
    pub fn deleted(&self) -> &[bool] {
        &self.deleted
    }

    /// Is the slot at `off` live?
    pub fn is_live(&self, off: usize) -> bool {
        off < self.deleted.len() && !self.deleted[off]
    }

    /// The column at position `c`.
    pub fn column(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    /// Materialize one cell.
    pub fn value(&self, off: usize, c: usize) -> Value {
        self.columns[c].value(off)
    }

    /// Materialize a full row.
    fn row(&self, off: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(off)).collect()
    }
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

/// A columnar table: an append-only vector of [`Segment`]s behind the
/// row-oriented compatibility API.
///
/// Segments are held behind [`Arc`] so cloning a table (the release
/// manager's copy-on-write snapshot path) shares every immutable segment;
/// a mutation after the clone copies only the one segment it touches
/// (`Arc::make_mut`).  Segment identity (`Arc::as_ptr`) is what release
/// diffs use to tell shared segments from rewritten ones.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: TableSchema,
    segments: Vec<Arc<Segment>>,
    /// Total occupied slots across all segments.
    slots: usize,
    live_rows: usize,
    data_bytes: u64,
    /// Free-text description shown by the schema browser.
    description: String,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Self {
        Table {
            name: name.into(),
            schema,
            segments: Vec::new(),
            slots: 0,
            live_rows: 0,
            data_bytes: 0,
            description: String::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Human-readable description (documentation).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Set the description.
    pub fn set_description(&mut self, d: impl Into<String>) {
        self.description = d.into();
    }

    /// Number of live (non-deleted) rows.
    pub fn row_count(&self) -> usize {
        self.live_rows
    }

    /// Number of slots including tombstones.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Approximate bytes of live row data (the paper's Table 1 reports data
    /// bytes per table; indices roughly double it).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Average bytes per live row (0 for an empty table).
    pub fn avg_row_bytes(&self) -> u64 {
        if self.live_rows == 0 {
            0
        } else {
            self.data_bytes / self.live_rows as u64
        }
    }

    /// The table's segments, in slot order (segment `s` covers slots
    /// `[s * SEGMENT_ROWS, s * SEGMENT_ROWS + slot_count)`).  Segments are
    /// shared copy-on-write between cloned tables; compare with
    /// `Arc::as_ptr` to test segment identity across snapshots.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Segment `s` for writing: detached from every snapshot that shares it
    /// (`Arc::make_mut`), its statistics summary dropped.
    fn segment_mut(&mut self, s: usize) -> &mut Segment {
        let seg = Arc::make_mut(&mut self.segments[s]);
        seg.summary.take();
        seg
    }

    /// Give back the spare capacity of the segments no snapshot shares
    /// (see [`crate::Database::shrink_unshared`]).
    pub(crate) fn shrink_unshared(&mut self) {
        self.segments
            .iter_mut()
            .filter_map(Arc::get_mut)
            .for_each(Segment::shrink_to_fit);
    }

    #[inline]
    fn locate(&self, id: RowId) -> Option<(usize, usize)> {
        if id >= self.slots {
            return None;
        }
        Some((id / SEGMENT_ROWS, id % SEGMENT_ROWS))
    }

    /// Insert a row after validating it against the schema.  Returns the new
    /// RowId.
    pub fn insert(&mut self, row: Vec<Value>, ts: Timestamp) -> Result<RowId, SchemaError> {
        let row = self.schema.validate_row(row)?;
        Ok(self.append(&row, ts))
    }

    /// Append a row [`TableSchema::validate_row`] has already passed.
    pub(crate) fn append(&mut self, row: &[Value], ts: Timestamp) -> RowId {
        let bytes: u64 = row.iter().map(|v| v.byte_size() as u64).sum();
        if self
            .segments
            .last()
            .is_none_or(|s| s.slot_count() == SEGMENT_ROWS)
        {
            self.segments.push(Arc::new(Segment::new(&self.schema)));
        }
        let seg = self.segment_mut(self.segments.len() - 1);
        for (c, v) in row.iter().enumerate() {
            seg.columns[c].push(v);
        }
        seg.insert_ts.push(ts);
        seg.deleted.push(false);
        seg.live += 1;
        let id = self.slots;
        self.slots += 1;
        self.live_rows += 1;
        self.data_bytes += bytes;
        id
    }

    /// Fetch a live row by id, materialized from the column arrays.
    pub fn get(&self, id: RowId) -> Option<Vec<Value>> {
        let (s, off) = self.locate(id)?;
        let seg = &self.segments[s];
        if seg.is_live(off) {
            Some(seg.row(off))
        } else {
            None
        }
    }

    /// Append the cells of live row `id` named by `columns` (storage
    /// ordinals, in that order) to `out`.  Returns false, appending
    /// nothing, when the row is deleted or out of range.
    ///
    /// This is the row-id gather of the SQL executor's index seeks and
    /// index-lookup joins: `columns` is the statement's per-alias
    /// scan-column list, so a probe into the 54-column catalog copies the
    /// two or three cells the statement reads.  An ordinal past the schema
    /// yields NULL, keeping the appended width equal to `columns.len()`.
    pub fn gather_into(&self, id: RowId, columns: &[usize], out: &mut Vec<Value>) -> bool {
        let Some((seg, off)) = self.live_slot(id) else {
            return false;
        };
        // Through `Segment::value`, like every other single-cell read: a
        // direct `Column::value` call site here changed how that function
        // inlines into `Segment::row` and made `Table::iter` 2x slower.
        for &c in columns {
            out.push(if c < seg.columns.len() {
                seg.value(off, c)
            } else {
                Value::Null
            });
        }
        true
    }

    /// The segment and offset of live row `id`; `None` when it is deleted
    /// or out of range.  An index scan reads the cells its runs do not
    /// cover through this, one liveness check per row.
    pub fn live_slot(&self, id: RowId) -> Option<(&Segment, usize)> {
        let (s, off) = self.locate(id)?;
        let seg = &self.segments[s];
        seg.is_live(off).then_some((&**seg, off))
    }

    /// Fetch a single cell of a live row.
    pub fn get_cell(&self, id: RowId, column: usize) -> Option<Value> {
        let (s, off) = self.locate(id)?;
        let seg = &self.segments[s];
        if seg.is_live(off) && column < seg.columns.len() {
            Some(seg.value(off, column))
        } else {
            None
        }
    }

    /// Insert timestamp of a row (even if deleted).
    pub fn insert_timestamp(&self, id: RowId) -> Option<Timestamp> {
        let (s, off) = self.locate(id)?;
        self.segments[s].insert_ts.get(off).copied()
    }

    /// Mark a row deleted; returns true if it was live.  Zone maps stay
    /// untouched (conservative supersets of the live values).  Deleting
    /// the table's last slot trims the dead tail (see `trim_dead_tail`).
    pub fn delete(&mut self, id: RowId) -> bool {
        let Some((s, off)) = self.locate(id) else {
            return false;
        };
        if !self.segments[s].is_live(off) {
            return false;
        }
        let seg = self.segment_mut(s);
        let bytes: u64 = seg.columns.iter().map(|c| c.value_bytes(off)).sum();
        for c in seg.columns.iter_mut() {
            c.bytes = c.bytes.saturating_sub(c.value_bytes(off));
        }
        seg.deleted[off] = true;
        seg.live -= 1;
        self.live_rows -= 1;
        self.data_bytes = self.data_bytes.saturating_sub(bytes);
        // The last slot is always live (this keeps it so), so a delete of
        // it is a delete of the last live row.
        if id + 1 == self.slots {
            self.trim_dead_tail();
        }
        true
    }

    /// Drop the dead slots at the end of the table: whole segments with no
    /// live row, then the dead tail of the last one.  A batch insert
    /// followed by its UNDO leaves the table as long as it was, not a
    /// batch of tombstones longer.  Only dead slots go, so every live row
    /// keeps its `RowId`; the next insert reuses the trimmed ids.
    fn trim_dead_tail(&mut self) {
        while self.segments.last().is_some_and(|s| s.live == 0) {
            self.segments.pop();
        }
        let Some(last) = self.segments.len().checked_sub(1) else {
            self.slots = 0;
            return;
        };
        let seg = &self.segments[last];
        let keep = seg
            .deleted
            .iter()
            .rposition(|&dead| !dead)
            .map_or(0, |off| off + 1);
        if keep < seg.slot_count() {
            self.segment_mut(last).truncate(keep);
        }
        self.slots = last * SEGMENT_ROWS + keep;
    }

    /// Update a live row in place (validating the new values).  Zone maps
    /// only widen — the old values are not removed from them.
    pub fn update(&mut self, id: RowId, row: Vec<Value>) -> Result<bool, SchemaError> {
        let Some((s, off)) = self.locate(id) else {
            return Ok(false);
        };
        if !self.segments[s].is_live(off) {
            return Ok(false);
        }
        let row = self.schema.validate_row(row)?;
        let seg = self.segment_mut(s);
        let old_bytes: u64 = seg.columns.iter().map(|c| c.value_bytes(off)).sum();
        let new_bytes: u64 = row.iter().map(|v| v.byte_size() as u64).sum();
        for (c, v) in row.iter().enumerate() {
            seg.columns[c].set(off, v);
        }
        self.data_bytes = self.data_bytes - old_bytes + new_bytes;
        Ok(true)
    }

    /// Iterate over live rows as `(RowId, row)`, materializing each row from
    /// the column arrays.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Vec<Value>)> + '_ {
        self.iter_range(0, self.slots)
    }

    /// Iterate over all live RowIds.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.slots).filter(move |&i| self.segments[i / SEGMENT_ROWS].is_live(i % SEGMENT_ROWS))
    }

    /// Split the live row-id space into at most `n` chunks of whole
    /// segments for the parallel scan operator.  Segment alignment keeps
    /// per-worker zone pruning and byte accounting identical to the serial
    /// scan.
    pub fn partition_row_ids(&self, n: usize) -> Vec<(RowId, RowId)> {
        let total = self.slots;
        if total == 0 || n == 0 {
            return vec![];
        }
        let nsegs = self.segments.len();
        let n = n.min(nsegs);
        let per = nsegs.div_ceil(n);
        (0..n)
            .map(|i| {
                let lo = i * per * SEGMENT_ROWS;
                let hi = (((i + 1) * per) * SEGMENT_ROWS).min(total);
                (lo, hi)
            })
            .filter(|(lo, hi)| lo < hi)
            .collect()
    }

    /// Iterate live rows whose slot index lies in `[lo, hi)` (for parallel
    /// scan partitions).
    pub fn iter_range(
        &self,
        lo: RowId,
        hi: RowId,
    ) -> impl Iterator<Item = (RowId, Vec<Value>)> + '_ {
        let hi = hi.min(self.slots);
        (lo..hi).filter_map(move |i| {
            let (s, off) = (i / SEGMENT_ROWS, i % SEGMENT_ROWS);
            let seg = &self.segments[s];
            if seg.is_live(off) {
                Some((i, seg.row(off)))
            } else {
                None
            }
        })
    }

    /// Remove all rows.  [`crate::Database::truncate_table`] is the public
    /// path: it empties the table's indexes and statistics too.
    pub(crate) fn truncate(&mut self) {
        self.segments.clear();
        self.slots = 0;
        self.live_rows = 0;
        self.data_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn table() -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("mag", DataType::Float),
            ColumnDef::new("name", DataType::Str).nullable(),
        ])
        .with_primary_key(&["id"]);
        Table::new("objects", schema)
    }

    fn row(id: i64, mag: f64, name: &str) -> Vec<Value> {
        vec![Value::Int(id), Value::Float(mag), Value::str(name)]
    }

    #[test]
    fn insert_and_get() {
        let mut t = table();
        let r0 = t.insert(row(1, 17.5, "a"), 10).unwrap();
        let r1 = t.insert(row(2, 18.5, "b"), 11).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get(r0).unwrap()[0], Value::Int(1));
        assert_eq!(t.get(r1).unwrap()[2], Value::str("b"));
        assert_eq!(t.get_cell(r1, 1), Some(Value::Float(18.5)));
        assert_eq!(t.insert_timestamp(r1), Some(11));
    }

    #[test]
    fn gather_into_appends_the_named_cells_of_live_rows_only() {
        let mut t = table();
        let r0 = t.insert(row(1, 17.5, "a"), 1).unwrap();
        let r1 = t.insert(row(2, 18.5, "b"), 1).unwrap();
        let mut out = vec![Value::Int(-1)];
        assert!(t.gather_into(r1, &[2, 0], &mut out));
        assert_eq!(out, vec![Value::Int(-1), Value::str("b"), Value::Int(2)]);
        assert!(
            t.gather_into(r0, &[], &mut out),
            "an empty column list still reports liveness"
        );
        t.delete(r0);
        assert!(!t.gather_into(r0, &[0], &mut out));
        assert!(!t.gather_into(99, &[0], &mut out));
        assert_eq!(out.len(), 3, "a dead or missing row appends nothing");
        assert!(t.gather_into(r1, &[7], &mut out));
        assert_eq!(
            out[3],
            Value::Null,
            "an ordinal past the schema keeps the width"
        );
    }

    #[test]
    fn delete_hides_rows_and_updates_counts() {
        let mut t = table();
        let r0 = t.insert(row(1, 17.5, "a"), 1).unwrap();
        t.insert(row(2, 18.5, "b"), 1).unwrap();
        let bytes_before = t.data_bytes();
        assert!(t.delete(r0));
        assert!(!t.delete(r0), "double delete reports false");
        assert_eq!(t.row_count(), 1);
        assert!(t.get(r0).is_none());
        assert!(t.data_bytes() < bytes_before);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn update_replaces_values() {
        let mut t = table();
        let r0 = t.insert(row(1, 17.5, "a"), 1).unwrap();
        assert!(t.update(r0, row(1, 12.0, "brighter")).unwrap());
        assert_eq!(t.get_cell(r0, 1), Some(Value::Float(12.0)));
        assert!(!t.update(999, row(9, 9.0, "x")).unwrap());
    }

    #[test]
    fn schema_violations_bubble_up() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(1)], 0).is_err());
        assert!(t
            .insert(vec![Value::Null, Value::Float(1.0), Value::Null], 0)
            .is_err());
    }

    #[test]
    fn byte_accounting_tracks_inserts() {
        let mut t = table();
        assert_eq!(t.data_bytes(), 0);
        t.insert(row(1, 1.0, "abcd"), 0).unwrap();
        // 8 (int) + 8 (float) + 2+4 (str) = 22
        assert_eq!(t.data_bytes(), 22);
        assert_eq!(t.avg_row_bytes(), 22);
    }

    #[test]
    fn partition_covers_all_rows() {
        let mut t = table();
        for i in 0..100 {
            t.insert(row(i, i as f64, "x"), 0).unwrap();
        }
        let parts = t.partition_row_ids(7);
        let mut seen = 0;
        for (lo, hi) in &parts {
            seen += t.iter_range(*lo, *hi).count();
        }
        assert_eq!(seen, 100);
        assert!(parts.len() <= 7);
    }

    #[test]
    fn partition_of_empty_table_is_empty() {
        let t = table();
        assert!(t.partition_row_ids(4).is_empty());
    }

    #[test]
    fn truncate_resets() {
        let mut t = table();
        t.insert(row(1, 1.0, "a"), 0).unwrap();
        t.truncate();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.data_bytes(), 0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn rows_spill_into_multiple_segments() {
        let mut t = table();
        let n = SEGMENT_ROWS + 100;
        for i in 0..n {
            t.insert(row(i as i64, i as f64, "x"), 0).unwrap();
        }
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.segments()[0].slot_count(), SEGMENT_ROWS);
        assert_eq!(t.segments()[1].slot_count(), 100);
        assert_eq!(t.row_count(), n);
        // RowIds address across the segment boundary.
        assert_eq!(
            t.get(SEGMENT_ROWS).unwrap()[0],
            Value::Int(SEGMENT_ROWS as i64)
        );
        // Segment-aligned partitions split on the boundary.
        let parts = t.partition_row_ids(2);
        assert_eq!(parts, vec![(0, SEGMENT_ROWS), (SEGMENT_ROWS, n)]);
    }

    #[test]
    fn zone_maps_track_min_max_and_nulls() {
        let mut t = table();
        t.insert(row(5, 17.5, "b"), 0).unwrap();
        t.insert(row(2, 19.5, "a"), 0).unwrap();
        t.insert(vec![Value::Int(9), Value::Float(16.0), Value::Null], 0)
            .unwrap();
        let seg = &t.segments()[0];
        assert_eq!(seg.column(0).zone_min(), Some(&Value::Int(2)));
        assert_eq!(seg.column(0).zone_max(), Some(&Value::Int(9)));
        assert_eq!(seg.column(1).zone_min(), Some(&Value::Float(16.0)));
        assert_eq!(seg.column(1).zone_max(), Some(&Value::Float(19.5)));
        assert_eq!(seg.column(2).zone_min(), Some(&Value::str("a")));
        assert_eq!(seg.column(2).zone_max(), Some(&Value::str("b")));
        assert_eq!(seg.column(2).null_count(), 1);
        assert_eq!(seg.column(0).null_count(), 0);
    }

    #[test]
    fn updates_widen_zones_conservatively() {
        let mut t = table();
        let r0 = t.insert(row(5, 17.5, "m"), 0).unwrap();
        t.update(r0, row(100, 17.5, "m")).unwrap();
        let seg = &t.segments()[0];
        // Widened to cover the new value; the stale min stays (conservative).
        assert_eq!(seg.column(0).zone_min(), Some(&Value::Int(5)));
        assert_eq!(seg.column(0).zone_max(), Some(&Value::Int(100)));
    }

    #[test]
    fn string_dictionary_dedups_within_a_segment() {
        let mut t = table();
        for i in 0..100 {
            t.insert(row(i, 0.0, if i % 2 == 0 { "even" } else { "odd" }), 0)
                .unwrap();
        }
        let seg = &t.segments()[0];
        match seg.column(2).data() {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes.len(), 100);
                assert_eq!(&*dict[codes[0] as usize], "even");
                assert_eq!(&*dict[codes[1] as usize], "odd");
            }
            other => panic!("expected a Str column, got {other:?}"),
        }
        assert_eq!(seg.column(2).value(3), Value::str("odd"));
    }

    #[test]
    fn column_bytes_are_exact_per_segment() {
        let mut t = table();
        let r0 = t.insert(row(1, 1.0, "abcd"), 0).unwrap();
        t.insert(row(2, 2.0, "xy"), 0).unwrap();
        let seg = &t.segments()[0];
        assert_eq!(seg.column(0).bytes(), 16);
        assert_eq!(seg.column(1).bytes(), 16);
        assert_eq!(seg.column(2).bytes(), (2 + 4) + (2 + 2));
        t.delete(r0);
        let seg = &t.segments()[0];
        assert_eq!(seg.column(0).bytes(), 8);
        assert_eq!(seg.column(2).bytes(), 2 + 2);
    }
}
