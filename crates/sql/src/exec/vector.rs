//! Vectorized batch execution over chunks: heap segments and index runs.
//!
//! A `BatchProgram` is built once per scan from the compiled filter, the
//! source's row layout and (on the single-table fast path) the projection.
//! The executor then drives it one *chunk* at a time: up to [`BATCH_ROWS`]
//! slots of one storage segment, or one slice of one index run.  The
//! chunk's candidate offsets form a selection vector, each filter conjunct
//! runs as a tight loop over the selection directly against the typed
//! column arrays — no row materialization, no `Value` construction on the
//! common Int/Float paths — and only the surviving offsets are gathered,
//! and only the layout's columns of them.
//!
//! Three ordinal spaces meet here.  The **filter** addresses storage
//! columns, so it is compiled against the table's full storage schema.  The
//! **layout** maps row ordinals to storage ordinals (`layout[i]` is the
//! storage column of row cell `i` — the source's scan columns); a
//! **projection** is compiled against the row, like every program that
//! runs downstream of the scan.  On an index run the **run** map sends a
//! storage ordinal to the run column holding it, when the index covers it
//! (resolved at plan time, `CompiledPrograms::source_runs`): kernels read
//! covered columns from the run exactly as they read a segment's, while a
//! numeric program or the scalar arm reads an uncovered column's cells from
//! the heap by row id, and a survivor gathers only its uncovered cells from
//! the heap.  §9.1.3's "tag table", scanned in place of the base table.
//!
//! # Numeric programs
//!
//! The paper's data-mining filters are colour and shape cuts: arithmetic
//! on magnitudes (`modelMag_u - modelMag_g < 0.55`, Q15's
//! `rowv*rowv + colv*colv between 50 and 1000`).  A comparison or
//! `BETWEEN` whose operands are all numeric — `Int`/`Float` columns and
//! constants, `+ - * / %`, `& |` between `Int`s, unary minus, `abs`,
//! `sqrt`, `square`, `power` — becomes a `Conjunct::Numeric`: each
//! operand is a small program computed over the whole selection into typed
//! `i64`/`f64` lanes with a NULL mask, and the test then runs lane by lane.
//! Types are fixed when the program is built (`Int op Int` stays `Int`,
//! with overflow an error; `/` and anything touching a `Float` is `f64`),
//! so no lane holds a `Value`.  A lane the scalar operator would reject (an
//! overflow, a zero divisor) that is not NULL fails the chunk with the
//! scalar operator's own error.  `Bool`/`Str` operands, `CASE`, variables,
//! UDFs and every other shape keep the scalar arm, which builds a sparse
//! `Value` row per selected offset and runs the compiled program on it.
//!
//! # Semantics
//!
//! The result must be *indistinguishable* from evaluating the compiled
//! program row-at-a-time (`filter.eval(row)?.is_truthy()` — the proptests at
//! the end of this file hold every kernel to that, over segments and run
//! slices), which for a conjunction means SQL three-valued logic:
//!
//! * a conjunct evaluating to a falsy value removes the row from the
//!   selection immediately (short-circuit — later conjuncts never see it);
//! * a conjunct evaluating to NULL *flags* the row but keeps it in the
//!   selection ([`crate::exec::compile::CompiledExpr::And`] keeps
//!   evaluating after a NULL — errors in later conjuncts must still fire);
//! * after the last conjunct, flagged rows are dropped: `NULL` is not
//!   truthy.
//!
//! Conjuncts run left-to-right, each over ascending offsets, so the first
//! error a chunk can raise is deterministic.  It may differ from the
//! row-at-a-time order (conjunct-major vs row-major) — equivalence tests
//! compare errors as "both fail", not message-for-message.
//!
//! String columns evaluate predicates **once per dictionary entry** and
//! then map the per-row codes through the precomputed answers — the
//! dictionary trick that makes `LIKE` scans cheap.  When a dictionary is
//! near-unique (more entries than selected rows) the predicate runs per
//! selected row instead, so the trick never costs more than it saves.

use crate::ast::{BinaryOp, UnaryOp};
use crate::error::SqlError;
use crate::exec::compile::{CompiledExpr, LikeMatcher};
use crate::exec::sink::RowBlock;
use crate::expr::{apply_binary, apply_unary, between_holds, EvalContext};
use crate::functions::{eval_builtin_normalized, FineTest};
use skyserver_storage::{Column, ColumnData, DataType, RowId, Run, Segment, Table, Value};
use std::cmp::Ordering;

/// Rows per processed batch: one storage segment, one index run.
pub const BATCH_ROWS: usize = 1024;

/// The layout ordinal of a seek source's measure: the cell its fine test
/// computes per entry, read from no column.
pub(crate) const MEASURE: usize = usize::MAX;

/// Cell `off` of a numeric column as the `f64` a fine test reads (a NULL
/// or non-numeric cell reads 0).
pub(crate) fn cell_f64(column: &Column, off: usize) -> f64 {
    match (column.data(), column.validity().get(off)) {
        (ColumnData::Float(v), Some(true)) => v.get(off).copied().unwrap_or(0.0),
        _ => column.value(off).as_f64().unwrap_or(0.0),
    }
}

/// Where one cell of a chunk's row is read.
#[derive(Clone, Copy)]
enum Cell {
    /// A column of the chunk itself: a segment's storage ordinal, a run's
    /// run ordinal.
    Chunk(usize),
    /// Storage column `c` of the heap row a run entry points at — a column
    /// the index does not cover.
    Heap(usize),
}

/// What one chunk reads: a heap segment and the `RowId` of its slot 0
/// (tombstoned slots), or an index run and its table (live entries only,
/// the uncovered cells in the table's heap).
#[derive(Clone, Copy)]
pub(crate) enum Chunk<'s> {
    Segment(&'s Segment, RowId),
    Run(&'s Run, &'s Table),
}

impl<'s> Chunk<'s> {
    fn column(&self, c: usize) -> &'s Column {
        match *self {
            Chunk::Segment(seg, _) => seg.column(c),
            Chunk::Run(run, _) => run.column(c),
        }
    }

    /// The row behind offset `off`.
    pub fn row_id(&self, off: u32) -> RowId {
        match *self {
            Chunk::Segment(_, first_row) => first_row + off as usize,
            Chunk::Run(run, _) => run.row_ids()[off as usize],
        }
    }

    /// The heap slot of the row behind `off` (`None` once it is deleted).
    fn heap(&self, off: u32) -> Option<(&'s Segment, usize)> {
        match *self {
            Chunk::Segment(seg, _) => Some((seg, off as usize)),
            Chunk::Run(_, table) => table.live_slot(self.row_id(off)),
        }
    }

    /// `cell` of offset `off`; `heap` is [`Chunk::heap`] of `off` when
    /// `cell` may be a heap cell.
    #[inline]
    fn read(&self, cell: Cell, off: u32, heap: Option<(&Segment, usize)>) -> Value {
        match cell {
            Cell::Chunk(c) => self.column(c).value(off as usize),
            Cell::Heap(c) => heap.map_or(Value::Null, |(seg, at)| seg.value(at, c)),
        }
    }
}

/// Where storage column `c` is read on chunks with run map `runs` (`None`:
/// heap segments, where every column is the chunk's own).
fn place(runs: Option<&[Option<usize>]>, c: usize) -> Cell {
    match runs {
        None => Cell::Chunk(c),
        Some(map) => map
            .get(c)
            .copied()
            .flatten()
            .map_or(Cell::Heap(c), Cell::Chunk),
    }
}

/// Build the scalar-fallback conjunct: record which columns the program
/// reads, and where, so evaluation materializes only those (out-of-range
/// ordinals are dropped — `CompiledExpr::eval` reports them itself).
fn scalar_conjunct<'a>(
    expr: &'a CompiledExpr,
    ncols: usize,
    runs: Option<&[Option<usize>]>,
) -> Conjunct<'a> {
    let mut cols = Vec::new();
    expr.collect_columns(&mut cols);
    cols.sort_unstable();
    cols.dedup();
    cols.retain(|&c| c < ncols);
    let cols = cols.into_iter().map(|c| (c, place(runs, c))).collect();
    Conjunct::Scalar { expr, cols }
}

/// What a scan emits per accepted row.
#[derive(Clone, Copy)]
pub(crate) enum Emit<'a> {
    /// The source's layout row (its scan columns).
    Row,
    /// The layout row plus one trailing cell holding the row's [`RowId`] —
    /// the DML victim search.  No program addresses the extra cell.
    RowAndId,
    /// The statement's projection, evaluated inside the scan: the
    /// single-table fast path, where a rejected row is never copied and a
    /// surviving one is copied once, into its output shape.
    Project(&'a [CompiledExpr]),
}

impl Emit<'_> {
    /// Cells per emitted row over a layout of `layout` cells.
    pub(crate) fn width(self, layout: usize) -> usize {
        match self {
            Emit::Row => layout,
            Emit::RowAndId => layout + 1,
            Emit::Project(programs) => programs.len(),
        }
    }
}

/// How one output column of the gather stage is produced.
enum Gather<'a> {
    /// Direct fetch of one cell — no scratch row needed.
    Cell(Cell),
    /// The measure the fine test computed for the entry.
    Measure,
    /// The entry's [`RowId`].
    RowId,
    /// General program over the scratch layout row.
    Eval(&'a CompiledExpr),
}

/// One conjunct of the filter, specialised to a kernel where possible.
/// Kernel columns are chunk columns ([`Cell::Chunk`]).
enum Conjunct<'a> {
    /// `col <op> const` (constants normalised to the right-hand side).
    CmpConst {
        col: usize,
        op: BinaryOp,
        konst: &'a Value,
    },
    /// `col [NOT] BETWEEN lo AND hi` with constant bounds.
    Between {
        col: usize,
        low: &'a Value,
        high: &'a Value,
        negated: bool,
    },
    /// `col [NOT] IN (consts)`: the non-NULL members, and whether the list
    /// held a NULL (a row that matches none of them is then NULL, not
    /// false).
    InList {
        col: usize,
        list: Vec<&'a Value>,
        has_null: bool,
        negated: bool,
    },
    /// `col IS [NOT] NULL` — answered from the validity bitmap alone.
    IsNull { col: usize, negated: bool },
    /// `col [NOT] LIKE 'pattern'` with a precompiled matcher.
    Like {
        col: usize,
        matcher: &'a LikeMatcher,
        negated: bool,
    },
    /// A comparison or `BETWEEN` whose operands are all numeric programs:
    /// `[left, right]` or `[value, low, high]`, each computed into typed
    /// lanes over the selection before the test runs.
    Numeric { sides: Vec<Num<'a>>, test: NumTest },
    /// A comparison against a NULL constant: NULL for every row.
    AlwaysNull,
    /// Anything else: run the compiled program per row over a sparse
    /// scratch row holding only the columns the program reads.
    Scalar {
        expr: &'a CompiledExpr,
        /// Sorted, deduped storage ordinals the program reads, each with
        /// where the chunk keeps it.
        cols: Vec<(usize, Cell)>,
    },
}

/// Tri-state outcome of one conjunct for one row.
#[derive(Clone, Copy, PartialEq)]
enum Tri {
    True,
    False,
    Null,
}

impl Tri {
    #[inline]
    fn of_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }

    #[inline]
    fn of_option(b: Option<bool>) -> Tri {
        b.map_or(Tri::Null, Tri::of_bool)
    }

    #[inline]
    fn of_value(v: &Value) -> Tri {
        if v.is_null() {
            Tri::Null
        } else if v.is_truthy() {
            Tri::True
        } else {
            Tri::False
        }
    }
}

/// Reusable per-scan buffers (one per worker thread): the selection and
/// what the kernels need to narrow it.  The accepted rows themselves are
/// gathered straight into a [`RowBlock`] the caller owns
/// ([`BatchProgram::emit_chunk`]), so no row is built here and none comes
/// back.
#[derive(Default)]
pub(crate) struct BatchScratch {
    /// Selected offsets within the current chunk.
    sel: Vec<u32>,
    /// NULL flags, parallel to `sel` (a row whose filter saw a NULL
    /// conjunct survives the selection but is dropped at the end).
    nulls: Vec<bool>,
    /// Scratch row for scalar-fallback conjuncts and non-trivial
    /// projections.
    row: Vec<Value>,
    /// Per-dictionary-entry predicate answers, reused across chunks of the
    /// same segment.
    dict: Vec<Tri>,
    /// Lane buffers of the numeric programs, reused across chunks.
    lanes: Vec<Lanes>,
    /// The fine test's measure per chunk offset (by offset, so the
    /// selection compacts without touching it).
    measures: Vec<f64>,
}

impl BatchScratch {
    /// Chunk offsets of the current chunk's accepted rows, ascending —
    /// parallel to the rows [`BatchProgram::emit_chunk`] appends.
    pub fn selected(&self) -> &[u32] {
        &self.sel
    }

    /// The measure the fine test computed for accepted offset `off`.
    pub fn measure(&self, off: u32) -> f64 {
        self.measures.get(off as usize).copied().unwrap_or(0.0)
    }

    /// Keep the first `n` accepted rows.  When that cuts the selection,
    /// returns the last offset kept (`None` if it kept none).
    pub fn truncate(&mut self, n: usize) -> Option<&u32> {
        if self.sel.len() <= n {
            return None;
        }
        self.sel.truncate(n);
        self.nulls.truncate(n);
        self.sel.last()
    }
}

/// A compiled filter + projection specialised for batch execution over one
/// table's segments, or over the runs of one of its indexes.
pub(crate) struct BatchProgram<'a> {
    conjuncts: Vec<Conjunct<'a>>,
    /// No conjunct can fail, so segment zones may refute the filter.
    total: bool,
    gather: Vec<Gather<'a>>,
    /// Row ordinal → storage ordinal.
    layout: &'a [usize],
    /// Storage ordinal → run ordinal, on index runs.
    runs: Option<&'a [Option<usize>]>,
    /// Sorted, deduped **row** ordinals read by the [`Gather::Eval`]
    /// projections — the only cells the gather stage loads into the
    /// scratch row — with where each is read.
    eval_cols: Vec<(usize, Cell)>,
    /// The row ordinal of the measure, when an Eval projection reads it.
    eval_measure: Option<usize>,
    /// A seek source's fine test: where its inputs are read, and the test.
    fine: Option<(Vec<Cell>, &'a FineTest)>,
    /// Does the gather read a heap cell (an uncovered column of a run)?
    gathers_heap: bool,
    column_types: Vec<DataType>,
}

impl<'a> BatchProgram<'a> {
    /// Specialise `filter` (storage ordinals) and what the scan `emit`s (a
    /// projection in row ordinals over `layout`, or the layout row itself)
    /// against a table with the given column types.  `runs` is the run
    /// map when the chunks are index run slices, `None` for heap segments.
    /// Never fails: shapes without a kernel become scalar-fallback
    /// conjuncts with identical semantics.  Every `layout` entry must be a
    /// valid storage ordinal or [`MEASURE`] (the executor checks before
    /// building).  `fine` is a seek source's fine test and the storage
    /// ordinals it reads: it runs before the filter, keeps the live entries
    /// it accepts, and gives each the measure [`MEASURE`] cells read.
    pub fn build(
        filter: Option<&'a CompiledExpr>,
        layout: &'a [usize],
        emit: Emit<'a>,
        column_types: Vec<DataType>,
        runs: Option<&'a [Option<usize>]>,
        fine: Option<(&[usize], &'a FineTest)>,
    ) -> BatchProgram<'a> {
        let place = |c: usize| place(runs, c);
        let cell = |c: usize| match c {
            MEASURE => Gather::Measure,
            c => Gather::Cell(place(c)),
        };
        let mut conjuncts = Vec::new();
        // Zones are a heap segment's: a run-slice program never prunes.
        let mut total = runs.is_none();
        if let Some(f) = filter {
            let items: Vec<&CompiledExpr> = match f {
                CompiledExpr::And(items) => items.iter().collect(),
                other => vec![other],
            };
            for item in items {
                total &= is_total(item, &column_types);
                conjuncts.push(build_conjunct(item, &column_types, runs));
            }
        }
        let mut gather: Vec<Gather<'a>> = match emit {
            Emit::Row | Emit::RowAndId => layout.iter().map(|&c| cell(c)).collect(),
            Emit::Project(programs) => programs
                .iter()
                .map(|p| match p {
                    CompiledExpr::Col(i) if *i < layout.len() => cell(layout[*i]),
                    other => Gather::Eval(other),
                })
                .collect(),
        };
        if let Emit::RowAndId = emit {
            gather.push(Gather::RowId);
        }
        let mut read = Vec::new();
        for g in &gather {
            if let Gather::Eval(p) = g {
                p.collect_columns(&mut read);
            }
        }
        read.sort_unstable();
        read.dedup();
        let eval_measure = read
            .iter()
            .copied()
            .find(|&i| layout.get(i) == Some(&MEASURE));
        let eval_cols: Vec<(usize, Cell)> = read
            .into_iter()
            .filter_map(|i| {
                layout
                    .get(i)
                    .filter(|&&c| c != MEASURE)
                    .map(|&c| (i, place(c)))
            })
            .collect();
        let heap_cell = |cell: &Cell| matches!(cell, Cell::Heap(_));
        let gathers_heap = eval_cols.iter().any(|(_, cell)| heap_cell(cell))
            || gather
                .iter()
                .any(|g| matches!(g, Gather::Cell(cell) if heap_cell(cell)));
        BatchProgram {
            conjuncts,
            total,
            gather,
            layout,
            runs,
            eval_cols,
            eval_measure,
            fine: fine.map(|(tested, test)| (tested.iter().map(|&c| place(c)).collect(), test)),
            gathers_heap,
            column_types,
        }
    }

    /// Can heap segment `seg` hold a row the filter accepts?  Judged from
    /// its column zones alone: `false` lets the scan skip it unread.  Only
    /// a total filter is judged, because skipping rows must not hide an
    /// error evaluating them would raise.
    pub fn segment_may_match(&self, seg: &Segment) -> bool {
        !self.total || self.conjuncts.iter().all(|c| zone_admits(c, seg))
    }

    /// Load the candidate offsets of `base..end` into the selection vector:
    /// a segment's live slots, every entry of a run slice.  Returns how
    /// many there are.
    pub fn begin_chunk(
        &self,
        chunk: Chunk<'_>,
        base: usize,
        end: usize,
        scratch: &mut BatchScratch,
    ) -> u64 {
        scratch.sel.clear();
        match chunk {
            Chunk::Segment(seg, _) => {
                let deleted = seg.deleted();
                for (off, &dead) in deleted.iter().enumerate().take(end).skip(base) {
                    if !dead {
                        scratch.sel.push(off as u32);
                    }
                }
            }
            Chunk::Run(..) => scratch.sel.extend(base as u32..end as u32),
        }
        scratch.nulls.clear();
        scratch.nulls.resize(scratch.sel.len(), false);
        scratch.sel.len() as u64
    }

    /// Load a sparse selection of a run's entries — ascending `offsets`,
    /// what an index-lookup join matched — as [`Self::begin_chunk`] loads
    /// a contiguous slice.
    pub fn begin_selection(&self, offsets: &[u32], scratch: &mut BatchScratch) {
        scratch.sel.clear();
        scratch.sel.extend_from_slice(offsets);
        scratch.nulls.clear();
        scratch.nulls.resize(offsets.len(), false);
    }

    /// Run the fine test and every filter conjunct over the current
    /// selection, leaving only accepted offsets in `scratch.sel`.
    pub fn filter_chunk(
        &self,
        chunk: Chunk<'_>,
        scratch: &mut BatchScratch,
        ctx: &EvalContext<'_>,
    ) -> Result<(), SqlError> {
        if let Some((tested, test)) = &self.fine {
            fine_test(chunk, scratch, tested, test);
        }
        if self.conjuncts.is_empty() {
            return Ok(());
        }
        for conjunct in &self.conjuncts {
            self.apply_conjunct(conjunct, chunk, scratch, ctx)?;
            if scratch.sel.is_empty() {
                return Ok(());
            }
        }
        // Drop NULL-flagged survivors: NULL is not truthy.
        let mut kept = 0usize;
        for i in 0..scratch.sel.len() {
            if !scratch.nulls[i] {
                scratch.sel[kept] = scratch.sel[i];
                kept += 1;
            }
        }
        scratch.sel.truncate(kept);
        scratch.nulls.truncate(kept);
        scratch.nulls.iter_mut().for_each(|n| *n = false);
        Ok(())
    }

    /// Drop every selected row whose row cell `key` orders strictly after
    /// `bound` in the given direction — the rows a full Top-N heap whose
    /// worst first key is `bound` would reject — before any of them is
    /// built.  Rows equal to `bound` stay: the sort decides ties.
    pub fn reject_after(
        &self,
        chunk: Chunk<'_>,
        scratch: &mut BatchScratch,
        key: usize,
        bound: &Value,
        ascending: bool,
    ) {
        // The measure's order is the source's own, applied before its rows
        // leave it: nothing to reject here.
        let Some(&c) = self.layout.get(key).filter(|&&c| c != MEASURE) else {
            return;
        };
        let after = if ascending {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        match place(self.runs, c) {
            Cell::Chunk(c) => {
                let column = chunk.column(c);
                retain(scratch, |_, off| {
                    Tri::of_bool(column.cmp_value(off as usize, bound) != after)
                });
            }
            // A dead row stays: the gather drops it.
            Cell::Heap(c) => retain(scratch, |_, off| {
                Tri::of_bool(
                    chunk
                        .heap(off)
                        .is_none_or(|(seg, at)| seg.column(c).cmp_value(at, bound) != after),
                )
            }),
        }
    }

    /// Append the accepted rows of the current selection to `out`,
    /// dropping from the selection a run entry whose heap row is gone.
    /// Returns the payload bytes of the heap cells read for uncovered
    /// columns (always 0 on a segment).
    pub fn emit_chunk(
        &self,
        chunk: Chunk<'_>,
        scratch: &mut BatchScratch,
        ctx: &EvalContext<'_>,
        out: &mut RowBlock,
    ) -> Result<u64, SqlError> {
        self.prepare_rows(scratch);
        let mut heap_bytes = 0u64;
        let mut kept = 0usize;
        for i in 0..scratch.sel.len() {
            let off = scratch.sel[i];
            let measure = scratch.measure(off);
            if let Some(bytes) = self.emit_row(chunk, off, measure, scratch, ctx, out)? {
                heap_bytes += bytes;
                scratch.sel[kept] = off;
                kept += 1;
            }
        }
        scratch.sel.truncate(kept);
        scratch.nulls.truncate(kept);
        Ok(heap_bytes)
    }

    /// Ready `scratch` for [`Self::emit_row`] calls.
    pub fn prepare_rows(&self, scratch: &mut BatchScratch) {
        if !self.eval_cols.is_empty() {
            // Layout-wide (projections address row ordinals) but only the
            // cells the Eval projections read are loaded per row.
            scratch.row.clear();
            scratch.row.resize(self.layout.len(), Value::Null);
        }
    }

    /// Append entry `off` of `chunk` to `out`, its measure cells reading
    /// `measure`.  Returns the payload bytes of the heap cells it read, or
    /// `None`, adding nothing, when the entry's heap row is gone.
    #[inline]
    pub fn emit_row(
        &self,
        chunk: Chunk<'_>,
        off: u32,
        measure: f64,
        scratch: &mut BatchScratch,
        ctx: &EvalContext<'_>,
        out: &mut RowBlock,
    ) -> Result<Option<u64>, SqlError> {
        let heap = match self.gathers_heap {
            false => None,
            true => match chunk.heap(off) {
                Some(slot) => Some(slot),
                None => return Ok(None),
            },
        };
        let mut heap_bytes = 0u64;
        let mut read = |cell: Cell| {
            let v = chunk.read(cell, off, heap);
            if let Cell::Heap(_) = cell {
                heap_bytes += v.byte_size() as u64;
            }
            v
        };
        for &(r, cell) in &self.eval_cols {
            scratch.row[r] = read(cell);
        }
        if let Some(r) = self.eval_measure {
            scratch.row[r] = Value::Float(measure);
        }
        out.push_with(|cells| {
            for g in &self.gather {
                cells.push(match *g {
                    Gather::Cell(cell) => read(cell),
                    Gather::Measure => Value::Float(measure),
                    Gather::RowId => Value::Int(chunk.row_id(off) as i64),
                    Gather::Eval(p) => p.eval(&scratch.row, ctx)?,
                });
            }
            Ok(())
        })?;
        Ok(Some(heap_bytes))
    }

    /// Apply one conjunct over the selection, retaining True and Null rows
    /// (the latter flagged) and dropping False rows.
    fn apply_conjunct(
        &self,
        conjunct: &Conjunct<'a>,
        chunk: Chunk<'_>,
        scratch: &mut BatchScratch,
        ctx: &EvalContext<'_>,
    ) -> Result<(), SqlError> {
        match conjunct {
            Conjunct::AlwaysNull => {
                scratch.nulls.iter_mut().for_each(|n| *n = true);
            }
            Conjunct::IsNull { col, negated } => {
                let validity = chunk.column(*col).validity();
                retain(scratch, |_, off| {
                    // v.is_null() != negated, never NULL itself.
                    Tri::of_bool(validity[off as usize] == *negated)
                });
            }
            Conjunct::CmpConst { col, op, konst } => {
                cmp_kernel(chunk.column(*col), scratch, *op, konst)
            }
            Conjunct::Between {
                col,
                low,
                high,
                negated,
            } => {
                let column = chunk.column(*col);
                let validity = column.validity();
                match column.data() {
                    ColumnData::Int(ints) => retain(scratch, |_, off| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let v = ints[off];
                        let within = ord_int(v, low) != Ordering::Less
                            && ord_int(v, high) != Ordering::Greater;
                        Tri::of_bool(within != *negated)
                    }),
                    ColumnData::Float(floats) => retain(scratch, |_, off| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let v = floats[off];
                        let within = ord_float(v, low) != Ordering::Less
                            && ord_float(v, high) != Ordering::Greater;
                        Tri::of_bool(within != *negated)
                    }),
                    ColumnData::Str { dict, codes } => {
                        str_kernel(scratch, validity, dict, codes, |s| {
                            let within = ord_str(s, low) != Ordering::Less
                                && ord_str(s, high) != Ordering::Greater;
                            Tri::of_bool(within != *negated)
                        });
                    }
                    _ => retain_generic(scratch, column, |v| {
                        Tri::of_value(&crate::expr::between_value(v, low, high, *negated))
                    }),
                }
            }
            Conjunct::InList {
                col,
                list,
                has_null,
                negated,
            } => {
                let answer = |found: bool| match (found, *has_null) {
                    (false, true) => Tri::Null,
                    _ => Tri::of_bool(found != *negated),
                };
                let column = chunk.column(*col);
                let validity = column.validity();
                match column.data() {
                    ColumnData::Int(ints) => retain(scratch, |_, off| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let v = ints[off];
                        answer(list.iter().any(|k| ord_int(v, k) == Ordering::Equal))
                    }),
                    ColumnData::Float(floats) => retain(scratch, |_, off| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let v = floats[off];
                        answer(list.iter().any(|k| ord_float(v, k) == Ordering::Equal))
                    }),
                    ColumnData::Str { dict, codes } => {
                        str_kernel(scratch, validity, dict, codes, |s| {
                            answer(list.iter().any(|k| ord_str(s, k) == Ordering::Equal))
                        });
                    }
                    _ => retain_generic(scratch, column, |v| {
                        if v.is_null() {
                            return Tri::Null;
                        }
                        answer(list.iter().any(|k| v.sql_eq(k)))
                    }),
                }
            }
            Conjunct::Like {
                col,
                matcher,
                negated,
            } => {
                let column = chunk.column(*col);
                let validity = column.validity();
                match column.data() {
                    ColumnData::Str { dict, codes } => {
                        str_kernel(scratch, validity, dict, codes, |s| {
                            Tri::of_bool(matcher.matches(s) != *negated)
                        });
                    }
                    _ => retain_generic(scratch, column, |v| {
                        if v.is_null() {
                            return Tri::Null;
                        }
                        Tri::of_bool(matcher.matches_value(v) != *negated)
                    }),
                }
            }
            Conjunct::Numeric { sides, test } => {
                // Lane buffers are reused chunk after chunk; an error ends
                // the scan, so losing them on that path costs nothing.
                let mut pool = std::mem::take(&mut scratch.lanes);
                let mut lanes: [Lanes; 3] = Default::default();
                for (l, side) in lanes.iter_mut().zip(sides) {
                    *l = side.eval(chunk, &scratch.sel, &mut pool)?;
                }
                // Mixed operands compare as floats, as `Value::total_cmp`.
                let ints = sides.iter().all(|s| s.ty == NumType::Int);
                for (l, side) in lanes.iter_mut().zip(sides).filter(|_| !ints) {
                    l.floats(side.ty);
                }
                let ord = |x: &Lanes, y: &Lanes, i: usize| match ints {
                    true => x.int[x.at(i)].cmp(&y.int[y.at(i)]),
                    false => x.float[x.at(i)].total_cmp(&y.float[y.at(i)]),
                };
                let null = |x: &Lanes, i: usize| x.is_null(i);
                let [a, b, c] = &lanes;
                // Lanes without a NULL against a non-NULL constant: hoist
                // the constant (the flag tests of the Galaxy/Star views).
                let hoist = (a.step, a.null_step, b.step, b.null_step) == (1, 0, 0, 0)
                    && !a.null[0]
                    && !b.null[0]
                    && !scratch.sel.is_empty();
                match *test {
                    NumTest::Cmp(op) if hoist && ints => {
                        let (x, k) = (&a.int[..], b.int[0]);
                        retain(scratch, |i, _| Tri::of_bool(cmp_holds(op, x[i].cmp(&k))))
                    }
                    NumTest::Cmp(op) if hoist => {
                        let (x, k) = (&a.float[..], b.float[0]);
                        retain(scratch, |i, _| {
                            Tri::of_bool(cmp_holds(op, x[i].total_cmp(&k)))
                        })
                    }
                    NumTest::Cmp(op) => retain(scratch, |i, _| match null(a, i) || null(b, i) {
                        true => Tri::Null,
                        false => Tri::of_bool(cmp_holds(op, ord(a, b, i))),
                    }),
                    NumTest::Between { negated } => retain(scratch, |i, _| {
                        let half = |bound: &Lanes, past| {
                            (!null(bound, i)).then(|| ord(a, bound, i) != past)
                        };
                        let (ge, le) = (half(b, Ordering::Less), half(c, Ordering::Greater));
                        match null(a, i) {
                            true => Tri::Null,
                            false => Tri::of_option(between_holds(ge, le, negated)),
                        }
                    }),
                }
                pool.extend(lanes.iter_mut().take(sides.len()).map(std::mem::take));
                scratch.lanes = pool;
            }
            Conjunct::Scalar { expr, cols } => {
                let ncols = self.column_types.len();
                let reads_heap = cols.iter().any(|(_, cell)| matches!(cell, Cell::Heap(_)));
                let mut err = None;
                // Split borrows: `retain` mutates sel/nulls while the
                // closure fills the scratch row.  The row stays full-width
                // (programs address columns by ordinal) but only the
                // ordinals the program reads are loaded per row; the rest
                // stay NULL and are never consulted.
                let mut row = std::mem::take(&mut scratch.row);
                row.clear();
                row.resize(ncols, Value::Null);
                retain(scratch, |_, off| {
                    if err.is_some() {
                        return Tri::True; // error already pending; keep row sets, bail after
                    }
                    let heap = if reads_heap { chunk.heap(off) } else { None };
                    for &(c, cell) in cols {
                        row[c] = chunk.read(cell, off, heap);
                    }
                    match expr.eval(&row, ctx) {
                        Ok(v) => Tri::of_value(&v),
                        Err(e) => {
                            err = Some(e);
                            Tri::True
                        }
                    }
                });
                scratch.row = row;
                if let Some(e) = err {
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

/// The `col <op> const` kernel, monomorphised per column representation.
fn cmp_kernel(column: &Column, scratch: &mut BatchScratch, op: BinaryOp, konst: &Value) {
    let validity = column.validity();
    match column.data() {
        ColumnData::Int(ints) => retain(scratch, |_, off| {
            let off = off as usize;
            if !validity[off] {
                return Tri::Null;
            }
            let v = ints[off];
            Tri::of_bool(cmp_holds(op, ord_int(v, konst)))
        }),
        ColumnData::Float(floats) => retain(scratch, |_, off| {
            let off = off as usize;
            if !validity[off] {
                return Tri::Null;
            }
            let v = floats[off];
            Tri::of_bool(cmp_holds(op, ord_float(v, konst)))
        }),
        ColumnData::Str { dict, codes } => {
            str_kernel(scratch, validity, dict, codes, |s| {
                Tri::of_bool(cmp_holds(op, ord_str(s, konst)))
            });
        }
        _ => retain_generic(scratch, column, |v| {
            if v.is_null() {
                return Tri::Null;
            }
            Tri::of_bool(cmp_holds(op, v.total_cmp(konst)))
        }),
    }
}

/// The fine test of a seek source over the selection (§9.1.4's second
/// step): keep each entry whose row is live and that `test` accepts on the
/// `tested` cells, and record the measure it yields under its offset.
fn fine_test(chunk: Chunk<'_>, scratch: &mut BatchScratch, tested: &[Cell], test: &FineTest) {
    let mut cells = vec![0.0; tested.len()];
    let end = scratch.sel.last().map_or(0, |&off| off as usize + 1);
    if scratch.measures.len() < end {
        scratch.measures.resize(end, 0.0);
    }
    let measures = &mut scratch.measures;
    let mut kept = 0usize;
    for i in 0..scratch.sel.len() {
        let off = scratch.sel[i];
        // An index entry whose heap row is gone is no answer.
        let Some(heap) = chunk.heap(off) else {
            continue;
        };
        for (cell, place) in cells.iter_mut().zip(tested) {
            *cell = match *place {
                Cell::Chunk(c) => cell_f64(chunk.column(c), off as usize),
                Cell::Heap(c) => cell_f64(heap.0.column(c), heap.1),
            };
        }
        if let Some(measure) = test(&cells) {
            measures[off as usize] = measure;
            scratch.sel[kept] = off;
            kept += 1;
        }
    }
    scratch.sel.truncate(kept);
    scratch.nulls.truncate(kept);
}

/// Run `f` over the selection, keeping True rows, keeping-and-flagging Null
/// rows, dropping False rows.  `f` gets `(position in the selection,
/// offset)`.
#[inline]
fn retain(scratch: &mut BatchScratch, mut f: impl FnMut(usize, u32) -> Tri) {
    let mut kept = 0usize;
    for i in 0..scratch.sel.len() {
        let off = scratch.sel[i];
        match f(i, off) {
            Tri::False => {}
            tri => {
                scratch.sel[kept] = off;
                scratch.nulls[kept] = scratch.nulls[i] || tri == Tri::Null;
                kept += 1;
            }
        }
    }
    scratch.sel.truncate(kept);
    scratch.nulls.truncate(kept);
}

/// Generic per-row fallback for column representations without a dedicated
/// kernel (Bytes, Bool): fetch the cell as a [`Value`] — still no full-row
/// materialization.
#[inline]
fn retain_generic(scratch: &mut BatchScratch, column: &Column, mut f: impl FnMut(&Value) -> Tri) {
    retain(scratch, |_, off| {
        let v = column.value(off as usize);
        f(&v)
    })
}

/// Evaluate a predicate once per dictionary entry into `answers`.
#[inline]
fn prime_dict(
    answers: &mut Vec<Tri>,
    dict: &[std::sync::Arc<str>],
    mut f: impl FnMut(&str) -> Tri,
) {
    answers.clear();
    answers.extend(dict.iter().map(|s| f(s)));
}

/// Run a string predicate over a dictionary-encoded column.  When the
/// dictionary is no larger than the selection, the predicate runs once per
/// distinct entry and the per-row codes map through the answers; for
/// near-unique dictionaries (more entries than selected rows) that would
/// evaluate entries no selected row uses, so the predicate runs per row
/// instead.
#[inline]
fn str_kernel(
    scratch: &mut BatchScratch,
    validity: &[bool],
    dict: &[std::sync::Arc<str>],
    codes: &[u32],
    pred: impl Fn(&str) -> Tri,
) {
    if dict.len() <= scratch.sel.len() {
        prime_dict(&mut scratch.dict, dict, &pred);
        let answers = std::mem::take(&mut scratch.dict);
        retain(scratch, |_, off| {
            let off = off as usize;
            if !validity[off] {
                Tri::Null
            } else {
                answers[codes[off] as usize]
            }
        });
        scratch.dict = answers;
    } else {
        retain(scratch, |_, off| {
            let off = off as usize;
            if !validity[off] {
                Tri::Null
            } else {
                pred(&dict[codes[off] as usize])
            }
        });
    }
}

/// Does `op` hold given the [`Value::total_cmp`] ordering of two non-NULL
/// values?  (SQL equality and the total order agree on those — the only
/// values a kernel compares.)
#[inline]
fn cmp_holds(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        // skylint: allow(no-panic) callers dispatch on comparison ops before calling cmp_holds
        _ => unreachable!("only comparisons reach cmp_holds"),
    }
}

/// `Value::total_cmp(Int(v), konst)` without constructing a `Value`.
#[inline]
fn ord_int(v: i64, konst: &Value) -> Ordering {
    match konst {
        Value::Int(k) => v.cmp(k),
        Value::Float(k) => (v as f64).total_cmp(k),
        // Type-rank order: Bool(1) < Int/Float(2) < Str(3) < Bytes(4).
        Value::Bool(_) => Ordering::Greater,
        Value::Str(_) | Value::Bytes(_) => Ordering::Less,
        Value::Null => Ordering::Greater,
    }
}

/// `Value::total_cmp(Float(v), konst)` without constructing a `Value`.
#[inline]
fn ord_float(v: f64, konst: &Value) -> Ordering {
    match konst {
        Value::Int(k) => v.total_cmp(&(*k as f64)),
        Value::Float(k) => v.total_cmp(k),
        Value::Bool(_) => Ordering::Greater,
        Value::Str(_) | Value::Bytes(_) => Ordering::Less,
        Value::Null => Ordering::Greater,
    }
}

/// `Value::total_cmp(Str(v), konst)` without constructing a `Value`.
#[inline]
fn ord_str(v: &str, konst: &Value) -> Ordering {
    match konst {
        Value::Str(k) => v.cmp(&**k),
        Value::Bytes(_) => Ordering::Less,
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => Ordering::Greater,
    }
}

/// Can a row of `seg` pass `conjunct`, judged from the column's zone?  A
/// `=`/`<`/`<=`/`>`/`>=` constant, `BETWEEN` or `IN` list (by its hull)
/// refutes a segment whose zone lies outside it under [`Value::total_cmp`],
/// the order the kernels compare by: each row there, and each NULL, fails
/// it.  A column with no zone (all NULL) satisfies no bound.  Every other
/// shape admits.
fn zone_admits(conjunct: &Conjunct<'_>, seg: &Segment) -> bool {
    use BinaryOp::{Eq, Gt, GtEq, Lt, LtEq};
    let (col, low, high) = match *conjunct {
        Conjunct::CmpConst { col, op, konst } => match op {
            Eq => (col, Some((konst, GtEq)), Some((konst, LtEq))),
            Lt | LtEq => (col, None, Some((konst, op))),
            Gt | GtEq => (col, Some((konst, op)), None),
            _ => return true,
        },
        Conjunct::Between {
            col,
            low,
            high,
            negated: false,
        } => (col, Some((low, GtEq)), Some((high, LtEq))),
        Conjunct::InList {
            col,
            ref list,
            has_null: false,
            negated: false,
        } => {
            let lo = list.iter().min_by(|a, b| a.total_cmp(b));
            let Some((&lo, &hi)) = lo.zip(list.iter().max_by(|a, b| a.total_cmp(b))) else {
                return true;
            };
            (col, Some((lo, GtEq)), Some((hi, LtEq)))
        }
        _ => return true,
    };
    let column = seg.column(col);
    let (Some(min), Some(max)) = (column.zone_min(), column.zone_max()) else {
        return false;
    };
    // The zone's best candidate for each bound: its max for a lower one,
    // its min for an upper one.
    low.is_none_or(|(k, op)| cmp_holds(op, max.total_cmp(k)))
        && high.is_none_or(|(k, op)| cmp_holds(op, min.total_cmp(k)))
}

/// Can evaluating conjunct `e` never fail?  Columns, constants and a
/// numeric or bool column `&`/`|` a constant are total operands; a
/// comparison of them, `BETWEEN` and `IN` with constant bounds, `IS NULL`
/// and `LIKE` with a constant pattern over one, and a constant, are total
/// conjuncts.  Arithmetic, casts, calls and variables may fail.
fn is_total(e: &CompiledExpr, column_types: &[DataType]) -> bool {
    use CompiledExpr::{Between, Binary, Col, Const, InList, IsNull, LikePre};
    let konst = |e: &CompiledExpr| matches!(e, Const(_));
    let numeric =
        |ty: Option<DataType>| matches!(ty, Some(DataType::Int | DataType::Float | DataType::Bool));
    let operand = |e: &CompiledExpr| match e {
        Col(i) => *i < column_types.len(),
        Const(_) => true,
        Binary {
            op: BinaryOp::BitAnd | BinaryOp::BitOr,
            left,
            right,
        } => match (&**left, &**right) {
            (Col(i), Const(v)) | (Const(v), Col(i)) => {
                numeric(column_types.get(*i).copied()) && (v.is_null() || numeric(v.data_type()))
            }
            _ => false,
        },
        _ => false,
    };
    match e {
        Binary { op, left, right } if op.is_comparison() => operand(left) && operand(right),
        Between {
            expr, low, high, ..
        } => operand(expr) && konst(low) && konst(high),
        InList { expr, list, .. } => operand(expr) && list.iter().all(konst),
        IsNull { expr, .. } | LikePre { expr, .. } => operand(expr),
        _ => konst(e),
    }
}

/// Specialise one conjunct.  Falls back to [`Conjunct::Scalar`] whenever a
/// shape has no kernel — semantics are preserved either way.
fn build_conjunct<'a>(
    expr: &'a CompiledExpr,
    column_types: &[DataType],
    runs: Option<&[Option<usize>]>,
) -> Conjunct<'a> {
    // A kernel reads a chunk column; a column an index run does not hold
    // is read from the heap row by row, by a numeric program or the scalar
    // arm.
    let chunk_column = |i: &usize| match place(runs, *i) {
        Cell::Chunk(c) if *i < column_types.len() => Some(c),
        _ => None,
    };
    let col_ok = |i: &usize| chunk_column(i).is_some();
    let col = |i: &usize| chunk_column(i).unwrap_or(*i);
    let numeric = |sides: &[&'a CompiledExpr], test: NumTest| {
        let sides = sides
            .iter()
            .map(|e| Num::build(e, column_types, runs))
            .collect::<Option<Vec<Num<'a>>>>();
        match sides {
            Some(sides) => Conjunct::Numeric { sides, test },
            None => scalar_conjunct(expr, column_types.len(), runs),
        }
    };
    match expr {
        CompiledExpr::Binary { op, left, right } if op.is_comparison() => {
            // Normalise `const op col` to `col mirror(op) const`.
            let (col, op, konst) = match (&**left, &**right) {
                (CompiledExpr::Col(i), CompiledExpr::Const(k)) if col_ok(i) => (col(i), *op, k),
                (CompiledExpr::Const(k), CompiledExpr::Col(i)) if col_ok(i) => {
                    (col(i), op.mirror(), k)
                }
                _ => return numeric(&[left, right], NumTest::Cmp(*op)),
            };
            if konst.is_null() {
                Conjunct::AlwaysNull
            } else {
                Conjunct::CmpConst { col, op, konst }
            }
        }
        CompiledExpr::Between {
            expr: inner,
            low,
            high,
            negated,
        } => match (&**inner, &**low, &**high) {
            (CompiledExpr::Col(i), CompiledExpr::Const(lo), CompiledExpr::Const(hi))
                if col_ok(i) && !lo.is_null() && !hi.is_null() =>
            {
                Conjunct::Between {
                    col: col(i),
                    low: lo,
                    high: hi,
                    negated: *negated,
                }
            }
            _ => numeric(&[inner, low, high], NumTest::Between { negated: *negated }),
        },
        CompiledExpr::InList {
            expr: inner,
            list,
            negated,
        } => match &**inner {
            CompiledExpr::Col(i) if col_ok(i) => {
                let consts: Vec<&Value> = list
                    .iter()
                    .filter_map(|item| match item {
                        CompiledExpr::Const(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                if consts.len() != list.len() {
                    return scalar_conjunct(expr, column_types.len(), runs);
                }
                Conjunct::InList {
                    col: col(i),
                    has_null: consts.iter().any(|v| v.is_null()),
                    list: consts.into_iter().filter(|v| !v.is_null()).collect(),
                    negated: *negated,
                }
            }
            _ => scalar_conjunct(expr, column_types.len(), runs),
        },
        CompiledExpr::IsNull {
            expr: inner,
            negated,
        } => match &**inner {
            CompiledExpr::Col(i) if col_ok(i) => Conjunct::IsNull {
                col: col(i),
                negated: *negated,
            },
            _ => scalar_conjunct(expr, column_types.len(), runs),
        },
        CompiledExpr::LikePre {
            expr: inner,
            matcher,
            negated,
        } => match &**inner {
            CompiledExpr::Col(i) if col_ok(i) => Conjunct::Like {
                col: col(i),
                matcher,
                negated: *negated,
            },
            _ => scalar_conjunct(expr, column_types.len(), runs),
        },
        _ => scalar_conjunct(expr, column_types.len(), runs),
    }
}

// ---------------------------------------------------------------------------
// Numeric programs
// ---------------------------------------------------------------------------

/// The test a [`Conjunct::Numeric`] applies to its sides' lanes.
#[derive(Clone, Copy)]
enum NumTest {
    /// `left <op> right`.
    Cmp(BinaryOp),
    /// `value [NOT] BETWEEN low AND high`, three-valued.
    Between { negated: bool },
}

/// A numeric value's type, fixed when its program is built: a column's
/// declared type, `Int` for `Int op Int` under `+ - * % & |`, `Float` for
/// `/` and for anything that touches a `Float`.
#[derive(Clone, Copy, PartialEq)]
enum NumType {
    Int,
    Float,
}

/// An operator of a numeric program: `+ - * / % & |`, unary minus, or the
/// built-in `abs`, `sqrt`, `square` or `power` (normalized name).
#[derive(Clone, Copy)]
enum NumOp {
    Binary(BinaryOp),
    Neg,
    Builtin(&'static str),
}

/// One operand of a [`Conjunct::Numeric`]: arithmetic over `Int`/`Float`
/// cells and constants, computed a whole selection at a time.
struct Num<'a> {
    ty: NumType,
    node: NumNode<'a>,
}

enum NumNode<'a> {
    /// A column cell, of the program's type.
    Col(Cell),
    /// An `Int`, `Float` or NULL constant.
    Const(&'a Value),
    /// An operator over one or two operand programs.
    Apply(NumOp, Vec<Num<'a>>),
}

/// A numeric program's values over the selection, position by position:
/// in `int` or `float` by the program's type, `null` where the value is
/// NULL (the number there is meaningless and never checked).  A value the
/// same at every position — a constant's — is held once: position `i` is
/// element `i * step`, and `step` is 0.  The NULL mask steps the same way
/// on its own: a column chunk that holds no NULL has `null == [false]`
/// and `null_step` 0.
#[derive(Default)]
struct Lanes {
    int: Vec<i64>,
    float: Vec<f64>,
    null: Vec<bool>,
    step: usize,
    null_step: usize,
}

impl Lanes {
    /// Make `float` hold the lanes, converting `Int` ones as
    /// `Value::as_f64` does.
    fn floats(&mut self, ty: NumType) {
        if ty == NumType::Int {
            self.float.clear();
            self.float.extend(self.int.iter().map(|&i| i as f64));
        }
    }

    /// The element holding position `i`.
    #[inline]
    fn at(&self, i: usize) -> usize {
        i * self.step
    }

    #[inline]
    fn is_null(&self, i: usize) -> bool {
        self.null[i * self.null_step]
    }

    fn value(&self, ty: NumType, i: usize) -> Value {
        let (null, i) = (self.is_null(i), self.at(i));
        match (null, ty) {
            (true, _) => Value::Null,
            (false, NumType::Int) => Value::Int(self.int[i]),
            (false, NumType::Float) => Value::Float(self.float[i]),
        }
    }
}

/// Apply `f` to the elements of `x` and `y` (each with its step) behind
/// positions `0..len` into `out`; `f` also says whether the scalar
/// operator rejects them (overflow, a zero divisor).  Returns the first
/// such position that is not NULL in `null` (with its step).
fn zip_lanes<T: Copy>(
    out: &mut Vec<T>,
    (x, sx): (&[T], usize),
    (y, sy): (&[T], usize),
    (null, ns): (&[bool], usize),
    len: usize,
    f: impl Fn(T, T) -> (T, bool),
) -> Option<usize> {
    let mut rejected = false;
    let mut at = |i: usize, x: T, y: T| {
        let (v, r) = f(x, y);
        rejected |= r & !null[i * ns];
        v
    };
    // Lanes against a constant, and lanes against lanes, index directly.
    match (sx, sy) {
        (1, 0) => out.extend(x[..len].iter().enumerate().map(|(i, &x)| at(i, x, y[0]))),
        (1, 1) => out.extend(
            x[..len]
                .iter()
                .zip(&y[..len])
                .enumerate()
                .map(|(i, (&x, &y))| at(i, x, y)),
        ),
        _ => out.extend((0..len).map(|i| at(i, x[i * sx], y[i * sy]))),
    }
    // Rare (the statement fails): find the position again.
    let rejects = |i: &usize| !null[i * ns] && f(x[i * sx], y[i * sy]).1;
    rejected.then(|| (0..len).find(rejects)).flatten()
}

impl<'a> Num<'a> {
    /// The program of `expr`, or `None` when it reads anything but `Int`/
    /// `Float` columns and constants (`pi()` arrives folded into one),
    /// `+ - * / %`, `& |` between `Int`s, unary minus, `abs`, `sqrt`,
    /// `square` and `power`.
    fn build(
        expr: &'a CompiledExpr,
        types: &[DataType],
        runs: Option<&[Option<usize>]>,
    ) -> Option<Num<'a>> {
        use NumType::{Float, Int};
        let num = |e: &'a CompiledExpr| Num::build(e, types, runs);
        let (ty, node) = match expr {
            CompiledExpr::Col(i) => match types.get(*i)? {
                DataType::Int => (Int, NumNode::Col(place(runs, *i))),
                DataType::Float => (Float, NumNode::Col(place(runs, *i))),
                _ => return None,
            },
            CompiledExpr::Const(v @ (Value::Int(_) | Value::Null)) => (Int, NumNode::Const(v)),
            CompiledExpr::Const(v @ Value::Float(_)) => (Float, NumNode::Const(v)),
            CompiledExpr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                let arg = num(expr)?;
                (arg.ty, NumNode::Apply(NumOp::Neg, vec![arg]))
            }
            CompiledExpr::Binary { op, left, right } => {
                let (l, r) = (num(left)?, num(right)?);
                let ints = l.ty == Int && r.ty == Int;
                let ty = match op {
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Mod if ints => Int,
                    BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Mod => Float,
                    BinaryOp::Div => Float,
                    BinaryOp::BitAnd | BinaryOp::BitOr if ints => Int,
                    _ => return None,
                };
                (ty, NumNode::Apply(NumOp::Binary(*op), vec![l, r]))
            }
            CompiledExpr::Call {
                name,
                builtin: true,
                args,
            } => {
                let args = args.iter().map(num).collect::<Option<Vec<Num>>>()?;
                let (name, ty) = match (name.as_str(), &args[..]) {
                    ("abs", [x]) => ("abs", x.ty),
                    ("sqrt", [_]) => ("sqrt", Float),
                    ("square", [_]) => ("square", Float),
                    ("power", [_, _]) => ("power", Float),
                    _ => return None,
                };
                (ty, NumNode::Apply(NumOp::Builtin(name), args))
            }
            _ => return None,
        };
        Some(Num { ty, node })
    }

    /// Compute the program over the offsets `sel` of `chunk`, into lanes
    /// taken from `pool`.  Fails iff row-at-a-time evaluation fails on one
    /// of the offsets.
    fn eval(
        &self,
        chunk: Chunk<'_>,
        sel: &[u32],
        pool: &mut Vec<Lanes>,
    ) -> Result<Lanes, SqlError> {
        let mut out = pool.pop().unwrap_or_default();
        out.int.clear();
        out.float.clear();
        out.null.clear();
        let mismatch = || SqlError::Execution("a numeric column changed type".into());
        match &self.node {
            NumNode::Const(v) => {
                (out.step, out.null_step) = (0, 0);
                out.null.push(v.is_null());
                match v {
                    Value::Float(k) => out.float.push(*k),
                    k => out.int.push(k.as_i64().unwrap_or(0)),
                }
            }
            NumNode::Col(Cell::Chunk(c)) => {
                let column = chunk.column(*c);
                let valid = column.validity();
                (out.step, out.null_step) = (1, usize::from(column.null_count() > 0));
                match out.null_step {
                    0 => out.null.push(false),
                    _ => out.null.extend(sel.iter().map(|&off| !valid[off as usize])),
                }
                match column.data() {
                    ColumnData::Int(v) => out.int.extend(sel.iter().map(|&off| v[off as usize])),
                    ColumnData::Float(v) => {
                        out.float.extend(sel.iter().map(|&off| v[off as usize]))
                    }
                    _ => return Err(mismatch()),
                }
            }
            NumNode::Col(Cell::Heap(c)) => {
                (out.step, out.null_step) = (1, 1);
                for &off in sel {
                    // A row deleted under the run reads NULL, as in the
                    // scalar arm; the gather drops it.
                    let slot = chunk
                        .heap(off)
                        .map(|(seg, at)| (seg.column(*c), at))
                        .filter(|(column, at)| column.validity()[*at]);
                    out.null.push(slot.is_none());
                    match (slot.map(|(column, at)| (column.data(), at)), self.ty) {
                        (Some((ColumnData::Int(v), at)), NumType::Int) => out.int.push(v[at]),
                        (Some((ColumnData::Float(v), at)), NumType::Float) => out.float.push(v[at]),
                        (None, NumType::Int) => out.int.push(0),
                        (None, NumType::Float) => out.float.push(0.0),
                        _ => return Err(mismatch()),
                    }
                }
            }
            NumNode::Apply(op, args) => {
                let mut lanes: [Lanes; 2] = Default::default();
                for (l, arg) in lanes.iter_mut().zip(args) {
                    *l = arg.eval(chunk, sel, pool)?;
                }
                let lanes = &mut lanes[..args.len()];
                // Constants in, one element out (none for no position).
                out.step = lanes.iter().map(|l| l.step).max().unwrap_or(0);
                out.null_step = lanes.iter().map(|l| l.null_step).max().unwrap_or(0);
                let len = sel.len().min(if out.step == 0 { 1 } else { usize::MAX });
                self.apply(*op, args, lanes, len, &mut out)?;
                pool.extend(lanes.iter_mut().map(std::mem::take));
            }
        }
        Ok(out)
    }

    /// `out = op(lanes)` over `len` elements: NULL wherever an operand is
    /// NULL, otherwise the operator's value — or, on the first lane the
    /// scalar operator rejects, that operator's error.
    fn apply(
        &self,
        op: NumOp,
        args: &[Num<'_>],
        lanes: &mut [Lanes],
        len: usize,
        out: &mut Lanes,
    ) -> Result<(), SqlError> {
        use BinaryOp::{Add, BitAnd, BitOr, Div, Mod, Mul, Sub};
        // A unary operator reads its one operand as both `x` and `y`.
        let b = lanes.len() - 1;
        let (sx, sy) = (lanes[0].step, lanes[b].step);
        let (xn, yn) = (&lanes[0], &lanes[b]);
        let nulls = if out.null_step == 0 { 1 } else { len };
        out.null
            .extend((0..nulls).map(|i| xn.is_null(i) | yn.is_null(i)));
        // One `zip_lanes` instance per operator, so each inlines its `f`.
        let bad = match self.ty {
            NumType::Int => {
                let (x, y) = ((&lanes[0].int[..], sx), (&lanes[b].int[..], sy));
                let (out, null) = (&mut out.int, (&out.null[..], out.null_step));
                match op {
                    NumOp::Binary(Add) => zip_lanes(out, x, y, null, len, i64::overflowing_add),
                    NumOp::Binary(Sub) => zip_lanes(out, x, y, null, len, i64::overflowing_sub),
                    NumOp::Binary(Mul) => zip_lanes(out, x, y, null, len, i64::overflowing_mul),
                    NumOp::Binary(Mod) => zip_lanes(out, x, y, null, len, |x, y| {
                        x.checked_rem(y).map_or((0, true), |r| (r, false))
                    }),
                    NumOp::Binary(BitAnd) => zip_lanes(out, x, y, null, len, |x, y| (x & y, false)),
                    NumOp::Binary(BitOr) => zip_lanes(out, x, y, null, len, |x, y| (x | y, false)),
                    NumOp::Neg => zip_lanes(out, x, y, null, len, |x, _| x.overflowing_neg()),
                    // `abs`, the one Int-typed built-in.
                    _ => zip_lanes(out, x, y, null, len, |x, _| x.overflowing_abs()),
                }
            }
            NumType::Float => {
                for (l, arg) in lanes.iter_mut().zip(args) {
                    l.floats(arg.ty);
                }
                let (x, y) = ((&lanes[0].float[..], sx), (&lanes[b].float[..], sy));
                let (out, null) = (&mut out.float, (&out.null[..], out.null_step));
                match op {
                    NumOp::Binary(Add) => zip_lanes(out, x, y, null, len, |x, y| (x + y, false)),
                    NumOp::Binary(Sub) => zip_lanes(out, x, y, null, len, |x, y| (x - y, false)),
                    NumOp::Binary(Mul) => zip_lanes(out, x, y, null, len, |x, y| (x * y, false)),
                    NumOp::Binary(Div) => zip_lanes(out, x, y, null, len, |x, y| (x / y, y == 0.0)),
                    NumOp::Binary(Mod) => zip_lanes(out, x, y, null, len, |x, y| (x % y, y == 0.0)),
                    NumOp::Neg => zip_lanes(out, x, y, null, len, |x, _| (-x, false)),
                    NumOp::Builtin("power") => {
                        zip_lanes(out, x, y, null, len, |x, y| (x.powf(y), false))
                    }
                    NumOp::Builtin("abs") => {
                        zip_lanes(out, x, y, null, len, |x, _| (x.abs(), false))
                    }
                    NumOp::Builtin("sqrt") => {
                        zip_lanes(out, x, y, null, len, |x, _| (x.sqrt(), false))
                    }
                    // `square`, the last Float-typed operator.
                    _ => zip_lanes(out, x, y, null, len, |x, _| (x * x, false)),
                }
            }
        };
        let Some(i) = bad else { return Ok(()) };
        // Row-at-a-time evaluation of that lane, for the error it raises.
        let mut v: Vec<Value> = args
            .iter()
            .zip(&*lanes)
            .map(|(a, l)| l.value(a.ty, i))
            .collect();
        let scalar = match op {
            NumOp::Binary(op) => apply_binary(&v[0], op, &v[b]),
            NumOp::Neg => apply_unary(UnaryOp::Neg, v.swap_remove(0)),
            NumOp::Builtin(name) => eval_builtin_normalized(name, &v).unwrap_or(Ok(Value::Null)),
        };
        Err(scalar
            .err()
            .unwrap_or_else(|| SqlError::Execution("numeric kernel rejected a valid lane".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::compile::compile;
    use crate::expr::RowSchema;
    use crate::functions::FunctionRegistry;
    use crate::parser::parse_select;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use skyserver_storage::DataType::{Bool, Float, Int, Str};
    use skyserver_storage::{BTreeIndex, ColumnDef, IndexDef, TableSchema};

    const NAMES: [&str; 6] = ["id", "a", "f", "s", "flags", "b"];
    const TYPES: [DataType; 6] = [Int, Int, Float, Str, Int, Bool];

    /// One random conjunct: every kernel shape over every column type,
    /// numeric programs over the `Int`/`Float` columns (zeros, negatives,
    /// `-0.0`, NULLs and the `i64` extremes reach them), and shapes that
    /// take the scalar arm (disjunction, negation, non-numeric operands).
    fn atom(rng: &mut ChaCha8Rng) -> String {
        let mut pick = |of: &[&str]| of[rng.gen_range(0..of.len())].to_string();
        let (c, c2) = (pick(&NAMES), pick(&NAMES));
        // Mostly numeric columns; `s` and `b` keep the scalar arm covered.
        let numeric = ["a", "f", "a", "f", "id", "flags", "s", "b"];
        let (n, n2) = (pick(&numeric), pick(&numeric));
        let consts = ["null", "0", "3", "12", "-2.5", "7.0", "'a'", "'ab'", "''"];
        let (k, k2) = (pick(&consts), pick(&consts));
        let numeric_consts = [
            "0",
            "-3",
            "2.5",
            "-0.0",
            "null",
            "9223372036854775807",
            "(-9223372036854775807 - 1)",
        ];
        let (nk, nk2) = (pick(&numeric_consts), pick(&numeric_consts));
        let op = pick(&["=", "<>", "<", "<=", ">", ">="]);
        let not = pick(&["", "", "not "]);
        let (like, bit) = (pick(&["a%", "%b", "_", "%", "%1%"]), pick(&["&", "|"]));
        match rng.gen_range(0..22usize) {
            0 => format!("{c} {op} {k}"),
            1 => format!("{k} {op} {c}"),
            2 => format!("{c} {not}between {k} and {k2}"),
            3 => format!("{c} {not}in ({k}, {k2}, null)"),
            4 => format!("{c} is {not}null"),
            5 => format!("{c} {not}like '{like}'"),
            6 => format!("({c} {bit} {k}) {op} {k2}"),
            7 => format!("{c} % {k} {op} {k2}"),
            8 => format!("{c} {op} {c2}"),
            9 => format!("{n} + {n2} {op} {nk}"),
            10 => format!("{n} * {nk} - {n2} {op} {nk2}"),
            11 => format!("{n} / {n2} {op} {nk}"),
            12 => format!("power({n}, 2) {op} {nk}"),
            13 => format!("sqrt({n}) {op} {nk}"),
            14 => format!("abs({n} - {n2}) {op} {nk}"),
            15 => format!("-{n} {op} {n2}"),
            16 => format!("{n} {not}between {n2} and {nk}"),
            17 => format!("({n} {bit} {nk}) {op} {n2} % {nk2}"),
            18 => format!("{n} % {n2} {op} {nk}"),
            19 => format!("{n} / {nk} {op} {n2}"),
            20 => format!("({} or {})", atom(rng), atom(rng)),
            _ => format!("not ({})", atom(rng)),
        }
    }

    /// A random table of `n_rows` rows over [`NAMES`]: every column but
    /// `id` NULL one time in six, `a` sometimes an `i64` extreme, `f`
    /// sometimes a signed zero, one row in nine deleted.
    fn random_table(rng: &mut ChaCha8Rng, n_rows: usize) -> Table {
        let columns = NAMES
            .iter()
            .zip(TYPES)
            .map(|(n, ty)| ColumnDef::new(*n, ty).nullable());
        let mut table = Table::new("t", TableSchema::new(columns.collect()));
        for i in 0..n_rows {
            let a = match rng.gen_range(0..40usize) {
                0 => i64::MAX,
                1 => i64::MIN,
                _ => rng.gen_range(-5i64..50),
            };
            let f = match rng.gen_range(0..12usize) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range(-10.0f64..10.0),
            };
            let mut row = vec![
                Value::Int(i as i64),
                Value::Int(a),
                Value::Float(f),
                Value::str(["", "a", "ab", "b1", "N_"][rng.gen_range(0..5usize)]),
                Value::Int(rng.gen_range(0i64..16)),
                Value::Bool(rng.gen_range(0..2usize) == 0),
            ];
            for cell in row
                .iter_mut()
                .skip(1)
                .filter(|_| rng.gen_range(0..6usize) == 0)
            {
                *cell = Value::Null;
            }
            table.insert(row, 0).unwrap();
        }
        for id in (0..n_rows).filter(|_| rng.gen_range(0..9usize) == 0) {
            table.delete(id);
        }
        table
    }

    /// A random scan: up to three conjuncts over storage columns, a row
    /// layout that is a subset of them in any order, and sometimes a
    /// projection over the layout.
    struct Scan {
        sql: String,
        filter: Option<CompiledExpr>,
        layout: Vec<usize>,
        project: Option<Vec<CompiledExpr>>,
    }

    impl Scan {
        fn emit(&self) -> Emit<'_> {
            self.project.as_deref().map_or(Emit::Row, Emit::Project)
        }
    }

    fn random_scan(rng: &mut ChaCha8Rng, functions: &FunctionRegistry) -> Scan {
        let program_of = |expr: &str, schema: &RowSchema| {
            let stmt = parse_select(&format!("select * from t where {expr}")).unwrap();
            compile(&stmt.selection.unwrap(), schema, functions).unwrap()
        };
        let sql: Vec<String> = (0..rng.gen_range(0..4usize)).map(|_| atom(rng)).collect();
        let sql = sql.join(" and ");
        let filter =
            (!sql.is_empty()).then(|| program_of(&sql, &RowSchema::for_table(None, &NAMES)));
        let layout: Vec<usize> = [
            vec![],
            vec![3],
            vec![0, 1, 3],
            vec![5, 3, 1, 0],
            (0..6).collect(),
        ][rng.gen_range(0..5usize)]
        .clone();
        let names: Vec<&str> = layout.iter().map(|&c| NAMES[c]).collect();
        let row_schema = RowSchema::for_table(None, &names);
        let project = (layout.len() >= 3 && rng.gen_range(0..2usize) == 0).then(|| {
            vec![
                CompiledExpr::Col(2),
                program_of("a + 1", &row_schema),
                CompiledExpr::Col(0),
            ]
        });
        Scan {
            sql,
            filter,
            layout,
            project,
        }
    }

    /// Run `program` over offsets `base..end` of `chunk` and hold it to
    /// row-at-a-time evaluation over `candidates`, the full storage rows
    /// of the chunk's candidate offsets in order: the same rows kept and
    /// projected, or both fail.
    fn check_chunk(
        program: &BatchProgram<'_>,
        scan: &Scan,
        chunk: Chunk<'_>,
        (base, end): (usize, usize),
        candidates: &[Vec<Value>],
        ctx: &EvalContext<'_>,
    ) {
        let mut scratch = BatchScratch::default();
        let live = program.begin_chunk(chunk, base, end, &mut scratch);
        assert_eq!(live as usize, candidates.len());
        let mut batch = RowBlock::new(scan.emit().width(scan.layout.len()));
        let batch = program
            .filter_chunk(chunk, &mut scratch, ctx)
            .and_then(|()| program.emit_chunk(chunk, &mut scratch, ctx, &mut batch))
            .map(|_| batch.into_rows());
        let one_by_one = (|| {
            let mut rows = Vec::new();
            for row in candidates {
                if match &scan.filter {
                    Some(f) => f.eval(row, ctx)?.is_truthy(),
                    None => true,
                } {
                    let row: Vec<Value> = scan.layout.iter().map(|&c| row[c].clone()).collect();
                    rows.push(match &scan.project {
                        Some(ps) => ps
                            .iter()
                            .map(|p| p.eval(&row, ctx))
                            .collect::<Result<_, _>>()?,
                        None => row,
                    });
                }
            }
            Ok::<Vec<Vec<Value>>, SqlError>(rows)
        })();
        match (batch, one_by_one) {
            (Ok(b), Ok(r)) => assert_eq!(format!("{b:?}"), format!("{r:?}"), "{}", &scan.sql),
            (Err(_), Err(_)) => {}
            (b, r) => panic!("{:?} vs {:?} for {}", b.err(), r.err(), &scan.sql),
        }
    }

    /// Arithmetic conjuncts over `Int`/`Float` cells build numeric
    /// programs — on a run too, where uncovered columns are heap leaves —
    /// while non-numeric operands keep the scalar arm.
    #[test]
    fn arithmetic_conjuncts_build_numeric_programs() {
        let functions = FunctionRegistry::new();
        let schema = RowSchema::for_table(None, &NAMES);
        let conjunct = |sql: &str, runs: Option<&[Option<usize>]>| {
            let stmt = parse_select(&format!("select * from t where {sql}")).unwrap();
            let filter = compile(&stmt.selection.unwrap(), &schema, &functions).unwrap();
            let program =
                BatchProgram::build(Some(&filter), &[], Emit::Row, TYPES.to_vec(), runs, None);
            matches!(program.conjuncts[..], [Conjunct::Numeric { .. }])
        };
        // The run holds a and f; id and flags are read from the heap.
        let runs = [None, Some(0), Some(1), None, None, None];
        for sql in [
            "a + f > 1",
            "(flags & 4) = 0",
            "power(a, 2) + sqrt(f) between 0 and id",
            "-abs(a % 3) <> square(f) / 2",
            "f < a * pi()",
            "id not between null and 5",
            "a < flags",
        ] {
            assert!(conjunct(sql, None), "{sql} on segments");
            assert!(conjunct(sql, Some(&runs)), "{sql} on runs");
        }
        for sql in [
            "a + 1 = 'x'",
            "b = a",
            "(f & 1) = 0",
            "a + @v > 0",
            "floor(f) > 0",
        ] {
            assert!(!conjunct(sql, None), "{sql} must stay scalar");
        }
    }

    /// Hold `scan` to row-at-a-time evaluation on every chunk of `table`'s
    /// heap segments.
    fn agree_on_segments(table: &Table, scan: &Scan) {
        let (functions, variables) = (FunctionRegistry::new(), std::collections::HashMap::new());
        let ctx = EvalContext {
            variables: &variables,
            functions: &functions,
            aggregates: None,
        };
        let program = BatchProgram::build(
            scan.filter.as_ref(),
            &scan.layout,
            scan.emit(),
            TYPES.to_vec(),
            None,
            None,
        );
        for (s, seg) in table.segments().iter().enumerate() {
            let chunk = Chunk::Segment(seg, s * BATCH_ROWS);
            for base in (0..seg.slot_count()).step_by(BATCH_ROWS) {
                let end = (base + BATCH_ROWS).min(seg.slot_count());
                let candidates: Vec<Vec<Value>> = (base..end)
                    .filter(|&off| seg.is_live(off))
                    .map(|off| (0..TYPES.len()).map(|c| seg.value(off, c)).collect())
                    .collect();
                check_chunk(&program, scan, chunk, (base, end), &candidates, &ctx);
            }
        }
    }

    /// The same over the run slices of an index covering a, f and s (in
    /// the order s, a, f): kernels read the covered columns from the run,
    /// numeric programs and the scalar arm read id, flags and b from the
    /// heap by row id.  The range cuts runs mid-way, and each slice is
    /// also run in two pieces split at a random entry.
    fn agree_on_runs(table: &Table, scan: &Scan, rng: &mut ChaCha8Rng) {
        let index = BTreeIndex::build(IndexDef::new("ix", "t", &["s", "a"]).include(&["f"]), table)
            .unwrap();
        let mut runs = vec![None; NAMES.len()];
        index
            .covered_ordinals()
            .enumerate()
            .for_each(|(r, c)| runs[c] = Some(r));
        let (functions, variables) = (FunctionRegistry::new(), std::collections::HashMap::new());
        let ctx = EvalContext {
            variables: &variables,
            functions: &functions,
            aggregates: None,
        };
        let program = BatchProgram::build(
            scan.filter.as_ref(),
            &scan.layout,
            scan.emit(),
            TYPES.to_vec(),
            Some(&runs),
            None,
        );
        let keys = ["", "a", "ab", "b1", "N_"];
        let bound = |rng: &mut ChaCha8Rng| match rng.gen_range(0..7usize) {
            0 => vec![],
            1 => vec![Value::Null],
            k => vec![Value::str(keys[k - 2])],
        };
        let (lo, hi) = (bound(rng), bound(rng));
        for (run, range) in index.range(&lo, &hi).slices() {
            let chunk = Chunk::Run(run, table);
            let split = rng.gen_range(range.start..range.end + 1);
            for (base, end) in [
                (range.start, range.end),
                (range.start, split),
                (split, range.end),
            ] {
                let candidates: Vec<Vec<Value>> = run.row_ids()[base..end]
                    .iter()
                    .map(|&id| {
                        (0..TYPES.len())
                            .map(|c| table.get_cell(id, c).unwrap())
                            .collect()
                    })
                    .collect();
                check_chunk(&program, scan, chunk, (base, end), &candidates, &ctx);
            }
        }
    }

    /// Zero divisors, NULL operands, signed zeros and the `i64` extremes at
    /// fixed points of a fixed table: the numeric programs fail, and read
    /// NULL, exactly where row-at-a-time evaluation does.
    #[test]
    fn arithmetic_edges_agree_with_row_at_a_time_eval() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let table = random_table(&mut rng, 2100);
        let functions = FunctionRegistry::new();
        let schema = RowSchema::for_table(None, &NAMES);
        for sql in [
            "f / a > 0",
            "id / flags < 100",
            "a % flags = 1",
            "f % a <> 0",
            "a + 1 > 0",
            "f * 0 = 0",
            "-f < 0",
            "a * 2 < 5",
            "abs(a) >= 0",
            "a - 1 < 0",
            "sqrt(f) < 2 and power(a, 2) >= 0",
            "flags + a not between null and 20",
        ] {
            let stmt = parse_select(&format!("select * from t where {sql}")).unwrap();
            let filter = compile(&stmt.selection.unwrap(), &schema, &functions).unwrap();
            let scan = Scan {
                sql: sql.to_string(),
                filter: Some(filter),
                layout: vec![0, 1, 2],
                project: None,
            };
            agree_on_segments(&table, &scan);
            agree_on_runs(&table, &scan, &mut rng);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Chunk by chunk, `BatchProgram` keeps and projects exactly the rows
        /// `CompiledExpr::eval` accepts one at a time — or both fail.
        #[test]
        fn batch_program_agrees_with_row_at_a_time_eval(seed in any::<u64>(), size in 0usize..8) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Sizes around the batch and segment boundaries.
            let table = random_table(&mut rng, [1, 700, 1023, 1024, 1025, 2048, 4096, 4200][size]);
            let scan = random_scan(&mut rng, &FunctionRegistry::new());
            agree_on_segments(&table, &scan);
        }

        /// The same over index run slices.
        #[test]
        fn batch_program_over_run_slices_agrees_with_row_at_a_time_eval(seed in any::<u64>(), size in 0usize..5) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let table = random_table(&mut rng, [1, 700, 1025, 2048, 4200][size]);
            let scan = random_scan(&mut rng, &FunctionRegistry::new());
            agree_on_runs(&table, &scan, &mut rng);
        }
    }
}
