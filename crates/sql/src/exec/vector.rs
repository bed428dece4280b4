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
//! conjunct over an uncovered column takes the scalar arm and reads its
//! cells from the heap by row id, and a survivor gathers only its uncovered
//! cells from the heap.  §9.1.3's "tag table", scanned in place of the base
//! table.
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

use crate::ast::BinaryOp;
use crate::error::SqlError;
use crate::exec::compile::{CompiledExpr, LikeMatcher};
use crate::expr::EvalContext;
use skyserver_storage::{Column, ColumnData, DataType, RowId, Run, Segment, Table, Value};
use std::cmp::Ordering;

/// Rows per processed batch: one storage segment, one index run.
pub const BATCH_ROWS: usize = 1024;

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

/// How one output column of the gather stage is produced.
enum Gather<'a> {
    /// Direct fetch of one cell — no scratch row needed.
    Cell(Cell),
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
    /// `col [NOT] IN (consts)` — NULL list members can never match and are
    /// dropped at build time.
    InList {
        col: usize,
        list: Vec<&'a Value>,
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
    /// `(col & mask) <op> const` / `(col | mask)` — the SkyServer flag
    /// idiom, specialised for Int columns.
    FlagsCmp {
        col: usize,
        mask: i64,
        or: bool,
        op: BinaryOp,
        konst: &'a Value,
    },
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

/// Reusable per-scan buffers (one per worker thread).
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
    /// Emptied rows the sink handed back, refilled before new ones are
    /// allocated.
    spare: Vec<Vec<Value>>,
}

impl BatchScratch {
    /// Chunk offsets of the current chunk's accepted rows, ascending —
    /// parallel to the rows [`BatchProgram::emit_chunk`] appends.
    pub fn selected(&self) -> &[u32] {
        &self.sel
    }

    /// Where the sink returns the emitted rows it did not keep
    /// (`Sink::absorb`).
    pub fn spare_rows(&mut self) -> &mut Vec<Vec<Value>> {
        &mut self.spare
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
    gather: Vec<Gather<'a>>,
    /// Row ordinal → storage ordinal.
    layout: &'a [usize],
    /// Storage ordinal → run ordinal, on index runs.
    runs: Option<&'a [Option<usize>]>,
    /// Sorted, deduped **row** ordinals read by the [`Gather::Eval`]
    /// projections — the only cells the gather stage loads into the
    /// scratch row — with where each is read.
    eval_cols: Vec<(usize, Cell)>,
    /// Does the gather read a heap cell (an uncovered column of a run)?
    gathers_heap: bool,
    column_types: Vec<DataType>,
}

impl<'a> BatchProgram<'a> {
    /// Specialise `filter` (storage ordinals) and `project` (row ordinals
    /// over `layout`) against a table with the given column types; with no
    /// projection the scan emits the layout row itself.  `runs` is the run
    /// map when the chunks are index run slices, `None` for heap segments.
    /// Never fails: shapes without a kernel become scalar-fallback
    /// conjuncts with identical semantics.  Every `layout` entry must be a
    /// valid storage ordinal (the executor checks before building).
    pub fn build(
        filter: Option<&'a CompiledExpr>,
        layout: &'a [usize],
        project: Option<&'a [CompiledExpr]>,
        column_types: Vec<DataType>,
        runs: Option<&'a [Option<usize>]>,
    ) -> BatchProgram<'a> {
        let place = |c: usize| place(runs, c);
        let mut conjuncts = Vec::new();
        if let Some(f) = filter {
            let items: Vec<&CompiledExpr> = match f {
                CompiledExpr::And(items) => items.iter().collect(),
                other => vec![other],
            };
            for item in items {
                conjuncts.push(build_conjunct(item, &column_types, runs));
            }
        }
        let gather: Vec<Gather<'a>> = match project {
            None => layout.iter().map(|&c| Gather::Cell(place(c))).collect(),
            Some(programs) => programs
                .iter()
                .map(|p| match p {
                    CompiledExpr::Col(i) if *i < layout.len() => Gather::Cell(place(layout[*i])),
                    other => Gather::Eval(other),
                })
                .collect(),
        };
        let mut read = Vec::new();
        for g in &gather {
            if let Gather::Eval(p) = g {
                p.collect_columns(&mut read);
            }
        }
        read.sort_unstable();
        read.dedup();
        let eval_cols: Vec<(usize, Cell)> = read
            .into_iter()
            .filter_map(|i| layout.get(i).map(|&c| (i, place(c))))
            .collect();
        let heap_cell = |cell: &Cell| matches!(cell, Cell::Heap(_));
        let gathers_heap = eval_cols.iter().any(|(_, cell)| heap_cell(cell))
            || gather
                .iter()
                .any(|g| matches!(g, Gather::Cell(cell) if heap_cell(cell)));
        BatchProgram {
            conjuncts,
            gather,
            layout,
            runs,
            eval_cols,
            gathers_heap,
            column_types,
        }
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

    /// Run every filter conjunct over the current selection, leaving only
    /// accepted offsets in `scratch.sel`.
    pub fn filter_chunk(
        &self,
        chunk: Chunk<'_>,
        scratch: &mut BatchScratch,
        ctx: &EvalContext<'_>,
    ) -> Result<(), SqlError> {
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
        let Some(&c) = self.layout.get(key) else {
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
                retain(scratch, |off, _| {
                    Tri::of_bool(column.cmp_value(off as usize, bound) != after)
                });
            }
            // A dead row stays: the gather drops it.
            Cell::Heap(c) => retain(scratch, |off, _| {
                Tri::of_bool(
                    chunk
                        .heap(off)
                        .is_none_or(|(seg, at)| seg.column(c).cmp_value(at, bound) != after),
                )
            }),
        }
    }

    /// Materialize the accepted rows of the current selection into `out`,
    /// dropping from the selection a run entry whose heap row is gone.
    /// Returns the payload bytes of the heap cells read for uncovered
    /// columns (always 0 on a segment).
    pub fn emit_chunk(
        &self,
        chunk: Chunk<'_>,
        scratch: &mut BatchScratch,
        ctx: &EvalContext<'_>,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<u64, SqlError> {
        if !self.eval_cols.is_empty() {
            // Layout-wide (projections address row ordinals) but only the
            // cells the Eval projections read are loaded per row.
            scratch.row.clear();
            scratch.row.resize(self.layout.len(), Value::Null);
        }
        let mut heap_bytes = 0u64;
        let mut kept = 0usize;
        for i in 0..scratch.sel.len() {
            let off = scratch.sel[i];
            let heap = match self.gathers_heap {
                false => None,
                true => match chunk.heap(off) {
                    Some(slot) => Some(slot),
                    None => continue,
                },
            };
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
            let mut row = scratch.spare.pop().unwrap_or_default();
            row.reserve(self.gather.len());
            for g in &self.gather {
                row.push(match *g {
                    Gather::Cell(cell) => read(cell),
                    Gather::Eval(p) => p.eval(&scratch.row, ctx)?,
                });
            }
            out.push(row);
            scratch.sel[kept] = off;
            kept += 1;
        }
        scratch.sel.truncate(kept);
        scratch.nulls.truncate(kept);
        Ok(heap_bytes)
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
                retain(scratch, |off, _| {
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
                    ColumnData::Int(ints) => retain(scratch, |off, _| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let v = ints[off];
                        let within = ord_int(v, low) != Ordering::Less
                            && ord_int(v, high) != Ordering::Greater;
                        Tri::of_bool(within != *negated)
                    }),
                    ColumnData::Float(floats) => retain(scratch, |off, _| {
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
            Conjunct::InList { col, list, negated } => {
                let column = chunk.column(*col);
                let validity = column.validity();
                match column.data() {
                    ColumnData::Int(ints) => retain(scratch, |off, _| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let v = ints[off];
                        let found = list.iter().any(|k| ord_int(v, k) == Ordering::Equal);
                        Tri::of_bool(found != *negated)
                    }),
                    ColumnData::Float(floats) => retain(scratch, |off, _| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let v = floats[off];
                        let found = list.iter().any(|k| ord_float(v, k) == Ordering::Equal);
                        Tri::of_bool(found != *negated)
                    }),
                    ColumnData::Str { dict, codes } => {
                        str_kernel(scratch, validity, dict, codes, |s| {
                            let found = list.iter().any(|k| ord_str(s, k) == Ordering::Equal);
                            Tri::of_bool(found != *negated)
                        });
                    }
                    _ => retain_generic(scratch, column, |v| {
                        if v.is_null() {
                            return Tri::Null;
                        }
                        let found = list.iter().any(|k| v.sql_eq(k));
                        Tri::of_bool(found != *negated)
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
            Conjunct::FlagsCmp {
                col,
                mask,
                or,
                op,
                konst,
            } => {
                let column = chunk.column(*col);
                let validity = column.validity();
                match column.data() {
                    ColumnData::Int(ints) => retain(scratch, |off, _| {
                        let off = off as usize;
                        if !validity[off] {
                            return Tri::Null;
                        }
                        let masked = if *or {
                            ints[off] | mask
                        } else {
                            ints[off] & mask
                        };
                        Tri::of_bool(cmp_holds(*op, ord_int(masked, konst), |a| {
                            sql_eq_int(a, konst)
                        }))
                    }),
                    // Build guards on DataType::Int, but a segment could be
                    // empty of data before the first insert; fall back.
                    _ => retain_generic(scratch, column, |v| {
                        if v.is_null() {
                            return Tri::Null;
                        }
                        let Some(l) = v.as_i64() else {
                            return Tri::False; // unreachable for Int columns
                        };
                        let masked = if *or { l | mask } else { l & mask };
                        Tri::of_bool(cmp_holds(*op, ord_int(masked, konst), |a| {
                            sql_eq_int(a, konst)
                        }))
                    }),
                }
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
                retain(scratch, |off, _| {
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
        ColumnData::Int(ints) => retain(scratch, |off, _| {
            let off = off as usize;
            if !validity[off] {
                return Tri::Null;
            }
            let v = ints[off];
            Tri::of_bool(cmp_holds(op, ord_int(v, konst), |a| sql_eq_int(a, konst)))
        }),
        ColumnData::Float(floats) => retain(scratch, |off, _| {
            let off = off as usize;
            if !validity[off] {
                return Tri::Null;
            }
            let v = floats[off];
            Tri::of_bool(cmp_holds(op, ord_float(v, konst), |a| {
                sql_eq_float(a, konst)
            }))
        }),
        ColumnData::Str { dict, codes } => {
            str_kernel(scratch, validity, dict, codes, |s| {
                Tri::of_bool(cmp_holds(op, ord_str(s, konst), |a| sql_eq_str(a, konst)))
            });
        }
        _ => retain_generic(scratch, column, |v| {
            if v.is_null() {
                return Tri::Null;
            }
            let holds = match op {
                BinaryOp::Eq => v.sql_eq(konst),
                BinaryOp::NotEq => !v.sql_eq(konst),
                BinaryOp::Lt => v.total_cmp(konst) == Ordering::Less,
                BinaryOp::LtEq => v.total_cmp(konst) != Ordering::Greater,
                BinaryOp::Gt => v.total_cmp(konst) == Ordering::Greater,
                BinaryOp::GtEq => v.total_cmp(konst) != Ordering::Less,
                // skylint: allow(no-panic) compile_predicate only builds CmpConst from comparison ops
                _ => unreachable!("only comparisons build CmpConst"),
            };
            Tri::of_bool(holds)
        }),
    }
}

/// Run `f` over the selection, keeping True rows, keeping-and-flagging Null
/// rows, dropping False rows.  `f` gets `(offset, already_flagged)`.
#[inline]
fn retain(scratch: &mut BatchScratch, mut f: impl FnMut(u32, bool) -> Tri) {
    let mut kept = 0usize;
    for i in 0..scratch.sel.len() {
        let off = scratch.sel[i];
        let flagged = scratch.nulls[i];
        match f(off, flagged) {
            Tri::False => {}
            tri => {
                scratch.sel[kept] = off;
                scratch.nulls[kept] = flagged || tri == Tri::Null;
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
    retain(scratch, |off, _| {
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
        retain(scratch, |off, _| {
            let off = off as usize;
            if !validity[off] {
                Tri::Null
            } else {
                answers[codes[off] as usize]
            }
        });
        scratch.dict = answers;
    } else {
        retain(scratch, |off, _| {
            let off = off as usize;
            if !validity[off] {
                Tri::Null
            } else {
                pred(&dict[codes[off] as usize])
            }
        });
    }
}

/// Does `op` hold given the [`Value::total_cmp`] ordering?  `Eq`/`NotEq`
/// route through `eq` because SQL equality and total ordering agree only on
/// non-NULL values (which is all a kernel ever passes).
#[inline]
fn cmp_holds(op: BinaryOp, ord: Ordering, eq: impl Fn(Ordering) -> bool) -> bool {
    match op {
        BinaryOp::Eq => eq(ord),
        BinaryOp::NotEq => !eq(ord),
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        // skylint: allow(no-panic) callers dispatch on comparison ops before calling cmp_holds
        _ => unreachable!("only comparisons reach cmp_holds"),
    }
}

#[inline]
fn sql_eq_int(ord: Ordering, konst: &Value) -> bool {
    // sql_eq == (total_cmp == Equal) for non-NULL operands; konst is
    // non-NULL by construction.
    debug_assert!(!konst.is_null());
    ord == Ordering::Equal
}

#[inline]
fn sql_eq_float(ord: Ordering, konst: &Value) -> bool {
    debug_assert!(!konst.is_null());
    ord == Ordering::Equal
}

#[inline]
fn sql_eq_str(ord: Ordering, konst: &Value) -> bool {
    debug_assert!(!konst.is_null());
    ord == Ordering::Equal
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

/// Specialise one conjunct.  Falls back to [`Conjunct::Scalar`] whenever a
/// shape has no kernel — semantics are preserved either way.
fn build_conjunct<'a>(
    expr: &'a CompiledExpr,
    column_types: &[DataType],
    runs: Option<&[Option<usize>]>,
) -> Conjunct<'a> {
    // A kernel reads a chunk column; a column an index run does not hold
    // is read from the heap row by row, by the scalar arm.
    let chunk_column = |i: &usize| match place(runs, *i) {
        Cell::Chunk(c) if *i < column_types.len() => Some(c),
        _ => None,
    };
    let col_ok = |i: &usize| chunk_column(i).is_some();
    let col = |i: &usize| chunk_column(i).unwrap_or(*i);
    match expr {
        CompiledExpr::Binary { op, left, right } if op.is_comparison() => {
            // Normalise `const op col` to `col mirror(op) const`.
            let (col, op, konst) = match (&**left, &**right) {
                (CompiledExpr::Col(i), CompiledExpr::Const(k)) if col_ok(i) => (col(i), *op, k),
                (CompiledExpr::Const(k), CompiledExpr::Col(i)) if col_ok(i) => {
                    (col(i), op.mirror(), k)
                }
                (inner, CompiledExpr::Const(k)) => {
                    return build_flags(inner, *op, k, column_types, runs)
                        .unwrap_or_else(|| scalar_conjunct(expr, column_types.len(), runs));
                }
                _ => return scalar_conjunct(expr, column_types.len(), runs),
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
                if col_ok(i) =>
            {
                if lo.is_null() || hi.is_null() {
                    Conjunct::AlwaysNull
                } else {
                    Conjunct::Between {
                        col: col(i),
                        low: lo,
                        high: hi,
                        negated: *negated,
                    }
                }
            }
            _ => scalar_conjunct(expr, column_types.len(), runs),
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
                    // NULL members never satisfy sql_eq; drop them.
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

/// Recognise the flag idiom `(col & mask)` / `(col | mask)` as the left
/// side of a comparison — Int columns only, where `as_i64` is exact.
fn build_flags<'a>(
    inner: &'a CompiledExpr,
    op: BinaryOp,
    konst: &'a Value,
    column_types: &[DataType],
    runs: Option<&[Option<usize>]>,
) -> Option<Conjunct<'a>> {
    let CompiledExpr::Binary {
        op: bit_op,
        left,
        right,
    } = inner
    else {
        return None;
    };
    let or = match bit_op {
        BinaryOp::BitAnd => false,
        BinaryOp::BitOr => true,
        _ => return None,
    };
    let (col, mask_v) = match (&**left, &**right) {
        (CompiledExpr::Col(i), CompiledExpr::Const(k)) => (*i, k),
        (CompiledExpr::Const(k), CompiledExpr::Col(i)) => (*i, k),
        _ => return None,
    };
    if column_types.get(col) != Some(&DataType::Int) {
        return None;
    }
    let Cell::Chunk(col) = place(runs, col) else {
        return None;
    };
    if mask_v.is_null() {
        // A NULL mask makes the whole comparison NULL for every row.
        return Some(Conjunct::AlwaysNull);
    }
    // A non-integer mask is an error for every non-NULL row, even under a
    // NULL comparand: leave it to the scalar arm.
    let mask = mask_v.as_i64()?;
    if konst.is_null() {
        return Some(Conjunct::AlwaysNull);
    }
    Some(Conjunct::FlagsCmp {
        col,
        mask,
        or,
        op,
        konst,
    })
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

    /// One random conjunct: every kernel shape over every column type, plus
    /// shapes that take the scalar arm (arithmetic with a mod-by-zero error
    /// path, column-column comparison, disjunction, negation).
    fn atom(rng: &mut ChaCha8Rng) -> String {
        let mut pick = |of: &[&str]| of[rng.gen_range(0..of.len())].to_string();
        let (c, c2) = (pick(&NAMES), pick(&NAMES));
        let consts = ["null", "0", "3", "12", "-2.5", "7.0", "'a'", "'ab'", "''"];
        let (k, k2) = (pick(&consts), pick(&consts));
        let op = pick(&["=", "<>", "<", "<=", ">", ">="]);
        let not = pick(&["", "", "not "]);
        let (like, bit) = (pick(&["a%", "%b", "_", "%", "%1%"]), pick(&["&", "|"]));
        match rng.gen_range(0..11usize) {
            0 => format!("{c} {op} {k}"),
            1 => format!("{k} {op} {c}"),
            2 => format!("{c} {not}between {k} and {k2}"),
            3 => format!("{c} {not}in ({k}, {k2}, null)"),
            4 => format!("{c} is {not}null"),
            5 => format!("{c} {not}like '{like}'"),
            6 => format!("({c} {bit} {k}) {op} {k2}"),
            7 => format!("{c} % {k} {op} {k2}"),
            8 => format!("{c} {op} {c2}"),
            9 => format!("({} or {})", atom(rng), atom(rng)),
            _ => format!("not ({})", atom(rng)),
        }
    }

    /// A random table of `n_rows` rows over [`NAMES`]: every column but
    /// `id` NULL one time in six, one row in nine deleted.
    fn random_table(rng: &mut ChaCha8Rng, n_rows: usize) -> Table {
        let columns = NAMES
            .iter()
            .zip(TYPES)
            .map(|(n, ty)| ColumnDef::new(*n, ty).nullable());
        let mut table = Table::new("t", TableSchema::new(columns.collect()));
        for i in 0..n_rows {
            let mut row = vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(-5i64..50)),
                Value::Float(rng.gen_range(-10.0f64..10.0)),
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
        let mut batch = Vec::new();
        let batch = program
            .filter_chunk(chunk, &mut scratch, ctx)
            .and_then(|()| program.emit_chunk(chunk, &mut scratch, ctx, &mut batch))
            .map(|_| batch);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Chunk by chunk, `BatchProgram` keeps and projects exactly the rows
        /// `CompiledExpr::eval` accepts one at a time — or both fail.
        #[test]
        fn batch_program_agrees_with_row_at_a_time_eval(seed in any::<u64>(), size in 0usize..8) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Sizes around the batch and segment boundaries.
            let table = random_table(&mut rng, [1, 700, 1023, 1024, 1025, 2048, 4096, 4200][size]);
            let (functions, variables) = (FunctionRegistry::new(), std::collections::HashMap::new());
            let scan = random_scan(&mut rng, &functions);
            let ctx = EvalContext { variables: &variables, functions: &functions, aggregates: None };
            let program = BatchProgram::build(scan.filter.as_ref(), &scan.layout, scan.project.as_deref(), TYPES.to_vec(), None);
            for (s, seg) in table.segments().iter().enumerate() {
                let chunk = Chunk::Segment(seg, s * BATCH_ROWS);
                for base in (0..seg.slot_count()).step_by(BATCH_ROWS) {
                    let end = (base + BATCH_ROWS).min(seg.slot_count());
                    let candidates: Vec<Vec<Value>> = (base..end)
                        .filter(|&off| seg.is_live(off))
                        .map(|off| (0..TYPES.len()).map(|c| seg.value(off, c)).collect())
                        .collect();
                    check_chunk(&program, &scan, chunk, (base, end), &candidates, &ctx);
                }
            }
        }

        /// The same over index run slices: kernels read the covered
        /// columns from the run, conjuncts over uncovered ones and the
        /// uncovered cells of survivors come from the heap by row id.
        /// Ranges cut runs mid-way, and each slice is also run in two
        /// pieces split at a random entry.
        #[test]
        fn batch_program_over_run_slices_agrees_with_row_at_a_time_eval(seed in any::<u64>(), size in 0usize..5) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let table = random_table(&mut rng, [1, 700, 1025, 2048, 4200][size]);
            // Covers a, f, s (storage 1, 2, 3) in the order s, a, f; id,
            // flags and b stay in the heap.
            let index = BTreeIndex::build(IndexDef::new("ix", "t", &["s", "a"]).include(&["f"]), &table).unwrap();
            let mut runs = vec![None; NAMES.len()];
            index.covered_ordinals().enumerate().for_each(|(r, c)| runs[c] = Some(r));
            let (functions, variables) = (FunctionRegistry::new(), std::collections::HashMap::new());
            let scan = random_scan(&mut rng, &functions);
            let ctx = EvalContext { variables: &variables, functions: &functions, aggregates: None };
            let program = BatchProgram::build(scan.filter.as_ref(), &scan.layout, scan.project.as_deref(), TYPES.to_vec(), Some(&runs));
            let keys = ["", "a", "ab", "b1", "N_"];
            let bound = |rng: &mut ChaCha8Rng| match rng.gen_range(0..7usize) {
                0 => vec![],
                1 => vec![Value::Null],
                k => vec![Value::str(keys[k - 2])],
            };
            let (lo, hi) = (bound(&mut rng), bound(&mut rng));
            for (run, range) in index.range(&lo, &hi).slices() {
                let chunk = Chunk::Run(run, &table);
                let split = rng.gen_range(range.start..range.end + 1);
                for (base, end) in [(range.start, range.end), (range.start, split), (split, range.end)] {
                    let candidates: Vec<Vec<Value>> = run.row_ids()[base..end]
                        .iter()
                        .map(|&id| (0..TYPES.len()).map(|c| table.get_cell(id, c).unwrap()).collect())
                        .collect();
                    check_chunk(&program, &scan, chunk, (base, end), &candidates, &ctx);
                }
            }
        }
    }
}
