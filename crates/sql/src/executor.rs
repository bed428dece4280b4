//! Plan execution.
//!
//! A push pipeline specialised to the left-deep plans the planner produces:
//! the driving source feeds each join step (index-lookup / hash /
//! nested-loop) in turn, and the **last** FROM step pushes its rows — one at
//! a time, through the residual filter — into the statement's sink
//! ([`crate::exec`]'s `sink` module): the streaming hash aggregator, the
//! ORDER BY buffer (a bounded heap when TOP or the row budget bounds it) or
//! the plain projection.  Only what a later step reads again is buffered:
//! the outer side of the next join and the build side of a hash or
//! nested-loop join, each a `RowBlock` — `width × len` cells in one
//! buffer, a row being a `&[Value]` slice of it.  A hash join keys its
//! build side's distinct keys under the sink module's `KeyIndex`, the one
//! index DISTINCT and GROUP BY use too, and walks each key's build rows as
//! one ascending span.  Scans the optimizer's
//! parallel-scan rule marked [`AccessPath::ParallelHeapScan`] fan out over
//! scoped worker threads, mirroring the paper's parallel sequential scans
//! (aggregating plans keep a partial aggregator per worker and merge them);
//! scans granted a limit hint stop reading early.  When a [`QueryMonitor`]
//! is attached, every scan and join loop reports progress and honours
//! cancellation/pacing at [`MONITOR_BATCH`]-row granularity.
//!
//! # One runtime row layout
//!
//! A base-table source materializes exactly its
//! [`SourcePlan::scan_columns`] — the columns the statement references on
//! that alias — on every access path.  Heap scans, index seeks and covering
//! index scans are one chunk loop (`ChunkScan`) over the batch kernels of
//! [`crate::exec::vector`]: a chunk is a heap segment or a slice of an index
//! run (§9.1.3's "tag table", read in place of the base table), the pushed
//! predicate runs over its columns in storage-ordinal space before any cell
//! is copied, and a survivor takes its covered cells from the run and
//! gathers only the others from the heap by row id.  Before a heap segment
//! is read, the same program's kernels judge from its column zones whether
//! it can hold a row the filter accepts, and a segment they refute is
//! skipped unread.  An index-lookup join
//! runs the same chunk loop over what it matched: it takes its outer rows
//! [`BATCH_ROWS`] at a time, sorts their keys, finds every entry under them
//! with one forward walk of the index
//! ([`skyserver_storage::BTreeIndex::seek_sorted`]) and filters each run's
//! matched entries as one sparse selection, then emits in outer-row order.
//! The program gathers a chunk's survivors straight into a block; a join
//! keeps the outer row's cells as the prefix of one scratch row, appends
//! each candidate's and truncates back, and a sink copies the cells of a
//! row it keeps.  Only [`ResultSet::rows`] holds one `Vec` per row: the
//! statement's tail moves a block's cells into it once.
//! A join output is the concatenation of its sides' layouts.  `select
//! count(*)` therefore moves zero-width rows and a three-way join over the
//! 54-column catalog moves the handful of cells it names.  The planner
//! compiles every program that runs on a materialized row against the same
//! layouts ([`crate::planner::source_layout`]).
//!
//! When rows go straight into a full Top-N heap whose first ORDER BY key is
//! a plain column, the chunk loop drops every row whose key orders strictly
//! after the heap's worst before it is built (`Sink::top_bound`); ties
//! still reach the heap, so tie and arrival order are the sort's.
//!
//! Every expression is a compiled program ([`CompiledExpr::eval`]).  The
//! once-per-statement ones — table function arguments and index seek
//! bounds — compile against no columns when the source runs
//! (`compile::eval_constant`).  Single-table plans
//! without joins/sort/aggregation evaluate their projection inside the scan,
//! straight into the output row.
//!
//! The memory budget is charged for what is *retained* — buffered join
//! inputs, hash tables, group states, sort entries, output rows — and
//! credited back when a buffer is dropped, so [`QueryMonitor::peak_bytes`]
//! is the statement's real high-water mark.  A block is charged by its
//! cells, with no per-row overhead, and credited back as one.

use crate::ast::{Expr, JoinKind};
use crate::error::SqlError;
use crate::exec::compile::{eval_constant, CompiledExpr, CompiledPrograms};
use crate::exec::sink::{
    eval_into, row_charge, tighter, Aggregator, KeyIndex, Output, RowBlock, Sink, Stage,
};
use crate::exec::vector::{BatchProgram, BatchScratch, Chunk, Emit, BATCH_ROWS, MEASURE};
use crate::expr::EvalContext;
use crate::functions::{FineTest, FunctionRegistry, TableBody};
use crate::monitor::{QueryMonitor, MONITOR_BATCH};
use crate::plan::{
    AccessPath, JoinStep, JoinStrategy, SeekSource, SelectPlan, SourceKind, SourcePlan,
};
use crate::result::ResultSet;
use skyserver_storage::{
    BTreeIndex, DataType, Database, RowId, Run, ScanStats, Table, Value, SEGMENT_ROWS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Row-count / time / memory budgets (the public SkyServer limits queries
/// to 1,000 rows or 30 seconds, §4; the memory budget keeps one hostile
/// query from exhausting the server's RAM before the row cap applies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryLimits {
    /// Maximum rows returned (the rest are truncated and flagged).
    pub max_rows: Option<usize>,
    /// Wall-clock computation budget in seconds.
    pub max_seconds: Option<f64>,
    /// Memory budget in bytes over everything the statement retains at
    /// once (buffered join inputs, hash-join builds, group states, sort
    /// entries, output rows).  Crossing it raises
    /// [`SqlError::ResourceExhausted`].
    pub max_bytes: Option<u64>,
}

impl QueryLimits {
    /// No limits (private / trusted SkyServer).
    pub const UNLIMITED: QueryLimits = QueryLimits {
        max_rows: None,
        max_seconds: None,
        max_bytes: None,
    };

    /// The public web interface limits.
    pub const PUBLIC: QueryLimits = QueryLimits {
        max_rows: Some(1000),
        max_seconds: Some(30.0),
        max_bytes: Some(64 * 1024 * 1024),
    };
}

/// Programs a scan applies to one source.
#[derive(Clone, Copy)]
struct ScanPrograms<'a> {
    /// The pushed predicate: in storage ordinals on a base table, whose
    /// heap segments or index runs the scan kernels filter; in row
    /// ordinals on a table function or derived table.
    filter: Option<&'a CompiledExpr>,
    /// On an index seek or covering scan, the run column of each storage
    /// column the index covers (`CompiledPrograms::source_runs`).
    runs: Option<&'a [Option<usize>]>,
    emit: Emit<'a>,
    /// Stop after producing this many rows (merged with the planner's
    /// `limit_hint`).  Set from `max_rows + 1` on the fast path, so the row
    /// budget bounds memory during the scan instead of trimming a fully
    /// materialized result; the extra row keeps `truncated` detectable.
    row_cap: Option<u64>,
}

/// Programs of one join step.
#[derive(Clone, Copy)]
struct JoinPrograms<'a> {
    inner_filter: Option<&'a CompiledExpr>,
    inner_runs: Option<&'a [Option<usize>]>,
    outer_key: Option<&'a CompiledExpr>,
    hash_keys: Option<&'a (Vec<CompiledExpr>, Vec<CompiledExpr>)>,
    residual: Option<&'a CompiledExpr>,
}

fn source_program(p: &CompiledPrograms, index: usize) -> Option<&CompiledExpr> {
    p.source_predicates.get(index).and_then(Option::as_ref)
}

fn source_runs(p: &CompiledPrograms, index: usize) -> Option<&[Option<usize>]> {
    p.source_runs.get(index).and_then(Option::as_deref)
}

fn join_programs(p: &CompiledPrograms, index: usize) -> JoinPrograms<'_> {
    JoinPrograms {
        inner_filter: source_program(p, index + 1),
        inner_runs: source_runs(p, index + 1),
        outer_key: p.join_outer_keys.get(index).and_then(Option::as_ref),
        hash_keys: p.join_hash_keys.get(index).and_then(Option::as_ref),
        residual: p.join_residuals.get(index).and_then(Option::as_ref),
    }
}

/// The error for a plan whose strategy needs a program or annotation the
/// finalizer did not attach — the plan verifier rejects such plans before
/// execution.
fn missing_program(what: &str) -> SqlError {
    SqlError::Plan(format!("plan carries no compiled {what}"))
}

fn index_of<'d>(db: &'d Database, table: &str, index: &str) -> Result<&'d BTreeIndex, SqlError> {
    db.index(table, index)
        .ok_or_else(|| SqlError::Plan(format!("index {index} disappeared")))
}

/// The run map of a source read through `idx`
/// (`CompiledPrograms::source_runs`), checked: resolved at plan time, it
/// must still name the columns this index's runs hold.
fn run_map<'r>(
    idx: &BTreeIndex,
    runs: Option<&'r [Option<usize>]>,
    index: &str,
) -> Result<&'r [Option<usize>], SqlError> {
    let runs = runs.ok_or_else(|| missing_program("run-column map"))?;
    let stale = runs
        .iter()
        .enumerate()
        .any(|(c, r)| r.is_some_and(|r| idx.covered_ordinals().nth(r) != Some(c)));
    if stale {
        return Err(SqlError::Plan(format!(
            "run-column map does not match index {index}"
        )));
    }
    Ok(runs)
}

/// The runtime row layout of a seek source in storage ordinals — its scan
/// columns (positions in the function's outputs) moved onto the table,
/// [`MEASURE`] for the measure — checked, with the fine test's inputs,
/// against the table's width.
fn seek_layout(source: &SourcePlan, seek: &SeekSource, t: &Table) -> Result<Vec<usize>, SqlError> {
    let positions =
        (source.scan_columns.as_deref()).ok_or_else(|| missing_program("scan-column layout"))?;
    let width = t.schema().columns().len();
    let out_of_range = |what: String| {
        SqlError::Plan(format!(
            "{what} out of range for {} ({width} columns)",
            t.name()
        ))
    };
    if let Some(c) = seek.tested.iter().find(|&&c| c >= width) {
        return Err(out_of_range(format!("tested column {c}")));
    }
    (positions.iter())
        .map(|&p| match seek.outputs.get(p) {
            Some(Some(c)) if *c < width => Ok(*c),
            Some(None) => Ok(MEASURE),
            _ => Err(out_of_range(format!("output column {p}"))),
        })
        .collect()
}

/// Index traffic is charged per entry at the index's own average entry
/// size; the gathered heap cells are charged to `bytes_scanned` at their
/// actual widths.
fn entry_bytes(idx: &BTreeIndex) -> u64 {
    if idx.is_empty() {
        1
    } else {
        (idx.bytes() / idx.len() as u64).max(1)
    }
}

/// One scan's chunk loop: its [`BatchProgram`], the buffers the program
/// reuses, and the rows produced so far against the limit.  Heap segments
/// and index run slices go through the same [`ChunkScan::step`]; only
/// their accounting differs.
struct ChunkScan<'a> {
    program: BatchProgram<'a>,
    /// Storage ordinals the rows read (heap byte accounting).
    layout: &'a [usize],
    /// Does the scan run a pushed filter?
    filtered: bool,
    limit: Option<u64>,
    scratch: BatchScratch,
    /// The chunk's emitted rows, on their way to the sink.
    rows: RowBlock,
    produced: u64,
    pending: u64,
    /// An ordered seek's accepted entries, held until the scan ends.
    held: Option<Held<'a>>,
}

/// The entries an ordered seek source has accepted, held until the scan
/// ends: per entry a sort key — its measure's place in
/// [`f64::total_cmp`]'s order, then its arrival (index order) — and where
/// its row is gathered from, with its measure.
#[derive(Default)]
struct Held<'a> {
    keys: Vec<u128>,
    entries: Vec<(Chunk<'a>, u32, f64)>,
}

/// Memory charged per held entry: its key and its place.
const HELD_ENTRY_BYTES: u64 =
    (std::mem::size_of::<u128>() + std::mem::size_of::<(Chunk<'_>, u32, f64)>()) as u64;

/// `m`'s place in [`f64::total_cmp`]'s order, as an unsigned integer.
fn total_order(m: f64) -> u64 {
    let bits = m.to_bits();
    match bits >> 63 {
        1 => !bits,
        _ => bits | 1 << 63,
    }
}

impl<'a> ChunkScan<'a> {
    /// Has the scan produced all the rows its limit allows?
    fn done(&self) -> bool {
        self.limit.is_some_and(|l| self.produced >= l)
    }

    /// Filter offsets `base..end` of `chunk`, drop what a full Top-N heap
    /// would reject, cut at the remaining limit, gather the survivors and
    /// hand them to `sink`.  Returns the candidates visited — on a run
    /// slice the limit cut stops the count at the last row kept, as an
    /// entry-at-a-time scan would stop — and the payload bytes of the
    /// heap cells gathered.
    fn step(
        &mut self,
        ex: &Executor<'_>,
        chunk: Chunk<'a>,
        (base, end): (usize, usize),
        sink: &mut Sink<'_>,
    ) -> Result<(u64, u64), SqlError> {
        let ctx = ex.ctx();
        let mut visited = self
            .program
            .begin_chunk(chunk, base, end, &mut self.scratch);
        self.program.filter_chunk(chunk, &mut self.scratch, &ctx)?;
        if let Some(held) = &mut self.held {
            for &off in self.scratch.selected() {
                let measure = self.scratch.measure(off);
                let arrival = held.entries.len() as u128;
                held.keys
                    .push(u128::from(total_order(measure)) << 32 | arrival);
                held.entries.push((chunk, off, measure));
            }
            ex.charge_mem(self.scratch.selected().len() as u64 * HELD_ENTRY_BYTES)?;
            ex.tick(&mut self.pending, visited)?;
            return Ok((visited, 0));
        }
        if let Some((key, worst, ascending)) = sink.top_bound() {
            self.program
                .reject_after(chunk, &mut self.scratch, key, &worst, ascending);
        }
        if let Some(l) = self.limit {
            let room = l.saturating_sub(self.produced) as usize;
            if let Some(&last) = self.scratch.truncate(room) {
                if let Chunk::Run(..) = chunk {
                    visited = (last as usize + 1).saturating_sub(base) as u64;
                }
            }
        }
        let heap_bytes = self
            .program
            .emit_chunk(chunk, &mut self.scratch, &ctx, &mut self.rows)?;
        self.produced += self.rows.len() as u64;
        sink.absorb(ex, &mut self.rows)?;
        ex.tick(&mut self.pending, visited)?;
        Ok((visited, heap_bytes))
    }

    /// Gather an ordered seek's held entries into rows for `sink`, in the
    /// order of their keys — the measure, ties in index order: a stable
    /// argsort — and only the first `limit` of them.  Returns the payload
    /// bytes of the heap cells gathered.
    fn release_held(
        &mut self,
        ex: &Executor<'_>,
        sink: &mut Sink<'_>,
        limit: Option<u64>,
    ) -> Result<u64, SqlError> {
        let Some(mut held) = self.held.take() else {
            return Ok(0);
        };
        held.keys.sort_unstable();
        let keep = limit.map_or(held.keys.len(), |l| held.keys.len().min(l as usize));
        let ctx = ex.ctx();
        let mut heap_bytes = 0;
        self.program.prepare_rows(&mut self.scratch);
        for &key in &held.keys[..keep] {
            let Some(&(chunk, off, measure)) = held.entries.get(key as u32 as usize) else {
                continue;
            };
            let (scratch, rows) = (&mut self.scratch, &mut self.rows);
            let bytes = (self.program).emit_row(chunk, off, measure, scratch, &ctx, rows)?;
            heap_bytes += bytes.unwrap_or(0);
        }
        self.produced += self.rows.len() as u64;
        ex.release_mem(held.keys.len() as u64 * HELD_ENTRY_BYTES);
        sink.absorb(ex, &mut self.rows)?;
        Ok(heap_bytes)
    }
}

/// Executes SELECT plans.
pub struct Executor<'a> {
    /// The database the plan reads.
    pub db: &'a Database,
    /// Scalar and table-valued functions.
    pub functions: &'a FunctionRegistry,
    /// Session variables visible to the query.
    pub variables: &'a HashMap<String, Value>,
    /// Row/time/memory budgets enforced during execution.
    pub limits: QueryLimits,
    started: Instant,
    /// Cooperative cancellation/progress/pacing hook, checked every
    /// [`MONITOR_BATCH`] rows or probes.  `None` costs nothing on the hot
    /// path beyond a local counter increment.
    monitor: Option<&'a QueryMonitor>,
    /// Bytes of retained state charged and not yet credited back — shared
    /// atomically across parallel-scan workers and derived-plan recursion
    /// so the `max_bytes` budget covers the whole statement.
    mem_used: AtomicU64,
}

impl Drop for Executor<'_> {
    fn drop(&mut self) {
        // Return this statement's charge to the monitor's gauge so an
        // observer sees live usage, not the sum over a whole script.
        if let Some(monitor) = self.monitor {
            monitor.release_bytes(self.mem_used.load(Ordering::Relaxed));
        }
    }
}

/// Result of executing a plan, before any INTO handling.
#[derive(Debug, Clone)]
pub struct ExecutedSelect {
    /// The produced rows.
    pub result: ResultSet,
    /// Raw scan counters accumulated during execution.
    pub stats: ScanStats,
}

impl<'a> Executor<'a> {
    /// Create an executor.
    pub fn new(
        db: &'a Database,
        functions: &'a FunctionRegistry,
        variables: &'a HashMap<String, Value>,
        limits: QueryLimits,
    ) -> Self {
        Executor {
            db,
            functions,
            variables,
            limits,
            started: Instant::now(),
            monitor: None,
            mem_used: AtomicU64::new(0),
        }
    }

    /// Charge `bytes` of newly retained state against the memory budget.
    /// Reports to the attached monitor's gauge and raises
    /// [`SqlError::ResourceExhausted`] once `max_bytes` is crossed — the
    /// governor's alternative to an OOM kill.
    pub(crate) fn charge_mem(&self, bytes: u64) -> Result<(), SqlError> {
        if bytes == 0 {
            return Ok(());
        }
        let now = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(monitor) = self.monitor {
            monitor.charge_bytes(bytes);
        }
        if let Some(budget) = self.limits.max_bytes {
            if now > budget {
                return Err(SqlError::ResourceExhausted(format!(
                    "query materialized {now} bytes against its {budget} byte budget"
                )));
            }
        }
        Ok(())
    }

    /// Credit back `bytes` charged for state that has just been dropped (a
    /// consumed join input, an evicted Top-N entry).
    pub(crate) fn release_mem(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        // Saturating, like the monitor's gauge.
        let _ = self
            .mem_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
        if let Some(monitor) = self.monitor {
            monitor.release_bytes(bytes);
        }
    }

    /// Attach a [`QueryMonitor`]: the executor reports progress to it and
    /// honours cancellation and pacing at row-batch granularity.
    pub fn with_monitor(mut self, monitor: Option<&'a QueryMonitor>) -> Self {
        self.monitor = monitor;
        self
    }

    /// Count `n` processed rows or probes into the local batch counter;
    /// every [`MONITOR_BATCH`] rows the batch is flushed to the monitor,
    /// which may cancel or pace the query.  Chunked scans count a chunk at
    /// a time, joins one outer row or probe at a time.
    #[inline]
    fn tick(&self, pending: &mut u64, n: u64) -> Result<(), SqlError> {
        *pending += n;
        if *pending >= MONITOR_BATCH {
            self.flush_progress(pending)?;
        }
        Ok(())
    }

    /// Count one unit of work that is *not* a scanned row or probe (e.g. a
    /// residual-predicate evaluation over rows the scan already reported):
    /// checks the time budget and the monitor's cancellation/pacing at
    /// batch granularity without inflating the progress counter.
    #[inline]
    pub(crate) fn tick_quiet(&self, pending: &mut u64) -> Result<(), SqlError> {
        *pending += 1;
        if *pending >= MONITOR_BATCH {
            *pending = 0;
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Flush the pending row count to the monitor and honour the time
    /// budget and the monitor's cancellation flag and pacing sleep.
    fn flush_progress(&self, pending: &mut u64) -> Result<(), SqlError> {
        if *pending == 0 {
            return Ok(());
        }
        if let Some(monitor) = self.monitor {
            monitor.add_rows(*pending);
        }
        *pending = 0;
        self.checkpoint()
    }

    /// The shared batch-boundary checkpoint: enforce the time budget and
    /// the monitor's cancellation flag, then apply its pacing sleep.
    fn checkpoint(&self) -> Result<(), SqlError> {
        // Chaos hook at the universal batch boundary: every plan shape
        // (heap scan, index scan, join, aggregate) passes through here,
        // so an injected fault reaches any query (delays model a slow
        // kernel; errors a mid-execution failure).
        skyserver_storage::failpoints::check("executor.batch").map_err(SqlError::Execution)?;
        // Batch boundaries double as time-budget checkpoints, so a long
        // scan hits its `max_seconds` limit mid-flight instead of only at
        // the next pipeline stage.
        self.check_time()?;
        if let Some(monitor) = self.monitor {
            if monitor.is_cancelled() {
                return Err(SqlError::Cancelled);
            }
            let pace = monitor.pace();
            if !pace.is_zero() {
                std::thread::sleep(pace);
            }
        }
        Ok(())
    }

    fn check_time(&self) -> Result<(), SqlError> {
        if let Some(budget) = self.limits.max_seconds {
            if self.started.elapsed().as_secs_f64() > budget {
                return Err(SqlError::LimitExceeded(format!(
                    "query exceeded the {budget} second computation budget"
                )));
            }
        }
        // The monitor's deadline is the request-scoped wall budget the web
        // tier propagates (interactive, API and batch paths all set it);
        // it expires a query mid-scan exactly like `max_seconds`.
        if let Some(monitor) = self.monitor {
            if monitor.deadline_expired() {
                return Err(SqlError::LimitExceeded(
                    "query ran past its request deadline".into(),
                ));
            }
        }
        Ok(())
    }

    pub(crate) fn ctx(&self) -> EvalContext<'_> {
        EvalContext {
            variables: self.variables,
            functions: self.functions,
            aggregates: None,
        }
    }

    /// Execute a SELECT plan to completion.
    pub fn execute_select(&self, plan: &SelectPlan) -> Result<ExecutedSelect, SqlError> {
        let mut stats = ScanStats::default();
        let programs = &plan.programs;
        let aggregating = plan.has_aggregates || !plan.group_by.is_empty();
        // ------------------------------------------------------------------
        // Fast path: a single base-table source with no joins, residual,
        // aggregation or sort projects inside the scan, straight into the
        // output row, and the row budget stops the scan (`max_rows + 1`, so
        // truncation stays detectable) unless DISTINCT dedupes afterwards.
        // ------------------------------------------------------------------
        let direct = plan.joins.is_empty()
            && plan.residual.is_none()
            && !aggregating
            && plan.order_by.is_empty()
            && plan.sources.len() == 1
            && matches!(
                plan.sources[0].kind,
                SourceKind::Table { .. } | SourceKind::Seek(_)
            );
        let (emit, row_cap, stage) = if direct {
            let cap = self.limits.max_rows.filter(|_| !plan.distinct);
            (
                Emit::Project(&programs.projections),
                cap.map(|m| m as u64 + 1),
                Stage::rows(programs.projections.len(), plan.distinct),
            )
        } else if aggregating {
            let width = plan.sources.iter().map(SourcePlan::runtime_width).sum();
            (
                Emit::Row,
                None,
                Stage::Groups(Aggregator::new(programs, width)),
            )
        } else {
            (
                Emit::Row,
                None,
                Stage::Output(Output::new(plan, &self.limits)),
            )
        };
        let mut sink = Sink::new(programs.residual.as_ref(), stage);
        let scan = ScanPrograms {
            filter: source_program(programs, 0),
            runs: source_runs(programs, 0),
            emit,
            row_cap,
        };
        self.run_from(plan, scan, &mut sink, &mut stats)?;
        self.check_time()?;
        stats.predicates_evaluated += sink.residual_evals;
        let rows = match sink.stage {
            Stage::Rows { rows, .. } => rows.into_rows(),
            Stage::Output(output) => output.finish(),
            Stage::Groups(aggregator) => {
                let mut output = Output::new(plan, &self.limits);
                aggregator.finish(self, &mut output)?;
                output.finish()
            }
        };
        Ok(self.finish(plan, rows, stats))
    }

    /// The RowIds, ascending, of the rows of `plan`'s single base-table
    /// source that pass its WHERE — the victim search of UPDATE and DELETE.
    /// Runs the planned access path and the residual, nothing above them.
    pub fn matching_row_ids(&self, plan: &SelectPlan) -> Result<(Vec<RowId>, ScanStats), SqlError> {
        let single_table = plan.joins.is_empty()
            && matches!(plan.sources.as_slice(), [s] if matches!(s.kind, SourceKind::Table { .. }));
        if !single_table {
            return Err(SqlError::Plan(
                "row-id search needs a single base-table source".into(),
            ));
        }
        let mut stats = ScanStats::default();
        let width = Emit::RowAndId.width(plan.sources[0].runtime_width());
        let mut sink = Sink::new(plan.programs.residual.as_ref(), Stage::rows(width, false));
        let scan = ScanPrograms {
            filter: source_program(&plan.programs, 0),
            runs: source_runs(&plan.programs, 0),
            emit: Emit::RowAndId,
            row_cap: None,
        };
        self.run_from(plan, scan, &mut sink, &mut stats)?;
        stats.predicates_evaluated += sink.residual_evals;
        let mut ids: Vec<RowId> = sink
            .buffered()
            .rows()
            .filter_map(|row| row.last().and_then(Value::as_i64))
            .map(|id| id as RowId)
            .collect();
        ids.sort_unstable();
        Ok((ids, stats))
    }

    /// The FROM pipeline: the driving source, then each join step; the last
    /// step pushes into `sink`, every earlier one into the buffer the next
    /// join reads (and drops).
    fn run_from<'p>(
        &self,
        plan: &'p SelectPlan,
        scan: ScanPrograms<'_>,
        sink: &mut Sink<'p>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        let Some(driver) = plan.sources.first() else {
            // A FROM-less select evaluates over one empty row.
            return sink.push(self, &[]);
        };
        let last = plan.joins.len();
        let mut outer_width = driver.runtime_width();
        let mut outer = Sink::rows(outer_width);
        let target = if last == 0 { &mut *sink } else { &mut outer };
        self.execute_source(driver, scan, target, stats)?;
        for (i, (step, inner)) in plan.joins.iter().zip(&plan.sources[1..]).enumerate() {
            self.check_time()?;
            outer_width += inner.runtime_width();
            let mut joined = Sink::rows(outer_width);
            let target = if i + 1 == last {
                &mut *sink
            } else {
                &mut joined
            };
            let join = join_programs(&plan.programs, i);
            self.execute_join(outer.buffered(), inner, step, join, target, stats)?;
            outer.release(self);
            outer = joined;
        }
        Ok(())
    }

    /// The shared tail of every SELECT: TOP (after DISTINCT, which the
    /// sink applied as rows arrived), the row-budget truncation, and the
    /// result assembly.
    fn finish(
        &self,
        plan: &SelectPlan,
        // skylint: allow(row-vec) the ResultSet boundary: the result's rows, one Vec each
        mut final_rows: Vec<Vec<Value>>,
        mut stats: ScanStats,
    ) -> ExecutedSelect {
        if let Some(top) = plan.top {
            final_rows.truncate(top as usize);
        }
        let mut truncated = false;
        if let Some(max) = self.limits.max_rows {
            if final_rows.len() > max {
                final_rows.truncate(max);
                truncated = true;
            }
        }
        stats.rows_returned = final_rows.len() as u64;
        ExecutedSelect {
            result: ResultSet {
                columns: plan.projections.iter().map(|(_, n)| n.clone()).collect(),
                rows: final_rows,
                truncated,
            },
            stats,
        }
    }

    // ----------------------------------------------------------------------
    // Sources
    // ----------------------------------------------------------------------

    fn execute_source(
        &self,
        source: &SourcePlan,
        scan: ScanPrograms<'_>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        match &source.kind {
            SourceKind::Table { table, path } => {
                self.scan_table(table, path, source, scan, sink, stats)
            }
            SourceKind::Seek(seek) => self.scan_seek(source, seek, scan, sink, stats),
            SourceKind::TableFunction { name, args } => {
                let tf = self
                    .functions
                    .table(name)
                    .ok_or_else(|| SqlError::UnknownFunction(name.clone()))?;
                let TableBody::Closure(func) = &tf.body else {
                    return Err(SqlError::Plan(format!(
                        "{name} is answered as a seek, not run to completion"
                    )));
                };
                let ctx = self.ctx();
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| eval_constant(a, &ctx))
                    .collect::<Result<_, _>>()?;
                let result = func(self.db, &arg_values)?;
                // The function's result set must fit the budget as it
                // arrives (and shows in the peak); from here on its rows
                // belong to the pipeline, which charges the ones it keeps.
                let held = result.rows.iter().map(|row| row_charge(row)).sum();
                self.charge_mem(held)?;
                self.release_mem(held);
                stats.rows_returned += self.push_filtered(result.rows, scan.filter, sink)?;
                Ok(())
            }
            SourceKind::Derived { plan } => {
                let executed = self.execute_select(plan)?;
                stats.merge(&executed.stats);
                self.push_filtered(executed.result.rows, scan.filter, sink)?;
                Ok(())
            }
        }
    }

    /// Push the materialized rows of a table function or derived table that
    /// pass the predicate pushed onto it; returns how many did.
    fn push_filtered(
        &self,
        // skylint: allow(row-vec) the ResultSet boundary: a table function's or derived table's rows enter the pipeline here
        rows: Vec<Vec<Value>>,
        filter: Option<&CompiledExpr>,
        sink: &mut Sink<'_>,
    ) -> Result<u64, SqlError> {
        let ctx = self.ctx();
        let mut passed = 0;
        for row in &rows {
            if let Some(filter) = filter {
                if !filter.eval(row, &ctx)?.is_truthy() {
                    continue;
                }
            }
            passed += 1;
            sink.push(self, row)?;
        }
        Ok(passed)
    }

    fn scan_table(
        &self,
        table: &str,
        path: &AccessPath,
        source: &SourcePlan,
        scan: ScanPrograms<'_>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        let t = self.db.table(table)?;
        let layout = self.layout_of(source, t)?;
        // The planner's TOP-derived hint and the governor's row cap both
        // bound the scan; the tighter one wins.
        let limit_hint = tighter(source.limit_hint, scan.row_cap);
        let ctx = self.ctx();
        match path {
            AccessPath::HeapScan => {
                let mut chunks = self.chunk_scan(t, layout, scan, limit_hint, None);
                let segments = t.segments().len();
                self.scan_heap_segments(t, (0, segments), &mut chunks, sink, stats)
            }
            AccessPath::ParallelHeapScan { workers } => {
                self.parallel_heap_scan(t, layout, scan, *workers, limit_hint, sink, stats)
            }
            AccessPath::IndexSeek { index, .. } | AccessPath::CoveringIndexScan { index } => {
                let idx = index_of(self.db, table, index)?;
                let scan = ScanPrograms {
                    runs: Some(run_map(idx, scan.runs, index)?),
                    ..scan
                };
                let (lo, hi) = match path {
                    AccessPath::IndexSeek { bounds, .. } => {
                        let bound =
                            |e: Option<&Expr>| e.map(|e| eval_constant(e, &ctx)).transpose();
                        stats.index_seeks += 1;
                        // Bounds are prefixes of the key, so an equality on
                        // the leading column of a composite index is the
                        // range from that value to itself.  A strict bound
                        // seeks inclusively: the pushed filter drops its end.
                        match &bounds.equals {
                            Some(eq) => {
                                let key = bound(Some(eq))?;
                                (key.clone(), key)
                            }
                            None => (
                                bound(bounds.lower.as_ref().map(|(e, _)| e))?,
                                bound(bounds.upper.as_ref().map(|(e, _)| e))?,
                            ),
                        }
                    }
                    _ => (None, None),
                };
                // skylint: allow(per-key-seek) the source's own bounds, sought once per scan
                let entries = idx.range(lo.as_slice(), hi.as_slice());
                let entry_bytes = entry_bytes(idx);
                let mut chunks = self.chunk_scan(t, layout, scan, limit_hint, None);
                let slices = entries.slices();
                self.scan_run_slices(t, slices, entry_bytes, &mut chunks, sink, stats)?;
                self.flush_progress(&mut chunks.pending)
            }
        }
    }

    /// Run index run slices through a scan's chunk loop, until its limit.
    fn scan_run_slices<'s, 'r: 's>(
        &self,
        t: &'r Table,
        slices: impl Iterator<Item = (&'r Run, std::ops::Range<usize>)>,
        entry_bytes: u64,
        chunks: &mut ChunkScan<'s>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        for (run, range) in slices {
            let chunk = Chunk::Run(run, t);
            let (visited, heap_bytes) = chunks.step(self, chunk, (range.start, range.end), sink)?;
            stats.rows_from_index += visited;
            stats.bytes_from_index += visited * entry_bytes;
            if chunks.filtered {
                stats.predicates_evaluated += visited;
            }
            stats.bytes_scanned += heap_bytes;
            if chunks.done() {
                break;
            }
        }
        Ok(())
    }

    /// A seek source (§9.1.4): its cover's ranges walked once over the
    /// index runs ([`BTreeIndex::seek_ranges`]) — or, without the index,
    /// the heap's segments — through the chunk loop, whose fine test keeps
    /// the live entries it accepts with their measures.  An ordered form's
    /// rows leave in measure order, ties in index order, and its limit and
    /// the scan's apply after that order.
    fn scan_seek(
        &self,
        source: &SourcePlan,
        seek: &SeekSource,
        scan: ScanPrograms<'_>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        if scan.filter.is_some() {
            return Err(SqlError::Plan(
                "a seek source carries no pushed predicate".into(),
            ));
        }
        let t = self.db.table(&seek.table)?;
        let layout = seek_layout(source, seek, t)?;
        let cover = match &seek.cover {
            Some(cover) => Arc::clone(cover),
            None => {
                let ctx = self.ctx();
                let args: Vec<Value> = (seek.args.iter())
                    .map(|a| eval_constant(a, &ctx))
                    .collect::<Result<_, _>>()?;
                Arc::new((seek.form.cover)(&args)?)
            }
        };
        if let Some(fault) = cover.range_fault() {
            let function = &seek.function;
            return Err(SqlError::Plan(format!("{function}: cover {fault}")));
        }
        let limit = tighter(tighter(seek.form.limit, source.limit_hint), scan.row_cap);
        let ordered = seek.form.ordered;
        let index = (seek.index.as_deref())
            .map(|index| index_of(self.db, &seek.table, index).map(|idx| (index, idx)))
            .transpose()?;
        let runs = match index {
            Some((name, idx)) => Some(run_map(idx, scan.runs, name)?),
            None => None,
        };
        let fine = Some((seek.tested.as_slice(), &cover.test));
        let scan = ScanPrograms { runs, ..scan };
        let mut chunks = self.chunk_scan(t, &layout, scan, limit.filter(|_| !ordered), fine);
        chunks.held = ordered.then(Held::default);
        match index {
            Some((_, idx)) => {
                stats.index_seeks += cover.ranges.len() as u64;
                let slices = (idx.seek_ranges(&cover.ranges)).map(|(_, run, range)| (run, range));
                self.scan_run_slices(t, slices, entry_bytes(idx), &mut chunks, sink, stats)?;
            }
            None => {
                let segments = (0, t.segments().len());
                self.scan_heap_segments(t, segments, &mut chunks, sink, stats)?;
            }
        }
        stats.bytes_scanned += chunks.release_held(self, sink, limit)?;
        self.flush_progress(&mut chunks.pending)
    }

    /// The chunk loop of one scan of `t` (see [`ChunkScan`]): over heap
    /// segments, or over index run slices when `scan` carries a run map.
    fn chunk_scan<'s>(
        &self,
        t: &Table,
        layout: &'s [usize],
        scan: ScanPrograms<'s>,
        limit: Option<u64>,
        fine: Option<(&[usize], &'s FineTest)>,
    ) -> ChunkScan<'s> {
        let column_types: Vec<DataType> = t.schema().columns().iter().map(|c| c.ty).collect();
        let (filter, runs, emit) = (scan.filter, scan.runs, scan.emit);
        ChunkScan {
            program: BatchProgram::build(filter, layout, emit, column_types, runs, fine),
            layout,
            filtered: filter.is_some(),
            limit,
            scratch: BatchScratch::default(),
            rows: RowBlock::new(emit.width(layout.len())),
            produced: 0,
            pending: 0,
            held: None,
        }
    }

    /// The runtime row layout of a base-table source — its scan columns —
    /// checked against the table's width once, so the gathers below cannot
    /// address a column that is not there.
    fn layout_of<'s>(&self, source: &'s SourcePlan, t: &Table) -> Result<&'s [usize], SqlError> {
        let layout = source
            .scan_columns
            .as_deref()
            .ok_or_else(|| missing_program("scan-column layout"))?;
        let width = t.schema().columns().len();
        match layout.iter().find(|&&c| c >= width) {
            Some(c) => Err(SqlError::Plan(format!(
                "scan column {c} out of range for {} ({width} columns)",
                t.name()
            ))),
            None => Ok(layout),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn parallel_heap_scan(
        &self,
        t: &Table,
        layout: &[usize],
        scan: ScanPrograms<'_>,
        workers: usize,
        limit_hint: Option<u64>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        let workers = workers
            .min(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(2),
            )
            .max(1);
        // Partitions are segment-aligned, so each worker owns a whole
        // range of segments and prunes/scans them independently, feeding
        // its own partial sink.
        let partitions = t.partition_row_ids(workers);
        let width = scan.emit.width(layout.len());
        let mut parts: Vec<_> = partitions
            .iter()
            .map(|_| (sink.partial(width), ScanStats::default()))
            .collect();
        let results: Vec<Result<(), SqlError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .zip(parts.iter_mut())
                .map(|(&(lo, hi), (part, counters))| {
                    scope.spawn(move || {
                        let seg_lo = lo / SEGMENT_ROWS;
                        let seg_hi = hi.div_ceil(SEGMENT_ROWS);
                        // Each worker reports to (and is cancelled or paced
                        // by) the same shared monitor.  Each may stop at the
                        // limit: the merged result still has at least
                        // `limit` rows whenever the table does.
                        let mut chunks = self.chunk_scan(t, layout, scan, limit_hint, None);
                        let segments = (seg_lo, seg_hi);
                        self.scan_heap_segments(t, segments, &mut chunks, part, counters)
                    })
                })
                .collect();
            handles
                .into_iter()
                // skylint: allow(no-expect) re-raising a worker panic on the coordinator is the correct propagation
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        });
        for (result, (part, counters)) in results.into_iter().zip(parts) {
            result?;
            stats.merge(&counters);
            sink.merge(self, part)?;
        }
        Ok(())
    }

    /// Scan the live rows of segments `seg_lo..seg_hi`, applying the pushed
    /// filter and handing the survivors' layout rows (or, on the fast path,
    /// their projections) to `sink`.
    ///
    /// This is the engine's one heap-scan loop, shared by the serial and
    /// parallel access paths.  Work proceeds segment by segment:
    ///
    /// 1. **Zone pruning** — if the [`BatchProgram`]'s own conjuncts prove
    ///    from the segment's column min/max that no row can pass the pushed
    ///    filter ([`BatchProgram::segment_may_match`]), the whole segment is
    ///    skipped without touching its rows.
    /// 2. **Chunking** — surviving segments are processed in chunks of
    ///    [`BATCH_ROWS`] slots, each run through the [`BatchProgram`]
    ///    kernels and drained into the sink.  Progress, limit hints and byte
    ///    accounting are checked at chunk boundaries.
    fn scan_heap_segments<'s, 't: 's>(
        &self,
        t: &'t Table,
        (seg_lo, seg_hi): (usize, usize),
        chunks: &mut ChunkScan<'s>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        let ncols = t.schema().columns().len();
        let layout = chunks.layout.iter().filter(|&&c| c != MEASURE);
        let segments = t.segments();
        let seg_hi = seg_hi.min(segments.len());
        let seg_lo = seg_lo.min(seg_hi);
        'segments: for (seg_index, seg) in segments.iter().enumerate().take(seg_hi).skip(seg_lo) {
            // Chaos hook: a failed segment read surfaces as a structured
            // storage error, never a lost worker.
            skyserver_storage::failpoints::check("storage.segment_read")
                .map_err(|m| SqlError::Storage(skyserver_storage::StorageError::ReadFailed(m)))?;
            if !chunks.program.segment_may_match(seg) {
                stats.segments_pruned += 1;
                continue;
            }
            // Charge scanned bytes at this segment's actual per-column
            // rate, restricted to the columns the query touches; the
            // full-row rate feeds the row-store simulation.
            let live = seg.live_rows() as u64;
            let full_bytes: u64 = (0..ncols).map(|c| seg.column(c).bytes()).sum();
            let col_bytes: u64 = layout.clone().map(|&c| seg.column(c).bytes()).sum();
            let per_row = |total: u64| {
                if total > 0 {
                    (total / live.max(1)).max(1)
                } else {
                    0
                }
            };
            let bytes_per_row = per_row(col_bytes);
            let logical_per_row = per_row(full_bytes);
            let chunk = Chunk::Segment(seg, seg_index * SEGMENT_ROWS);
            let slots = seg.slot_count();
            for base in (0..slots).step_by(BATCH_ROWS) {
                let end = (base + BATCH_ROWS).min(slots);
                let (visited, _) = chunks.step(self, chunk, (base, end), sink)?;
                stats.rows_scanned += visited;
                stats.batches_processed += 1;
                if chunks.filtered {
                    stats.predicates_evaluated += visited;
                }
                stats.bytes_scanned += visited.saturating_mul(bytes_per_row);
                stats.logical_bytes_scanned += visited.saturating_mul(logical_per_row);
                if chunks.done() {
                    break 'segments;
                }
            }
        }
        self.flush_progress(&mut chunks.pending)
    }

    // ----------------------------------------------------------------------
    // Joins
    // ----------------------------------------------------------------------

    /// Join the `outer` rows (the accumulated layout) with `inner`, pushing
    /// every combined row into `sink`.  Combined rows are assembled in one
    /// scratch buffer that keeps the outer row's cells as its prefix: each
    /// candidate truncates it back to them and appends its own, so a row
    /// the residual rejects costs no copy of the outer cells.
    fn execute_join(
        &self,
        outer: &RowBlock,
        inner: &SourcePlan,
        step: &JoinStep,
        join: JoinPrograms<'_>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        let inner_width = inner.runtime_width();
        if let JoinStrategy::IndexLookup {
            index,
            inner_column,
            ..
        } = &step.strategy
        {
            let lookup = self.lookup(inner, index, inner_column, join)?;
            return self.lookup_join(outer, inner_width, lookup, step.kind, join, sink, stats);
        }
        let ctx = self.ctx();
        // Hash and nested-loop joins read the inner source once, up front.
        let mut inner_sink = Sink::rows(inner_width);
        let inner_scan = ScanPrograms {
            filter: join.inner_filter,
            runs: join.inner_runs,
            emit: Emit::Row,
            row_cap: None,
        };
        self.execute_source(inner, inner_scan, &mut inner_sink, stats)?;
        let inner_rows = inner_sink.buffered();
        // A hash join's build table over the inner rows, with the outer key
        // programs that probe it; none for a nested loop.
        let hash = match (&step.strategy, join.hash_keys) {
            (JoinStrategy::Hash { .. }, Some((probe_keys, build_keys))) => {
                Some((HashBuild::new(inner_rows, build_keys, &ctx)?, probe_keys))
            }
            (JoinStrategy::Hash { .. }, None) => return Err(missing_program("hash-join keys")),
            _ => None,
        };
        // The build table is new memory (the rows were charged when the
        // inner scan buffered them).
        let build_bytes = hash.as_ref().map_or(0, |(build, _)| build.charge());
        self.charge_mem(build_bytes)?;
        // Reused across outer rows: the combined row and the hash probe key.
        let mut scratch: Vec<Value> = Vec::new();
        let mut probe_key: Vec<Value> = Vec::new();
        let mut pending = 0u64;
        for outer_row in outer.rows() {
            self.check_time()?;
            // One tick per outer row, matches or not — otherwise a join
            // full of misses (or an empty inner side) would never observe
            // cancellation or pacing.
            self.tick(&mut pending, 1)?;
            let candidates: &mut dyn Iterator<Item = usize> = match &hash {
                Some((build, probe_keys)) => {
                    probe_key.clear();
                    eval_into(probe_keys, outer_row, &ctx, &mut probe_key)?;
                    let matches = build.matches(&probe_key);
                    if matches.is_empty() && step.kind != JoinKind::Left {
                        continue;
                    }
                    &mut matches.iter().copied()
                }
                // The cross product dominates this strategy (the spatial
                // rewrite feeds it quadratically many candidate pairs).
                None => &mut (0..inner_rows.len()),
            };
            scratch.clear();
            scratch.extend_from_slice(outer_row);
            let mut matched = false;
            for i in candidates {
                self.tick(&mut pending, 1)?;
                stats.join_probes += 1;
                scratch.truncate(outer_row.len());
                scratch.extend_from_slice(inner_rows.row(i));
                matched |= self.emit_joined(join.residual, &scratch, sink, stats)?;
            }
            if !matched && step.kind == JoinKind::Left {
                self.null_extend(&mut scratch, outer_row.len(), inner_width, sink)?;
            }
        }
        // The inner block and the hash table over it end with the join.
        self.release_mem(build_bytes);
        inner_sink.release(self);
        self.flush_progress(&mut pending)
    }

    /// Residual-check the combined row `joined` and push it into `sink`;
    /// true when it passed.
    fn emit_joined(
        &self,
        residual: Option<&CompiledExpr>,
        joined: &[Value],
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<bool, SqlError> {
        if let Some(residual) = residual {
            stats.predicates_evaluated += 1;
            if !residual.eval(joined, &self.ctx())?.is_truthy() {
                return Ok(false);
            }
        }
        sink.push(self, joined).map(|()| true)
    }

    /// NULL-extend an outer row no inner row matched — the first
    /// `outer_width` cells of `scratch` (no residual: it already failed for
    /// every candidate).
    fn null_extend(
        &self,
        scratch: &mut Vec<Value>,
        outer_width: usize,
        inner_width: usize,
        sink: &mut Sink<'_>,
    ) -> Result<(), SqlError> {
        scratch.truncate(outer_width);
        scratch.resize(outer_width + inner_width, Value::Null);
        sink.push(self, scratch)
    }

    /// The inner side of an index-lookup step: the probed index, checked
    /// against the plan, and the inner source's chunk loop over its runs.
    fn lookup<'x>(
        &self,
        inner: &'x SourcePlan,
        index: &str,
        inner_column: &str,
        join: JoinPrograms<'x>,
    ) -> Result<Lookup<'x>, SqlError>
    where
        'a: 'x,
    {
        let SourceKind::Table { table, .. } = &inner.kind else {
            return Err(SqlError::Plan(
                "index-lookup join requires a base table inner side".into(),
            ));
        };
        let t = self.db.table(table)?;
        let idx = index_of(self.db, table, index)?;
        if !idx
            .def()
            .leading_column()
            .eq_ignore_ascii_case(inner_column)
        {
            return Err(SqlError::Plan(format!(
                "index {index} does not lead with {inner_column}"
            )));
        }
        let scan = ScanPrograms {
            filter: join.inner_filter,
            runs: Some(run_map(idx, join.inner_runs, index)?),
            emit: Emit::Row,
            row_cap: None,
        };
        let layout = self.layout_of(inner, t)?;
        Ok(Lookup {
            t,
            idx,
            key: join
                .outer_key
                .ok_or_else(|| missing_program("index-lookup outer key"))?,
            scan: self.chunk_scan(t, layout, scan, None, None),
            entry_bytes: entry_bytes(idx),
            keyed: Vec::new(),
            keys: Vec::new(),
            uses: Vec::new(),
            key_of: Vec::new(),
            spans: Vec::new(),
            matched: RowBlock::new(layout.len()),
            sel: Vec::new(),
            sel_keys: Vec::new(),
            weight: 0,
        })
    }

    /// An index-lookup join, [`BATCH_ROWS`] outer rows at a time: probe
    /// the chunk's keys in one walk ([`Lookup::probe`]), then emit each
    /// outer row with its surviving entries in outer-row order, index
    /// (key, `RowId`) order within one outer row — the order one seek per
    /// outer row gives.
    #[allow(clippy::too_many_arguments)]
    fn lookup_join(
        &self,
        outer: &RowBlock,
        inner_width: usize,
        mut lookup: Lookup<'_>,
        kind: JoinKind,
        join: JoinPrograms<'_>,
        sink: &mut Sink<'_>,
        stats: &mut ScanStats,
    ) -> Result<(), SqlError> {
        let mut scratch: Vec<Value> = Vec::new();
        let mut pending = 0u64;
        for start in (0..outer.len()).step_by(BATCH_ROWS) {
            let chunk = start..outer.len().min(start + BATCH_ROWS);
            let held = lookup.probe(self, outer, chunk.clone(), stats, &mut pending)?;
            for (i, &k) in chunk.zip(&lookup.key_of) {
                let span = lookup.spans.get(k as usize).cloned().unwrap_or(0..0);
                if span.is_empty() && kind != JoinKind::Left {
                    continue;
                }
                let outer_row = outer.row(i);
                scratch.clear();
                scratch.extend_from_slice(outer_row);
                let mut matched = false;
                for r in span {
                    scratch.truncate(outer_row.len());
                    scratch.extend_from_slice(lookup.matched.row(r));
                    matched |= self.emit_joined(join.residual, &scratch, sink, stats)?;
                }
                if !matched && kind == JoinKind::Left {
                    self.null_extend(&mut scratch, outer_row.len(), inner_width, sink)?;
                }
            }
            self.release_mem(held);
            lookup.matched.clear();
        }
        self.flush_progress(&mut pending)
    }
}

/// A hash join's build table over the buffered inner rows.  Only the
/// distinct keys are kept, one row of `keys` per slot of the keyed index,
/// and the build rows of slot `s` are the positions
/// `rows[starts[s]..starts[s + 1]]`, ascending: a probe costs one key
/// comparison and then a walk of one span.  A NULL key never matches, so a
/// build row with one is left out.
struct HashBuild {
    index: KeyIndex,
    keys: RowBlock,
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl HashBuild {
    fn new(
        inner: &RowBlock,
        build_keys: &[CompiledExpr],
        ctx: &EvalContext<'_>,
    ) -> Result<HashBuild, SqlError> {
        let mut index = KeyIndex::default();
        let mut keys = RowBlock::new(build_keys.len());
        let mut key = Vec::with_capacity(build_keys.len());
        // Each build row's slot, then a counting sort of the rows by slot.
        let mut slots = Vec::with_capacity(inner.len());
        for row in inner.rows() {
            key.clear();
            eval_into(build_keys, row, ctx, &mut key)?;
            if key.iter().any(Value::is_null) {
                slots.push(None);
                continue;
            }
            let known = index.insert(&key, |s| keys.row(s) == key.as_slice());
            slots.push(Some(known.unwrap_or_else(|new| {
                keys.push(&key);
                new
            })));
        }
        // Filling back to front leaves each slot's span ascending and
        // `starts[s]`, the end of slot `s`'s span, at its start.
        let mut starts = vec![0; keys.len() + 1];
        slots.iter().flatten().for_each(|&s| starts[s] += 1);
        (1..starts.len()).for_each(|s| starts[s] += starts[s - 1]);
        let mut rows = vec![0; starts[keys.len()]];
        for (i, slot) in slots.iter().enumerate().rev() {
            if let &Some(s) = slot {
                starts[s] -= 1;
                rows[starts[s]] = i;
            }
        }
        Ok(HashBuild {
            index,
            keys,
            starts,
            rows,
        })
    }

    /// The build rows whose key equals `key`, ascending (none for a key
    /// with a NULL: no kept key holds one).
    fn matches(&self, key: &[Value]) -> &[usize] {
        let slot = self.index.find(key, |s| self.keys.row(s) == key);
        slot.map_or(&[], |s| &self.rows[self.starts[s]..self.starts[s + 1]])
    }

    /// What the table is charged: its key cells and its two position lists.
    fn charge(&self) -> u64 {
        let positions = self.starts.len() + self.rows.len();
        self.keys.charge() + (std::mem::size_of::<usize>() * positions) as u64
    }
}

/// An outer row whose key is NULL: it matches nothing.
const NO_KEY: u32 = u32::MAX;

/// The inner side of an index-lookup join and the buffers each chunk of
/// outer rows reuses (allocated by the first chunk, sized by the largest).
struct Lookup<'x> {
    t: &'x Table,
    idx: &'x BTreeIndex,
    /// The outer key, over the accumulated outer row.
    key: &'x CompiledExpr,
    /// The inner source's batch program over the index's runs: what an
    /// index seek of the inner table runs.
    scan: ChunkScan<'x>,
    entry_bytes: u64,
    /// The chunk's non-NULL keys with their outer rows' positions, sorted.
    keyed: Vec<(Value, u32)>,
    /// The chunk's distinct keys, ascending, and per key: its outer rows,
    /// and its surviving entries (rows of `matched`).
    keys: Vec<Value>,
    uses: Vec<u32>,
    spans: Vec<std::ops::Range<usize>>,
    /// Per outer row of the chunk: its key's position in `keys`, or
    /// [`NO_KEY`].
    key_of: Vec<u32>,
    /// The surviving inner rows (layout rows), in index order.
    matched: RowBlock,
    /// The selection being gathered in one run: entry offsets, ascending,
    /// and the key each belongs to; `weight` is the (outer row, entry)
    /// pairs it stands for.
    sel: Vec<u32>,
    sel_keys: Vec<u32>,
    weight: u64,
}

impl Lookup<'_> {
    /// Probe one chunk of outer rows: evaluate each row's key once, sort
    /// the keys under [`Value::total_cmp`], find the entries under every
    /// distinct key with one forward walk of the index
    /// ([`BTreeIndex::seek_sorted`] — equal keys share it; a NULL key
    /// matches nothing, as `NULL = NULL` is not true), and filter them one
    /// run at a time ([`Lookup::filter_run`]).  Counters keep one seek per
    /// outer row and one index row per (outer row, entry) pair, progress
    /// ticks per outer row and per entry.  Returns the bytes charged for
    /// the chunk's buffers, which the caller releases when it is done.
    fn probe(
        &mut self,
        ex: &Executor<'_>,
        outer: &RowBlock,
        chunk: std::ops::Range<usize>,
        stats: &mut ScanStats,
        pending: &mut u64,
    ) -> Result<u64, SqlError> {
        let ctx = ex.ctx();
        let rows = chunk.len();
        self.keyed.clear();
        for (pos, i) in chunk.enumerate() {
            ex.tick(pending, 1)?;
            let key = self.key.eval(outer.row(i), &ctx)?;
            if !key.is_null() {
                self.keyed.push((key, pos as u32));
            }
        }
        stats.index_seeks += rows as u64;
        let held = (rows * KEY_SLOT_BYTES) as u64;
        ex.charge_mem(held)?;
        // The outer rows of one key stay in order.
        self.keyed
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.keys.clear();
        self.uses.clear();
        self.key_of.clear();
        self.key_of.resize(rows, NO_KEY);
        for (key, pos) in self.keyed.drain(..) {
            if self
                .keys
                .last()
                .is_none_or(|last| last.total_cmp(&key).is_ne())
            {
                self.keys.push(key);
                self.uses.push(0);
            }
            self.key_of[pos as usize] = (self.keys.len() - 1) as u32;
            if let Some(uses) = self.uses.last_mut() {
                *uses += 1;
            }
        }
        self.spans.clear();
        self.spans.resize(self.keys.len(), 0..0);
        let mut run_of_sel: Option<&Run> = None;
        let keys = std::mem::take(&mut self.keys);
        for (k, run, range) in self.idx.seek_sorted(&keys) {
            if let Some(prev) = run_of_sel.filter(|prev| !std::ptr::eq(*prev, run)) {
                self.filter_run(ex, prev, stats, pending)?;
            }
            run_of_sel = Some(run);
            self.weight += range.len() as u64 * u64::from(self.uses[k]);
            self.sel.extend(range.start as u32..range.end as u32);
            self.sel_keys
                .extend(std::iter::repeat_n(k as u32, range.len()));
        }
        if let Some(run) = run_of_sel {
            self.filter_run(ex, run, stats, pending)?;
        }
        self.keys = keys;
        let matched = self.matched.charge();
        ex.charge_mem(matched)?;
        Ok(held + matched)
    }

    /// Run the gathered selection of `run` through the inner source's
    /// batch program — the pushed filter as kernels, covered cells from the
    /// run, the rest from the heap by row id — gather the survivors onto
    /// `matched` and file each under its key.
    fn filter_run(
        &mut self,
        ex: &Executor<'_>,
        run: &Run,
        stats: &mut ScanStats,
        pending: &mut u64,
    ) -> Result<(), SqlError> {
        let ctx = ex.ctx();
        let chunk = Chunk::Run(run, self.t);
        let scan = &mut self.scan;
        let first = self.matched.len();
        scan.program.begin_selection(&self.sel, &mut scan.scratch);
        scan.program.filter_chunk(chunk, &mut scan.scratch, &ctx)?;
        let heap_bytes =
            scan.program
                .emit_chunk(chunk, &mut scan.scratch, &ctx, &mut self.matched)?;
        // Survivors are a subsequence of the selection: walk both.
        let mut at = 0;
        for (r, &off) in (first..).zip(scan.scratch.selected()) {
            while self.sel.get(at).is_some_and(|&o| o != off) {
                at += 1;
            }
            let k = self.sel_keys.get(at).map_or(0, |&k| k as usize);
            if let Some(span) = self.spans.get_mut(k) {
                if span.start == span.end {
                    *span = r..r;
                }
                span.end += 1;
            }
        }
        stats.rows_from_index += self.weight;
        stats.bytes_from_index += self.weight * self.entry_bytes;
        if self.scan.filtered {
            stats.predicates_evaluated += self.weight;
        }
        stats.bytes_scanned += heap_bytes;
        ex.tick(pending, self.weight)?;
        self.weight = 0;
        self.sel.clear();
        self.sel_keys.clear();
        Ok(())
    }
}

/// Memory charged per outer row of a lookup chunk: its key slot and its
/// key position.
const KEY_SLOT_BYTES: usize = std::mem::size_of::<(Value, u32)>() + std::mem::size_of::<u32>();
