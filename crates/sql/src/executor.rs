//! Plan execution.
//!
//! A Volcano-style pipeline specialised to the left-deep plans the planner
//! produces: materialise the driving source, fold in each join step
//! (index-lookup / hash / nested-loop), apply the residual filter, then
//! aggregate / sort / dedupe / limit and project.  Scans the optimizer's
//! parallel-scan rule marked [`AccessPath::ParallelHeapScan`] fan out over
//! scoped worker threads, mirroring the paper's parallel sequential scans;
//! scans granted a limit hint stop reading early.  When a
//! [`QueryMonitor`] is attached, every scan and join loop reports progress
//! and honours cancellation/pacing at [`MONITOR_BATCH`]-row granularity.
//!
//! Every per-row expression is a compiled program: the planner finalizer
//! attaches a complete [`CompiledPrograms`] (ordinal-resolved,
//! constant-folded — see [`crate::exec::compile`]) to the plan, heap scans
//! run their filter and projection through the batch kernels of
//! [`crate::exec::vector`], and every other loop here (index paths, joins,
//! residuals, aggregates, sort keys) calls [`CompiledExpr::eval`].  The AST
//! interpreter evaluates only the once-per-statement expressions: table
//! function arguments and index seek bounds.  Scans practice **late
//! materialization**: the filter runs on the column arrays *before* any
//! copy, and single-table plans without joins/sort/aggregation project
//! straight into the output row, so a rejected row is never cloned at all.

use crate::ast::JoinKind;
use crate::error::SqlError;
use crate::exec::compile::{CompiledExpr, CompiledPrograms, SortKey};
use crate::exec::vector::{BatchProgram, BatchScratch, BATCH_ROWS};
use crate::expr::{eval as eval_constant, EvalContext, RowSchema};
use crate::functions::FunctionRegistry;
use crate::monitor::{QueryMonitor, MONITOR_BATCH};
use crate::plan::{AccessPath, JoinStrategy, SelectPlan, SourceKind, SourcePlan};
use crate::result::ResultSet;
use skyserver_storage::{DataType, Database, IndexKey, ScanStats, Value, SEGMENT_ROWS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Memory budget in bytes over every materialization point (scan
    /// output, hash-join builds and outputs, GROUP BY/DISTINCT tables,
    /// sort keys, projections).  Crossing it raises
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

/// Fixed per-row overhead charged against the memory budget on top of the
/// cell payloads: the `Vec` header plus allocator slack.
const ROW_MEM_OVERHEAD: u64 = 32;

/// Per-cell overhead: the `Value` enum discriminant + inline storage that
/// exists regardless of payload size.
const VALUE_MEM_OVERHEAD: u64 = 16;

/// Approximate heap footprint of one materialized row.
fn row_charge(row: &[Value]) -> u64 {
    ROW_MEM_OVERHEAD
        + row
            .iter()
            .map(|v| v.byte_size() as u64 + VALUE_MEM_OVERHEAD)
            .sum::<u64>()
}

/// [`row_charge`] over a slice of rows.
fn rows_charge(rows: &[Vec<Value>]) -> u64 {
    rows.iter().map(|r| row_charge(r)).sum()
}

/// Evaluate every program of `keys` over `row` into `out`.
#[inline]
fn eval_into(
    keys: &[CompiledExpr],
    row: &[Value],
    ctx: &EvalContext<'_>,
    out: &mut Vec<Value>,
) -> Result<(), SqlError> {
    for k in keys {
        out.push(k.eval(row, ctx)?);
    }
    Ok(())
}

/// Programs a scan applies while streaming borrowed rows: the pushed filter
/// and, on the late-materialization fast path, the output projection that
/// replaces whole-row cloning.
#[derive(Clone, Copy)]
struct ScanPrograms<'a> {
    filter: Option<&'a CompiledExpr>,
    project: Option<&'a [CompiledExpr]>,
    /// Stop accumulating output rows at this count (merged with the
    /// planner's `limit_hint`).  Set from `max_rows + 1` for plans with no
    /// downstream row-reducing or row-reordering operators, so the row
    /// budget bounds memory during the scan instead of trimming a fully
    /// materialized result; the extra row keeps `truncated` detectable.
    row_cap: Option<u64>,
}

/// Programs of one join step.
#[derive(Clone, Copy)]
struct JoinPrograms<'a> {
    inner_filter: Option<&'a CompiledExpr>,
    outer_key: Option<&'a CompiledExpr>,
    hash_keys: Option<&'a (Vec<CompiledExpr>, Vec<CompiledExpr>)>,
    residual: Option<&'a CompiledExpr>,
}

/// The full heap schema of a base table, qualified by its alias — what
/// heap/parallel/seek scans materialize rows with, and what the inner side
/// of an index-lookup join uses (it fetches whole heap rows by RowId
/// regardless of the source's planned access path).
///
/// This is THE definition of the runtime row layout: the planner's program
/// compiler resolves ordinals through these same functions, so the executor
/// and the compiled programs cannot drift apart.
pub(crate) fn heap_schema(db: &Database, alias: &str, table: &str) -> Result<RowSchema, SqlError> {
    let t = db.table(table)?;
    Ok(RowSchema::for_table(
        Some(alias),
        &t.schema().column_names(),
    ))
}

/// The schema a table scan materializes rows with for a given access path:
/// covering scans produce the covered column subset, everything else the
/// full heap schema.  Shared with the planner's program compiler (see
/// [`heap_schema`]).
pub(crate) fn scan_schema(
    db: &Database,
    alias: &str,
    table: &str,
    path: &AccessPath,
) -> Result<RowSchema, SqlError> {
    match path {
        AccessPath::CoveringIndexScan { index } => {
            let idx = db
                .index(table, index)
                .ok_or_else(|| SqlError::Plan(format!("index {index} disappeared")))?;
            let covered: Vec<&str> = idx.def().covered_columns();
            Ok(RowSchema::for_table(Some(alias), &covered))
        }
        _ => heap_schema(db, alias, table),
    }
}

/// What one heap scan (or one parallel-scan partition) produced: the
/// surviving rows plus the counters to fold into the query's [`ScanStats`].
#[derive(Default)]
struct HeapScanOutcome {
    rows: Vec<Vec<Value>>,
    /// Live rows visited in non-pruned segments.
    scanned: u64,
    /// Rows the pushed predicate was evaluated over.
    evaluated: u64,
    /// Segments skipped entirely by zone-map pruning.
    pruned: u64,
    /// Row chunks processed (each ≤ [`BATCH_ROWS`] slots).
    batches: u64,
    /// Bytes of the visited rows' scanned columns.
    bytes: u64,
    /// Full-row-equivalent bytes of the visited rows (all columns), for
    /// the row-store simulation.
    logical_bytes: u64,
}

impl HeapScanOutcome {
    fn merge_into(&self, stats: &mut ScanStats) {
        stats.rows_scanned += self.scanned;
        stats.predicates_evaluated += self.evaluated;
        stats.segments_pruned += self.pruned;
        stats.batches_processed += self.batches;
        stats.bytes_scanned += self.bytes;
        stats.logical_bytes_scanned += self.logical_bytes;
    }
}

/// Bytes of the columns a row-id gather actually touched: the planner's
/// scan-column set when known, the whole row otherwise.
fn gathered_bytes(row: &[Value], scan_columns: Option<&[usize]>) -> u64 {
    match scan_columns {
        Some(cols) => cols
            .iter()
            .filter_map(|&c| row.get(c))
            .map(|v| v.byte_size() as u64)
            .sum(),
        None => row.iter().map(|v| v.byte_size() as u64).sum(),
    }
}

fn source_program(p: &CompiledPrograms, index: usize) -> Option<&CompiledExpr> {
    p.source_predicates.get(index).and_then(Option::as_ref)
}

fn join_programs(p: &CompiledPrograms, index: usize) -> JoinPrograms<'_> {
    JoinPrograms {
        inner_filter: source_program(p, index + 1),
        outer_key: p.join_outer_keys.get(index).and_then(Option::as_ref),
        hash_keys: p.join_hash_keys.get(index).and_then(Option::as_ref),
        residual: p.join_residuals.get(index).and_then(Option::as_ref),
    }
}

/// The error for a plan whose strategy needs a program the finalizer did
/// not attach — the plan verifier rejects such plans before execution.
fn missing_program(what: &str) -> SqlError {
    SqlError::Plan(format!("plan carries no compiled {what}"))
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
    /// Bytes of materialized state charged so far — shared atomically
    /// across parallel-scan workers and derived-plan recursion so the
    /// `max_bytes` budget covers the whole statement.
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

    /// Charge `bytes` of newly materialized state against the memory
    /// budget.  Reports to the attached monitor's gauge and raises
    /// [`SqlError::ResourceExhausted`] once `max_bytes` is crossed — the
    /// governor's alternative to an OOM kill.
    fn charge_mem(&self, bytes: u64) -> Result<(), SqlError> {
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

    /// Attach a [`QueryMonitor`]: the executor reports progress to it and
    /// honours cancellation and pacing at row-batch granularity.
    pub fn with_monitor(mut self, monitor: Option<&'a QueryMonitor>) -> Self {
        self.monitor = monitor;
        self
    }

    /// Count one processed row/probe into the local batch counter; every
    /// [`MONITOR_BATCH`] rows the batch is flushed to the monitor, which
    /// may cancel or pace the query.
    #[inline]
    fn tick(&self, pending: &mut u64) -> Result<(), SqlError> {
        *pending += 1;
        if *pending >= MONITOR_BATCH {
            self.flush_progress(pending)?;
        }
        Ok(())
    }

    /// [`Self::tick`] for a whole batch of rows at once: chunked scans
    /// report progress (and observe cancellation/pacing) at chunk
    /// granularity instead of per row.
    #[inline]
    fn tick_rows(&self, pending: &mut u64, n: u64) -> Result<(), SqlError> {
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
    fn tick_quiet(&self, pending: &mut u64) -> Result<(), SqlError> {
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

    fn ctx<'b>(&'b self, schema: &'b RowSchema) -> EvalContext<'b> {
        EvalContext {
            schema,
            variables: self.variables,
            functions: self.functions,
            aggregates: None,
        }
    }

    /// Produce one output row from a borrowed storage row: either evaluate
    /// the compiled projection straight into the output (fast path) or
    /// materialise the row as-is.
    #[inline]
    fn emit(
        &self,
        row: &[Value],
        project: Option<&[CompiledExpr]>,
        ctx: &EvalContext<'_>,
    ) -> Result<Vec<Value>, SqlError> {
        match project {
            Some(programs) => {
                let mut out = Vec::with_capacity(programs.len());
                eval_into(programs, row, ctx, &mut out)?;
                Ok(out)
            }
            None => Ok(row.to_vec()),
        }
    }

    /// The row count at which this plan's driving scan may stop
    /// accumulating: `max_rows + 1` when no downstream operator (join,
    /// residual, aggregate, ORDER BY, DISTINCT) can reduce or reorder
    /// rows, `None` otherwise.  The extra row is what lets [`Self::finish`]
    /// still detect and flag truncation.
    fn accumulation_cap(&self, plan: &SelectPlan) -> Option<u64> {
        let eligible = plan.joins.is_empty()
            && plan.residual.is_none()
            && !plan.has_aggregates
            && plan.group_by.is_empty()
            && plan.order_by.is_empty()
            && !plan.distinct
            && plan.sources.len() == 1;
        if !eligible {
            return None;
        }
        self.limits.max_rows.map(|m| m as u64 + 1)
    }

    /// Execute a SELECT plan to completion.
    pub fn execute_select(&self, plan: &SelectPlan) -> Result<ExecutedSelect, SqlError> {
        let mut stats = ScanStats::default();
        let programs = &plan.programs;
        // ------------------------------------------------------------------
        // Late-materialization fast path: a single base-table source with no
        // joins, residual, aggregation or sort.  The filter runs on the
        // borrowed storage row and survivors are projected directly into
        // the output — rejected rows are never copied, and TOP-n stops the
        // scan without materialising anything extra.
        // ------------------------------------------------------------------
        let streamable = plan.joins.is_empty()
            && plan.residual.is_none()
            && !plan.has_aggregates
            && plan.group_by.is_empty()
            && plan.order_by.is_empty()
            && plan.sources.len() == 1
            && matches!(plan.sources[0].kind, SourceKind::Table { .. });
        if streamable {
            let scan = ScanPrograms {
                filter: source_program(programs, 0),
                project: Some(&programs.projections),
                row_cap: self.accumulation_cap(plan),
            };
            let (rows, _schema) = self.execute_source(&plan.sources[0], scan, &mut stats)?;
            self.check_time()?;
            return Ok(self.finish(plan, rows, stats));
        }
        // ------------------------------------------------------------------
        // FROM pipeline.
        // ------------------------------------------------------------------
        let (mut rows, mut schema) = if plan.sources.is_empty() {
            (vec![Vec::new()], RowSchema::default())
        } else {
            let scan = ScanPrograms {
                filter: source_program(programs, 0),
                project: None,
                row_cap: self.accumulation_cap(plan),
            };
            self.execute_source(&plan.sources[0], scan, &mut stats)?
        };
        for (i, step) in plan.joins.iter().enumerate() {
            self.check_time()?;
            let inner = &plan.sources[i + 1];
            let (joined_rows, joined_schema) = self.execute_join(
                rows,
                &schema,
                inner,
                step,
                join_programs(programs, i),
                &mut stats,
            )?;
            rows = joined_rows;
            schema = joined_schema;
        }
        // ------------------------------------------------------------------
        // Residual filter.
        // ------------------------------------------------------------------
        if let Some(filter) = &programs.residual {
            let ctx = self.ctx(&schema);
            let mut kept = Vec::with_capacity(rows.len());
            let mut pending = 0u64;
            for row in rows {
                // Quiet: these rows were already counted by the scans and
                // joins that produced them; only check cancel/time/pace.
                self.tick_quiet(&mut pending)?;
                stats.predicates_evaluated += 1;
                if filter.eval(&row, &ctx)?.is_truthy() {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        self.check_time()?;
        // ------------------------------------------------------------------
        // Aggregation or plain projection.
        // ------------------------------------------------------------------
        let mut projected: Vec<(Vec<Value>, Vec<Value>)> =
            if plan.has_aggregates || !plan.group_by.is_empty() {
                self.aggregate(plan, &schema, rows)?
            } else {
                let ctx = self.ctx(&schema);
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut proj = Vec::with_capacity(programs.projections.len());
                    eval_into(&programs.projections, &row, &ctx, &mut proj)?;
                    // The projected row doubles the materialized state
                    // while both copies are alive.
                    self.charge_mem(row_charge(&proj))?;
                    out.push((row, proj));
                }
                out
            };
        // ------------------------------------------------------------------
        // ORDER BY.
        // ------------------------------------------------------------------
        if !plan.order_by.is_empty() {
            let ctx = self.ctx(&schema);
            // (sort keys, (input row, projected row))
            type KeyedRow = (Vec<Value>, (Vec<Value>, Vec<Value>));
            let mut keyed: Vec<KeyedRow> = Vec::with_capacity(projected.len());
            for (row, proj) in projected {
                let mut keys = Vec::with_capacity(programs.order_by.len());
                for sk in &programs.order_by {
                    keys.push(match sk {
                        SortKey::Output(idx) => proj[*idx].clone(),
                        SortKey::Input(program) => program.eval(&row, &ctx)?,
                    });
                }
                // Sort keys are the sort buffer's own footprint.
                self.charge_mem(row_charge(&keys))?;
                keyed.push((keys, (row, proj)));
            }
            keyed.sort_by(|a, b| {
                for (i, item) in plan.order_by.iter().enumerate() {
                    let ord = a.0[i].total_cmp(&b.0[i]);
                    let ord = if item.ascending { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            projected = keyed.into_iter().map(|(_, rp)| rp).collect();
        }
        let final_rows: Vec<Vec<Value>> = projected.into_iter().map(|(_, p)| p).collect();
        Ok(self.finish(plan, final_rows, stats))
    }

    /// The shared tail of every SELECT: DISTINCT, TOP, the row-budget
    /// truncation, and the result assembly.
    fn finish(
        &self,
        plan: &SelectPlan,
        mut final_rows: Vec<Vec<Value>>,
        mut stats: ScanStats,
    ) -> ExecutedSelect {
        if plan.distinct {
            // Hash-based dedupe preserving first-occurrence order.  Rows
            // move into the map (duplicates are simply dropped) and move
            // back out sorted by insertion rank — no clones at all.
            let mut seen: HashMap<Vec<Value>, usize> = HashMap::with_capacity(final_rows.len());
            for row in final_rows {
                let rank = seen.len();
                seen.entry(row).or_insert(rank);
            }
            let mut ordered: Vec<(Vec<Value>, usize)> = seen.into_iter().collect();
            ordered.sort_unstable_by_key(|(_, rank)| *rank);
            final_rows = ordered.into_iter().map(|(row, _)| row).collect();
        }
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
        stats: &mut ScanStats,
    ) -> Result<(Vec<Vec<Value>>, RowSchema), SqlError> {
        match &source.kind {
            SourceKind::Table { table, path } => self.scan_table(table, path, source, scan, stats),
            SourceKind::TableFunction { name, args } => {
                let tf = self
                    .functions
                    .table(name)
                    .ok_or_else(|| SqlError::UnknownFunction(name.clone()))?;
                let empty_schema = RowSchema::default();
                let ctx = self.ctx(&empty_schema);
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| eval_constant(a, &[], &ctx))
                    .collect::<Result<_, _>>()?;
                let result = (tf.func)(self.db, &arg_values)?;
                // Apply any pushed predicate over the TVF output.
                let rows = self.filter_rows(result.rows, scan.filter, &source.schema)?;
                self.charge_mem(rows_charge(&rows))?;
                stats.rows_returned += rows.len() as u64;
                Ok((rows, source.schema.clone()))
            }
            SourceKind::Derived { plan } => {
                let executed = self.execute_select(plan)?;
                stats.merge(&executed.stats);
                let rows = self.filter_rows(executed.result.rows, scan.filter, &source.schema)?;
                Ok((rows, source.schema.clone()))
            }
        }
    }

    /// Keep the materialized rows of a table function or derived table
    /// that pass the predicate pushed onto it.
    fn filter_rows(
        &self,
        rows: Vec<Vec<Value>>,
        filter: Option<&CompiledExpr>,
        schema: &RowSchema,
    ) -> Result<Vec<Vec<Value>>, SqlError> {
        let Some(filter) = filter else {
            return Ok(rows);
        };
        let ctx = self.ctx(schema);
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if filter.eval(&row, &ctx)?.is_truthy() {
                kept.push(row);
            }
        }
        Ok(kept)
    }

    fn scan_table(
        &self,
        table: &str,
        path: &AccessPath,
        source: &SourcePlan,
        scan: ScanPrograms<'_>,
        stats: &mut ScanStats,
    ) -> Result<(Vec<Vec<Value>>, RowSchema), SqlError> {
        let t = self.db.table(table)?;
        let full_schema = heap_schema(self.db, &source.alias, table)?;
        // The planner's TOP-derived hint and the governor's accumulation
        // cap both bound the scan; the tighter one wins.
        let limit_hint = match (source.limit_hint, scan.row_cap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match path {
            AccessPath::HeapScan => {
                let outcome = self.scan_heap_segments(
                    t,
                    0,
                    t.segments().len(),
                    source,
                    scan,
                    &full_schema,
                    limit_hint,
                )?;
                outcome.merge_into(stats);
                Ok((outcome.rows, full_schema))
            }
            AccessPath::ParallelHeapScan { workers } => {
                let rows = self.parallel_heap_scan(
                    t,
                    &full_schema,
                    source,
                    scan,
                    *workers,
                    limit_hint,
                    stats,
                )?;
                Ok((rows, full_schema))
            }
            AccessPath::IndexSeek { index, bounds } => {
                let idx = self
                    .db
                    .index(table, index)
                    .ok_or_else(|| SqlError::Plan(format!("index {index} disappeared")))?;
                let empty = RowSchema::default();
                let ctx = self.ctx(&empty);
                let entries = if let Some(eq) = &bounds.equals {
                    // A prefix seek handles both single-column and composite
                    // indexes whose leading column carries the equality.
                    let key = eval_constant(eq, &[], &ctx)?;
                    idx.seek_prefix(&key)
                        .into_iter()
                        .map(|(_, e)| e.row_id)
                        .collect::<Vec<_>>()
                } else {
                    let lo = match &bounds.lower {
                        Some((e, _)) => Some(IndexKey(vec![eval_constant(e, &[], &ctx)?])),
                        None => None,
                    };
                    let hi = match &bounds.upper {
                        Some((e, _)) => Some(IndexKey(vec![
                            eval_constant(e, &[], &ctx)?,
                            Value::str("\u{10FFFF}"),
                        ])),
                        None => None,
                    };
                    idx.seek_range(lo.as_ref(), hi.as_ref())
                        .into_iter()
                        .map(|(_, e)| e.row_id)
                        .collect::<Vec<_>>()
                };
                stats.index_seeks += 1;
                // Index traffic is charged per entry at the index's own
                // entry size; the gathered heap columns are charged to
                // `bytes_scanned` at their actual widths.
                let entry_bytes = if !idx.is_empty() {
                    (idx.bytes() / idx.len() as u64).max(1)
                } else {
                    1
                };
                let ctx = self.ctx(&full_schema);
                let mut out = Vec::new();
                let mut pending = 0u64;
                for row_id in entries {
                    self.tick(&mut pending)?;
                    // Gather only the referenced columns (see the join-side
                    // comment on `get_sparse`): unreferenced cells stay NULL
                    // and are never read downstream.
                    let fetched = match source.scan_columns.as_deref() {
                        Some(cols) => t.get_sparse(row_id, cols),
                        None => t.get(row_id),
                    };
                    let Some(row) = fetched else { continue };
                    stats.rows_from_index += 1;
                    stats.bytes_from_index += entry_bytes;
                    stats.bytes_scanned += gathered_bytes(&row, source.scan_columns.as_deref());
                    if let Some(filter) = scan.filter {
                        stats.predicates_evaluated += 1;
                        if !filter.eval(&row, &ctx)?.is_truthy() {
                            continue;
                        }
                    }
                    let produced = self.emit(&row, scan.project, &ctx)?;
                    self.charge_mem(row_charge(&produced))?;
                    out.push(produced);
                    if limit_hint.is_some_and(|l| out.len() as u64 >= l) {
                        break;
                    }
                }
                self.flush_progress(&mut pending)?;
                Ok((out, full_schema))
            }
            AccessPath::CoveringIndexScan { index } => {
                let idx = self
                    .db
                    .index(table, index)
                    .ok_or_else(|| SqlError::Plan(format!("index {index} disappeared")))?;
                let schema = scan_schema(self.db, &source.alias, table, path)?;
                let ctx = self.ctx(&schema);
                let entry_bytes = if !idx.is_empty() {
                    (idx.bytes() / idx.len() as u64).max(1)
                } else {
                    1
                };
                let mut out = Vec::new();
                let mut pending = 0u64;
                // The covering entry is assembled into a scratch row once
                // per entry; the filter runs on the scratch before any
                // further copy is made.
                let mut scratch: Vec<Value> = Vec::new();
                for (key, entry) in idx.scan() {
                    self.tick(&mut pending)?;
                    stats.rows_from_index += 1;
                    stats.bytes_from_index += entry_bytes;
                    scratch.clear();
                    scratch.extend(key.0.iter().cloned());
                    scratch.extend(entry.included.iter().cloned());
                    if let Some(filter) = scan.filter {
                        stats.predicates_evaluated += 1;
                        if !filter.eval(&scratch, &ctx)?.is_truthy() {
                            continue;
                        }
                    }
                    let produced = match scan.project {
                        Some(_) => self.emit(&scratch, scan.project, &ctx)?,
                        None => std::mem::take(&mut scratch),
                    };
                    self.charge_mem(row_charge(&produced))?;
                    out.push(produced);
                    if limit_hint.is_some_and(|l| out.len() as u64 >= l) {
                        break;
                    }
                }
                self.flush_progress(&mut pending)?;
                Ok((out, schema))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn parallel_heap_scan(
        &self,
        t: &skyserver_storage::Table,
        schema: &RowSchema,
        source: &SourcePlan,
        scan: ScanPrograms<'_>,
        workers: usize,
        limit_hint: Option<u64>,
        stats: &mut ScanStats,
    ) -> Result<Vec<Vec<Value>>, SqlError> {
        let workers = workers
            .min(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(2),
            )
            .max(1);
        // Partitions are segment-aligned, so each worker owns a whole
        // range of segments and prunes/scans them independently.
        let partitions = t.partition_row_ids(workers);
        let results: Vec<Result<HeapScanOutcome, SqlError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .map(|&(lo, hi)| {
                    scope.spawn(move || {
                        let seg_lo = lo / SEGMENT_ROWS;
                        let seg_hi = hi.div_ceil(SEGMENT_ROWS);
                        // Each worker reports to (and is cancelled or paced
                        // by) the same shared monitor.  Each may stop at the
                        // limit: the merged result still has at least
                        // `limit` rows whenever the table does.
                        self.scan_heap_segments(t, seg_lo, seg_hi, source, scan, schema, limit_hint)
                    })
                })
                .collect();
            handles
                .into_iter()
                // skylint: allow(no-expect) re-raising a worker panic on the coordinator is the correct propagation
                .map(|h| h.join().expect("scan worker panicked"))
                .collect()
        });
        let mut rows = Vec::new();
        for r in results {
            let outcome = r?;
            outcome.merge_into(stats);
            rows.extend(outcome.rows);
        }
        Ok(rows)
    }

    /// Scan the live rows of segments `seg_lo..seg_hi`, applying the pushed
    /// filter and (on the fast path) the output projection.
    ///
    /// This is the engine's one heap-scan loop, shared by the serial and
    /// parallel access paths.  Work proceeds segment by segment:
    ///
    /// 1. **Zone pruning** — if any [`crate::plan::ZoneConstraint`] proves
    ///    the segment's min/max cannot satisfy the pushed predicate, the
    ///    whole segment is skipped without touching its rows.
    /// 2. **Chunking** — surviving segments are processed in chunks of
    ///    [`BATCH_ROWS`] slots, each run through the [`BatchProgram`]
    ///    kernels.  Progress, limit hints and byte accounting are checked at
    ///    chunk boundaries.
    #[allow(clippy::too_many_arguments)]
    fn scan_heap_segments(
        &self,
        t: &skyserver_storage::Table,
        seg_lo: usize,
        seg_hi: usize,
        source: &SourcePlan,
        scan: ScanPrograms<'_>,
        schema: &RowSchema,
        limit_hint: Option<u64>,
    ) -> Result<HeapScanOutcome, SqlError> {
        let ctx = self.ctx(schema);
        let column_types: Vec<DataType> = t.schema().columns().iter().map(|c| c.ty).collect();
        let ncols = column_types.len();
        let program = BatchProgram::build(scan.filter, scan.project, column_types);
        let mut scratch = BatchScratch::default();
        let mut outcome = HeapScanOutcome::default();
        let mut pending = 0u64;
        let segments = t.segments();
        let seg_hi = seg_hi.min(segments.len());
        'segments: for seg in &segments[seg_lo.min(seg_hi)..seg_hi] {
            // Chaos hook: a failed segment read surfaces as a structured
            // storage error, never a lost worker.
            skyserver_storage::failpoints::check("storage.segment_read")
                .map_err(|m| SqlError::Storage(skyserver_storage::StorageError::ReadFailed(m)))?;
            if !source.zone_constraints.is_empty()
                && source.zone_constraints.iter().any(|zc| {
                    let col = seg.column(zc.ordinal);
                    !zc.zone_overlaps(col.zone_min(), col.zone_max())
                })
            {
                outcome.pruned += 1;
                continue;
            }
            // Charge scanned bytes at this segment's actual per-column
            // rate, restricted to the columns the query touches; the
            // full-row rate feeds the row-store simulation.
            let live = seg.live_rows() as u64;
            let full_bytes: u64 = (0..ncols).map(|c| seg.column(c).bytes()).sum();
            let col_bytes: u64 = match source.scan_columns.as_deref() {
                Some(cols) => cols.iter().map(|&c| seg.column(c).bytes()).sum(),
                None => full_bytes,
            };
            let per_row = |total: u64| {
                if total > 0 {
                    (total / live.max(1)).max(1)
                } else {
                    0
                }
            };
            let bytes_per_row = per_row(col_bytes);
            let logical_per_row = per_row(full_bytes);
            let slots = seg.slot_count();
            let mut base = 0usize;
            while base < slots {
                let end = (base + BATCH_ROWS).min(slots);
                let chunk_start = outcome.rows.len();
                let visited = program.begin_chunk(seg, base, end, &mut scratch);
                program.filter_chunk(seg, &mut scratch, &ctx)?;
                program.emit_chunk(seg, &mut scratch, &ctx, &mut outcome.rows)?;
                outcome.scanned += visited;
                outcome.batches += 1;
                if scan.filter.is_some() {
                    outcome.evaluated += visited;
                }
                outcome.bytes += visited.saturating_mul(bytes_per_row);
                outcome.logical_bytes += visited.saturating_mul(logical_per_row);
                // Charge the chunk's surviving rows against the memory
                // budget (chunk granularity keeps the atomics off the
                // per-row path).
                self.charge_mem(rows_charge(&outcome.rows[chunk_start..]))?;
                self.tick_rows(&mut pending, visited)?;
                if let Some(l) = limit_hint {
                    if outcome.rows.len() as u64 >= l {
                        outcome.rows.truncate(l as usize);
                        break 'segments;
                    }
                }
                base = end;
            }
        }
        self.flush_progress(&mut pending)?;
        Ok(outcome)
    }

    // ----------------------------------------------------------------------
    // Joins
    // ----------------------------------------------------------------------

    fn execute_join(
        &self,
        outer_rows: Vec<Vec<Value>>,
        outer_schema: &RowSchema,
        inner: &SourcePlan,
        step: &crate::plan::JoinStep,
        join: JoinPrograms<'_>,
        stats: &mut ScanStats,
    ) -> Result<(Vec<Vec<Value>>, RowSchema), SqlError> {
        let mut out = Vec::new();
        match &step.strategy {
            JoinStrategy::IndexLookup {
                index,
                inner_column,
                ..
            } => {
                let SourceKind::Table { table, .. } = &inner.kind else {
                    return Err(SqlError::Plan(
                        "index-lookup join requires a base table inner side".into(),
                    ));
                };
                let t = self.db.table(table)?;
                let idx = self
                    .db
                    .index(table, index)
                    .ok_or_else(|| SqlError::Plan(format!("index {index} disappeared")))?;
                if !idx.def().key_columns[0].eq_ignore_ascii_case(inner_column) {
                    return Err(SqlError::Plan(format!(
                        "index {index} does not lead with {inner_column}"
                    )));
                }
                let inner_full_schema = heap_schema(self.db, &inner.alias, table)?;
                let combined_schema = outer_schema.join(&inner_full_schema);
                let outer_ctx = self.ctx(outer_schema);
                let inner_ctx = self.ctx(&inner_full_schema);
                let combined_ctx = self.ctx(&combined_schema);
                let key_program = join
                    .outer_key
                    .ok_or_else(|| missing_program("index-lookup outer key"))?;
                let entry_bytes = if !idx.is_empty() {
                    (idx.bytes() / idx.len() as u64).max(1)
                } else {
                    1
                };
                let mut pending = 0u64;
                // Combined rows are assembled in a scratch buffer: the outer
                // prefix is written once per probe and only surviving rows
                // are cloned out, so rejected matches cost no allocation.
                let outer_len = outer_schema.len();
                let mut scratch: Vec<Value> = Vec::with_capacity(combined_schema.len());
                for outer_row in &outer_rows {
                    self.check_time()?;
                    // One tick per probe, even when it finds no matches —
                    // otherwise a join full of misses would never observe
                    // cancellation or pacing.
                    self.tick(&mut pending)?;
                    let key = key_program.eval(outer_row, &outer_ctx)?;
                    stats.index_seeks += 1;
                    // Prefix seek: composite indexes (run, camcol, field)
                    // still serve equality probes on their leading column.
                    let matches = idx.seek_prefix(&key);
                    let mut matched = false;
                    let mut primed = false;
                    for (_, entry) in matches {
                        self.tick(&mut pending)?;
                        // Late materialization on the probe side: only the
                        // columns the statement references on this alias are
                        // gathered; the rest stay NULL and are provably
                        // never read (`scan_columns` is the statement-wide
                        // union for the alias).  `gathered_bytes` charges
                        // the same referenced cells either way.
                        let fetched = match inner.scan_columns.as_deref() {
                            Some(cols) => t.get_sparse(entry.row_id, cols),
                            None => t.get(entry.row_id),
                        };
                        let Some(inner_row) = fetched else {
                            continue;
                        };
                        stats.rows_from_index += 1;
                        stats.bytes_from_index += entry_bytes;
                        stats.bytes_scanned +=
                            gathered_bytes(&inner_row, inner.scan_columns.as_deref());
                        if let Some(filter) = join.inner_filter {
                            stats.predicates_evaluated += 1;
                            if !filter.eval(&inner_row, &inner_ctx)?.is_truthy() {
                                continue;
                            }
                        }
                        if !primed {
                            scratch.clear();
                            scratch.extend(outer_row.iter().cloned());
                            primed = true;
                        }
                        scratch.truncate(outer_len);
                        scratch.extend(inner_row);
                        if let Some(residual) = join.residual {
                            stats.predicates_evaluated += 1;
                            if !residual.eval(&scratch, &combined_ctx)?.is_truthy() {
                                continue;
                            }
                        }
                        matched = true;
                        self.charge_mem(row_charge(&scratch))?;
                        out.push(scratch.clone());
                    }
                    if !matched && step.kind == JoinKind::Left {
                        let mut combined = outer_row.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, inner_full_schema.len()));
                        self.charge_mem(row_charge(&combined))?;
                        out.push(combined);
                    }
                }
                self.flush_progress(&mut pending)?;
                // The inner side of an index-lookup join keeps its full heap
                // schema (all columns).
                Ok((out, combined_schema))
            }
            JoinStrategy::Hash { .. } => {
                let inner_scan = ScanPrograms {
                    filter: join.inner_filter,
                    project: None,
                    row_cap: None,
                };
                let (inner_rows, inner_schema) = self.execute_source(inner, inner_scan, stats)?;
                let inner_ctx = self.ctx(&inner_schema);
                let (probe_keys, build_keys) = join
                    .hash_keys
                    .ok_or_else(|| missing_program("hash-join keys"))?;
                // Hashed build side: equal keys hash equally across numeric
                // types (see the `Hash` impl on `Value`), floats key on
                // their total-order bits.
                let mut hash: HashMap<Vec<Value>, Vec<usize>> =
                    HashMap::with_capacity(inner_rows.len());
                for (i, row) in inner_rows.iter().enumerate() {
                    let mut key = Vec::with_capacity(build_keys.len());
                    eval_into(build_keys, row, &inner_ctx, &mut key)?;
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    // The build table's keys are new memory (the rows
                    // themselves were charged when the inner scan
                    // materialized them).
                    self.charge_mem(row_charge(&key))?;
                    hash.entry(key).or_default().push(i);
                }
                let combined_schema = outer_schema.join(&inner_schema);
                let outer_ctx = self.ctx(outer_schema);
                let combined_ctx = self.ctx(&combined_schema);
                let mut pending = 0u64;
                // The probe key is built in a scratch buffer reused across
                // outer rows: lookups borrow it as a slice, so the per-probe
                // `Vec` allocation of the naive loop disappears.  Combined
                // rows use the same trick: the outer prefix is cloned once
                // per matching probe and residual-rejected rows never leave
                // the scratch buffer.
                let mut probe_key: Vec<Value> = Vec::with_capacity(probe_keys.len());
                let outer_len = outer_schema.len();
                let mut scratch: Vec<Value> = Vec::with_capacity(combined_schema.len());
                for outer_row in &outer_rows {
                    self.check_time()?;
                    // One tick per probe, matches or not (see above).
                    self.tick(&mut pending)?;
                    probe_key.clear();
                    eval_into(probe_keys, outer_row, &outer_ctx, &mut probe_key)?;
                    let mut matched = false;
                    if !probe_key.iter().any(Value::is_null) {
                        if let Some(bucket) = hash.get(probe_key.as_slice()) {
                            scratch.clear();
                            scratch.extend(outer_row.iter().cloned());
                            for &i in bucket {
                                self.tick(&mut pending)?;
                                stats.join_probes += 1;
                                scratch.truncate(outer_len);
                                scratch.extend(inner_rows[i].iter().cloned());
                                if let Some(residual) = join.residual {
                                    stats.predicates_evaluated += 1;
                                    if !residual.eval(&scratch, &combined_ctx)?.is_truthy() {
                                        continue;
                                    }
                                }
                                matched = true;
                                self.charge_mem(row_charge(&scratch))?;
                                out.push(scratch.clone());
                            }
                        }
                    }
                    if !matched && step.kind == JoinKind::Left {
                        let mut combined = outer_row.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, inner_schema.len()));
                        self.charge_mem(row_charge(&combined))?;
                        out.push(combined);
                    }
                }
                self.flush_progress(&mut pending)?;
                Ok((out, combined_schema))
            }
            JoinStrategy::NestedLoop => {
                let inner_scan = ScanPrograms {
                    filter: join.inner_filter,
                    project: None,
                    row_cap: None,
                };
                let (inner_rows, inner_schema) = self.execute_source(inner, inner_scan, stats)?;
                let combined_schema = outer_schema.join(&inner_schema);
                let ctx = self.ctx(&combined_schema);
                let mut pending = 0u64;
                // The cross product dominates this strategy (the spatial
                // rewrite feeds it quadratically many candidate pairs), so
                // pair rows are assembled in a reused scratch buffer: the
                // outer prefix is cloned once per outer row and only pairs
                // that survive the residual are cloned into the output.
                let outer_len = outer_schema.len();
                let mut scratch: Vec<Value> = Vec::with_capacity(combined_schema.len());
                for outer_row in &outer_rows {
                    self.check_time()?;
                    // One tick per outer row so an empty inner side still
                    // observes cancellation and pacing.
                    self.tick(&mut pending)?;
                    let mut matched = false;
                    scratch.clear();
                    scratch.extend(outer_row.iter().cloned());
                    for inner_row in &inner_rows {
                        self.tick(&mut pending)?;
                        stats.join_probes += 1;
                        scratch.truncate(outer_len);
                        scratch.extend(inner_row.iter().cloned());
                        if let Some(residual) = join.residual {
                            stats.predicates_evaluated += 1;
                            if !residual.eval(&scratch, &ctx)?.is_truthy() {
                                continue;
                            }
                        }
                        matched = true;
                        self.charge_mem(row_charge(&scratch))?;
                        out.push(scratch.clone());
                    }
                    if !matched && step.kind == JoinKind::Left {
                        let mut combined = outer_row.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, inner_schema.len()));
                        self.charge_mem(row_charge(&combined))?;
                        out.push(combined);
                    }
                }
                self.flush_progress(&mut pending)?;
                Ok((out, combined_schema))
            }
        }
    }

    // ----------------------------------------------------------------------
    // Aggregation
    // ----------------------------------------------------------------------

    /// Hash-grouped aggregation: the group key, each aggregate argument,
    /// HAVING and the projections run as programs without any name
    /// resolution or per-row key formatting.  Groups come out in ascending
    /// key order.
    #[allow(clippy::type_complexity)]
    fn aggregate(
        &self,
        plan: &SelectPlan,
        schema: &RowSchema,
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<(Vec<Value>, Vec<Value>)>, SqlError> {
        let CompiledPrograms {
            group_by,
            aggregates,
            projections,
            having,
            ..
        } = &plan.programs;
        let ctx = self.ctx(schema);
        let mut groups: HashMap<Vec<Value>, Vec<Vec<Value>>> = HashMap::new();
        for row in rows {
            let mut key = Vec::with_capacity(group_by.len());
            eval_into(group_by, &row, &ctx, &mut key)?;
            // Rows move into the table (already charged); the keys are new.
            self.charge_mem(row_charge(&key))?;
            groups.entry(key).or_default().push(row);
        }
        // A grand aggregate over zero rows still produces one group.
        if groups.is_empty() && plan.group_by.is_empty() {
            groups.insert(Vec::new(), Vec::new());
        }
        let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = groups.into_iter().collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out = Vec::with_capacity(groups.len());
        for (_key, group_rows) in groups {
            let mut agg_values: HashMap<String, Value> = HashMap::new();
            for agg in aggregates {
                let value = if agg.count_star {
                    Value::Int(group_rows.len() as i64)
                } else {
                    let arg = agg
                        .arg
                        .as_ref()
                        // skylint: allow(no-expect) invariant enforced by the plan verifier (count_star XOR arg)
                        .expect("non-count aggregates always compile with an argument");
                    let mut values = Vec::with_capacity(group_rows.len());
                    for row in &group_rows {
                        let v = arg.eval(row, &ctx)?;
                        if !v.is_null() {
                            values.push(v);
                        }
                    }
                    combine_aggregate(&agg.name, &agg.lower, values)?
                };
                agg_values.insert(agg.key.clone(), value);
            }
            let representative = group_rows
                .first()
                .cloned()
                .unwrap_or_else(|| vec![Value::Null; schema.len()]);
            let agg_ctx = EvalContext {
                schema,
                variables: self.variables,
                functions: self.functions,
                aggregates: Some(&agg_values),
            };
            if let Some(h) = having {
                if !h.eval(&representative, &agg_ctx)?.is_truthy() {
                    continue;
                }
            }
            let mut proj = Vec::with_capacity(projections.len());
            eval_into(projections, &representative, &agg_ctx, &mut proj)?;
            self.charge_mem(row_charge(&representative) + row_charge(&proj))?;
            out.push((representative, proj));
        }
        Ok(out)
    }
}

/// Combine the non-NULL argument values of one group into the aggregate's
/// result.
fn combine_aggregate(name: &str, lower: &str, values: Vec<Value>) -> Result<Value, SqlError> {
    match lower {
        "count" => Ok(Value::Int(values.len() as i64)),
        "min" => Ok(values
            .iter()
            .cloned()
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        "max" => Ok(values
            .iter()
            .cloned()
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)),
        "sum" | "avg" | "stdev" | "var" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
            if nums.len() != values.len() {
                return Err(SqlError::Execution(format!(
                    "{name}() over non-numeric values"
                )));
            }
            let sum: f64 = nums.iter().sum();
            let n = nums.len() as f64;
            match lower {
                "sum" => Ok(Value::Float(sum)),
                "avg" => Ok(Value::Float(sum / n)),
                _ => {
                    let mean = sum / n;
                    let var =
                        nums.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
                    if lower == "var" {
                        Ok(Value::Float(var))
                    } else {
                        Ok(Value::Float(var.sqrt()))
                    }
                }
            }
        }
        other => Err(SqlError::Execution(format!("unknown aggregate {other}"))),
    }
}
