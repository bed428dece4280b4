//! The SQL engine facade: session state, statement dispatch and execution
//! statistics.
//!
//! `SqlEngine` owns a [`Database`] and a [`FunctionRegistry`] and executes
//! SQL scripts against them, maintaining session variables (`DECLARE`/`SET`)
//! and temp tables (`SELECT ... INTO ##results`).  A script returns the
//! [`StatementOutcome`] of its last statement: the result set, the raw scan
//! counters and the measured wall-clock time.  The reproduction crate
//! projects the counters onto the paper's hardware; the one plan property
//! it needs ([`PlanSummary::predicate_heavy`]) is classified here, because
//! only the planner sees the pushed-down, view-merged predicates.
//!
//! The query API is split in two.  The full path ([`SqlEngine::execute`])
//! takes `&mut self` and supports DDL, DML, `SELECT ... INTO` and
//! persistent session variables.  The **shared read path**
//! ([`SqlEngine::execute_read`]/[`SqlEngine::query`]) takes `&self`: any
//! number of threads can run `DECLARE`/`SET`/`SELECT` scripts concurrently
//! against one engine.  Read scripts see a snapshot of the session
//! variables and keep their own `DECLARE`/`SET` effects local to the call,
//! so concurrent requests cannot observe each other's half-updated state;
//! statements that would write (DML, DDL, `INTO`) are rejected with
//! [`SqlError::ReadOnly`].

use crate::ast::{
    Expr, FromItem, InsertSource, SelectItem, SelectStatement, Statement, TableSource,
};
use crate::error::SqlError;
use crate::exec::compile::{compile, eval_constant, CompiledExpr};
use crate::executor::{Executor, QueryLimits};
use crate::expr::{EvalContext, RowSchema};
use crate::functions::FunctionRegistry;
use crate::monitor::QueryMonitor;
use crate::parser::parse_script;
use crate::plan::{PlanClass, SelectPlan};
use crate::planner::Planner;
use crate::result::{ResultSet, StatementOutcome};
use skyserver_storage::{
    ColumnDef, Database, ExecutionStats, IndexDef, ReleaseCatalog, ReleaseDiff, ReleaseInfo, RowId,
    ScanStats, TableSchema, Timestamp, Value,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// The SQL engine: database + functions + session state.
pub struct SqlEngine {
    db: Database,
    /// Published release snapshots (`PUBLISH RELEASE drN`).  Each entry is
    /// an immutable copy-on-write [`Database`] sharing all unchanged
    /// segments and indexes with the head and with other releases.
    releases: ReleaseCatalog,
    functions: FunctionRegistry,
    /// Session variables.  Interior-mutable so the shared read path can
    /// snapshot them through `&self`; the `&mut` path goes through
    /// `get_mut` and never contends.
    variables: RwLock<HashMap<String, Value>>,
    /// Row-count threshold the optimizer's parallel-scan rule uses.
    parallel_scan_threshold: usize,
    /// Let the optimizer reorder joins and re-cost access paths from table
    /// statistics (default).  Off = syntactic join order; the baseline the
    /// join-ordering tests and the equivalence proptest compare against
    /// ([`SqlEngine::set_cost_based_ordering`]).
    cost_based_ordering: bool,
    /// Cumulative execution counters (atomics: bumped through `&self` by
    /// concurrent readers).
    counters: EngineCounters,
}

/// Interior-mutable cumulative counters.
#[derive(Debug, Default)]
struct EngineCounters {
    selects: AtomicU64,
    read_path_selects: AtomicU64,
    rows_returned: AtomicU64,
}

/// A snapshot of the engine's cumulative execution counters (the numbers
/// the schema/QA page surfaces next to the result-cache statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// SELECT statements executed (both paths).
    pub selects: u64,
    /// SELECT statements executed through the shared `&self` read path.
    pub read_path_selects: u64,
    /// Total rows returned by all SELECTs.
    pub rows_returned: u64,
}

/// What the optimizer decided for a statement: the Figure 13 bucket plus
/// the rewrite rules that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// The Figure 13 bucket (index seek / scan / join-scan).
    pub class: PlanClass,
    /// The optimizer rules that fired, in pipeline order.
    pub rules_fired: Vec<&'static str>,
    /// Estimated result rows from the statistics model (`None` for
    /// statements the planner does not estimate, e.g. DML).
    pub est_rows: Option<u64>,
    /// Whether the plan evaluates arithmetic or function predicates (the
    /// paper's 19 clocks-per-byte class) rather than plain comparisons (10
    /// clocks per byte): the cost class of the Figure 13 projection.
    pub predicate_heavy: bool,
}

impl SqlEngine {
    /// Create an engine over a database with the given function registry.
    pub fn new(db: Database, functions: FunctionRegistry) -> Self {
        SqlEngine {
            db,
            releases: ReleaseCatalog::new(),
            functions,
            variables: RwLock::new(HashMap::new()),
            parallel_scan_threshold: crate::planner::PARALLEL_SCAN_THRESHOLD,
            cost_based_ordering: true,
            counters: EngineCounters::default(),
        }
    }

    /// Planner configured with this engine's settings, over `db` — the head
    /// database or a pinned release snapshot (`release` names the latter so
    /// EXPLAIN and the plan verifier see the pin).
    fn planner_on<'a>(&'a self, db: &'a Database, release: Option<&str>) -> Planner<'a> {
        Planner::new(db, &self.functions)
            .with_parallel_scan_threshold(self.parallel_scan_threshold)
            .with_cost_based_ordering(self.cost_based_ordering)
            .with_release(release.map(str::to_string))
            .with_known_releases(&self.releases)
    }

    /// The database a statement pinned to `release` reads: the live head
    /// for `None`, the published snapshot otherwise.
    pub fn db_for(&self, release: Option<&str>) -> Result<&Database, SqlError> {
        match release {
            None => Ok(&self.db),
            Some(r) => self
                .releases
                .get(r)
                .map(Arc::as_ref)
                .ok_or_else(|| SqlError::UnknownRelease(r.to_string())),
        }
    }

    /// Publish the current head database as release `name`.  Copy-on-write:
    /// the snapshot shares every segment and index with the head, so the
    /// publish copies only catalog metadata.  Fails on a duplicate name
    /// (releases are immutable once published).
    pub fn publish_release(&mut self, name: &str) -> Result<(), SqlError> {
        self.db.shrink_unshared();
        self.releases.publish(name, Arc::new(self.db.clone()))?;
        Ok(())
    }

    /// The published release catalog.
    pub fn releases(&self) -> &ReleaseCatalog {
        &self.releases
    }

    /// Published release names, in publish order.
    pub fn release_names(&self) -> Vec<String> {
        self.releases.names()
    }

    /// Summaries of every published release, in publish order.
    pub fn release_infos(&self) -> Vec<ReleaseInfo> {
        self.releases.infos()
    }

    /// Per-table diff between two published releases (rows on each side,
    /// physically shared vs added/removed segments).
    pub fn release_diff(&self, from: &str, to: &str) -> Result<ReleaseDiff, SqlError> {
        self.releases.diff(from, to).map_err(|e| match e {
            skyserver_storage::StorageError::UnknownRelease(r) => SqlError::UnknownRelease(r),
            other => SqlError::Storage(other),
        })
    }

    /// A copy-on-write fork of this engine: same functions, configuration,
    /// session variables and release history, sharing every segment and
    /// index with the parent until either side writes.  The atomic-publish
    /// protocol applies admin writes to a fork while the original keeps
    /// serving queries, then swaps the fork in.
    pub fn fork(&self) -> SqlEngine {
        SqlEngine {
            db: self.db.clone(),
            releases: self.releases.clone(),
            functions: self.functions.clone(),
            variables: RwLock::new(
                self.variables
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            parallel_scan_threshold: self.parallel_scan_threshold,
            cost_based_ordering: self.cost_based_ordering,
            counters: EngineCounters {
                selects: AtomicU64::new(self.counters.selects.load(Ordering::Relaxed)),
                read_path_selects: AtomicU64::new(
                    self.counters.read_path_selects.load(Ordering::Relaxed),
                ),
                rows_returned: AtomicU64::new(self.counters.rows_returned.load(Ordering::Relaxed)),
            },
        }
    }

    /// Enable or disable statistics-driven join ordering and access-path
    /// costing (on by default).  Disabling pins the syntactic join order —
    /// the baseline for the join-ordering tests and the escape hatch if an
    /// estimate misfires.
    pub fn set_cost_based_ordering(&mut self, enabled: bool) {
        self.cost_based_ordering = enabled;
    }

    /// Override the table size at which heap scans go parallel (tests and
    /// benchmarks; the default mirrors the paper's large-table behaviour).
    pub fn set_parallel_scan_threshold(&mut self, threshold: usize) {
        self.parallel_scan_threshold = threshold;
    }

    /// Read-only access to the database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the database (used by the loader).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Read-only access to the function registry.
    pub fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }

    /// Current value of a session variable.
    pub fn variable(&self, name: &str) -> Option<Value> {
        self.variables
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// A snapshot of the cumulative execution counters.
    pub fn counters(&self) -> EngineStats {
        EngineStats {
            selects: self.counters.selects.load(Ordering::Relaxed),
            read_path_selects: self.counters.read_path_selects.load(Ordering::Relaxed),
            rows_returned: self.counters.rows_returned.load(Ordering::Relaxed),
        }
    }

    /// Execute a script and return the outcome of its **last** statement
    /// (the usual shape of the paper's DECLARE/SET/SELECT scripts).
    pub fn execute(
        &mut self,
        sql: &str,
        limits: QueryLimits,
    ) -> Result<StatementOutcome, SqlError> {
        let mut last = None;
        for stmt in parse_script(sql)? {
            last = Some(self.execute_statement(&stmt, limits)?);
        }
        last.ok_or_else(|| SqlError::Parse("empty SQL script".into()))
    }

    /// Execute a **read-only** script (`DECLARE`/`SET`/`SELECT`, no `INTO`)
    /// through `&self` and return its last statement's outcome.  Session
    /// variables are snapshotted at entry and `DECLARE`/`SET` effects stay
    /// local to this call, so any number of threads can run read scripts
    /// concurrently on one engine.  Write statements return
    /// [`SqlError::ReadOnly`].
    ///
    /// `monitor`, when given, observes rows-processed progress and can
    /// cancel or pace the running SELECTs ([`SqlError::Cancelled`]) — the
    /// hook the web tier's deadlines and the batch-job tier are built on.
    /// `release` pins every SELECT to a published snapshot instead of the
    /// live head (the engine face of the web tier's `?release=`); a
    /// statement-level `AS OF` must agree with the pin.
    pub fn execute_read(
        &self,
        sql: &str,
        limits: QueryLimits,
        monitor: Option<&QueryMonitor>,
        release: Option<&str>,
    ) -> Result<StatementOutcome, SqlError> {
        // Reject an unknown release before doing any work, even for
        // scripts that never reach a SELECT.
        self.db_for(release)?;
        let statements = parse_script(sql)?;
        let mut vars = self.variables_snapshot();
        let mut last = None;
        for stmt in &statements {
            let started = Instant::now();
            last = Some(match stmt {
                Statement::Declare { .. } | Statement::SetVariable { .. } => {
                    assign_variable(stmt, &mut vars, &self.functions)?;
                    StatementOutcome::default()
                }
                Statement::Select(select) => {
                    // Reject the write *before* planning or executing: a
                    // public request must not burn its whole query budget
                    // on a statement that errors anyway.
                    if let Some(target) = &select.into {
                        return Err(SqlError::ReadOnly(format!("SELECT ... INTO {target}")));
                    }
                    let (outcome, _into) =
                        self.run_select(select, limits, started, &vars, monitor, release)?;
                    self.counters
                        .read_path_selects
                        .fetch_add(1, Ordering::Relaxed);
                    outcome
                }
                // Verification only plans — nothing is executed or written,
                // so the shared read path can serve it.
                Statement::ExplainVerify(select) => self.explain_verify(select)?,
                other => return Err(SqlError::ReadOnly(statement_kind(other).to_string())),
            });
        }
        last.ok_or_else(|| SqlError::Parse("empty SQL script".into()))
    }

    /// Convenience: run a read-only query with no limits and return just
    /// the rows.  Takes `&self`: safe to call from many threads at once.
    pub fn query(&self, sql: &str) -> Result<ResultSet, SqlError> {
        Ok(self
            .execute_read(sql, QueryLimits::UNLIMITED, None, None)?
            .result)
    }

    /// Render the plan of the first SELECT statement in `sql`.
    pub fn explain(&self, sql: &str) -> Result<String, SqlError> {
        Ok(self.plan_first_select(sql, false)?.0.render_explain())
    }

    /// Plan the first SELECT in `sql` and summarize what the optimizer
    /// decided: its class, the rules that fired, its estimate and its cost
    /// class.
    pub fn plan_summary(&self, sql: &str) -> Result<PlanSummary, SqlError> {
        let (plan, _) = self.plan_first_select(sql, false)?;
        Ok(PlanSummary {
            class: plan.plan_class(),
            predicate_heavy: plan_is_predicate_heavy(&plan),
            rules_fired: plan.rules_fired,
            est_rows: plan.est_rows,
        })
    }

    /// Plan the first SELECT in `sql` and return the static verifier's
    /// structured report — the programmatic face of `EXPLAIN VERIFY`.
    pub fn verify(&self, sql: &str) -> Result<crate::verify::VerifyReport, SqlError> {
        let (plan, db) = self.plan_first_select(sql, true)?;
        Ok(self.verify_report(&plan, db))
    }

    /// The session variables as of now, as a private copy.
    fn variables_snapshot(&self) -> HashMap<String, Value> {
        self.variables
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Parse `sql`, evaluate its `DECLARE`/`SET` statements into a
    /// throwaway overlay (planning only needs their evaluation errors;
    /// variables are resolved at execution time, so concurrent sessions
    /// cannot disturb each other) and plan its first SELECT (or
    /// `EXPLAIN VERIFY`'s SELECT).  Returns the plan and the database it
    /// was planned against.
    fn plan_first_select(
        &self,
        sql: &str,
        verifier_off: bool,
    ) -> Result<(SelectPlan, &Database), SqlError> {
        let statements = parse_script(sql)?;
        let mut vars = self.variables_snapshot();
        for stmt in &statements {
            assign_variable(stmt, &mut vars, &self.functions)?;
        }
        let select = statements
            .iter()
            .find_map(|stmt| match stmt {
                Statement::Select(s) | Statement::ExplainVerify(s) => Some(s),
                _ => None,
            })
            .ok_or_else(|| SqlError::Plan("no SELECT statement in script".into()))?;
        self.plan_pinned(select, verifier_off)
    }

    /// Plan `select` against the release its `AS OF` names (the head when
    /// it names none).  `verifier_off` lets the caller report a broken plan
    /// instead of failing on it.
    fn plan_pinned(
        &self,
        select: &SelectStatement,
        verifier_off: bool,
    ) -> Result<(SelectPlan, &Database), SqlError> {
        let release = select.as_of.as_deref();
        let db = self.db_for(release)?;
        let mut planner = self.planner_on(db, release);
        if verifier_off {
            planner = planner.with_verification(false);
        }
        Ok((planner.plan_select(select)?, db))
    }

    /// The static verifier's report on a plan over `db`.
    fn verify_report(&self, plan: &SelectPlan, db: &Database) -> crate::verify::VerifyReport {
        crate::verify::verify_plan_with_releases(plan, db, Some(&self.releases.names()))
    }

    // ----------------------------------------------------------------------
    // Statement dispatch
    // ----------------------------------------------------------------------

    fn execute_statement(
        &mut self,
        stmt: &Statement,
        limits: QueryLimits,
    ) -> Result<StatementOutcome, SqlError> {
        let started = Instant::now();
        match stmt {
            Statement::Declare { .. } | Statement::SetVariable { .. } => {
                let vars = self
                    .variables
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner);
                assign_variable(stmt, vars, &self.functions)?;
                Ok(StatementOutcome::default())
            }
            Statement::Select(select) => {
                let (mut outcome, into) = {
                    let vars = self
                        .variables
                        .read()
                        .unwrap_or_else(PoisonError::into_inner);
                    self.run_select(select, limits, started, &vars, None, None)?
                };
                if let Some(target) = into {
                    outcome.rows_affected = self.materialize_into(&target, &outcome.result)?;
                    // Fold the materialisation into the measured wall time.
                    outcome.stats.wall_seconds = started.elapsed().as_secs_f64();
                }
                Ok(outcome)
            }
            Statement::Insert(insert) => {
                let rows_affected = self.execute_insert(insert, limits)?;
                Ok(StatementOutcome {
                    rows_affected,
                    ..Default::default()
                })
            }
            Statement::Update(update) => {
                let (rows_affected, scan) = self.execute_update(update)?;
                Ok(Self::dml_outcome(rows_affected, scan, started))
            }
            Statement::Delete(delete) => {
                let (rows_affected, scan) = self.execute_delete(delete)?;
                Ok(Self::dml_outcome(rows_affected, scan, started))
            }
            Statement::CreateTable(ct) => {
                let mut cols = Vec::with_capacity(ct.columns.len());
                for c in &ct.columns {
                    let mut def = ColumnDef::new(&c.name, c.ty);
                    if c.nullable {
                        def = def.nullable();
                    }
                    cols.push(def);
                }
                let mut schema = TableSchema::new(cols);
                if !ct.primary_key.is_empty() {
                    let keys: Vec<&str> = ct.primary_key.iter().map(String::as_str).collect();
                    schema = schema.with_primary_key(&keys);
                }
                self.db.create_table(&ct.name, schema)?;
                Ok(StatementOutcome::default())
            }
            Statement::CreateIndex(ci) => {
                let keys: Vec<&str> = ci.columns.iter().map(String::as_str).collect();
                let includes: Vec<&str> = ci.include.iter().map(String::as_str).collect();
                let mut def = IndexDef::new(&ci.name, &ci.table, &keys).include(&includes);
                if ci.unique {
                    def = def.unique();
                }
                self.db.create_index(def)?;
                Ok(StatementOutcome::default())
            }
            Statement::CreateView(cv) => {
                self.db.create_view(&cv.name, cv.source.clone(), "")?;
                Ok(StatementOutcome::default())
            }
            Statement::DropTable { name } => {
                self.db.drop_table(name)?;
                Ok(StatementOutcome::default())
            }
            Statement::ExplainVerify(select) => self.explain_verify(select),
            Statement::PublishRelease { id } => {
                self.publish_release(id)?;
                Ok(StatementOutcome::default())
            }
        }
    }

    /// Plan a SELECT and run the static verifier over it, rendering the
    /// report as a one-column result set (the `EXPLAIN VERIFY` output):
    /// the summary line first, then one row per violation.
    fn explain_verify(&self, select: &SelectStatement) -> Result<StatementOutcome, SqlError> {
        let (plan, db) = self.plan_pinned(select, true)?;
        let report = self.verify_report(&plan, db);
        let mut result = ResultSet::empty(vec!["plan_verify".to_string()]);
        if report.is_clean() {
            result.rows.push(vec![Value::str(report.summary())]);
        } else {
            for violation in &report.violations {
                result.rows.push(vec![Value::str(violation.to_string())]);
            }
        }
        Ok(StatementOutcome {
            result,
            ..Default::default()
        })
    }

    /// Plan and execute one SELECT through `&self`.  Returns the outcome
    /// plus the `INTO` target, if any — materialising that target needs
    /// `&mut self`, so it is left to the caller (the shared read path
    /// rejects it instead).
    fn run_select(
        &self,
        select: &crate::ast::SelectStatement,
        limits: QueryLimits,
        started: Instant,
        variables: &HashMap<String, Value>,
        monitor: Option<&QueryMonitor>,
        ambient_release: Option<&str>,
    ) -> Result<(StatementOutcome, Option<String>), SqlError> {
        // A statement-level `AS OF` and the session's ambient pin (the web
        // tier's `?release=`) must agree when both are present.
        if let (Some(a), Some(r)) = (select.as_of.as_deref(), ambient_release) {
            if !a.eq_ignore_ascii_case(r) {
                return Err(SqlError::Plan(format!(
                    "conflicting AS OF releases in one statement: {a} vs {r}"
                )));
            }
        }
        let release = select.as_of.as_deref().or(ambient_release);
        let db = self.db_for(release)?;
        let plan = self.planner_on(db, release).plan_select(select)?;
        let executor = Executor::new(db, &self.functions, variables, limits).with_monitor(monitor);
        let executed = executor.execute_select(&plan)?;
        let stats = ExecutionStats {
            stats: executed.stats,
            wall_seconds: started.elapsed().as_secs_f64(),
        };
        self.counters.selects.fetch_add(1, Ordering::Relaxed);
        self.counters
            .rows_returned
            .fetch_add(executed.result.rows.len() as u64, Ordering::Relaxed);
        let into = plan.into.clone();
        Ok((
            StatementOutcome {
                result: executed.result,
                rows_affected: 0,
                stats,
            },
            into,
        ))
    }

    /// `SELECT ... INTO ##target`: create the target table and fill it.
    fn materialize_into(&mut self, target: &str, result: &ResultSet) -> Result<usize, SqlError> {
        if self.db.has_table(target) {
            self.db.drop_table(target)?;
        }
        let columns: Vec<ColumnDef> = result
            .columns
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ty = result
                    .rows
                    .iter()
                    .find_map(|r| r[i].data_type())
                    .unwrap_or(skyserver_storage::DataType::Float);
                ColumnDef::new(name, ty).nullable()
            })
            .collect();
        self.db.create_table(target, TableSchema::new(columns))?;
        let ts = self.db.next_timestamp();
        let inserted = self.db.insert_many(target, result.rows.clone(), ts)?;
        Ok(inserted)
    }

    fn execute_insert(
        &mut self,
        insert: &crate::ast::InsertStatement,
        limits: QueryLimits,
    ) -> Result<usize, SqlError> {
        let table = self.db.table(&insert.table)?;
        let table_columns = table.schema().column_names();
        let column_order: Vec<usize> = if insert.columns.is_empty() {
            (0..table_columns.len()).collect()
        } else {
            insert
                .columns
                .iter()
                .map(|c| {
                    table
                        .schema()
                        .column_index(c)
                        .ok_or_else(|| SqlError::Plan(format!("unknown column {c}")))
                })
                .collect::<Result<_, _>>()?
        };
        let width = table_columns.len();
        let variables = self
            .variables
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let value_rows: Vec<Vec<Value>> = match &insert.source {
            InsertSource::Values(rows) => {
                let ctx = EvalContext {
                    variables: &variables,
                    functions: &self.functions,
                    aggregates: None,
                };
                rows.iter()
                    .map(|exprs| {
                        exprs
                            .iter()
                            .map(|e| eval_constant(e, &ctx))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<_, _>>()?
            }
            InsertSource::Select(select) => {
                // `INSERT ... SELECT ... AS OF drN` reads the pinned
                // snapshot while inserting into the live head.
                let release = select.as_of.as_deref();
                let src_db = self.db_for(release)?;
                let plan = self.planner_on(src_db, release).plan_select(select)?;
                let executor = Executor::new(src_db, &self.functions, &variables, limits);
                executor.execute_select(&plan)?.result.rows
            }
        };
        drop(variables);
        let mut count = 0;
        for values in value_rows {
            if values.len() != column_order.len() {
                return Err(SqlError::Execution(format!(
                    "INSERT supplies {} values for {} columns",
                    values.len(),
                    column_order.len()
                )));
            }
            let mut row = vec![Value::Null; width];
            for (pos, value) in column_order.iter().zip(values) {
                row[*pos] = value;
            }
            self.db.insert(&insert.table, row)?;
            count += 1;
        }
        Ok(count)
    }

    /// The rows of `table` an UPDATE or DELETE with this WHERE affects, as
    /// ascending RowIds, plus the counters of the search.  The WHERE is
    /// planned like a SELECT's — pk/index seek when it has a sargable
    /// conjunct, a filter-only kernel scan otherwise — so finding one row by
    /// key costs one seek, not a materialization of the table.
    fn dml_victims(
        &self,
        table: &str,
        selection: Option<&Expr>,
        variables: &HashMap<String, Value>,
    ) -> Result<(Vec<RowId>, ScanStats), SqlError> {
        // DML targets base tables; a view of the same name must not bind.
        self.db.table(table)?;
        let search = SelectStatement {
            projections: vec![SelectItem::Expr {
                expr: Expr::int(1),
                alias: None,
            }],
            from: vec![FromItem {
                source: TableSource::Named(table.to_string()),
                alias: None,
                join: None,
                on: None,
            }],
            selection: selection.cloned(),
            ..Default::default()
        };
        let plan = self.planner_on(&self.db, None).plan_select(&search)?;
        Executor::new(&self.db, &self.functions, variables, QueryLimits::UNLIMITED)
            .matching_row_ids(&plan)
    }

    /// The outcome of an UPDATE/DELETE: rows affected plus the victim
    /// search's access counters.
    fn dml_outcome(rows_affected: usize, scan: ScanStats, started: Instant) -> StatementOutcome {
        StatementOutcome {
            rows_affected,
            stats: ExecutionStats {
                stats: scan,
                wall_seconds: started.elapsed().as_secs_f64(),
            },
            ..Default::default()
        }
    }

    fn execute_update(
        &mut self,
        update: &crate::ast::UpdateStatement,
    ) -> Result<(usize, ScanStats), SqlError> {
        let table = self.db.table(&update.table)?;
        let names = table.schema().column_names();
        let schema = RowSchema::for_table(None, &names);
        // Compiled before the victim search, so an unknown name fails the
        // statement however many rows match.
        let assignments: Vec<(usize, CompiledExpr)> = update
            .assignments
            .iter()
            .map(|(col, e)| {
                let Some(position) = table.schema().column_index(col) else {
                    return Err(SqlError::Plan(format!("unknown column {col}")));
                };
                Ok((position, compile(e, &schema, &self.functions)?))
            })
            .collect::<Result<_, SqlError>>()?;
        let variables = self
            .variables
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let (victims, scan) =
            self.dml_victims(&update.table, update.selection.as_ref(), &variables)?;
        let ctx = EvalContext {
            variables: &variables,
            functions: &self.functions,
            aggregates: None,
        };
        // Collect new rows first (borrow rules), then apply.
        let mut changes: Vec<(RowId, Timestamp, Vec<Value>)> = Vec::with_capacity(victims.len());
        for row_id in victims {
            // skylint: allow(full-row-gather) an UPDATE rewrites whole rows: the victims' full rows are its write set
            let (Some(row), Some(ts)) = (table.get(row_id), table.insert_timestamp(row_id)) else {
                continue;
            };
            let mut new_row = row.clone();
            for (pos, program) in &assignments {
                new_row[*pos] = program.eval(&row, &ctx)?;
            }
            changes.push((row_id, ts, new_row));
        }
        drop(variables);
        let count = changes.len();
        // The statement is one tick of the logical clock, like any write,
        // but no row carries it: each new row keeps its load timestamp so
        // that UNDO of the load step (§9.4) still removes it.
        self.db.next_timestamp();
        for (row_id, ts, new_row) in changes {
            // Delete + insert keeps secondary indices consistent.
            self.db.delete(&update.table, row_id)?;
            self.db.insert_with_timestamp(&update.table, new_row, ts)?;
        }
        Ok((count, scan))
    }

    fn execute_delete(
        &mut self,
        delete: &crate::ast::DeleteStatement,
    ) -> Result<(usize, ScanStats), SqlError> {
        let (victims, scan) = {
            let variables = self
                .variables
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            self.dml_victims(&delete.table, delete.selection.as_ref(), &variables)?
        };
        let count = victims.len();
        for row_id in victims {
            self.db.delete(&delete.table, row_id)?;
        }
        Ok((count, scan))
    }
}

/// Apply `stmt` to `vars` if it is a `DECLARE` (the variable starts NULL)
/// or a `SET`; any other statement leaves them alone.
fn assign_variable(
    stmt: &Statement,
    vars: &mut HashMap<String, Value>,
    functions: &FunctionRegistry,
) -> Result<(), SqlError> {
    let (name, value) = match stmt {
        Statement::Declare { name, .. } => (name, Value::Null),
        Statement::SetVariable { name, expr } => {
            let ctx = EvalContext {
                variables: vars,
                functions,
                aggregates: None,
            };
            (name, eval_constant(expr, &ctx)?)
        }
        _ => return Ok(()),
    };
    vars.insert(name.to_ascii_lowercase(), value);
    Ok(())
}

/// Human-readable statement kind for read-only-violation errors.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Declare { .. } => "DECLARE",
        Statement::SetVariable { .. } => "SET",
        Statement::Select(_) => "SELECT",
        Statement::Insert(_) => "INSERT",
        Statement::Update(_) => "UPDATE",
        Statement::Delete(_) => "DELETE",
        Statement::CreateTable(_) => "CREATE TABLE",
        Statement::CreateIndex(_) => "CREATE INDEX",
        Statement::CreateView(_) => "CREATE VIEW",
        Statement::DropTable { .. } => "DROP TABLE",
        Statement::ExplainVerify(_) => "EXPLAIN VERIFY",
        Statement::PublishRelease { .. } => "PUBLISH RELEASE",
    }
}

/// Does the plan contain arithmetic-heavy predicates (the paper's 19
/// clocks/byte class) rather than simple comparisons (10 clocks/byte)?
/// Reported as [`PlanSummary::predicate_heavy`].
fn plan_is_predicate_heavy(plan: &SelectPlan) -> bool {
    fn expr_heavy(e: &Expr) -> bool {
        use crate::ast::BinaryOp::{Add, Div, Mul, Sub};
        let mut heavy = match e {
            Expr::Binary { op, .. } => matches!(op, Add | Sub | Mul | Div),
            Expr::Function { name, .. } => !crate::ast::is_aggregate_name(name),
            Expr::Between { .. } | Expr::Unary { .. } => false,
            _ => return false,
        };
        e.for_each_child(|c| heavy = heavy || expr_heavy(c));
        heavy
    }
    plan.sources
        .iter()
        .filter_map(|s| s.pushed_predicate.as_ref())
        .any(expr_heavy)
        || plan.residual.as_ref().map(expr_heavy).unwrap_or(false)
        || plan
            .joins
            .iter()
            .filter_map(|j| j.residual.as_ref())
            .any(expr_heavy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use skyserver_storage::DataType;

    impl SqlEngine {
        /// Test shorthand: execute a write statement with no limits.
        fn execute_unlimited(&mut self, sql: &str) -> Result<StatementOutcome, SqlError> {
            self.execute(sql, QueryLimits::UNLIMITED)
        }
    }

    /// Build a small photoObj-like database for engine tests.
    fn engine() -> SqlEngine {
        let mut db = Database::new("mini_sky");
        let schema = TableSchema::new(vec![
            ColumnDef::new("objID", DataType::Int),
            ColumnDef::new("htmID", DataType::Int),
            ColumnDef::new("ra", DataType::Float),
            ColumnDef::new("dec", DataType::Float),
            ColumnDef::new("type", DataType::Int),
            ColumnDef::new("flags", DataType::Int),
            ColumnDef::new("modelMag_r", DataType::Float),
            ColumnDef::new("rowv", DataType::Float),
            ColumnDef::new("colv", DataType::Float),
        ])
        .with_primary_key(&["objID"]);
        db.create_table("photoObj", schema).unwrap();
        db.create_index(IndexDef::new("pk_photoObj", "photoObj", &["objID"]).unique())
            .unwrap();
        db.create_index(IndexDef::new("ix_htm", "photoObj", &["htmID"]))
            .unwrap();
        db.create_view(
            "Galaxy",
            "select * from photoObj where type = 3",
            "galaxies",
        )
        .unwrap();
        db.create_view("Star", "select * from photoObj where type = 6", "stars")
            .unwrap();
        for i in 0..200i64 {
            let is_galaxy = i % 2 == 0;
            let moving = i % 50 == 0;
            db.insert(
                "photoObj",
                vec![
                    Value::Int(i),
                    Value::Int(100_000 + i),
                    Value::Float(180.0 + (i as f64) * 0.01),
                    Value::Float(-0.5 + (i as f64) * 0.001),
                    Value::Int(if is_galaxy { 3 } else { 6 }),
                    Value::Int(if i % 10 == 0 { 64 } else { 0 }),
                    Value::Float(15.0 + (i % 70) as f64 * 0.1),
                    Value::Float(if moving { 10.0 } else { 0.0 }),
                    Value::Float(if moving { 10.0 } else { 0.0 }),
                ],
            )
            .unwrap();
        }
        let mut functions = FunctionRegistry::new();
        functions.register_scalar("dbo.fPhotoFlags", |args| {
            let name = args
                .first()
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_ascii_lowercase();
            Ok(Value::Int(match name.as_str() {
                "saturated" => 64,
                "primary" => 256,
                _ => 0,
            }))
        });
        functions.register_table("fGetNearbyObjEq", &["objID", "distance"], |db, args| {
            // A toy spatial function: every object within `radius` degrees of
            // the given ra (ignoring dec) -- enough to drive join plans.
            let ra = args[0].as_f64().unwrap_or(0.0);
            let radius = args.get(2).and_then(Value::as_f64).unwrap_or(1.0) / 60.0;
            let t = db.table("photoObj")?;
            let schema = t.schema();
            let ra_idx = schema.column_index("ra").unwrap();
            let id_idx = schema.column_index("objID").unwrap();
            let mut rs = ResultSet::empty(vec!["objID".into(), "distance".into()]);
            for (_, row) in t.iter() {
                let obj_ra = row[ra_idx].as_f64().unwrap_or(0.0);
                let d = (obj_ra - ra).abs();
                if d <= radius {
                    rs.rows
                        .push(vec![row[id_idx].clone(), Value::Float(d * 60.0)]);
                }
            }
            Ok(rs)
        });
        SqlEngine::new(db, functions)
    }

    #[test]
    fn simple_select_and_projection() {
        let e = engine();
        let r = e
            .query("select objID, ra from photoObj where objID = 5")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, "objID"), Some(&Value::Int(5)));
    }

    #[test]
    fn count_star_and_group_by() {
        let e = engine();
        let r = e.query("select count(*) from photoObj").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(200)));
        let r = e
            .query("select type, count(*) as n from photoObj group by type order by type")
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, "n"), Some(&Value::Int(100)));
        let r = e
            .query("select type, count(*) as n from photoObj group by type having count(*) > 150")
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn order_by_an_aggregate_call_sorts_like_its_alias() {
        let e = engine();
        let rows = |sql: &str| e.query(sql).unwrap().rows;
        // 20 rows have flags = 64 and 180 have flags = 0.
        let by_call =
            rows("select flags, count(*) from photoObj group by flags order by count(*) desc");
        let by_alias =
            rows("select flags, count(*) as n from photoObj group by flags order by n desc");
        assert_eq!(by_call, by_alias);
        assert_eq!(by_call[0], vec![Value::Int(0), Value::Int(180)]);
        let top = rows("select top 1 flags from photoObj group by flags order by count(*)");
        assert_eq!(top, vec![vec![Value::Int(64)]]);
        // An aggregate that is not projected sorts the groups too.
        for dir in ["asc", "desc"] {
            let by_call = rows(&format!(
                "select type from photoObj group by type order by avg(modelMag_r) {dir}"
            ));
            let by_alias = rows(&format!(
                "select type, avg(modelMag_r) as m from photoObj group by type order by m {dir}"
            ));
            let firsts: Vec<Vec<Value>> = by_alias.iter().map(|r| r[..1].to_vec()).collect();
            assert_eq!(by_call, firsts, "{dir}");
        }
        let grand = rows("select count(*) from photoObj order by count(*)");
        assert_eq!(grand, vec![vec![Value::Int(200)]]);
    }

    #[test]
    fn views_expand_to_base_table() {
        let e = engine();
        let galaxies = e.query("select count(*) from Galaxy").unwrap();
        assert_eq!(galaxies.scalar(), Some(&Value::Int(100)));
        let bright = e
            .query("select count(*) from Star where modelMag_r < 18")
            .unwrap();
        let total: i64 = bright.scalar().unwrap().as_i64().unwrap();
        assert!(total > 0 && total < 100);
    }

    #[test]
    fn declare_set_and_flag_arithmetic() {
        let mut e = engine();
        let outcome = e
            .execute(
                "declare @saturated bigint; \
                 set @saturated = dbo.fPhotoFlags('saturated'); \
                 select count(*) from photoObj where (flags & @saturated) = 0",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        assert_eq!(outcome.result.scalar(), Some(&Value::Int(180)));
        assert_eq!(e.variable("saturated"), Some(Value::Int(64)));
    }

    #[test]
    fn query1_shape_tvf_join_into_temp_table() {
        let mut e = engine();
        let outcome = e
            .execute(
                "declare @saturated bigint; \
                 set @saturated = dbo.fPhotoFlags('saturated'); \
                 select G.objID, GN.distance into ##results \
                 from Galaxy as G \
                 join fGetNearbyObjEq(180.5, -0.5, 120) as GN on G.objID = GN.objID \
                 where (G.flags & @saturated) = 0 \
                 order by distance",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        assert!(!outcome.result.is_empty());
        assert!(outcome.rows_affected > 0);
        // Distances come back sorted.
        let d = outcome.result.column_values("distance");
        for w in d.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // The temp table is queryable afterwards.
        let r = e.query("select count(*) from ##results").unwrap();
        assert_eq!(
            r.scalar().unwrap().as_i64().unwrap() as usize,
            outcome.rows_affected
        );
    }

    #[test]
    fn query15_shape_velocity_scan() {
        let e = engine();
        let r = e
            .query(
                "select objID, sqrt(rowv*rowv + colv*colv) as velocity from photoObj \
                 where (rowv*rowv + colv*colv) between 50 and 1000 and rowv >= 0 and colv >= 0",
            )
            .unwrap();
        assert_eq!(r.len(), 4, "the 4 synthetic movers");
        for row in &r.rows {
            let v = row[1].as_f64().unwrap();
            assert!((v - (200f64).sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn top_distinct_order_limits() {
        let e = engine();
        let r = e
            .query("select distinct type from photoObj order by type desc")
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(6));
        let r = e
            .query("select top 7 objID from photoObj order by objID")
            .unwrap();
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn public_limits_truncate_rows() {
        let mut e = engine();
        let outcome = e
            .execute(
                "select objID from photoObj",
                QueryLimits {
                    max_rows: Some(50),
                    max_seconds: Some(30.0),
                    max_bytes: None,
                },
            )
            .unwrap();
        assert_eq!(outcome.result.len(), 50);
        assert!(outcome.result.truncated);
    }

    #[test]
    fn insert_update_delete_round_trip() {
        let mut e = engine();
        e.execute(
            "create table notes (id bigint not null, txt varchar, primary key (id))",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        let o = e
            .execute(
                "insert into notes (id, txt) values (1, 'first'), (2, 'second')",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        assert_eq!(o.rows_affected, 2);
        let o = e
            .execute(
                "update notes set txt = 'edited' where id = 2",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        assert_eq!(o.rows_affected, 1);
        let r = e.query("select txt from notes where id = 2").unwrap();
        assert_eq!(r.scalar(), Some(&Value::str("edited")));
        let o = e
            .execute("delete from notes where id = 1", QueryLimits::UNLIMITED)
            .unwrap();
        assert_eq!(o.rows_affected, 1);
        let r = e.query("select count(*) from notes").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn an_updated_row_keeps_its_load_timestamp_for_undo() {
        let mut e = engine();
        e.execute(
            "create table notes (id bigint not null, txt varchar, primary key (id))",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        let db = e.db_mut();
        let ts = db.next_timestamp();
        let batch = (0..3)
            .map(|i| vec![Value::Int(i), Value::str("loaded")])
            .collect();
        db.insert_many("notes", batch, ts).unwrap();
        let o = e
            .execute(
                "update notes set txt = 'edited' where id = 0",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        assert_eq!(o.rows_affected, 1);
        // The statement still ticks the clock: a caller that undoes "the
        // stamp of the last write" must not get the batch's.
        assert_eq!(e.db().current_timestamp(), ts + 1);
        assert_eq!(
            e.db_mut()
                .delete_by_timestamp_range("notes", ts, ts)
                .unwrap(),
            3,
            "the load step's UNDO removes the updated row too"
        );
        let r = e.query("select count(*) from notes").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn insert_from_select_and_create_index() {
        let mut e = engine();
        e.execute(
            "create table bright (objID bigint not null, modelMag_r float not null)",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        let o = e
            .execute(
                "insert into bright select objID, modelMag_r from photoObj where modelMag_r < 16",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        assert!(o.rows_affected > 0);
        e.execute(
            "create index ix_bright on bright (modelMag_r) include (objID)",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        let r = e.query("select count(*) from bright").unwrap();
        assert_eq!(
            r.scalar().unwrap().as_i64().unwrap() as usize,
            o.rows_affected
        );
    }

    #[test]
    fn create_view_via_sql() {
        let mut e = engine();
        e.execute(
            "create view BrightGalaxy as select * from photoObj where type = 3 and modelMag_r < 17",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        let r = e.query("select count(*) from BrightGalaxy").unwrap();
        let n = r.scalar().unwrap().as_i64().unwrap();
        assert!(n > 0 && n < 100);
    }

    /// The catalog keeps a view's body as written: DISTINCT, a JOIN's
    /// kind and ON, GROUP BY, TOP and ORDER BY all reach the view's readers.
    #[test]
    fn create_view_stores_the_query_it_was_given() {
        let mut e = engine();
        for sql in [
            "create table t (a int, b int)",
            "create table u (a int)",
            "insert into t (a, b) values (1, 1), (1, 2), (2, 3), (2, 4), (3, 5), (3, 6)",
            "insert into u (a) values (1), (2), (3)",
        ] {
            e.execute_unlimited(sql).unwrap();
        }
        let sorted = |e: &SqlEngine, sql: &str| {
            let mut rows = e.query(sql).unwrap().rows;
            rows.sort();
            rows
        };
        for (name, body, n) in [
            ("v_distinct", "select distinct a from t", 3),
            ("v_join", "select t.a, t.b from t join u on t.a = u.a", 6),
            ("v_group", "select a, count(*) as n from t group by a", 3),
            ("v_top", "select top 2 a, b from t order by b desc", 2),
        ] {
            e.execute_unlimited(&format!("create view {name} as {body};"))
                .unwrap();
            let stored = e.db().views().find(|v| v.name == name).unwrap();
            assert_eq!(
                parse_select(&stored.sql).unwrap(),
                parse_select(body).unwrap()
            );
            let direct = sorted(&e, body);
            assert_eq!(direct.len(), n, "{body}");
            assert_eq!(
                sorted(&e, &format!("select * from {name}")),
                direct,
                "{body}"
            );
        }
    }

    #[test]
    fn explain_shows_plan_shape() {
        let e = engine();
        let plan = e
            .explain(
                "select G.objID, GN.distance from Galaxy as G \
                 join fGetNearbyObjEq(180.5, -0.5, 120) as GN on G.objID = GN.objID \
                 where (G.flags & 64) = 0 order by distance",
            )
            .unwrap();
        assert!(plan.contains("TableFunction(fGetNearbyObjEq"));
        assert!(plan.contains("index lookup pk_photoObj"));
        assert!(plan.contains("Sort(distance)"));
        let class = e
            .plan_summary("select count(*) from photoObj where ra + dec > 0")
            .unwrap()
            .class;
        assert_eq!(class, PlanClass::Scan);
    }

    #[test]
    fn left_join_where_filters_after_null_extension() {
        let mut e = engine();
        e.execute(
            "create table a (id bigint not null, primary key (id))",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        e.execute(
            "create table b (id bigint not null, x bigint not null, primary key (id))",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        e.execute("insert into a (id) values (1), (2)", QueryLimits::UNLIMITED)
            .unwrap();
        e.execute(
            "insert into b (id, x) values (1, 5)",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        // A WHERE predicate on the nullable side filters the NULL-extended
        // row out: only the matched row survives.
        let r = e
            .query("select a.id from a left join b on a.id = b.id where b.x = 5")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        // The anti-join idiom keeps exactly the unmatched row.
        let r = e
            .query("select a.id from a left join b on a.id = b.id where b.x is null")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
        // Without a WHERE, both rows come back (one NULL-extended).
        let r = e
            .query("select a.id, b.x from a left join b on a.id = b.id order by a.id")
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[1][1], Value::Null);
    }

    #[test]
    fn left_join_against_a_merged_view_preserves_outer_rows() {
        let e = engine();
        // No star is a galaxy, so every one of the 100 stars is preserved
        // NULL-extended.  The Galaxy view's qualifiers must filter the
        // *scan*, not the joined result — otherwise the NULL rows vanish.
        let r = e
            .query("select count(*) from Star s left join Galaxy g on s.objID = g.objID")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(100)));
        let r = e
            .query(
                "select count(*) from Star s left join Galaxy g on s.objID = g.objID \
                 where g.objID is null",
            )
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(100)));
    }

    #[test]
    fn explain_lists_fired_rules_for_figure_10_and_11_shapes() {
        let mut e = engine();
        // Figure 10: a spatial table-valued function drives a nested-loop
        // join that probes the objID B-tree.
        let fig10 = e
            .explain(
                "select G.objID, GN.distance from Galaxy as G \
                 join fGetNearbyObjEq(180.5, -0.5, 120) as GN on G.objID = GN.objID \
                 where (G.flags & 64) = 0 order by distance",
            )
            .unwrap();
        assert!(fig10.contains("TableFunction(fGetNearbyObjEq"));
        assert!(fig10.contains("-- optimizer rules fired:"));
        for rule in [
            "view_merge",
            "predicate_pushdown",
            "spatial_join_rewrite",
            "join_strategy",
        ] {
            assert!(fig10.contains(rule), "{rule} missing from:\n{fig10}");
        }
        // Figure 11: an unindexed arithmetic predicate falls back to a
        // parallel sequential scan (threshold lowered below the 200 rows).
        e.set_parallel_scan_threshold(100);
        let fig11 = e
            .explain("select count(*) from photoObj where (rowv*rowv + colv*colv) > 1")
            .unwrap();
        assert!(fig11.contains("ParallelTableScan(photoObj"), "{fig11}");
        assert!(fig11.contains("parallel_scan_fallback"), "{fig11}");
        // And the plan summary agrees.
        let summary = e
            .plan_summary("select count(*) from photoObj where (rowv*rowv + colv*colv) > 1")
            .unwrap();
        assert_eq!(summary.class, PlanClass::Scan);
        assert!(summary.rules_fired.contains(&"parallel_scan_fallback"));
    }

    #[test]
    fn parallel_scan_returns_the_same_rows_as_serial() {
        let serial = engine();
        let mut parallel = engine();
        parallel.set_parallel_scan_threshold(1);
        let sql = "select objID from photoObj where modelMag_r < 18 order by objID";
        let a = serial.query(sql).unwrap();
        let b = parallel.query(sql).unwrap();
        assert_eq!(a.rows, b.rows);
        assert!(!a.rows.is_empty());
    }

    #[test]
    fn unknown_names_fail_at_plan_time_however_many_rows_qualify() {
        let e = engine();
        // Over empty and non-empty inputs alike: binding needs no first row.
        for (select, tail) in [
            ("noSuchColumn", ""),
            ("dbo.fMissing(1)", ""),
            ("objID", " order by noSuch"),
            ("type, count(*)", " group by type having max(noSuch) > 1"),
        ] {
            for filter in ["objID = -1", "1 = 0", "objID < 50"] {
                let sql = format!("select {select} from photoObj where {filter}{tail}");
                let err = e.explain(&sql).expect_err(&sql);
                if select.contains("fMissing") {
                    assert!(matches!(err, SqlError::UnknownFunction(_)), "{sql}: {err}");
                } else {
                    assert!(matches!(err, SqlError::Plan(_)), "{sql}: {err}");
                }
                assert_eq!(e.query(&sql).unwrap_err(), err, "{sql}");
            }
        }
        // UPDATE binds its assignments before it looks for victims.
        let mut e = e;
        for value in ["dbo.fNoSuch(1)", "noSuchColumn"] {
            for filter in ["objID = -1", "1 = 0", "objID < 50"] {
                let sql = format!("update photoObj set objID = {value} where {filter}");
                let err = e.execute(&sql, QueryLimits::UNLIMITED).expect_err(&sql);
                if value.contains("fNoSuch") {
                    assert!(matches!(err, SqlError::UnknownFunction(_)), "{sql}: {err}");
                } else {
                    assert!(matches!(err, SqlError::Plan(_)), "{sql}: {err}");
                }
            }
        }
    }

    /// An integer result outside 64 bits is T-SQL's error 8115, raised as
    /// a statement error: neither a panic nor a wrapped value.
    fn assert_overflow(sql: &str) {
        let err = engine().query(sql).expect_err(sql);
        assert!(
            matches!(&err, SqlError::Execution(m) if m.contains("arithmetic overflow")),
            "{sql}: {err}"
        );
    }

    #[test]
    fn modulo_of_the_smallest_bigint_by_minus_one_is_an_overflow_error() {
        assert_overflow("select (-9223372036854775807 - 1) % -1");
    }

    #[test]
    fn negating_the_smallest_bigint_is_an_overflow_error() {
        assert_overflow("select -(-9223372036854775807 - 1)");
    }

    #[test]
    fn adding_past_the_largest_bigint_is_an_overflow_error() {
        assert_overflow("select 9223372036854775807 + 1");
    }

    #[test]
    fn abs_of_the_smallest_bigint_is_an_overflow_error() {
        assert_overflow("select abs(-9223372036854775807 - 1)");
    }

    /// How T-SQL's three-valued logic reads `probe`: 1 true, 0 false, -1
    /// unknown (neither `probe` nor `NOT probe` takes the branch).
    fn case_answer(probe: &str) -> Value {
        let sql = format!("select case when {probe} then 1 when not ({probe}) then 0 else -1 end");
        engine().query(&sql).unwrap().rows[0][0].clone()
    }

    /// Rows of the test table a `WHERE predicate` keeps.
    fn where_count(predicate: &str) -> Value {
        let sql = format!("select count(*) from photoObj where {predicate}");
        engine().query(&sql).unwrap().rows[0][0].clone()
    }

    #[test]
    fn not_in_with_a_null_member_and_no_match_is_unknown() {
        assert_eq!(case_answer("1 not in (2, null)"), Value::Int(-1));
        assert_eq!(case_answer("1 not in (1, null)"), Value::Int(0));
        // 100 stars have type 6: none is kept, as SQL Server keeps none.
        assert_eq!(where_count("type not in (3, null)"), Value::Int(0));
        assert_eq!(where_count("rowv not in (0.0, null)"), Value::Int(0));
    }

    #[test]
    fn in_with_a_null_member_is_true_on_a_match_and_unknown_otherwise() {
        assert_eq!(case_answer("1 in (2, null)"), Value::Int(-1));
        assert_eq!(case_answer("1 in (null, 1)"), Value::Int(1));
        assert_eq!(where_count("type in (6, null)"), Value::Int(100));
    }

    #[test]
    fn not_between_a_null_bound_is_true_when_the_other_bound_decides() {
        assert_eq!(case_answer("10 not between null and 5"), Value::Int(1));
        assert_eq!(case_answer("3 not between null and 5"), Value::Int(-1));
        assert_eq!(case_answer("3 not between 5 and null"), Value::Int(1));
        assert_eq!(
            where_count("objID not between null and 49"),
            Value::Int(150)
        );
        assert_eq!(
            where_count("modelMag_r not between null and 15.5"),
            Value::Int(182)
        );
    }

    #[test]
    fn between_a_null_bound_is_false_when_the_other_bound_decides() {
        assert_eq!(case_answer("10 between null and 5"), Value::Int(0));
        assert_eq!(case_answer("3 between null and 5"), Value::Int(-1));
        assert_eq!(case_answer("3 between null and null"), Value::Int(-1));
        assert_eq!(where_count("objID between 150 and null"), Value::Int(0));
        assert_eq!(where_count("objID between null and 49"), Value::Int(0));
    }

    #[test]
    fn limit_hint_stops_the_scan_early() {
        let mut e = engine();
        let sql = "select top 5 objID from photoObj";
        let outcome = e.execute(sql, QueryLimits::UNLIMITED).unwrap();
        assert_eq!(outcome.result.len(), 5);
        // An objID-only query is answered from the covering pk index, and
        // the hint stops that scan after 5 entries instead of all 200.
        assert_eq!(outcome.stats.stats.rows_from_index, 5);
        assert_eq!(outcome.stats.stats.rows_scanned, 0);
        assert!(e.explain(sql).unwrap().contains("limit 5"));
    }

    #[test]
    fn stats_report_rows_and_wall_time() {
        let mut e = engine();
        let o = e
            .execute(
                "select count(*) from photoObj where (rowv*rowv + colv*colv) > 1",
                QueryLimits::UNLIMITED,
            )
            .unwrap();
        assert_eq!(o.stats.stats.rows_scanned, 200);
        assert!(o.stats.stats.bytes_scanned > 0);
        assert!(o.stats.wall_seconds >= 0.0);
    }

    #[test]
    fn errors_are_reported() {
        let mut e = engine();
        assert!(e.query("select * from missing_table").is_err());
        assert!(e.query("select nonsense syntax here from").is_err());
        assert!(e.query("select dbo.fMissing(1) from photoObj").is_err());
        assert!(e
            .execute(
                "insert into photoObj (objID) values (1, 2)",
                QueryLimits::UNLIMITED
            )
            .is_err());
    }

    #[test]
    fn read_path_runs_declare_set_select_through_shared_ref() {
        let e = engine();
        // A full DECLARE/SET/SELECT script through `&self`.
        let outcome = e
            .execute_read(
                "declare @saturated bigint; \
                 set @saturated = dbo.fPhotoFlags('saturated'); \
                 select count(*) from photoObj where (flags & @saturated) = 0",
                QueryLimits::UNLIMITED,
                None,
                None,
            )
            .unwrap();
        assert_eq!(outcome.result.scalar(), Some(&Value::Int(180)));
        // The script's variables stayed local to the call.
        assert_eq!(e.variable("saturated"), None);
        // Counters observed both the select and its rows.
        let stats = e.counters();
        assert_eq!(stats.read_path_selects, 1);
        assert_eq!(stats.selects, 1);
        assert_eq!(stats.rows_returned, 1);
    }

    #[test]
    fn read_path_sees_session_variables_but_cannot_change_them() {
        let mut e = engine();
        e.execute(
            "declare @limit float; set @limit = 16.0",
            QueryLimits::UNLIMITED,
        )
        .unwrap();
        let r = e
            .execute_read(
                "select count(*) from photoObj where modelMag_r < @limit",
                QueryLimits::UNLIMITED,
                None,
                None,
            )
            .unwrap();
        assert!(r.result.scalar().unwrap().as_i64().unwrap() > 0);
        // Shadowing the variable inside a read script does not leak back.
        e.execute_read(
            "set @limit = 99.0; select 1",
            QueryLimits::UNLIMITED,
            None,
            None,
        )
        .unwrap();
        assert_eq!(e.variable("limit"), Some(Value::Float(16.0)));
    }

    #[test]
    fn read_path_rejects_writes() {
        let e = engine();
        for sql in [
            "insert into photoObj (objID) values (999)",
            "update photoObj set ra = 0 where objID = 1",
            "delete from photoObj where objID = 1",
            "create table t (id bigint not null)",
            "drop table photoObj",
            "select objID into ##tmp from photoObj",
        ] {
            match e.execute_read(sql, QueryLimits::UNLIMITED, None, None) {
                Err(SqlError::ReadOnly(_)) => {}
                other => panic!("{sql} should be rejected as read-only, got {other:?}"),
            }
        }
        // Nothing was written.
        assert_eq!(
            e.query("select count(*) from photoObj").unwrap().scalar(),
            Some(&Value::Int(200))
        );
    }

    #[test]
    fn concurrent_read_queries_share_one_engine() {
        let e = engine();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in 0..8i64 {
                let e = &e;
                handles.push(scope.spawn(move || {
                    for _ in 0..5 {
                        let r = e
                            .query(&format!(
                                "select count(*) from photoObj where objID < {}",
                                (i + 1) * 10
                            ))
                            .unwrap();
                        assert_eq!(r.scalar(), Some(&Value::Int((i + 1) * 10)));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(e.counters().selects, 40);
    }

    #[test]
    fn monitor_reports_progress_and_cancels_a_running_scan() {
        let e = engine();
        // A completed scan reports every processed row.
        let m = QueryMonitor::new();
        let r = e
            .execute_read(
                "select count(*) from photoObj where modelMag_r > 0",
                QueryLimits::UNLIMITED,
                Some(&m),
                None,
            )
            .unwrap();
        assert_eq!(r.result.scalar(), Some(&Value::Int(200)));
        assert_eq!(m.rows_processed(), 200, "all scanned rows reported");
        // A pre-cancelled monitor stops the query at the first batch
        // boundary (the table is smaller than one batch, so cancel before
        // starting to make the effect deterministic).
        let m = QueryMonitor::new();
        m.cancel();
        // Nested loop over 200x200 = 40k probes crosses many batch
        // boundaries; cancellation must surface as SqlError::Cancelled.
        let err = e
            .execute_read(
                "select count(*) from photoObj a join photoObj b on a.objID < b.objID",
                QueryLimits::UNLIMITED,
                Some(&m),
                None,
            )
            .unwrap_err();
        assert_eq!(err, SqlError::Cancelled);
    }

    #[test]
    fn cancelling_mid_flight_stops_a_long_join() {
        let e = std::sync::Arc::new(engine());
        let m = std::sync::Arc::new(QueryMonitor::new());
        // Pace the query before it starts so it cannot finish before the
        // cancel lands (~150 batches x 2 ms >> the time to cancel).
        m.set_pace(std::time::Duration::from_millis(2));
        let worker = {
            let e = std::sync::Arc::clone(&e);
            let m = std::sync::Arc::clone(&m);
            std::thread::spawn(move || {
                e.execute_read(
                    // ~40k nested-loop probes: slow enough to observe, fast
                    // enough for CI if cancellation were broken.
                    "select count(*) from photoObj a join photoObj b on a.objID < b.objID",
                    QueryLimits::UNLIMITED,
                    Some(&m),
                    None,
                )
            })
        };
        while m.rows_processed() == 0 {
            std::thread::yield_now();
        }
        m.cancel();
        let result = worker.join().unwrap();
        assert_eq!(result.unwrap_err(), SqlError::Cancelled);
        // Progress halted: the counter does not advance after cancellation.
        let frozen = m.rows_processed();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(m.rows_processed(), frozen);
    }

    #[test]
    fn cancellation_lands_even_when_every_join_probe_misses() {
        // objID (0..200) never equals htmID (100_000..): the join produces
        // zero matches, so cancellation must be honoured on the probes
        // themselves, not only on per-match work.
        let e = engine();
        let m = QueryMonitor::new();
        m.cancel();
        let err = e
            .execute_read(
                "select count(*) from photoObj a join photoObj b on a.objID = b.htmID",
                QueryLimits::UNLIMITED,
                Some(&m),
                None,
            )
            .unwrap_err();
        assert_eq!(err, SqlError::Cancelled);
    }

    #[test]
    fn parallel_scan_workers_honour_the_monitor() {
        let mut e = engine();
        e.set_parallel_scan_threshold(1);
        let m = QueryMonitor::new();
        let r = e
            .execute_read(
                "select count(*) from photoObj where (rowv*rowv + colv*colv) > 1",
                QueryLimits::UNLIMITED,
                Some(&m),
                None,
            )
            .unwrap();
        assert_eq!(r.result.scalar(), Some(&Value::Int(4)));
        assert_eq!(m.rows_processed(), 200);
        let m = QueryMonitor::new();
        m.cancel();
        let err = e
            .execute_read(
                "select count(*) from photoObj where (rowv*rowv + colv*colv) > 1",
                QueryLimits::UNLIMITED,
                Some(&m),
                None,
            )
            .unwrap_err();
        assert_eq!(err, SqlError::Cancelled);
    }

    #[test]
    fn fromless_select_evaluates_expressions() {
        let e = engine();
        let r = e.query("select 1 + 1, pi()").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert!((r.rows[0][1].as_f64().unwrap() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn publish_release_pins_a_snapshot_for_as_of() {
        let mut e = engine();
        e.execute_unlimited("publish release dr1").unwrap();
        // Mutate the head after the publish; the snapshot must not move.
        e.execute_unlimited(
            "insert into photoObj (objID, htmID, ra, dec, type, flags, modelMag_r, rowv, colv) \
             values (9000, 109000, 181.0, 0.1, 3, 0, 16.0, 0.0, 0.0)",
        )
        .unwrap();
        let head = e.query("select count(*) from photoObj").unwrap();
        assert_eq!(head.scalar(), Some(&Value::Int(201)));
        let pinned = e.query("select count(*) from photoObj as of dr1").unwrap();
        assert_eq!(pinned.scalar(), Some(&Value::Int(200)));
        // Release names are case-insensitive on lookup.
        let pinned = e.query("select count(*) from photoObj as of DR1").unwrap();
        assert_eq!(pinned.scalar(), Some(&Value::Int(200)));
    }

    #[test]
    fn catalog_changes_reach_the_planner_and_releases_keep_their_definitions() {
        let mut e = engine();
        e.db_mut()
            .create_view("Later", "select * from Extra where id > 1", "")
            .unwrap();
        e.publish_release("dr1").unwrap();
        let count = |e: &SqlEngine, sql: &str| e.query(sql).unwrap().scalar().cloned();
        // Planning builds the catalog's view facts.
        assert_eq!(
            count(&e, "select count(*) from Galaxy"),
            Some(Value::Int(100))
        );
        assert!(
            e.query("select count(*) from Later").is_err(),
            "Extra is missing"
        );

        // A view dropped and recreated with another body.
        e.db_mut().drop_view("Galaxy").unwrap();
        e.db_mut()
            .create_view(
                "Galaxy",
                "select * from photoObj where type = 6 and objID < 20",
                "",
            )
            .unwrap();
        assert_eq!(
            count(&e, "select count(*) from Galaxy"),
            Some(Value::Int(10))
        );
        let explain = e.explain("select objID from Galaxy").unwrap();
        assert!(explain.contains("view_merge"), "{explain}");
        assert!(
            explain.contains("20"),
            "the new qualifier is merged: {explain}"
        );

        // A table created under an existing view makes that view bindable.
        e.execute_unlimited("create table Extra (id bigint not null)")
            .unwrap();
        e.execute_unlimited("insert into Extra (id) values (1)")
            .unwrap();
        e.execute_unlimited("insert into Extra (id) values (2)")
            .unwrap();
        assert_eq!(count(&e, "select count(*) from Later"), Some(Value::Int(1)));
        let explain = e.explain("select id from Later").unwrap();
        assert!(
            explain.contains("view_merge"),
            "Later merges onto Extra: {explain}"
        );

        // A statement pinned to the release still sees its definitions.
        let pinned = "select count(*) from Galaxy as of dr1";
        assert_eq!(count(&e, pinned), Some(Value::Int(100)));
        assert!(e.query("select count(*) from Later as of dr1").is_err());
    }

    #[test]
    fn as_of_matches_ambient_release_pin() {
        let mut e = engine();
        let query_on = |e: &SqlEngine, sql: &str, release| {
            e.execute_read(sql, QueryLimits::UNLIMITED, None, release)
                .map(|o| o.result)
        };
        e.publish_release("dr1").unwrap();
        e.execute_unlimited(
            "insert into photoObj (objID, htmID, ra, dec, type, flags, modelMag_r, rowv, colv) \
             values (9001, 109001, 181.0, 0.1, 6, 0, 16.0, 0.0, 0.0)",
        )
        .unwrap();
        let sql = "select count(*) from photoObj";
        let via_as_of = e.query(&format!("{sql} as of dr1")).unwrap();
        let via_param = query_on(&e, sql, Some("dr1")).unwrap();
        assert_eq!(via_as_of.rows, via_param.rows);
        // An explicit AS OF that agrees with the ambient pin is fine ...
        let both = query_on(&e, &format!("{sql} as of dr1"), Some("dr1")).unwrap();
        assert_eq!(both.rows, via_param.rows);
        // ... but a conflicting one is a planning error.
        e.publish_release("dr2").unwrap();
        let err = query_on(&e, &format!("{sql} as of dr2"), Some("dr1")).unwrap_err();
        assert!(matches!(err, SqlError::Plan(_)), "got {err:?}");
    }

    #[test]
    fn unknown_release_is_a_structured_error() {
        let e = engine();
        let err = e
            .query("select count(*) from photoObj as of dr9")
            .unwrap_err();
        assert_eq!(err, SqlError::UnknownRelease("dr9".into()));
        assert_eq!(err.code(), "unknown_release");
        let err = e
            .execute_read("select 1", QueryLimits::UNLIMITED, None, Some("nope"))
            .unwrap_err();
        assert_eq!(err, SqlError::UnknownRelease("nope".into()));
    }

    #[test]
    fn publish_release_is_rejected_on_the_read_path() {
        let mut e = engine();
        e.publish_release("dr1").unwrap();
        let err = e
            .execute_read("publish release dr2", QueryLimits::UNLIMITED, None, None)
            .unwrap_err();
        assert!(matches!(err, SqlError::ReadOnly(_)), "got {err:?}");
        // Duplicate publishes are refused: releases are immutable.
        let err = e.execute_unlimited("publish release dr1").unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)), "got {err:?}");
    }

    #[test]
    fn explain_and_verifier_see_the_release_pin() {
        let mut e = engine();
        e.publish_release("dr1").unwrap();
        let text = e
            .explain("select objID from photoObj where objID = 7 as of dr1")
            .unwrap();
        assert!(text.contains("-- release: dr1"), "missing pin in:\n{text}");
        let plain = e
            .explain("select objID from photoObj where objID = 7")
            .unwrap();
        assert!(!plain.contains("-- release:"), "spurious pin in:\n{plain}");
        let report = e
            .verify("select objID from photoObj where objID = 7 as of dr1")
            .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn insert_select_reads_the_pinned_snapshot() {
        let mut e = engine();
        e.execute_unlimited("create table frozen (objID int, modelMag_r float)")
            .unwrap();
        e.publish_release("dr1").unwrap();
        e.execute_unlimited(
            "insert into photoObj (objID, htmID, ra, dec, type, flags, modelMag_r, rowv, colv) \
             values (9002, 109002, 181.0, 0.1, 3, 0, 16.0, 0.0, 0.0)",
        )
        .unwrap();
        // Reads dr1 (200 rows), writes the live head.
        e.execute_unlimited("insert into frozen select objID, modelMag_r from photoObj as of dr1")
            .unwrap();
        let n = e.query("select count(*) from frozen").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(200)));
    }

    #[test]
    fn release_diff_reports_changed_tables() {
        let mut e = engine();
        e.publish_release("dr1").unwrap();
        e.execute_unlimited(
            "insert into photoObj (objID, htmID, ra, dec, type, flags, modelMag_r, rowv, colv) \
             values (9003, 109003, 181.0, 0.1, 3, 0, 16.0, 0.0, 0.0)",
        )
        .unwrap();
        e.publish_release("dr2").unwrap();
        let diff = e.release_diff("dr1", "dr2").unwrap();
        assert_eq!(diff.from, "dr1");
        assert_eq!(diff.to, "dr2");
        assert!(diff.tables.iter().any(|t| t.table == "photoObj"));
        let err = e.release_diff("dr1", "dr9").unwrap_err();
        assert_eq!(err, SqlError::UnknownRelease("dr9".into()));
    }

    #[test]
    fn fork_shares_releases_but_not_future_writes() {
        let mut e = engine();
        e.publish_release("dr1").unwrap();
        let fork = e.fork();
        assert_eq!(fork.release_names(), vec!["dr1".to_string()]);
        // Writes to the original do not appear in the fork.
        e.execute_unlimited(
            "insert into photoObj (objID, htmID, ra, dec, type, flags, modelMag_r, rowv, colv) \
             values (9004, 109004, 181.0, 0.1, 3, 0, 16.0, 0.0, 0.0)",
        )
        .unwrap();
        let n = fork.query("select count(*) from photoObj").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(200)));
    }
}
