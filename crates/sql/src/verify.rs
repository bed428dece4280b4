//! Static plan/program verification — the engine's analogue of LLVM's IR
//! verifier.
//!
//! [`verify_plan`] walks a finalized [`SelectPlan`] and structurally checks
//! every invariant the executor relies on but never re-validates at
//! runtime:
//!
//! * **Ordinal bounds** — every [`CompiledExpr`] program references only
//!   columns that exist in the exact runtime row layout it will be evaluated
//!   against: [`crate::planner::source_layout`] (a base table's scan
//!   columns) and its joins for everything that runs on a materialized row,
//!   the table's storage schema for a predicate the scan kernels evaluate.
//! * **Schema arithmetic** — the combined `input_schema` equals the join of
//!   the planned source schemas, accumulated step by step.
//! * **Zone-constraint soundness** — declared [`ZoneConstraint`]s name real
//!   columns of compatible types, require a fully *total* pushed predicate,
//!   and are never stricter than what re-derivation from that predicate
//!   yields (a stricter interval could skip segments holding matching rows).
//! * **Scan-column coverage** — the columns compiled programs actually read
//!   from a base-table source are a subset of the annotated per-alias
//!   scan-column list that is the source's row layout and what byte
//!   accounting charges.
//! * **Plan-shape consistency** — `rules_fired` agrees with the physical
//!   shape (e.g. a `limit_hint` appears only on base-table scans and only
//!   when `limit_pushdown` fired).
//!
//! The pass runs automatically after planner finalization in debug builds
//! and is exposed to users as `EXPLAIN VERIFY <select>` (and
//! [`crate::SqlEngine::verify`]) in every build.

use crate::exec::compile::{CompiledExpr, SortKey};
use crate::expr::RowSchema;
use crate::plan::{
    AccessPath, JoinStrategy, SeekSource, SelectPlan, SourceKind, SourcePlan, ZoneConstraint,
};
use crate::planner::annotate;
use skyserver_storage::{DataType, Database, TableSchema, Value};
use std::cmp::Ordering;
use std::fmt;

/// The structural invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A compiled program references a column ordinal outside the runtime
    /// row layout it executes against.
    OrdinalOutOfRange,
    /// The combined `input_schema` disagrees with the join of the planned
    /// source schemas.
    SchemaWidthMismatch,
    /// A compiled-program vector's length disagrees with the plan structure
    /// it parallels, or a program slot is filled where the plan has no such
    /// expression (or empty where it has one).
    ProgramArityMismatch,
    /// A declared zone constraint could prune a segment that contains
    /// satisfying rows (bad ordinal/type, non-total predicate, or an
    /// interval stricter than the pushed predicate implies).
    ZoneConstraintUnsound,
    /// A compiled program reads a base-table column missing from the
    /// annotated scan-column union byte accounting charges.
    ScanColumnNotCovered,
    /// `rules_fired`, annotations or hints disagree with the physical plan
    /// shape.
    PlanShapeInconsistent,
    /// A cardinality annotation is impossible (a base-table estimate above
    /// the table's live row count) or the annotation pass left holes.
    EstimateUnsound,
    /// The plan pins its scans to a release that is not in the engine's
    /// release catalog — executing it would read a snapshot that does not
    /// exist.
    UnknownRelease,
    /// A seek source's one forward walk would miss entries: its ranges
    /// are unsorted or overlap, or its index does not lead on the key the
    /// ranges bound.
    RangeSetUnsound,
}

impl ViolationKind {
    /// Stable lowercase identifier (tests and EXPLAIN VERIFY output).
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::OrdinalOutOfRange => "ordinal_out_of_range",
            ViolationKind::SchemaWidthMismatch => "schema_width_mismatch",
            ViolationKind::ProgramArityMismatch => "program_arity_mismatch",
            ViolationKind::ZoneConstraintUnsound => "zone_constraint_unsound",
            ViolationKind::ScanColumnNotCovered => "scan_column_not_covered",
            ViolationKind::PlanShapeInconsistent => "plan_shape_inconsistent",
            ViolationKind::EstimateUnsound => "estimate_unsound",
            ViolationKind::UnknownRelease => "unknown_release",
            ViolationKind::RangeSetUnsound => "range_set_unsound",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structural violation found by [`verify_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant is broken.
    pub kind: ViolationKind,
    /// Where in the plan (e.g. `sources[1].zone_constraints[0]`).
    pub site: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.kind, self.site, self.detail)
    }
}

/// The outcome of verifying one plan (including its derived sub-plans).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Number of compiled expression programs inspected.
    pub programs_checked: usize,
    /// Number of individual structural checks performed.
    pub checks_run: usize,
    /// Violations found; empty for a well-formed plan.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line success summary `EXPLAIN VERIFY` prints.
    pub fn summary(&self) -> String {
        format!(
            "plan verified: {} programs, {} checks",
            self.programs_checked, self.checks_run
        )
    }

    /// All violations, one per line (error messages).
    pub fn render_violations(&self) -> String {
        self.violations
            .iter()
            .map(Violation::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Verify a finalized plan against `db`. Walks derived sub-plans too.
/// Release pins are not checked (no catalog in scope); callers that know
/// the published releases use [`verify_plan_with_releases`].
pub fn verify_plan(plan: &SelectPlan, db: &Database) -> VerifyReport {
    verify_plan_with_releases(plan, db, None)
}

/// Verify a finalized plan against `db`, additionally checking that any
/// release the plan is pinned to exists in `releases` (the engine's release
/// catalog).  `None` skips the release check.
pub fn verify_plan_with_releases(
    plan: &SelectPlan,
    db: &Database,
    releases: Option<&[String]>,
) -> VerifyReport {
    let mut v = Verifier {
        db,
        releases,
        report: VerifyReport::default(),
    };
    v.verify(plan, "");
    v.report
}

struct Verifier<'a> {
    db: &'a Database,
    releases: Option<&'a [String]>,
    report: VerifyReport,
}

impl Verifier<'_> {
    fn violation(&mut self, kind: ViolationKind, site: String, detail: String) {
        self.report
            .violations
            .push(Violation { kind, site, detail });
    }

    fn check(
        &mut self,
        ok: bool,
        kind: ViolationKind,
        site: &str,
        detail: impl FnOnce() -> String,
    ) {
        self.report.checks_run += 1;
        if !ok {
            self.violation(kind, site.to_string(), detail());
        }
    }

    /// A program slot must be filled exactly when the plan has the
    /// expression it compiles.
    fn check_slot(&mut self, site: String, compiled: bool, planned: bool) {
        self.check(
            compiled == planned,
            ViolationKind::ProgramArityMismatch,
            &site,
            || format!("program present: {compiled}, plan expression present: {planned}"),
        );
    }

    fn verify(&mut self, plan: &SelectPlan, prefix: &str) {
        self.check_release(plan, prefix);
        self.check_join_count(plan, prefix);
        self.check_lookup_paths(plan, prefix);
        self.check_input_schema(plan, prefix);
        self.check_sources(plan, prefix);
        self.check_estimates(plan, prefix);
        self.check_programs(plan, prefix);
        for (i, source) in plan.sources.iter().enumerate() {
            if let SourceKind::Derived { plan: sub } = &source.kind {
                self.verify(sub, &format!("{prefix}sources[{i}].derived."));
            }
        }
    }

    /// A pinned release must exist in the catalog the caller handed us.
    fn check_release(&mut self, plan: &SelectPlan, prefix: &str) {
        let (Some(pinned), Some(known)) = (&plan.release, self.releases) else {
            return;
        };
        self.check(
            known.iter().any(|r| r.eq_ignore_ascii_case(pinned)),
            ViolationKind::UnknownRelease,
            &format!("{prefix}release"),
            || {
                format!(
                    "plan is pinned to release {pinned} which is not in the \
                     catalog ({})",
                    if known.is_empty() {
                        "no releases published".to_string()
                    } else {
                        known.join(", ")
                    }
                )
            },
        );
    }

    /// `joins[i]` connects `sources[i + 1]`; the counts must agree.
    fn check_join_count(&mut self, plan: &SelectPlan, prefix: &str) {
        let expected = plan.sources.len().saturating_sub(1);
        self.check(
            plan.joins.len() == expected,
            ViolationKind::PlanShapeInconsistent,
            &format!("{prefix}joins"),
            || {
                format!(
                    "{} sources need {} join steps, plan has {}",
                    plan.sources.len(),
                    expected,
                    plan.joins.len()
                )
            },
        );
    }

    /// An index-lookup step reads its inner table through the probed index
    /// and nothing else, so the inner's path must be an equality seek of
    /// that index on the lookup column: EXPLAIN prints what runs.
    fn check_lookup_paths(&mut self, plan: &SelectPlan, prefix: &str) {
        for (i, (step, inner)) in plan
            .joins
            .iter()
            .zip(plan.sources.iter().skip(1))
            .enumerate()
        {
            let JoinStrategy::IndexLookup {
                index,
                inner_column,
                ..
            } = &step.strategy
            else {
                continue;
            };
            let seeks_it = matches!(
                &inner.kind,
                SourceKind::Table {
                    path: AccessPath::IndexSeek { index: path_index, bounds },
                    ..
                } if path_index.eq_ignore_ascii_case(index)
                    && bounds.column.eq_ignore_ascii_case(inner_column)
                    && bounds.equals.is_some()
            );
            self.check(
                seeks_it,
                ViolationKind::PlanShapeInconsistent,
                &format!("{prefix}sources[{}]", i + 1),
                || format!("joins[{i}] probes {index} on {inner_column}, its inner path is not that seek"),
            );
        }
    }

    /// Check (b): left width + right width accumulates to `input_schema`.
    fn check_input_schema(&mut self, plan: &SelectPlan, prefix: &str) {
        let mut planned = RowSchema::default();
        for (i, source) in plan.sources.iter().enumerate() {
            planned = planned.join(&source.schema);
            let prefix_width = planned.len();
            self.check(
                plan.input_schema.len() >= prefix_width,
                ViolationKind::SchemaWidthMismatch,
                &format!("{prefix}input_schema"),
                || {
                    format!(
                        "sources[0..={i}] contribute {prefix_width} columns but \
                         input_schema has only {}",
                        plan.input_schema.len()
                    )
                },
            );
        }
        self.check(
            plan.input_schema == planned,
            ViolationKind::SchemaWidthMismatch,
            &format!("{prefix}input_schema"),
            || {
                format!(
                    "input_schema ({} columns) is not the join of the planned \
                     source schemas ({} columns)",
                    plan.input_schema.len(),
                    planned.len()
                )
            },
        );
    }

    /// Checks (c) and the per-source half of (e): zone constraints, scan
    /// columns, limit hints, access-path/rule agreement.
    fn check_sources(&mut self, plan: &SelectPlan, prefix: &str) {
        for (i, source) in plan.sources.iter().enumerate() {
            let site = format!("{prefix}sources[{i}]");
            match &source.kind {
                SourceKind::Table { table, path } => {
                    if let AccessPath::ParallelHeapScan { .. } = path {
                        self.check(
                            plan.rules_fired.contains(&"parallel_scan_fallback"),
                            ViolationKind::PlanShapeInconsistent,
                            &site,
                            || {
                                "parallel heap scan without parallel_scan_fallback \
                                 in rules_fired"
                                    .to_string()
                            },
                        );
                    }
                    let Ok(t) = self.db.table(table) else {
                        self.violation(
                            ViolationKind::PlanShapeInconsistent,
                            site,
                            format!("source table {table} does not exist"),
                        );
                        continue;
                    };
                    let schema = t.schema().clone();
                    self.check_zone_constraints(source, &schema, &site);
                    if let Some(cols) = &source.scan_columns {
                        for (c, ordinal) in cols.iter().enumerate() {
                            self.check(
                                *ordinal < schema.columns().len(),
                                ViolationKind::OrdinalOutOfRange,
                                &format!("{site}.scan_columns[{c}]"),
                                || {
                                    format!(
                                        "storage ordinal {ordinal} out of range for \
                                         {table} ({} columns)",
                                        schema.columns().len()
                                    )
                                },
                            );
                        }
                    }
                }
                SourceKind::Seek(seek) => self.check_seek(source, seek, &site),
                _ => {
                    self.check(
                        source.zone_constraints.is_empty(),
                        ViolationKind::PlanShapeInconsistent,
                        &site,
                        || "zone constraints on a non-base-table source".to_string(),
                    );
                    self.check(
                        source.scan_columns.is_none(),
                        ViolationKind::PlanShapeInconsistent,
                        &site,
                        || "scan columns annotated on a non-base-table source".to_string(),
                    );
                    self.check(
                        source.limit_hint.is_none(),
                        ViolationKind::PlanShapeInconsistent,
                        &site,
                        || "limit hint on a non-base-table source".to_string(),
                    );
                }
            }
            if source.limit_hint.is_some() {
                self.check(
                    plan.rules_fired.contains(&"limit_pushdown"),
                    ViolationKind::PlanShapeInconsistent,
                    &site,
                    || "limit hint without limit_pushdown in rules_fired".to_string(),
                );
            }
        }
    }

    /// A seek source: its ranges can be walked in one forward pass over an
    /// index that leads on the form's key, its columns exist, and nothing
    /// was pushed into it (its rows are built from the runs, not filtered
    /// in the scan kernels).
    fn check_seek(&mut self, source: &SourcePlan, seek: &SeekSource, site: &str) {
        if let Some(fault) = seek.cover.as_ref().and_then(|c| c.range_fault()) {
            self.violation(
                ViolationKind::RangeSetUnsound,
                site.to_string(),
                format!("{}: {fault}", seek.function),
            );
        }
        if let Some(index) = &seek.index {
            let key = &seek.form.key;
            let leads = self
                .db
                .index(&seek.table, index)
                .map(|i| i.def().leading_column());
            self.check(
                leads.is_some_and(|c| c.eq_ignore_ascii_case(key)),
                ViolationKind::RangeSetUnsound,
                site,
                || format!("index {index} does not lead on the ranges' key {key}"),
            );
        }
        let width = self
            .db
            .table(&seek.table)
            .map_or(0, |t| t.schema().columns().len());
        let ordinals = seek.outputs.iter().flatten().chain(&seek.tested);
        if let Some(c) = ordinals.copied().find(|&c| c >= width) {
            self.violation(
                ViolationKind::OrdinalOutOfRange,
                site.to_string(),
                format!("storage ordinal {c} out of range for {}", seek.table),
            );
        }
        let outputs = source.schema.len();
        for (c, position) in source.scan_columns.iter().flatten().enumerate() {
            self.check(
                *position < outputs,
                ViolationKind::OrdinalOutOfRange,
                &format!("{site}.scan_columns[{c}]"),
                || format!("output column {position} of {outputs}"),
            );
        }
        self.check(
            source.pushed_predicate.is_none() && source.zone_constraints.is_empty(),
            ViolationKind::PlanShapeInconsistent,
            site,
            || "a predicate pushed into a seek source".to_string(),
        );
    }

    /// Cardinality annotations: when the statistics pass stamped the plan
    /// (`plan.est_rows` present) it must have stamped *every* node, and a
    /// base-table estimate can never exceed the table's live row count (the
    /// model clamps at the base cardinality — a larger number means the
    /// annotation drifted from the plan it describes).
    fn check_estimates(&mut self, plan: &SelectPlan, prefix: &str) {
        if plan.est_rows.is_none() {
            // Unannotated plan (e.g. constructed directly in tests): the
            // absence of per-node estimates is consistent.
            return;
        }
        for (i, source) in plan.sources.iter().enumerate() {
            let site = format!("{prefix}sources[{i}]");
            let Some(est) = source.est_rows else {
                self.violation(
                    ViolationKind::EstimateUnsound,
                    site,
                    "plan is annotated but this source carries no est_rows".to_string(),
                );
                continue;
            };
            let table = match &source.kind {
                SourceKind::Table { table, .. } => Some(table),
                SourceKind::Seek(seek) => Some(&seek.table),
                _ => None,
            };
            if let Some(table) = table {
                if let Ok(t) = self.db.table(table) {
                    let rows = t.row_count() as u64;
                    self.check(
                        est <= rows.max(1),
                        ViolationKind::EstimateUnsound,
                        &site,
                        || {
                            format!(
                                "base-table estimate {est} exceeds {table}'s live \
                                 row count {rows}"
                            )
                        },
                    );
                }
            }
        }
        for (i, step) in plan.joins.iter().enumerate() {
            self.check(
                step.est_rows.is_some(),
                ViolationKind::EstimateUnsound,
                &format!("{prefix}joins[{i}]"),
                || "plan is annotated but this join step carries no est_rows".to_string(),
            );
        }
    }

    /// Check (c): every declared zone constraint must be satisfiable-set
    /// preserving — bad ordinals, type mismatches, non-total predicates or
    /// intervals stricter than re-derivation yields are all unsound.
    fn check_zone_constraints(&mut self, source: &SourcePlan, schema: &TableSchema, site: &str) {
        if source.zone_constraints.is_empty() {
            return;
        }
        let zsite = format!("{site}.zone_constraints");
        let Some(pred) = &source.pushed_predicate else {
            self.violation(
                ViolationKind::ZoneConstraintUnsound,
                zsite,
                "zone constraints declared without a pushed predicate".to_string(),
            );
            return;
        };
        self.check(
            pred.conjuncts()
                .iter()
                .all(|c| annotate::is_total(c, &source.alias, schema)),
            ViolationKind::ZoneConstraintUnsound,
            &zsite,
            || {
                "zone constraints declared but a pushed conjunct is not total \
                 (pruning could suppress an execution error)"
                    .to_string()
            },
        );
        let derived = annotate::zone_constraints(pred, &source.alias, schema);
        for (z, constraint) in source.zone_constraints.iter().enumerate() {
            let csite = format!("{site}.zone_constraints[{z}]");
            self.report.checks_run += 1;
            if constraint.ordinal >= schema.columns().len() {
                self.violation(
                    ViolationKind::OrdinalOutOfRange,
                    csite,
                    format!(
                        "constraint ordinal {} out of range ({} columns)",
                        constraint.ordinal,
                        schema.columns().len()
                    ),
                );
                continue;
            }
            let col = &schema.columns()[constraint.ordinal];
            self.check(
                col.name == constraint.column,
                ViolationKind::ZoneConstraintUnsound,
                &csite,
                || {
                    format!(
                        "constraint names column {} but ordinal {} is {}",
                        constraint.column, constraint.ordinal, col.name
                    )
                },
            );
            for (value, _) in constraint.low.iter().chain(constraint.high.iter()) {
                self.check(
                    bound_type_compatible(value, col.ty),
                    ViolationKind::ZoneConstraintUnsound,
                    &csite,
                    || {
                        format!(
                            "bound {value} is type-incompatible with {} column {}",
                            col.ty, col.name
                        )
                    },
                );
            }
            match derived.iter().find(|d| d.ordinal == constraint.ordinal) {
                None => self.violation(
                    ViolationKind::ZoneConstraintUnsound,
                    csite,
                    format!(
                        "pushed predicate implies no interval for column {}",
                        constraint.column
                    ),
                ),
                Some(d) => {
                    self.check(
                        !bound_stricter(&constraint.low, &d.low, Ordering::Greater),
                        ViolationKind::ZoneConstraintUnsound,
                        &csite,
                        || stricter_detail(constraint, d, "lower"),
                    );
                    self.check(
                        !bound_stricter(&constraint.high, &d.high, Ordering::Less),
                        ViolationKind::ZoneConstraintUnsound,
                        &csite,
                        || stricter_detail(constraint, d, "upper"),
                    );
                }
            }
        }
    }

    /// Checks (a), (d) and the program half of the arity checks: reconstruct
    /// the executor's runtime row layouts exactly as program compilation did
    /// and bound every compiled ordinal against them.
    fn check_programs(&mut self, plan: &SelectPlan, prefix: &str) {
        let programs = &plan.programs;
        let site = |s: &str| format!("{prefix}programs.{s}");

        // Arity: program vectors parallel the plan structure.
        let arity: [(&str, usize, usize); 8] = [
            (
                "source_predicates",
                programs.source_predicates.len(),
                plan.sources.len(),
            ),
            (
                "join_outer_keys",
                programs.join_outer_keys.len(),
                plan.joins.len(),
            ),
            (
                "join_hash_keys",
                programs.join_hash_keys.len(),
                plan.joins.len(),
            ),
            (
                "join_residuals",
                programs.join_residuals.len(),
                plan.joins.len(),
            ),
            (
                "projections",
                programs.projections.len(),
                plan.projections.len(),
            ),
            (
                "source_runs",
                programs.source_runs.len(),
                plan.sources.len(),
            ),
            ("group_by", programs.group_by.len(), plan.group_by.len()),
            ("order_by", programs.order_by.len(), plan.order_by.len()),
        ];
        for (name, got, want) in arity {
            self.check(
                got == want,
                ViolationKind::ProgramArityMismatch,
                &site(name),
                || format!("{got} programs for {want} plan slots"),
            );
        }
        // Completeness: a slot holds a program exactly when the plan has the
        // expression — the executor runs nothing but programs.
        self.check_slot(
            site("having"),
            programs.having.is_some(),
            plan.having.is_some(),
        );
        self.check_slot(
            site("residual"),
            programs.residual.is_some(),
            plan.residual.is_some(),
        );
        for (i, (p, source)) in programs
            .source_predicates
            .iter()
            .zip(&plan.sources)
            .enumerate()
        {
            self.check_slot(
                site(&format!("source_predicates[{i}]")),
                p.is_some(),
                source.pushed_predicate.is_some(),
            );
        }
        // Run maps: present exactly on the sources the executor reads through
        // index runs, each entry the run column its storage column sits in.
        for (i, source) in plan.sources.iter().enumerate() {
            let at = site(&format!("source_runs[{i}]"));
            let joined_by = i.checked_sub(1).and_then(|j| plan.joins.get(j));
            let compiled = programs.source_runs.get(i).and_then(Option::as_ref);
            let strategy = joined_by.map(|j| &j.strategy);
            let want = match crate::planner::run_columns(source, strategy, self.db) {
                Ok(want) => want,
                Err(e) => {
                    self.violation(ViolationKind::PlanShapeInconsistent, at, e.to_string());
                    continue;
                }
            };
            self.check_slot(at.clone(), compiled.is_some(), want.is_some());
            if let (Some(got), Some(want)) = (compiled, want) {
                self.check(*got == want, ViolationKind::OrdinalOutOfRange, &at, || {
                    format!("run map {got:?} disagrees with the index's runs {want:?}")
                });
            }
        }
        for (i, step) in plan.joins.iter().enumerate() {
            self.check_slot(
                site(&format!("join_outer_keys[{i}]")),
                matches!(programs.join_outer_keys.get(i), Some(Some(_))),
                matches!(step.strategy, JoinStrategy::IndexLookup { .. }),
            );
            self.check_slot(
                site(&format!("join_hash_keys[{i}]")),
                matches!(programs.join_hash_keys.get(i), Some(Some(_))),
                matches!(step.strategy, JoinStrategy::Hash { .. }),
            );
            self.check_slot(
                site(&format!("join_residuals[{i}]")),
                matches!(programs.join_residuals.get(i), Some(Some(_))),
                step.residual.is_some(),
            );
        }

        // Reconstruct the runtime row layouts the executor will hand each
        // program — each source's layout, the accumulated (combined) layout
        // before/after each join, and the schema each pushed predicate runs
        // in — through the functions program compilation used.
        let mut layouts: Vec<RowSchema> = Vec::with_capacity(plan.sources.len());
        let mut pred_schemas: Vec<RowSchema> = Vec::with_capacity(plan.sources.len());
        for (i, source) in plan.sources.iter().enumerate() {
            // A base table's pushed predicate runs in the scan kernels over
            // storage ordinals; any other source's on its materialized row.
            let schemas = crate::planner::source_layout(source, self.db).and_then(|layout| {
                let pred = match &source.kind {
                    SourceKind::Table { table, .. } => {
                        let names = self.db.table(table)?.schema().names();
                        RowSchema::shared(Some(&source.alias), names, None)
                    }
                    _ => layout.clone(),
                };
                Ok((layout, pred))
            });
            let Ok((layout, pred)) = schemas else {
                self.violation(
                    ViolationKind::PlanShapeInconsistent,
                    format!("{prefix}sources[{i}]"),
                    "runtime row layout of the source cannot be derived".to_string(),
                );
                return;
            };
            layouts.push(layout);
            pred_schemas.push(pred);
        }
        let offsets: Vec<usize> = layouts
            .iter()
            .scan(0usize, |acc, s| {
                let start = *acc;
                *acc += s.len();
                Some(start)
            })
            .collect();
        let width = layouts.iter().map(RowSchema::len).sum();

        // Scan-column lists (storage ordinals) per base-table source.
        let scan_unions: Vec<Option<(TableSchema, Vec<usize>)>> = plan
            .sources
            .iter()
            .map(|s| match (&s.kind, &s.scan_columns) {
                (SourceKind::Table { table, .. }, Some(cols)) => self
                    .db
                    .table(table)
                    .ok()
                    .map(|t| (t.schema().clone(), cols.clone())),
                _ => None,
            })
            .collect();

        let ctx = ProgramContext {
            layouts,
            width,
            offsets,
            scan_unions,
        };

        for (i, (p, schema)) in programs
            .source_predicates
            .iter()
            .zip(&pred_schemas)
            .enumerate()
        {
            if let Some(p) = p {
                let site = site(&format!("source_predicates[{i}]"));
                self.check_expr_source(p, i, schema, &ctx, &site);
            }
        }
        for (i, step) in plan.joins.iter().enumerate() {
            let outer_width = ctx.offsets.get(i + 1).copied().unwrap_or(ctx.width);
            if let Some(Some(k)) = programs.join_outer_keys.get(i) {
                self.check_expr_combined(
                    k,
                    outer_width,
                    &ctx,
                    &site(&format!("join_outer_keys[{i}]")),
                );
            }
            if let Some(Some((outer, inner))) = programs.join_hash_keys.get(i) {
                if let JoinStrategy::Hash {
                    outer_keys,
                    inner_keys,
                } = &step.strategy
                {
                    self.check(
                        outer.len() == outer_keys.len() && inner.len() == inner_keys.len(),
                        ViolationKind::ProgramArityMismatch,
                        &site(&format!("join_hash_keys[{i}]")),
                        || {
                            format!(
                                "{}/{} compiled keys for {}/{} plan keys",
                                outer.len(),
                                inner.len(),
                                outer_keys.len(),
                                inner_keys.len()
                            )
                        },
                    );
                }
                for (k, key) in outer.iter().enumerate() {
                    self.check_expr_combined(
                        key,
                        outer_width,
                        &ctx,
                        &site(&format!("join_hash_keys[{i}].outer[{k}]")),
                    );
                }
                for (k, key) in inner.iter().enumerate() {
                    let site = site(&format!("join_hash_keys[{i}].inner[{k}]"));
                    if let Some(layout) = ctx.layouts.get(i + 1) {
                        self.check_expr_source(key, i + 1, layout, &ctx, &site);
                    }
                }
            }
            if let Some(Some(r)) = programs.join_residuals.get(i) {
                let width = ctx.offsets.get(i + 2).copied().unwrap_or(ctx.width);
                self.check_expr_combined(r, width, &ctx, &site(&format!("join_residuals[{i}]")));
            }
        }
        let full = ctx.width;
        if let Some(r) = &programs.residual {
            self.check_expr_combined(r, full, &ctx, &site("residual"));
        }
        for (i, p) in programs.projections.iter().enumerate() {
            self.check_expr_combined(p, full, &ctx, &site(&format!("projections[{i}]")));
        }
        for (i, g) in programs.group_by.iter().enumerate() {
            self.check_expr_combined(g, full, &ctx, &site(&format!("group_by[{i}]")));
        }
        if let Some(h) = &programs.having {
            self.check_expr_combined(h, full, &ctx, &site("having"));
        }
        let grouped = programs.projections.iter().enumerate();
        let grouped = grouped.map(|(i, p)| (format!("projections[{i}]"), p));
        let having = programs.having.iter().map(|h| ("having".into(), h));
        // A statement that does not aggregate has no group values: an
        // aggregate call in its sort key fails when it is evaluated.
        let sorts = programs.order_by.iter().enumerate();
        let sorts = sorts.filter(|_| !programs.aggregates.is_empty());
        let sorts = sorts.filter_map(|(i, key)| match key {
            SortKey::Input(e) => Some((format!("order_by[{i}]"), e)),
            SortKey::Output(_) => None,
        });
        for (at, p) in grouped.chain(having).chain(sorts) {
            let slots = programs.aggregates.len();
            p.visit(&mut |node| {
                if let CompiledExpr::Agg { slot, name } = node {
                    self.check(
                        *slot < slots,
                        ViolationKind::OrdinalOutOfRange,
                        &site(&at),
                        || format!("{name}() reads aggregate {slot} of {slots}"),
                    );
                }
            });
        }
        for (i, agg) in programs.aggregates.iter().enumerate() {
            self.report.checks_run += 1;
            if agg.count_star != agg.arg.is_none() {
                self.violation(
                    ViolationKind::ProgramArityMismatch,
                    site(&format!("aggregates[{i}]")),
                    format!(
                        "{} must have an argument program exactly when it is \
                         not count(*)",
                        agg.name
                    ),
                );
            }
            if let Some(arg) = &agg.arg {
                self.check_expr_combined(arg, full, &ctx, &site(&format!("aggregates[{i}]")));
            }
        }
        for (i, key) in programs.order_by.iter().enumerate() {
            match key {
                SortKey::Output(idx) => self.check(
                    *idx < plan.projections.len(),
                    ViolationKind::OrdinalOutOfRange,
                    &site(&format!("order_by[{i}]")),
                    || {
                        format!(
                            "sort key targets output column {idx} of {}",
                            plan.projections.len()
                        )
                    },
                ),
                SortKey::Input(e) => {
                    self.check_expr_combined(e, full, &ctx, &site(&format!("order_by[{i}]")));
                }
            }
        }
    }

    /// Bound-check a program over `schema` — source `i`'s row layout, or its
    /// storage schema for a kernel-evaluated predicate — and verify
    /// scan-column coverage for that source.
    fn check_expr_source(
        &mut self,
        e: &CompiledExpr,
        i: usize,
        schema: &RowSchema,
        ctx: &ProgramContext,
        site: &str,
    ) {
        self.report.programs_checked += 1;
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        for ordinal in cols {
            self.report.checks_run += 1;
            match schema.columns().nth(ordinal) {
                Some((_, name)) => self.check_coverage(i, name, ctx, site),
                None => self.violation(
                    ViolationKind::OrdinalOutOfRange,
                    site.to_string(),
                    format!(
                        "program reads column {ordinal} of a {}-column source row",
                        schema.len()
                    ),
                ),
            }
        }
    }

    /// Bound-check a program over a prefix of the combined runtime schema
    /// (width `limit`) and verify scan-column coverage per base table.
    fn check_expr_combined(
        &mut self,
        e: &CompiledExpr,
        limit: usize,
        ctx: &ProgramContext,
        site: &str,
    ) {
        self.report.programs_checked += 1;
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        for ordinal in cols {
            self.report.checks_run += 1;
            if ordinal >= limit {
                self.violation(
                    ViolationKind::OrdinalOutOfRange,
                    site.to_string(),
                    format!("program reads column {ordinal} of a {limit}-column row"),
                );
                continue;
            }
            // Map the combined ordinal back to (source, local ordinal).
            let src = match ctx.offsets.binary_search(&ordinal) {
                Ok(i) => i,
                Err(i) => i.saturating_sub(1),
            };
            let name = ctx
                .layouts
                .get(src)
                .and_then(|l| l.columns().nth(ordinal - ctx.offsets[src]));
            if let Some((_, name)) = name {
                self.check_coverage(src, name, ctx, site);
            }
        }
    }

    /// Check (d): the base-table column a program reads must be inside the
    /// annotated scan-column list — the cells the executor materializes and
    /// byte accounting charges.
    fn check_coverage(&mut self, source: usize, name: &str, ctx: &ProgramContext, site: &str) {
        let Some(Some((table_schema, union))) = ctx.scan_unions.get(source) else {
            return;
        };
        let Some(storage_ordinal) = table_schema.column_index(name) else {
            return;
        };
        self.check(
            union.contains(&storage_ordinal),
            ViolationKind::ScanColumnNotCovered,
            site,
            || {
                format!(
                    "program reads column {name} (storage ordinal {storage_ordinal}) \
                     outside the annotated scan columns {union:?}"
                )
            },
        );
    }
}

/// Runtime layout context shared by the per-program checks.
struct ProgramContext {
    /// Row layout per source.
    layouts: Vec<RowSchema>,
    /// Width of the fully joined row.
    width: usize,
    /// Where each source's cells start in the joined row.
    offsets: Vec<usize>,
    scan_unions: Vec<Option<(TableSchema, Vec<usize>)>>,
}

/// Can a zone-map comparison against `value` be meaningful for a column of
/// type `ty`?  Numeric kinds (int/float/bool) compare with each other under
/// [`Value::total_cmp`]; strings and blobs only with themselves.
fn bound_type_compatible(value: &Value, ty: DataType) -> bool {
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Float | DataType::Bool);
    match value.data_type() {
        None => false, // NULL bounds never prune soundly
        Some(vt) if numeric(vt) => numeric(ty),
        Some(vt) => vt == ty,
    }
}

/// Is `declared` strictly tighter than `derived` on this side?  `prefer` is
/// the ordering that makes a bound tighter (`Greater` for lower bounds,
/// `Less` for upper bounds).  A declared bound where derivation found none
/// is tighter by definition.
fn bound_stricter(
    declared: &Option<(Value, bool)>,
    derived: &Option<(Value, bool)>,
    prefer: Ordering,
) -> bool {
    match (declared, derived) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some((dv, dinc)), Some((rv, rinc))) => match dv.total_cmp(rv) {
            o if o == prefer => true,
            Ordering::Equal => *rinc && !*dinc,
            _ => false,
        },
    }
}

fn stricter_detail(declared: &ZoneConstraint, derived: &ZoneConstraint, side: &str) -> String {
    format!(
        "declared interval {} is stricter than the pushed predicate implies \
         ({}) on the {side} bound — pruning could skip satisfying rows",
        declared.render(),
        derived.render()
    )
}
