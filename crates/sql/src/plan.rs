//! Physical query plans.
//!
//! The planner turns a bound `SELECT` statement into a [`SelectPlan`]: a
//! left-deep pipeline of sources (heap scans, index seeks, covering index
//! scans, table-valued functions, derived tables) connected by join steps
//! (index-lookup, hash or nested-loop), followed by filter / aggregate /
//! sort / top stages.  `EXPLAIN` renders this structure, which is how the
//! reproduction shows the plan shapes of Figures 10-12.

use crate::ast::{Expr, JoinKind, OrderByItem, SelectItem};
use crate::exec::compile::CompiledPrograms;
use crate::expr::RowSchema;
use crate::functions::{SeekCover, SeekForm};
use std::sync::Arc;

/// How a base table is accessed.
// Plan nodes are built a handful of times per statement; clarity beats the
// boxing a size-balanced enum would need.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Serial sequential scan of the heap.
    HeapScan,
    /// Parallel sequential scan fanned out over `workers` threads — the
    /// Figure 11 brute-force path, chosen explicitly by the optimizer's
    /// parallel-scan rule for large unindexed predicates.
    ParallelHeapScan {
        /// Requested worker fan-out (fixed so EXPLAIN is machine-independent).
        workers: usize,
    },
    /// B-tree seek using bounds on the leading key column.
    IndexSeek {
        /// The index used.
        index: String,
        /// Key bounds of the seek.
        bounds: IndexBounds,
    },
    /// Full scan of a covering index (column subset, 10-100x less IO).
    CoveringIndexScan {
        /// The covering index scanned instead of the heap.
        index: String,
    },
}

/// Bounds on the leading column of an index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexBounds {
    /// The leading key column the bounds apply to.
    pub column: String,
    /// Equality bound (takes precedence over the range bounds).
    pub equals: Option<Expr>,
    /// Lower bound expression and inclusiveness.
    pub lower: Option<(Expr, bool)>,
    /// Upper bound expression and inclusiveness.
    pub upper: Option<(Expr, bool)>,
}

impl IndexBounds {
    /// True when no bound at all is present.
    pub fn is_unbounded(&self) -> bool {
        self.equals.is_none() && self.lower.is_none() && self.upper.is_none()
    }
}

/// One source in the FROM pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SourcePlan {
    /// Alias the rest of the query uses to refer to this source.
    pub alias: String,
    /// What the source is and how it is read.
    pub kind: SourceKind,
    /// Single-source predicate pushed down to the scan.
    pub pushed_predicate: Option<Expr>,
    /// Output schema of the source (all columns qualified by `alias`).
    pub schema: RowSchema,
    /// Row budget granted by the limit-pushdown rule: the scan may stop
    /// after producing this many (post-predicate) rows.
    pub limit_hint: Option<u64>,
    /// Storage ordinals of the columns the statement references on this
    /// source (scan, predicate, joins, projections...), ascending.  For a
    /// base table this list **is** the runtime row layout on every access
    /// path — cell `i` of a materialized row holds storage column
    /// `scan_columns[i]` — and what byte accounting charges.  `None` on
    /// table functions and derived tables, whose rows are their `schema`.
    pub scan_columns: Option<Vec<usize>>,
    /// Estimated rows this source produces after its pushed predicate,
    /// from the table statistics + selectivity model.  `EXPLAIN` prints it
    /// and the cardinality-accuracy harness pins its q-error.
    pub est_rows: Option<u64>,
}

impl SourcePlan {
    /// Cells in one runtime row of this source.
    pub fn runtime_width(&self) -> usize {
        match (&self.kind, &self.scan_columns) {
            (SourceKind::Table { .. } | SourceKind::Seek(_), Some(cols)) => cols.len(),
            _ => self.schema.len(),
        }
    }
}

/// The kinds of plan sources.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SourceKind {
    /// Base table (or temp table) access.
    Table {
        /// Table name.
        table: String,
        /// How the table is read.
        path: AccessPath,
    },
    /// A seek-form table function (`fGetNearbyObjEq`), answered from its
    /// table's index runs.
    Seek(SeekSource),
    /// Table-valued function call run to completion
    /// (`spHTM_CoverCircleEq`).
    TableFunction {
        /// Function name.
        name: String,
        /// Call arguments (evaluated before the scan).
        args: Vec<Expr>,
    },
    /// Materialised sub-select.
    Derived {
        /// The sub-select's plan (shared: a view's naive binding comes from
        /// the catalog's facts).
        plan: Arc<SelectPlan>,
    },
}

/// A seek-form table function bound as a source over its table: the
/// coarse filter of §9.1.4 (a set of key ranges walked once over the
/// index runs) and its fine filter (an exact test per entry), see
/// [`SeekForm`].  Its rows are the function's output columns; the measure
/// column is computed once per entry, the others are read from the run
/// when the index covers them and from the heap otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct SeekSource {
    /// The table searched.
    pub table: String,
    /// The function called, as written.
    pub function: String,
    /// Call arguments (constant expressions).
    pub args: Vec<Expr>,
    /// The registered form.
    pub form: Arc<SeekForm>,
    /// The index walked, leading on the form's key; `None` scans the heap
    /// with the same fine test.
    pub index: Option<String>,
    /// The cover of constant arguments, computed when the statement was
    /// planned; `None` computes it when the source opens.
    pub cover: Option<Arc<SeekCover>>,
    /// Per output column of the function, in order: the storage ordinal
    /// of its table column, or `None` for the measure.
    pub outputs: Vec<Option<usize>>,
    /// Storage ordinals of the cells the fine test reads.
    pub tested: Vec<usize>,
    /// Rows the search is estimated to return.
    pub estimate: f64,
}

/// How a source joins with everything planned before it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Inner / left / cross.
    pub kind: JoinKind,
    /// The join algorithm.
    pub strategy: JoinStrategy,
    /// Residual predicate evaluated on the combined row (anything the
    /// strategy's key comparison does not already guarantee).
    pub residual: Option<Expr>,
    /// Estimated rows the join produces (NDV-based containment model).
    pub est_rows: Option<u64>,
}

/// Join algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStrategy {
    /// For each outer row, probe a B-tree index on the inner table.
    IndexLookup {
        /// The probed index.
        index: String,
        /// Expression over the outer (accumulated) row producing the key.
        outer_key: Expr,
        /// Inner column the index leads with.
        inner_column: String,
    },
    /// Build a hash table on the inner side keyed by `inner_keys`, probe
    /// with `outer_keys`.
    Hash {
        /// Probe-side key expressions (over the accumulated row).
        outer_keys: Vec<Expr>,
        /// Build-side key expressions (over the inner row).
        inner_keys: Vec<Expr>,
    },
    /// Plain nested loop over the materialised inner side.
    NestedLoop,
}

/// A fully planned SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Sources in join order (first = driver).
    pub sources: Vec<SourcePlan>,
    /// Join steps; `joins[i]` connects `sources[i + 1]` to the accumulated
    /// left side.
    pub joins: Vec<JoinStep>,
    /// Predicate evaluated after all joins (conjuncts that could not be
    /// pushed down or folded into a join).
    pub residual: Option<Expr>,
    /// Output projections (post `*` expansion): `(expr, output_name)`.
    pub projections: Vec<(Expr, String)>,
    /// Original select items (used for `*` bookkeeping in EXPLAIN).
    pub select_items: Vec<SelectItem>,
    /// GROUP BY expressions (empty + has_aggregates = single-group).
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// True if any projection or HAVING contains an aggregate.
    pub has_aggregates: bool,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// TOP n limit.
    pub top: Option<u64>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// `INTO ##target` destination.
    pub into: Option<String>,
    /// Combined input schema (all sources joined) the projections reference.
    pub input_schema: RowSchema,
    /// Optimizer rules that fired while producing this plan, in pipeline
    /// order; `EXPLAIN` reports them.
    pub rules_fired: Vec<&'static str>,
    /// The programs the executor runs, one per expression above, compiled
    /// at plan finalization (EXPLAIN renders the `Expr`s).
    pub programs: CompiledPrograms,
    /// Estimated rows of the whole plan (after joins and the residual
    /// filter, before aggregation/TOP), from the selectivity model.
    pub est_rows: Option<u64>,
    /// Release snapshot the plan's scans are pinned to (`AS OF drN` or the
    /// session's ambient `?release=`).  `None` means the live head database;
    /// the plan verifier checks a pinned release exists in the catalog.
    pub release: Option<String>,
}

impl SelectPlan {
    /// The dominant access-path class of the plan, used to bucket queries
    /// the way Figure 13 does (index lookups vs scans vs join-heavy).
    pub fn plan_class(&self) -> PlanClass {
        let mut has_scan = false;
        let mut has_seek = false;
        for s in &self.sources {
            match &s.kind {
                SourceKind::Table { path, .. } => match path {
                    AccessPath::HeapScan | AccessPath::ParallelHeapScan { .. } => has_scan = true,
                    AccessPath::IndexSeek { .. } | AccessPath::CoveringIndexScan { .. } => {
                        has_seek = true
                    }
                },
                SourceKind::Derived { plan } => match plan.plan_class() {
                    PlanClass::Scan | PlanClass::JoinScan => has_scan = true,
                    _ => has_seek = true,
                },
                SourceKind::Seek(seek) => match seek.index {
                    Some(_) => has_seek = true,
                    None => has_scan = true,
                },
                SourceKind::TableFunction { .. } => {}
            }
        }
        if self.sources.len() > 1 && has_scan {
            PlanClass::JoinScan
        } else if has_scan {
            PlanClass::Scan
        } else if has_seek {
            PlanClass::IndexSeek
        } else {
            PlanClass::FunctionOnly
        }
    }

    /// Full `EXPLAIN` output: the plan tree plus the list of optimizer
    /// rules that fired (how the reproduction shows *why* a query got its
    /// Figure-10 or Figure-11 shape).
    pub fn render_explain(&self) -> String {
        let mut out = self.render();
        if self.rules_fired.is_empty() {
            out.push_str("-- optimizer rules fired: (none)\n");
        } else {
            out.push_str(&format!(
                "-- optimizer rules fired: {}\n",
                self.rules_fired.join(", ")
            ));
        }
        if let Some(release) = &self.release {
            out.push_str(&format!("-- release: {release}\n"));
        }
        out
    }

    /// Render the plan as an indented text tree (the EXPLAIN output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut indent = 0;
        if self.into.is_some() {
            push_line(
                &mut out,
                indent,
                &format!("InsertInto({})", self.into.as_deref().unwrap_or("")),
            );
            indent += 1;
        }
        if let Some(top) = self.top {
            push_line(&mut out, indent, &format!("Top({top})"));
            indent += 1;
        }
        if self.distinct {
            push_line(&mut out, indent, "Distinct");
            indent += 1;
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|o| {
                    format!(
                        "{}{}",
                        render_expr(&o.expr),
                        if o.ascending { "" } else { " DESC" }
                    )
                })
                .collect();
            push_line(&mut out, indent, &format!("Sort({})", keys.join(", ")));
            indent += 1;
        }
        if self.has_aggregates || !self.group_by.is_empty() {
            let keys: Vec<String> = self.group_by.iter().map(render_expr).collect();
            push_line(
                &mut out,
                indent,
                &format!("Aggregate(group by: [{}])", keys.join(", ")),
            );
            indent += 1;
        }
        let proj: Vec<&str> = self.projections.iter().map(|(_, n)| n.as_str()).collect();
        push_line(
            &mut out,
            indent,
            &format!("Project({}){}", proj.join(", "), render_est(self.est_rows)),
        );
        indent += 1;
        if let Some(r) = &self.residual {
            push_line(&mut out, indent, &format!("Filter({})", render_expr(r)));
            indent += 1;
        }
        // Joins are left-deep: render innermost (first source) deepest.
        self.render_join_tree(&mut out, indent, self.sources.len());
        out
    }

    fn render_join_tree(&self, out: &mut String, indent: usize, upto: usize) {
        if upto == 1 {
            render_source(out, indent, &self.sources[0]);
            return;
        }
        let step = &self.joins[upto - 2];
        let strategy = match &step.strategy {
            JoinStrategy::IndexLookup {
                index,
                outer_key,
                inner_column,
            } => format!(
                "NestedLoopJoin[index lookup {index} on {} = {}]",
                render_expr(outer_key),
                inner_column
            ),
            JoinStrategy::Hash {
                outer_keys,
                inner_keys,
            } => format!(
                "HashJoin[{} = {}]",
                outer_keys
                    .iter()
                    .map(render_expr)
                    .collect::<Vec<_>>()
                    .join(", "),
                inner_keys
                    .iter()
                    .map(render_expr)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            JoinStrategy::NestedLoop => "NestedLoopJoin".to_string(),
        };
        let kind = match step.kind {
            JoinKind::Inner => "",
            JoinKind::Left => " (left outer)",
            JoinKind::Cross => " (cross)",
        };
        push_line(
            out,
            indent,
            &format!("{strategy}{kind}{}", render_est(step.est_rows)),
        );
        self.render_join_tree(out, indent + 1, upto - 1);
        render_source(out, indent + 1, &self.sources[upto - 1]);
    }
}

/// Plan classes used to bucket the 20 queries like Figure 13 does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PlanClass {
    /// Answered entirely by index seeks / covering index scans.
    IndexSeek,
    /// Requires at least one full heap scan.
    Scan,
    /// Multi-table plan containing a heap scan (spatial/self joins).
    JoinScan,
    /// Only table-valued functions (no base table access).
    FunctionOnly,
}

impl std::fmt::Display for PlanClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlanClass::IndexSeek => "index",
            PlanClass::Scan => "scan",
            PlanClass::JoinScan => "join-scan",
            PlanClass::FunctionOnly => "function",
        };
        f.write_str(s)
    }
}

fn render_source(out: &mut String, indent: usize, source: &SourcePlan) {
    match &source.kind {
        SourceKind::Table { table, path } => {
            let access = match path {
                AccessPath::HeapScan => format!("TableScan({table})"),
                AccessPath::ParallelHeapScan { workers } => {
                    format!("ParallelTableScan({table} x{workers})")
                }
                AccessPath::IndexSeek { index, bounds } => {
                    let mut b = Vec::new();
                    if let Some(e) = &bounds.equals {
                        b.push(format!("{} = {}", bounds.column, render_expr(e)));
                    }
                    if let Some((e, inc)) = &bounds.lower {
                        b.push(format!(
                            "{} {} {}",
                            bounds.column,
                            if *inc { ">=" } else { ">" },
                            render_expr(e)
                        ));
                    }
                    if let Some((e, inc)) = &bounds.upper {
                        b.push(format!(
                            "{} {} {}",
                            bounds.column,
                            if *inc { "<=" } else { "<" },
                            render_expr(e)
                        ));
                    }
                    format!("IndexSeek({table}.{index}: {})", b.join(" AND "))
                }
                AccessPath::CoveringIndexScan { index } => {
                    format!("CoveringIndexScan({table}.{index})")
                }
            };
            let pred = source
                .pushed_predicate
                .as_ref()
                .map(|p| format!(" where {}", render_expr(p)))
                .unwrap_or_default();
            let limit = source
                .limit_hint
                .map(|n| format!(" limit {n}"))
                .unwrap_or_default();
            push_line(
                out,
                indent,
                &format!(
                    "{access} AS {}{pred}{limit}{}",
                    source.alias,
                    render_est(source.est_rows)
                ),
            );
        }
        SourceKind::Seek(seek) => {
            let args: Vec<String> = seek.args.iter().map(render_expr).collect();
            let mut what = vec![format!("{}({})", seek.function, args.join(", "))];
            if seek.index.is_some() {
                what.push(match &seek.cover {
                    Some(cover) => format!("{} ranges", cover.ranges.len()),
                    None => "ranges at open".to_string(),
                });
            }
            if let (Some(measure), true) = (&seek.form.measure, seek.form.ordered) {
                what.push(format!("by {measure}"));
            }
            let what = what.join(", ");
            let access = match &seek.index {
                Some(index) => format!("RangeSeek({}.{index}: {what})", seek.table),
                None => format!("TableScan({}: {what})", seek.table),
            };
            let limit = crate::exec::sink::tighter(seek.form.limit, source.limit_hint)
                .map(|n| format!(" limit {n}"))
                .unwrap_or_default();
            let est = render_est(source.est_rows);
            push_line(
                out,
                indent,
                &format!("{access} AS {}{limit}{est}", source.alias),
            );
        }
        SourceKind::TableFunction { name, args } => {
            let a: Vec<String> = args.iter().map(render_expr).collect();
            push_line(
                out,
                indent,
                &format!(
                    "TableFunction({name}({})) AS {}{}",
                    a.join(", "),
                    source.alias,
                    render_est(source.est_rows)
                ),
            );
        }
        SourceKind::Derived { plan } => {
            push_line(
                out,
                indent,
                &format!("Derived AS {}{}", source.alias, render_est(source.est_rows)),
            );
            for line in plan.render().lines() {
                push_line(out, indent + 1, line.trim_start());
            }
        }
    }
}

/// ` est_rows=N` suffix for plan nodes carrying an estimate (empty before
/// the estimate annotation pass runs).
fn render_est(est: Option<u64>) -> String {
    est.map(|n| format!(" est_rows={n}")).unwrap_or_default()
}

fn push_line(out: &mut String, indent: usize, text: &str) {
    out.push_str(&"  ".repeat(indent));
    out.push_str(text);
    out.push('\n');
}

/// Compact textual rendering of an expression for EXPLAIN output.
pub fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => v.to_string(),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Variable(v) => format!("@{v}"),
        Expr::Star => "*".into(),
        Expr::Unary { op, expr } => format!(
            "{}{}",
            match op {
                crate::ast::UnaryOp::Neg => "-",
                crate::ast::UnaryOp::Not => "NOT ",
            },
            render_expr(expr)
        ),
        Expr::Binary { left, op, right } => {
            format!("({} {op} {})", render_expr(left), render_expr(right))
        }
        Expr::Function { name, args } => format!(
            "{name}({})",
            args.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "{} {}BETWEEN {} AND {}",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            render_expr(low),
            render_expr(high)
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => format!(
            "{} {}IN ({})",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            list.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE {}",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            render_expr(pattern)
        ),
        Expr::Case { .. } => "CASE ... END".into(),
        Expr::Cast { expr, ty } => format!("CAST({} AS {ty})", render_expr(expr)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinaryOp;

    fn simple_table_source(alias: &str, table: &str, path: AccessPath) -> SourcePlan {
        SourcePlan {
            alias: alias.into(),
            kind: SourceKind::Table {
                table: table.into(),
                path,
            },
            pushed_predicate: None,
            schema: RowSchema::for_table(Some(alias), &["objID", "ra"]),
            limit_hint: None,
            scan_columns: None,
            est_rows: None,
        }
    }

    fn minimal_plan(sources: Vec<SourcePlan>, joins: Vec<JoinStep>) -> SelectPlan {
        let input_schema = sources
            .iter()
            .map(|s| s.schema.clone())
            .reduce(|a, b| a.join(&b))
            .unwrap_or_default();
        SelectPlan {
            sources,
            joins,
            residual: None,
            projections: vec![(Expr::col("objID"), "objID".into())],
            select_items: vec![],
            group_by: vec![],
            having: None,
            has_aggregates: false,
            order_by: vec![],
            top: None,
            distinct: false,
            into: None,
            input_schema,
            rules_fired: Vec::new(),
            programs: CompiledPrograms::default(),
            est_rows: None,
            release: None,
        }
    }

    #[test]
    fn plan_class_buckets() {
        let scan = minimal_plan(
            vec![simple_table_source("p", "photoObj", AccessPath::HeapScan)],
            vec![],
        );
        assert_eq!(scan.plan_class(), PlanClass::Scan);

        let seek = minimal_plan(
            vec![simple_table_source(
                "p",
                "photoObj",
                AccessPath::IndexSeek {
                    index: "pk".into(),
                    bounds: IndexBounds {
                        column: "objID".into(),
                        equals: Some(Expr::int(1)),
                        ..Default::default()
                    },
                },
            )],
            vec![],
        );
        assert_eq!(seek.plan_class(), PlanClass::IndexSeek);

        let join_scan = minimal_plan(
            vec![
                simple_table_source("r", "photoObj", AccessPath::HeapScan),
                simple_table_source("g", "photoObj", AccessPath::HeapScan),
            ],
            vec![JoinStep {
                kind: JoinKind::Inner,
                strategy: JoinStrategy::NestedLoop,
                residual: None,
                est_rows: None,
            }],
        );
        assert_eq!(join_scan.plan_class(), PlanClass::JoinScan);
    }

    #[test]
    fn render_contains_plan_shape() {
        let plan = minimal_plan(
            vec![
                SourcePlan {
                    alias: "GN".into(),
                    kind: SourceKind::TableFunction {
                        name: "fGetNearbyObjEq".into(),
                        args: vec![Expr::int(185), Expr::int(0), Expr::int(1)],
                    },
                    pushed_predicate: None,
                    schema: RowSchema::for_table(Some("GN"), &["objID", "distance"]),
                    limit_hint: None,
                    scan_columns: None,
                    est_rows: None,
                },
                simple_table_source(
                    "G",
                    "photoObj",
                    AccessPath::IndexSeek {
                        index: "pk_photoObj".into(),
                        bounds: IndexBounds {
                            column: "objID".into(),
                            equals: Some(Expr::col("objID")),
                            ..Default::default()
                        },
                    },
                ),
            ],
            vec![JoinStep {
                kind: JoinKind::Inner,
                strategy: JoinStrategy::IndexLookup {
                    index: "pk_photoObj".into(),
                    outer_key: Expr::Column {
                        qualifier: Some("GN".into()),
                        name: "objID".into(),
                    },
                    inner_column: "objID".into(),
                },
                residual: None,
                est_rows: None,
            }],
        );
        let text = plan.render();
        assert!(text.contains("TableFunction(fGetNearbyObjEq"));
        assert!(text.contains("NestedLoopJoin[index lookup pk_photoObj"));
        assert!(text.contains("Project(objID)"));
    }

    #[test]
    fn render_expr_round_trip_shapes() {
        let e = Expr::Binary {
            left: Box::new(Expr::Binary {
                left: Box::new(Expr::col("flags")),
                op: BinaryOp::BitAnd,
                right: Box::new(Expr::Variable("saturated".into())),
            }),
            op: BinaryOp::Eq,
            right: Box::new(Expr::int(0)),
        };
        assert_eq!(render_expr(&e), "((flags & @saturated) = 0)");
    }

    #[test]
    fn bounds_unbounded() {
        assert!(IndexBounds::default().is_unbounded());
        let b = IndexBounds {
            column: "x".into(),
            lower: Some((Expr::int(1), true)),
            ..Default::default()
        };
        assert!(!b.is_unbounded());
    }
}
