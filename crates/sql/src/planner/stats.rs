//! Cardinality estimation: the selectivity model over the storage layer's
//! table statistics ([`skyserver_storage::TableStats`]).
//!
//! Two consumers:
//!
//! * the cost-based join-ordering rule
//!   ([`super::rules::cost_join_order`]) calls the `estimate_*` helpers
//!   while it searches join orders over the logical plan, and
//! * [`annotate_estimates`] stamps `est_rows` onto every node of the final
//!   physical plan, which `EXPLAIN` prints and the cardinality-accuracy
//!   harness pins against actual row counts.
//!
//! The model is deliberately classical (System-R style): attribute-value
//! independence between conjuncts, uniformity inside histogram buckets, and
//! NDV-based containment for equi-joins
//! (`|L ⋈ R| = |L|·|R| / max(ndv_L, ndv_R)`).  Unknown shapes fall back to
//! fixed default selectivities rather than failing.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::exec::vector::cell_f64;
use crate::plan::{JoinStrategy, SeekSource, SelectPlan, SourceKind, SourcePlan};
use crate::planner::binder::LogicalSource;
use skyserver_storage::{ColumnStats, Database, Value};
use std::collections::HashMap;

/// Default selectivity for an equality whose column has no statistics.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity for a range/unknown predicate (System R's 1/3).
const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity of a `LIKE 'prefix%'` predicate.
const LIKE_PREFIX_SELECTIVITY: f64 = 0.1;
/// Selectivity of a non-prefix LIKE (`%needle%`).
const LIKE_CONTAINS_SELECTIVITY: f64 = 0.25;
/// Selectivity of an opaque boolean function call (cone/HTM spatial
/// predicates and friends).
const FUNCTION_SELECTIVITY: f64 = 0.1;
/// Assumed output of a table-valued function run to completion (no
/// statistics exist; `spHTM_CoverCircleEq` returns a handful of ranges).
pub(crate) const TVF_DEFAULT_ROWS: f64 = 64.0;
/// Most index entries a seek estimate runs the fine test on.
const SEEK_SAMPLE: usize = 128;
/// Assumed output of a derived table whose inner plan carries no estimate.
const DERIVED_DEFAULT_ROWS: f64 = 256.0;

// ---------------------------------------------------------------------------
// Column-level lookups
// ---------------------------------------------------------------------------

/// Column statistics for `table.column`, if collected.
fn column_stats<'a>(db: &'a Database, table: &str, column: &str) -> Option<&'a ColumnStats> {
    let stats = db.table_stats(table)?;
    let ordinal = db.table(table).ok()?.schema().column_index(column)?;
    stats.column(ordinal)
}

/// Live row count of a base table (always read fresh; statistics may be
/// stale after single-row DML).
fn live_rows(db: &Database, table: &str) -> f64 {
    db.table(table).map(|t| t.row_count() as f64).unwrap_or(0.0)
}

/// Distinct-count estimate for a column, with index- and heuristic
/// fallbacks when no statistics were collected.
pub(crate) fn column_ndv(db: &Database, table: &str, column: &str) -> f64 {
    if let Some(cs) = column_stats(db, table, column) {
        return (cs.ndv as f64).max(1.0);
    }
    let rows = live_rows(db, table);
    // A unique index leading on the column proves NDV == row count.
    let unique = db
        .indexes_for(table)
        .iter()
        .any(|i| i.def().unique && i.def().leading_column().eq_ignore_ascii_case(column));
    if unique {
        return rows.max(1.0);
    }
    (rows / 10.0).max(1.0)
}

/// Fraction of a column's non-null values strictly below `bound`, from the
/// histogram when present, min/max interpolation otherwise.
fn fraction_below(cs: &ColumnStats, bound: f64) -> f64 {
    if let Some(h) = &cs.histogram {
        return h.fraction_below(bound);
    }
    match (cs.min.as_f64(), cs.max.as_f64()) {
        (Some(lo), Some(hi)) if hi > lo => ((bound - lo) / (hi - lo)).clamp(0.0, 1.0),
        (Some(lo), Some(_)) => {
            if bound > lo {
                1.0
            } else {
                0.0
            }
        }
        _ => DEFAULT_RANGE_SELECTIVITY,
    }
}

/// A literal (or nothing) — variables and arithmetic are opaque at plan
/// time, so only literal bounds feed the histogram model.
fn literal_value(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

/// `column op literal` (possibly mirrored) over the given table.
fn column_vs_literal<'a>(
    left: &'a Expr,
    op: BinaryOp,
    right: &'a Expr,
) -> Option<(&'a str, BinaryOp, &'a Value)> {
    if let (Expr::Column { name, .. }, Some(v)) = (left, literal_value(right)) {
        return Some((name.as_str(), op, v));
    }
    if let (Some(v), Expr::Column { name, .. }) = (literal_value(left), right) {
        return Some((name.as_str(), op.mirror(), v));
    }
    None
}

// ---------------------------------------------------------------------------
// Single-table predicate selectivity
// ---------------------------------------------------------------------------

/// Selectivity of a pushed predicate over one base table's rows.
pub(crate) fn predicate_selectivity(db: &Database, table: &str, expr: &Expr) -> f64 {
    let s = match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => predicate_selectivity(db, table, left) * predicate_selectivity(db, table, right),
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let a = predicate_selectivity(db, table, left);
            let b = predicate_selectivity(db, table, right);
            a + b - a * b
        }
        Expr::Binary { left, op, right } if op.is_comparison() => {
            comparison_selectivity(db, table, left, *op, right)
        }
        Expr::Binary { .. } => DEFAULT_RANGE_SELECTIVITY,
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => 1.0 - predicate_selectivity(db, table, expr),
        Expr::Between {
            expr: inner,
            low,
            high,
            negated,
        } => {
            let s = between_selectivity(db, table, inner, low, high);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::InList {
            expr: inner,
            list,
            negated,
        } => {
            let eq = match inner.as_ref() {
                Expr::Column { name, .. } => 1.0 / column_ndv(db, table, name),
                _ => DEFAULT_EQ_SELECTIVITY,
            };
            let s = (eq * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            let s = match inner.as_ref() {
                Expr::Column { name, .. } => null_fraction(db, table, name),
                _ => DEFAULT_EQ_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Like {
            pattern, negated, ..
        } => {
            let s = match literal_value(pattern).and_then(Value::as_str) {
                Some(p) if !p.starts_with(['%', '_']) => LIKE_PREFIX_SELECTIVITY,
                _ => LIKE_CONTAINS_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Function { .. } => FUNCTION_SELECTIVITY,
        _ => DEFAULT_RANGE_SELECTIVITY,
    };
    s.clamp(0.0, 1.0)
}

fn null_fraction(db: &Database, table: &str, column: &str) -> f64 {
    match (column_stats(db, table, column), db.table_stats(table)) {
        (Some(cs), Some(ts)) if ts.row_count > 0 => {
            (cs.null_count as f64 / ts.row_count as f64).clamp(0.0, 1.0)
        }
        _ => DEFAULT_EQ_SELECTIVITY,
    }
}

fn comparison_selectivity(
    db: &Database,
    table: &str,
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
) -> f64 {
    let Some((column, op, value)) = column_vs_literal(left, op, right) else {
        return match op {
            BinaryOp::Eq => DEFAULT_EQ_SELECTIVITY,
            _ => DEFAULT_RANGE_SELECTIVITY,
        };
    };
    match op {
        BinaryOp::Eq => 1.0 / column_ndv(db, table, column),
        BinaryOp::NotEq => 1.0 - 1.0 / column_ndv(db, table, column),
        BinaryOp::Lt | BinaryOp::LtEq => match (column_stats(db, table, column), value.as_f64()) {
            (Some(cs), Some(v)) => fraction_below(cs, v),
            _ => DEFAULT_RANGE_SELECTIVITY,
        },
        BinaryOp::Gt | BinaryOp::GtEq => match (column_stats(db, table, column), value.as_f64()) {
            (Some(cs), Some(v)) => 1.0 - fraction_below(cs, v),
            _ => DEFAULT_RANGE_SELECTIVITY,
        },
        _ => DEFAULT_RANGE_SELECTIVITY,
    }
}

fn between_selectivity(db: &Database, table: &str, inner: &Expr, low: &Expr, high: &Expr) -> f64 {
    let (Expr::Column { name, .. }, Some(lo), Some(hi)) = (
        inner,
        literal_value(low).and_then(Value::as_f64),
        literal_value(high).and_then(Value::as_f64),
    ) else {
        return DEFAULT_RANGE_SELECTIVITY * 0.75;
    };
    match column_stats(db, table, name) {
        Some(cs) => (fraction_below(cs, hi) - fraction_below(cs, lo)).clamp(0.0, 1.0),
        None => DEFAULT_RANGE_SELECTIVITY * 0.75,
    }
}

// ---------------------------------------------------------------------------
// Source-level estimates
// ---------------------------------------------------------------------------

/// Estimated output rows of a base-table access: live rows × the
/// selectivity of every pushed conjunct.
fn table_estimate(db: &Database, table: &str, pushed: &[&Expr]) -> f64 {
    let base = live_rows(db, table);
    let sel: f64 = pushed
        .iter()
        .map(|e| predicate_selectivity(db, table, e))
        .product();
    (base * sel).min(base)
}

/// Estimated output rows of a still-logical source (used by the join-order
/// search before the physical plan exists).
pub(crate) fn estimate_logical_source(db: &Database, source: &LogicalSource) -> f64 {
    match &source.kind {
        SourceKind::Table { table, .. } => {
            let pushed: Vec<&Expr> = source.pushed.iter().collect();
            table_estimate(db, table, &pushed)
        }
        SourceKind::Seek(seek) => seek.estimate,
        SourceKind::TableFunction { .. } => TVF_DEFAULT_ROWS,
        SourceKind::Derived { plan } => plan
            .est_rows
            .map(|n| n as f64)
            .unwrap_or(DERIVED_DEFAULT_ROWS),
    }
}

/// Estimated output rows of a physical source.
fn estimate_physical_source(db: &Database, source: &SourcePlan) -> f64 {
    match &source.kind {
        SourceKind::Table { table, .. } => {
            let pushed: Vec<&Expr> = source.pushed_predicate.iter().collect();
            table_estimate(db, table, &pushed)
        }
        SourceKind::Seek(seek) => seek.estimate,
        SourceKind::TableFunction { .. } => TVF_DEFAULT_ROWS,
        SourceKind::Derived { plan } => plan
            .est_rows
            .map(|n| n as f64)
            .unwrap_or(DERIVED_DEFAULT_ROWS),
    }
}

/// Rows a seek source returns, estimated from its ranges: the index
/// entries under them, found in one walk, times the share of an evenly
/// spaced sample of those entries (at most [`SEEK_SAMPLE`]) that passes the
/// fine test, capped by the form's limit.  Before its cover is known (the
/// arguments name variables) or without its index, the table's rows at
/// the opaque-function selectivity.
pub(crate) fn seek_rows(db: &Database, seek: &SeekSource) -> f64 {
    let cap = |n: f64| seek.form.limit.map_or(n, |l| n.min(l as f64));
    let found = seek
        .cover
        .as_ref()
        .zip(seek.index.as_ref())
        .and_then(|(cover, index)| {
            Some((
                cover,
                db.table(&seek.table).ok()?,
                db.index(&seek.table, index)?,
            ))
        });
    let Some((cover, table, idx)) = found else {
        return cap(live_rows(db, &seek.table) * FUNCTION_SELECTIVITY);
    };
    let slices: Vec<_> = idx.seek_ranges(&cover.ranges).collect();
    let candidates: usize = slices.iter().map(|(_, _, r)| r.len()).sum();
    let stride = candidates.div_ceil(SEEK_SAMPLE).max(1);
    let in_run: Vec<Option<usize>> = (seek.tested.iter())
        .map(|&c| idx.covered_ordinals().position(|o| o == c))
        .collect();
    let mut cells = vec![0.0; in_run.len()];
    let (mut seen, mut sampled, mut passed) = (0usize, 0usize, 0usize);
    for (_, run, range) in slices {
        let first = range.start + (stride - seen % stride) % stride;
        for off in (first..range.end).step_by(stride) {
            for ((cell, &c), at) in cells.iter_mut().zip(&seek.tested).zip(&in_run) {
                *cell = match at {
                    Some(r) => cell_f64(run.column(*r), off),
                    None => (run.row_ids().get(off))
                        .and_then(|&id| table.live_slot(id))
                        .map_or(0.0, |(seg, at)| cell_f64(seg.column(c), at)),
                };
            }
            sampled += 1;
            passed += usize::from((cover.test)(&cells).is_some());
        }
        seen += range.len();
    }
    cap(candidates as f64 * passed as f64 / sampled.max(1) as f64)
}

// ---------------------------------------------------------------------------
// Join selectivity
// ---------------------------------------------------------------------------

/// Maps a lowercase alias to the base table backing it (functions and
/// derived tables are absent: they have no column statistics).
pub(crate) type AliasTables = HashMap<String, String>;

/// Build the alias → base-table map for a set of logical sources.
pub(crate) fn alias_tables(sources: &[LogicalSource]) -> AliasTables {
    sources
        .iter()
        .filter_map(|s| match &s.kind {
            SourceKind::Table { table, .. } => Some((s.alias.to_ascii_lowercase(), table.clone())),
            _ => None,
        })
        .collect()
}

/// NDV of a join-key expression: a plain column resolves through its
/// alias's base table, anything else is opaque.
fn key_ndv(db: &Database, aliases: &AliasTables, key: &Expr) -> Option<f64> {
    if let Expr::Column {
        qualifier: Some(q),
        name,
    } = key
    {
        if let Some(table) = aliases.get(&q.to_ascii_lowercase()) {
            return Some(column_ndv(db, table, name));
        }
    }
    None
}

/// Selectivity of one join conjunct over the cross product of its sides.
/// Column-to-column equalities use NDV containment; everything else falls
/// back to the single-table model's defaults.
pub(crate) fn join_conjunct_selectivity(db: &Database, aliases: &AliasTables, expr: &Expr) -> f64 {
    let s = match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            join_conjunct_selectivity(db, aliases, left)
                * join_conjunct_selectivity(db, aliases, right)
        }
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let a = join_conjunct_selectivity(db, aliases, left);
            let b = join_conjunct_selectivity(db, aliases, right);
            a + b - a * b
        }
        Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } => match (key_ndv(db, aliases, left), key_ndv(db, aliases, right)) {
            (Some(l), Some(r)) => 1.0 / l.max(r).max(1.0),
            (Some(n), None) | (None, Some(n)) => 1.0 / n.max(1.0),
            (None, None) => DEFAULT_EQ_SELECTIVITY,
        },
        Expr::Binary { op, .. } if op.is_comparison() => DEFAULT_RANGE_SELECTIVITY,
        Expr::Function { .. } => FUNCTION_SELECTIVITY,
        _ => DEFAULT_RANGE_SELECTIVITY,
    };
    s.clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Physical-plan annotation
// ---------------------------------------------------------------------------

/// Round an estimate for display: at least one row whenever the input is
/// non-empty, never negative.
fn to_rows(est: f64) -> u64 {
    if est <= 0.0 {
        return 0;
    }
    est.round().max(1.0) as u64
}

/// Stamp `est_rows` onto every source, join step and the plan itself.
/// Runs unconditionally after finalization (even with cost-based ordering
/// disabled) so `EXPLAIN` always shows the model's cardinalities.
pub fn annotate_estimates(plan: &mut SelectPlan, db: &Database) {
    // Derived sub-plans were planned (and annotated) by their own
    // `plan_select` pass; only the enclosing plan is walked here.
    let aliases: AliasTables = plan
        .sources
        .iter()
        .filter_map(|s| match &s.kind {
            SourceKind::Table { table, .. } => Some((s.alias.to_ascii_lowercase(), table.clone())),
            _ => None,
        })
        .collect();

    let mut running = 0.0;
    for (i, source) in plan.sources.iter_mut().enumerate() {
        let est = estimate_physical_source(db, source);
        source.est_rows = Some(to_rows(est));
        if i == 0 {
            running = est;
        }
    }
    for (i, step) in plan.joins.iter_mut().enumerate() {
        let inner_est = plan.sources[i + 1].est_rows.unwrap_or(0) as f64;
        // The strategy's key equalities are re-checked in the residual, so
        // the residual alone carries the step's full selectivity (no
        // double counting).
        let sel = match (&step.residual, &step.strategy) {
            (Some(r), _) => join_conjunct_selectivity(db, &aliases, r),
            (None, JoinStrategy::IndexLookup { .. } | JoinStrategy::Hash { .. }) => {
                DEFAULT_EQ_SELECTIVITY
            }
            (None, JoinStrategy::NestedLoop) => 1.0,
        };
        running = running * inner_est * sel;
        step.est_rows = Some(to_rows(running));
    }
    if let Some(residual) = &plan.residual {
        running *= join_conjunct_selectivity(db, &aliases, residual);
    }
    // Post-join stages that change the output cardinality.
    if plan.has_aggregates && plan.group_by.is_empty() {
        running = 1.0;
    }
    if let Some(top) = plan.top {
        running = running.min(top as f64);
    }
    plan.est_rows = Some(to_rows(running));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::testkit;

    #[test]
    fn equality_on_pk_estimates_one_row() {
        let db = testkit::test_db();
        // 10 rows, objID unique: eq selectivity is 1/10.
        let sel = predicate_selectivity(
            &db,
            "photoObj",
            &Expr::Binary {
                left: Box::new(Expr::col("objID")),
                op: BinaryOp::Eq,
                right: Box::new(Expr::int(3)),
            },
        );
        assert!((sel - 0.1).abs() < 1e-9, "selectivity {sel}");
    }

    #[test]
    fn ndv_falls_back_to_unique_index_then_heuristic() {
        let db = testkit::test_db();
        // No ANALYZE has run on the testkit db: objID has a unique index.
        assert_eq!(column_ndv(&db, "photoObj", "objID"), 10.0);
        // Non-indexed column: rows/10 floor.
        assert_eq!(column_ndv(&db, "photoObj", "flags"), 1.0);
    }

    #[test]
    fn analyze_sharpens_range_estimates() {
        let mut db = testkit::test_db();
        db.analyze_all();
        // ra is uniform over [180, 189]: ra < 184.5 is ~half the rows.
        let sel = predicate_selectivity(
            &db,
            "photoObj",
            &Expr::Binary {
                left: Box::new(Expr::col("ra")),
                op: BinaryOp::Lt,
                right: Box::new(Expr::Literal(Value::Float(184.5))),
            },
        );
        assert!(
            (0.3..=0.7).contains(&sel),
            "range selectivity {sel} not near 0.5"
        );
    }

    #[test]
    fn conjunction_multiplies_and_clamps() {
        let mut db = testkit::test_db();
        db.analyze_all();
        let both = predicate_selectivity(
            &db,
            "photoObj",
            &Expr::Binary {
                left: Box::new(Expr::Binary {
                    left: Box::new(Expr::col("type")),
                    op: BinaryOp::Eq,
                    right: Box::new(Expr::int(3)),
                }),
                op: BinaryOp::And,
                right: Box::new(Expr::Binary {
                    left: Box::new(Expr::col("type")),
                    op: BinaryOp::Eq,
                    right: Box::new(Expr::int(6)),
                }),
            },
        );
        let one = predicate_selectivity(
            &db,
            "photoObj",
            &Expr::Binary {
                left: Box::new(Expr::col("type")),
                op: BinaryOp::Eq,
                right: Box::new(Expr::int(3)),
            },
        );
        assert!(both < one, "AND must be more selective than one conjunct");
        assert!((0.0..=1.0).contains(&both));
    }
}
