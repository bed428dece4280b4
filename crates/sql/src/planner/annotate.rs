//! Post-finalization plan annotation: zone-map constraints and scan-column
//! sets.
//!
//! Runs inside `super::finalize` on every plan, before its programs are
//! compiled: the scan-column sets are the runtime row layouts the programs
//! resolve their ordinals against (`super::source_layout`).
//!
//! A seek source gets its scan columns only: the positions, in the
//! function's output columns, of the ones the statement reads.
//!
//! Two annotations are produced per base-table source:
//!
//! * **Zone constraints** ([`ZoneConstraint`]): value intervals the pushed
//!   predicate implies for individual columns.  Heap scans compare them
//!   against the per-segment min/max zone maps the columnar storage layer
//!   maintains and skip whole segments without touching a row.
//! * **Scan columns**: the set of storage ordinals the query references on
//!   the source anywhere in the plan (restricted to the covered columns on
//!   a covering-index scan).  They are the only cells a materialized row of
//!   the source carries, and the only bytes accounting charges.
//!
//! # Soundness of zone pruning
//!
//! Constraints are extracted only when **every** conjunct of the pushed
//! predicate is *total*: its evaluation can never raise an execution error
//! (no arithmetic, casts, functions or variables).  Under that condition a
//! segment may be skipped when any constraint's interval is disjoint from
//! the column's `[zone_min, zone_max]`:
//!
//! * a live row whose (non-NULL) constrained column lies outside the
//!   interval makes that conjunct FALSE, so the AND rejects the row;
//! * a NULL column value makes the conjunct NULL, and a NULL conjunct makes
//!   the whole AND non-TRUE — rejected as well;
//! * totality guarantees no conjunct can error, so skipping rows cannot
//!   suppress an error evaluating those rows would have reported.
//!
//! The interval comparison uses [`Value::total_cmp`] — the same ordering
//! `=`, `<`, `BETWEEN` etc. are defined with — so "outside the interval"
//! and "conjunct is FALSE/NULL" agree even across Int/Float mixes.  LIKE
//! conjuncts are total (they never error) but contribute no interval: the
//! engine's LIKE is case-insensitive while string zones order byte-wise.

use crate::ast::{BinaryOp, Expr};
use crate::plan::{AccessPath, SelectPlan, SourceKind, ZoneConstraint};
use skyserver_storage::{DataType, Database, TableSchema, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Annotate every base-table source of `plan` with zone constraints and
/// scan columns.  Derived sub-plans were annotated by their own
/// `plan_select` run and are left untouched.
pub fn annotate(plan: &mut SelectPlan, db: &Database) {
    // Collect every column reference in the plan once (the scan-column
    // union is per-alias, over the whole statement).
    let mut refs: Vec<(Option<String>, String)> = Vec::new();
    collect_plan_columns(plan, &mut refs);

    for source in &mut plan.sources {
        if let SourceKind::Seek(_) = &source.kind {
            // A seek source's row is the function's output columns the
            // statement reads: positions in its schema.
            let columns = (source.schema.columns().enumerate())
                .filter(|(_, (_, name))| {
                    refs.iter().any(|(q, n)| {
                        n.eq_ignore_ascii_case(name)
                            && q.as_ref()
                                .is_none_or(|q| q.eq_ignore_ascii_case(&source.alias))
                    })
                })
                .map(|(position, _)| position)
                .collect();
            source.scan_columns = Some(columns);
            continue;
        }
        let SourceKind::Table { table, path } = &source.kind else {
            continue;
        };
        let Ok(t) = db.table(table) else { continue };
        let schema = t.schema();
        let mut columns = scan_columns(&refs, &source.alias, schema);
        if let AccessPath::CoveringIndexScan { index } = path {
            // An index entry holds nothing but the covered columns.
            if let Some(idx) = db.index(table, index) {
                columns.retain(|&c| idx.covered_ordinals().any(|o| o == c));
            }
        }
        source.scan_columns = Some(columns);
        if let Some(pred) = &source.pushed_predicate {
            source.zone_constraints = zone_constraints(pred, &source.alias, schema);
        }
    }
}

/// Union of storage ordinals referenced on `alias`, sorted.  Unqualified
/// names are charged to every source that has such a column (conservative
/// over-count; identical in both execution modes).
fn scan_columns(
    refs: &[(Option<String>, String)],
    alias: &str,
    schema: &TableSchema,
) -> Vec<usize> {
    let mut out = BTreeSet::new();
    for (qualifier, name) in refs {
        let ours = match qualifier {
            Some(q) => q.eq_ignore_ascii_case(alias),
            None => true,
        };
        if !ours {
            continue;
        }
        if let Some(ordinal) = schema.column_index(name) {
            out.insert(ordinal);
        }
    }
    out.into_iter().collect()
}

/// Every column reference in every expression of the plan (excluding
/// derived sub-plans, which reference their own aliases).
fn collect_plan_columns(plan: &SelectPlan, out: &mut Vec<(Option<String>, String)>) {
    for source in &plan.sources {
        if let Some(p) = &source.pushed_predicate {
            p.collect_columns(out);
        }
        let args = match &source.kind {
            SourceKind::TableFunction { args, .. } => args.as_slice(),
            SourceKind::Seek(seek) => seek.args.as_slice(),
            _ => &[],
        };
        for a in args {
            a.collect_columns(out);
        }
    }
    for step in &plan.joins {
        match &step.strategy {
            crate::plan::JoinStrategy::IndexLookup { outer_key, .. } => {
                outer_key.collect_columns(out);
            }
            crate::plan::JoinStrategy::Hash {
                outer_keys,
                inner_keys,
            } => {
                for k in outer_keys.iter().chain(inner_keys) {
                    k.collect_columns(out);
                }
            }
            crate::plan::JoinStrategy::NestedLoop => {}
        }
        if let Some(r) = &step.residual {
            r.collect_columns(out);
        }
    }
    if let Some(r) = &plan.residual {
        r.collect_columns(out);
    }
    for (e, _) in &plan.projections {
        e.collect_columns(out);
    }
    for g in &plan.group_by {
        g.collect_columns(out);
    }
    if let Some(h) = &plan.having {
        h.collect_columns(out);
    }
    for o in &plan.order_by {
        o.expr.collect_columns(out);
    }
}

/// Extract zone constraints from a pushed predicate, or nothing when any
/// conjunct is non-total.
pub(crate) fn zone_constraints(
    pred: &Expr,
    alias: &str,
    schema: &TableSchema,
) -> Vec<ZoneConstraint> {
    let conjuncts = pred.conjuncts();
    if !conjuncts.iter().all(|c| is_total(c, alias, schema)) {
        return Vec::new();
    }
    let mut out: Vec<ZoneConstraint> = Vec::new();
    for c in &conjuncts {
        if let Some(constraint) = extract(c, alias, schema) {
            match out.iter_mut().find(|z| z.ordinal == constraint.ordinal) {
                Some(existing) => intersect(existing, constraint),
                None => out.push(constraint),
            }
        }
    }
    out
}

/// Tighten `into` with a second interval on the same column.
fn intersect(into: &mut ZoneConstraint, other: ZoneConstraint) {
    into.low = stricter(into.low.take(), other.low, Ordering::Greater);
    into.high = stricter(into.high.take(), other.high, Ordering::Less);
}

fn stricter(
    a: Option<(Value, bool)>,
    b: Option<(Value, bool)>,
    prefer: Ordering,
) -> Option<(Value, bool)> {
    match (a, b) {
        (Some((av, ai)), Some((bv, bi))) => match av.total_cmp(&bv) {
            o if o == prefer => Some((av, ai)),
            Ordering::Equal => Some((av, ai && bi)),
            _ => Some((bv, bi)),
        },
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// A literal constant, looking through arithmetic negation of numerics.
fn const_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Unary {
            op: crate::ast::UnaryOp::Neg,
            expr,
        } => match const_value(expr)? {
            Value::Int(i) => Some(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Some(Value::Float(-f)),
            Value::Null => Some(Value::Null),
            _ => None,
        },
        _ => None,
    }
}

/// A bare reference to one of this source's columns; returns its storage
/// ordinal.
fn source_column(e: &Expr, alias: &str, schema: &TableSchema) -> Option<usize> {
    let Expr::Column { qualifier, name } = e else {
        return None;
    };
    if let Some(q) = qualifier {
        if !q.eq_ignore_ascii_case(alias) {
            return None;
        }
    }
    schema.column_index(name)
}

/// `col & mask` / `col | mask` over a numeric/bool column — total because
/// `as_i64` cannot fail on those types and NULL short-circuits first.
fn is_flags_expr(e: &Expr, alias: &str, schema: &TableSchema) -> bool {
    let Expr::Binary { left, op, right } = e else {
        return false;
    };
    if !matches!(op, BinaryOp::BitAnd | BinaryOp::BitOr) {
        return false;
    }
    let (col, konst) = match (
        source_column(left, alias, schema),
        source_column(right, alias, schema),
    ) {
        (Some(c), None) => (c, right),
        (None, Some(c)) => (c, left),
        _ => return false,
    };
    let numeric_col = matches!(
        schema.columns()[col].ty,
        DataType::Int | DataType::Float | DataType::Bool
    );
    let int_const = matches!(
        const_value(konst),
        Some(Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Null)
    );
    numeric_col && int_const
}

/// An operand whose evaluation can never error: a constant, one of this
/// source's columns, or the flags idiom.
fn total_operand(e: &Expr, alias: &str, schema: &TableSchema) -> bool {
    const_value(e).is_some()
        || source_column(e, alias, schema).is_some()
        || is_flags_expr(e, alias, schema)
}

/// Can this conjunct's evaluation ever raise an execution error?
pub(crate) fn is_total(e: &Expr, alias: &str, schema: &TableSchema) -> bool {
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            total_operand(left, alias, schema) && total_operand(right, alias, schema)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            total_operand(expr, alias, schema)
                && const_value(low).is_some()
                && const_value(high).is_some()
        }
        Expr::InList { expr, list, .. } => {
            total_operand(expr, alias, schema) && list.iter().all(|i| const_value(i).is_some())
        }
        Expr::IsNull { expr, .. } => total_operand(expr, alias, schema),
        Expr::Like { expr, pattern, .. } => {
            total_operand(expr, alias, schema)
                && matches!(const_value(pattern), Some(Value::Str(_)))
        }
        _ => const_value(e).is_some(),
    }
}

/// The interval one (total) conjunct implies, if any.
fn extract(e: &Expr, alias: &str, schema: &TableSchema) -> Option<ZoneConstraint> {
    let make = |ordinal: usize, low, high| {
        Some(ZoneConstraint {
            ordinal,
            column: schema.columns()[ordinal].name.clone(),
            low,
            high,
        })
    };
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // Normalize to `col op const`.
            let (ordinal, op, v) = match (source_column(left, alias, schema), const_value(right)) {
                (Some(c), Some(v)) => (c, *op, v),
                _ => match (const_value(left), source_column(right, alias, schema)) {
                    (Some(v), Some(c)) => (c, op.mirror(), v),
                    _ => return None,
                },
            };
            if v.is_null() {
                return None;
            }
            match op {
                BinaryOp::Eq => make(ordinal, Some((v.clone(), true)), Some((v, true))),
                BinaryOp::Lt => make(ordinal, None, Some((v, false))),
                BinaryOp::LtEq => make(ordinal, None, Some((v, true))),
                BinaryOp::Gt => make(ordinal, Some((v, false)), None),
                BinaryOp::GtEq => make(ordinal, Some((v, true)), None),
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let ordinal = source_column(expr, alias, schema)?;
            let lo = const_value(low)?;
            let hi = const_value(high)?;
            if lo.is_null() || hi.is_null() {
                return None;
            }
            make(ordinal, Some((lo, true)), Some((hi, true)))
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let ordinal = source_column(expr, alias, schema)?;
            let values: Vec<Value> = list.iter().filter_map(const_value).collect();
            if values.len() != list.len() || values.iter().any(Value::is_null) || values.is_empty()
            {
                return None;
            }
            let lo = values
                .iter()
                .min_by(|a, b| a.total_cmp(b))
                .cloned()
                .expect("non-empty");
            let hi = values
                .iter()
                .max_by(|a, b| a.total_cmp(b))
                .cloned()
                .expect("non-empty");
            make(ordinal, Some((lo, true)), Some((hi, true)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver_storage::ColumnDef;

    fn schema() -> TableSchema {
        TableSchema::new(vec![
            ColumnDef::new("objID", DataType::Int),
            ColumnDef::new("ra", DataType::Float),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("flags", DataType::Int),
        ])
    }

    fn parse_where(sql: &str) -> Expr {
        let stmt = crate::parser::parse_select(&format!("select 1 from t where {sql}")).unwrap();
        stmt.selection.unwrap()
    }

    fn constraints(sql: &str) -> Vec<ZoneConstraint> {
        zone_constraints(&parse_where(sql), "t", &schema())
    }

    #[test]
    fn range_conjuncts_intersect() {
        let z = constraints("ra >= 180 and ra < 190 and ra > 181");
        assert_eq!(z.len(), 1);
        assert_eq!(z[0].column, "ra");
        assert_eq!(z[0].low, Some((Value::Int(181), false)));
        assert_eq!(z[0].high, Some((Value::Int(190), false)));
    }

    #[test]
    fn equality_and_between_and_in() {
        let z = constraints("objID = 7");
        assert_eq!(z[0].low, Some((Value::Int(7), true)));
        assert_eq!(z[0].high, Some((Value::Int(7), true)));

        let z = constraints("ra between 1 and 2");
        assert_eq!(z[0].low, Some((Value::Int(1), true)));
        assert_eq!(z[0].high, Some((Value::Int(2), true)));

        let z = constraints("objID in (5, 3, 9)");
        assert_eq!(z[0].low, Some((Value::Int(3), true)));
        assert_eq!(z[0].high, Some((Value::Int(9), true)));
    }

    #[test]
    fn non_total_conjunct_blocks_everything() {
        // sqrt() may error on unexpected input; one non-total conjunct
        // disables extraction for the whole predicate.
        assert!(constraints("ra > 180 and sqrt(ra) < 14").is_empty());
        // Variables are unknown at plan time.
        assert!(constraints("ra > 180 and flags = @saturated").is_empty());
        // Arithmetic can divide by zero.
        assert!(constraints("ra > 180 and objID / 2 = 1").is_empty());
    }

    #[test]
    fn total_companions_do_not_block() {
        let z = constraints("ra > 180 and (flags & 64) = 0 and name like 'NGC%'");
        assert_eq!(z.len(), 1);
        assert_eq!(z[0].column, "ra");
    }

    #[test]
    fn zone_overlap_logic() {
        let z = &constraints("ra >= 10 and ra < 20")[0];
        let v = |i: i64| Value::Int(i);
        assert!(z.zone_overlaps(Some(&v(0)), Some(&v(15))));
        assert!(z.zone_overlaps(Some(&v(15)), Some(&v(100))));
        assert!(!z.zone_overlaps(Some(&v(0)), Some(&v(9))));
        // Exclusive upper bound: a segment whose whole zone is [20, 30]
        // cannot contain ra < 20.
        assert!(!z.zone_overlaps(Some(&v(20)), Some(&v(30))));
        // Inclusive lower bound: zone [5, 10] still qualifies.
        assert!(z.zone_overlaps(Some(&v(5)), Some(&v(10))));
        // All-NULL column: no zone, nothing to satisfy a bound.
        assert!(!z.zone_overlaps(None, None));
    }

    #[test]
    fn negated_shapes_are_total_but_unbounded() {
        for sql in [
            "objID not in (1, 2)",
            "ra not between 1 and 2",
            "objID <> 5",
            "name is not null",
        ] {
            let pred = parse_where(sql);
            assert!(is_total(&pred, "t", &schema()), "{sql}");
            assert!(constraints(sql).is_empty(), "{sql}");
        }
    }
}
