//! Post-finalization plan annotation: the scan-column sets.
//!
//! Runs inside `super::finalize` on every plan, before its programs are
//! compiled: the scan-column sets are the runtime row layouts the programs
//! resolve their ordinals against (`super::source_layout`).
//!
//! A base-table source's **scan columns** are the storage ordinals the
//! query references on it anywhere in the plan (restricted to the covered
//! columns on a covering-index scan).  They are the only cells a
//! materialized row of the source carries, and the only bytes accounting
//! charges.  A seek source gets the positions, in the function's output
//! columns, of the ones the statement reads.
//!
//! Nothing here decides zone pruning: a heap scan asks its compiled
//! filter's kernels whether a segment's min/max can hold a matching row
//! (`crate::exec::vector`'s `BatchProgram::segment_may_match`).

use crate::plan::{AccessPath, SelectPlan, SourceKind};
use skyserver_storage::{Database, TableSchema};
use std::collections::BTreeSet;

/// Annotate every base-table and seek source of `plan` with its scan
/// columns.  Derived sub-plans were annotated by their own
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
