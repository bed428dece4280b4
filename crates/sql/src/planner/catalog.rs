//! Planner facts that depend on the catalog alone, built once per catalog
//! state instead of once per statement.
//!
//! A base table's column names need nothing here: its
//! [`ColumnNames`](skyserver_storage::ColumnNames) are built with its schema
//! and shared by every row schema over it.  What remains is the views: each
//! definition is parsed, its merge chain analysed ([`merge_chain`]) and
//! its naive binding built, once.  The facts live in the database's catalog
//! memo ([`Database::catalog_memo`]), which every DDL call replaces and
//! every snapshot keeps, so a statement on the head sees the head's
//! definitions and a statement `AS OF` a release sees that release's.

use super::binder::{MergedView, PlanContext};
use super::rules::view_merge::merge_chain;
use crate::ast::{Expr, SelectItem, SelectStatement};
use crate::error::SqlError;
use crate::expr::RowSchema;
use crate::functions::FunctionRegistry;
use crate::parser::parse_select;
use crate::plan::{AccessPath, SelectPlan, SourceKind, SourcePlan};
use skyserver_storage::Database;
use std::collections::HashMap;
use std::sync::Arc;

/// One view definition, parsed and analysed.
pub(crate) struct ViewFacts {
    /// The parsed definition.
    pub definition: SelectStatement,
    /// The collapsed `base WHERE qualifiers` chain, when the definition is
    /// a stack of simple `SELECT * FROM x [WHERE ...]` views.
    pub merged: Option<MergedView>,
    /// The merged chain's naive derived table ([`naive_view_plan`]), when
    /// its qualifiers compile against the built-in functions alone: then it
    /// depends on the catalog only, not on a function registry.  Otherwise
    /// the binder plans the definition as a derived table per statement.
    pub naive: Option<Arc<SelectPlan>>,
}

/// The views of one catalog state, by lowercase name.  A definition that
/// fails to parse or to analyse keeps its error, raised on every reference.
type Views = HashMap<String, Result<ViewFacts, SqlError>>;

/// The view named `name` (case-insensitive) in `db`'s catalog.
pub(crate) fn view<'a>(db: &'a Database, name: &str) -> Result<Option<&'a ViewFacts>, SqlError> {
    let views = db
        .catalog_memo(build)
        .ok_or_else(|| SqlError::Plan("the catalog memo holds foreign facts".into()))?;
    let facts = views.get(&name.to_ascii_lowercase());
    facts.map(|f| f.as_ref().map_err(Clone::clone)).transpose()
}

fn build(db: &Database) -> Views {
    let builtins = FunctionRegistry::new();
    let ctx = PlanContext {
        db,
        functions: &builtins,
        parallel_scan_threshold: super::PARALLEL_SCAN_THRESHOLD,
        cost_based_ordering: true,
    };
    let parsed: HashMap<String, Result<SelectStatement, SqlError>> = db
        .views()
        .map(|v| (v.name.to_ascii_lowercase(), parse_select(&v.sql)))
        .collect();
    let facts = |definition: &Result<SelectStatement, SqlError>| {
        let definition = definition.clone()?;
        let merged = merge_chain(&definition, db, &parsed)?;
        let naive = merged.as_ref().and_then(|m| naive_view_plan(m, &ctx).ok());
        let naive = naive.map(Arc::new);
        Ok(ViewFacts {
            definition,
            merged,
            naive,
        })
    };
    parsed
        .iter()
        .map(|(name, d)| (name.clone(), facts(d)))
        .collect()
}

/// The un-optimized but correct plan for a merged-view chain: one heap scan
/// of the base table with the accumulated qualifiers applied during the
/// scan, projecting every column.  Equivalent to planning the view body,
/// minus the recursive pipeline run.
fn naive_view_plan(merged: &MergedView, ctx: &PlanContext<'_>) -> Result<SelectPlan, SqlError> {
    let names = ctx.db.table(&merged.base)?.schema().names();
    let schema = RowSchema::shared(Some(&merged.base), names, None);
    let projections = super::expand_projections(&[SelectItem::Wildcard], &schema)?;
    let mut plan = SelectPlan {
        sources: vec![SourcePlan {
            alias: merged.base.clone(),
            kind: SourceKind::Table {
                table: merged.base.clone(),
                path: AccessPath::HeapScan,
            },
            pushed_predicate: Expr::from_conjuncts(merged.predicates.clone()),
            schema: schema.clone(),
            limit_hint: None,
            zone_constraints: Vec::new(),
            // `select *`: the row layout is the whole table.
            scan_columns: Some((0..names.len()).collect()),
            est_rows: None,
        }],
        joins: Vec::new(),
        residual: None,
        projections,
        select_items: vec![SelectItem::Wildcard],
        group_by: Vec::new(),
        having: None,
        has_aggregates: false,
        order_by: Vec::new(),
        top: None,
        distinct: false,
        into: None,
        input_schema: schema,
        rules_fired: Vec::new(),
        programs: Default::default(),
        est_rows: None,
        release: None,
    };
    plan.programs = super::build_programs(&plan, ctx)?;
    Ok(plan)
}
