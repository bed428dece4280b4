//! Name resolution: from an AST `SELECT` to the naive [`LogicalPlan`] the
//! optimizer rules rewrite.
//!
//! The binder makes **no** optimization decisions.  Every base table is
//! bound as a full heap scan, every view as a materialised derived table
//! (remembering the view text so the view-merge rule can collapse it later),
//! and every conjunct from WHERE / inner-join ON clauses is collected into
//! one classified pool.  The rule pipeline then rewrites this structure into
//! the physical shape `EXPLAIN` shows.

use crate::ast::{Expr, FromItem, JoinKind, SelectItem, SelectStatement, TableSource};
use crate::error::SqlError;
use crate::exec::compile::eval_constant;
use crate::expr::{EvalContext, RowSchema};
use crate::functions::{FunctionRegistry, SeekForm, TableBody};
use crate::plan::{AccessPath, JoinStep, SeekSource, SelectPlan, SourceKind};
use crate::planner::catalog::{self, ViewFacts};
use crate::planner::stats;
use skyserver_storage::Database;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Everything the rules need to look at besides the plan itself.
pub struct PlanContext<'a> {
    /// The database (tables, views, indexes, statistics).
    pub db: &'a Database,
    /// Registered scalar and table-valued functions.
    pub functions: &'a FunctionRegistry,
    /// Minimum table row count before the parallel-scan rule upgrades a heap
    /// scan to a parallel scan (configurable so tests can force either path).
    pub parallel_scan_threshold: usize,
    /// When true the cost-based join-ordering rule may reorder inner joins
    /// and re-pick access paths using table statistics; when false plans
    /// keep the syntactic order (the bench baseline and escape hatch).
    pub cost_based_ordering: bool,
}

/// A view chain the binder already collapsed to `base WHERE predicates`;
/// the view-merge rule attaches the predicates to the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedView {
    /// The base table the view chain bottoms out at.
    pub base: String,
    /// The chain's accumulated qualifiers, innermost view first, not yet
    /// requalified with the outer alias.
    pub predicates: Vec<Expr>,
}

/// Where a bound source came from, kept so rules can revisit the binding.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceOrigin {
    /// A base (or temp) table named directly.
    Table,
    /// A named view.  `merged` carries the binder's one-time analysis of the
    /// definition chain: `Some` for simple `SELECT * FROM base [WHERE ...]`
    /// stacks (the view-merge rule applies it), `None` for definitions that
    /// had to be materialised as a derived table.
    View {
        /// The view's name.
        name: String,
        /// The binder's one-time merge analysis (see above).
        merged: Option<MergedView>,
    },
    /// A table-valued function call.
    Function,
    /// An inline derived table `(select ...) as d`.
    Derived,
}

/// One bound FROM item.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalSource {
    /// Alias the query refers to this source by.
    pub alias: String,
    /// What is read and how (starts as a naive heap scan).
    pub kind: SourceKind,
    /// The source's output schema.
    pub schema: RowSchema,
    /// What the alias was bound to.
    pub origin: SourceOrigin,
    /// `None` for the first comma-listed source, the join kind otherwise.
    pub join_kind: Option<JoinKind>,
    /// ON conjuncts of a **non-inner** join (inner-join ON conjuncts merge
    /// into the global pool; outer-join ones must stay with their step).
    pub outer_on: Vec<Expr>,
    /// Single-source predicates the pushdown rule moved into this scan.
    pub pushed: Vec<Expr>,
    /// Row budget the limit-pushdown rule granted this scan (TOP n with no
    /// later stage that could need more rows).
    pub limit_hint: Option<u64>,
}

/// A WHERE / ON / merged-view conjunct with its alias footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Conjunct {
    /// The predicate expression.
    pub expr: Expr,
    /// Aliases the conjunct references (canonical alias spelling).
    pub aliases: HashSet<String>,
    /// Set once a rule has given the conjunct a home (pushed into a scan or
    /// folded into a join step); unconsumed conjuncts end up in the global
    /// residual filter.
    pub consumed: bool,
}

impl Conjunct {
    /// A fresh, unconsumed conjunct with its alias footprint.
    pub fn new(expr: Expr, aliases: HashSet<String>) -> Self {
        Conjunct {
            expr,
            aliases,
            consumed: false,
        }
    }
}

/// The rule pipeline's working representation of one SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Bound FROM items, in current (initially syntactic) join order.
    pub sources: Vec<LogicalSource>,
    /// The classified conjunct pool.
    pub conjuncts: Vec<Conjunct>,
    /// Join steps, aligned with `sources[1..]`; built by the join-strategy
    /// rule (when absent, finalization falls back to nested loops).
    pub joins: Vec<JoinStep>,
    /// True when every join is inner/comma (reordering is only legal then).
    pub only_inner: bool,
    /// True for `select <exprs>` with no FROM clause.
    pub fromless: bool,
    /// Original WHERE predicate (needed verbatim for FROM-less selects).
    pub selection: Option<Expr>,
    /// Statement pieces carried through to the physical plan.
    pub select_items: Vec<SelectItem>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// True if any projection or HAVING contains an aggregate.
    pub has_aggregates: bool,
    /// ORDER BY items.
    pub order_by: Vec<crate::ast::OrderByItem>,
    /// TOP n limit.
    pub top: Option<u64>,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// `INTO ##target` destination.
    pub into: Option<String>,
    /// Names of the rules that changed the plan, in pipeline order.
    pub rules_fired: Vec<&'static str>,
}

impl LogicalPlan {
    /// Aliases that can be NULL-extended (the inner side of an outer join).
    /// WHERE conjuncts touching these must run *after* the join, so the
    /// pushdown and join-strategy rules leave them in the global residual.
    pub fn nullable_aliases(&self) -> HashSet<String> {
        self.sources
            .iter()
            .filter(|s| s.join_kind == Some(JoinKind::Left))
            .map(|s| s.alias.to_ascii_lowercase())
            .collect()
    }
}

/// Bind a SELECT statement: resolve names, plan nested selects, classify
/// conjuncts.  `plan_nested` is called for view fallbacks and derived tables
/// (the planner passes its own `plan_select` so nested queries run through
/// the full pipeline too).
pub fn bind(
    stmt: &SelectStatement,
    ctx: &PlanContext<'_>,
    plan_nested: &dyn Fn(&SelectStatement) -> Result<SelectPlan, SqlError>,
) -> Result<LogicalPlan, SqlError> {
    if stmt.projections.is_empty() {
        return Err(SqlError::Plan("SELECT list is empty".into()));
    }
    let mut sources = Vec::with_capacity(stmt.from.len());
    let mut outer_on_pool: Vec<(usize, Expr)> = Vec::new();
    let only_inner = stmt
        .from
        .iter()
        .all(|f| matches!(f.join, None | Some(JoinKind::Inner) | Some(JoinKind::Cross)));
    let mut inner_on: Vec<Expr> = Vec::new();
    for item in &stmt.from {
        let index = sources.len();
        let source = bind_source(item, ctx, plan_nested)?;
        if let Some(on) = &item.on {
            if only_inner {
                inner_on.extend(on.conjuncts().into_iter().cloned());
            } else {
                for c in on.conjuncts() {
                    outer_on_pool.push((index, c.clone()));
                }
            }
        }
        sources.push(source);
    }
    for (index, expr) in outer_on_pool {
        sources[index].outer_on.push(expr);
    }
    let fromless = sources.is_empty();

    // Classify WHERE + inner-ON conjuncts by the aliases they reference.
    let alias_schemas = alias_schemas(&sources);
    let mut conjuncts = Vec::new();
    if !fromless {
        if let Some(w) = &stmt.selection {
            for c in w.conjuncts() {
                let aliases = aliases_of(c, &alias_schemas)?;
                conjuncts.push(Conjunct::new(c.clone(), aliases));
            }
        }
        for c in inner_on {
            let aliases = aliases_of(&c, &alias_schemas)?;
            conjuncts.push(Conjunct::new(c, aliases));
        }
    }

    let has_aggregates = stmt
        .projections
        .iter()
        .any(|p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || stmt
            .having
            .as_ref()
            .map(Expr::contains_aggregate)
            .unwrap_or(false);

    Ok(LogicalPlan {
        sources,
        conjuncts,
        joins: Vec::new(),
        only_inner,
        fromless,
        selection: stmt.selection.clone(),
        select_items: stmt.projections.clone(),
        group_by: stmt.group_by.clone(),
        having: stmt.having.clone(),
        has_aggregates,
        order_by: stmt.order_by.clone(),
        top: stmt.top,
        distinct: stmt.distinct,
        into: stmt.into.clone(),
        rules_fired: Vec::new(),
    })
}

fn bind_source(
    item: &FromItem,
    ctx: &PlanContext<'_>,
    plan_nested: &dyn Fn(&SelectStatement) -> Result<SelectPlan, SqlError>,
) -> Result<LogicalSource, SqlError> {
    let named = |name: &String| item.alias.clone().unwrap_or_else(|| name.clone());
    let (alias, kind, schema, origin) = match &item.source {
        TableSource::Named(name) => {
            let alias = named(name);
            if let Ok(table) = ctx.db.table(name) {
                let schema = RowSchema::shared(Some(&alias), table.schema().names(), None);
                let kind = SourceKind::Table {
                    table: name.clone(),
                    path: AccessPath::HeapScan,
                };
                (alias, kind, schema, SourceOrigin::Table)
            } else {
                let Some(ViewFacts {
                    definition,
                    merged,
                    naive,
                }) = catalog::view(ctx.db, name)?
                else {
                    return Err(SqlError::Plan(format!("unknown table or view {name}")));
                };
                let (kind, schema) = match (merged, naive) {
                    // A simple `SELECT * FROM base [WHERE ...]` view
                    // (possibly stacked) binds as its naive derived table —
                    // one filtered scan, built once per catalog — which the
                    // view-merge rule rewrites into a direct base-table
                    // access.  The naive binding is a *correct* derived
                    // table, so a pipeline prefix without the rule stays
                    // valid.
                    (Some(merged), Some(plan)) => {
                        let names = ctx.db.table(&merged.base)?.schema().names();
                        let schema = RowSchema::shared(Some(&alias), names, None);
                        let plan = Arc::clone(plan);
                        (SourceKind::Derived { plan }, schema)
                    }
                    // Too complex to merge, or qualifiers that call a
                    // registered function: plan the body as a derived table.
                    _ => derived(&alias, plan_nested(definition)?),
                };
                let origin = SourceOrigin::View {
                    name: name.clone(),
                    merged: merged.clone(),
                };
                (alias, kind, schema, origin)
            }
        }
        TableSource::Function { name, args } => {
            let alias = named(name);
            let tf = ctx
                .functions
                .table(name)
                .ok_or_else(|| SqlError::UnknownFunction(name.clone()))?;
            let cols: Vec<&str> = tf.columns.iter().map(String::as_str).collect();
            let schema = RowSchema::for_table(Some(&alias), &cols);
            let kind = match &tf.body {
                TableBody::Seek(form) => {
                    SourceKind::Seek(bind_seek(name, args, form, &tf.columns, ctx)?)
                }
                TableBody::Closure(_) => SourceKind::TableFunction {
                    name: name.clone(),
                    args: args.clone(),
                },
            };
            (alias, kind, schema, SourceOrigin::Function)
        }
        TableSource::Derived(select) => {
            let alias = item
                .alias
                .clone()
                .ok_or_else(|| SqlError::Plan("derived tables need an alias".into()))?;
            let (kind, schema) = derived(&alias, plan_nested(select)?);
            (alias, kind, schema, SourceOrigin::Derived)
        }
    };
    Ok(LogicalSource {
        alias,
        kind,
        schema,
        origin,
        join_kind: item.join,
        outer_on: Vec::new(),
        pushed: Vec::new(),
        limit_hint: None,
    })
}

/// Bind a seek-form function call to its table: resolve its output and
/// tested columns, take the form's index when it exists and leads on the
/// form's key, and — when the arguments are constant — compute the cover
/// and the estimate now.  A cover that cannot be computed yet (arguments
/// naming variables) or that the form rejects is computed when the source
/// opens, which raises the form's error there, as a call always has.
fn bind_seek(
    function: &str,
    args: &[Expr],
    form: &Arc<SeekForm>,
    columns: &[String],
    ctx: &PlanContext<'_>,
) -> Result<SeekSource, SqlError> {
    let schema = ctx.db.table(&form.table)?.schema();
    let ordinal = |c: &str| {
        schema
            .column_index(c)
            .ok_or_else(|| SqlError::Plan(format!("{function}: {} lacks column {c}", form.table)))
    };
    let outputs = columns
        .iter()
        .map(|c| match &form.measure {
            Some(m) if m.eq_ignore_ascii_case(c) => Ok(None),
            _ => ordinal(c).map(Some),
        })
        .collect::<Result<_, _>>()?;
    let tested = form
        .tested
        .iter()
        .map(|c| ordinal(c))
        .collect::<Result<_, _>>()?;
    let index = ctx
        .db
        .index(&form.table, &form.index)
        .filter(|idx| idx.def().leading_column().eq_ignore_ascii_case(&form.key))
        .map(|idx| idx.def().name.clone());
    let variables = HashMap::new();
    let constants = EvalContext {
        variables: &variables,
        functions: ctx.functions,
        aggregates: None,
    };
    let cover = args
        .iter()
        .map(|a| eval_constant(a, &constants))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|values| (form.cover)(&values))
        .ok()
        .map(Arc::new);
    let mut seek = SeekSource {
        table: form.table.clone(),
        function: function.to_string(),
        args: args.to_vec(),
        form: Arc::clone(form),
        index,
        cover,
        outputs,
        tested,
        estimate: 0.0,
    };
    seek.estimate = stats::seek_rows(ctx.db, &seek);
    Ok(seek)
}

/// A planned sub-select bound as a derived table: its output names under
/// `alias`.
fn derived(alias: &str, plan: SelectPlan) -> (SourceKind, RowSchema) {
    let names: Vec<&str> = plan.projections.iter().map(|(_, n)| n.as_str()).collect();
    let schema = RowSchema::for_table(Some(alias), &names);
    let plan = Arc::new(plan);
    (SourceKind::Derived { plan }, schema)
}

/// Alias → schema pairs, for conjunct classification.
pub fn alias_schemas(sources: &[LogicalSource]) -> Vec<(&str, &RowSchema)> {
    sources
        .iter()
        .map(|s| (s.alias.as_str(), &s.schema))
        .collect()
}

/// Which aliases does an expression reference?  Errors on unknown aliases,
/// unknown columns and ambiguous unqualified names — the same checks the
/// monolithic planner performed.
pub fn aliases_of(
    expr: &Expr,
    alias_schemas: &[(&str, &RowSchema)],
) -> Result<HashSet<String>, SqlError> {
    let mut cols = Vec::new();
    expr.collect_columns(&mut cols);
    let mut out = HashSet::new();
    for (q, name) in cols {
        match q {
            Some(q) => {
                let found = alias_schemas
                    .iter()
                    .find(|(a, _)| a.eq_ignore_ascii_case(&q));
                match found {
                    Some((a, _)) => {
                        out.insert(a.to_string());
                    }
                    None => {
                        return Err(SqlError::Plan(format!("unknown table alias {q}")));
                    }
                }
            }
            None => {
                let matches: Vec<&str> = alias_schemas
                    .iter()
                    .filter(|(_, s)| s.can_resolve(None, &name))
                    .map(|(a, _)| *a)
                    .collect();
                match matches.len() {
                    0 => {
                        return Err(SqlError::Plan(format!("unknown column {name}")));
                    }
                    1 => {
                        out.insert(matches[0].to_string());
                    }
                    _ => {
                        return Err(SqlError::Plan(format!("ambiguous column {name}")));
                    }
                }
            }
        }
    }
    Ok(out)
}
