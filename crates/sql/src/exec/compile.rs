//! Expression compilation: from AST [`Expr`] trees to ordinal-resolved,
//! constant-folded programs — the only way the engine evaluates an
//! expression.
//!
//! Resolving a column reference means scanning the [`RowSchema`] with
//! case-insensitive string compares; a variable name is lowercased, a
//! function name normalized and a `LIKE` pattern parsed.  On the paper's
//! scan-heavy workload (20 data-mining queries over multi-million-row
//! tables, Figure 13) doing that per row would dominate the scan loop.  A
//! [`CompiledExpr`] does all of it once, at plan-finalization time:
//!
//! * column references become pre-resolved **ordinals** ([`CompiledExpr::Col`]),
//! * literal and constant subtrees are **folded** (only when folding cannot
//!   change error or short-circuit semantics),
//! * `AND`/`OR` chains flatten into **short-circuiting conjunct programs**
//!   with neutral constants dropped,
//! * constant `LIKE` patterns parse once into a [`LikeMatcher`],
//! * variable / function / aggregate names are pre-normalized so the per-row
//!   lookups allocate nothing.
//!
//! Expressions that read no row — INSERT VALUES, `SET @v`, table-function
//! arguments, index seek bounds — compile against the empty schema and run
//! once (`eval_constant`).  A property test in
//! `tests/compiled_equivalence.rs` checks programs against an independent
//! reference evaluator on randomized expression trees and rows.

use crate::ast::{is_aggregate_name, BinaryOp, Expr, UnaryOp};
use crate::error::SqlError;
use crate::expr::{apply_binary, apply_unary, between_value, EvalContext, RowSchema};
use crate::functions::{eval_builtin_normalized, is_builtin, normalize_name, FunctionRegistry};
use skyserver_storage::{DataType, Value};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// LIKE matcher
// ---------------------------------------------------------------------------

/// One unit of a `%`-free pattern segment: a literal byte (pre-lowercased)
/// or the single-character wildcard `_`.
#[derive(Debug, Clone, PartialEq)]
enum LikeAtom {
    /// A literal byte, compared case-insensitively (ASCII).
    Byte(u8),
    /// `_`: matches exactly one byte.
    Any,
}

/// A `LIKE` pattern parsed once into `%`-separated segments.
///
/// Matching walks the text left to right, anchoring the first/last segment
/// when the pattern does not start/end with `%` and finding each middle
/// segment at its earliest position (the classic greedy wildcard algorithm).
/// Worst case is O(text x pattern) — the naive per-position retry a
/// recursive matcher performs on patterns like `a%a%a%...%b` is structurally
/// impossible, because every `%` is resolved by a single memoized
/// segment-search instead of a branching retry.
#[derive(Debug, Clone, PartialEq)]
pub struct LikeMatcher {
    segments: Vec<Vec<LikeAtom>>,
    anchored_start: bool,
    anchored_end: bool,
}

impl LikeMatcher {
    /// Parse a pattern (case-insensitively) into a reusable matcher.
    pub fn new(pattern: &str) -> LikeMatcher {
        let lowered = pattern.to_ascii_lowercase();
        let bytes = lowered.as_bytes();
        let anchored_start = bytes.first().is_none_or(|&b| b != b'%');
        let anchored_end = bytes.last().is_none_or(|&b| b != b'%');
        let segments = bytes
            .split(|&b| b == b'%')
            .filter(|seg| !seg.is_empty())
            .map(|seg| {
                seg.iter()
                    .map(|&b| {
                        if b == b'_' {
                            LikeAtom::Any
                        } else {
                            LikeAtom::Byte(b)
                        }
                    })
                    .collect()
            })
            .collect();
        LikeMatcher {
            segments,
            anchored_start,
            anchored_end,
        }
    }

    /// Does the text match?  Case-insensitive (ASCII), byte oriented.
    pub fn matches(&self, text: &str) -> bool {
        let t = text.as_bytes();
        let segs = &self.segments;
        if segs.is_empty() {
            // "" (anchored) matches only the empty string; "%"/"%%" match
            // anything.
            return !self.anchored_start || t.is_empty();
        }
        if self.anchored_start && self.anchored_end && segs.len() == 1 {
            // No `%` at all: the segment must cover the whole text.
            return segs[0].len() == t.len() && seg_match_at(&segs[0], t, 0);
        }
        let mut pos = 0;
        let mut first = 0;
        let mut last = segs.len();
        if self.anchored_start {
            if !seg_match_at(&segs[0], t, 0) {
                return false;
            }
            pos = segs[0].len();
            first = 1;
        }
        let mut tail_limit = t.len();
        if self.anchored_end {
            let seg = &segs[last - 1];
            if t.len() < seg.len() {
                return false;
            }
            let at = t.len() - seg.len();
            if !seg_match_at(seg, t, at) {
                return false;
            }
            last -= 1;
            tail_limit = at;
        }
        if pos > tail_limit {
            // Anchored prefix and suffix overlap (e.g. 'ab%b' vs "ab").
            return false;
        }
        // Middle segments: earliest match, left to right.
        for seg in &segs[first..last] {
            let mut found = None;
            let mut i = pos;
            while i + seg.len() <= tail_limit {
                if seg_match_at(seg, t, i) {
                    found = Some(i);
                    break;
                }
                i += 1;
            }
            match found {
                Some(i) => pos = i + seg.len(),
                None => return false,
            }
        }
        true
    }

    /// Match a [`Value`]: strings directly (no allocation), everything
    /// else through its display form.
    pub fn matches_value(&self, v: &Value) -> bool {
        match v {
            Value::Str(s) => self.matches(s),
            other => self.matches(&other.to_string()),
        }
    }
}

fn seg_match_at(seg: &[LikeAtom], t: &[u8], pos: usize) -> bool {
    if pos + seg.len() > t.len() {
        return false;
    }
    seg.iter().zip(&t[pos..]).all(|(a, &b)| match a {
        LikeAtom::Any => true,
        LikeAtom::Byte(c) => *c == b.to_ascii_lowercase(),
    })
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// An expression compiled against a fixed [`RowSchema`]: column references
/// are ordinals, constants are folded, names are pre-normalized.
///
/// Built by [`compile`]; evaluated with [`CompiledExpr::eval`] in an
/// [`EvalContext`] (variables, functions, grouped aggregates).
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// A literal or folded constant subtree.
    Const(Value),
    /// A column reference resolved to its position in the row.
    Col(usize),
    /// A session variable: pre-lowercased lookup key + original spelling
    /// for error messages.
    Var {
        /// Lowercased map key.
        lookup: String,
        /// The name as written (for the undefined-variable error).
        name: String,
    },
    /// A group's value of one aggregate call, read while projecting grouped
    /// results.
    Agg {
        /// The call's position in [`CompiledPrograms::aggregates`].
        slot: usize,
        /// The function name as written (for error messages).
        name: String,
    },
    /// Unary operator.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand program.
        expr: Box<CompiledExpr>,
    },
    /// Short-circuiting conjunction over two or more programs (three-valued).
    And(Vec<CompiledExpr>),
    /// Short-circuiting disjunction over two or more programs (three-valued).
    Or(Vec<CompiledExpr>),
    /// Non-logical binary operator (arithmetic, comparison, bitwise).
    Binary {
        /// The operator (never `And`/`Or` — those flatten into [`CompiledExpr::And`]/[`CompiledExpr::Or`]).
        op: BinaryOp,
        /// Left operand program.
        left: Box<CompiledExpr>,
        /// Right operand program.
        right: Box<CompiledExpr>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested value program.
        expr: Box<CompiledExpr>,
        /// Lower bound program.
        low: Box<CompiledExpr>,
        /// Upper bound program.
        high: Box<CompiledExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] IN (items...)`.
    InList {
        /// Tested value program.
        expr: Box<CompiledExpr>,
        /// Item programs, probed in order with early exit.
        list: Vec<CompiledExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested value program.
        expr: Box<CompiledExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] LIKE <constant pattern>` with the pattern parsed once.
    LikePre {
        /// Tested value program.
        expr: Box<CompiledExpr>,
        /// The precompiled pattern.
        matcher: LikeMatcher,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] LIKE <dynamic pattern>`: the pattern is itself computed
    /// per row (rare), so the matcher is built per evaluation.
    LikeDyn {
        /// Tested value program.
        expr: Box<CompiledExpr>,
        /// Pattern program.
        pattern: Box<CompiledExpr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// Searched `CASE WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// `(condition, value)` branch programs, tested in order.
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        /// `ELSE` program (`NULL` when absent).
        else_value: Option<Box<CompiledExpr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand program.
        expr: Box<CompiledExpr>,
        /// Target type.
        ty: DataType,
    },
    /// A scalar function call with the name normalized at compile time.
    Call {
        /// Normalized (lowercase, `dbo.`-stripped) function name.
        name: String,
        /// True when the name is a built-in; false for a registered UDF.
        builtin: bool,
        /// Argument programs.
        args: Vec<CompiledExpr>,
    },
}

impl CompiledExpr {
    /// Call `f` on each operand program, left to right.
    pub fn for_each_child(&self, mut f: impl FnMut(&CompiledExpr)) {
        match self {
            CompiledExpr::Const(_)
            | CompiledExpr::Col(_)
            | CompiledExpr::Var { .. }
            | CompiledExpr::Agg { .. } => {}
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::LikePre { expr, .. }
            | CompiledExpr::Cast { expr, .. } => f(expr),
            CompiledExpr::And(items)
            | CompiledExpr::Or(items)
            | CompiledExpr::Call { args: items, .. } => items.iter().for_each(f),
            CompiledExpr::Binary { left, right, .. }
            | CompiledExpr::LikeDyn {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            CompiledExpr::Between {
                expr, low, high, ..
            } => [expr, low, high].into_iter().for_each(|e| f(e)),
            CompiledExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            CompiledExpr::Case {
                branches,
                else_value,
            } => {
                for (condition, value) in branches {
                    f(condition);
                    f(value);
                }
                else_value.iter().for_each(|e| f(e));
            }
        }
    }

    /// Call `f` on every node of the program, each before its operands.
    pub fn visit(&self, f: &mut impl FnMut(&CompiledExpr)) {
        f(self);
        self.for_each_child(|e| e.visit(f));
    }

    /// Append every column ordinal this program reads to `out` (duplicates
    /// allowed — callers sort and dedup).  The batch executor uses this to
    /// materialize only the columns a scalar-fallback program actually
    /// touches instead of the whole row.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        self.visit(&mut |e| {
            if let CompiledExpr::Col(i) = e {
                out.push(*i);
            }
        });
    }

    /// Send every column ordinal through `f`: a pushed predicate compiled
    /// against its source's row layout moves onto storage ordinals, where
    /// the scan kernels run it, without a storage-wide schema to compile
    /// against.
    pub fn map_columns(&mut self, f: &impl Fn(usize) -> usize) {
        match self {
            CompiledExpr::Const(_) | CompiledExpr::Var { .. } | CompiledExpr::Agg { .. } => {}
            CompiledExpr::Col(i) => *i = f(*i),
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::LikePre { expr, .. }
            | CompiledExpr::Cast { expr, .. } => expr.map_columns(f),
            CompiledExpr::And(items)
            | CompiledExpr::Or(items)
            | CompiledExpr::Call { args: items, .. } => {
                items.iter_mut().for_each(|e| e.map_columns(f));
            }
            CompiledExpr::Binary { left, right, .. }
            | CompiledExpr::LikeDyn {
                expr: left,
                pattern: right,
                ..
            } => {
                left.map_columns(f);
                right.map_columns(f);
            }
            CompiledExpr::Between {
                expr, low, high, ..
            } => [expr, low, high].into_iter().for_each(|e| e.map_columns(f)),
            CompiledExpr::InList { expr, list, .. } => {
                expr.map_columns(f);
                list.iter_mut().for_each(|e| e.map_columns(f));
            }
            CompiledExpr::Case {
                branches,
                else_value,
            } => {
                for (condition, value) in branches {
                    condition.map_columns(f);
                    value.map_columns(f);
                }
                else_value.iter_mut().for_each(|e| e.map_columns(f));
            }
        }
    }

    /// Evaluate an operand *by reference* where possible: columns borrow
    /// from the row and constants from the program, so the hot comparison
    /// shapes (`col < const`, `col BETWEEN a AND b`) move no `Value` at
    /// all.  Anything else falls back to owned evaluation.
    #[inline]
    fn operand<'v>(
        &'v self,
        row: &'v [Value],
        ctx: &EvalContext<'_>,
    ) -> Result<std::borrow::Cow<'v, Value>, SqlError> {
        use std::borrow::Cow;
        match self {
            CompiledExpr::Const(v) => Ok(Cow::Borrowed(v)),
            CompiledExpr::Col(idx) => row.get(*idx).map(Cow::Borrowed).ok_or_else(|| {
                SqlError::Execution(format!("row too short for column ordinal {idx}"))
            }),
            other => other.eval(row, ctx).map(Cow::Owned),
        }
    }

    /// Evaluate the program against a row laid out as the schema it was
    /// compiled against.
    pub fn eval(&self, row: &[Value], ctx: &EvalContext<'_>) -> Result<Value, SqlError> {
        match self {
            CompiledExpr::Const(v) => Ok(v.clone()),
            CompiledExpr::Col(idx) => row.get(*idx).cloned().ok_or_else(|| {
                SqlError::Execution(format!("row too short for column ordinal {idx}"))
            }),
            CompiledExpr::Var { lookup, name } => ctx
                .variables
                .get(lookup)
                .cloned()
                .ok_or_else(|| SqlError::Execution(format!("variable @{name} is not defined"))),
            CompiledExpr::Agg { slot, name } => ctx
                .aggregates
                .and_then(|values| values.get(*slot))
                .cloned()
                .ok_or_else(|| {
                    SqlError::Plan(format!("aggregate {name}() is not valid in this context"))
                }),
            CompiledExpr::Unary { op, expr } => apply_unary(*op, expr.eval(row, ctx)?),
            CompiledExpr::And(items) => {
                let mut saw_null = false;
                for item in items {
                    let v = item.operand(row, ctx)?;
                    if v.is_null() {
                        saw_null = true;
                    } else if !v.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(true)
                })
            }
            CompiledExpr::Or(items) => {
                let mut saw_null = false;
                for item in items {
                    let v = item.operand(row, ctx)?;
                    if v.is_null() {
                        saw_null = true;
                    } else if v.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            CompiledExpr::Binary { op, left, right } => {
                let l = left.operand(row, ctx)?;
                let r = right.operand(row, ctx)?;
                apply_binary(&l, *op, &r)
            }
            CompiledExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.operand(row, ctx)?;
                let lo = low.operand(row, ctx)?;
                let hi = high.operand(row, ctx)?;
                Ok(between_value(&v, &lo, &hi, *negated))
            }
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                // T-SQL: a match decides; otherwise a NULL member leaves
                // the answer unknown (`1 NOT IN (2, NULL)` is NULL).
                let v = expr.operand(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.operand(row, ctx)?;
                    if v.sql_eq(&iv) {
                        return Ok(Value::Bool(!*negated));
                    }
                    saw_null |= iv.is_null();
                }
                Ok(match saw_null {
                    true => Value::Null,
                    false => Value::Bool(*negated),
                })
            }
            CompiledExpr::IsNull { expr, negated } => {
                let v = expr.operand(row, ctx)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            CompiledExpr::LikePre {
                expr,
                matcher,
                negated,
            } => {
                let v = expr.operand(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(matcher.matches_value(&v) != *negated))
            }
            CompiledExpr::LikeDyn {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row, ctx)?;
                let p = pattern.eval(row, ctx)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let matcher = LikeMatcher::new(&p.to_string());
                Ok(Value::Bool(matcher.matches_value(&v) != *negated))
            }
            CompiledExpr::Case {
                branches,
                else_value,
            } => {
                for (cond, value) in branches {
                    if cond.operand(row, ctx)?.is_truthy() {
                        return value.eval(row, ctx);
                    }
                }
                match else_value {
                    Some(e) => e.eval(row, ctx),
                    None => Ok(Value::Null),
                }
            }
            CompiledExpr::Cast { expr, ty } => {
                let v = expr.eval(row, ctx)?;
                v.coerce(*ty)
                    .ok_or_else(|| SqlError::Execution(format!("cannot cast {v} to {ty}")))
            }
            CompiledExpr::Call {
                name,
                builtin,
                args,
            } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(row, ctx)?);
                }
                if *builtin {
                    if let Some(result) = eval_builtin_normalized(name, &values) {
                        return result;
                    }
                } else if let Some(udf) = ctx.functions.scalar_normalized(name) {
                    return udf(&values);
                }
                Err(SqlError::UnknownFunction(name.clone()))
            }
        }
    }

    /// Is this a folded constant?
    fn as_const(&self) -> Option<&Value> {
        match self {
            CompiledExpr::Const(v) => Some(v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compile an expression against a row schema.
///
/// Errors are the names that do not resolve (unknown or ambiguous column,
/// unknown function) and a stray `*`; the planner finalizer reports them as
/// plan-time errors, however many rows qualify.
pub fn compile(
    expr: &Expr,
    schema: &RowSchema,
    functions: &FunctionRegistry,
) -> Result<CompiledExpr, SqlError> {
    let aggregates = &[];
    Compiler {
        schema,
        functions,
        aggregates,
    }
    .compile(expr)
}

/// What compiling a program reads besides the expression: the row's schema,
/// the scalar functions and, for a program that runs over a group's
/// representative, the aggregate calls ([`collect_aggregates`]) whose values
/// it reads by position.  A call not listed gets an out-of-range slot, which
/// fails when evaluated.
pub(crate) struct Compiler<'c> {
    pub(crate) schema: &'c RowSchema,
    pub(crate) functions: &'c FunctionRegistry,
    pub(crate) aggregates: &'c [Expr],
}

impl Compiler<'_> {
    /// Compile `expr` (see [`compile`]).
    pub(crate) fn compile(&self, expr: &Expr) -> Result<CompiledExpr, SqlError> {
        let node = match expr {
            Expr::Literal(v) => CompiledExpr::Const(v.clone()),
            Expr::Column { qualifier, name } => {
                CompiledExpr::Col(self.schema.resolve(qualifier.as_deref(), name)?)
            }
            Expr::Variable(name) => CompiledExpr::Var {
                lookup: name.to_ascii_lowercase(),
                name: name.clone(),
            },
            Expr::Star => {
                return Err(SqlError::Execution(
                    "'*' is only valid inside count(*)".into(),
                ))
            }
            Expr::Unary { op, expr } => CompiledExpr::Unary {
                op: *op,
                expr: Box::new(self.compile(expr)?),
            },
            Expr::Binary { left, op, right } => match op {
                BinaryOp::And | BinaryOp::Or => {
                    let mut items = Vec::new();
                    self.flatten_logical(left, *op, &mut items)?;
                    self.flatten_logical(right, *op, &mut items)?;
                    simplify_logical(*op, items)
                }
                _ => CompiledExpr::Binary {
                    op: *op,
                    left: Box::new(self.compile(left)?),
                    right: Box::new(self.compile(right)?),
                },
            },
            Expr::Function { name, args } => {
                if is_aggregate_name(name) {
                    let listed = self.aggregates.iter().position(|a| a == expr);
                    CompiledExpr::Agg {
                        slot: listed.unwrap_or(self.aggregates.len()),
                        name: name.clone(),
                    }
                } else {
                    let normalized = normalize_name(name);
                    let builtin = is_builtin(&normalized);
                    if !builtin && self.functions.scalar_normalized(&normalized).is_none() {
                        return Err(SqlError::UnknownFunction(name.clone()));
                    }
                    let compiled_args = args
                        .iter()
                        .map(|a| self.compile(a))
                        .collect::<Result<Vec<_>, _>>()?;
                    CompiledExpr::Call {
                        name: normalized,
                        builtin,
                        args: compiled_args,
                    }
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => CompiledExpr::Between {
                expr: Box::new(self.compile(expr)?),
                low: Box::new(self.compile(low)?),
                high: Box::new(self.compile(high)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => CompiledExpr::InList {
                expr: Box::new(self.compile(expr)?),
                list: list
                    .iter()
                    .map(|e| self.compile(e))
                    .collect::<Result<Vec<_>, _>>()?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
                expr: Box::new(self.compile(expr)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let compiled_expr = Box::new(self.compile(expr)?);
                let compiled_pattern = self.compile(pattern)?;
                match compiled_pattern.as_const() {
                    // A constant non-NULL pattern parses once.
                    Some(p) if !p.is_null() => CompiledExpr::LikePre {
                        expr: compiled_expr,
                        matcher: LikeMatcher::new(&p.to_string()),
                        negated: *negated,
                    },
                    _ => CompiledExpr::LikeDyn {
                        expr: compiled_expr,
                        pattern: Box::new(compiled_pattern),
                        negated: *negated,
                    },
                }
            }
            Expr::Case {
                branches,
                else_value,
            } => CompiledExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.compile(c)?, self.compile(v)?)))
                    .collect::<Result<Vec<_>, SqlError>>()?,
                else_value: match else_value {
                    Some(e) => Some(Box::new(self.compile(e)?)),
                    None => None,
                },
            },
            Expr::Cast { expr, ty } => CompiledExpr::Cast {
                expr: Box::new(self.compile(expr)?),
                ty: *ty,
            },
        };
        Ok(fold_constants(node, self.functions))
    }

    /// Recursively flatten an `AND`/`OR` chain of the same operator into one
    /// conjunct/disjunct list (preserving left-to-right evaluation order).
    fn flatten_logical(
        &self,
        expr: &Expr,
        op: BinaryOp,
        out: &mut Vec<CompiledExpr>,
    ) -> Result<(), SqlError> {
        if let Expr::Binary {
            left,
            op: inner,
            right,
        } = expr
        {
            if *inner == op {
                self.flatten_logical(left, op, out)?;
                self.flatten_logical(right, op, out)?;
                return Ok(());
            }
        }
        out.push(self.compile(expr)?);
        Ok(())
    }
}

/// Drop neutral constants from a logical chain and collapse degenerate
/// shapes.  Only transformations that cannot change results, errors or
/// evaluation order of the remaining items are applied:
///
/// * `TRUE` conjuncts / `FALSE` disjuncts are neutral and dropped anywhere
///   (constants cannot error, and 3VL treats them as identity elements);
/// * a *leading* absorbing constant (`FALSE AND ...`, `TRUE OR ...`) decides
///   the chain before anything else could run, so the whole chain folds —
///   a non-leading absorbing constant must stay, because the items before it
///   still run (and may error) under short-circuit semantics.
fn simplify_logical(op: BinaryOp, items: Vec<CompiledExpr>) -> CompiledExpr {
    let neutral = op == BinaryOp::And; // TRUE for AND, FALSE for OR
    let mut kept: Vec<CompiledExpr> = Vec::with_capacity(items.len());
    for item in items {
        if let Some(Value::Bool(b)) = item.as_const() {
            if *b == neutral {
                continue; // identity element: drop
            }
            if kept.is_empty() {
                // Leading absorbing constant: the chain short-circuits here.
                return CompiledExpr::Const(Value::Bool(!neutral));
            }
        }
        kept.push(item);
    }
    if kept.is_empty() {
        return CompiledExpr::Const(Value::Bool(neutral));
    }
    // Never unwrap a single remaining item: `x OR FALSE` is the *boolean*
    // of x (or NULL), not x itself — the chain evaluator provides exactly
    // that coercion.
    if op == BinaryOp::And {
        CompiledExpr::And(kept)
    } else {
        CompiledExpr::Or(kept)
    }
}

/// Evaluate an expression that reads no row: compile it against the empty
/// schema and run the program once.
pub(crate) fn eval_constant(expr: &Expr, ctx: &EvalContext<'_>) -> Result<Value, SqlError> {
    compile(expr, &RowSchema::default(), ctx.functions)?.eval(&[], ctx)
}

/// Fold a node whose children are all constants by evaluating it once at
/// compile time.  Nodes that could behave differently at runtime (variables,
/// UDF calls, aggregates, column reads) are never folded, and a node whose
/// constant evaluation *errors* is kept unfolded so the error still occurs
/// at its original evaluation site (or not at all, if short-circuited away).
fn fold_constants(node: CompiledExpr, functions: &FunctionRegistry) -> CompiledExpr {
    if !is_foldable(&node) {
        return node;
    }
    let variables = HashMap::new();
    let ctx = EvalContext {
        variables: &variables,
        functions,
        aggregates: None,
    };
    match node.eval(&[], &ctx) {
        Ok(v) => CompiledExpr::Const(v),
        Err(_) => node,
    }
}

fn is_foldable(node: &CompiledExpr) -> bool {
    let mut operands_const = true;
    node.for_each_child(|e| operands_const &= e.as_const().is_some());
    match node {
        CompiledExpr::Const(_)
        | CompiledExpr::Col(_)
        | CompiledExpr::Var { .. }
        | CompiledExpr::Agg { .. } => false,
        // Built-ins are pure; UDFs make no such promise and never fold.
        CompiledExpr::Call { builtin, .. } => *builtin && operands_const,
        _ => operands_const,
    }
}

// ---------------------------------------------------------------------------
// Whole-plan programs
// ---------------------------------------------------------------------------

/// One ORDER BY key, pre-resolved: either an index into the projected output
/// row (the alias case) or a program over the input row.
#[derive(Debug, Clone, PartialEq)]
pub enum SortKey {
    /// Sort by the n-th output column.
    Output(usize),
    /// Sort by an expression over the input row.
    Input(CompiledExpr),
}

/// The aggregate functions, resolved from the call's name at plan time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateKind {
    /// `count(*)` / `count(x)`.
    Count,
    /// `min(x)`.
    Min,
    /// `max(x)`.
    Max,
    /// `sum(x)`.
    Sum,
    /// `avg(x)`.
    Avg,
    /// `stdev(x)` (sample standard deviation).
    Stdev,
    /// `var(x)` (sample variance).
    Var,
}

impl AggregateKind {
    /// Resolve a (case-insensitive) aggregate function name.
    pub fn parse(name: &str) -> Option<AggregateKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggregateKind::Count,
            "min" => AggregateKind::Min,
            "max" => AggregateKind::Max,
            "sum" => AggregateKind::Sum,
            "avg" => AggregateKind::Avg,
            "stdev" => AggregateKind::Stdev,
            "var" => AggregateKind::Var,
            _ => return None,
        })
    }
}

/// One aggregate call with its argument compiled.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAggregate {
    /// The function name as written (error messages).
    pub name: String,
    /// Which aggregate it is (dispatch).
    pub kind: AggregateKind,
    /// `count(*)` / bare `count()`: counts rows, no argument evaluation.
    pub count_star: bool,
    /// The first argument's program (`None` only for `count_star`).
    pub arg: Option<CompiledExpr>,
}

/// Every program the executor runs, compiled once at plan finalization and
/// carried on the physical plan next to the original `Expr`s (EXPLAIN keeps
/// rendering the expressions; execution runs the programs).
///
/// The set is **complete**: an expression that does not compile fails the
/// plan.  An `Option` slot is `None` only when the plan has no such
/// expression (no pushed predicate, a join without a residual, no HAVING).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledPrograms {
    /// Pushed-down scan predicate per source (parallel to `plan.sources`).
    pub source_predicates: Vec<Option<CompiledExpr>>,
    /// Per source (parallel to `plan.sources`): for an index seek or
    /// covering scan, the run ordinal of each storage column the index
    /// covers, indexed by storage ordinal — the run ordinal space the scan
    /// kernels read the index's runs in.  `None` on every other source.
    pub source_runs: Vec<Option<Vec<Option<usize>>>>,
    /// Outer-key program per join step (index-lookup joins only).
    pub join_outer_keys: Vec<Option<CompiledExpr>>,
    /// `(outer keys, inner keys)` programs per join step (hash joins only).
    #[allow(clippy::type_complexity)]
    pub join_hash_keys: Vec<Option<(Vec<CompiledExpr>, Vec<CompiledExpr>)>>,
    /// Residual predicate per join step.
    pub join_residuals: Vec<Option<CompiledExpr>>,
    /// Post-join residual filter.
    pub residual: Option<CompiledExpr>,
    /// Output projections (aggregate calls appear as [`CompiledExpr::Agg`]).
    pub projections: Vec<CompiledExpr>,
    /// GROUP BY key programs.
    pub group_by: Vec<CompiledExpr>,
    /// HAVING predicate (aggregate calls appear as [`CompiledExpr::Agg`]).
    pub having: Option<CompiledExpr>,
    /// The aggregate calls collected from projections and HAVING, in
    /// [`collect_aggregates`] order.
    pub aggregates: Vec<CompiledAggregate>,
    /// ORDER BY keys with output aliases resolved to positions.
    pub order_by: Vec<SortKey>,
}

/// Collect every distinct aggregate call expression in `expr`, in evaluation
/// order.
pub fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    if !expr.is_aggregate_call() {
        expr.for_each_child(|e| collect_aggregates(e, out));
    } else if !out.contains(expr) {
        out.push(expr.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn compile_where(sql_where: &str, schema: &RowSchema) -> CompiledExpr {
        let stmt = parse_select(&format!("select * from t where {sql_where}")).unwrap();
        let funcs = FunctionRegistry::new();
        compile(&stmt.selection.unwrap(), schema, &funcs).unwrap()
    }

    fn eval_compiled(ce: &CompiledExpr, row: &[Value]) -> Value {
        let vars = HashMap::new();
        let funcs = FunctionRegistry::new();
        let ctx = EvalContext {
            variables: &vars,
            functions: &funcs,
            aggregates: None,
        };
        ce.eval(row, &ctx).unwrap()
    }

    #[test]
    fn columns_become_ordinals() {
        let schema = RowSchema::for_table(Some("t"), &["a", "b"]);
        let ce = compile_where("t.b > a", &schema);
        assert_eq!(
            ce,
            CompiledExpr::Binary {
                op: BinaryOp::Gt,
                left: Box::new(CompiledExpr::Col(1)),
                right: Box::new(CompiledExpr::Col(0)),
            }
        );
    }

    #[test]
    fn aggregate_calls_read_their_slot_and_fail_out_of_range() {
        let stmt = parse_select("select max(a) + count(*) from t").unwrap();
        let crate::ast::SelectItem::Expr { expr, .. } = &stmt.projections[0] else {
            panic!("not an expression");
        };
        let mut calls = Vec::new();
        collect_aggregates(expr, &mut calls);
        assert_eq!(calls.len(), 2);
        let schema = RowSchema::for_table(None, &["a"]);
        let funcs = FunctionRegistry::new();
        let grouped = Compiler {
            schema: &schema,
            functions: &funcs,
            aggregates: &calls,
        };
        let ce = grouped.compile(expr).unwrap();
        let vars = HashMap::new();
        let ctx = |aggregates| EvalContext {
            variables: &vars,
            functions: &funcs,
            aggregates,
        };
        let values = [Value::Int(7), Value::Int(3)];
        assert_eq!(ce.eval(&[], &ctx(Some(&values))).unwrap(), Value::Int(10));
        // A slot past the group's values, or no group at all, is today's
        // error for an aggregate outside a grouped projection.
        for aggregates in [Some(&values[..1]), None] {
            let err = ce.eval(&[], &ctx(aggregates)).unwrap_err();
            assert!(
                err.to_string().contains("is not valid in this context"),
                "{err}"
            );
        }
    }

    #[test]
    fn constants_fold_but_errors_do_not() {
        let schema = RowSchema::for_table(None, &["a"]);
        // 2*3+4 folds to 10.
        assert_eq!(
            compile_where("a = 2*3+4", &schema),
            CompiledExpr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(CompiledExpr::Col(0)),
                right: Box::new(CompiledExpr::Const(Value::Int(10))),
            }
        );
        // sqrt of a constant folds through the builtin.
        let ce = compile_where("a < sqrt(9)", &schema);
        assert!(matches!(
            ce,
            CompiledExpr::Binary { ref right, .. } if right.as_const() == Some(&Value::Float(3.0))
        ));
        // 1/0 must NOT fold away: the runtime error is part of the
        // semantics (and may be short-circuited away by AND).
        let ce = compile_where("a > 0 and 1/0 = 1", &schema);
        assert!(
            !matches!(ce, CompiledExpr::Const(_)),
            "division by zero must stay a runtime node: {ce:?}"
        );
    }

    #[test]
    fn and_chains_flatten_and_drop_neutral_constants() {
        let schema = RowSchema::for_table(None, &["a", "b", "c"]);
        let ce = compile_where("a > 1 and 1 = 1 and b > 2 and c > 3", &schema);
        match ce {
            CompiledExpr::And(items) => assert_eq!(items.len(), 3, "true conjunct dropped"),
            other => panic!("expected flattened AND, got {other:?}"),
        }
        // A leading absorbing constant folds the whole chain.
        assert_eq!(
            compile_where("1 = 2 and a > 1", &schema),
            CompiledExpr::Const(Value::Bool(false))
        );
        // ... but a non-leading one stays (items before it still run).
        let ce = compile_where("a > 1 and 1 = 2", &schema);
        assert!(matches!(ce, CompiledExpr::And(_)), "{ce:?}");
    }

    #[test]
    fn like_patterns_precompile() {
        let schema = RowSchema::for_table(None, &["name"]);
        let ce = compile_where("name like 'NGC%'", &schema);
        assert!(matches!(ce, CompiledExpr::LikePre { .. }), "{ce:?}");
        assert_eq!(
            eval_compiled(&ce, &[Value::str("ngc1234")]),
            Value::Bool(true)
        );
        // Dynamic pattern (column on the right) stays dynamic.
        let schema2 = RowSchema::for_table(None, &["name", "pat"]);
        let ce = compile_where("name like pat", &schema2);
        assert!(matches!(ce, CompiledExpr::LikeDyn { .. }), "{ce:?}");
    }

    #[test]
    fn three_valued_logic_matches_interpreter() {
        let schema = RowSchema::for_table(None, &["a"]);
        let null_row = vec![Value::Null];
        assert_eq!(
            eval_compiled(&compile_where("a > 1 and 1 = 1", &schema), &null_row),
            Value::Null
        );
        assert_eq!(
            eval_compiled(&compile_where("a > 1 and 1 = 2", &schema), &null_row),
            Value::Bool(false)
        );
        assert_eq!(
            eval_compiled(&compile_where("a > 1 or 1 = 1", &schema), &null_row),
            Value::Bool(true)
        );
        assert_eq!(
            eval_compiled(&compile_where("not a > 1", &schema), &null_row),
            Value::Null
        );
    }

    #[test]
    fn unknown_column_fails_compilation() {
        let schema = RowSchema::for_table(None, &["a"]);
        let stmt = parse_select("select * from t where nope = 1").unwrap();
        let funcs = FunctionRegistry::new();
        assert!(compile(&stmt.selection.unwrap(), &schema, &funcs).is_err());
    }

    #[test]
    fn like_matcher_semantics() {
        for (text, pattern, expected) in [
            ("NGC1234", "ngc%", true),
            ("skyserver", "%server", true),
            ("abc", "a_c", true),
            ("abc", "a_d", false),
            ("anything", "%", true),
            ("", "%", true),
            ("", "", true),
            ("x", "", false),
            ("", "_", false),
            ("abc", "abc", true),
            ("abc", "ab", false),
            ("ab", "ab%b", false),
            ("abb", "ab%b", true),
            ("banana", "%an%na", true),
            ("banana", "%ann%", false),
            ("aXbYc", "a%b%c", true),
            ("mississippi", "m%iss%ippi", true),
            ("mississippi", "m%iss%issi", false),
            ("ab", "a%%b", true),
        ] {
            assert_eq!(
                LikeMatcher::new(pattern).matches(text),
                expected,
                "{text:?} LIKE {pattern:?}"
            );
        }
    }

    #[test]
    fn pathological_like_pattern_completes_quickly() {
        // The naive recursive matcher retries every position for every `%`:
        // with 8 wildcard segments over 2,000 characters that's ~2000^8
        // evaluations — effectively a hang.  The segment matcher is
        // O(text x pattern) and must answer (false) immediately.
        let text = "a".repeat(2000);
        let pattern = "a%ab%ab%ab%ab%ab%ab%ab%b";
        let started = std::time::Instant::now();
        assert!(!LikeMatcher::new(pattern).matches(&text));
        // Also a matching variant, to exercise the success path.
        let mut ok_text = "ab".repeat(900);
        ok_text.push('b');
        assert!(LikeMatcher::new(pattern).matches(&format!("a{ok_text}")));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "pathological pattern took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn like_matcher_agrees_with_a_reference_backtracker_on_random_inputs() {
        // Exhaustive-ish differential check against a known-correct (but
        // exponential) reference, over tiny alphabets where the recursion
        // stays cheap.
        fn reference(t: &[u8], p: &[u8]) -> bool {
            match p.first() {
                None => t.is_empty(),
                Some(b'%') => (0..=t.len()).any(|i| reference(&t[i..], &p[1..])),
                Some(b'_') => !t.is_empty() && reference(&t[1..], &p[1..]),
                Some(&c) => {
                    !t.is_empty() && t[0].to_ascii_lowercase() == c && reference(&t[1..], &p[1..])
                }
            }
        }
        let texts = ["", "a", "b", "ab", "ba", "aab", "abab", "bbaa", "aAbB"];
        let pattern_atoms = [b'a', b'b', b'%', b'_'];
        // All patterns of length <= 4 over {a, b, %, _}.
        let mut patterns: Vec<Vec<u8>> = vec![Vec::new()];
        for _ in 0..4 {
            let mut next = patterns.clone();
            for p in &patterns {
                for &a in &pattern_atoms {
                    let mut q = p.clone();
                    q.push(a);
                    next.push(q);
                }
            }
            patterns = next;
        }
        for p in &patterns {
            let pattern = String::from_utf8(p.clone()).unwrap();
            let matcher = LikeMatcher::new(&pattern);
            for t in &texts {
                let expected = reference(t.to_ascii_lowercase().as_bytes(), p);
                assert_eq!(matcher.matches(t), expected, "{t:?} LIKE {pattern:?}");
            }
        }
    }
}
