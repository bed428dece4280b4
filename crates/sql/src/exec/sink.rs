//! Sinks: where the rows of a FROM step go.
//!
//! The executor's scans and joins *push* rows; what receives them is a
//! [`Sink`] — the statement's residual filter in front of one of three
//! stages: a [`RowBlock`] (a join input or build side, the fast path's
//! projected output, a parallel worker's share), the streaming hash
//! [`Aggregator`], or the [`Output`] stage (projection, ORDER BY, TOP).
//! A row arrives as a `&[Value]` slice of the producer's buffer: a stage
//! that keeps it copies its cells into its own storage, one that only reads
//! it leaves it alone, so no producer gives its buffer away.  A scan hands
//! over a whole chunk of rows at once ([`Sink::absorb`]), which a plain
//! block takes by moving the cells.  Everything kept is charged to the
//! executor's memory budget, and credited back when it is dropped: a block
//! by its cells ([`cells_charge`]), with no per-row overhead.

use crate::error::SqlError;
use crate::exec::compile::{
    AggregateKind, CompiledAggregate, CompiledExpr, CompiledPrograms, SortKey,
};
use crate::executor::{Executor, QueryLimits};
use crate::expr::EvalContext;
use crate::plan::SelectPlan;
use skyserver_storage::Value;
use std::cmp::{Ordering, Reverse};
use std::collections::hash_map::RandomState;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasher;

/// Fixed per-row overhead charged against the memory budget on top of the
/// cell payloads: the `Vec` header plus allocator slack.
const ROW_MEM_OVERHEAD: u64 = 32;

/// Per-cell overhead: the `Value` enum discriminant + inline storage that
/// exists regardless of payload size.
const VALUE_MEM_OVERHEAD: u64 = 16;

/// Approximate heap footprint of one row kept as its own `Vec`.
pub(crate) fn row_charge(row: &[Value]) -> u64 {
    ROW_MEM_OVERHEAD + cells_charge(row)
}

/// Approximate footprint of cells kept in a shared buffer: their payloads
/// plus each `Value`'s own slot.
pub(crate) fn cells_charge(cells: &[Value]) -> u64 {
    cells_bytes(cells) + VALUE_MEM_OVERHEAD * cells.len() as u64
}

/// Payload bytes of a run of cells — what a row-id gather of exactly those
/// cells read from the heap.
pub(crate) fn cells_bytes(cells: &[Value]) -> u64 {
    cells.iter().map(|v| v.byte_size() as u64).sum()
}

/// Rows of one width, one after the other in one buffer: `len` rows of
/// `width` cells, `width × len` cells in all.  A row is a `&[Value]` slice
/// of it.  Every row the engine buffers between operators lives in a
/// block — a scan's chunk of output rows, join outer inputs, hash and
/// nested-loop build sides, index-lookup survivors, parallel workers'
/// shares — so a buffered row costs its cells and no allocation of its own.
#[derive(Debug, Default)]
pub(crate) struct RowBlock {
    width: usize,
    len: usize,
    cells: Vec<Value>,
}

/// The block a sink that buffers nothing reports.
static EMPTY: RowBlock = RowBlock {
    width: 0,
    len: 0,
    cells: Vec::new(),
};

impl RowBlock {
    /// An empty block of `width`-cell rows.
    pub(crate) fn new(width: usize) -> RowBlock {
        RowBlock {
            width,
            ..RowBlock::default()
        }
    }

    /// Rows held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row `i` (empty past the last row).
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Value] {
        let at = i * self.width;
        self.cells.get(at..at + self.width).unwrap_or_default()
    }

    /// The rows, in order.
    #[inline]
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Append a copy of `row`, which has `width` cells.
    #[inline]
    pub(crate) fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.width);
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    /// Append the row whose `width` cells `fill` pushes onto the buffer;
    /// when it fails, nothing is appended.
    #[inline]
    pub(crate) fn push_with(
        &mut self,
        fill: impl FnOnce(&mut Vec<Value>) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        let start = self.cells.len();
        if let Err(e) = fill(&mut self.cells) {
            self.cells.truncate(start);
            return Err(e);
        }
        debug_assert_eq!(self.cells.len() - start, self.width);
        self.len += 1;
        Ok(())
    }

    /// Move every row of `other`, a block of the same width, to the end of
    /// this one, leaving `other` empty with its buffer.
    pub(crate) fn append(&mut self, other: &mut RowBlock) {
        debug_assert_eq!(self.width, other.width);
        self.cells.append(&mut other.cells);
        self.len += std::mem::take(&mut other.len);
    }

    /// Drop every row, keeping the buffer.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
        self.len = 0;
    }

    /// What the block's rows are charged against the memory budget.
    pub(crate) fn charge(&self) -> u64 {
        cells_charge(&self.cells)
    }

    /// The rows as a result set holds them, each cell moved out once.
    // skylint: allow(row-vec) the ResultSet boundary: a result's rows are one Vec each
    pub(crate) fn into_rows(self) -> Vec<Vec<Value>> {
        let mut cells = self.cells.into_iter();
        let width = self.width;
        (0..self.len)
            .map(|_| cells.by_ref().take(width).collect())
            .collect()
    }
}

/// The smaller of two optional row limits (`None` = unlimited).
pub(crate) fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Evaluate every program of `keys` over `row` into `out`.
#[inline]
pub(crate) fn eval_into(
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

/// One running aggregate of one group; its kind says which fields it uses.
#[derive(Default)]
struct Accumulator {
    /// Values folded in: `count`, and the divisor of `avg`.
    n: u64,
    /// `min` / `max`: the running extreme.
    best: Option<Value>,
    /// `sum` / `avg`, added up in arrival order.
    sum: f64,
    /// `stdev` / `var` keep their values: the two-pass formula (mean first)
    /// cannot be folded without changing its bits.
    values: Vec<f64>,
}

impl Accumulator {
    /// `min`/`max`: does `v`, arriving after everything seen so far, become
    /// the extreme?  Ties keep `min`'s first and `max`'s last value, like
    /// `Iterator::min_by`/`max_by` over the input.
    fn offer_extreme(&mut self, kind: AggregateKind, v: Value) {
        let smaller = |b: &Value| v.total_cmp(b) == Ordering::Less;
        // min replaces on "smaller", max on "not smaller".
        let replaces = |b: &Value| smaller(b) == (kind == AggregateKind::Min);
        if self.best.as_ref().is_none_or(replaces) {
            self.best = Some(v);
        }
    }

    /// Fold in one non-NULL argument value (for `count(*)`, one row).
    fn update(&mut self, agg: &CompiledAggregate, v: Value) -> Result<(), SqlError> {
        match agg.kind {
            AggregateKind::Count => {}
            AggregateKind::Min | AggregateKind::Max => self.offer_extreme(agg.kind, v),
            kind => {
                let x = v.as_f64().ok_or_else(|| {
                    SqlError::Execution(format!("{}() over non-numeric values", agg.name))
                })?;
                if matches!(kind, AggregateKind::Stdev | AggregateKind::Var) {
                    self.values.push(x);
                } else {
                    // The first term replaces the seed, as it would
                    // `Iterator::sum`'s -0.0: -0.0 + x is x, bit for bit.
                    self.sum = if self.n == 0 { x } else { self.sum + x };
                }
            }
        }
        self.n += 1;
        Ok(())
    }

    /// Fold in the state a later partition of the same input accumulated.
    fn merge(&mut self, kind: AggregateKind, later: Accumulator) {
        if let Some(v) = later.best {
            self.offer_extreme(kind, v);
        }
        if later.n > 0 {
            self.sum = if self.n == 0 {
                later.sum
            } else {
                self.sum + later.sum
            };
        }
        self.values.extend(later.values);
        self.n += later.n;
    }

    fn result(self, kind: AggregateKind) -> Value {
        let n = self.n as f64;
        match kind {
            AggregateKind::Count => Value::Int(self.n as i64),
            AggregateKind::Min | AggregateKind::Max => self.best.unwrap_or(Value::Null),
            _ if self.n == 0 => Value::Null,
            AggregateKind::Sum => Value::Float(self.sum),
            AggregateKind::Avg => Value::Float(self.sum / n),
            AggregateKind::Stdev | AggregateKind::Var => {
                let mean = self.values.iter().sum::<f64>() / n;
                let squares = self.values.iter().map(|x| (x - mean).powi(2));
                let var = squares.sum::<f64>() / (n - 1.0).max(1.0);
                Value::Float(if kind == AggregateKind::Var {
                    var
                } else {
                    var.sqrt()
                })
            }
        }
    }
}

/// DISTINCT as rows arrive, over the rows a stage keeps in arrival order:
/// each kept row's hash leads to its position, so a duplicate is found by
/// hashing and comparing — under `Value`'s `Eq`, which equates `Int(2)`
/// and `Float(2.0)` — and no row is cloned or kept twice.
#[derive(Default)]
pub(crate) struct Distinct {
    hasher: RandomState,
    /// Hash → the last kept row with that hash.
    heads: HashMap<u64, usize>,
    /// Per kept row, the kept row before it with the same hash.
    chain: Vec<Option<usize>>,
}

impl Distinct {
    /// The position of the kept row equal to `row` (`kept` reads the kept
    /// rows by position); `None` when `row` is new, which records it as the
    /// next row kept.
    fn seen<'r>(
        &mut self,
        row: &[Value],
        kept: impl Fn(usize) -> Option<&'r [Value]>,
    ) -> Option<usize> {
        let hash = self.hasher.hash_one(row);
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            if kept(i) == Some(row) {
                return Some(i);
            }
            at = self.chain.get(i).copied().flatten();
        }
        let next = self.chain.len();
        self.chain.push(self.heads.insert(hash, next));
        None
    }
}

/// One group of the aggregator: its first input row (the representative
/// that non-aggregate projections and HAVING read) and one accumulator per
/// aggregate call.
#[derive(Default)]
struct Group {
    first: Vec<Value>,
    accumulators: Vec<Accumulator>,
}

/// Streaming hash aggregation: rows update their group's accumulators as
/// they arrive and are not kept (the group's first row excepted).
pub(crate) struct Aggregator<'p> {
    programs: &'p CompiledPrograms,
    /// Group key → position in `groups`.
    index: HashMap<Vec<Value>, usize>,
    groups: Vec<Group>,
    /// Scratch for the current row's group key.
    key: Vec<Value>,
}

impl<'p> Aggregator<'p> {
    pub(crate) fn new(programs: &'p CompiledPrograms) -> Aggregator<'p> {
        Aggregator {
            programs,
            index: HashMap::new(),
            groups: Vec::new(),
            key: Vec::new(),
        }
    }

    /// A group no row has reached yet.
    fn empty_group(&self) -> Group {
        let accumulators = self.programs.aggregates.iter();
        Group {
            first: Vec::new(),
            accumulators: accumulators.map(|_| Accumulator::default()).collect(),
        }
    }

    /// Add `group` under `key` and return its position.
    fn open(&mut self, key: Vec<Value>, group: Group) -> usize {
        self.groups.push(group);
        self.index.insert(key, self.groups.len() - 1);
        self.groups.len() - 1
    }

    fn push(&mut self, ex: &Executor<'_>, row: &[Value]) -> Result<(), SqlError> {
        let ctx = ex.ctx();
        let programs = self.programs;
        self.key.clear();
        eval_into(&programs.group_by, row, &ctx, &mut self.key)?;
        let known = self.index.get(self.key.as_slice()).copied();
        let slot = match known {
            Some(slot) => slot,
            None => {
                let accumulators = std::mem::size_of::<Accumulator>() * programs.aggregates.len();
                ex.charge_mem(row_charge(&self.key) + row_charge(row) + accumulators as u64)?;
                self.open(self.key.clone(), self.empty_group())
            }
        };
        let group = &mut self.groups[slot];
        for (acc, agg) in group.accumulators.iter_mut().zip(&programs.aggregates) {
            match &agg.arg {
                // count(*): every row counts.
                None => acc.update(agg, Value::Null)?,
                Some(arg) => {
                    let v = arg.eval(row, &ctx)?;
                    if !v.is_null() {
                        acc.update(agg, v)?;
                        if matches!(agg.kind, AggregateKind::Stdev | AggregateKind::Var) {
                            ex.charge_mem(8)?; // the f64 it just kept
                        }
                    }
                }
            }
        }
        if known.is_none() {
            // skylint: allow(full-row-gather) a group keeps its first row: the narrow layout row, once per group
            group.first = row.to_vec();
        }
        Ok(())
    }

    /// Fold in the groups a later partition of the same scan accumulated.
    fn merge(&mut self, mut later: Aggregator<'p>) {
        for (key, from) in later.index {
            let group = std::mem::take(&mut later.groups[from]);
            match self.index.get(&key) {
                Some(&slot) => {
                    let mine = self.groups[slot].accumulators.iter_mut();
                    for ((acc, more), agg) in
                        mine.zip(group.accumulators).zip(&self.programs.aggregates)
                    {
                        acc.merge(agg.kind, more);
                    }
                }
                None => {
                    self.open(key, group);
                }
            }
        }
    }

    /// Emit one output row per group — ascending key order, HAVING applied —
    /// into `out`.  A grand aggregate over zero rows still has its one
    /// group, with an all-NULL representative of `width` cells.
    pub(crate) fn finish(
        mut self,
        ex: &Executor<'_>,
        width: usize,
        out: &mut Output<'p>,
    ) -> Result<(), SqlError> {
        let programs = self.programs;
        if self.groups.is_empty() && programs.group_by.is_empty() {
            self.open(Vec::new(), self.empty_group());
        }
        let mut order: Vec<(Vec<Value>, usize)> = self.index.into_iter().collect();
        order.sort_unstable();
        let mut agg_values: HashMap<String, Value> = HashMap::new();
        for (_key, slot) in order {
            let group = std::mem::take(&mut self.groups[slot]);
            for (acc, agg) in group.accumulators.into_iter().zip(&programs.aggregates) {
                let value = acc.result(agg.kind);
                match agg_values.get_mut(&agg.key) {
                    Some(slot) => *slot = value,
                    None => {
                        agg_values.insert(agg.key.clone(), value);
                    }
                }
            }
            let mut representative = group.first;
            representative.resize(width, Value::Null);
            let agg_ctx = EvalContext {
                aggregates: Some(&agg_values),
                ..ex.ctx()
            };
            if let Some(h) = &programs.having {
                if !h.eval(&representative, &agg_ctx)?.is_truthy() {
                    continue;
                }
            }
            let mut proj = Vec::with_capacity(programs.projections.len());
            eval_into(&programs.projections, &representative, &agg_ctx, &mut proj)?;
            out.offer(ex, &representative, Some(proj))?;
        }
        Ok(())
    }
}

/// One ORDER BY key cell; the derived ordering of a column's cells is the
/// direction the plan asks for.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum SortCell {
    Asc(Value),
    Desc(Reverse<Value>),
}

/// One kept output row.  Entries order by their ORDER BY keys, then by
/// arrival (`seq` is unique, so the row itself never decides) — exactly the
/// order a stable sort of the input gives.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct SortEntry {
    keys: Vec<SortCell>,
    seq: u64,
    row: Vec<Value>,
}

impl SortEntry {
    fn charge(&self) -> u64 {
        let key_cell = |(SortCell::Asc(v) | SortCell::Desc(Reverse(v))): &SortCell| {
            v.byte_size() as u64 + VALUE_MEM_OVERHEAD
        };
        row_charge(&self.row) + ROW_MEM_OVERHEAD + self.keys.iter().map(key_cell).sum::<u64>()
    }
}

/// The projected rows the statement keeps.
enum Kept {
    /// Everything (no ORDER BY — arrival order — or no TOP, or DISTINCT
    /// deduping before TOP applies): under DISTINCT one entry per distinct
    /// row, the one a stable sort puts first.
    All(Vec<SortEntry>),
    /// ORDER BY bounded by TOP / the row budget: a max-heap of the best
    /// `bound` entries, its root the first to go.
    Top(BinaryHeap<SortEntry>, usize),
}

/// Projection, ORDER BY and TOP above the FROM pipeline (or above the
/// aggregator).  A row is projected only if it is kept.
pub(crate) struct Output<'p> {
    plan: &'p SelectPlan,
    kept: Kept,
    seq: u64,
    /// The key buffer of the last rejected row, reused for the next one.
    keys: Vec<SortCell>,
    /// When every ORDER BY key is a plain input column: the first one's
    /// input ordinal and direction — what a scan compares its chunk's
    /// cells against once the Top-N heap is full ([`Sink::top_bound`]).
    /// A key that could raise must see every row, so any other key shape
    /// leaves this unset.
    first_column: Option<(usize, bool)>,
    /// Under DISTINCT, the kept rows seen so far.
    distinct: Option<Distinct>,
}

impl<'p> Output<'p> {
    pub(crate) fn new(plan: &'p SelectPlan, limits: &QueryLimits) -> Output<'p> {
        // TOP n (and the row budget's max_rows + 1, which keeps `truncated`
        // detectable) bound a sort unless DISTINCT dedupes after it.  An
        // unsorted result is kept whole: nothing ranks its rows, and the
        // memory budget is what stops a runaway join.
        let budget = limits.max_rows.map(|m| m + 1);
        let kept = match tighter(plan.top.map(|t| t as usize), budget) {
            Some(n) if !plan.order_by.is_empty() && !plan.distinct => {
                Kept::Top(BinaryHeap::new(), n)
            }
            _ => Kept::All(Vec::new()),
        };
        let programs = &plan.programs;
        let columns: Option<Vec<usize>> = (programs.order_by.iter())
            .map(|key| match key {
                SortKey::Input(program) => Some(program),
                SortKey::Output(idx) => programs.projections.get(*idx),
            })
            .map(|p| match p {
                Some(CompiledExpr::Col(i)) => Some(*i),
                _ => None,
            })
            .collect();
        let first = columns.and_then(|c| c.first().copied());
        let first_column = first.zip(plan.order_by.first().map(|item| item.ascending));
        Output {
            plan,
            kept,
            seq: 0,
            keys: Vec::new(),
            first_column,
            distinct: plan.distinct.then(Distinct::default),
        }
    }

    /// Offer one row: `input` is the combined FROM row (or a group's
    /// representative), `projected` its output row when the caller already
    /// has it (aggregation) — otherwise it is evaluated here, and only for
    /// a row that is kept.
    fn offer(
        &mut self,
        ex: &Executor<'_>,
        input: &[Value],
        projected: Option<Vec<Value>>,
    ) -> Result<(), SqlError> {
        let plan = self.plan;
        let programs = &plan.programs;
        let ctx = ex.ctx();
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        for (key, item) in programs.order_by.iter().zip(&plan.order_by) {
            let v = match (key, &projected) {
                (SortKey::Input(program), _) => Some(program.eval(input, &ctx)?),
                (SortKey::Output(idx), Some(row)) => row.get(*idx).cloned(),
                (SortKey::Output(idx), None) => match programs.projections.get(*idx) {
                    Some(program) => Some(program.eval(input, &ctx)?),
                    None => None,
                },
            }
            .ok_or_else(|| SqlError::Plan("plan carries no compiled sort key".into()))?;
            keys.push(if item.ascending {
                SortCell::Asc(v)
            } else {
                SortCell::Desc(Reverse(v))
            });
        }
        if let Kept::Top(heap, bound) = &mut self.kept {
            if heap.len() >= *bound {
                // Full: the newcomer must sort strictly before the current
                // worst entry — on equal keys the earlier arrival stays.
                match heap.peek() {
                    Some(worst) if keys < worst.keys => {}
                    _ => {
                        self.keys = keys;
                        return Ok(());
                    }
                }
                if let Some(evicted) = heap.pop() {
                    ex.release_mem(evicted.charge());
                }
            }
        }
        let row = match projected {
            Some(row) => row,
            None => {
                let mut row = Vec::with_capacity(programs.projections.len());
                eval_into(&programs.projections, input, &ctx, &mut row)?;
                row
            }
        };
        let seq = self.seq;
        self.seq += 1;
        if let (Some(distinct), Kept::All(entries)) = (&mut self.distinct, &mut self.kept) {
            if let Some(i) = distinct.seen(&row, |i| entries.get(i).map(|e| e.row.as_slice())) {
                // Keep the duplicate that sorts first, as sorting every row
                // and then keeping first occurrences would: an arrival
                // sorts after its equals, so it wins only on smaller keys.
                if let Some(entry) = entries.get_mut(i).filter(|e| keys < e.keys) {
                    ex.release_mem(entry.charge());
                    std::mem::swap(&mut entry.keys, &mut keys);
                    entry.seq = seq;
                    ex.charge_mem(entry.charge())?;
                }
                self.keys = keys;
                return Ok(());
            }
        }
        let entry = SortEntry { keys, seq, row };
        ex.charge_mem(entry.charge())?;
        match &mut self.kept {
            Kept::Top(heap, _) => heap.push(entry),
            Kept::All(entries) => entries.push(entry),
        }
        Ok(())
    }

    /// The kept rows, in output order.
    // skylint: allow(row-vec) the ResultSet boundary: each kept output row is already its own Vec
    pub(crate) fn finish(self) -> Vec<Vec<Value>> {
        let sorted = match self.kept {
            Kept::All(mut entries) => {
                if !self.plan.order_by.is_empty() {
                    entries.sort_unstable();
                }
                entries
            }
            Kept::Top(heap, _) => heap.into_sorted_vec(),
        };
        sorted.into_iter().map(|e| e.row).collect()
    }
}

/// What consumes the rows a sink receives.
pub(crate) enum Stage<'p> {
    /// Keep them as they are, in a block: the outer side of the next join,
    /// the build side of a hash or nested-loop join, the projected output
    /// of the fast path, a parallel worker's share.
    Rows {
        rows: RowBlock,
        /// Bytes charged for `rows`, credited back when they are dropped.
        charged: u64,
        /// Under DISTINCT (the fast path's projected rows): the rows kept
        /// so far, so that a duplicate is dropped as it arrives.
        distinct: Option<Distinct>,
    },
    Groups(Aggregator<'p>),
    Output(Output<'p>),
}

impl Stage<'_> {
    /// A block of `width`-cell rows; under `distinct`, one that keeps the
    /// first of equal rows only.
    pub(crate) fn rows(width: usize, distinct: bool) -> Self {
        Stage::Rows {
            rows: RowBlock::new(width),
            charged: 0,
            distinct: distinct.then(Distinct::default),
        }
    }
}

/// The consumer of a FROM step's rows: the statement's residual filter (on
/// the last step) in front of a [`Stage`].
pub(crate) struct Sink<'p> {
    residual: Option<&'p CompiledExpr>,
    /// Residual evaluations, folded into `predicates_evaluated` at the end.
    pub(crate) residual_evals: u64,
    pending: u64,
    pub(crate) stage: Stage<'p>,
}

impl<'p> Sink<'p> {
    pub(crate) fn new(residual: Option<&'p CompiledExpr>, stage: Stage<'p>) -> Sink<'p> {
        Sink {
            residual,
            residual_evals: 0,
            pending: 0,
            stage,
        }
    }

    /// A sink that just keeps its `width`-cell rows.
    pub(crate) fn rows(width: usize) -> Sink<'p> {
        Sink::new(None, Stage::rows(width, false))
    }

    /// Take one row, a slice of the producer's buffer: a stage that keeps
    /// it copies its cells.
    pub(crate) fn push(&mut self, ex: &Executor<'_>, row: &[Value]) -> Result<(), SqlError> {
        if let Some(filter) = self.residual {
            // Quiet: these rows were already counted by the scans and joins
            // that produced them; only check cancel/time/pace.
            ex.tick_quiet(&mut self.pending)?;
            self.residual_evals += 1;
            if !filter.eval(row, &ex.ctx())?.is_truthy() {
                return Ok(());
            }
        }
        match &mut self.stage {
            Stage::Rows {
                rows,
                charged,
                distinct,
            } => {
                if let Some(distinct) = distinct {
                    if distinct.seen(row, |i| Some(rows.row(i))).is_some() {
                        return Ok(());
                    }
                }
                let charge = cells_charge(row);
                ex.charge_mem(charge)?;
                *charged += charge;
                rows.push(row);
                Ok(())
            }
            Stage::Groups(aggregator) => aggregator.push(ex, row),
            Stage::Output(output) => output.offer(ex, row, None),
        }
    }

    /// The chunk-level form of a full Top-N heap's rejection test (see
    /// [`Output`]'s `first_column`): `(input column, worst kept value,
    /// ascending)` — an input row whose cell orders strictly after that
    /// value is one [`Output::offer`] would reject.  `None` unless the rows
    /// go straight into a full heap: a residual in front of it must still
    /// count every row.
    pub(crate) fn top_bound(&self) -> Option<(usize, Value, bool)> {
        let (Stage::Output(output), None) = (&self.stage, self.residual) else {
            return None;
        };
        let (column, ascending) = output.first_column?;
        match &output.kept {
            Kept::Top(heap, bound) if heap.len() >= *bound => {
                let (SortCell::Asc(worst) | SortCell::Desc(Reverse(worst))) =
                    heap.peek()?.keys.first()?;
                Some((column, worst.clone(), ascending))
            }
            _ => None,
        }
    }

    /// Take a scan chunk's rows, leaving `chunk` empty with its buffer for
    /// the scan to fill again.  A plain block takes the cells as they are,
    /// charged as one; any other stage reads the rows one by one.
    pub(crate) fn absorb(
        &mut self,
        ex: &Executor<'_>,
        chunk: &mut RowBlock,
    ) -> Result<(), SqlError> {
        if let (
            None,
            Stage::Rows {
                rows,
                charged,
                distinct: None,
            },
        ) = (self.residual, &mut self.stage)
        {
            // Chunk granularity keeps the atomics off the per-row path.
            let charge = chunk.charge();
            ex.charge_mem(charge)?;
            *charged += charge;
            rows.append(chunk);
            return Ok(());
        }
        for row in chunk.rows() {
            self.push(ex, row)?;
        }
        chunk.clear();
        Ok(())
    }

    /// The sink one parallel-scan worker feeds with its `width`-cell rows: a
    /// partial aggregator when this one aggregates, a block that drops its
    /// own duplicates under DISTINCT, a plain block otherwise.
    pub(crate) fn partial(&self, width: usize) -> Sink<'p> {
        match &self.stage {
            Stage::Groups(aggregator) => Sink::new(
                self.residual,
                Stage::Groups(Aggregator::new(aggregator.programs)),
            ),
            Stage::Rows { distinct, .. } => Sink::new(None, Stage::rows(width, distinct.is_some())),
            Stage::Output(_) => Sink::rows(width),
        }
    }

    /// Fold a worker's [`Sink::partial`] in; partitions merge in scan order.
    pub(crate) fn merge(&mut self, ex: &Executor<'_>, part: Sink<'p>) -> Result<(), SqlError> {
        self.residual_evals += part.residual_evals;
        match (&mut self.stage, part.stage) {
            (Stage::Groups(mine), Stage::Groups(theirs)) => {
                mine.merge(theirs);
                Ok(())
            }
            (
                _,
                Stage::Rows {
                    mut rows, charged, ..
                },
            ) => {
                ex.release_mem(charged);
                self.absorb(ex, &mut rows)
            }
            _ => Err(SqlError::Execution(
                "parallel scan partition produced a mismatched sink".into(),
            )),
        }
    }

    /// The block of a [`Stage::Rows`] sink (an empty one otherwise).
    pub(crate) fn buffered(&self) -> &RowBlock {
        match &self.stage {
            Stage::Rows { rows, .. } => rows,
            _ => &EMPTY,
        }
    }

    /// Drop a [`Stage::Rows`] buffer and credit its bytes back.
    pub(crate) fn release(self, ex: &Executor<'_>) {
        if let Stage::Rows { charged, .. } = self.stage {
            ex.release_mem(charged);
        }
    }
}
