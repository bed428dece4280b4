//! Sinks: where the rows of a FROM step go.
//!
//! The executor's scans and joins *push* rows; what receives them is a
//! [`Sink`] — the statement's residual filter in front of one of three
//! stages: a plain row buffer (a join input or build side, the fast path's
//! projected output, a parallel worker's share), the streaming hash
//! [`Aggregator`], or the [`Output`] stage (projection, ORDER BY, TOP).
//! A stage that keeps a row takes it out of the producer's scratch buffer;
//! one that only reads it leaves it alone.  Everything kept is charged to
//! the executor's memory budget, and credited back when it is dropped.

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

/// Approximate heap footprint of one materialized row.
pub(crate) fn row_charge(row: &[Value]) -> u64 {
    ROW_MEM_OVERHEAD + cells_bytes(row) + VALUE_MEM_OVERHEAD * row.len() as u64
}

/// [`row_charge`] over a slice of rows.
pub(crate) fn rows_charge(rows: &[Vec<Value>]) -> u64 {
    rows.iter().map(|r| row_charge(r)).sum()
}

/// Payload bytes of a run of cells — what a row-id gather of exactly those
/// cells read from the heap.
pub(crate) fn cells_bytes(cells: &[Value]) -> u64 {
    cells.iter().map(|v| v.byte_size() as u64).sum()
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

    fn push(&mut self, ex: &Executor<'_>, row: &mut Vec<Value>) -> Result<(), SqlError> {
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
            group.first = std::mem::take(row);
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
    /// Keep them as they are: the outer side of the next join, the build
    /// side of a hash or nested-loop join, the projected output of the fast
    /// path, a parallel worker's share.
    Rows {
        rows: Vec<Vec<Value>>,
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
    pub(crate) fn rows() -> Self {
        Stage::Rows {
            rows: Vec::new(),
            charged: 0,
            distinct: None,
        }
    }

    /// A row buffer that keeps the first of equal rows only.
    pub(crate) fn distinct_rows() -> Self {
        Stage::Rows {
            rows: Vec::new(),
            charged: 0,
            distinct: Some(Distinct::default()),
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

    /// A sink that just keeps its rows.
    pub(crate) fn rows() -> Sink<'p> {
        Sink::new(None, Stage::rows())
    }

    /// Take one row.  `row` is the producer's scratch buffer: a stage that
    /// keeps the row takes it (leaving the buffer empty), one that only
    /// reads it leaves it alone, so a producer feeding the aggregator
    /// allocates nothing per row.
    pub(crate) fn push(&mut self, ex: &Executor<'_>, row: &mut Vec<Value>) -> Result<(), SqlError> {
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
                    let kept = |i: usize| rows.get(i).map(Vec::as_slice);
                    if distinct.seen(row, kept).is_some() {
                        return Ok(());
                    }
                }
                let charge = row_charge(row);
                ex.charge_mem(charge)?;
                *charged += charge;
                rows.push(std::mem::take(row));
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

    /// Take a scan chunk's rows, leaving `chunk` empty.  A row no stage
    /// kept goes, cleared, to `spare` for the scan to fill again: an
    /// aggregate or a Top-N over a scan allocates per group or kept row,
    /// not per row scanned.
    pub(crate) fn absorb(
        &mut self,
        ex: &Executor<'_>,
        chunk: &mut Vec<Vec<Value>>,
        spare: &mut Vec<Vec<Value>>,
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
            let charge = rows_charge(chunk);
            ex.charge_mem(charge)?;
            *charged += charge;
            rows.append(chunk);
            return Ok(());
        }
        for mut row in chunk.drain(..) {
            self.push(ex, &mut row)?;
            if row.capacity() > 0 {
                row.clear();
                spare.push(row);
            }
        }
        Ok(())
    }

    /// The sink one parallel-scan worker feeds: a partial aggregator when
    /// this one aggregates, a buffer that drops its own duplicates under
    /// DISTINCT, a plain buffer otherwise.
    pub(crate) fn partial(&self) -> Sink<'p> {
        match &self.stage {
            Stage::Groups(aggregator) => Sink::new(
                self.residual,
                Stage::Groups(Aggregator::new(aggregator.programs)),
            ),
            Stage::Rows {
                distinct: Some(_), ..
            } => Sink::new(None, Stage::distinct_rows()),
            _ => Sink::rows(),
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
                self.absorb(ex, &mut rows, &mut Vec::new())
            }
            _ => Err(SqlError::Execution(
                "parallel scan partition produced a mismatched sink".into(),
            )),
        }
    }

    /// The buffered rows of a [`Stage::Rows`] sink (empty otherwise).
    pub(crate) fn buffered(&self) -> &[Vec<Value>] {
        match &self.stage {
            Stage::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Drop a [`Stage::Rows`] buffer and credit its bytes back.
    pub(crate) fn release(self, ex: &Executor<'_>) {
        if let Stage::Rows { charged, .. } = self.stage {
            ex.release_mem(charged);
        }
    }
}
