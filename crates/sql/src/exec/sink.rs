//! Sinks: where the rows of a FROM step go, and the one keyed index.
//!
//! The executor's scans and joins *push* rows into a [`Sink`]: the
//! statement's residual filter in front of a [`RowBlock`] (a join input or
//! build side, the fast path's output, a parallel worker's share), the
//! streaming hash [`Aggregator`], or the [`Output`] stage (projection, ORDER
//! BY, TOP).  A row arrives as a `&[Value]` slice of the producer's buffer:
//! a stage that keeps it copies its cells, so no producer gives its buffer
//! away; a plain block takes a scan's whole chunk by moving its cells
//! ([`Sink::absorb`]).  "Which earlier row has this key?" has one answer,
//! [`KeyIndex`]: DISTINCT asks it over the rows a stage keeps, GROUP BY over
//! its groups' key block, and a hash join's build over its distinct keys.
//! Everything kept is charged to the memory budget and credited back when
//! dropped: a block by its cells ([`cells_charge`]), with no per-row overhead.

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
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

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

    /// Cells per row.
    pub(crate) fn width(&self) -> usize {
        self.width
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

/// One keyed index: which earlier key equals this one.  Keys get dense
/// slots 0, 1, 2, … in the order they are first seen; a key's hash leads to
/// the last slot with that hash and each slot to the one before it, so a
/// key is found by hashing once and comparing along that chain.  The index
/// holds no key cells: its caller keeps each slot's key where it already
/// lives — the rows a DISTINCT stage keeps, a group's key row, a hash
/// build's distinct keys — and answers `same(slot)`, whether that slot's key
/// equals the one asked about.  Keys hash and compare as `Value` does, so
/// `Int(2)` and `Float(2.0)` are one key and NULL equals NULL; a caller whose
/// NULL keys never match skips them.
#[derive(Default)]
pub(crate) struct KeyIndex {
    hasher: RandomState,
    /// Hash → the last slot with that hash.
    heads: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    /// Per slot, the slot before it with the same hash.
    chain: Vec<Option<usize>>,
}

/// The hasher of [`KeyIndex`]'s heads, whose keys are hashes already: it
/// passes a `u64` through instead of hashing it again.  They are keyed
/// `RandomState` hashes, so keys crafted to collide are no more a risk
/// than in a default map.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = (bytes.iter()).fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl KeyIndex {
    fn walk(&self, hash: u64, same: impl Fn(usize) -> bool) -> Option<usize> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(slot) = at {
            if same(slot) {
                return Some(slot);
            }
            at = self.chain.get(slot).copied().flatten();
        }
        None
    }

    /// The slot whose key equals `key`, if one has been seen.
    #[inline]
    pub(crate) fn find(&self, key: &[Value], same: impl Fn(usize) -> bool) -> Option<usize> {
        self.walk(self.hasher.hash_one(key), same)
    }

    /// `Ok` with the slot of the key equal to `key`, or, when `key` is new,
    /// `Err` with the slot it now takes: the next one, whose key the caller
    /// keeps.
    #[inline]
    pub(crate) fn insert(
        &mut self,
        key: &[Value],
        same: impl Fn(usize) -> bool,
    ) -> Result<usize, usize> {
        let hash = self.hasher.hash_one(key);
        if let Some(slot) = self.walk(hash, same) {
            return Ok(slot);
        }
        let next = self.chain.len();
        self.chain.push(self.heads.insert(hash, next));
        Err(next)
    }
}

/// Streaming hash aggregation: rows update their group's accumulators as
/// they arrive and are not kept.  Group `slot` of the keyed index has its
/// key in row `slot` of `keys`, its representative — its first input row,
/// which non-aggregate projections and HAVING read — in row `slot` of
/// `firsts`, and one accumulator per aggregate call in `accumulators`.
pub(crate) struct Aggregator<'p> {
    programs: &'p CompiledPrograms,
    groups: KeyIndex,
    keys: RowBlock,
    firsts: RowBlock,
    /// Per group, one accumulator per entry of `programs.aggregates`.
    accumulators: Vec<Accumulator>,
    /// Scratch for the current row's group key.
    key: Vec<Value>,
}

impl<'p> Aggregator<'p> {
    /// An aggregator over input rows of `width` cells.
    pub(crate) fn new(programs: &'p CompiledPrograms, width: usize) -> Aggregator<'p> {
        Aggregator {
            programs,
            groups: KeyIndex::default(),
            keys: RowBlock::new(programs.group_by.len()),
            firsts: RowBlock::new(width),
            accumulators: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Group `slot`'s accumulators.
    fn group(&mut self, slot: usize) -> &mut [Accumulator] {
        let n = self.programs.aggregates.len();
        &mut self.accumulators[slot * n..(slot + 1) * n]
    }

    fn push(&mut self, ex: &Executor<'_>, row: &[Value]) -> Result<(), SqlError> {
        let ctx = ex.ctx();
        let programs = self.programs;
        self.key.clear();
        eval_into(&programs.group_by, row, &ctx, &mut self.key)?;
        let (keys, key) = (&self.keys, self.key.as_slice());
        let slot = match self.groups.insert(key, |s| keys.row(s) == key) {
            Ok(slot) => slot,
            Err(slot) => {
                let accumulators = std::mem::size_of::<Accumulator>() * programs.aggregates.len();
                ex.charge_mem(cells_charge(key) + cells_charge(row) + accumulators as u64)?;
                self.keys.push(key);
                self.firsts.push(row);
                let fresh = programs.aggregates.iter().map(|_| Accumulator::default());
                self.accumulators.extend(fresh);
                slot
            }
        };
        for (acc, agg) in self.group(slot).iter_mut().zip(&programs.aggregates) {
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
        Ok(())
    }

    /// Fold in the groups a later partition of the same scan accumulated,
    /// in the order that partition first saw them.
    fn merge(&mut self, later: Aggregator<'p>) {
        let programs = self.programs;
        let mut theirs = later.accumulators.into_iter();
        for (key, first) in later.keys.rows().zip(later.firsts.rows()) {
            let keys = &self.keys;
            match self.groups.insert(key, |s| keys.row(s) == key) {
                Ok(slot) => {
                    let mine = self.group(slot).iter_mut();
                    for ((acc, more), agg) in mine.zip(theirs.by_ref()).zip(&programs.aggregates) {
                        acc.merge(agg.kind, more);
                    }
                }
                Err(_) => {
                    self.keys.push(key);
                    self.firsts.push(first);
                    let n = programs.aggregates.len();
                    self.accumulators.extend(theirs.by_ref().take(n));
                }
            }
        }
    }

    /// Emit one output row per group — ascending key order, HAVING applied —
    /// into `out`.  A grand aggregate over zero rows still has its one
    /// group, with an all-NULL representative.
    pub(crate) fn finish(
        mut self,
        ex: &Executor<'_>,
        out: &mut Output<'p>,
    ) -> Result<(), SqlError> {
        let programs = self.programs;
        if self.keys.len() == 0 && programs.group_by.is_empty() {
            self.keys.push(&[]);
            self.firsts.push(&vec![Value::Null; self.firsts.width()]);
            let fresh = programs.aggregates.iter().map(|_| Accumulator::default());
            self.accumulators.extend(fresh);
        }
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by(|&a, &b| self.keys.row(a).cmp(self.keys.row(b)));
        let mut values = Vec::with_capacity(programs.aggregates.len());
        for slot in order {
            values.clear();
            for (acc, agg) in self.group(slot).iter_mut().zip(&programs.aggregates) {
                values.push(std::mem::take(acc).result(agg.kind));
            }
            let representative = self.firsts.row(slot);
            let agg_ctx = EvalContext {
                aggregates: Some(&values),
                ..ex.ctx()
            };
            if let Some(h) = &programs.having {
                if !h.eval(representative, &agg_ctx)?.is_truthy() {
                    continue;
                }
            }
            let mut proj = Vec::with_capacity(programs.projections.len());
            eval_into(&programs.projections, representative, &agg_ctx, &mut proj)?;
            out.offer(ex, &agg_ctx, representative, Some(proj))?;
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
    /// Under DISTINCT, the kept entries by slot.
    distinct: Option<KeyIndex>,
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
            distinct: plan.distinct.then(KeyIndex::default),
        }
    }

    /// Offer one row: `input` is the combined FROM row (or a group's
    /// representative, with the group's aggregate values in `ctx`),
    /// `projected` its output row when the caller already has it
    /// (aggregation) — otherwise it is evaluated here, and only for a row
    /// that is kept.
    fn offer(
        &mut self,
        ex: &Executor<'_>,
        ctx: &EvalContext<'_>,
        input: &[Value],
        projected: Option<Vec<Value>>,
    ) -> Result<(), SqlError> {
        let plan = self.plan;
        let programs = &plan.programs;
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        for (key, item) in programs.order_by.iter().zip(&plan.order_by) {
            let v = match (key, &projected) {
                (SortKey::Input(program), _) => Some(program.eval(input, ctx)?),
                (SortKey::Output(idx), Some(row)) => row.get(*idx).cloned(),
                (SortKey::Output(idx), None) => match programs.projections.get(*idx) {
                    Some(program) => Some(program.eval(input, ctx)?),
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
                eval_into(&programs.projections, input, ctx, &mut row)?;
                row
            }
        };
        let seq = self.seq;
        self.seq += 1;
        if let (Some(distinct), Kept::All(entries)) = (&mut self.distinct, &mut self.kept) {
            if let Ok(i) = distinct.insert(&row, |i| entries.get(i).is_some_and(|e| e.row == row)) {
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
        /// Under DISTINCT (the fast path's projected rows): the kept rows
        /// by slot, so that a duplicate is dropped as it arrives.
        distinct: Option<KeyIndex>,
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
            distinct: distinct.then(KeyIndex::default),
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
                    if distinct.insert(row, |i| rows.row(i) == row).is_ok() {
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
            Stage::Output(output) => output.offer(ex, &ex.ctx(), row, None),
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
                Stage::Groups(Aggregator::new(aggregator.programs, width)),
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
