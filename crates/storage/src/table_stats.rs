//! Table and column statistics for the cost-based optimizer.
//!
//! The DR1 release process (Abazajian et al. 2003) treats each catalog load
//! as a batch publish -- the natural point to summarize the data.  This
//! module collects, per table: the live row count, and per column the
//! min/max (from the segment zone maps), the live NULL count, a
//! distinct-value estimate (a KMV sketch over the typed segment arrays)
//! and, for numeric columns, an equi-width histogram.
//!
//! Every one of those parts is mergeable, so [`analyze`] *merges
//! per-segment summaries* instead of sweeping the table's rows:
//!
//! * live NULL and value counts add up;
//! * a [`SegmentSummary`] keeps the [`KMV_K`] smallest distinct hashes of
//!   its live values, and the `KMV_K` smallest of the union of those lists
//!   are the table's `KMV_K` smallest — so the NDV estimate is the one a
//!   sweep of every row gives, bit for bit;
//! * histogram bins are counted per segment against the table-wide edges
//!   (the zone-map min/max).  When the edges move (a batch widens a
//!   column's range), that column of each segment is re-binned: a typed
//!   pass with no hashing, whose counts are kept until the edges move
//!   again.
//!
//! The result is equal, field by field, to what a sweep of the live rows
//! computes (`crates/storage/tests/stats_merge.rs` checks it against an
//! independent reference under random writes).
//!
//! A segment computes its summary the first time it is analyzed and
//! drops it on every write, so a write pays to summarize only the segments
//! it detached — the tail an insert appends to, the one segment an update
//! or delete lands in — and a fork or a published release shares summaries
//! exactly as it shares segments.  Merging touches no row.
//!
//! Statistics are a snapshot: single-row inserts, updates and deletes leave
//! them stale until the next [`crate::Database::analyze_table`] call.  Batch
//! ingest paths (`insert_many`, the CSV loader) re-analyze automatically.

use crate::table::{Column, ColumnData, Segment, Table, Timestamp};
use crate::value::{DataType, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of buckets in a numeric column histogram.
pub const HISTOGRAM_BINS: usize = 32;

/// Size of the KMV (k-minimum-values) sketch behind the NDV estimate.
pub const KMV_K: usize = 256;

/// An equi-width histogram over a numeric column's live non-null values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bucket.
    pub lo: f64,
    /// Inclusive upper bound of the last bucket.
    pub hi: f64,
    /// Per-bucket live-row counts ([`HISTOGRAM_BINS`] buckets of equal
    /// width spanning `[lo, hi]`).
    pub counts: Vec<u64>,
    /// Total rows counted (the sum of `counts`).
    pub total: u64,
}

impl Histogram {
    /// Estimated fraction of rows with value `< bound` (linear
    /// interpolation inside the straddled bucket).
    pub fn fraction_below(&self, bound: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if bound <= self.lo {
            return 0.0;
        }
        if bound >= self.hi || self.hi <= self.lo {
            return 1.0;
        }
        let width = (self.hi - self.lo) / HISTOGRAM_BINS as f64;
        let pos = (bound - self.lo) / width;
        let full = (pos as usize).min(HISTOGRAM_BINS - 1);
        let mut below: u64 = self.counts[..full].iter().sum();
        let partial = self.counts[full] as f64 * (pos - full as f64).clamp(0.0, 1.0);
        below = below.min(self.total);
        ((below as f64 + partial) / self.total as f64).clamp(0.0, 1.0)
    }
}

/// The bucket `v` falls in on a histogram spanning `[lo, hi]`.
fn bin_of(lo: f64, hi: f64, v: f64) -> usize {
    if hi <= lo {
        return 0;
    }
    let frac = (v - lo) / (hi - lo);
    ((frac * HISTOGRAM_BINS as f64) as usize).min(HISTOGRAM_BINS - 1)
}

/// Statistics for one column of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest non-null value (conservative: from the zone maps, so it may
    /// predate deleted rows).
    pub min: Value,
    /// Largest non-null value (conservative, see `min`).
    pub max: Value,
    /// Exact number of live NULLs.
    pub null_count: u64,
    /// Estimated number of distinct live non-null values (exact below
    /// [`KMV_K`] distinct values, a KMV estimate above).
    pub ndv: u64,
    /// Equi-width histogram (numeric columns only).
    pub histogram: Option<Histogram>,
}

/// Statistics for one table, collected by [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Live rows at collection time.
    pub row_count: u64,
    /// Logical timestamp of the collection (stale-ness marker).
    pub collected_at: Timestamp,
    /// Per-column statistics, in schema order.  `None` for columns with no
    /// live non-null values.
    pub columns: Vec<Option<ColumnStats>>,
}

impl TableStats {
    /// Statistics for the column at schema ordinal `ordinal`.
    pub fn column(&self, ordinal: usize) -> Option<&ColumnStats> {
        self.columns.get(ordinal).and_then(Option::as_ref)
    }
}

/// What one segment contributes to its table's statistics, per column.
/// Cached inside the segment ([`Segment::cached_summary`]) until it is
/// next written.
#[derive(Debug)]
pub struct SegmentSummary {
    columns: Vec<ColumnSummary>,
}

#[derive(Debug)]
struct ColumnSummary {
    /// Live NULLs.
    nulls: u64,
    /// Live non-null values.
    values: u64,
    /// The [`KMV_K`] smallest distinct hashes of the live values, ascending.
    hashes: Box<[u64]>,
    /// Histogram counts of the live values and the edges they were binned
    /// against; `None` until a numeric column is first merged.
    bins: Mutex<Option<Bins>>,
}

#[derive(Debug)]
struct Bins {
    lo: f64,
    hi: f64,
    counts: [u32; HISTOGRAM_BINS],
}

/// `DefaultHasher::new()` uses fixed keys, so these hashes (and therefore
/// the NDV estimates) are deterministic across runs.
fn hash_of(h: impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    h.hash(&mut hasher);
    hasher.finish()
}

/// Summarize one segment from its columns and tombstones: per column, the
/// live NULL and value counts and the [`KMV_K`] smallest distinct hashes of
/// the live values.
pub(crate) fn summarize(columns: &[Column], deleted: &[bool]) -> SegmentSummary {
    SegmentSummary {
        columns: columns
            .iter()
            .map(|column| summarize_column(column, deleted))
            .collect(),
    }
}

fn summarize_column(column: &Column, deleted: &[bool]) -> ColumnSummary {
    let mut nulls = 0;
    let mut offsets = Vec::with_capacity(deleted.len());
    for (off, (&dead, &valid)) in deleted.iter().zip(column.validity()).enumerate() {
        match (dead, valid) {
            (true, _) => {}
            (false, true) => offsets.push(off),
            (false, false) => nulls += 1,
        }
    }
    let mut hashes: Vec<u64> = match column.data() {
        ColumnData::Int(arr) => offsets.iter().map(|&off| hash_of(arr[off])).collect(),
        ColumnData::Float(arr) => offsets
            .iter()
            .map(|&off| hash_of(arr[off].to_bits()))
            .collect(),
        ColumnData::Str { dict, codes } => {
            // One hash per dictionary entry, not per row.
            let entries: Vec<u64> = dict.iter().map(|s| hash_of(s.as_bytes())).collect();
            offsets
                .iter()
                .filter_map(|&off| entries.get(codes[off] as usize).copied())
                .collect()
        }
        ColumnData::Bytes(arr) => offsets
            .iter()
            .map(|&off| hash_of(arr[off].as_ref()))
            .collect(),
        ColumnData::Bool(arr) => offsets.iter().map(|&off| hash_of(arr[off])).collect(),
    };
    hashes.sort_unstable();
    hashes.dedup();
    hashes.truncate(KMV_K);
    ColumnSummary {
        nulls,
        values: offsets.len() as u64,
        hashes: hashes.into_boxed_slice(),
        bins: Mutex::new(None),
    }
}

impl ColumnSummary {
    /// Add this column's bin counts against the edges `[lo, hi]` to
    /// `counts`, re-binning `column` first when its counts were taken
    /// against other edges.
    fn add_bins(
        &self,
        column: &Column,
        deleted: &[bool],
        (lo, hi): (f64, f64),
        counts: &mut [u64],
    ) {
        // The one update is a single assignment of finished counts, so a
        // guard recovered from a poisoned lock still holds valid ones.
        let mut bins = self.bins.lock().unwrap_or_else(PoisonError::into_inner);
        let current = bins
            .as_ref()
            .is_some_and(|b| b.lo.to_bits() == lo.to_bits() && b.hi.to_bits() == hi.to_bits());
        if !current {
            *bins = Some(bin_column(column, deleted, lo, hi));
        }
        if let Some(bins) = bins.as_ref() {
            for (total, &n) in counts.iter_mut().zip(&bins.counts) {
                *total += u64::from(n);
            }
        }
    }
}

/// Count a numeric column's live values into the buckets of `[lo, hi]`.
fn bin_column(column: &Column, deleted: &[bool], lo: f64, hi: f64) -> Bins {
    let mut counts = [0u32; HISTOGRAM_BINS];
    let live = deleted
        .iter()
        .zip(column.validity())
        .map(|(&d, &v)| v && !d);
    let mut count = |v: f64| counts[bin_of(lo, hi, v)] += 1;
    match column.data() {
        ColumnData::Int(arr) => arr
            .iter()
            .zip(live)
            .filter(|(_, live)| *live)
            .for_each(|(&v, _)| count(v as f64)),
        ColumnData::Float(arr) => arr
            .iter()
            .zip(live)
            .filter(|(_, live)| *live)
            .for_each(|(&v, _)| count(v)),
        _ => {}
    }
    Bins { lo, hi, counts }
}

/// Merge the ascending distinct list `hashes` into `smallest`, keeping the
/// [`KMV_K`] smallest distinct values of the union (`scratch` is reused
/// between calls).
fn merge_smallest(smallest: &mut Vec<u64>, hashes: &[u64], scratch: &mut Vec<u64>) {
    let hashes = match smallest.get(KMV_K - 1) {
        Some(&kth) => &hashes[..hashes.partition_point(|&h| h < kth)],
        None => hashes,
    };
    if hashes.is_empty() {
        return;
    }
    scratch.clear();
    let (mut a, mut b) = (smallest.iter().peekable(), hashes.iter().peekable());
    while scratch.len() < KMV_K {
        let next = match (a.peek(), b.peek()) {
            (Some(&&x), Some(&&y)) => {
                if x <= y {
                    a.next();
                }
                if y <= x {
                    b.next();
                }
                x.min(y)
            }
            (Some(&&x), None) => {
                a.next();
                x
            }
            (None, Some(&&y)) => {
                b.next();
                y
            }
            (None, None) => break,
        };
        scratch.push(next);
    }
    std::mem::swap(smallest, scratch);
}

/// The distinct-count estimate of a KMV sketch holding `smallest`.
fn kmv_estimate(smallest: &[u64]) -> u64 {
    match smallest.get(KMV_K - 1) {
        // kth smallest of n uniform hashes in [0, M): n ≈ (k-1)·M/kth.
        Some(&kth) if kth > 0 => {
            ((KMV_K - 1) as f64 * (u64::MAX as f64) / kth as f64).round() as u64
        }
        _ => smallest.len() as u64,
    }
}

/// The smallest zone-map minimum and the largest zone-map maximum of
/// column `c` over `segments` (conservative: zones never shrink).
fn zone_bounds(segments: &[Arc<Segment>], c: usize) -> Option<(Value, Value)> {
    let mut bounds: Option<(&Value, &Value)> = None;
    for seg in segments {
        let column = seg.column(c);
        if let (Some(lo), Some(hi)) = (column.zone_min(), column.zone_max()) {
            bounds = Some(match bounds {
                Some((min, max)) => (
                    if lo.total_cmp(min).is_lt() { lo } else { min },
                    if hi.total_cmp(max).is_gt() { hi } else { max },
                ),
                None => (lo, hi),
            });
        }
    }
    bounds.map(|(lo, hi)| (lo.clone(), hi.clone()))
}

/// Collect statistics for `table`, stamping them with `collected_at`.
///
/// Merges the segments' summaries (computing those not cached yet) with
/// the zone maps' min/max; see the module docs.
pub fn analyze(table: &Table, collected_at: Timestamp) -> TableStats {
    let segments = table.segments();
    let summaries: Vec<&SegmentSummary> = segments.iter().map(|seg| seg.summary()).collect();
    let columns = table
        .schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(c, def)| {
            let numeric = matches!(def.ty, DataType::Int | DataType::Float);
            merge_column(segments, &summaries, c, numeric)
        })
        .collect();
    TableStats {
        row_count: table.row_count() as u64,
        collected_at,
        columns,
    }
}

/// Column `c`'s statistics, merged from every segment's summary.
fn merge_column(
    segments: &[Arc<Segment>],
    summaries: &[&SegmentSummary],
    c: usize,
    numeric: bool,
) -> Option<ColumnStats> {
    let (min, max) = zone_bounds(segments, c)?;
    let parts: Vec<(&Segment, &ColumnSummary)> = segments
        .iter()
        .zip(summaries)
        .filter_map(|(seg, summary)| Some((&**seg, summary.columns.get(c)?)))
        .collect();
    let (mut nulls, mut values) = (0, 0);
    let (mut smallest, mut scratch) = (Vec::with_capacity(KMV_K), Vec::with_capacity(KMV_K));
    for (_, part) in &parts {
        nulls += part.nulls;
        values += part.values;
        merge_smallest(&mut smallest, &part.hashes, &mut scratch);
    }
    if values == 0 && nulls == 0 {
        return None;
    }
    let histogram = match (numeric, min.as_f64(), max.as_f64()) {
        (true, Some(lo), Some(hi)) if values > 0 => {
            let mut counts = vec![0; HISTOGRAM_BINS];
            for (seg, part) in &parts {
                if part.values > 0 {
                    part.add_bins(seg.column(c), seg.deleted(), (lo, hi), &mut counts);
                }
            }
            Some(Histogram {
                lo,
                hi,
                counts,
                total: values,
            })
        }
        _ => None,
    };
    Some(ColumnStats {
        min,
        max,
        null_count: nulls,
        ndv: kmv_estimate(&smallest).max(u64::from(values > 0)),
        histogram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};

    fn numbers_table(values: impl IntoIterator<Item = Option<i64>>) -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("v", DataType::Int).nullable(),
        ]);
        let mut t = Table::new("t", schema);
        for (i, v) in values.into_iter().enumerate() {
            let v = v.map(Value::Int).unwrap_or(Value::Null);
            t.insert(vec![Value::Int(i as i64), v], 1)
                .expect("insert test row");
        }
        t
    }

    #[test]
    fn exact_ndv_below_sketch_size() {
        let t = numbers_table((0..100).map(|i| Some(i % 10)));
        let stats = analyze(&t, 1);
        assert_eq!(stats.row_count, 100);
        let v = stats.column(1).expect("stats for v");
        assert_eq!(v.ndv, 10);
        assert_eq!(v.null_count, 0);
        assert_eq!(v.min, Value::Int(0));
        assert_eq!(v.max, Value::Int(9));
    }

    #[test]
    fn kmv_estimate_close_on_large_distinct_counts() {
        // 20k distinct values, well above the sketch size.
        let t = numbers_table((0..20_000).map(Some));
        let stats = analyze(&t, 1);
        let v = stats.column(1).expect("stats for v");
        let err = (v.ndv as f64 - 20_000.0).abs() / 20_000.0;
        assert!(
            err < 0.15,
            "NDV estimate {} more than 15% off true 20000",
            v.ndv
        );
    }

    #[test]
    fn histogram_counts_match_a_known_uniform_distribution() {
        let t = numbers_table((0..3200).map(|i| Some(i % 320)));
        let stats = analyze(&t, 1);
        let v = stats.column(1).expect("stats for v");
        let h = v.histogram.as_ref().expect("histogram");
        assert_eq!(h.total, 3200);
        assert_eq!(h.counts.len(), HISTOGRAM_BINS);
        // Uniform over [0, 319]: every bucket should hold ~100 rows.
        for (i, &c) in h.counts.iter().enumerate() {
            assert!(
                (80..=120).contains(&(c as i64)),
                "bucket {i} holds {c} rows, expected ~100"
            );
        }
        // Median sits near the middle.
        let below = h.fraction_below(160.0);
        assert!((below - 0.5).abs() < 0.05, "fraction_below(160) = {below}");
    }

    #[test]
    fn null_counts_are_live_exact() {
        let t = numbers_table([Some(1), None, Some(2), None, None]);
        let stats = analyze(&t, 1);
        let v = stats.column(1).expect("stats for v");
        assert_eq!(v.null_count, 3);
        assert_eq!(v.ndv, 2);
    }

    #[test]
    fn deleted_rows_drop_out_of_the_value_pass() {
        let mut t = numbers_table((0..10).map(Some));
        // Delete the even rows.
        let ids: Vec<_> = t.row_ids().collect();
        for id in ids.iter().step_by(2) {
            assert!(t.delete(*id));
        }
        let stats = analyze(&t, 2);
        assert_eq!(stats.row_count, 5);
        let v = stats.column(1).expect("stats for v");
        assert_eq!(v.ndv, 5);
        // Min/max stay conservative (zone maps never shrink).
        assert_eq!(v.min, Value::Int(0));
        assert_eq!(v.max, Value::Int(9));
    }

    #[test]
    fn string_ndv_counts_distinct_dictionary_entries() {
        let schema = TableSchema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let mut t = Table::new("t", schema);
        for i in 0..50 {
            t.insert(vec![Value::str(format!("cat-{}", i % 7))], 1)
                .expect("insert test row");
        }
        let stats = analyze(&t, 1);
        let s = stats.column(0).expect("stats for s");
        assert_eq!(s.ndv, 7);
        assert!(s.histogram.is_none(), "strings get no histogram");
    }

    #[test]
    fn fraction_below_interpolates_and_clamps() {
        let t = numbers_table((0..1000).map(Some));
        let stats = analyze(&t, 1);
        let h = stats
            .column(1)
            .and_then(|c| c.histogram.as_ref().cloned())
            .expect("histogram");
        assert_eq!(h.fraction_below(-5.0), 0.0);
        assert_eq!(h.fraction_below(5000.0), 1.0);
        let quarter = h.fraction_below(250.0);
        assert!(
            (quarter - 0.25).abs() < 0.05,
            "fraction_below(250) = {quarter}"
        );
    }
}
