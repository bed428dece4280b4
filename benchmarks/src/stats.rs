//! Order statistics for the benchmark's reports.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it.  `p` is a fraction in (0, 1].
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; below that it is one outlier's latency, not a percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Median of unsorted floats (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a slice (0 for an empty one: a layer no operation entered).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        // Nearest rank never interpolates: 4 samples, p50 is the 2nd.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.51), 30);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 leaves 2.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(!supports(200, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
