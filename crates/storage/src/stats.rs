//! Execution statistics collected by scans and lookups.
//!
//! The SkyServerQA tool shows per-query execution statistics ("vital for
//! large result-sets", §4) and the paper reports CPU and elapsed time for
//! every query.  The storage layer accumulates raw counters here and the
//! SQL engine adds the measured wall-clock time; the Figure 13 harness
//! projects the counters onto the paper's hardware with [`crate::iosim`].

/// Counters accumulated while executing one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScanStats {
    /// Rows read from heap tables (full scans).
    pub rows_scanned: u64,
    /// Bytes read from heap tables.
    pub bytes_scanned: u64,
    /// Rows read through an index (seeks and index scans).
    pub rows_from_index: u64,
    /// Bytes read through indices.
    pub bytes_from_index: u64,
    /// Number of index seeks performed.
    pub index_seeks: u64,
    /// Rows produced to the client (or into a temp table).
    pub rows_returned: u64,
    /// Rows examined by join probes.
    pub join_probes: u64,
    /// Predicate evaluations performed.
    pub predicates_evaluated: u64,
    /// Whole segments skipped by zone-map pruning (no row or byte touched).
    pub segments_pruned: u64,
    /// Row batches processed by heap scans (pruned segments contribute
    /// none).
    pub batches_processed: u64,
    /// Full-row-equivalent heap bytes: what the same scan (after segment
    /// pruning) would read in a row-oriented layout.  Drives the
    /// paper-hardware projection, which models the paper's row store;
    /// `bytes_scanned` reports the column bytes the engine actually
    /// touched.
    pub logical_bytes_scanned: u64,
}

impl ScanStats {
    /// Merge another stats block into this one (parallel scan workers).
    pub fn merge(&mut self, other: &ScanStats) {
        self.rows_scanned += other.rows_scanned;
        self.bytes_scanned += other.bytes_scanned;
        self.rows_from_index += other.rows_from_index;
        self.bytes_from_index += other.bytes_from_index;
        self.index_seeks += other.index_seeks;
        self.rows_returned += other.rows_returned;
        self.join_probes += other.join_probes;
        self.predicates_evaluated += other.predicates_evaluated;
        self.segments_pruned += other.segments_pruned;
        self.batches_processed += other.batches_processed;
        self.logical_bytes_scanned += other.logical_bytes_scanned;
    }

    /// Total bytes touched.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_scanned + self.bytes_from_index
    }

    /// Total rows touched.
    pub fn total_rows(&self) -> u64 {
        self.rows_scanned + self.rows_from_index
    }
}

/// What was measured while executing one statement.  The paper-hardware
/// projection of the same counters is [`crate::IoSimulator::project`],
/// computed by whoever reports it.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExecutionStats {
    /// Raw access-path counters.
    pub stats: ScanStats,
    /// Measured wall-clock time of the in-process execution.
    pub wall_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = ScanStats {
            rows_scanned: 10,
            bytes_scanned: 1000,
            ..Default::default()
        };
        let b = ScanStats {
            rows_scanned: 5,
            bytes_scanned: 500,
            index_seeks: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 15);
        assert_eq!(a.bytes_scanned, 1500);
        assert_eq!(a.index_seeks, 2);
        assert_eq!(a.total_bytes(), 1500);
        assert_eq!(a.total_rows(), 15);
    }
}
