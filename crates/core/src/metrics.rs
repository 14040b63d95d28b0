//! Operator-level metrics: the quantities the paper's evaluation reports.

use histok_sort::{CascadeStats, CmpSnapshot};
use histok_storage::{IoStats, IoStatsSnapshot, StorageBackend};
use histok_types::PhaseTotals;

use crate::cutoff::FilterMetrics;

/// One operator's I/O counters, with `modelled_io_ns` filled in from the
/// backend's cost model.
///
/// [`StorageBackend::modelled_io_ns`] is the backend's *lifetime* clock,
/// shared by every query that ever used it, so an operator records the
/// reading when it is built (`modelled_at_build_ns`) and reports the
/// advance since. Queries that share a backend *concurrently* (a
/// `TopKServer` fleet) advance the clock for each other while they
/// overlap: there the figure is an upper bound on the query's own I/O.
pub(crate) fn io_snapshot(
    stats: &IoStats,
    backend: &dyn StorageBackend,
    modelled_at_build_ns: u64,
) -> IoStatsSnapshot {
    let mut io = stats.snapshot();
    let since_build = backend.modelled_io_ns().saturating_sub(modelled_at_build_ns);
    io.modelled_io_ns = io.modelled_io_ns.max(since_build);
    io
}

/// Everything a top-k operator can report about one execution.
#[derive(Debug, Clone, Default)]
pub struct OperatorMetrics {
    /// Rows pushed into the operator.
    pub rows_in: u64,
    /// Rows eliminated before entering the sort workspace (Algorithm 1
    /// line 4, plus in-memory priority-queue rejections).
    pub eliminated_at_input: u64,
    /// Rows eliminated at spill time (Algorithm 1 line 11).
    pub eliminated_at_spill: u64,
    /// Secondary-storage traffic.
    pub io: IoStatsSnapshot,
    /// Cutoff-filter activity (zeroed for operators without one).
    pub filter: FilterMetrics,
    /// True if the operator left the in-memory mode.
    pub spilled: bool,
    /// High-water mark of workspace bytes.
    pub peak_memory_bytes: usize,
    /// Early merge steps performed (optimized baseline only).
    pub early_merges: u64,
    /// Sort-path comparison counts: duels decided on offset-value codes /
    /// normalized prefixes vs. full key comparisons.
    pub cmp: CmpSnapshot,
    /// Wall-clock breakdown by execution phase (in-memory accumulation, run
    /// generation including spill writes, final merge). Timed with one
    /// `Instant` pair per phase transition — never per row.
    pub phases: PhaseTotals,
    /// Worker threads (key ranges) of the final merge; 1 = serial.
    pub merge_partitions: u64,
    /// Rows each final-merge partition emitted, in key-range order; empty
    /// when the merge ran serially.
    pub partition_rows: Vec<u64>,
    /// Intermediate cascade-merge pass counters (DESIGN.md §11); all zero
    /// when the run count never exceeded the merge fan-in.
    pub cascade: CascadeStats,
    /// Nanoseconds this query waited in a server's admission queue before
    /// its memory lease was granted (0 for standalone execution).
    pub queued_ns: u64,
    /// Duplicate rows folded into their group's surviving row, anywhere in
    /// the pipeline: run generation, merge duels, the in-memory store.
    /// Zero unless [`dedup`](crate::TopKConfig::dedup) or
    /// [`aggregate`](crate::TopKConfig::aggregate) is on.
    pub rows_folded: u64,
    /// Encoded bytes of duplicates absorbed *before* reaching storage
    /// (fold-at-insert in run generation, in-memory folding) — spill
    /// bandwidth the early fold saved outright.
    pub bytes_folded_pre_spill: u64,
}

impl OperatorMetrics {
    /// Aggregates this execution with another (a segment, a group, a
    /// worker): counters and phase/latency histograms sum, `spilled` ORs.
    /// `peak_memory_bytes` takes the max — right for sub-operators that run
    /// one at a time; aggregations whose workspaces coexist (e.g. grouped
    /// execution) should sum the peaks themselves.
    pub fn merged(&self, other: &OperatorMetrics) -> OperatorMetrics {
        OperatorMetrics {
            rows_in: self.rows_in.saturating_add(other.rows_in),
            eliminated_at_input: self.eliminated_at_input.saturating_add(other.eliminated_at_input),
            eliminated_at_spill: self.eliminated_at_spill.saturating_add(other.eliminated_at_spill),
            io: self.io.merged(&other.io),
            filter: self.filter.merged(&other.filter),
            spilled: self.spilled || other.spilled,
            peak_memory_bytes: self.peak_memory_bytes.max(other.peak_memory_bytes),
            early_merges: self.early_merges.saturating_add(other.early_merges),
            cmp: self.cmp.merged(&other.cmp),
            phases: self.phases.merged(&other.phases),
            merge_partitions: self.merge_partitions.max(other.merge_partitions),
            partition_rows: if self.partition_rows.len() >= other.partition_rows.len() {
                self.partition_rows.clone()
            } else {
                other.partition_rows.clone()
            },
            cascade: self.cascade.merged(&other.cascade),
            queued_ns: self.queued_ns.saturating_add(other.queued_ns),
            rows_folded: self.rows_folded.saturating_add(other.rows_folded),
            bytes_folded_pre_spill: self
                .bytes_folded_pre_spill
                .saturating_add(other.bytes_folded_pre_spill),
        }
    }

    /// Rows written to secondary storage — the paper's "Rows" column.
    pub fn rows_spilled(&self) -> u64 {
        self.io.rows_written
    }

    /// Runs created — the paper's "Runs" column.
    pub fn runs(&self) -> u64 {
        self.io.runs_created
    }

    /// Fraction of input rows that reached secondary storage (1.0 = spilled
    /// everything, like the traditional algorithm).
    pub fn spill_fraction(&self) -> f64 {
        if self.rows_in == 0 {
            0.0
        } else {
            self.io.rows_written as f64 / self.rows_in as f64
        }
    }

    /// Nanoseconds the operator's compute thread spent blocked on storage
    /// (synchronous I/O, pipeline backpressure, waiting for prefetched
    /// blocks).
    pub fn io_wait_ns(&self) -> u64 {
        self.io.io_wait_ns
    }

    /// Nanoseconds of storage latency served on background I/O threads —
    /// the latency the overlap layer hid from the compute thread.
    pub fn overlapped_io_ns(&self) -> u64 {
        self.io.overlapped_io_ns
    }

    /// Load imbalance of the partitioned merge: the busiest partition's
    /// rows over the mean (1.0 = perfectly balanced splitters; 0.0 when
    /// the merge ran serially or emitted nothing).
    pub fn partition_skew(&self) -> f64 {
        let n = self.partition_rows.len();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self.partition_rows.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = *self.partition_rows.iter().max().unwrap_or(&0);
        max as f64 * n as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        HistogramTopK, OptimizedExternalTopK, ParallelTopK, TopKConfig, TopKOperator,
        TraditionalExternalTopK,
    };
    use histok_storage::{MemoryBackend, ThrottleModel, ThrottledBackend};
    use histok_types::{Row, SortSpec};
    use std::sync::Arc;

    /// Regression: `modelled_io_ns` used to be the backend's lifetime clock,
    /// so the second query on a reused backend also reported the first's
    /// I/O. Sequential queries must report disjoint shares of the clock.
    #[test]
    fn sequential_queries_on_one_backend_report_disjoint_modelled_io() {
        type Backend = Arc<ThrottledBackend<MemoryBackend>>;
        fn run(mut op: impl TopKOperator<u64>) -> u64 {
            for k in (0..4_000u64).rev() {
                op.push(Row::new(k, vec![0u8; 32])).unwrap();
            }
            assert_eq!(op.finish().unwrap().count(), 500);
            op.metrics().io.modelled_io_ns
        }
        let spec = SortSpec::ascending(500);
        let config = || TopKConfig::builder().memory_budget(8 * 1024).build().unwrap();
        let query = |name: &str, be: Backend| match name {
            "histogram" => run(HistogramTopK::with_arc(spec, config(), be).unwrap()),
            "optimized" => run(OptimizedExternalTopK::with_arc(spec, config(), be).unwrap()),
            "traditional" => run(TraditionalExternalTopK::with_arc(spec, 8 * 1024, be).unwrap()),
            _ => run(ParallelTopK::with_arc(spec, config(), be, 2).unwrap()),
        };
        for name in ["histogram", "optimized", "traditional", "parallel"] {
            let be: Backend = Arc::new(ThrottledBackend::new(
                MemoryBackend::new(),
                ThrottleModel::disaggregated(),
            ));
            let first = query(name, be.clone());
            let second = query(name, be.clone());
            assert!(first > 0 && second > 0, "{name}: the queries must spill");
            assert_eq!(
                first + second,
                be.virtual_io_time().as_nanos() as u64,
                "{name}: per-query modelled I/O must partition the backend's clock"
            );
        }
    }

    #[test]
    fn spill_fraction_handles_empty_input() {
        let m = OperatorMetrics::default();
        assert_eq!(m.spill_fraction(), 0.0);
    }

    #[test]
    fn derived_columns_read_io_snapshot() {
        let mut m = OperatorMetrics { rows_in: 100, ..Default::default() };
        m.io.rows_written = 25;
        m.io.runs_created = 3;
        assert_eq!(m.rows_spilled(), 25);
        assert_eq!(m.runs(), 3);
        assert!((m.spill_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn partition_skew_is_max_over_mean() {
        let m = OperatorMetrics {
            merge_partitions: 4,
            partition_rows: vec![100, 100, 100, 100],
            ..Default::default()
        };
        assert!((m.partition_skew() - 1.0).abs() < 1e-12);
        let skewed = OperatorMetrics { partition_rows: vec![300, 50, 50, 0], ..Default::default() };
        assert!((skewed.partition_skew() - 3.0).abs() < 1e-12);
        assert_eq!(OperatorMetrics::default().partition_skew(), 0.0);
    }
}
