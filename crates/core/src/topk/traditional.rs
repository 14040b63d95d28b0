//! The traditional external-merge-sort top-k (§2.4).
//!
//! "The entire input is consumed and written to sorted runs on secondary
//! storage, the final result is produced by scanning and merging all the
//! sorted runs until k records have been produced." No cutoff, no run-size
//! limit, quicksort runs — the PostgreSQL behaviour whose order-of-magnitude
//! performance cliff §5.2 demonstrates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use histok_sort::{CmpStats, ExternalSorter, MemoryBudget, MergeTuning};
use histok_storage::{IoStats, StorageBackend};
use histok_types::{Error, Phase, PhaseTimer, Result, Row, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::metrics::{io_snapshot, OperatorMetrics};
use crate::topk::{
    already_finished, MergeRecord, RowStream, SpecStream, TimedStream, TopKOperator,
};

/// Top-k by fully sorting the input externally, then taking `k` rows.
pub struct TraditionalExternalTopK<K: SortKey> {
    spec: SortSpec,
    sorter: Option<ExternalSorter<K>>,
    backend: Arc<dyn StorageBackend>,
    /// The backend's modelled-I/O clock when this operator was built (see
    /// [`io_snapshot`]).
    modelled_at_build_ns: u64,
    stats: IoStats,
    rows_in: u64,
    peak_bytes: usize,
    budget: usize,
    /// The whole consume stage is run generation: there is no filtering
    /// in-memory phase to account separately.
    timer: PhaseTimer,
    final_merge_ns: Arc<AtomicU64>,
    /// Shared comparison counters the final merge flushes into.
    cmp_stats: CmpStats,
    /// How the final merge ran.
    merged: MergeRecord,
}

impl<K: SortKey> TraditionalExternalTopK<K> {
    /// Creates the operator with `budget_bytes` of sort workspace.
    pub fn new(
        spec: SortSpec,
        budget_bytes: usize,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        Self::with_arc(spec, budget_bytes, Arc::new(backend))
    }

    /// As [`TraditionalExternalTopK::new`] with a shared backend and the
    /// I/O knobs from `config` (block size, I/O pool, offset-value coding);
    /// the sort workspace is `config.memory_budget`.
    pub fn with_config(
        spec: SortSpec,
        config: &TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        config.validate()?;
        if config.fold_op().is_some() {
            return Err(Error::InvalidConfig(
                "dedup/aggregate queries are not supported by the traditional baseline".into(),
            ));
        }
        let mut op = Self::with_budget(spec, config.make_budget(), backend)?;
        let sorter = op.sorter.take().expect("sorter present before first push");
        op.sorter = Some(
            sorter
                .with_block_bytes(config.block_bytes)
                .with_io_scheduler(config.io_scheduler())
                .with_merge_threads(config.merge_threads)
                .with_tuning(MergeTuning {
                    ovc: config.ovc_enabled,
                    stats: Some(op.cmp_stats.clone()),
                    ..MergeTuning::default()
                }),
        );
        Ok(op)
    }

    /// As [`TraditionalExternalTopK::new`] with a shared backend.
    pub fn with_arc(
        spec: SortSpec,
        budget_bytes: usize,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        if budget_bytes == 0 {
            return Err(Error::InvalidConfig("memory budget must be positive".into()));
        }
        Self::with_budget(spec, MemoryBudget::new(budget_bytes), backend)
    }

    /// As [`TraditionalExternalTopK::with_arc`] with a caller-built budget
    /// (possibly reading its limit through a shared lease handle).
    fn with_budget(
        spec: SortSpec,
        budget: MemoryBudget,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        spec.validate()?;
        let stats = IoStats::new();
        let cmp_stats = CmpStats::new();
        let budget_bytes = budget.limit();
        let sorter =
            ExternalSorter::with_memory_budget(backend.clone(), spec.order, budget, stats.clone())
                .with_tuning(MergeTuning {
                    ovc: true,
                    stats: Some(cmp_stats.clone()),
                    ..MergeTuning::default()
                });
        Ok(TraditionalExternalTopK {
            spec,
            sorter: Some(sorter),
            modelled_at_build_ns: backend.modelled_io_ns(),
            backend,
            stats,
            rows_in: 0,
            peak_bytes: 0,
            budget: budget_bytes,
            timer: PhaseTimer::started(Phase::RunGeneration),
            final_merge_ns: Arc::new(AtomicU64::new(0)),
            cmp_stats,
            merged: MergeRecord::default(),
        })
    }

    /// The shared I/O counters.
    pub fn io_stats(&self) -> &IoStats {
        &self.stats
    }
}

impl<K: SortKey> TopKOperator<K> for TraditionalExternalTopK<K> {
    fn push(&mut self, row: Row<K>) -> Result<()> {
        let sorter =
            self.sorter.as_mut().ok_or_else(|| Error::InvalidConfig("push after finish".into()))?;
        self.rows_in += 1;
        sorter.push(row)
    }

    fn finish(&mut self) -> Result<RowStream<K>> {
        let Some(sorter) = self.sorter.take() else {
            return already_finished("TraditionalExternalTopK");
        };
        self.peak_bytes = self.budget; // uses its whole workspace
        let stream = sorter.finish()?;
        self.merged = MergeRecord::of(&stream);
        self.timer.stop();
        Ok(Box::new(TimedStream::new(
            SpecStream::new(stream, &self.spec),
            self.final_merge_ns.clone(),
        )))
    }

    fn metrics(&self) -> OperatorMetrics {
        let io = io_snapshot(&self.stats, self.backend.as_ref(), self.modelled_at_build_ns);
        let mut phases = self.timer.snapshot();
        phases.spill_write_ns = io.write_latency.total_ns;
        phases.final_merge_ns += self.final_merge_ns.load(Ordering::Relaxed);
        OperatorMetrics {
            rows_in: self.rows_in,
            io,
            spilled: io.runs_created > 0,
            peak_memory_bytes: self.peak_bytes,
            cmp: self.cmp_stats.snapshot(),
            phases,
            merge_partitions: self.merged.partitions,
            partition_rows: self.merged.partition_rows(),
            cascade: self.merged.cascade,
            ..Default::default()
        }
    }

    fn algorithm(&self) -> &'static str {
        "traditional-ems"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    #[test]
    fn produces_exact_top_k_and_spills_everything() {
        let mut keys: Vec<u64> = (0..5000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(11));
        let mut op =
            TraditionalExternalTopK::new(SortSpec::ascending(50), 100 * 60, MemoryBackend::new())
                .unwrap();
        for k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let m = op.metrics();
        // The defining flaw: all 5000 rows were spilled for 50 outputs.
        assert!(m.rows_spilled() >= 5000);
        assert!((m.spill_fraction() - 1.0).abs() < 0.01 || m.spill_fraction() > 1.0);
        assert_eq!(m.eliminated_at_input, 0);
    }

    #[test]
    fn offset_works() {
        let mut op = TraditionalExternalTopK::new(
            SortSpec::ascending(5).with_offset(10),
            40 * 60,
            MemoryBackend::new(),
        )
        .unwrap();
        for k in (0..200u64).rev() {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn small_input_without_spilling() {
        let mut op =
            TraditionalExternalTopK::new(SortSpec::descending(2), 1 << 20, MemoryBackend::new())
                .unwrap();
        for k in [4u64, 8, 2] {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, vec![8, 4]);
    }

    #[test]
    fn finish_twice_errors() {
        let mut op: TraditionalExternalTopK<u64> =
            TraditionalExternalTopK::new(SortSpec::ascending(1), 1024, MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(TraditionalExternalTopK::<u64>::new(
            SortSpec::ascending(1),
            0,
            MemoryBackend::new()
        )
        .is_err());
    }
}
