//! Top-k *groups* ranked by an aggregate value:
//! `SELECT key, AGG(v) GROUP BY key ORDER BY AGG(v) DESC LIMIT k`.
//!
//! Unlike [`crate::HistogramTopK`], the ranking criterion — the aggregate
//! value — is not known until every duplicate of a group has been folded
//! into its accumulator, so no cutoff may prune on it while partial
//! aggregates are still unmerged (DESIGN.md §14). The operator instead
//! runs a *fold-mode* external sort on the group key: duplicates collapse
//! inside run generation, at every merge duel, and across cascade passes,
//! so storage traffic is proportional to the number of *distinct groups*,
//! not input rows. The merged stream of complete groups then passes
//! through a bounded value-ranked heap that keeps the best `k`.

use std::sync::Arc;

use histok_sort::{CmpStats, ExternalSorter, FoldSpec, FoldStats, MergeTuning};
use histok_storage::{IoStats, StorageBackend};
use histok_types::{
    AggregateOp, Aggregator, Bytes, Error, F64Key, KeyPair, Result, Row, SortKey, SortOrder,
};

use crate::config::TopKConfig;
use crate::metrics::OperatorMetrics;
use crate::topk::RetainedHeap;

/// One output group of [`GroupedAggTopK`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggGroup<K> {
    /// The group key.
    pub key: K,
    /// The aggregate value the group was ranked by.
    pub value: f64,
    /// The group's raw accumulator payload (decodable with
    /// [`histok_types::decode_count`] / [`histok_types::decode_f64`]).
    pub acc: Bytes,
}

/// Grouped top-k by aggregate value over a fold-mode external sort.
///
/// ```
/// use histok_core::{GroupedAggTopK, TopKConfig};
/// use histok_storage::MemoryBackend;
/// use histok_types::{AggregateOp, Row, SortOrder};
///
/// // Top 2 keys by COUNT(*) — key k appears k+1 times.
/// let config =
///     TopKConfig::builder().memory_budget(1 << 20).aggregate(AggregateOp::Count).build()?;
/// let mut op = GroupedAggTopK::new(2, SortOrder::Descending, config, MemoryBackend::new())?;
/// for key in 0..10u64 {
///     for _ in 0..=key {
///         op.push(Row::key_only(key))?;
///     }
/// }
/// let groups = op.finish()?;
/// let top: Vec<(u64, f64)> = groups.iter().map(|g| (g.key, g.value)).collect();
/// assert_eq!(top, vec![(9, 10.0), (8, 9.0)]);
/// # Ok::<(), histok_types::Error>(())
/// ```
pub struct GroupedAggTopK<K: SortKey> {
    sorter: Option<ExternalSorter<K>>,
    agg: Arc<dyn Aggregator>,
    k: u64,
    /// Order of the *values*: `Descending` = largest aggregates win.
    value_order: SortOrder,
    fold_stats: FoldStats,
    cmp_stats: CmpStats,
    stats: IoStats,
    rows_in: u64,
    groups_seen: u64,
}

impl<K: SortKey> GroupedAggTopK<K> {
    /// Creates the operator: the best `k` groups under `value_order`
    /// (ties broken by group key, same order — deterministic). The config
    /// must carry a numeric [`TopKConfig::aggregate`]; `First` has no
    /// value to rank by and is rejected.
    pub fn new(
        k: u64,
        value_order: SortOrder,
        config: TopKConfig,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        Self::with_arc(k, value_order, config, Arc::new(backend))
    }

    /// As [`GroupedAggTopK::new`] with a shared backend handle.
    pub fn with_arc(
        k: u64,
        value_order: SortOrder,
        config: TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        config.validate()?;
        let Some(op) = config.aggregate else {
            return Err(Error::InvalidConfig(
                "GroupedAggTopK requires an aggregate (COUNT/SUM/MIN/MAX)".into(),
            ));
        };
        if op == AggregateOp::First {
            return Err(Error::InvalidConfig(
                "FIRST has no numeric value to rank groups by; use HistogramTopK with dedup".into(),
            ));
        }
        if k == 0 {
            return Err(Error::InvalidConfig("k must be positive".into()));
        }
        let stats = IoStats::new();
        let fold_stats = FoldStats::new();
        let cmp_stats = CmpStats::new();
        let agg = op.aggregator();
        // Group keys are sorted ascending — any total order works, the
        // value ranking happens after the fold completes.
        let sorter = ExternalSorter::with_memory_budget(
            backend,
            SortOrder::Ascending,
            config.make_budget(),
            stats.clone(),
        )
        .with_block_bytes(config.block_bytes)
        .with_io_scheduler(config.io_scheduler())
        .with_fan_in(config.fan_in)
        .with_merge_threads(config.merge_threads)
        .with_tuning(MergeTuning {
            stats: Some(cmp_stats.clone()),
            // The fold is re-applied from `with_fold` at finish time.
            ..MergeTuning::default()
        })
        .with_fold(FoldSpec::new(agg.clone()).with_stats(fold_stats.clone()));
        Ok(GroupedAggTopK {
            sorter: Some(sorter),
            agg,
            k,
            value_order,
            fold_stats,
            cmp_stats,
            stats,
            rows_in: 0,
            groups_seen: 0,
        })
    }

    /// Offers one input row; its payload is fed through
    /// [`Aggregator::init`] exactly once here.
    pub fn push(&mut self, row: Row<K>) -> Result<()> {
        let sorter =
            self.sorter.as_mut().ok_or_else(|| Error::InvalidConfig("push after finish".into()))?;
        self.rows_in += 1;
        sorter.push(Row { payload: self.agg.init(row.payload), key: row.key })
    }

    /// Completes the aggregation and returns the best `k` groups in value
    /// order. Calling `finish` twice is an error.
    pub fn finish(&mut self) -> Result<Vec<AggGroup<K>>> {
        let sorter = self
            .sorter
            .take()
            .ok_or_else(|| Error::InvalidConfig("GroupedAggTopK: finish() called twice".into()))?;
        // The folded merge emits each distinct group exactly once, with its
        // aggregate complete — only now may the value rank (and prune).
        let mut heap: RetainedHeap<KeyPair<F64Key, K>> =
            RetainedHeap::new(self.k, self.value_order);
        for row in sorter.finish()? {
            let row = row?;
            self.groups_seen += 1;
            let value = self.agg.value(&row.payload).unwrap_or(0.0);
            heap.offer(Row::new(KeyPair(F64Key(value), row.key), row.payload));
        }
        Ok(heap
            .into_sorted()
            .into_iter()
            .map(|row| {
                let KeyPair(value, key) = row.key;
                AggGroup { key, value: value.get(), acc: row.payload }
            })
            .collect())
    }

    /// Distinct groups the final merge emitted (0 before `finish`).
    pub fn groups_seen(&self) -> u64 {
        self.groups_seen
    }

    /// Execution counters (fold counters live in `rows_folded` /
    /// `bytes_folded_pre_spill`).
    pub fn metrics(&self) -> OperatorMetrics {
        let io = self.stats.snapshot();
        let fold = self.fold_stats.snapshot();
        OperatorMetrics {
            rows_in: self.rows_in,
            spilled: io.runs_created > 0,
            io,
            cmp: self.cmp_stats.snapshot(),
            rows_folded: fold.rows_folded,
            bytes_folded_pre_spill: fold.bytes_folded_pre_spill,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use histok_types::{decode_count, encode_f64};
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn config(budget: usize, op: AggregateOp) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).aggregate(op).build().unwrap()
    }

    #[test]
    fn top_groups_by_count_spilling() {
        // Key k appears (k+1)*40 times, 0..10 — shuffled, with memory for
        // a fraction of the input so the sort spills. Batch run generation
        // (the sorter's choice for exact-prefix keys such as u64) collapses every in-batch duplicate post-sort, so each spilled
        // batch shrinks to at most the distinct-key count.
        let mut keys = Vec::new();
        for k in 0..10u64 {
            keys.extend(std::iter::repeat_n(k, ((k + 1) * 40) as usize));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(21));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(80 * row_bytes)
            .block_bytes(1024)
            .aggregate(AggregateOp::Count)
            .build()
            .unwrap();
        let mut op: GroupedAggTopK<u64> =
            GroupedAggTopK::new(3, SortOrder::Descending, cfg, MemoryBackend::new()).unwrap();
        let rows_in = keys.len() as u64;
        for k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let groups = op.finish().unwrap();
        let top: Vec<(u64, f64)> = groups.iter().map(|g| (g.key, g.value)).collect();
        assert_eq!(top, vec![(9, 400.0), (8, 360.0), (7, 320.0)]);
        assert_eq!(decode_count(&groups[0].acc), 400);
        assert_eq!(op.groups_seen(), 10);
        let m = op.metrics();
        assert_eq!(m.rows_in, rows_in);
        assert!(m.spilled);
        assert!(m.rows_folded > 0);
        // Folding keeps spill traffic near batches × distinct keys, far
        // below the input size.
        assert!(
            m.rows_spilled() < rows_in / 4,
            "spilled {} of {rows_in} rows despite folding",
            m.rows_spilled()
        );
    }

    #[test]
    fn top_groups_by_sum_ascending() {
        // Key k contributes rows summing to 3k; ascending value order
        // surfaces the *smallest* sums.
        let mut rows = Vec::new();
        for k in 0..50u64 {
            for _ in 0..3 {
                rows.push(Row::new(k, encode_f64(k as f64)));
            }
        }
        rows.shuffle(&mut StdRng::seed_from_u64(22));
        let mut op: GroupedAggTopK<u64> = GroupedAggTopK::new(
            2,
            SortOrder::Ascending,
            config(1 << 20, AggregateOp::Sum),
            MemoryBackend::new(),
        )
        .unwrap();
        for row in rows {
            op.push(row).unwrap();
        }
        let top: Vec<(u64, f64)> = op.finish().unwrap().iter().map(|g| (g.key, g.value)).collect();
        assert_eq!(top, vec![(0, 0.0), (1, 3.0)]);
    }

    #[test]
    fn rejects_configs_without_a_numeric_aggregate() {
        let plain = TopKConfig::builder().memory_budget(1 << 20).build().unwrap();
        assert!(GroupedAggTopK::<u64>::new(5, SortOrder::Descending, plain, MemoryBackend::new())
            .is_err());
        let dedup = TopKConfig::builder().memory_budget(1 << 20).dedup(true).build().unwrap();
        assert!(GroupedAggTopK::<u64>::new(5, SortOrder::Descending, dedup, MemoryBackend::new())
            .is_err());
    }

    #[test]
    fn finish_twice_and_push_after_finish_error() {
        let mut op: GroupedAggTopK<u64> = GroupedAggTopK::new(
            1,
            SortOrder::Descending,
            config(1 << 20, AggregateOp::Count),
            MemoryBackend::new(),
        )
        .unwrap();
        op.push(Row::key_only(1)).unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
        assert!(op.push(Row::key_only(2)).is_err());
    }
}
