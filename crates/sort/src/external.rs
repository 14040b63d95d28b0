//! A complete external merge sort assembled from the substrate pieces.
//!
//! It does what the *traditional* top-k baseline (§2.4) does: every input
//! row is written to sorted runs, the runs are (multi-level) merged, and
//! the caller takes however many rows it wants from the final merge.
//! No filtering, no run-size limit — exactly the behaviour whose
//! "performance cliff" the paper sets out to remove.

use std::sync::Arc;

use histok_storage::{IoScheduler, IoStats, RunCatalog, StorageBackend};
use histok_types::{Result, Row, SortKey, SortOrder};

use crate::budget::MemoryBudget;
use crate::fold::FoldSpec;
use crate::merge::{FinalMerge, MergeTuning, SortedStream};
use crate::observer::NoopObserver;
use crate::run_gen::{BatchSort, ResiduePolicy, RunGenerator};

/// A full external merge sort: push rows, then stream them back sorted.
///
/// ```
/// use std::sync::Arc;
/// use histok_sort::ExternalSorter;
/// use histok_storage::{IoStats, MemoryBackend};
/// use histok_types::{Row, SortOrder};
///
/// let mut sorter: ExternalSorter<u64> = ExternalSorter::new(
///     Arc::new(MemoryBackend::new()),
///     SortOrder::Ascending,
///     64 * 60, // workspace for ~64 rows
///     IoStats::new(),
/// );
/// for key in (0..1_000u64).rev() {
///     sorter.push(Row::key_only(key))?;
/// }
/// let sorted: Vec<u64> =
///     sorter.finish()?.map(|r| r.map(|row| row.key)).collect::<Result<_, _>>()?;
/// assert_eq!(sorted, (0..1_000).collect::<Vec<_>>());
/// # Ok::<(), histok_types::Error>(())
/// ```
pub struct ExternalSorter<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    generator: BatchSort<K>,
    fan_in: usize,
    tuning: MergeTuning,
    rows_in: u64,
    merge_threads: usize,
    fold: Option<FoldSpec>,
}

impl<K: SortKey> ExternalSorter<K> {
    /// Creates a sorter spilling through `backend` under `budget_bytes` of
    /// workspace.
    pub fn new(
        backend: Arc<dyn StorageBackend>,
        order: SortOrder,
        budget_bytes: usize,
        stats: IoStats,
    ) -> Self {
        Self::with_memory_budget(backend, order, MemoryBudget::new(budget_bytes), stats)
    }

    /// Creates a sorter whose workspace is governed by `budget` — fork it
    /// from a shared [`crate::BudgetHandle`] when an external lease owner
    /// may resize the limit while the sort runs.
    pub fn with_memory_budget(
        backend: Arc<dyn StorageBackend>,
        order: SortOrder,
        budget: MemoryBudget,
        stats: IoStats,
    ) -> Self {
        let catalog = Arc::new(RunCatalog::new(
            backend,
            RunCatalog::<K>::unique_prefix("xsort"),
            order,
            stats,
        ));
        // Load-sort-store run generation: the radix batch sort.
        let generator = BatchSort::with_budget(catalog.clone(), budget);
        ExternalSorter {
            catalog,
            generator,
            fan_in: 512,
            tuning: MergeTuning::default(),
            rows_in: 0,
            merge_threads: 1,
            fold: None,
        }
    }

    /// Enables in-sort duplicate folding: equal keys are combined by
    /// `fold`'s aggregator during run generation and again at every merge
    /// duel, so the sorted stream yields each distinct key exactly once
    /// with its fully merged payload.
    pub fn with_fold(mut self, fold: FoldSpec) -> Self {
        self.generator.set_fold(Some(fold.clone()));
        self.fold = Some(fold);
        self
    }

    /// Overrides the merge fan-in (at least 2; `finish` rejects less).
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        self.fan_in = fan_in;
        self
    }

    /// Overrides the merge tuning (comparison counters, batch size); run
    /// generation books its comparisons into the same counters. The I/O
    /// pool is the catalog's, set by [`ExternalSorter::with_io_scheduler`]
    /// in either order.
    pub fn with_tuning(mut self, tuning: MergeTuning) -> Self {
        self.generator = self.generator.with_stats(tuning.stats.clone());
        self.tuning = tuning;
        self
    }

    /// Overrides the block payload target for spilled runs.
    pub fn with_block_bytes(self, bytes: usize) -> Self {
        self.catalog.set_block_bytes(bytes);
        self
    }

    /// Routes spill writes and merge read-ahead through `scheduler`'s
    /// shared worker pool; `None`, the default, moves every run's bytes
    /// inline on the calling thread.
    pub fn with_io_scheduler(self, scheduler: Option<IoScheduler>) -> Self {
        self.catalog.set_io_scheduler(scheduler);
        self
    }

    /// Worker threads for the final merge (default 1 = serial). With two
    /// or more, the final merge is range-partitioned across them once it
    /// holds at least [`PARTITION_MIN_ROWS`](crate::PARTITION_MIN_ROWS)
    /// rows.
    pub fn with_merge_threads(mut self, threads: usize) -> Self {
        self.merge_threads = threads.max(1);
        self
    }

    /// Adds one input row.
    pub fn push(&mut self, row: Row<K>) -> Result<()> {
        self.rows_in += 1;
        self.generator.push(row, &mut NoopObserver)
    }

    /// Rows pushed so far.
    pub fn rows_in(&self) -> u64 {
        self.rows_in
    }

    /// Ends the input and returns the fully sorted stream.
    ///
    /// The traditional algorithm spills *everything* — including the last
    /// partial memory load — so the I/O accounting matches the paper's
    /// baseline.
    pub fn finish(mut self) -> Result<SortedStream<K>> {
        if self.fold.is_some() {
            // Ordering-proof: with_tuning after with_fold must not lose it.
            self.tuning.fold = self.fold.clone();
        }
        self.generator.finish(&mut NoopObserver, ResiduePolicy::SpillToRuns)?;
        FinalMerge {
            fan_in: self.fan_in,
            tuning: self.tuning,
            threads: self.merge_threads,
            ..FinalMerge::default()
        }
        .run(vec![(self.catalog, Vec::new())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn sort_keys(keys: Vec<u64>, budget: usize, fan_in: usize) -> Vec<u64> {
        let stats = IoStats::new();
        let mut sorter = ExternalSorter::new(
            Arc::new(MemoryBackend::new()),
            SortOrder::Ascending,
            budget,
            stats,
        )
        .with_fan_in(fan_in);
        for k in keys {
            sorter.push(Row::key_only(k)).unwrap();
        }
        sorter.finish().unwrap().map(|r| r.unwrap().key).collect()
    }

    #[test]
    fn sorts_shuffled_input_with_tiny_memory() {
        let mut keys: Vec<u64> = (0..5000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(1));
        let sorted = sort_keys(keys, 100 * 60, 4);
        assert_eq!(sorted, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn sorts_with_duplicates() {
        let mut keys: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(2));
        let sorted = sort_keys(keys, 50 * 60, 8);
        let mut expected: Vec<u64> = (0..1000).map(|i| i % 10).collect();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn everything_in_memory_still_works() {
        let sorted = sort_keys(vec![3, 1, 2], 1 << 20, 16);
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_empty_stream() {
        let sorted = sort_keys(vec![], 1024, 16);
        assert!(sorted.is_empty());
    }

    #[test]
    fn traditional_baseline_spills_entire_input() {
        let stats = IoStats::new();
        let mut sorter = ExternalSorter::new(
            Arc::new(MemoryBackend::new()),
            SortOrder::Ascending,
            50 * 60,
            stats.clone(),
        );
        let mut keys: Vec<u64> = (0..2000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(3));
        for k in keys {
            sorter.push(Row::key_only(k)).unwrap();
        }
        let stream = sorter.finish().unwrap();
        // The defining property of the traditional algorithm: every input
        // row hits secondary storage at least once.
        assert!(stats.snapshot().rows_written >= 2000);
        drop(stream);
    }

    #[test]
    fn fold_dedups_and_aggregates_end_to_end() {
        use crate::fold::{FoldSpec, FoldStats};
        use histok_types::{decode_count, AggregateOp, Bytes};
        let mut keys: Vec<u64> = (0..2000).map(|i| i % 10).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(11));
        let agg = AggregateOp::Count.aggregator();
        let stats = FoldStats::new();
        let mut sorter = ExternalSorter::new(
            Arc::new(MemoryBackend::new()),
            SortOrder::Ascending,
            50 * 80,
            IoStats::new(),
        )
        .with_fan_in(4)
        .with_fold(FoldSpec::new(agg.clone()).with_stats(stats.clone()));
        for k in keys {
            sorter.push(Row::new(k, agg.init(Bytes::new()))).unwrap();
        }
        let got: Vec<(u64, u64)> = sorter
            .finish()
            .unwrap()
            .map(|r| r.unwrap())
            .map(|r| (r.key, decode_count(&r.payload)))
            .collect();
        // Ten distinct keys, each with its total multiplicity: folding at
        // run generation, cascade merges and the final merge never loses a
        // row and never emits a key twice.
        assert_eq!(got, (0..10).map(|k| (k, 200)).collect::<Vec<_>>());
        let snap = stats.snapshot();
        assert_eq!(snap.rows_folded, 1990, "2000 rows fold down to 10 groups");
    }

    #[test]
    fn fold_spills_fewer_bytes_than_unfolded_sort() {
        use crate::fold::FoldSpec;
        use histok_types::AggregateOp;
        let run = |fold: bool| -> u64 {
            let stats = IoStats::new();
            let mut sorter = ExternalSorter::new(
                Arc::new(MemoryBackend::new()),
                SortOrder::Ascending,
                50 * 60,
                stats.clone(),
            );
            if fold {
                sorter = sorter.with_fold(FoldSpec::new(AggregateOp::First.aggregator()));
            }
            let mut keys: Vec<u64> = (0..3000).map(|i| i % 5).collect();
            keys.shuffle(&mut StdRng::seed_from_u64(13));
            for k in keys {
                sorter.push(Row::key_only(k)).unwrap();
            }
            let n = sorter.finish().unwrap().fold(0u64, |n, r| {
                r.unwrap();
                n + 1
            });
            assert_eq!(n, if fold { 5 } else { 3000 });
            stats.snapshot().bytes_written
        };
        let (folded, unfolded) = (run(true), run(false));
        // Each ~50-row memory load folds to 5 distinct rows, so spill
        // traffic drops by roughly the duplication factor.
        assert!(
            folded * 5 <= unfolded,
            "early folding should slash spill bytes: folded {folded}, unfolded {unfolded}"
        );
    }

    /// Run generation folds wide keys before they spill: the same sort
    /// wrote 63,856 bytes when only the merges folded.
    #[test]
    fn wide_keys_fold_before_they_spill() {
        use crate::fold::{FoldSpec, FoldStats};
        use histok_types::{decode_count, AggregateOp, Bytes, BytesKey};
        let key = |k: u64| BytesKey::new(format!("wide-key-{k:05}"));
        let mut keys: Vec<u64> = (0..2000).map(|i| i % 40).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(17));
        let (agg, fold_stats, io) =
            (AggregateOp::Count.aggregator(), FoldStats::new(), IoStats::new());
        let mut sorter = ExternalSorter::new(
            Arc::new(MemoryBackend::new()),
            SortOrder::Ascending,
            200 * 80,
            io.clone(),
        )
        .with_fan_in(4)
        .with_fold(FoldSpec::new(agg.clone()).with_stats(fold_stats.clone()));
        for k in keys {
            sorter.push(Row::new(key(k), agg.init(Bytes::new()))).unwrap();
        }
        let got: Vec<(BytesKey, u64)> = sorter
            .finish()
            .unwrap()
            .map(|r| r.unwrap())
            .map(|r| (r.key, decode_count(&r.payload)))
            .collect();
        assert_eq!(got, (0..40).map(|k| (key(k), 50)).collect::<Vec<_>>());
        assert!(fold_stats.snapshot().bytes_folded_pre_spill > 0, "run generation folded nothing");
        let written = io.snapshot().bytes_written;
        assert!(written < 63_856, "{written} B written");
    }

    #[test]
    fn payloads_survive_the_full_pipeline() {
        let stats = IoStats::new();
        let mut sorter = ExternalSorter::new(
            Arc::new(MemoryBackend::new()),
            SortOrder::Ascending,
            20 * 80,
            stats,
        )
        .with_fan_in(3);
        for k in (0..300u64).rev() {
            sorter.push(Row::new(k, format!("p{k}").into_bytes())).unwrap();
        }
        for (i, row) in sorter.finish().unwrap().enumerate() {
            let row = row.unwrap();
            assert_eq!(row.key, i as u64);
            assert_eq!(row.payload, format!("p{i}").as_bytes());
        }
    }
}
