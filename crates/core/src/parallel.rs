//! Parallel top-k with a shared histogram priority queue (§4.4).
//!
//! "If the participating threads share an address space, they may share a
//! histogram priority queue. Such a group of threads retains basically the
//! same number of input rows as a single thread." Worker threads run
//! independent run generation; all of them feed one shared [`CutoffFilter`]
//! behind a mutex, and the current cutoff key is *published* through a
//! read-write lock so the hot input-elimination test never contends on the
//! full filter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;

use histok_sort::run_gen::{ReplacementSelection, RunGenerator};
use histok_sort::{CmpStats, FinalMerge, MergeTuning, SpillObserver};
use histok_storage::{IoStats, RunCatalog, StorageBackend};
use histok_types::{Error, Phase, PhaseTimer, Result, Row, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::cutoff::{filter_from_config, CutoffFilter};
use crate::histogram::HistogramBuilder;
use crate::metrics::{io_snapshot, OperatorMetrics};
use crate::sizing::SizingPolicy;
use crate::topk::{MergeRecord, RowStream, SpecStream, TimedStream, TopKOperator};

/// The shared filter: the real [`CutoffFilter`] behind a mutex plus a
/// published copy of the cutoff key for cheap reads. Only the *priority
/// queue* is shared (§4.4); each worker builds its own runs' histograms
/// locally and inserts finished buckets under the lock.
struct Shared<K: SortKey> {
    filter: Mutex<CutoffFilter<K>>,
    published: RwLock<Option<K>>,
    eliminated_input: std::sync::atomic::AtomicU64,
    eliminated_spill: std::sync::atomic::AtomicU64,
    /// Times the published cutoff actually changed (≤ buckets inserted).
    republishes: std::sync::atomic::AtomicU64,
}

impl<K: SortKey> Shared<K> {
    /// Locks the filter, ignoring poisoning: a worker that panicked
    /// holding the lock fails its join, so `finish` returns an error and
    /// no output is built from the filter it may have left half-updated.
    fn lock_filter(&self) -> MutexGuard<'_, CutoffFilter<K>> {
        self.filter.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads the published cutoff, ignoring poisoning as
    /// [`Shared::lock_filter`] does.
    fn read_published(&self) -> RwLockReadGuard<'_, Option<K>> {
        self.published.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The elimination test against the published cutoff (lock-light).
    fn eliminate(&self, key: &K, spec: &SortSpec) -> bool {
        match &*self.read_published() {
            Some(cut) => spec.order.follows(key, cut),
            None => false,
        }
    }

    /// Inserts a bucket into the shared queue and republishes the cutoff
    /// — but only when it actually moved. Most inserts land past the
    /// established cutoff and leave it unchanged; taking the write lock
    /// for those would stall every concurrent elimination test.
    fn insert_bucket(&self, bucket: crate::histogram::Bucket<K>) {
        let mut f = self.lock_filter();
        let before = f.cutoff().cloned();
        f.insert_bucket(bucket);
        let after = f.cutoff().cloned();
        drop(f);
        if before != after {
            *self.published.write().unwrap_or_else(PoisonError::into_inner) = after;
            self.republishes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// A worker's view of the shared filter: a private [`HistogramBuilder`]
/// for its own runs, the shared queue for bucket insertion and cutoff
/// reads.
struct SharedObserver<K: SortKey> {
    shared: Arc<Shared<K>>,
    builder: HistogramBuilder<K>,
    policy: SizingPolicy,
    emit_tail: bool,
    spec: SortSpec,
    /// Gates spill-time elimination (Algorithm 1 line 11), as the shared
    /// filter's own setting does for the serial operator.
    spill_filter: bool,
}

impl<K: SortKey> SpillObserver<K> for SharedObserver<K> {
    fn run_started(&mut self, estimated_rows: u64) {
        self.builder.start_run(
            self.policy.width_for_run(estimated_rows.max(1)),
            self.policy.max_buckets_per_run(),
        );
    }
    fn should_eliminate(&mut self, key: &K) -> bool {
        if !self.spill_filter {
            return false;
        }
        let kill = self.shared.eliminate(key, &self.spec);
        if kill {
            self.shared.eliminated_spill.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        kill
    }
    fn row_spilled(&mut self, key: &K) {
        #[cfg(debug_assertions)]
        self.shared.lock_filter().shadow_spilled(key);
        if let Some(bucket) = self.builder.offer(key) {
            self.shared.insert_bucket(bucket);
        }
    }
    fn run_finished(&mut self) {
        if let Some(tail) = self.builder.finish_run(self.emit_tail) {
            self.shared.insert_bucket(tail);
        }
    }
}

struct WorkerOutput<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    residue: Vec<Vec<Row<K>>>,
    /// High-water mark of this worker's run-generation workspace.
    peak_bytes: usize,
}

/// Multi-threaded top-k sharing one histogram filter across workers.
pub struct ParallelTopK<K: SortKey> {
    spec: SortSpec,
    config: TopKConfig,
    backend: Arc<dyn StorageBackend>,
    /// The backend's modelled-I/O clock when this operator was built (see
    /// [`io_snapshot`]).
    modelled_at_build_ns: u64,
    stats: IoStats,
    shared: Arc<Shared<K>>,
    senders: Vec<SyncSender<Row<K>>>,
    handles: Vec<JoinHandle<Result<WorkerOutput<K>>>>,
    next_worker: usize,
    rows_in: u64,
    finished: bool,
    /// Gates Algorithm 1 line 4 ([`crate::FilterSites::input`]).
    input_filter: bool,
    /// Summed per-worker workspace high-water marks, known after `finish`.
    peak_bytes: usize,
    timer: PhaseTimer,
    final_merge_ns: Arc<AtomicU64>,
    /// Shared comparison counters: every worker's selection heap and the
    /// final merge flush into the same handle.
    cmp_stats: CmpStats,
    /// How the final merge ran.
    merged: MergeRecord,
}

impl<K: SortKey> ParallelTopK<K> {
    /// Spawns `threads` workers, each with `config.memory_budget` bytes of
    /// its own workspace, sharing `backend` and one cutoff filter.
    pub fn new(
        spec: SortSpec,
        config: TopKConfig,
        backend: impl StorageBackend + 'static,
        threads: usize,
    ) -> Result<Self> {
        Self::with_arc(spec, config, Arc::new(backend), threads)
    }

    /// As [`ParallelTopK::new`] with a shared backend.
    pub fn with_arc(
        spec: SortSpec,
        config: TopKConfig,
        backend: Arc<dyn StorageBackend>,
        threads: usize,
    ) -> Result<Self> {
        spec.validate()?;
        config.validate()?;
        if threads == 0 {
            return Err(Error::InvalidConfig("at least one worker thread required".into()));
        }
        if config.fold_op().is_some() {
            return Err(Error::InvalidConfig(
                "dedup/aggregate queries are not supported by the parallel operator".into(),
            ));
        }
        let stats = IoStats::new();
        // The same construction as the serial operator: honors the filter
        // sites, approx_slack, sizing and tail buckets. The workers'
        // observers take their settings from it.
        let filter: CutoffFilter<K> = filter_from_config(&spec, &config);
        let policy = filter.sizing();
        let emit_tail = filter.emits_tail();
        let spill_filter = filter.eliminates_at_spill();
        let input_filter = config.filter.input();
        let shared = Arc::new(Shared {
            filter: Mutex::new(filter),
            published: RwLock::new(None),
            eliminated_input: std::sync::atomic::AtomicU64::new(0),
            eliminated_spill: std::sync::atomic::AtomicU64::new(0),
            republishes: std::sync::atomic::AtomicU64::new(0),
        });

        let cmp_stats = CmpStats::new();

        // One pool for the whole operator, held by every worker's catalog:
        // spills and final-merge read-ahead contend for the same
        // `io_threads` workers.
        let io_scheduler = config.io_scheduler();
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = sync_channel::<Row<K>>(4096);
            let catalog = Arc::new(
                RunCatalog::new(
                    backend.clone(),
                    RunCatalog::<K>::unique_prefix("ptopk"),
                    spec.order,
                    stats.clone(),
                )
                .with_block_bytes(config.block_bytes)
                .with_io_scheduler(io_scheduler.clone()),
            );
            let worker_catalog = catalog.clone();
            let shared_for_worker = shared.clone();
            // Each worker charges its own counter; a shared lease handle
            // (if any) still governs every worker's limit.
            let budget = config.make_budget();
            let run_limit = if config.limit_run_size { Some(spec.retained()) } else { None };
            let residue_policy = config.residue;
            let worker_spec = spec;
            let worker_ovc = config.ovc_enabled;
            let worker_cmp_stats = cmp_stats.clone();
            let handle = std::thread::spawn(move || -> Result<WorkerOutput<K>> {
                let mut gen = ReplacementSelection::with_budget(worker_catalog.clone(), budget)
                    .with_ovc(worker_ovc, Some(worker_cmp_stats));
                if let Some(limit) = run_limit {
                    gen = gen.with_run_limit(limit);
                }
                let mut obs = SharedObserver {
                    shared: shared_for_worker.clone(),
                    builder: HistogramBuilder::new(),
                    policy,
                    emit_tail,
                    spec: worker_spec,
                    spill_filter,
                };
                let mut peak_bytes = 0usize;
                for row in rx {
                    // Re-check against the (possibly newer) published
                    // cutoff; rows were already screened by the pusher but
                    // the filter may have sharpened in flight.
                    if input_filter && shared_for_worker.eliminate(&row.key, &worker_spec) {
                        shared_for_worker
                            .eliminated_input
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        continue;
                    }
                    gen.push(row, &mut obs)?;
                    peak_bytes = peak_bytes.max(gen.buffered_bytes());
                }
                let residue = gen.finish(&mut obs, residue_policy)?;
                Ok(WorkerOutput { catalog: worker_catalog, residue, peak_bytes })
            });
            senders.push(tx);
            handles.push(handle);
        }

        Ok(ParallelTopK {
            spec,
            config,
            modelled_at_build_ns: backend.modelled_io_ns(),
            backend,
            stats,
            shared,
            senders,
            handles,
            next_worker: 0,
            rows_in: 0,
            finished: false,
            input_filter,
            peak_bytes: 0,
            timer: PhaseTimer::started(Phase::RunGeneration),
            final_merge_ns: Arc::new(AtomicU64::new(0)),
            cmp_stats,
            merged: MergeRecord::default(),
        })
    }

    fn merge_tuning(&self) -> MergeTuning {
        MergeTuning {
            ovc: self.config.ovc_enabled,
            stats: Some(self.cmp_stats.clone()),
            ..MergeTuning::default()
        }
    }

    /// Offers one row (round-robin across workers). Rows past the shared
    /// cutoff are dropped on the calling thread without a channel hop.
    pub fn push(&mut self, row: Row<K>) -> Result<()> {
        if self.finished {
            return Err(Error::InvalidConfig("push after finish".into()));
        }
        self.rows_in += 1;
        if self.input_filter && self.shared.eliminate(&row.key, &self.spec) {
            self.shared.eliminated_input.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Ok(());
        }
        let i = self.next_worker;
        self.next_worker = (self.next_worker + 1) % self.senders.len();
        self.senders[i]
            .send(row)
            .map_err(|_| Error::InvalidConfig("worker thread terminated early".into()))
    }

    /// The current shared cutoff key, if established.
    pub fn cutoff(&self) -> Option<K> {
        self.shared.read_published().clone()
    }

    /// Ends the input, joins the workers and merges all their runs and
    /// residues into the final output stream.
    pub fn finish(&mut self) -> Result<RowStream<K>> {
        if self.finished {
            return Err(Error::InvalidConfig("finish called twice".into()));
        }
        self.finished = true;
        self.senders.clear(); // closes the channels; workers drain and exit
        let mut outputs = Vec::with_capacity(self.handles.len());
        for handle in self.handles.drain(..) {
            let out = handle
                .join()
                .map_err(|_| Error::InvalidConfig("worker thread panicked".into()))??;
            self.peak_bytes += out.peak_bytes;
            outputs.push(out);
        }
        let cutoff = self.shared.lock_filter().cutoff().cloned();
        let inputs = outputs.into_iter().map(|out| (out.catalog, out.residue)).collect();
        // Each worker's catalog goes through its own cascade; the final
        // merge reads worker 0's runs and residue, then worker 1's, ...
        let stream = FinalMerge {
            fan_in: self.config.fan_in,
            tuning: self.merge_tuning(),
            limit: Some(self.spec.retained()),
            cutoff,
            // With approximation slack the filter proves fewer than
            // `retained` rows at or below its cutoff.
            clip_partitions: self.config.approx_slack == 0.0,
            threads: self.config.merge_threads,
            skip: 0,
        }
        .run(inputs)?;
        self.merged = MergeRecord::of(&stream);
        self.timer.stop();
        Ok(Box::new(TimedStream::new(
            SpecStream::new(stream, &self.spec),
            self.final_merge_ns.clone(),
        )))
    }

    /// Aggregated metrics.
    pub fn metrics(&self) -> OperatorMetrics {
        let filter = self.shared.lock_filter().metrics();
        let io = io_snapshot(&self.stats, self.backend.as_ref(), self.modelled_at_build_ns);
        let mut phases = self.timer.snapshot();
        phases.spill_write_ns = io.write_latency.total_ns;
        phases.final_merge_ns += self.final_merge_ns.load(Ordering::Relaxed);
        OperatorMetrics {
            rows_in: self.rows_in,
            eliminated_at_input: self
                .shared
                .eliminated_input
                .load(std::sync::atomic::Ordering::Relaxed),
            eliminated_at_spill: self
                .shared
                .eliminated_spill
                .load(std::sync::atomic::Ordering::Relaxed),
            io,
            filter,
            spilled: io.runs_created > 0,
            peak_memory_bytes: self.peak_bytes,
            early_merges: 0,
            cmp: self.cmp_stats.snapshot(),
            phases,
            merge_partitions: self.merged.partitions,
            partition_rows: self.merged.partition_rows(),
            cascade: self.merged.cascade,
            ..Default::default()
        }
    }
}

impl<K: SortKey> TopKOperator<K> for ParallelTopK<K> {
    fn push(&mut self, row: Row<K>) -> Result<()> {
        ParallelTopK::push(self, row)
    }

    fn finish(&mut self) -> Result<RowStream<K>> {
        ParallelTopK::finish(self)
    }

    fn metrics(&self) -> OperatorMetrics {
        ParallelTopK::metrics(self)
    }

    fn algorithm(&self) -> &'static str {
        "parallel-histogram-topk"
    }
}

impl<K: SortKey> Drop for ParallelTopK<K> {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterSites;
    use histok_storage::MemoryBackend;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn config(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap()
    }

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        keys
    }

    #[test]
    fn parallel_matches_serial_top_k() {
        let keys = shuffled(40_000, 20);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op: ParallelTopK<u64> = ParallelTopK::new(
            SortSpec::ascending(800),
            config(100 * row_bytes),
            MemoryBackend::new(),
            4,
        )
        .unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn shared_filter_eliminates_across_workers() {
        let keys = shuffled(60_000, 21);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op: ParallelTopK<u64> = ParallelTopK::new(
            SortSpec::ascending(1_000),
            config(150 * row_bytes),
            MemoryBackend::new(),
            3,
        )
        .unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let m_before = op.metrics();
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out.len(), 1_000);
        assert!(
            m_before.eliminated_at_input > 20_000,
            "shared cutoff should kill most input, eliminated {}",
            m_before.eliminated_at_input
        );
        assert!(m_before.io.rows_written < 40_000);
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let keys = shuffled(5_000, 22);
        let mut op: ParallelTopK<u64> =
            ParallelTopK::new(SortSpec::ascending(100), config(1 << 16), MemoryBackend::new(), 1)
                .unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(ParallelTopK::<u64>::new(
            SortSpec::ascending(1),
            config(1024),
            MemoryBackend::new(),
            0
        )
        .is_err());
    }

    #[test]
    fn finish_twice_errors_and_drop_joins() {
        let mut op: ParallelTopK<u64> =
            ParallelTopK::new(SortSpec::ascending(1), config(1024), MemoryBackend::new(), 2)
                .unwrap();
        op.push(Row::key_only(7)).unwrap();
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, vec![7]);
        assert!(op.finish().is_err());
        drop(op); // must not hang
    }

    #[test]
    fn filter_disabled_spills_like_a_plain_sort() {
        let keys = shuffled(20_000, 24);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(100 * row_bytes)
            .filter(FilterSites::Off)
            .block_bytes(1024)
            .build()
            .unwrap();
        let mut op: ParallelTopK<u64> =
            ParallelTopK::new(SortSpec::ascending(500), cfg, MemoryBackend::new(), 3).unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        let m = op.metrics();
        // With the filter off, (almost) every input row reaches storage —
        // before this was honored, the shared cutoff eliminated rows anyway.
        assert!(
            m.rows_spilled() > 18_000,
            "FilterSites::Off must spill like a plain sort, spilled {}",
            m.rows_spilled()
        );
        assert_eq!(m.eliminated_at_input, 0);
        assert_eq!(m.eliminated_at_spill, 0);
        assert_eq!(m.filter.buckets_inserted, 0);
    }

    #[test]
    fn approx_slack_establishes_the_cutoff_earlier() {
        // With slack ε the shared filter targets ⌈k(1−ε)⌉ rows, so fewer
        // buckets are needed before a cutoff exists and it sits tighter:
        // strictly fewer rows reach storage than in the exact run.
        let keys = shuffled(60_000, 25);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spilled = |slack: f64| -> u64 {
            let cfg = TopKConfig::builder()
                .memory_budget(150 * row_bytes)
                .approx_slack(slack)
                .block_bytes(1024)
                .build()
                .unwrap();
            let mut op: ParallelTopK<u64> =
                ParallelTopK::new(SortSpec::ascending(2_000), cfg, MemoryBackend::new(), 1)
                    .unwrap();
            for &k in &keys {
                op.push(Row::key_only(k)).unwrap();
            }
            let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
            assert_eq!(out.len(), 2_000);
            op.metrics().rows_spilled()
        };
        let exact = spilled(0.0);
        let approx = spilled(0.25);
        assert!(
            approx < exact,
            "slack 0.25 should spill fewer rows than exact ({approx} vs {exact})"
        );
    }

    #[test]
    fn peak_memory_aggregates_worker_workspaces() {
        let keys = shuffled(30_000, 26);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op: ParallelTopK<u64> = ParallelTopK::new(
            SortSpec::ascending(500),
            config(100 * row_bytes),
            MemoryBackend::new(),
            3,
        )
        .unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let _out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        let m = op.metrics();
        assert!(m.peak_memory_bytes > 0, "per-worker peaks must be aggregated");
        // Each worker respects its own budget; the sum cannot exceed
        // threads × (budget + one oversized row of headroom).
        assert!(m.peak_memory_bytes <= 3 * (100 * row_bytes + row_bytes));
        // Phase accounting: everything before finish is run generation.
        assert!(m.phases.run_generation_ns > 0);
        assert!(m.phases.final_merge_ns > 0);
        assert_eq!(m.phases.in_memory_ns, 0);
        assert_eq!(m.phases.spill_write_ns, m.io.write_latency.total_ns);
    }

    #[test]
    fn partitioned_final_merge_matches_serial() {
        let keys = shuffled(30_000, 27);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let run = |merge_threads: usize| {
            let cfg = TopKConfig::builder()
                .memory_budget(150 * row_bytes)
                .block_bytes(512)
                .merge_threads(merge_threads)
                .build()
                .unwrap();
            let mut op: ParallelTopK<u64> =
                ParallelTopK::new(SortSpec::ascending(5_000), cfg, MemoryBackend::new(), 2)
                    .unwrap();
            for &k in &keys {
                op.push(Row::key_only(k)).unwrap();
            }
            let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
            (out, op.metrics())
        };
        let (serial, m_serial) = run(1);
        let (parallel, m_parallel) = run(4);
        assert_eq!(serial, (0..5_000).collect::<Vec<_>>());
        assert_eq!(serial, parallel, "partitioning changed the output");
        assert_eq!(m_serial.merge_partitions, 1);
        assert!(m_parallel.merge_partitions >= 2, "final merge did not go parallel");
        assert_eq!(m_parallel.partition_rows.len() as u64, m_parallel.merge_partitions);
        assert!(m_parallel.partition_rows.iter().sum::<u64>() >= 5_000);
    }

    #[test]
    fn cutoff_republishes_only_when_it_moves() {
        use crate::histogram::Bucket;
        use std::sync::atomic::Ordering as AtomicOrdering;
        let shared: Shared<u64> = Shared {
            filter: Mutex::new(CutoffFilter::new(10, histok_types::SortOrder::Ascending)),
            published: RwLock::new(None),
            eliminated_input: std::sync::atomic::AtomicU64::new(0),
            eliminated_spill: std::sync::atomic::AtomicU64::new(0),
            republishes: std::sync::atomic::AtomicU64::new(0),
        };
        // First bucket proving k rows establishes (and publishes) the cutoff.
        shared.insert_bucket(Bucket::new(100u64, 10));
        assert_eq!(shared.republishes.load(AtomicOrdering::Relaxed), 1);
        assert_eq!(*shared.read_published(), Some(100));
        // Buckets entirely past the cutoff leave it unchanged; before the
        // republish-on-move fix every one of these took the write lock and
        // stalled concurrent elimination tests.
        for i in 0..100u64 {
            shared.insert_bucket(Bucket::new(1_000 + i, 5));
        }
        assert_eq!(
            shared.republishes.load(AtomicOrdering::Relaxed),
            1,
            "inserts that do not move the cutoff must not republish"
        );
        assert_eq!(*shared.read_published(), Some(100));
        // A tighter bucket moves the cutoff and republishes exactly once.
        shared.insert_bucket(Bucket::new(5u64, 10));
        assert_eq!(shared.republishes.load(AtomicOrdering::Relaxed), 2);
        assert_eq!(*shared.read_published(), Some(5));
    }

    #[test]
    fn descending_parallel() {
        let keys = shuffled(10_000, 23);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op: ParallelTopK<u64> = ParallelTopK::new(
            SortSpec::descending(200),
            config(80 * row_bytes),
            MemoryBackend::new(),
            2,
        )
        .unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (9_800..10_000).rev().collect::<Vec<_>>());
    }
}
