//! The optimized external-merge-sort top-k of [Graefe'08] — the paper's
//! baseline (§2.5, §5.1.3).
//!
//! Beyond the traditional algorithm it applies three optimizations:
//!
//! 1. **run size ≤ k** — no run ever needs more rows than the output;
//! 2. **kth-key filter** — once any single run holds `k` rows, its `k`th
//!    key is a valid cutoff for all further input;
//! 3. **early merge step** — when `k` exceeds a run (the paper's target
//!    regime), runs are merged early into an intermediate run of `k` rows
//!    whose last key becomes the cutoff.
//!
//! Compared to the histogram algorithm this establishes a cutoff *later*
//! (a full merge step must complete first), pays merge I/O to sharpen it,
//! and disrupts pipelined run generation — exactly the costs §3.2.1
//! quantifies ("our algorithm will write 12× less input rows compared to
//! the optimized external merge sort").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use histok_sort::run_gen::{ReplacementSelection, ResiduePolicy, RunGenerator};
use histok_sort::{merge_runs_to_new, CmpStats, FinalMerge, MergeTuning, SpillObserver};
use histok_storage::{IoScheduler, IoStats, RunCatalog, StorageBackend};
use histok_types::{Error, Phase, PhaseTimer, Result, Row, SortKey, SortOrder, SortSpec};

use crate::config::TopKConfig;
use crate::metrics::{io_snapshot, OperatorMetrics};
use crate::topk::{
    already_finished, MergeRecord, Offer, RetainedHeap, RowStream, SpecStream, TimedStream,
    TopKOperator,
};

/// Spill observer for the optimized baseline: kth-key sharpening plus
/// cutoff-based elimination (no histograms).
struct KthKeyObserver<K> {
    order: SortOrder,
    k: u64,
    cutoff: Option<K>,
    rows_in_run: u64,
    rows_spilled: u64,
    eliminated_at_spill: u64,
}

impl<K: SortKey> KthKeyObserver<K> {
    fn tighten(&mut self, key: &K) {
        let tighter = match &self.cutoff {
            Some(cur) => self.order.precedes(key, cur),
            None => true,
        };
        if tighter {
            self.cutoff = Some(key.clone());
        }
    }

    fn eliminate(&self, key: &K) -> bool {
        match &self.cutoff {
            Some(cut) => self.order.follows(key, cut),
            None => false,
        }
    }
}

impl<K: SortKey> SpillObserver<K> for KthKeyObserver<K> {
    fn run_started(&mut self, _estimated_rows: u64) {
        self.rows_in_run = 0;
    }

    fn should_eliminate(&mut self, key: &K) -> bool {
        let kill = self.eliminate(key);
        if kill {
            self.eliminated_at_spill += 1;
        }
        kill
    }

    fn row_spilled(&mut self, key: &K) {
        self.rows_in_run += 1;
        self.rows_spilled += 1;
        if self.rows_in_run == self.k {
            // A single run now proves k rows at or below `key`.
            self.tighten(key);
        }
    }

    fn cutoff_key(&mut self) -> Option<K> {
        // The kth-key rule is exactly "follows the cutoff"; batched run
        // generation may clip whole sorted buffers against it.
        self.cutoff.clone()
    }

    fn rows_clipped(&mut self, n: u64) {
        self.eliminated_at_spill += n;
    }
}

enum State<K: SortKey> {
    InMemory(RetainedHeap<K>),
    External(Box<External<K>>),
    Finished,
}

/// External-mode machinery, boxed to keep the `State` variants similar in
/// size.
struct External<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    gen: Box<dyn RunGenerator<K>>,
    obs: KthKeyObserver<K>,
}

/// The [Graefe'08] optimized external top-k.
pub struct OptimizedExternalTopK<K: SortKey> {
    spec: SortSpec,
    config: TopKConfig,
    backend: Arc<dyn StorageBackend>,
    /// The backend's modelled-I/O clock when this operator was built (see
    /// [`io_snapshot`]).
    modelled_at_build_ns: u64,
    stats: IoStats,
    state: State<K>,
    rows_in: u64,
    eliminated_at_input: u64,
    eliminated_at_spill_final: u64,
    peak_bytes: usize,
    spilled: bool,
    early_merges: u64,
    /// Re-derive the cutoff by another merge every time this many more rows
    /// have spilled; `None` (the default, per [Graefe'08]) merges once.
    resharpen_every: Option<u64>,
    spilled_at_last_merge: u64,
    timer: PhaseTimer,
    final_merge_ns: Arc<AtomicU64>,
    /// Shared comparison counters the sort structures flush into.
    cmp_stats: CmpStats,
    /// How the final merge ran.
    merged: MergeRecord,
    /// Shared background-I/O pool (`None` = inline I/O), built once from
    /// `config.io_threads` and handed to the run catalog, which moves every
    /// spill and merge input of this operator through it.
    io_scheduler: Option<IoScheduler>,
}

impl<K: SortKey> OptimizedExternalTopK<K> {
    /// Creates the operator.
    pub fn new(
        spec: SortSpec,
        config: TopKConfig,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        Self::with_arc(spec, config, Arc::new(backend))
    }

    /// As [`OptimizedExternalTopK::new`] with a shared backend handle.
    pub fn with_arc(
        spec: SortSpec,
        config: TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        spec.validate()?;
        config.validate()?;
        if config.fold_op().is_some() {
            return Err(Error::InvalidConfig(
                "dedup/aggregate queries are not supported by the optimized baseline".into(),
            ));
        }
        Ok(OptimizedExternalTopK {
            state: State::InMemory(RetainedHeap::new(spec.retained(), spec.order)),
            io_scheduler: config.io_scheduler(),
            spec,
            config,
            modelled_at_build_ns: backend.modelled_io_ns(),
            backend,
            stats: IoStats::new(),
            rows_in: 0,
            eliminated_at_input: 0,
            eliminated_at_spill_final: 0,
            peak_bytes: 0,
            spilled: false,
            early_merges: 0,
            resharpen_every: None,
            spilled_at_last_merge: 0,
            timer: PhaseTimer::started(Phase::InMemory),
            final_merge_ns: Arc::new(AtomicU64::new(0)),
            cmp_stats: CmpStats::new(),
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

    /// Enables periodic re-merging: after the first early merge, merge
    /// again whenever `rows` more rows have spilled (an ablation knob — a
    /// more generous baseline than [Graefe'08] prescribes).
    pub fn with_resharpen_every(mut self, rows: u64) -> Self {
        self.resharpen_every = Some(rows.max(1));
        self
    }

    /// The current cutoff key, if any.
    pub fn cutoff(&self) -> Option<K> {
        match &self.state {
            State::InMemory(heap) => heap.cutoff().cloned(),
            State::External(ext) => ext.obs.cutoff.clone(),
            State::Finished => None,
        }
    }

    fn switch_to_external(&mut self, rows: Vec<Row<K>>) -> Result<()> {
        self.timer.enter(Phase::RunGeneration);
        let catalog = Arc::new(
            RunCatalog::new(
                self.backend.clone(),
                RunCatalog::<K>::unique_prefix("opttopk"),
                self.spec.order,
                self.stats.clone(),
            )
            .with_block_bytes(self.config.block_bytes)
            .with_io_scheduler(self.io_scheduler.clone()),
        );
        // Replacement selection *defines* this baseline ([Graefe'08]).
        let mut gen = ReplacementSelection::with_budget(catalog.clone(), self.config.make_budget())
            .with_ovc(self.config.ovc_enabled, Some(self.cmp_stats.clone()));
        if self.config.limit_run_size {
            gen = gen.with_run_limit(self.spec.retained());
        }
        let mut gen: Box<dyn RunGenerator<K>> = Box::new(gen);
        let mut obs = KthKeyObserver {
            order: self.spec.order,
            k: self.spec.retained(),
            cutoff: None,
            rows_in_run: 0,
            rows_spilled: 0,
            eliminated_at_spill: 0,
        };
        for row in rows {
            gen.push(row, &mut obs)?;
        }
        self.state = State::External(Box::new(External { catalog, gen, obs }));
        self.spilled = true;
        Ok(())
    }

    /// The early merge step: combine all finished runs into one
    /// intermediate run of at most `k` rows; its last key is the cutoff.
    ///
    /// Triggered once `2k` rows have spilled: merging at exactly `k` rows
    /// would derive a cutoff near the maximum seen key (useless), whereas
    /// at `2k` the intermediate run's `k`th key sits near the median of the
    /// spilled keys — the paper's §3.2.1 account of this technique
    /// ("merging 10 initial runs [10 × 1000 rows, k = 5000] establishes a
    /// cutoff key able to eliminate ½ of the remaining input").
    fn maybe_early_merge(&mut self) -> Result<()> {
        let tuning = self.merge_tuning();
        let State::External(ext) = &mut self.state else { return Ok(()) };
        let External { catalog, obs, .. } = ext.as_mut();
        let k = self.spec.retained();
        let due = if obs.cutoff.is_none() {
            obs.rows_spilled >= 2 * k
        } else if let Some(every) = self.resharpen_every {
            obs.rows_spilled - self.spilled_at_last_merge >= every
        } else {
            false
        };
        if !due || catalog.len() < 2 {
            return Ok(());
        }
        let runs = catalog.runs();
        let merged = merge_runs_to_new(catalog, &runs, Some(k), obs.cutoff.as_ref(), &tuning)?;
        if merged.rows >= k {
            if let Some(last) = &merged.last_key {
                obs.tighten(last);
            }
        }
        self.early_merges += 1;
        self.spilled_at_last_merge = obs.rows_spilled;
        Ok(())
    }
}

impl<K: SortKey> TopKOperator<K> for OptimizedExternalTopK<K> {
    fn push(&mut self, row: Row<K>) -> Result<()> {
        self.rows_in += 1;
        match &mut self.state {
            State::InMemory(heap) => {
                let fp = histok_sort::row_footprint(&row);
                if !heap.is_full() && heap.bytes() + fp > self.config.effective_memory_budget() {
                    let rows = heap.drain_unordered();
                    self.switch_to_external(rows)?;
                    self.rows_in -= 1; // the recursive push counts it again
                    return self.push(row);
                }
                match heap.offer(row) {
                    Offer::Grew | Offer::Folded => {}
                    Offer::Displaced | Offer::Rejected => self.eliminated_at_input += 1,
                }
                self.peak_bytes = self.peak_bytes.max(heap.bytes());
                Ok(())
            }
            State::External(ext) => {
                if ext.obs.eliminate(&row.key) {
                    self.eliminated_at_input += 1;
                    return Ok(());
                }
                let External { gen, obs, .. } = ext.as_mut();
                gen.push(row, obs)?;
                self.peak_bytes = self.peak_bytes.max(ext.gen.buffered_bytes());
                self.maybe_early_merge()
            }
            State::Finished => Err(Error::InvalidConfig("push after finish".into())),
        }
    }

    fn finish(&mut self) -> Result<RowStream<K>> {
        match std::mem::replace(&mut self.state, State::Finished) {
            State::InMemory(heap) => {
                let rows = heap.into_sorted();
                self.timer.stop();
                Ok(Box::new(TimedStream::new(
                    SpecStream::new(rows.into_iter().map(Ok), &self.spec),
                    self.final_merge_ns.clone(),
                )))
            }
            State::External(ext) => {
                let External { catalog, mut gen, mut obs } = *ext;
                let residue = gen.finish(&mut obs, ResiduePolicy::KeepInMemory)?;
                self.eliminated_at_spill_final = obs.eliminated_at_spill;
                let stream = FinalMerge {
                    fan_in: self.config.fan_in,
                    tuning: self.merge_tuning(),
                    limit: Some(self.spec.retained()),
                    cutoff: obs.cutoff,
                    // The kth-key cutoff proves at least `retained` rows at
                    // or below it, so clipping the partition plan at it
                    // never loses an output row.
                    clip_partitions: true,
                    threads: self.config.merge_threads,
                    skip: 0,
                }
                .run(vec![(catalog, residue)])?;
                self.merged = MergeRecord::of(&stream);
                self.timer.stop();
                Ok(Box::new(TimedStream::new(
                    SpecStream::new(stream, &self.spec),
                    self.final_merge_ns.clone(),
                )))
            }
            State::Finished => already_finished("OptimizedExternalTopK"),
        }
    }

    fn metrics(&self) -> OperatorMetrics {
        let eliminated_at_spill = match &self.state {
            State::External(ext) => ext.obs.eliminated_at_spill,
            _ => self.eliminated_at_spill_final,
        };
        let io = io_snapshot(&self.stats, self.backend.as_ref(), self.modelled_at_build_ns);
        let mut phases = self.timer.snapshot();
        phases.spill_write_ns = io.write_latency.total_ns;
        phases.final_merge_ns += self.final_merge_ns.load(Ordering::Relaxed);
        OperatorMetrics {
            rows_in: self.rows_in,
            eliminated_at_input: self.eliminated_at_input,
            eliminated_at_spill,
            io,
            filter: Default::default(),
            spilled: self.spilled,
            peak_memory_bytes: self.peak_bytes,
            early_merges: self.early_merges,
            cmp: self.cmp_stats.snapshot(),
            phases,
            merge_partitions: self.merged.partitions,
            partition_rows: self.merged.partition_rows(),
            cascade: self.merged.cascade,
            ..Default::default()
        }
    }

    fn algorithm(&self) -> &'static str {
        "optimized-ems"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn run_op(spec: SortSpec, cfg: TopKConfig, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        let mut op = OptimizedExternalTopK::new(spec, cfg, MemoryBackend::new()).unwrap();
        for &k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    #[test]
    fn in_memory_when_k_fits() {
        let keys = shuffled(5_000, 1);
        let (out, m) = run_op(SortSpec::ascending(50), config(1 << 20), &keys);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert!(!m.spilled);
    }

    #[test]
    fn correct_when_k_exceeds_memory() {
        let keys = shuffled(40_000, 2);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
        assert!(m.spilled);
        assert!(m.early_merges >= 1, "early merge should have fired");
    }

    #[test]
    fn early_merge_establishes_a_filter() {
        let keys = shuffled(50_000, 3);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert_eq!(out.len(), 1_000);
        // After the early merge the cutoff eliminates most remaining input.
        assert!(m.eliminated_at_input > 10_000, "eliminated {}", m.eliminated_at_input);
        // But it still spills more than the histogram algorithm would —
        // verified cross-algorithm in the integration tests.
        assert!(m.rows_spilled() > 2_000);
    }

    #[test]
    fn spills_less_than_traditional() {
        let keys = shuffled(50_000, 4);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (_, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert!(
            m.rows_spilled() < 40_000,
            "optimized baseline spilled {} of 50k",
            m.rows_spilled()
        );
    }

    #[test]
    fn resharpening_reduces_spill_further() {
        let keys = shuffled(60_000, 5);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(1_000);

        let run_with = |resharpen: Option<u64>| {
            let mut op =
                OptimizedExternalTopK::new(spec, config(200 * row_bytes), MemoryBackend::new())
                    .unwrap();
            if let Some(every) = resharpen {
                op = op.with_resharpen_every(every);
            }
            for &k in &keys {
                op.push(Row::key_only(k)).unwrap();
            }
            let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
            assert_eq!(out, (0..1_000).collect::<Vec<_>>());
            op.metrics()
        };

        let single = run_with(None);
        let periodic = run_with(Some(1_000));
        assert!(periodic.early_merges > single.early_merges);
        // Fewer *run-generation* rows spilled thanks to the sharper filter
        // (total I/O may still be higher due to merge rewrites).
        assert!(periodic.eliminated_at_input >= single.eliminated_at_input);
    }

    #[test]
    fn descending_works() {
        let keys = shuffled(20_000, 6);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, _) = run_op(SortSpec::descending(500), config(100 * row_bytes), &keys);
        assert_eq!(out, (19_500..20_000).rev().collect::<Vec<_>>());
    }

    #[test]
    fn offset_supported() {
        let keys = shuffled(10_000, 7);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(50).with_offset(200);
        let (out, _) = run_op(spec, config(100 * row_bytes), &keys);
        assert_eq!(out, (200..250).collect::<Vec<_>>());
    }

    #[test]
    fn finish_twice_errors() {
        let mut op: OptimizedExternalTopK<u64> =
            OptimizedExternalTopK::new(SortSpec::ascending(1), config(1024), MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
    }
}
