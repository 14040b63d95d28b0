//! The paper's algorithm: adaptive top-k with histogram-guided filtering.
//!
//! While the requested output fits in the memory budget, this operator *is*
//! the in-memory priority-queue top-k (§2.3). The moment the retained rows
//! no longer fit, it switches to external mode: run generation spills
//! through a [`CutoffFilter`], which models the input with per-run
//! histograms and derives an ever-sharpening cutoff key. Rows are
//! eliminated twice — at operator input (Algorithm 1 line 4) and again at
//! spill time (line 11) — so most of the input never reaches secondary
//! storage even though `k` exceeds memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(test)]
use histok_sort::run_gen::ResiduePolicy;
use histok_sort::run_gen::{BatchSort, LoadSortStore, ReplacementSelection, RunGenerator};
use histok_sort::{CmpStats, FinalMerge, FoldSpec, FoldStats, MergeTuning};
use histok_storage::{IoScheduler, IoStats, RunCatalog, StorageBackend};
use histok_types::{Aggregator, Error, Phase, PhaseTimer, Result, Row, SortKey, SortSpec};

use crate::config::{RunGenKind, RunGenMode, TopKConfig};
use crate::cutoff::{CutoffFilter, DistinctVerdict, FilterMetrics};
use crate::metrics::{io_snapshot, OperatorMetrics};
use crate::topk::{
    already_finished, FoldedStore, MergeRecord, Offer, RetainedHeap, RowStream, SpecStream,
    TimedStream, TopKOperator,
};

/// The histogram-guided adaptive top-k operator (the paper's contribution).
///
/// ```
/// use histok_core::{HistogramTopK, TopKConfig, TopKOperator};
/// use histok_storage::MemoryBackend;
/// use histok_types::{Row, SortSpec};
///
/// // Top 100 of 10,000 shuffled keys with memory for ~50 rows.
/// let spec = SortSpec::ascending(100);
/// let config = TopKConfig::builder().memory_budget(50 * 64).build()?;
/// let mut op = HistogramTopK::new(spec, config, MemoryBackend::new())?;
/// for key in (0..10_000u64).rev() {
///     op.push(Row::key_only(key))?;
/// }
/// let out: Vec<u64> = op.finish()?.map(|r| r.map(|row| row.key)).collect::<Result<_, _>>()?;
/// assert_eq!(out, (0..100).collect::<Vec<_>>());
/// assert!(op.metrics().rows_spilled() < 10_000); // most rows never hit storage
/// # Ok::<(), histok_types::Error>(())
/// ```
pub struct HistogramTopK<K: SortKey> {
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
    /// Duplicates the distinct tracker folded away at operator input and
    /// their encoded bytes; `metrics` adds them to what `fold_stats` holds.
    folded_at_input: u64,
    bytes_folded_at_input: u64,
    peak_bytes: usize,
    /// Filter metrics frozen at finish time.
    final_filter: Option<FilterMetrics>,
    spilled: bool,
    /// Phase clock: one `Instant` pair per phase transition.
    timer: PhaseTimer,
    /// Final-merge nanoseconds, filled in by the [`TimedStream`] wrapper
    /// when the output stream is dropped.
    final_merge_ns: Arc<AtomicU64>,
    /// Shared comparison counters the sort structures flush into.
    cmp_stats: CmpStats,
    /// How the final merge ran.
    merged: MergeRecord,
    /// Shared background-I/O pool (`None` = inline I/O), built once from
    /// `config.io_threads` and handed to the run catalog, which moves every
    /// spill and merge input of this operator through it.
    io_scheduler: Option<IoScheduler>,
    /// Fold counters every pipeline component flushes into; zero unless
    /// the query runs in dedup/aggregate mode.
    fold_stats: FoldStats,
    /// The aggregator for fold mode (`None` = plain top-k).
    agg: Option<Arc<dyn Aggregator>>,
}

enum State<K: SortKey> {
    /// Phase 1: plain in-memory priority queue.
    InMemory(MemStore<K>),
    /// Phase 2: run generation guarded by the cutoff filter.
    External(Box<External<K>>),
    /// Output has been produced.
    Finished,
}

/// Phase-1 store: a plain retained heap, or the folding group store when
/// the query runs in dedup/aggregate mode.
enum MemStore<K: SortKey> {
    Heap(RetainedHeap<K>),
    Folded(FoldedStore<K>),
}

impl<K: SortKey> MemStore<K> {
    fn bytes(&self) -> usize {
        match self {
            MemStore::Heap(h) => h.bytes(),
            MemStore::Folded(f) => f.bytes(),
        }
    }

    fn is_full(&self) -> bool {
        match self {
            MemStore::Heap(h) => h.is_full(),
            MemStore::Folded(f) => f.is_full(),
        }
    }

    fn cutoff(&self) -> Option<&K> {
        match self {
            MemStore::Heap(h) => h.cutoff(),
            MemStore::Folded(f) => f.cutoff(),
        }
    }

    fn offer(&mut self, row: Row<K>) -> Offer {
        match self {
            MemStore::Heap(h) => h.offer(row),
            MemStore::Folded(f) => f.offer(row),
        }
    }

    fn drain_unordered(&mut self) -> Vec<Row<K>> {
        match self {
            MemStore::Heap(h) => h.drain_unordered(),
            MemStore::Folded(f) => f.drain_unordered(),
        }
    }

    fn into_sorted(self) -> Vec<Row<K>> {
        match self {
            MemStore::Heap(h) => h.into_sorted(),
            MemStore::Folded(f) => f.into_sorted(),
        }
    }
}

struct External<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    gen: Box<dyn RunGenerator<K>>,
    filter: CutoffFilter<K>,
}

impl<K: SortKey> HistogramTopK<K> {
    /// Creates the operator. `backend` receives any spilled runs.
    pub fn new(
        spec: SortSpec,
        config: TopKConfig,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        Self::with_arc(spec, config, Arc::new(backend))
    }

    /// As [`HistogramTopK::new`] with a shared backend handle.
    pub fn with_arc(
        spec: SortSpec,
        config: TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        spec.validate()?;
        config.validate()?;
        let fold_stats = FoldStats::new();
        let agg = config.fold_op().map(|op| op.aggregator());
        let store = match &agg {
            Some(a) => MemStore::Folded(FoldedStore::new(
                spec.retained(),
                spec.order,
                a.clone(),
                fold_stats.clone(),
            )),
            None => MemStore::Heap(RetainedHeap::new(spec.retained(), spec.order)),
        };
        Ok(HistogramTopK {
            state: State::InMemory(store),
            io_scheduler: config.io_scheduler(),
            fold_stats,
            agg,
            spec,
            config,
            modelled_at_build_ns: backend.modelled_io_ns(),
            backend,
            stats: IoStats::new(),
            rows_in: 0,
            eliminated_at_input: 0,
            folded_at_input: 0,
            bytes_folded_at_input: 0,
            peak_bytes: 0,
            final_filter: None,
            spilled: false,
            timer: PhaseTimer::started(Phase::InMemory),
            final_merge_ns: Arc::new(AtomicU64::new(0)),
            cmp_stats: CmpStats::new(),
            merged: MergeRecord::default(),
        })
    }

    /// The current cutoff key: the in-memory queue's worst retained key, or
    /// the histogram-derived cutoff once external.
    pub fn cutoff(&self) -> Option<K> {
        match &self.state {
            State::InMemory(store) => store.cutoff().cloned(),
            State::External(ext) => ext.filter.cutoff().cloned(),
            State::Finished => None,
        }
    }

    /// True once the operator has switched to external mode.
    pub fn is_external(&self) -> bool {
        matches!(self.state, State::External(_))
    }

    /// The operator's I/O counters.
    pub fn io_stats(&self) -> &IoStats {
        &self.stats
    }

    fn build_filter(&self) -> CutoffFilter<K> {
        crate::cutoff::filter_from_config(&self.spec, &self.config)
    }

    /// The fold instruction every sort component receives in fold mode:
    /// the aggregator plus the shared counters.
    fn fold_spec(&self) -> Option<FoldSpec> {
        self.agg.as_ref().map(|a| FoldSpec::new(a.clone()).with_stats(self.fold_stats.clone()))
    }

    fn merge_tuning(&self) -> MergeTuning {
        MergeTuning {
            ovc: self.config.ovc_enabled,
            stats: Some(self.cmp_stats.clone()),
            batch_rows: self.config.batch_rows,
            fold: self.fold_spec(),
        }
    }

    fn build_generator(&self, catalog: Arc<RunCatalog<K>>) -> Box<dyn RunGenerator<K>> {
        let batched = match self.config.run_gen_mode {
            RunGenMode::Batch => true,
            RunGenMode::Comparison => false,
            // Radix batching is a faster load-sort-store with identical
            // run shapes; replacement selection's run shape *is* its
            // strategy, so Adaptive leaves it alone.
            RunGenMode::Adaptive => {
                K::norm_prefix_is_exact() && self.config.run_generation == RunGenKind::LoadSortStore
            }
        };
        // Lease-aware budgets: when the config carries a `budget_lease`,
        // every generator reads its limit through the shared handle, so an
        // admission controller can resize a running query's workspace.
        let mut gen: Box<dyn RunGenerator<K>> = if batched {
            Box::new(BatchSort::with_budget(catalog, self.config.make_budget()))
        } else {
            match self.config.run_generation {
                RunGenKind::ReplacementSelection => {
                    let mut gen =
                        ReplacementSelection::with_budget(catalog, self.config.make_budget())
                            .with_ovc(self.config.ovc_enabled, Some(self.cmp_stats.clone()));
                    if self.config.limit_run_size {
                        gen = gen.with_run_limit(self.spec.retained());
                    }
                    Box::new(gen)
                }
                RunGenKind::LoadSortStore => {
                    Box::new(LoadSortStore::with_budget(catalog, self.config.make_budget()))
                }
            }
        };
        // Fold mode: duplicates collapse inside run generation where the
        // generator supports it; generators that ignore the hint still
        // yield deduplicated output because every merge duel folds too.
        gen.set_fold(self.fold_spec());
        gen
    }

    /// Leaves phase 1: every retained row re-enters through run generation.
    fn switch_to_external(&mut self, heap_rows: Vec<Row<K>>) -> Result<()> {
        self.timer.enter(Phase::RunGeneration);
        let catalog = Arc::new(
            RunCatalog::new(
                self.backend.clone(),
                RunCatalog::<K>::unique_prefix("htopk"),
                self.spec.order,
                self.stats.clone(),
            )
            .with_block_bytes(self.config.block_bytes)
            .with_io_scheduler(self.io_scheduler.clone()),
        );
        let gen = self.build_generator(catalog.clone());
        let filter = self.build_filter();
        let mut ext = Box::new(External { catalog, gen, filter });
        // In dedup mode the re-entering rows (distinct by construction)
        // seed the distinct tracker, so the cutoff is established before
        // the first external-phase row arrives. `observe_input` is a no-op
        // outside distinct mode.
        let seed_distinct = self.config.filter_enabled && self.config.input_filter;
        for row in heap_rows {
            if seed_distinct && ext.filter.observe_input(&row.key) == DistinctVerdict::Worse {
                // The store retained more groups than the (slack-reduced)
                // filter target; groups past the target are already out.
                self.eliminated_at_input += 1;
                continue;
            }
            ext.gen.push(row, &mut ext.filter)?;
        }
        self.state = State::External(ext);
        self.spilled = true;
        Ok(())
    }

    /// Phase 1 only: a full store that variable-size rows grew past the
    /// budget (§2.3's robustness hazard), or whose lease shrank below it,
    /// spills adaptively instead of failing.
    fn spill_if_over_budget(&mut self) -> Result<()> {
        if let State::InMemory(store) = &mut self.state {
            if store.is_full() && store.bytes() > self.config.effective_memory_budget() {
                let rows = store.drain_unordered();
                self.switch_to_external(rows)?;
            }
        }
        Ok(())
    }

    /// The phase-2 input filter (Algorithm 1 line 4): false when `row` ends
    /// here, counted. It reads the key (and, for a folded duplicate, the
    /// row's size) and nothing else, so it runs ahead of `agg.init`.
    fn survives_input(&mut self, row: &Row<K>) -> bool {
        let State::External(ext) = &mut self.state else { unreachable!() };
        if !(self.config.filter_enabled && self.config.input_filter) {
            return true;
        }
        if ext.filter.distinct_mode() {
            // Dedup mode (line 4 adapted to DISTINCT): a duplicate of a
            // tracked key folds into nothing — its representative is in the
            // pipeline; its bytes are the raw row's, which FIRST's identity
            // `init` makes the accumulator's — and a key strictly worse than
            // `retained` known distinct keys dies.
            debug_assert_eq!(self.config.fold_op(), Some(histok_types::AggregateOp::First));
            match ext.filter.observe_input(&row.key) {
                DistinctVerdict::Admit => return true,
                DistinctVerdict::Duplicate => {
                    self.folded_at_input += 1;
                    self.bytes_folded_at_input += row.encoded_len() as u64;
                }
                DistinctVerdict::Worse => self.eliminated_at_input += 1,
            }
            return false;
        }
        // Value aggregates (`agg` set, not distinct mode): no input
        // elimination — every duplicate must reach its group's accumulator
        // (DESIGN.md §14).
        let eliminated = self.agg.is_none() && ext.filter.eliminate(&row.key);
        self.eliminated_at_input += u64::from(eliminated);
        !eliminated
    }

    /// A row that passed the input filter enters run generation, as an
    /// accumulator.
    fn admit_external(&mut self, row: Row<K>) -> Result<()> {
        let State::External(ext) = &mut self.state else { unreachable!() };
        ext.gen.push(row, &mut ext.filter)?;
        self.peak_bytes = self.peak_bytes.max(ext.gen.buffered_bytes());
        Ok(())
    }
}

/// Operator boundary: in fold mode the raw payload becomes an accumulator
/// exactly once per input row that is kept. Rows re-entering run generation
/// at the external switch are already accumulators and bypass this.
fn accumulator<K: SortKey>(agg: &Option<Arc<dyn Aggregator>>, row: Row<K>) -> Row<K> {
    match agg {
        Some(agg) => Row { payload: agg.init(row.payload), key: row.key },
        None => row,
    }
}

impl<K: SortKey> TopKOperator<K> for HistogramTopK<K> {
    fn push(&mut self, row: Row<K>) -> Result<()> {
        self.rows_in += 1;
        match &mut self.state {
            State::InMemory(store) => {
                let row = accumulator(&self.agg, row);
                let fp = histok_sort::row_footprint(&row);
                if !store.is_full() && store.bytes() + fp > self.config.effective_memory_budget() {
                    // The output no longer fits: activate run generation.
                    let rows = store.drain_unordered();
                    self.switch_to_external(rows)?;
                    if !self.survives_input(&row) {
                        return Ok(());
                    }
                    return self.admit_external(row);
                }
                match store.offer(row) {
                    Offer::Grew | Offer::Folded => {}
                    Offer::Displaced | Offer::Rejected => self.eliminated_at_input += 1,
                }
                self.peak_bytes = self.peak_bytes.max(store.bytes());
                self.spill_if_over_budget()
            }
            State::External(_) => {
                if !self.survives_input(&row) {
                    return Ok(());
                }
                self.admit_external(accumulator(&self.agg, row))
            }
            State::Finished => Err(Error::InvalidConfig("push after finish".into())),
        }
    }

    /// As `push` row by row, with the cutoff test (Algorithm 1 line 4)
    /// ahead of all per-row bookkeeping: a row a full phase-1 heap rejects,
    /// the phase-2 filter eliminates, or the distinct tracker has seen
    /// before is counted and dropped on one key compare or probe; only
    /// survivors reach the `push` body (DESIGN.md §10).
    ///
    /// One stated difference: `push` re-reads the `budget_lease` after
    /// every row, a rejected row skips that read, so a lease shrunk below
    /// the retained bytes while every row is being rejected switches the
    /// operator to external mode at the end of the batch, not on the next
    /// row.
    fn push_batch(&mut self, rows: &mut Vec<Row<K>>) -> Result<()> {
        let filtering = self.config.filter_enabled && self.config.input_filter;
        // Phase-2 dedup: `push`'s external arm per row, in arrival order,
        // minus the call and state matches (−6.5 % `zipf_dedup` `query_s`,
        // DESIGN.md §10). Decided once: phase 2 lasts until `finish`.
        if filtering && matches!(&self.state, State::External(ext) if ext.filter.distinct_mode()) {
            for row in rows.drain(..) {
                self.rows_in += 1;
                if self.survives_input(&row) {
                    self.admit_external(accumulator(&self.agg, row))?;
                }
            }
            return Ok(());
        }
        // Value aggregates eliminate nothing at input (see `survives_input`)
        // and go through `push`, as does dedup while it is in phase 1.
        let filter_input = filtering && self.agg.is_none();
        for row in rows.drain(..) {
            // The cutoff test alone, where the key decides the row's fate.
            let verdict = match &self.state {
                State::InMemory(MemStore::Heap(heap)) if heap.rejects(&row.key) => Some(true),
                State::External(ext) if filter_input => Some(ext.filter.eliminate(&row.key)),
                _ => None,
            };
            let Some(eliminated) = verdict else {
                self.push(row)?;
                continue;
            };
            self.rows_in += 1;
            if eliminated {
                self.eliminated_at_input += 1;
            } else {
                // A phase-2 survivor is not tested a second time.
                self.admit_external(row)?;
            }
        }
        self.spill_if_over_budget()
    }

    fn finish(&mut self) -> Result<RowStream<K>> {
        match std::mem::replace(&mut self.state, State::Finished) {
            State::InMemory(store) => {
                let rows = store.into_sorted();
                self.timer.stop();
                Ok(Box::new(TimedStream::new(
                    SpecStream::new(rows.into_iter().map(Ok), &self.spec),
                    self.final_merge_ns.clone(),
                )))
            }
            State::External(mut ext) => {
                let residue = ext.gen.finish(&mut ext.filter, self.config.residue)?;
                self.final_filter = Some(ext.filter.metrics());
                let stream = FinalMerge {
                    config: self.config.merge,
                    tuning: self.merge_tuning(),
                    limit: Some(self.spec.retained()),
                    cutoff: ext.filter.cutoff().cloned(),
                    // With slack the serial merge may emit rows past the
                    // cutoff, and the partitioned one must match it.
                    clip_partitions: self.config.approx_slack == 0.0,
                    threads: self.config.merge_threads,
                    // §4.1: an OFFSET clause lets the merge start partway
                    // in. In fold mode the offset counts output *groups*
                    // while block row counts predate folding, so nothing
                    // is skipped (SpecStream skips folded rows instead).
                    skip: if self.agg.is_some() { 0 } else { self.spec.offset },
                }
                .run(vec![(ext.catalog, residue)])?;
                self.merged = MergeRecord::of(&stream);
                let mut spec = self.spec;
                spec.offset -= stream.skipped();
                // Residue spilling in `gen.finish` above still counted as
                // run generation; everything from here until the stream is
                // dropped is the final merge.
                self.timer.stop();
                Ok(Box::new(TimedStream::new(
                    SpecStream::new(stream, &spec),
                    self.final_merge_ns.clone(),
                )))
            }
            State::Finished => already_finished("HistogramTopK"),
        }
    }

    fn metrics(&self) -> OperatorMetrics {
        let filter = match (&self.state, self.final_filter) {
            (State::External(ext), _) => ext.filter.metrics(),
            (_, Some(m)) => m,
            _ => FilterMetrics::default(),
        };
        let io = io_snapshot(&self.stats, self.backend.as_ref(), self.modelled_at_build_ns);
        let mut phases = self.timer.snapshot();
        phases.spill_write_ns = io.write_latency.total_ns;
        phases.final_merge_ns += self.final_merge_ns.load(Ordering::Relaxed);
        let fold = self.fold_stats.snapshot();
        OperatorMetrics {
            rows_in: self.rows_in,
            eliminated_at_input: self.eliminated_at_input,
            eliminated_at_spill: filter.eliminated_at_spill,
            io,
            filter,
            spilled: self.spilled,
            peak_memory_bytes: self.peak_bytes,
            early_merges: 0,
            cmp: self.cmp_stats.snapshot(),
            phases,
            merge_partitions: self.merged.partitions,
            partition_rows: self.merged.partition_rows(),
            cascade: self.merged.cascade,
            queued_ns: 0,
            rows_folded: fold.rows_folded + self.folded_at_input,
            bytes_folded_pre_spill: fold.bytes_folded_pre_spill + self.bytes_folded_at_input,
        }
    }

    fn algorithm(&self) -> &'static str {
        "histogram-topk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    fn config(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap()
    }

    fn run_op(spec: SortSpec, cfg: TopKConfig, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        let mut op = HistogramTopK::new(spec, cfg, MemoryBackend::new()).unwrap();
        for &k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        keys
    }

    #[test]
    fn stays_in_memory_when_k_fits() {
        let keys = shuffled(10_000, 1);
        let (out, m) = run_op(SortSpec::ascending(100), config(1 << 20), &keys);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(!m.spilled);
        assert_eq!(m.rows_spilled(), 0);
        assert_eq!(m.eliminated_at_input, 10_000 - 100);
    }

    #[test]
    fn exact_top_k_when_output_exceeds_memory() {
        // k = 1000, memory for ~200 rows: must spill but stay correct.
        let keys = shuffled(50_000, 2);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1000), config(200 * row_bytes), &keys);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        assert!(m.spilled);
        assert!(m.rows_spilled() > 0);
    }

    #[test]
    fn filters_most_of_a_large_input() {
        // The headline property: spilled rows ≪ input rows.
        let keys = shuffled(100_000, 3);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(2_000), config(400 * row_bytes), &keys);
        assert_eq!(out, (0..2_000).collect::<Vec<_>>());
        assert!(
            m.rows_spilled() < 25_000,
            "expected heavy filtering, spilled {} of 100k",
            m.rows_spilled()
        );
        assert!(m.eliminated_at_input > 50_000);
        assert!(m.filter.refinements > 0);
    }

    #[test]
    fn descending_queries_work_externally() {
        let keys = shuffled(20_000, 4);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::descending(500), config(100 * row_bytes), &keys);
        assert_eq!(out, (19_500..20_000).rev().collect::<Vec<_>>());
        assert!(m.spilled);
    }

    #[test]
    fn offset_beyond_memory() {
        let keys = shuffled(20_000, 5);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(100).with_offset(400);
        let (out, m) = run_op(spec, config(100 * row_bytes), &keys);
        assert_eq!(out, (400..500).collect::<Vec<_>>());
        assert!(m.spilled);
    }

    #[test]
    fn duplicates_at_the_cutoff_are_preserved() {
        // 500 copies each of keys 0..100; top 750 must contain key 1 250
        // times exactly (500×key0 + 250×key1).
        let mut keys = Vec::new();
        for k in 0..100u64 {
            keys.extend(std::iter::repeat_n(k, 500));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(6));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, _) = run_op(SortSpec::ascending(750), config(100 * row_bytes), &keys);
        assert_eq!(out.len(), 750);
        assert_eq!(out.iter().filter(|&&k| k == 0).count(), 500);
        assert_eq!(out.iter().filter(|&&k| k == 1).count(), 250);
    }

    #[test]
    fn load_sort_store_mode_matches() {
        let keys = shuffled(30_000, 7);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(150 * row_bytes)
            .run_generation(RunGenKind::LoadSortStore)
            .block_bytes(1024)
            .build()
            .unwrap();
        let (out, m) = run_op(SortSpec::ascending(600), cfg, &keys);
        assert_eq!(out, (0..600).collect::<Vec<_>>());
        assert!(m.rows_spilled() < 30_000);
    }

    #[test]
    fn filter_disabled_spills_like_a_plain_sort() {
        let keys = shuffled(20_000, 8);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(100 * row_bytes)
            .filter_enabled(false)
            .block_bytes(1024)
            .build()
            .unwrap();
        let (out, m) = run_op(SortSpec::ascending(500), cfg, &keys);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        // Without the filter, (almost) the whole input reaches storage.
        assert!(m.rows_spilled() > 18_000);
        assert_eq!(m.eliminated_at_input, 0);
        assert_eq!(m.filter.buckets_inserted, 0);
    }

    #[test]
    fn variable_sized_rows_do_not_break_the_budget() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = SortSpec::ascending(200);
        let cfg = config(32 * 1024);
        let mut op = HistogramTopK::new(spec, cfg, MemoryBackend::new()).unwrap();
        let mut keys = Vec::new();
        for _ in 0..5_000u64 {
            let k: u64 = rng.gen_range(0..1_000_000);
            let payload = vec![0u8; rng.gen_range(0..400)];
            keys.push(k);
            op.push(Row::new(k, payload)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        keys.sort_unstable();
        assert_eq!(out, keys[..200].to_vec());
    }

    #[test]
    fn cutoff_is_visible_and_tightens() {
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op: HistogramTopK<u64> = HistogramTopK::new(
            SortSpec::ascending(300),
            config(50 * row_bytes),
            MemoryBackend::new(),
        )
        .unwrap();
        let keys = shuffled(30_000, 10);
        let mut last_cutoff: Option<u64> = None;
        for (i, &k) in keys.iter().enumerate() {
            op.push(Row::key_only(k)).unwrap();
            if i % 1000 == 0 && op.is_external() {
                if let (Some(prev), Some(cur)) = (last_cutoff, op.cutoff()) {
                    assert!(cur <= prev, "cutoff loosened: {prev} -> {cur}");
                }
                last_cutoff = op.cutoff();
            }
        }
        assert!(op.is_external());
        assert!(op.cutoff().is_some());
        let _ = op.finish().unwrap();
    }

    #[test]
    fn push_and_finish_after_finish_error() {
        let mut op: HistogramTopK<u64> =
            HistogramTopK::new(SortSpec::ascending(10), config(1 << 20), MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
        assert!(op.push(Row::key_only(1)).is_err());
    }

    #[test]
    fn spill_to_runs_residue_policy_matches_analysis_accounting() {
        let keys = shuffled(10_000, 11);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(100 * row_bytes)
            .residue(ResiduePolicy::SpillToRuns)
            .block_bytes(1024)
            .build()
            .unwrap();
        let (out, m) = run_op(SortSpec::ascending(300), cfg, &keys);
        assert_eq!(out, (0..300).collect::<Vec<_>>());
        // Everything that survived filtering is in runs; the final merge
        // reads it back.
        assert!(m.io.rows_read >= 300);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, m) = run_op(SortSpec::ascending(10), config(1024), &[]);
        assert!(out.is_empty());
        assert_eq!(m.rows_in, 0);
    }

    #[test]
    fn phase_timings_cover_all_three_phases() {
        let keys = shuffled(20_000, 13);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let mut op = HistogramTopK::new(
            SortSpec::ascending(500),
            config(100 * row_bytes),
            MemoryBackend::new(),
        )
        .unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        {
            let stream = op.finish().unwrap();
            let out: Vec<u64> = stream.map(|r| r.unwrap().key).collect();
            assert_eq!(out, (0..500).collect::<Vec<_>>());
        } // stream dropped: final-merge time recorded
        let m = op.metrics();
        assert!(m.phases.in_memory_ns > 0, "in-memory phase not timed");
        assert!(m.phases.run_generation_ns > 0, "run generation not timed");
        assert!(m.phases.final_merge_ns > 0, "final merge not timed");
        // Spill writes were timed request-by-request.
        assert_eq!(m.io.write_latency.count, m.io.write_ops);
        assert!(m.io.read_latency.count > 0);
        assert_eq!(m.phases.spill_write_ns, m.io.write_latency.total_ns);
    }

    #[test]
    fn in_memory_runs_report_no_external_phases() {
        let keys = shuffled(5_000, 14);
        let (_, m) = run_op(SortSpec::ascending(100), config(1 << 20), &keys);
        assert!(m.phases.in_memory_ns > 0);
        assert_eq!(m.phases.run_generation_ns, 0);
        assert_eq!(m.phases.spill_write_ns, 0);
    }

    #[test]
    fn input_exactly_k() {
        let keys = shuffled(500, 12);
        let (out, _) = run_op(SortSpec::ascending(500), config(1 << 20), &keys);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    /// A lease shrunk below the retained bytes while the heap is full and
    /// every arriving row is rejected must still move the operator to
    /// external mode: on the next row through `push`, within the batch
    /// through `push_batch`.
    #[test]
    fn lease_revoked_while_every_row_is_rejected_still_spills() {
        for batched in [false, true] {
            let lease = histok_sort::BudgetHandle::new(1 << 20);
            let cfg = TopKConfig::builder()
                .memory_budget(1 << 20)
                .budget_lease(lease.clone())
                .block_bytes(1024)
                .build()
                .unwrap();
            let mut op: HistogramTopK<u64> =
                HistogramTopK::new(SortSpec::ascending(100), cfg, MemoryBackend::new()).unwrap();
            let feed = |op: &mut HistogramTopK<u64>, keys: std::ops::Range<u64>| {
                let mut rows: Vec<Row<u64>> = keys.map(Row::key_only).collect();
                if batched {
                    op.push_batch(&mut rows).unwrap();
                } else {
                    rows.drain(..).for_each(|row| op.push(row).unwrap());
                }
            };
            feed(&mut op, 0..100);
            // Full heap, roomy lease: rejected rows change nothing.
            feed(&mut op, 1_000..1_256);
            assert!(!op.is_external(), "batched={batched}");
            // The server takes the lease back; only rejected rows follow.
            lease.set_limit(64);
            let next = if batched { 2_000..2_256 } else { 2_000..2_001 };
            feed(&mut op, next.clone());
            assert!(op.is_external(), "batched={batched}: revoked lease ignored");
            let m = op.metrics();
            assert_eq!(m.rows_in, 356 + (next.end - next.start));
            assert_eq!(m.eliminated_at_input, m.rows_in - 100);
            let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
            assert_eq!(out, (0..100).collect::<Vec<_>>());
        }
    }

    fn dedup_config(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).dedup(true).build().unwrap()
    }

    #[test]
    fn dedup_external_returns_distinct_keys_and_folds() {
        // 40 copies each of keys 0..500; DISTINCT top-300 must return 300
        // *distinct* keys, where the plain query returns 40 copies apiece.
        let mut keys = Vec::new();
        for k in 0..500u64 {
            keys.extend(std::iter::repeat_n(k, 40));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(31));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(300), dedup_config(100 * row_bytes), &keys);
        assert_eq!(out, (0..300).collect::<Vec<_>>());
        assert!(m.spilled);
        assert!(m.rows_folded > 0);
        // The distinct tracker absorbs duplicates of retained groups and
        // eliminates worse groups before they reach storage.
        assert!(
            m.rows_spilled() < 2_000,
            "dedup spilled {} of {} input rows",
            m.rows_spilled(),
            keys.len()
        );
        // Same spec without dedup keeps whole duplicate groups instead.
        let (plain, _) = run_op(SortSpec::ascending(300), config(100 * row_bytes), &keys);
        let distinct: std::collections::BTreeSet<u64> = plain.iter().copied().collect();
        assert!(distinct.len() <= 8, "plain top-300 covers ~8 duplicate groups");
    }

    #[test]
    fn dedup_in_memory_folds_without_spilling() {
        // 20 copies each of 0..100 with a generous budget: the folded
        // store handles DISTINCT entirely in memory.
        let mut keys: Vec<u64> = (0..2_000).map(|i| i % 100).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(32));
        let (out, m) = run_op(SortSpec::ascending(50), dedup_config(1 << 20), &keys);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert!(!m.spilled);
        assert_eq!(m.rows_spilled(), 0);
        assert!(m.rows_folded > 0);
    }

    #[test]
    fn dedup_offset_counts_groups_not_rows() {
        // OFFSET pages over *distinct* keys; exercises the fast-skip
        // gating (block row counts predate folding, so offsets must be
        // applied to the folded stream).
        let mut keys = Vec::new();
        for k in 0..400u64 {
            keys.extend(std::iter::repeat_n(k, 15));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(33));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(50).with_offset(100);
        let (out, m) = run_op(spec, dedup_config(60 * row_bytes), &keys);
        assert_eq!(out, (100..150).collect::<Vec<_>>());
        assert!(m.spilled);
    }

    #[test]
    fn aggregate_count_externally_matches_per_group_counts() {
        // COUNT per group with 7 copies of each key; value aggregates get
        // no pre-aggregation filtering, so every row flows through the
        // fold pipeline and each surviving group carries its exact count.
        let mut keys = Vec::new();
        for k in 0..200u64 {
            keys.extend(std::iter::repeat_n(k, 7));
        }
        keys.shuffle(&mut StdRng::seed_from_u64(34));
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(60 * row_bytes)
            .block_bytes(1024)
            .aggregate(histok_types::AggregateOp::Count)
            .build()
            .unwrap();
        let mut op =
            HistogramTopK::new(SortSpec::ascending(100), cfg, MemoryBackend::new()).unwrap();
        for &k in &keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<(u64, u64)> = op
            .finish()
            .unwrap()
            .map(|r| {
                let r = r.unwrap();
                (r.key, histok_types::decode_count(&r.payload))
            })
            .collect();
        assert_eq!(out, (0..100).map(|k| (k, 7)).collect::<Vec<_>>());
        let m = op.metrics();
        assert!(m.spilled);
        assert!(m.rows_folded > 0);
        assert_eq!(m.eliminated_at_input, 0, "no input elimination under value aggregation");
    }
}
