//! The top-k operator: the paper's algorithm, and its baselines as recipes.
//!
//! While the requested output fits in the memory budget, this operator *is*
//! the in-memory priority-queue top-k (§2.3). The moment the retained rows
//! no longer fit, it switches to external mode: run generation spills
//! through a [`CutoffFilter`], which models the input with per-run
//! histograms and derives an ever-sharpening cutoff key. Rows are
//! eliminated twice — at operator input (Algorithm 1 line 4) and again at
//! spill time (line 11) — so most of the input never reaches secondary
//! storage even though `k` exceeds memory.
//!
//! The paper's baselines run on the same phases and differ only in where
//! the cutoff comes from ([`RecipeKind`], DESIGN.md §5).
//!
//! Externally, run generation moves to a worker thread if a slot is free
//! ([`live_rungen_workers`]). The query thread tests input on the worker's
//! last cutoff, the worker every row again on the exact one and, in dedup
//! mode, against the distinct tracker, so runs, cutoffs and counters stay
//! the single thread's (DESIGN.md §10).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use histok_sort::run_gen::{BatchSort, ReplacementSelection, ResiduePolicy, RunGenerator};
use histok_sort::{CmpStats, FinalMerge, FoldSpec, FoldStats, MergeTuning};
use histok_storage::{IoScheduler, IoStats, RunCatalog, StorageBackend};
use histok_types::{Aggregator, Error, Phase, PhaseTimer, Result, Row, SortKey, SortSpec};

use crate::config::{FilterSites, RunGenKind, TopKConfig};
use crate::cutoff::{Cutoff, CutoffFilter, DistinctVerdict, FilterMetrics};
use crate::metrics::{io_snapshot, OperatorMetrics};
use crate::sizing::SizingPolicy;
use crate::topk::optimized::EarlyMerge;
use crate::topk::{
    FoldedStore, MergeRecord, Offer, RetainedHeap, RowStream, SpecStream, TimedStream, TopKOperator,
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
pub type HistogramTopK<K> = TopK<K, Histogram>;

/// The top-k operator. Its recipe `R` is one of the paper's algorithms —
/// [`HistogramTopK`], [`OptimizedExternalTopK`], [`TraditionalExternalTopK`]
/// or [`InMemoryTopK`] — which share every phase and differ in where the
/// cutoff comes from (DESIGN.md §5).
///
/// [`OptimizedExternalTopK`]: crate::OptimizedExternalTopK
/// [`TraditionalExternalTopK`]: crate::TraditionalExternalTopK
/// [`InMemoryTopK`]: crate::InMemoryTopK
pub struct TopK<K: SortKey, R> {
    spec: SortSpec,
    config: TopKConfig,
    backend: Arc<dyn StorageBackend>,
    /// The backend's modelled-I/O clock at build time ([`io_snapshot`]).
    modelled_at_build_ns: u64,
    stats: IoStats,
    state: State<K>,
    rows_in: u64,
    eliminated_at_input: u64,
    peak_bytes: usize,
    /// The query thread's waits on a run-generation worker, banked at finish.
    rungen_wait_ns: u64,
    /// Run generation's counters, frozen at finish time.
    final_counts: Counts,
    spilled: bool,
    /// Phase clock: one `Instant` pair per phase transition.
    timer: PhaseTimer,
    /// Final-merge nanoseconds, booked when the [`TimedStream`] drops.
    final_merge_ns: Arc<AtomicU64>,
    /// Shared comparison counters the sort structures flush into.
    cmp_stats: CmpStats,
    /// How the final merge ran.
    merged: MergeRecord,
    /// The run catalog's background-I/O pool (`None` = inline I/O).
    io_scheduler: Option<IoScheduler>,
    /// Fold counters every pipeline component flushes into.
    fold_stats: FoldStats,
    /// The aggregator for fold mode (`None` = plain top-k).
    agg: Option<Arc<dyn Aggregator>>,
    /// Optimized recipe: merge early again every this many spilled rows.
    pub(crate) resharpen_every: Option<u64>,
    recipe: PhantomData<R>,
}

/// The algorithm a [`TopK`] runs: a type parameter, so each branch on it
/// is decided at compile time.
pub trait Recipe: Send + 'static {
    /// Which algorithm.
    const KIND: RecipeKind;
    /// Its name in reports.
    const NAME: &'static str;
}

/// The paper's four top-k algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipeKind {
    /// §3: the histogram cutoff filter, as `TopKConfig` sets it up.
    Histogram,
    /// §2.5 [Graefe'08]: replacement selection with runs of at most `k`
    /// rows, the best k-th key of a run as the cutoff, and early merges.
    Optimized,
    /// §2.4: external from the first row, no cutoff, an unbounded merge.
    Traditional,
    /// §2.3: the in-memory phase, with memory for the whole output.
    InMemory,
}

/// The [`HistogramTopK`] recipe.
pub struct Histogram;

impl Recipe for Histogram {
    const KIND: RecipeKind = RecipeKind::Histogram;
    const NAME: &'static str = "histogram-topk";
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

/// Survivors per hand-off, and hand-offs outstanding: tens of KB in flight.
const BATCH_ROWS: usize = 1024;
const BATCHES_IN_FLIGHT: usize = 2;

/// Rows on their way to run generation, in input order.
type Batch<K> = Vec<Row<K>>;

/// Run generation's counters, for `metrics`.
#[derive(Clone, Copy, Default)]
struct Counts {
    filter: FilterMetrics,
    /// Rows the input test on the exact cutoff or the distinct tracker dropped.
    eliminated: u64,
    /// Duplicates the distinct tracker folded away, and their encoded bytes;
    /// `metrics` adds them to what `fold_stats` holds.
    folded: u64,
    bytes_folded: u64,
    peak_bytes: usize,
    early_merges: u64,
}

/// Run generation after a batch, for `metrics`, `cutoff` and the input test.
struct Seen<K> {
    counts: Counts,
    cut: Cutoff<K>,
}

/// Phase 2: the input test on the query thread, and run generation.
struct External<K: SortKey> {
    input: Input,
    at: Place<K>,
}

/// Where run generation runs: inline, a row at a time, or on a worker.
enum Place<K: SortKey> {
    Inline(Box<RunGen<K>>),
    Worker(Box<Mutex<Worker<K>>>),
}

/// The query thread's half of Algorithm 1 line 4.
enum Input {
    /// Plain top-k and dedup: rows past run generation's cutoff end here.
    Cutoff,
    /// No input site, or a value aggregate: every row goes on.
    Forward,
}

impl<K: SortKey> External<K> {
    /// The input test's cutoff: the exact one inline, else the worker's last.
    /// A cutoff never loosens, so the older one drops a subset of the rows.
    fn cut(&mut self) -> &Cutoff<K> {
        match &mut self.at {
            Place::Inline(rungen) => rungen.filter.cut(),
            Place::Worker(worker) => &lock_mut(worker).seen.cut,
        }
    }
}

/// Run generation and its cutoff filter: what the worker owns.
struct RunGen<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    gen: Box<dyn RunGenerator<K>>,
    filter: CutoffFilter<K>,
    /// Plain top-k and dedup: test input again on the exact cutoff and, in
    /// dedup mode, against the filter's distinct tracker; count the drops.
    recheck: bool,
    /// The optimized recipe's early merge step.
    early: Option<EarlyMerge>,
    /// What `admit` counts; `counts` fills in the rest.
    tally: Counts,
    /// The error a worker stopped on.
    failed: Option<Error>,
}

impl<K: SortKey> RunGen<K> {
    /// One row: the input test again, then run generation.
    fn admit(&mut self, row: Row<K>) -> Result<()> {
        if self.recheck && !self.survives(&row) {
            return Ok(());
        }
        self.gen.push(row, &mut self.filter)?;
        self.tally.peak_bytes = self.tally.peak_bytes.max(self.gen.buffered_bytes());
        match &mut self.early {
            Some(early) => early.maybe_merge(&self.catalog, &mut self.filter),
            None => Ok(()),
        }
    }

    /// Algorithm 1 line 4 on the exact cutoff: false when `row` ends here,
    /// counted. In dedup mode (line 4 adapted to DISTINCT) a duplicate of a
    /// tracked key folds into nothing — its representative is in the
    /// pipeline; its bytes are the accumulator's, which FIRST's identity
    /// `init` leaves the raw row's — and a key strictly worse than
    /// `retained` known distinct keys dies. Elsewhere the tracker admits
    /// every row.
    fn survives(&mut self, row: &Row<K>) -> bool {
        let verdict = match self.filter.eliminate(&row.key) {
            true => DistinctVerdict::Worse,
            false => self.filter.observe_input(&row.key),
        };
        match verdict {
            DistinctVerdict::Admit => return true,
            DistinctVerdict::Duplicate => {
                self.tally.folded += 1;
                self.tally.bytes_folded += row.encoded_len() as u64;
            }
            DistinctVerdict::Worse => self.tally.eliminated += 1,
        }
        false
    }

    /// The worker's step: each row in order.
    fn run(&mut self, batch: &mut Batch<K>) -> bool {
        for row in batch.drain(..) {
            if let Err(e) = self.admit(row) {
                self.failed = Some(e);
                return false;
            }
        }
        true
    }

    fn counts(&self) -> Counts {
        Counts {
            filter: self.filter.metrics(),
            early_merges: self.early.as_ref().map_or(0, |early| early.merges),
            ..self.tally
        }
    }

    fn seen(&self) -> Seen<K> {
        Seen { counts: self.counts(), cut: self.filter.cut().clone() }
    }
}

static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Run-generation workers alive in this process: at most
/// `available_parallelism() − 1`, none of an operator that is done or gone.
pub fn live_rungen_workers() -> usize {
    WORKERS.load(Ordering::Acquire)
}

/// The hand-off to a thread that runs [`RunGen::run`] on each batch, hands
/// it back emptied, and returns run generation at the end. It holds a slot.
struct Worker<K: SortKey> {
    tx: Option<Sender<Batch<K>>>,
    /// Emptied batches, and run generation as each left it.
    back: Receiver<(Batch<K>, Seen<K>)>,
    thread: Option<JoinHandle<Box<RunGen<K>>>>,
    pending: Batch<K>,
    spare: Vec<Batch<K>>,
    in_flight: usize,
    seen: Seen<K>,
    wait_ns: u64,
}

impl<K: SortKey> Worker<K> {
    /// Moves run generation to a worker if `background` and a slot is free.
    fn place(rungen: Box<RunGen<K>>, background: bool) -> Result<Place<K>> {
        let cap = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        let free = |n: usize| (n < cap).then_some(n + 1);
        if !background || WORKERS.fetch_update(Ordering::AcqRel, Ordering::Acquire, free).is_err() {
            return Ok(Place::Inline(rungen));
        }
        let seen = rungen.seen();
        let (tx, rx) = channel::<Batch<K>>();
        let (back_tx, back) = channel();
        let thread = std::thread::Builder::new().name("histok-rungen".into()).spawn(move || {
            let mut rungen = rungen;
            for mut batch in rx {
                if !rungen.run(&mut batch) || back_tx.send((batch, rungen.seen())).is_err() {
                    break;
                }
            }
            rungen
        });
        let thread = Some(thread.inspect_err(|_| _ = WORKERS.fetch_sub(1, Ordering::AcqRel))?);
        let pending = Vec::with_capacity(BATCH_ROWS);
        let (tx, spare) = (Some(tx), Vec::new());
        let worker = Worker { tx, back, thread, pending, spare, in_flight: 0, seen, wait_ns: 0 };
        Ok(Place::Worker(Box::new(Mutex::new(worker))))
    }

    /// Hands the pending batch over, first waiting for one back if
    /// [`BATCHES_IN_FLIGHT`] are out. False once the worker has stopped.
    fn hand_off(&mut self) -> bool {
        if self.in_flight == BATCHES_IN_FLIGHT && !self.receive() {
            return false;
        }
        let next = self.spare.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut self.pending, next);
        let sent = self.tx.as_ref().is_some_and(|tx| tx.send(batch).is_ok());
        self.in_flight += usize::from(sent);
        sent
    }

    /// Waits for one batch back. False if the worker has stopped.
    fn receive(&mut self) -> bool {
        let start = Instant::now();
        let back = self.back.recv();
        self.wait_ns += start.elapsed().as_nanos() as u64;
        let Ok((batch, seen)) = back else { return false };
        (self.in_flight, self.seen) = (self.in_flight - 1, seen);
        self.spare.push(batch);
        true
    }

    /// The barrier: every row handed over and every batch back.
    fn sync(worker: &Mutex<Self>) -> MutexGuard<'_, Self> {
        let mut w = worker.lock().unwrap_or_else(PoisonError::into_inner);
        let mut ok = w.pending.is_empty() || w.hand_off();
        while ok && w.in_flight > 0 {
            ok = w.receive();
        }
        w
    }

    /// Closes the hand-off: run generation comes back, or its error.
    fn join(&mut self) -> Result<Box<RunGen<K>>> {
        self.tx = None;
        let rungen = self.thread.take().and_then(|thread| thread.join().ok());
        let mut rungen = rungen.ok_or_else(|| Error::InvalidConfig("worker stopped".into()))?;
        rungen.failed.take().map_or(Ok(rungen), Err)
    }
}

impl<K: SortKey> Drop for Worker<K> {
    fn drop(&mut self) {
        self.tx = None;
        let _ = self.thread.take().map(JoinHandle::join);
        WORKERS.fetch_sub(1, Ordering::AcqRel);
    }
}

fn lock_mut<T>(mutex: &mut Mutex<T>) -> &mut T {
    mutex.get_mut().unwrap_or_else(PoisonError::into_inner)
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
        Self::build(spec, config, backend)
    }
}

impl<K: SortKey, R: Recipe> TopK<K, R> {
    /// Builds `R`'s operator. A baseline overrides the settings that define
    /// it and keeps the rest of `config` (budget, fan-in, I/O, OVC).
    pub(crate) fn build(
        spec: SortSpec,
        mut config: TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        spec.validate()?;
        config.validate()?;
        match R::KIND {
            RecipeKind::Optimized | RecipeKind::Traditional if config.fold_op().is_some() => {
                let name = R::NAME;
                let e = format!("dedup/aggregate queries are not supported by {name}");
                return Err(Error::InvalidConfig(e));
            }
            // The k-th key of a run of k rows is its one bucket of width k,
            // with no tail bucket (DESIGN.md §5).
            RecipeKind::Optimized => {
                config.run_generation = RunGenKind::ReplacementSelection;
                config.sizing = SizingPolicy::FixedWidth(spec.retained());
                config.tail_buckets = false;
                config.filter = FilterSites::InputAndSpill;
                config.approx_slack = 0.0;
                config.residue = ResiduePolicy::KeepInMemory;
            }
            RecipeKind::Traditional => {
                config.run_generation = RunGenKind::LoadSortStore;
                config.filter = FilterSites::Off;
                config.residue = ResiduePolicy::SpillToRuns;
            }
            RecipeKind::Histogram | RecipeKind::InMemory => {}
        }
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
        let mut op = TopK {
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
            peak_bytes: 0,
            rungen_wait_ns: 0,
            final_counts: Counts::default(),
            spilled: false,
            timer: PhaseTimer::new(),
            final_merge_ns: Arc::new(AtomicU64::new(0)),
            cmp_stats: CmpStats::new(),
            merged: MergeRecord::default(),
            resharpen_every: None,
            recipe: PhantomData,
        };
        // The traditional sort has no in-memory phase.
        match R::KIND {
            RecipeKind::Traditional => op.switch_to_external(Vec::new())?,
            _ => op.timer.enter(Phase::InMemory),
        }
        Ok(op)
    }

    /// The current cutoff key: the in-memory queue's worst retained key, or
    /// the external cutoff (after run generation has taken every row pushed
    /// so far).
    pub fn cutoff(&self) -> Option<K> {
        match &self.state {
            State::InMemory(store) => store.cutoff().cloned(),
            State::External(ext) => match &ext.at {
                Place::Inline(rungen) => rungen.filter.cutoff().cloned(),
                Place::Worker(worker) => Worker::sync(worker).seen.cut.key().cloned(),
            },
            State::Finished => None,
        }
    }

    /// True once the operator has switched to external mode.
    pub fn is_external(&self) -> bool {
        matches!(self.state, State::External(_))
    }

    /// The fold instruction every sort component receives in fold mode:
    /// the aggregator plus the shared counters.
    fn fold_spec(&self) -> Option<FoldSpec> {
        self.agg.as_ref().map(|a| FoldSpec::new(a.clone()).with_stats(self.fold_stats.clone()))
    }

    fn merge_tuning(&self) -> MergeTuning {
        MergeTuning {
            stats: Some(self.cmp_stats.clone()),
            fold: self.fold_spec(),
            ..MergeTuning::default()
        }
    }

    fn build_generator(&self, catalog: Arc<RunCatalog<K>>) -> Box<dyn RunGenerator<K>> {
        // Lease-aware budgets: when the config carries a `budget_lease`,
        // every generator reads its limit through the shared handle, so an
        // admission controller can resize a running query's workspace.
        let budget = self.config.make_budget();
        let mut gen: Box<dyn RunGenerator<K>> = match self.config.run_generation {
            RunGenKind::ReplacementSelection => {
                let mut gen = ReplacementSelection::with_budget(catalog, budget)
                    .with_stats(Some(self.cmp_stats.clone()));
                if self.config.limit_run_size {
                    gen = gen.with_run_limit(self.spec.retained());
                }
                Box::new(gen)
            }
            RunGenKind::LoadSortStore => Box::new(
                BatchSort::with_budget(catalog, budget).with_stats(Some(self.cmp_stats.clone())),
            ),
        };
        // Fold mode: duplicates collapse before they spill; every merge
        // folds again.
        gen.set_fold(self.fold_spec());
        gen
    }

    /// Leaves phase 1: every retained row re-enters through run generation
    /// on this thread, then a worker takes over if a slot is free.
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
        let filter = crate::cutoff::filter_from_config(&self.spec, &self.config);
        // Value aggregates eliminate nothing at input: every duplicate must
        // reach its group's accumulator (DESIGN.md §14).
        let recheck = self.config.filter.input() && (self.agg.is_none() || filter.distinct_mode());
        let input = if recheck { Input::Cutoff } else { Input::Forward };
        let early = (R::KIND == RecipeKind::Optimized).then(|| {
            EarlyMerge::new(self.spec.retained(), self.resharpen_every, self.merge_tuning())
        });
        let mut rungen =
            RunGen { catalog, gen, filter, recheck, early, tally: Counts::default(), failed: None };
        // In dedup mode the re-entering rows (distinct by construction)
        // seed the distinct tracker, so the cutoff is established before
        // the first external-phase row arrives. The tracker admits every
        // row outside dedup mode.
        for row in heap_rows {
            if recheck && rungen.filter.observe_input(&row.key) == DistinctVerdict::Worse {
                // The store retained more groups than the (slack-reduced)
                // filter target; groups past the target are already out.
                rungen.tally.eliminated += 1;
                continue;
            }
            rungen.gen.push(row, &mut rungen.filter)?;
        }
        // Not without background I/O (`io_threads = 0` asks for none), nor
        // under a server's lease: its concurrent queries already share the
        // cores, and a worker each cost the fleet's tail 4–6 %.
        let background = self.io_scheduler.is_some() && self.config.budget_lease.is_none();
        let at = Worker::place(Box::new(rungen), background)?;
        self.state = State::External(Box::new(External { input, at }));
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

    /// The query thread's phase-2 input filter (Algorithm 1 line 4): false
    /// when `row` ends here, counted. It reads the key and nothing else, so
    /// it runs ahead of `agg.init`. In dedup mode a key past the cutoff is
    /// one the distinct tracker would call worse, so it never crosses.
    fn survives_input(&mut self, row: &Row<K>) -> bool {
        let State::External(ext) = &mut self.state else { unreachable!() };
        if matches!(ext.input, Input::Forward) {
            return true;
        }
        let eliminated = ext.cut().eliminate(&row.key);
        self.eliminated_at_input += u64::from(eliminated);
        !eliminated
    }

    /// A row that passed the input filter enters run generation, as an
    /// accumulator: at once inline, in the next batch on a worker.
    fn admit_external(&mut self, row: Row<K>) -> Result<()> {
        let State::External(ext) = &mut self.state else { unreachable!() };
        let worker = match &mut ext.at {
            Place::Inline(rungen) => return rungen.admit(row),
            Place::Worker(worker) => worker,
        };
        let worker = lock_mut(worker);
        worker.pending.push(row);
        if worker.pending.len() < BATCH_ROWS || worker.hand_off() {
            return Ok(());
        }
        Err(worker.join().err().unwrap_or_else(|| Error::InvalidConfig("worker stopped".into())))
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

impl<K: SortKey, R: Recipe> TopKOperator<K> for TopK<K, R> {
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
    /// ahead of all per-row bookkeeping: a row a full phase-1 heap rejects
    /// or the phase-2 filter eliminates is counted and dropped on one key
    /// compare; only survivors reach the `push` body or run generation,
    /// where dedup's distinct tracker runs (DESIGN.md §10).
    ///
    /// One stated difference: `push` re-reads the `budget_lease` after
    /// every row, a rejected row skips that read, so a lease shrunk below
    /// the retained bytes while every row is being rejected switches the
    /// operator to external mode at the end of the batch, not on the next
    /// row.
    fn push_batch(&mut self, rows: &mut Vec<Row<K>>) -> Result<()> {
        // Value aggregates eliminate nothing at input (see `survives_input`)
        // and go through `push`, as does dedup while it is in phase 1.
        for row in rows.drain(..) {
            // The cutoff test alone, where the key decides the row's fate.
            let verdict = match &mut self.state {
                State::InMemory(MemStore::Heap(heap)) if heap.rejects(&row.key) => Some(true),
                State::External(ext) if matches!(ext.input, Input::Cutoff) => {
                    Some(ext.cut().eliminate(&row.key))
                }
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
                // A phase-2 survivor is not tested a second time here.
                self.admit_external(accumulator(&self.agg, row))?;
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
            State::External(ext) => {
                // Run generation comes back to this thread for the last spill.
                let mut rungen = match ext.at {
                    Place::Inline(rungen) => rungen,
                    Place::Worker(worker) => {
                        let mut worker = Worker::sync(&worker);
                        self.rungen_wait_ns += worker.wait_ns;
                        worker.join()?
                    }
                };
                let residue = rungen.gen.finish(&mut rungen.filter, self.config.residue)?;
                self.final_counts = rungen.counts();
                // The traditional sort merges every row; its reader stops.
                let bounded = R::KIND != RecipeKind::Traditional;
                let stream = FinalMerge {
                    fan_in: self.config.fan_in,
                    tuning: self.merge_tuning(),
                    limit: bounded.then_some(self.spec.retained()),
                    cutoff: rungen.filter.cutoff().cloned(),
                    // With slack the serial merge may emit rows past the
                    // cutoff, and the partitioned one must match it.
                    clip_partitions: self.config.approx_slack == 0.0,
                    threads: self.config.merge_threads,
                    // §4.1: an OFFSET clause lets the merge start partway
                    // in. In fold mode the offset counts output *groups*
                    // while block row counts predate folding, so nothing
                    // is skipped (SpecStream skips folded rows instead).
                    skip: if bounded && self.agg.is_none() { self.spec.offset } else { 0 },
                }
                .run(vec![(rungen.catalog, residue)])?;
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
            State::Finished => {
                Err(Error::InvalidConfig(format!("{}: finish() called twice", R::NAME)))
            }
        }
    }

    fn metrics(&self) -> OperatorMetrics {
        let (counts, wait_ns) = match &self.state {
            State::External(ext) => match &ext.at {
                Place::Inline(rungen) => (rungen.counts(), 0),
                Place::Worker(worker) => {
                    let w = Worker::sync(worker);
                    (w.seen.counts, w.wait_ns)
                }
            },
            _ => (self.final_counts, 0),
        };
        let io = io_snapshot(&self.stats, self.backend.as_ref(), self.modelled_at_build_ns);
        let mut phases = self.timer.snapshot();
        phases.spill_write_ns = io.write_latency.total_ns;
        phases.rungen_wait_ns = self.rungen_wait_ns + wait_ns;
        phases.final_merge_ns += self.final_merge_ns.load(Ordering::Relaxed);
        let fold = self.fold_stats.snapshot();
        OperatorMetrics {
            rows_in: self.rows_in,
            eliminated_at_input: self.eliminated_at_input + counts.eliminated,
            eliminated_at_spill: counts.filter.eliminated_at_spill,
            io,
            filter: counts.filter,
            spilled: self.spilled,
            peak_memory_bytes: self.peak_bytes.max(counts.peak_bytes),
            early_merges: counts.early_merges,
            cmp: self.cmp_stats.snapshot(),
            phases,
            merge_partitions: self.merged.partitions,
            partition_rows: self.merged.partition_rows(),
            cascade: self.merged.cascade,
            queued_ns: 0,
            rows_folded: fold.rows_folded + counts.folded,
            bytes_folded_pre_spill: fold.bytes_folded_pre_spill + counts.bytes_folded,
        }
    }

    fn algorithm(&self) -> &'static str {
        R::NAME
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterSites;
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

    /// Load-sort-store books the full key comparisons its sorts of prefix
    /// ties make, as replacement selection books its own: over keys that
    /// share their 8-byte prefix the query's count is the final merge's
    /// plus the sorts'. Over `F64Key`s, whose prefix is the whole key,
    /// neither compares a key.
    #[test]
    fn load_sort_store_books_its_comparisons() {
        fn full_cmps<K: SortKey>(key: fn(u64) -> K) -> u64 {
            let row_bytes = histok_sort::row_footprint(&Row::key_only(key(0)));
            let cfg = TopKConfig::builder()
                .memory_budget(150 * row_bytes)
                .run_generation(RunGenKind::LoadSortStore)
                .block_bytes(1024)
                .build()
                .unwrap();
            let mut op =
                HistogramTopK::new(SortSpec::ascending(600), cfg, MemoryBackend::new()).unwrap();
            for k in shuffled(30_000, 7) {
                op.push(Row::key_only(key(k))).unwrap();
            }
            let out: Vec<K> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
            assert_eq!(out, (0..600).map(key).collect::<Vec<_>>());
            op.metrics().cmp.full_cmps
        }
        let (merge, sorts) = (1_716, 24_731);
        let shared = full_cmps(|k| histok_types::BytesKey::new(format!("shared-prefix-{k:05}")));
        assert_eq!(shared, merge + sorts);
        assert_eq!(full_cmps(|k| histok_types::F64Key(k as f64)), 0);
    }

    #[test]
    fn filter_disabled_spills_like_a_plain_sort() {
        let keys = shuffled(20_000, 8);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(100 * row_bytes)
            .filter(FilterSites::Off)
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

    /// One spilling query (top 600 of 20,000 keys shuffled by `seed`,
    /// memory for `rows` rows) with the filter acting at `sites`.
    fn run_with_sites(sites: FilterSites, seed: u64, rows: usize) -> OperatorMetrics {
        let keys = shuffled(20_000, seed);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let cfg = TopKConfig::builder()
            .memory_budget(rows * row_bytes)
            .filter(sites)
            .block_bytes(1024)
            .build()
            .unwrap();
        let (out, m) = run_op(SortSpec::ascending(600), cfg, &keys);
        assert_eq!(out, (0..600).collect::<Vec<_>>(), "{sites:?}");
        assert!(m.spilled, "{sites:?}");
        m
    }

    #[test]
    fn each_filter_site_eliminates_only_where_it_acts() {
        // k exceeds memory, so phase 1 never fills its heap and every
        // input elimination is the phase-2 filter's (Algorithm 1 line 4).
        let input_only = run_with_sites(FilterSites::InputOnly, 9, 100);
        assert!(input_only.eliminated_at_input > 0);
        assert_eq!(input_only.eliminated_at_spill, 0, "InputOnly eliminated at spill");
        assert!(input_only.filter.buckets_inserted > 0);

        let spill_only = run_with_sites(FilterSites::SpillOnly, 9, 100);
        assert_eq!(spill_only.eliminated_at_input, 0, "SpillOnly eliminated at input");
        assert!(spill_only.eliminated_at_spill > 0);
        assert!(spill_only.filter.buckets_inserted > 0);

        let off = run_with_sites(FilterSites::Off, 9, 100);
        assert_eq!(off.filter.buckets_inserted, 0, "Off built a histogram");
        assert_eq!((off.eliminated_at_input, off.eliminated_at_spill), (0, 0));

        let both = run_with_sites(FilterSites::InputAndSpill, 9, 100);
        assert!(both.eliminated_at_input > 0 && both.eliminated_at_spill > 0);
        assert!(both.rows_spilled() < input_only.rows_spilled());
        // Against the spill site alone, one input's spilled rows differ by a
        // few either way, so they are summed over twelve inputs.
        let spilled = |sites| -> u64 {
            (0..12).map(|seed| run_with_sites(sites, seed, 300).rows_spilled()).sum()
        };
        assert!(spilled(FilterSites::InputAndSpill) < spilled(FilterSites::SpillOnly));
        // The default is the paper's algorithm: both sites.
        let keys = shuffled(20_000, 9);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (_, default) = run_op(SortSpec::ascending(600), config(100 * row_bytes), &keys);
        let counts = |m: &OperatorMetrics| {
            (m.eliminated_at_input, m.eliminated_at_spill, m.rows_spilled(), m.io.bytes_written)
        };
        assert_eq!(counts(&default), counts(&both));
        assert_eq!(default.filter, both.filter);
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
    /// through `push_batch`; for the histogram and the optimized recipe.
    #[test]
    fn lease_revoked_while_every_row_is_rejected_still_spills() {
        fn check<R: Recipe>(build: fn(SortSpec, TopKConfig) -> Result<TopK<u64, R>>) {
            for batched in [false, true] {
                let lease = histok_sort::BudgetHandle::new(1 << 20);
                let cfg = TopKConfig::builder()
                    .memory_budget(1 << 20)
                    .budget_lease(lease.clone())
                    .block_bytes(1024)
                    .build()
                    .unwrap();
                let mut op = build(SortSpec::ascending(100), cfg).unwrap();
                let name = op.algorithm();
                let feed = |op: &mut TopK<u64, R>, keys: std::ops::Range<u64>| {
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
                assert!(!op.is_external(), "{name} batched={batched}");
                // The server takes the lease back; only rejected rows follow.
                lease.set_limit(64);
                let next = if batched { 2_000..2_256 } else { 2_000..2_001 };
                feed(&mut op, next.clone());
                assert!(op.is_external(), "{name} batched={batched}: revoked lease ignored");
                let m = op.metrics();
                assert_eq!(m.rows_in, 356 + (next.end - next.start));
                assert_eq!(m.eliminated_at_input, m.rows_in - 100);
                let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
                assert_eq!(out, (0..100).collect::<Vec<_>>());
            }
        }
        check(|spec, cfg| HistogramTopK::new(spec, cfg, MemoryBackend::new()));
        check(|spec, cfg| crate::OptimizedExternalTopK::new(spec, cfg, MemoryBackend::new()));
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
