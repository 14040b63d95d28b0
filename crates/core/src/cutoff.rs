//! The cutoff filter — the paper's central data structure (§3.1.2).
//!
//! A priority queue of histogram [`Bucket`]s, sorted *inverse* to the
//! requested output order, models the input seen so far. Once the buckets
//! jointly represent at least `k` rows, the boundary key at the top of the
//! queue is a valid **cutoff key**: at least `k` rows are known to sort at
//! or before it, so any row sorting strictly after it cannot be in the
//! output and is eliminated. After every insertion the queue pops buckets
//! while `Σcount − top.count ≥ k`, continuously sharpening the cutoff.
//!
//! The filter implements [`SpillObserver`], which is how it watches run
//! generation: each spilled row feeds a [`HistogramBuilder`], each completed
//! bucket is inserted, and the sharpened cutoff immediately starts
//! eliminating rows — including later rows of the very run being written.

use std::collections::{hash_map::RandomState, HashSet};
use std::hash::{BuildHasher, Hasher};

use histok_sort::{BinaryHeapBy, SpillObserver};
use histok_types::{AggregateOp, Result, SortKey, SortOrder};

use crate::config::{FilterSites, TopKConfig};
use crate::histogram::{Bucket, HistogramBuilder};
use crate::sizing::SizingPolicy;

/// Default memory allocation for the histogram priority queue (§5.1.2:
/// "default: 1 MB").
pub const DEFAULT_FILTER_MEMORY: usize = 1024 * 1024;

/// Counters describing the filter's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterMetrics {
    /// Buckets inserted into the priority queue.
    pub buckets_inserted: u64,
    /// Buckets popped while sharpening.
    pub buckets_popped: u64,
    /// Times the cutoff key strictly tightened.
    pub refinements: u64,
    /// Consolidation steps (queue collapsed to one bucket).
    pub consolidations: u64,
    /// Rows eliminated by [`CutoffFilter::should_eliminate`] at spill time.
    pub eliminated_at_spill: u64,
}

impl FilterMetrics {
    /// Counter-wise sum with `other` (aggregating sub-operator filters).
    pub fn merged(&self, other: &FilterMetrics) -> FilterMetrics {
        FilterMetrics {
            buckets_inserted: self.buckets_inserted.saturating_add(other.buckets_inserted),
            buckets_popped: self.buckets_popped.saturating_add(other.buckets_popped),
            refinements: self.refinements.saturating_add(other.refinements),
            consolidations: self.consolidations.saturating_add(other.consolidations),
            eliminated_at_spill: self.eliminated_at_spill.saturating_add(other.eliminated_at_spill),
        }
    }
}

/// Builds a [`CutoffFilter`] honoring every relevant config knob. Shared by
/// [`crate::HistogramTopK`] and [`crate::ParallelTopK`], which read the
/// filter's sizing, tail buckets and spill-time elimination from its
/// result, so the serial and parallel operators cannot drift apart:
///
/// * [`FilterSites::Off`] disables histogram sizing entirely (no buckets
///   are ever built, matching a plain external sort);
/// * approximation slack ε targets ⌈k(1−ε)⌉ rows (§4.5), so the filter
///   establishes and sharpens its cutoff earlier, trading the tail of the
///   result for less I/O: the first ⌈k(1−ε)⌉ output rows are still the
///   exact best, the rest are best-effort and the output may fall short
///   of `k` rows;
/// * [`FilterSites::spill`] gates spill-time elimination (Algorithm 1
///   line 11). Input elimination (line 4) is the operator's, gated by
///   [`FilterSites::input`].
///
/// [`FilterSites::Off`]: crate::config::FilterSites::Off
/// [`FilterSites::spill`]: crate::config::FilterSites::spill
/// [`FilterSites::input`]: crate::config::FilterSites::input
pub(crate) fn filter_from_config<K: SortKey>(
    spec: &histok_types::SortSpec,
    config: &TopKConfig,
) -> CutoffFilter<K> {
    let fold = config.fold_op();
    // Row-count histograms are unsound over a folding sort: a bucket's
    // count promises "≥ k *rows* at or before the boundary", but a fold
    // query's limit counts *distinct keys* (DESIGN.md §14). Dedup mode
    // replaces the histogram with an exact distinct-key tracker; value
    // aggregates get no input model at all and rely on post-merge
    // refinement only.
    let histogram_sound = fold.is_none();
    let enabled = config.filter != FilterSites::Off;
    let sizing = if enabled && histogram_sound { config.sizing } else { SizingPolicy::Disabled };
    // Pre-aggregation elimination is sound only when each group needs a
    // single surviving representative (plain top-k, dedup/FIRST). For
    // SUM/COUNT/MIN/MAX every dropped duplicate would corrupt its group's
    // accumulator, so spill-side elimination is forced off.
    let pre_agg_filtering = matches!(fold, None | Some(AggregateOp::First));
    let filter_k = ((spec.retained() as f64) * (1.0 - config.approx_slack)).ceil() as u64;
    let mut filter = CutoffFilter::with_policy(filter_k.max(1), spec.order, sizing)
        .with_memory_budget(config.histogram_memory)
        .with_tail_buckets(config.tail_buckets)
        .with_spill_elimination(config.filter.spill() && pre_agg_filtering)
        .with_norm_prefix(config.ovc_enabled);
    if enabled && fold == Some(AggregateOp::First) {
        filter = filter.with_distinct_tracking();
    }
    filter
}

/// Verdict of [`CutoffFilter::observe_input`] on one input-side key in
/// distinct (dedup) mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistinctVerdict {
    /// First sighting of a key that may still reach the output: keep it.
    Admit,
    /// The key is already tracked — the row is a pure duplicate of a
    /// representative already in the sort pipeline (FIRST fold: drop it).
    Duplicate,
    /// The tracker is full and the key sorts strictly after the worst
    /// retained distinct key — its whole group is out of the output.
    Worse,
}

/// The tracker's hasher: one folded 64×64→128-bit multiply per eight key
/// bytes. `HashSet` picks the bucket from the hash's *low* bits, and the low
/// bits of a bare product depend only on the low bits of the key — all zero
/// for doubles such as 0.5 or `i / 65536.0` — so the product's high half is
/// folded down onto its low half.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = (wide as u64) ^ (wide >> 64) as u64;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One tracker's random seed, where each of its hashes starts: keys are
/// table data, and an unseeded mixer's collisions could be prepared. No
/// verdict depends on a hash value, so every count still repeats exactly.
struct KeyHashSeed(u64);

impl BuildHasher for KeyHashSeed {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

/// Exact distinct-key input model for dedup queries: the best `target`
/// *distinct* keys seen so far. Replaces the row-count histogram, whose
/// cutoffs are unsound when the limit counts groups instead of rows
/// (DESIGN.md §14). It is asked two things — *is this key tracked?* by every
/// row, *which tracked key is worst?* only when a new key meets a full
/// tracker — and holds one structure for each: at most `target` keys, twice.
struct DistinctTracker<K: SortKey> {
    set: HashSet<K, KeyHashSeed>,
    /// The keys of `set`, worst on top.
    heap: BinaryHeapBy<K, fn(&K, &K) -> bool>,
    target: usize,
    order: SortOrder,
}

impl<K: SortKey> DistinctTracker<K> {
    fn new(target: u64, order: SortOrder) -> Self {
        let worst_first: fn(&K, &K) -> bool = match order {
            SortOrder::Ascending => |a, b| a > b,
            SortOrder::Descending => |a, b| a < b,
        };
        DistinctTracker {
            set: HashSet::with_hasher(KeyHashSeed(RandomState::new().hash_one(0u8))),
            heap: BinaryHeapBy::new(worst_first),
            target: target.max(1) as usize,
            order,
        }
    }

    /// The cutoff this tracker proves: once `target` distinct keys are
    /// tracked, at least `target` groups sort at or before the worst one.
    fn cutoff(&self) -> Option<&K> {
        self.heap.peek().filter(|_| self.set.len() >= self.target)
    }

    /// One probe for a `Duplicate`, one more compare for a `Worse`; only an
    /// `Admit` changes the tracker.
    fn observe(&mut self, key: &K) -> DistinctVerdict {
        if self.set.contains(key) {
            return DistinctVerdict::Duplicate;
        }
        if self.set.len() >= self.target {
            let worst = self.heap.peek().expect("full tracker has a worst key");
            if self.order.follows(key, worst) {
                return DistinctVerdict::Worse;
            }
            // Strictly better than the worst retained key: the worst
            // group can never re-enter the output (the retained key set
            // only ever improves), so evict it for good.
            let worst = self.heap.replace_top(key.clone()).expect("peeked");
            self.set.remove(&worst);
        } else {
            self.heap.push(key.clone());
        }
        self.set.insert(key.clone());
        DistinctVerdict::Admit
    }
}

/// Boxed runtime comparator for buckets.
type BucketCmp<K> = Box<dyn FnMut(&Bucket<K>, &Bucket<K>) -> bool + Send>;
type BucketHeap<K> = BinaryHeapBy<Bucket<K>, BucketCmp<K>>;

/// The histogram-based cutoff filter.
///
/// ```
/// use histok_core::{Bucket, CutoffFilter};
/// use histok_types::SortOrder;
///
/// // Query wants the 4 smallest keys.
/// let mut filter: CutoffFilter<u64> = CutoffFilter::new(4, SortOrder::Ascending);
/// assert!(!filter.eliminate(&1_000)); // nothing established yet
///
/// filter.insert_bucket(Bucket::new(10, 2)); // 2 rows ≤ 10
/// filter.insert_bucket(Bucket::new(50, 2)); // 2 rows ≤ 50 → Σ = 4 = k
/// assert_eq!(filter.cutoff(), Some(&50));
/// assert!(filter.eliminate(&51));
/// assert!(!filter.eliminate(&50)); // ties survive
///
/// filter.insert_bucket(Bucket::new(20, 2)); // sharper: pop the 50-bucket
/// assert_eq!(filter.cutoff(), Some(&20));
/// ```
pub struct CutoffFilter<K: SortKey> {
    order: SortOrder,
    k: u64,
    /// Max-heap w.r.t. output order (i.e. sorted inverse to the output):
    /// the top bucket carries the largest boundary key.
    heap: BucketHeap<K>,
    /// Total rows represented by the queued buckets.
    sum: u64,
    cutoff: Option<K>,
    /// Normalized 8-byte prefix of the cutoff key, cached so the per-row
    /// elimination check is one integer compare in the common case.
    cutoff_prefix: u64,
    /// Gates the prefix fast path (off = always full comparisons).
    norm_prefix_enabled: bool,
    builder: HistogramBuilder<K>,
    policy: SizingPolicy,
    emit_tail: bool,
    /// When false, `should_eliminate` always passes rows through but the
    /// histogram is still built (ablation of Algorithm 1 line 11).
    spill_elimination: bool,
    memory_budget: usize,
    used_bytes: usize,
    metrics: FilterMetrics,
    /// Distinct-key input model (dedup mode); replaces the histogram.
    distinct: Option<DistinctTracker<K>>,
    /// Debug builds: the spilled keys the cutoff covers, counted.
    #[cfg(debug_assertions)]
    shadow: Option<Shadow<K>>,
}

/// An exact count of the spilled keys at or before the cutoff, against
/// which debug builds check the paper's invariant: a published cutoff
/// covers at least `k` rows. It starts with the first spilled row reported
/// (a filter fed buckets by hand has none), keeps a key only while the
/// cutoff covers it, and drops the keys a tighter cutoff passes over: the
/// cutoff never loosens, so no dropped key counts again.
#[cfg(debug_assertions)]
struct Shadow<K> {
    keys: std::collections::BTreeMap<K, u64>,
    count: u64,
}

#[cfg(debug_assertions)]
impl<K: SortKey> Shadow<K> {
    /// Counts a spilled key if `cutoff` covers it.
    fn spilled(&mut self, key: &K, cutoff: Option<&K>, order: SortOrder) {
        if cutoff.is_none_or(|cut| !order.follows(key, cut)) {
            *self.keys.entry(key.clone()).or_default() += 1;
            self.count += 1;
        }
    }

    /// Drops the keys that sort after a new cutoff.
    fn tightened(&mut self, cutoff: &K, order: SortOrder) {
        let mut passed = self.keys.split_off(cutoff);
        match order {
            SortOrder::Ascending => {
                if let Some(n) = passed.remove(cutoff) {
                    self.keys.insert(cutoff.clone(), n);
                }
            }
            SortOrder::Descending => std::mem::swap(&mut passed, &mut self.keys),
        }
        self.count -= passed.values().sum::<u64>();
    }
}

impl<K: SortKey> CutoffFilter<K> {
    /// Creates a filter for a query retaining `k` rows in `order`, with the
    /// default sizing policy (50 buckets/run) and 1 MiB queue budget.
    pub fn new(k: u64, order: SortOrder) -> Self {
        Self::with_policy(k, order, SizingPolicy::default())
    }

    /// Creates a filter with an explicit sizing policy.
    pub fn with_policy(k: u64, order: SortOrder, policy: SizingPolicy) -> Self {
        let cmp: BucketCmp<K> = Box::new(move |a, b| order.follows(&a.boundary, &b.boundary));
        CutoffFilter {
            order,
            k: k.max(1),
            heap: BinaryHeapBy::new(cmp),
            sum: 0,
            cutoff: None,
            cutoff_prefix: 0,
            norm_prefix_enabled: true,
            builder: HistogramBuilder::new(),
            policy,
            emit_tail: true,
            spill_elimination: true,
            memory_budget: DEFAULT_FILTER_MEMORY,
            used_bytes: 0,
            metrics: FilterMetrics::default(),
            distinct: None,
            #[cfg(debug_assertions)]
            shadow: None,
        }
    }

    /// Overrides the priority-queue memory budget that triggers
    /// consolidation.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes.max(64);
        self
    }

    /// Controls whether a run's tail rows (after the last full bucket) form
    /// a final bucket. `true` (default) is strictly more informative;
    /// `false` reproduces the paper's idealized model exactly.
    pub fn with_tail_buckets(mut self, emit: bool) -> Self {
        self.emit_tail = emit;
        self
    }

    /// Controls whether rows are eliminated at spill time; when off, the
    /// histogram is still maintained but `should_eliminate` passes
    /// everything through (ablation of Algorithm 1 line 11).
    pub fn with_spill_elimination(mut self, on: bool) -> Self {
        self.spill_elimination = on;
        self
    }

    /// The histogram sizing policy (`Disabled` when the filter is off).
    pub(crate) fn sizing(&self) -> SizingPolicy {
        self.policy
    }

    /// Whether a run's tail rows form a final bucket.
    pub(crate) fn emits_tail(&self) -> bool {
        self.emit_tail
    }

    /// Whether rows are eliminated at spill time.
    pub(crate) fn eliminates_at_spill(&self) -> bool {
        self.spill_elimination
    }

    /// Validates configuration invariants.
    pub fn validate(&self) -> Result<()> {
        self.policy.validate()
    }

    /// The current cutoff key, if established.
    pub fn cutoff(&self) -> Option<&K> {
        self.cutoff.as_ref()
    }

    /// True once a cutoff key has been established (`Σcount ≥ k`).
    pub fn established(&self) -> bool {
        self.cutoff.is_some()
    }

    /// Controls the cached normalized-prefix fast path in
    /// [`CutoffFilter::eliminate`] (on by default).
    pub fn with_norm_prefix(mut self, enabled: bool) -> Self {
        self.norm_prefix_enabled = enabled;
        self
    }

    /// Switches the filter to distinct (dedup) mode: an exact tracker of
    /// the best `k` *distinct* keys replaces the row-count histogram as the
    /// cutoff source. Bucket callbacks from the spill path become no-ops —
    /// their row counts are meaningless when the limit counts groups.
    pub fn with_distinct_tracking(mut self) -> Self {
        self.distinct = Some(DistinctTracker::new(self.k, self.order));
        self
    }

    /// True when the filter runs in distinct (dedup) mode.
    pub fn distinct_mode(&self) -> bool {
        self.distinct.is_some()
    }

    /// Distinct-mode input filtering (Algorithm 1 line 4 adapted to a
    /// DISTINCT limit): classifies `key` against the tracker and tightens
    /// the cutoff when the tracker's worst retained key improves. Returns
    /// [`DistinctVerdict::Admit`] unconditionally outside distinct mode.
    pub fn observe_input(&mut self, key: &K) -> DistinctVerdict {
        let Some(tracker) = &mut self.distinct else { return DistinctVerdict::Admit };
        let verdict = tracker.observe(key);
        // Only an `Admit` changes the tracker, and with it the cutoff it proves.
        let proved = tracker.cutoff().filter(|_| verdict == DistinctVerdict::Admit);
        if let Some(cut) = proved {
            let tighter = match &self.cutoff {
                Some(cur) => self.order.precedes(cut, cur),
                None => true,
            };
            if tighter {
                let cut = cut.clone();
                self.set_cutoff(cut);
            }
        }
        verdict
    }

    /// Installs a new cutoff key and refreshes its cached normalized
    /// prefix. All cutoff updates funnel through here.
    fn set_cutoff(&mut self, key: K) {
        #[cfg(debug_assertions)]
        if let Some(shadow) = &mut self.shadow {
            shadow.tightened(&key, self.order);
        }
        if self.norm_prefix_enabled {
            self.cutoff_prefix = key.norm_prefix();
        }
        self.cutoff = Some(key);
        self.metrics.refinements += 1;
    }

    /// The paper's `eliminate(row)`: true iff a cutoff exists and `key`
    /// sorts strictly after it. Rows equal to the cutoff are kept so that
    /// duplicate keys around the kth position are never lost.
    ///
    /// With the prefix fast path on, a differing normalized 8-byte prefix
    /// decides the check with one integer compare; only keys matching the
    /// cutoff's prefix (and wider than 8 normalized bytes) pay a full
    /// comparison.
    #[inline]
    pub fn eliminate(&self, key: &K) -> bool {
        match &self.cutoff {
            Some(cut) => {
                if self.norm_prefix_enabled {
                    let p = key.norm_prefix();
                    if p != self.cutoff_prefix {
                        return match self.order {
                            SortOrder::Ascending => p > self.cutoff_prefix,
                            SortOrder::Descending => p < self.cutoff_prefix,
                        };
                    }
                    if K::norm_prefix_is_exact() {
                        return false; // equal keys: ties survive
                    }
                }
                self.order.follows(key, cut)
            }
            None => false,
        }
    }

    /// Inserts one bucket into the input model and sharpens the cutoff.
    pub fn insert_bucket(&mut self, bucket: Bucket<K>) {
        debug_assert!(bucket.count > 0, "empty buckets carry no information");
        self.metrics.buckets_inserted += 1;
        self.used_bytes += bucket.footprint();
        self.sum += bucket.count;
        self.heap.push(bucket);
        self.sharpen();
        if self.used_bytes > self.memory_budget && self.heap.len() > 1 {
            self.consolidate();
        }
    }

    /// Pops buckets while doing so keeps at least `k` rows represented,
    /// then refreshes the cutoff key.
    fn sharpen(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.sum - top.count >= self.k {
                let popped = self.heap.pop().expect("peeked");
                self.sum -= popped.count;
                self.used_bytes = self.used_bytes.saturating_sub(popped.footprint());
                self.metrics.buckets_popped += 1;
            } else {
                break;
            }
        }
        if self.sum >= self.k {
            let top = self.heap.peek().expect("sum ≥ k implies a bucket");
            let tightened = match &self.cutoff {
                Some(cur) => self.order.precedes(&top.boundary, cur),
                None => true,
            };
            if tightened {
                // The cutoff is monotone: input filtering guarantees no new
                // boundary sorts after the current cutoff.
                let boundary = top.boundary.clone();
                self.set_cutoff(boundary);
                self.assert_covers_k();
            }
        }
    }

    /// §5.1.2 consolidation: replace every queued bucket with a single one
    /// carrying the current top boundary and the total count. Costs one
    /// insertion; loses resolution but never validity.
    fn consolidate(&mut self) {
        let Some(top) = self.heap.peek() else { return };
        let merged = Bucket::new(top.boundary.clone(), self.sum);
        let fp = merged.footprint();
        self.heap.drain_unordered();
        self.heap.push(merged);
        self.used_bytes = fp;
        self.metrics.consolidations += 1;
        self.assert_covers_k();
    }

    /// Debug builds: reports a spilled row to the shadow count, starting
    /// it. Filters that see rows through [`SpillObserver::row_spilled`] do
    /// this themselves; a shared filter fed by workers is told here.
    #[cfg(debug_assertions)]
    pub(crate) fn shadow_spilled(&mut self, key: &K) {
        let shadow =
            self.shadow.get_or_insert_with(|| Shadow { keys: Default::default(), count: 0 });
        shadow.spilled(key, self.cutoff.as_ref(), self.order);
    }

    /// Debug builds: the paper's invariant, that a published cutoff covers
    /// at least `k` spilled rows, checked against the shadow count.
    fn assert_covers_k(&self) {
        #[cfg(debug_assertions)]
        if let (Some(shadow), Some(cut)) = (&self.shadow, &self.cutoff) {
            debug_assert!(
                shadow.count >= self.k,
                "cutoff {cut:?} covers {} spilled rows, fewer than k = {}",
                shadow.count,
                self.k
            );
        }
    }

    /// Externally tightens the cutoff (merge refinement, §4.1). The caller
    /// must guarantee at least `k` rows sort at or before `key` — true for
    /// the last key of any `k`-row merge output. Ignored if not tighter.
    pub fn tighten(&mut self, key: &K) {
        let tighter = match &self.cutoff {
            Some(cur) => self.order.precedes(key, cur),
            None => true,
        };
        if tighter {
            self.set_cutoff(key.clone());
        }
    }

    /// Rows currently represented by the queue.
    pub fn represented_rows(&self) -> u64 {
        self.sum
    }

    /// Buckets currently queued.
    pub fn bucket_count(&self) -> usize {
        self.heap.len()
    }

    /// Approximate bytes used by the queue.
    pub fn memory_used(&self) -> usize {
        self.used_bytes
    }

    /// Activity counters.
    pub fn metrics(&self) -> FilterMetrics {
        self.metrics
    }

    /// The `k` this filter targets.
    pub fn k(&self) -> u64 {
        self.k
    }
}

impl<K: SortKey> SpillObserver<K> for CutoffFilter<K> {
    fn run_started(&mut self, estimated_rows: u64) {
        if self.distinct.is_some() {
            return; // distinct mode: row-count buckets carry no information
        }
        let width = self.policy.width_for_run(estimated_rows.max(1));
        self.builder.start_run(width, self.policy.max_buckets_per_run());
    }

    fn should_eliminate(&mut self, key: &K) -> bool {
        let kill = self.spill_elimination && self.eliminate(key);
        if kill {
            self.metrics.eliminated_at_spill += 1;
        }
        kill
    }

    fn row_spilled(&mut self, key: &K) {
        if self.distinct.is_some() {
            return;
        }
        #[cfg(debug_assertions)]
        self.shadow_spilled(key);
        if let Some(bucket) = self.builder.offer(key) {
            self.insert_bucket(bucket);
        }
    }

    fn run_finished(&mut self) {
        if self.distinct.is_some() {
            return;
        }
        if let Some(tail) = self.builder.finish_run(self.emit_tail) {
            self.insert_bucket(tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_types::F64Key;
    use std::collections::BTreeSet;

    /// Inserts the decile buckets of one §3.2.1-style run: boundaries at
    /// `scale * i/10` for i = 1..=9, 100 rows each.
    fn insert_decile_run(f: &mut CutoffFilter<F64Key>, scale: f64) {
        for i in 1..=9 {
            f.insert_bucket(Bucket::new(F64Key(scale * i as f64 / 10.0), 100));
        }
    }

    #[test]
    fn no_cutoff_until_k_rows_represented() {
        let mut f: CutoffFilter<F64Key> = CutoffFilter::new(5000, SortOrder::Ascending);
        for _ in 0..5 {
            insert_decile_run(&mut f, 1.0);
        }
        // 5 runs × 900 rows = 4500 < 5000 → nothing established.
        assert!(!f.established());
        assert!(!f.eliminate(&F64Key(0.99)));
    }

    #[test]
    fn paper_trace_cutoff_after_run_six_is_0_9() {
        // §3.2.1: "after run 6 ... eliminate rows with keys above 0.9,
        // because 6 * 900 = 5,400 > 5,000".
        let mut f: CutoffFilter<F64Key> = CutoffFilter::new(5000, SortOrder::Ascending);
        for _ in 0..6 {
            insert_decile_run(&mut f, 1.0);
        }
        assert_eq!(f.cutoff(), Some(&F64Key(0.9)));
        assert!(f.eliminate(&F64Key(0.91)));
        assert!(!f.eliminate(&F64Key(0.9))); // ties survive
        assert_eq!(f.represented_rows(), 5000);
    }

    #[test]
    fn paper_trace_run_seven_ends_at_0_72() {
        let mut f: CutoffFilter<F64Key> = CutoffFilter::new(5000, SortOrder::Ascending);
        for _ in 0..6 {
            insert_decile_run(&mut f, 1.0);
        }
        // Run 7's deciles are 0.09 * i (scale 0.9). Insert while the next
        // boundary survives the current cutoff, exactly like run generation.
        let mut written = Vec::new();
        for i in 1..=9 {
            let b = F64Key(0.9 * i as f64 / 10.0);
            if f.eliminate(&b) {
                break;
            }
            f.insert_bucket(Bucket::new(b, 100));
            written.push(b.get());
        }
        // §3.2.1: run 7 ends with key value 0.72 (8 buckets written).
        assert_eq!(written.len(), 8);
        assert!((written[7] - 0.72).abs() < 1e-12);
        assert_eq!(f.cutoff().unwrap().get(), 0.72);
    }

    #[test]
    fn paper_trace_run_eight_yields_0_6() {
        let mut f: CutoffFilter<F64Key> = CutoffFilter::new(5000, SortOrder::Ascending);
        for _ in 0..6 {
            insert_decile_run(&mut f, 1.0);
        }
        for i in 1..=8 {
            f.insert_bucket(Bucket::new(F64Key(0.9 * i as f64 / 10.0), 100));
        }
        assert_eq!(f.cutoff().unwrap().get(), 0.72);
        // Run 8: deciles 0.072 * i, scale = 0.72.
        let mut last = None;
        for i in 1..=9 {
            let b = F64Key(0.72 * i as f64 / 10.0);
            if f.eliminate(&b) {
                break;
            }
            f.insert_bucket(Bucket::new(b, 100));
            last = Some(b.get());
        }
        // §3.2.1: "After run 8, the new cutoff key is 0.6".
        assert_eq!(f.cutoff().unwrap().get(), 0.6);
        assert!((last.unwrap() - 0.576).abs() < 1e-12);
    }

    /// A bucket claiming more rows than were spilled publishes a cutoff
    /// that covers fewer than `k`: debug builds stop there.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "fewer than k = 5")]
    fn a_cutoff_covering_fewer_than_k_spilled_rows_panics_in_debug() {
        let mut f: CutoffFilter<u64> = CutoffFilter::new(5, SortOrder::Ascending);
        for key in [1, 2, 3, 4] {
            f.row_spilled(&key);
        }
        f.insert_bucket(Bucket::new(4, 5));
    }

    #[test]
    fn cutoff_is_monotone_under_any_insertions() {
        let mut f: CutoffFilter<u64> = CutoffFilter::new(10, SortOrder::Ascending);
        let mut last: Option<u64> = None;
        for boundary in [100u64, 90, 95, 80, 85, 70, 60, 65, 50] {
            f.insert_bucket(Bucket::new(boundary, 5));
            if let (Some(prev), Some(cur)) = (last, f.cutoff().copied()) {
                assert!(cur <= prev, "cutoff went backwards: {prev} -> {cur}");
            }
            last = f.cutoff().copied();
        }
    }

    #[test]
    fn descending_queries_mirror() {
        // Top-k LARGEST: cutoff sits below, rows smaller than it die.
        let mut f: CutoffFilter<u64> = CutoffFilter::new(4, SortOrder::Descending);
        f.insert_bucket(Bucket::new(80, 2));
        f.insert_bucket(Bucket::new(60, 2));
        assert_eq!(f.cutoff(), Some(&60));
        assert!(f.eliminate(&59));
        assert!(!f.eliminate(&60));
        assert!(!f.eliminate(&100));
        f.insert_bucket(Bucket::new(90, 2));
        // 90,80,60 represent 6 ≥ 4; popping 60 keeps 4 → cutoff 80.
        assert_eq!(f.cutoff(), Some(&80));
    }

    #[test]
    fn consolidation_collapses_to_one_bucket_and_stays_valid() {
        let mut f: CutoffFilter<u64> =
            CutoffFilter::new(100, SortOrder::Ascending).with_memory_budget(64);
        for i in 0..50u64 {
            f.insert_bucket(Bucket::new(1000 - i, 10));
        }
        assert!(f.metrics().consolidations > 0, "tiny budget must consolidate");
        assert!(f.bucket_count() < 50);
        // Validity: the cutoff still represents ≥ k rows.
        assert!(f.established());
        assert!(f.represented_rows() >= 100);
        // And elimination still behaves.
        let cut = *f.cutoff().unwrap();
        assert!(f.eliminate(&(cut + 1)));
        assert!(!f.eliminate(&(cut - 1)));
    }

    #[test]
    fn consolidation_costs_resolution_not_correctness() {
        // After consolidation the single bucket pins sum at the top
        // boundary; further buckets keep sharpening below it.
        let mut f: CutoffFilter<u64> =
            CutoffFilter::new(10, SortOrder::Ascending).with_memory_budget(64);
        for i in 0..30u64 {
            f.insert_bucket(Bucket::new(500 + i, 1));
        }
        let after_consolidation = *f.cutoff().unwrap();
        for i in 0..20u64 {
            f.insert_bucket(Bucket::new(10 + i, 1));
        }
        assert!(*f.cutoff().unwrap() <= after_consolidation);
    }

    #[test]
    fn observer_path_builds_buckets_from_spills() {
        use histok_sort::SpillObserver;
        let mut f: CutoffFilter<u64> =
            CutoffFilter::with_policy(6, SortOrder::Ascending, SizingPolicy::TargetBuckets(4));
        // Run of estimated 10 rows → width 2.
        f.run_started(10);
        let mut spilled = Vec::new();
        for key in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            if !f.should_eliminate(&key) {
                f.row_spilled(&key);
                spilled.push(key);
            }
        }
        f.run_finished();
        // Buckets (2,2) (4,2) (6,2): after (6,2) the sum hits k=6 and the
        // cutoff 6 eliminates the rest of the very same run — the paper's
        // "the cutoff key may be sharpened and used to eliminate parts of
        // the same, currently being written, run" (§3.1.2).
        assert_eq!(spilled, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(f.cutoff(), Some(&6));
        assert_eq!(f.metrics().eliminated_at_spill, 4);
        // A second run keeps being filtered at spill time.
        f.run_started(10);
        assert!(f.should_eliminate(&7));
        assert!(!f.should_eliminate(&6));
        assert_eq!(f.metrics().eliminated_at_spill, 5);
    }

    #[test]
    fn tail_buckets_add_information() {
        use histok_sort::SpillObserver;
        let mk = |tail: bool| {
            let mut f: CutoffFilter<u64> =
                CutoffFilter::with_policy(4, SortOrder::Ascending, SizingPolicy::FixedWidth(3))
                    .with_tail_buckets(tail);
            f.run_started(5);
            for key in [1u64, 2, 3, 4, 5] {
                f.row_spilled(&key);
            }
            f.run_finished();
            f.cutoff().copied()
        };
        // Width 3 over 5 rows: bucket (3,3) plus tail (5,2).
        assert_eq!(mk(true), Some(5)); // 3+2 = 5 ≥ 4 → cutoff 5
        assert_eq!(mk(false), None); // only 3 rows represented
    }

    #[test]
    fn tighten_only_tightens() {
        let mut f: CutoffFilter<u64> = CutoffFilter::new(2, SortOrder::Ascending);
        f.insert_bucket(Bucket::new(50, 2));
        assert_eq!(f.cutoff(), Some(&50));
        f.tighten(&60); // looser → ignored
        assert_eq!(f.cutoff(), Some(&50));
        f.tighten(&40);
        assert_eq!(f.cutoff(), Some(&40));
        assert!(f.eliminate(&41));
    }

    #[test]
    fn k_of_zero_is_clamped() {
        let f: CutoffFilter<u64> = CutoffFilter::new(0, SortOrder::Ascending);
        assert_eq!(f.k(), 1);
    }

    #[test]
    fn prefix_fast_path_agrees_with_full_comparison() {
        use histok_types::BytesKey;
        // Byte keys sharing 8+ byte prefixes with the cutoff force the
        // full-comparison fallback; everything else must be decided by the
        // prefix with the same verdict as the slow path.
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let cut = BytesKey::from("prefix-prefix-m");
            let mk = |fast: bool| {
                let mut f: CutoffFilter<BytesKey> =
                    CutoffFilter::new(2, order).with_norm_prefix(fast);
                f.insert_bucket(Bucket::new(cut.clone(), 2));
                f
            };
            let (fast, slow) = (mk(true), mk(false));
            let probes = [
                "prefix-prefix-a",
                "prefix-prefix-m",
                "prefix-prefix-mm", // extends the cutoff
                "prefix-prefix-z",
                "prefix",
                "a",
                "z",
                "",
                "prefix-prefix-m\u{0}", // embedded NUL past the cutoff
            ];
            for p in probes {
                let key = BytesKey::from(p);
                assert_eq!(
                    fast.eliminate(&key),
                    slow.eliminate(&key),
                    "probe {p:?}, order {order:?}"
                );
            }
        }
        // Exact-prefix keys (u64) never fall back and still agree.
        let mut fast: CutoffFilter<u64> = CutoffFilter::new(2, SortOrder::Ascending);
        fast.insert_bucket(Bucket::new(100, 2));
        assert!(fast.eliminate(&101));
        assert!(!fast.eliminate(&100));
        assert!(!fast.eliminate(&99));
    }

    #[test]
    fn tighten_refreshes_the_cached_prefix() {
        let mut f: CutoffFilter<u64> = CutoffFilter::new(2, SortOrder::Ascending);
        f.insert_bucket(Bucket::new(50, 2));
        assert!(f.eliminate(&51));
        f.tighten(&40);
        // The fast path must see the new cutoff, not the stale prefix.
        assert!(f.eliminate(&41));
        assert!(!f.eliminate(&40));
    }

    #[test]
    fn distinct_tracking_counts_groups_not_rows() {
        // The counterexample that makes row-count cutoffs unsound under
        // dedup (DESIGN.md §14): k = 2, 100 copies of key 5, then key 6.
        // A histogram would see 100 rows ≤ 5, establish cutoff 5 and kill
        // key 6 — the true second-best group. The tracker never does.
        let mut f: CutoffFilter<u64> =
            CutoffFilter::new(2, SortOrder::Ascending).with_distinct_tracking();
        assert!(f.distinct_mode());
        assert_eq!(f.observe_input(&5), DistinctVerdict::Admit);
        for _ in 0..99 {
            assert_eq!(f.observe_input(&5), DistinctVerdict::Duplicate);
        }
        assert!(f.cutoff().is_none(), "one distinct key proves nothing for k = 2");
        assert!(!f.eliminate(&6));
        assert_eq!(f.observe_input(&6), DistinctVerdict::Admit);
        assert_eq!(f.cutoff(), Some(&6), "two distinct keys tracked: worst is the cutoff");
        assert_eq!(f.observe_input(&7), DistinctVerdict::Worse);
        assert_eq!(f.observe_input(&4), DistinctVerdict::Admit); // evicts 6
        assert_eq!(f.cutoff(), Some(&5));
        assert_eq!(f.observe_input(&6), DistinctVerdict::Worse, "evicted groups stay out");
        // Spill-side elimination keeps ties, kills strictly-worse keys.
        assert!(f.eliminate(&6));
        assert!(!f.eliminate(&5));
    }

    #[test]
    fn distinct_tracking_descending() {
        let mut f: CutoffFilter<u64> =
            CutoffFilter::new(2, SortOrder::Descending).with_distinct_tracking();
        assert_eq!(f.observe_input(&10), DistinctVerdict::Admit);
        assert_eq!(f.observe_input(&20), DistinctVerdict::Admit);
        assert_eq!(f.cutoff(), Some(&10));
        assert_eq!(f.observe_input(&5), DistinctVerdict::Worse);
        assert_eq!(f.observe_input(&30), DistinctVerdict::Admit); // evicts 10
        assert_eq!(f.cutoff(), Some(&20));
    }

    #[test]
    fn distinct_mode_ignores_spill_buckets() {
        use histok_sort::SpillObserver;
        // 100 spilled copies of one key would hand a row-count histogram a
        // cutoff immediately; in distinct mode the spill path must feed
        // nothing into the input model.
        let mut f: CutoffFilter<u64> =
            CutoffFilter::with_policy(4, SortOrder::Ascending, SizingPolicy::FixedWidth(2))
                .with_distinct_tracking();
        f.run_started(100);
        for _ in 0..100 {
            f.row_spilled(&1);
        }
        f.run_finished();
        assert_eq!(f.metrics().buckets_inserted, 0);
        assert!(f.cutoff().is_none());
    }

    /// The tracker as it was before the hash set: one ordered set answers
    /// both questions by descent. Kept as the reference for
    /// `tracker_answers_what_the_btreeset_answered`.
    struct BTreeSetTracker<K> {
        set: BTreeSet<K>,
        target: usize,
        order: SortOrder,
    }

    impl<K: SortKey> BTreeSetTracker<K> {
        fn worst(&self) -> Option<&K> {
            match self.order {
                SortOrder::Ascending => self.set.iter().next_back(),
                SortOrder::Descending => self.set.iter().next(),
            }
        }

        fn cutoff(&self) -> Option<&K> {
            if self.set.len() >= self.target {
                self.worst()
            } else {
                None
            }
        }

        fn observe(&mut self, key: &K) -> DistinctVerdict {
            if self.set.contains(key) {
                return DistinctVerdict::Duplicate;
            }
            if self.set.len() >= self.target {
                let worst = self.worst().expect("full tracker has a worst key");
                if self.order.follows(key, worst) {
                    return DistinctVerdict::Worse;
                }
                let worst = worst.clone();
                self.set.remove(&worst);
            }
            self.set.insert(key.clone());
            DistinctVerdict::Admit
        }
    }

    /// One stream through both trackers: same verdict and same cutoff after
    /// every step, same tracked keys at the end. Returns the verdict counts
    /// (admit, duplicate, worse) summed over all cells.
    fn same_answers<K: SortKey>(keys: &[K]) -> [usize; 3] {
        let mut seen = [0; 3];
        for target in [1, 2, 57, 4_000] {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let mut new = DistinctTracker::new(target, order);
                let mut old =
                    BTreeSetTracker { set: BTreeSet::new(), target: target as usize, order };
                for (i, key) in keys.iter().enumerate() {
                    let verdict = new.observe(key);
                    assert_eq!(verdict, old.observe(key), "row {i} {key:?} k={target} {order:?}");
                    assert_eq!(new.cutoff(), old.cutoff(), "row {i} {key:?} k={target} {order:?}");
                    seen[verdict as usize] += 1;
                }
                assert_eq!(new.set.len(), new.heap.len());
                let tracked: BTreeSet<K> = new.heap.iter().cloned().collect();
                assert_eq!(tracked, old.set, "k={target} {order:?}: tracked keys");
                assert!(old.set.iter().all(|key| new.set.contains(key)));
            }
        }
        seen
    }

    #[test]
    fn tracker_answers_what_the_btreeset_answered() {
        use histok_types::{BytesKey, KeyPair};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const ROWS: usize = 20_000;
        let mut rng = StdRng::seed_from_u64(24);
        let mut stream = |f: &mut dyn FnMut(&mut StdRng) -> u64| -> Vec<u64> {
            (0..ROWS).map(|_| f(&mut rng)).collect()
        };
        // Duplicate-heavy: never fills a tracker of 57.
        let few = stream(&mut |rng| rng.gen::<u64>() % 37);
        // Zipf-like: a hot head that recurs, a long tail of first sightings.
        let skewed = stream(&mut |rng| (400_000.0 * rng.gen::<f64>().powi(6)) as u64);
        // Negatives, both zeros, a narrow hot band inside a wide range.
        let floats: Vec<F64Key> = stream(&mut |rng| rng.gen::<u64>())
            .into_iter()
            .map(|r| match r % 50 {
                0 => F64Key(0.0),
                1 => F64Key(-0.0),
                2..=25 => F64Key(((r >> 8) % 1_000) as f64 / 16.0 - 31.25),
                _ => F64Key(((r >> 8) % 80_000) as f64 / 16.0 - 2_500.0),
            })
            .collect();
        let bytes = |v: u64| BytesKey::new(format!("nine-byte{v:06}"));
        let strings: Vec<BytesKey> = skewed.iter().map(|&v| bytes(v % 9_000)).collect();
        let pairs: Vec<KeyPair<u64, BytesKey>> =
            few.iter().zip(&skewed).map(|(&a, &b)| KeyPair(a, bytes(b % 300))).collect();

        let mut seen = same_answers(&few);
        for more in [
            same_answers(&skewed),
            same_answers(&floats),
            same_answers(&strings),
            same_answers(&pairs),
        ] {
            assert!(more.iter().all(|&n| n > 0), "every stream meets every verdict: {more:?}");
            seen.iter_mut().zip(more).for_each(|(n, m)| *n += m);
        }
        assert_eq!(seen.iter().sum::<usize>(), 5 * 8 * ROWS);
    }

    /// `HashSet` takes the bucket from a hash's low bits and a 7-bit tag from
    /// its top: keys that differ only in their high bits (doubles with short
    /// mantissas) or only in their last bytes (strings sharing a prefix)
    /// must still spread over both. The budget is deterministic — distinct
    /// start buckets and tag shares, not a timer — and a hash that leaves
    /// the low bits a function of the key's low bits misses it by orders of
    /// magnitude (a bare multiply reaches one bucket for the doubles, the
    /// same followed by `h ^= h >> 29` reaches 512).
    #[test]
    fn tracker_hash_spreads_keys_that_share_their_low_bits_or_prefix() {
        use histok_types::BytesKey;
        const KEYS: usize = 60_000;
        // What a set of 60,000 allocates: 8/7 of the keys, next power of two.
        const BUCKETS: u64 = 131_072;

        fn check<K: SortKey>(keys: Vec<K>) {
            for seed in [0, 1, 0x243F_6A88_85A3_08D3, u64::MAX] {
                let hasher = KeyHashSeed(seed);
                let mut buckets = HashSet::new();
                let mut tags = [0usize; 128];
                for key in &keys {
                    let hash = hasher.hash_one(key);
                    buckets.insert(hash % BUCKETS);
                    tags[(hash >> 57) as usize] += 1;
                }
                // Uniform hashing reaches 131,072 × (1 − e^(−60,000/131,072))
                // ≈ 48,150 distinct buckets and gives every tag 469 keys; a
                // multiplicative hash of evenly spaced keys lands above or
                // below that (37,235 for the doubles at seed 0), never near
                // the failures.
                let reached = buckets.len();
                assert!(reached >= 30_000, "seed {seed}: {reached} start buckets, {KEYS} keys");
                let worst_tag = tags.iter().max().expect("128 tags");
                assert!(*worst_tag <= 2 * KEYS / 128, "seed {seed}: a tag holds {worst_tag} keys");
            }

            // And the tracker itself: every key is new once, then known.
            let mut tracker = DistinctTracker::new(KEYS as u64, SortOrder::Ascending);
            assert!(keys.iter().all(|key| tracker.observe(key) == DistinctVerdict::Admit));
            assert!(keys.iter().all(|key| tracker.observe(key) == DistinctVerdict::Duplicate));
            assert_eq!(tracker.cutoff(), keys.iter().max());
        }

        // Low 36 bits of every key zero; 0.5 and its like among them.
        check((0..KEYS).map(|i| F64Key(i as f64 / 65_536.0)).collect());
        check((0..KEYS).map(|i| BytesKey::new(format!("twelve-bytes{i:06}"))).collect());
    }

    #[test]
    fn never_eliminates_a_true_top_k_key() {
        // Adversarial mix of bucket sizes: the invariant Σcount ≥ k over
        // keys ≤ cutoff must protect every true top-k key.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let k = 57u64;
        let mut f: CutoffFilter<u64> = CutoffFilter::new(k, SortOrder::Ascending);
        let mut spilled: Vec<u64> = Vec::new();
        for _ in 0..2000 {
            let key: u64 = rng.gen_range(0..100_000);
            if f.eliminate(&key) {
                continue; // eliminated rows are by definition > cutoff
            }
            spilled.push(key);
            // Every spilled row becomes its own bucket (width-1 extreme).
            f.insert_bucket(Bucket::new(key, 1));
        }
        // The k smallest *spilled* keys must be the k smallest overall:
        // elimination only ever removed keys > some valid cutoff, i.e. keys
        // with ≥ k spilled keys below them.
        spilled.sort_unstable();
        let kth = spilled[(k - 1) as usize];
        assert!(f.cutoff().is_some());
        assert!(
            *f.cutoff().unwrap() >= kth,
            "cutoff {} below true kth spilled key {kth}",
            f.cutoff().unwrap()
        );
    }
}
