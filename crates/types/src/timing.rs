//! Phase timing and latency accounting for operators and storage.
//!
//! Observability primitives shared by every layer:
//!
//! * [`PhaseTimer`] / [`PhaseTotals`] — wall-clock attribution of an
//!   operator's lifetime to its coarse execution phases (in-memory
//!   accumulation, run generation, spill writes, final merge). A phase
//!   transition costs exactly one `Instant::now()` call; nothing here runs
//!   per row.
//! * [`LatencyHistogram`] / [`LatencySnapshot`] — fixed-size log₂-bucketed
//!   request-latency histograms for storage I/O, cheap enough to record on
//!   every block request (one atomic add per bucket/count/sum plus a
//!   `fetch_max`).
//!
//! All snapshot types are `Copy + Send` so they can be embedded in operator
//! metrics structs and diffed between points in time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The coarse execution phases of a top-k operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1: rows accumulate in the in-memory priority queue.
    InMemory,
    /// Phase 2: run generation (includes filtering and spilling decisions).
    RunGeneration,
    /// Final merge: reading runs back and producing output rows.
    FinalMerge,
}

/// Accumulated nanoseconds per phase.
///
/// `spill_write_ns` is not driven by [`PhaseTimer`] (spill writes happen
/// *inside* run generation); operators populate it from the storage layer's
/// write-latency histogram so the breakdown still sums sensibly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Time spent in the in-memory priority-queue phase.
    pub in_memory_ns: u64,
    /// Time spent in the run-generation phase (spill writes included).
    pub run_generation_ns: u64,
    /// Time spent issuing spill-write requests (subset of run generation,
    /// measured by the storage layer).
    pub spill_write_ns: u64,
    /// Time the query thread was blocked on run generation's worker:
    /// handing it a batch while two were outstanding, or waiting for it at a
    /// barrier (`metrics`, `cutoff`, `finish`). A subset of run generation.
    pub rungen_wait_ns: u64,
    /// Time spent producing the final merged output stream.
    pub final_merge_ns: u64,
}

impl PhaseTotals {
    /// Sum of the timer-driven phases (spill writes excluded — they are a
    /// subset of run generation, not an additional phase).
    pub fn total_ns(&self) -> u64 {
        self.in_memory_ns.saturating_add(self.run_generation_ns).saturating_add(self.final_merge_ns)
    }

    /// Element-wise sum, used when aggregating per-worker totals.
    pub fn merged(&self, other: &PhaseTotals) -> PhaseTotals {
        PhaseTotals {
            in_memory_ns: self.in_memory_ns.saturating_add(other.in_memory_ns),
            run_generation_ns: self.run_generation_ns.saturating_add(other.run_generation_ns),
            spill_write_ns: self.spill_write_ns.saturating_add(other.spill_write_ns),
            rungen_wait_ns: self.rungen_wait_ns.saturating_add(other.rungen_wait_ns),
            final_merge_ns: self.final_merge_ns.saturating_add(other.final_merge_ns),
        }
    }
}

/// Attributes wall-clock time to [`Phase`]s.
///
/// One phase is live at a time; [`PhaseTimer::enter`] closes the previous
/// phase and opens the next with a single `Instant::now()` call, so the
/// instrumentation cost is independent of row count.
#[derive(Debug)]
pub struct PhaseTimer {
    current: Option<(Phase, Instant)>,
    totals: PhaseTotals,
}

impl Default for PhaseTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseTimer {
    /// An idle timer with zero totals.
    pub fn new() -> Self {
        PhaseTimer { current: None, totals: PhaseTotals::default() }
    }

    /// A timer already running `phase` (convenience for operators that are
    /// born in a phase).
    pub fn started(phase: Phase) -> Self {
        let mut t = Self::new();
        t.enter(phase);
        t
    }

    fn credit(&mut self, phase: Phase, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let slot = match phase {
            Phase::InMemory => &mut self.totals.in_memory_ns,
            Phase::RunGeneration => &mut self.totals.run_generation_ns,
            Phase::FinalMerge => &mut self.totals.final_merge_ns,
        };
        *slot = slot.saturating_add(ns);
    }

    /// Closes the live phase (if any) and opens `phase`. Re-entering the
    /// live phase banks its elapsed time and restarts it.
    pub fn enter(&mut self, phase: Phase) {
        let now = Instant::now();
        if let Some((prev, since)) = self.current.take() {
            self.credit(prev, now - since);
        }
        self.current = Some((phase, now));
    }

    /// Closes the live phase without opening another.
    pub fn stop(&mut self) {
        let now = Instant::now();
        if let Some((prev, since)) = self.current.take() {
            self.credit(prev, now - since);
        }
    }

    /// The phase currently being timed.
    pub fn current_phase(&self) -> Option<Phase> {
        self.current.map(|(p, _)| p)
    }

    /// Totals including the live phase's elapsed-so-far, without stopping.
    pub fn snapshot(&self) -> PhaseTotals {
        let mut totals = self.totals;
        if let Some((phase, since)) = self.current {
            let ns = since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let slot = match phase {
                Phase::InMemory => &mut totals.in_memory_ns,
                Phase::RunGeneration => &mut totals.run_generation_ns,
                Phase::FinalMerge => &mut totals.final_merge_ns,
            };
            *slot = slot.saturating_add(ns);
        }
        totals
    }
}

/// Number of log₂ latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 additionally holds 0 ns), so the
/// histogram spans 1 ns to ~4.3 s with the last bucket catching overflow.
pub const LATENCY_BUCKETS: usize = 32;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A shared, thread-safe log₂-bucketed latency histogram.
///
/// Cloning is cheap (an `Arc` bump); all clones record into the same
/// buckets. Recording is four relaxed atomic operations — affordable per
/// storage block request, which is the intended granularity (never per row).
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    inner: Arc<HistogramInner>,
}

fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (63 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
    }
}

/// Upper edge (exclusive) of bucket `i` in nanoseconds.
fn bucket_upper_ns(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample given directly in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let inner = &*self.inner;
        inner.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.total_ns.fetch_add(ns, Ordering::Relaxed);
        inner.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> LatencySnapshot {
        let inner = &*self.inner;
        LatencySnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            total_ns: inner.total_ns.load(Ordering::Relaxed),
            max_ns: inner.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Sample counts per log₂ bucket (`buckets[i]` covers `[2^i, 2^(i+1))`
    /// ns; bucket 0 also holds zero-latency samples).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample latencies in nanoseconds.
    pub total_ns: u64,
    /// The largest single sample in nanoseconds.
    pub max_ns: u64,
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot { buckets: [0; LATENCY_BUCKETS], count: 0, total_ns: 0, max_ns: 0 }
    }
}

impl LatencySnapshot {
    /// The latency (ns) at quantile `q` in `[0, 1]`, estimated as the upper
    /// edge of the bucket where the cumulative count crosses `q · count`
    /// (capped at the observed maximum). Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency estimate in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile latency estimate in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// Mean latency in nanoseconds (0 for an empty histogram).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Bucket-wise sum with `other`, used when aggregating sub-operator
    /// histograms (e.g. segments or groups) into one.
    pub fn merged(&self, other: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_add(other.buckets[i])),
            count: self.count.saturating_add(other.count),
            total_ns: self.total_ns.saturating_add(other.total_ns),
            max_ns: self.max_ns.max(other.max_ns),
        }
    }

    /// Bucket-wise difference `self - earlier`, saturating at zero. The
    /// `max_ns` of a diff is `self`'s max (maxima are not subtractable).
    pub fn since(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            max_ns: self.max_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timer_attributes_time_to_phases() {
        let mut t = PhaseTimer::started(Phase::InMemory);
        std::thread::sleep(Duration::from_millis(5));
        t.enter(Phase::RunGeneration);
        std::thread::sleep(Duration::from_millis(5));
        t.enter(Phase::FinalMerge);
        t.stop();
        let totals = t.snapshot();
        assert!(totals.in_memory_ns >= 4_000_000, "in_memory {}", totals.in_memory_ns);
        assert!(totals.run_generation_ns >= 4_000_000);
        assert_eq!(t.current_phase(), None);
        assert_eq!(
            totals.total_ns(),
            totals.in_memory_ns + totals.run_generation_ns + totals.final_merge_ns
        );
    }

    #[test]
    fn phase_timer_snapshot_includes_live_phase() {
        let mut t = PhaseTimer::new();
        t.enter(Phase::FinalMerge);
        std::thread::sleep(Duration::from_millis(2));
        let snap = t.snapshot();
        assert!(snap.final_merge_ns > 0);
        assert_eq!(t.current_phase(), Some(Phase::FinalMerge));
    }

    #[test]
    fn phase_totals_merge_elementwise() {
        let a = PhaseTotals {
            in_memory_ns: 1,
            run_generation_ns: 2,
            spill_write_ns: 3,
            rungen_wait_ns: 5,
            final_merge_ns: 4,
        };
        let b = PhaseTotals {
            in_memory_ns: 10,
            run_generation_ns: 20,
            spill_write_ns: 30,
            rungen_wait_ns: 50,
            final_merge_ns: 40,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            PhaseTotals {
                in_memory_ns: 11,
                run_generation_ns: 22,
                spill_write_ns: 33,
                rungen_wait_ns: 55,
                final_merge_ns: 44
            }
        );
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::new();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 0
        h.record_ns(2); // bucket 1
        h.record_ns(3); // bucket 1
        h.record_ns(1024); // bucket 10
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.max_ns, 1024);
        assert_eq!(s.total_ns, 1030);
    }

    #[test]
    fn histogram_clones_share_state() {
        let a = LatencyHistogram::new();
        let b = a.clone();
        a.record(Duration::from_micros(3));
        b.record(Duration::from_micros(7));
        assert_eq!(a.snapshot().count, 2);
    }

    #[test]
    fn quantiles_are_monotonic_and_bounded() {
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record_ns(i * 1000); // 0 .. 999 µs
        }
        let s = h.snapshot();
        let p50 = s.p50_ns();
        let p95 = s.p95_ns();
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        assert!(p95 <= s.max_ns);
        assert!(p50 >= 262_144, "p50 {p50} implausibly low"); // ≥ 2^18 ns
        assert_eq!(s.quantile_ns(1.0), s.max_ns);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.p50_ns(), 0);
        assert_eq!(s.p95_ns(), 0);
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn snapshot_diff_subtracts_counts() {
        let h = LatencyHistogram::new();
        h.record_ns(100);
        let early = h.snapshot();
        h.record_ns(200);
        h.record_ns(300);
        let d = h.snapshot().since(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.total_ns, 500);
    }

    #[test]
    fn huge_samples_land_in_last_bucket() {
        let h = LatencyHistogram::new();
        h.record_ns(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(s.max_ns, u64::MAX);
    }
}
