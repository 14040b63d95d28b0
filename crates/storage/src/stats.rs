//! I/O accounting — the paper's principal metric.
//!
//! "With input and output sizes fixed, the size of the required secondary
//! storage determines overall performance and is the principal metric to
//! optimize" (§1). Every run writer/reader increments a shared [`IoStats`],
//! so an experiment can report exactly the quantities of the paper's tables
//! and figures: rows spilled, runs created, bytes moved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use histok_types::{LatencyHistogram, LatencySnapshot};

/// Shared, thread-safe I/O counters for one operator or experiment.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same counters.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    runs_created: AtomicU64,
    rows_written: AtomicU64,
    bytes_written: AtomicU64,
    rows_read: AtomicU64,
    bytes_read: AtomicU64,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
    /// Modelled (virtual-clock) I/O nanoseconds reported by a throttled
    /// backend, surfaced through the same snapshot as the real counters.
    modelled_io_ns: AtomicU64,
    /// Time the *compute* thread spent blocked on storage: synchronous
    /// block reads/writes, plus stalls against a full spill pipeline or an
    /// empty read-ahead channel.
    io_wait_ns: AtomicU64,
    /// Time background I/O threads spent moving bytes — latency that was
    /// hidden behind computation instead of added to it.
    overlapped_io_ns: AtomicU64,
    /// Blocks whose payload was never read because a skip proved them
    /// irrelevant (offset fast-skipping).
    blocks_skipped: AtomicU64,
    /// Payload bytes those skipped blocks would have cost.
    bytes_skipped: AtomicU64,
    write_latency: LatencyHistogram,
    read_latency: LatencyHistogram,
}

/// A point-in-time copy of the counters, safe to diff and print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Number of sorted runs created (the paper's "Runs" column).
    pub runs_created: u64,
    /// Rows written to secondary storage (the paper's "Rows" column).
    pub rows_written: u64,
    /// Bytes written to secondary storage.
    pub bytes_written: u64,
    /// Rows read back during merging.
    pub rows_read: u64,
    /// Bytes read back during merging.
    pub bytes_read: u64,
    /// *Data* requests sent: one `write_all` carrying up to four
    /// contiguous blocks (their headers, and the file header or end
    /// marker riding with them, included). Not counted: the `finish`
    /// request per run, and the lone end-marker write of a run that ends
    /// exactly on a request boundary.
    pub write_ops: u64,
    /// Data requests issued: one `read_exact` fetching up to four
    /// contiguous blocks. Positioning `skip` requests (range opens,
    /// `skip_rows`) are not counted here; the blocks they pass over are in
    /// `blocks_skipped`.
    pub read_ops: u64,
    /// Modelled I/O time in nanoseconds under the disaggregated-storage
    /// cost model (0 unless a throttled backend reported its virtual
    /// clock into these stats).
    pub modelled_io_ns: u64,
    /// Nanoseconds the compute thread spent blocked on storage (synchronous
    /// I/O, pipeline backpressure, read-ahead waits).
    pub io_wait_ns: u64,
    /// Nanoseconds of I/O performed on background threads, i.e. latency
    /// overlapped with computation rather than added to it.
    pub overlapped_io_ns: u64,
    /// Blocks skipped without reading their payload.
    pub blocks_skipped: u64,
    /// Payload bytes avoided by those skips.
    pub bytes_skipped: u64,
    /// Observed per-request write latencies.
    pub write_latency: LatencySnapshot,
    /// Observed per-request read latencies.
    pub read_latency: LatencySnapshot,
}

impl IoStats {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the creation of one sorted run.
    pub fn record_run_created(&self) {
        self.inner.runs_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one write request of `rows` rows totalling `bytes` bytes.
    pub fn record_write(&self, rows: u64, bytes: u64) {
        self.inner.rows_written.fetch_add(rows, Ordering::Relaxed);
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.inner.write_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one read request of `rows` rows totalling `bytes` bytes.
    pub fn record_read(&self, rows: u64, bytes: u64) {
        self.inner.rows_read.fetch_add(rows, Ordering::Relaxed);
        self.inner.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.inner.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// As [`IoStats::record_write`], also recording the request's observed
    /// latency. Callers time one `Instant` pair around the whole request
    /// — never per row.
    pub fn record_write_timed(&self, rows: u64, bytes: u64, latency: Duration) {
        self.record_write(rows, bytes);
        self.inner.write_latency.record(latency);
    }

    /// As [`IoStats::record_read`], also recording the request's observed
    /// latency.
    pub fn record_read_timed(&self, rows: u64, bytes: u64, latency: Duration) {
        self.record_read(rows, bytes);
        self.inner.read_latency.record(latency);
    }

    /// Adds modelled (virtual-clock) I/O time, as charged by a throttled
    /// backend's cost model.
    pub fn record_modelled_io(&self, modelled: Duration) {
        let ns = modelled.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.inner.modelled_io_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Overwrites the modelled I/O total (used when an operator copies a
    /// backend's virtual clock into its own stats at snapshot time).
    pub fn set_modelled_io_ns(&self, ns: u64) {
        self.inner.modelled_io_ns.store(ns, Ordering::Relaxed);
    }

    /// Records time the compute thread spent blocked on storage.
    pub fn record_io_wait(&self, waited: Duration) {
        let ns = waited.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.inner.io_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records I/O time spent on a background thread (overlapped with
    /// computation).
    pub fn record_overlapped_io(&self, busy: Duration) {
        let ns = busy.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.inner.overlapped_io_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one block whose `payload_bytes` were skipped unread.
    pub fn record_block_skip(&self, payload_bytes: u64) {
        self.inner.blocks_skipped.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_skipped.fetch_add(payload_bytes, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            runs_created: self.inner.runs_created.load(Ordering::Relaxed),
            rows_written: self.inner.rows_written.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            rows_read: self.inner.rows_read.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            write_ops: self.inner.write_ops.load(Ordering::Relaxed),
            read_ops: self.inner.read_ops.load(Ordering::Relaxed),
            modelled_io_ns: self.inner.modelled_io_ns.load(Ordering::Relaxed),
            io_wait_ns: self.inner.io_wait_ns.load(Ordering::Relaxed),
            overlapped_io_ns: self.inner.overlapped_io_ns.load(Ordering::Relaxed),
            blocks_skipped: self.inner.blocks_skipped.load(Ordering::Relaxed),
            bytes_skipped: self.inner.bytes_skipped.load(Ordering::Relaxed),
            write_latency: self.inner.write_latency.snapshot(),
            read_latency: self.inner.read_latency.snapshot(),
        }
    }

    /// Shorthand for `snapshot().rows_written`.
    pub fn rows_written(&self) -> u64 {
        self.inner.rows_written.load(Ordering::Relaxed)
    }

    /// Shorthand for `snapshot().runs_created`.
    pub fn runs_created(&self) -> u64 {
        self.inner.runs_created.load(Ordering::Relaxed)
    }
}

/// Per-component reconciliation of background-I/O time against the
/// compute thread's waits, so `io_wait_ns` and `overlapped_io_ns` never
/// count the same nanoseconds twice.
///
/// One ledger belongs to one overlap component (a spill pipeline or a
/// prefetching reader). Background work books its storage busy time with
/// [`OverlapLedger::record_busy`]; the compute thread books every blocked
/// interval with [`OverlapLedger::record_wait`] *in addition to* the live
/// `record_io_wait` it already does. When the component shuts down,
/// [`OverlapLedger::settle`] credits `busy − wait` (saturating) as
/// overlapped I/O: the storage time that was genuinely hidden from the
/// compute thread. Per component, `io_wait + overlapped = max(wait, busy)`
/// — never more than the component's own wall time, so summing components
/// can only exceed wall clock when background threads truly ran in
/// parallel.
#[derive(Debug)]
pub(crate) struct OverlapLedger {
    busy_ns: AtomicU64,
    wait_ns: AtomicU64,
    settled: AtomicBool,
    stats: IoStats,
}

impl OverlapLedger {
    /// A fresh ledger settling into `stats`.
    pub(crate) fn new(stats: IoStats) -> Arc<Self> {
        Arc::new(OverlapLedger {
            busy_ns: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            settled: AtomicBool::new(false),
            stats,
        })
    }

    /// Books storage busy time spent on a background thread or pool worker.
    pub(crate) fn record_busy(&self, busy: Duration) {
        let ns = busy.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Books an interval the compute thread spent blocked on this
    /// component (the caller also books it as live `io_wait`).
    pub(crate) fn record_wait(&self, waited: Duration) {
        let ns = waited.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Credits the hidden portion of the busy time (`busy − wait`) as
    /// overlapped I/O. Idempotent; call on every shutdown path.
    pub(crate) fn settle(&self) {
        if self.settled.swap(true, Ordering::AcqRel) {
            return;
        }
        let busy = self.busy_ns.load(Ordering::Relaxed);
        let wait = self.wait_ns.load(Ordering::Relaxed);
        self.stats.record_overlapped_io(Duration::from_nanos(busy.saturating_sub(wait)));
    }
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier`; saturates at zero so a
    /// stale snapshot cannot underflow.
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            runs_created: self.runs_created.saturating_sub(earlier.runs_created),
            rows_written: self.rows_written.saturating_sub(earlier.rows_written),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            rows_read: self.rows_read.saturating_sub(earlier.rows_read),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            modelled_io_ns: self.modelled_io_ns.saturating_sub(earlier.modelled_io_ns),
            io_wait_ns: self.io_wait_ns.saturating_sub(earlier.io_wait_ns),
            overlapped_io_ns: self.overlapped_io_ns.saturating_sub(earlier.overlapped_io_ns),
            blocks_skipped: self.blocks_skipped.saturating_sub(earlier.blocks_skipped),
            bytes_skipped: self.bytes_skipped.saturating_sub(earlier.bytes_skipped),
            write_latency: self.write_latency.since(&earlier.write_latency),
            read_latency: self.read_latency.since(&earlier.read_latency),
        }
    }

    /// Counter-wise sum with `other`, used when aggregating the traffic of
    /// several sub-operators (segments, groups) that each own their stats.
    pub fn merged(&self, other: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            runs_created: self.runs_created.saturating_add(other.runs_created),
            rows_written: self.rows_written.saturating_add(other.rows_written),
            bytes_written: self.bytes_written.saturating_add(other.bytes_written),
            rows_read: self.rows_read.saturating_add(other.rows_read),
            bytes_read: self.bytes_read.saturating_add(other.bytes_read),
            write_ops: self.write_ops.saturating_add(other.write_ops),
            read_ops: self.read_ops.saturating_add(other.read_ops),
            modelled_io_ns: self.modelled_io_ns.saturating_add(other.modelled_io_ns),
            io_wait_ns: self.io_wait_ns.saturating_add(other.io_wait_ns),
            overlapped_io_ns: self.overlapped_io_ns.saturating_add(other.overlapped_io_ns),
            blocks_skipped: self.blocks_skipped.saturating_add(other.blocks_skipped),
            bytes_skipped: self.bytes_skipped.saturating_add(other.bytes_skipped),
            write_latency: self.write_latency.merged(&other.write_latency),
            read_latency: self.read_latency.merged(&other.read_latency),
        }
    }

    /// Total secondary-storage traffic in bytes (written + read).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_written + self.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_run_created();
        s.record_write(100, 4096);
        s.record_write(50, 2048);
        s.record_read(10, 512);
        let snap = s.snapshot();
        assert_eq!(snap.runs_created, 1);
        assert_eq!(snap.rows_written, 150);
        assert_eq!(snap.bytes_written, 6144);
        assert_eq!(snap.write_ops, 2);
        assert_eq!(snap.rows_read, 10);
        assert_eq!(snap.read_ops, 1);
        assert_eq!(snap.total_bytes(), 6144 + 512);
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        a.record_write(1, 10);
        b.record_write(2, 20);
        assert_eq!(a.snapshot().rows_written, 3);
        assert_eq!(b.snapshot().bytes_written, 30);
    }

    #[test]
    fn snapshot_diff_saturates() {
        let s = IoStats::new();
        s.record_write(5, 50);
        let early = s.snapshot();
        s.record_write(5, 50);
        let late = s.snapshot();
        let d = late.since(&early);
        assert_eq!(d.rows_written, 5);
        // Reversed diff saturates to zero instead of wrapping.
        let rev = early.since(&late);
        assert_eq!(rev.rows_written, 0);
    }

    #[test]
    fn timed_records_feed_latency_histograms() {
        let s = IoStats::new();
        s.record_write_timed(10, 4096, Duration::from_micros(100));
        s.record_write_timed(10, 4096, Duration::from_micros(300));
        s.record_read_timed(5, 2048, Duration::from_micros(50));
        let snap = s.snapshot();
        // The plain counters advance exactly as with the untimed calls.
        assert_eq!(snap.rows_written, 20);
        assert_eq!(snap.write_ops, 2);
        assert_eq!(snap.rows_read, 5);
        // And the histograms saw each request once.
        assert_eq!(snap.write_latency.count, 2);
        assert_eq!(snap.write_latency.total_ns, 400_000);
        assert_eq!(snap.write_latency.max_ns, 300_000);
        assert_eq!(snap.read_latency.count, 1);
        assert!(snap.write_latency.p95_ns() >= snap.write_latency.p50_ns());
    }

    #[test]
    fn modelled_io_accumulates_and_overwrites() {
        let s = IoStats::new();
        s.record_modelled_io(Duration::from_millis(2));
        s.record_modelled_io(Duration::from_millis(3));
        assert_eq!(s.snapshot().modelled_io_ns, 5_000_000);
        s.set_modelled_io_ns(42);
        assert_eq!(s.snapshot().modelled_io_ns, 42);
    }

    #[test]
    fn since_diffs_latency_and_modelled_io() {
        let s = IoStats::new();
        s.record_write_timed(1, 8, Duration::from_micros(10));
        s.record_modelled_io(Duration::from_nanos(100));
        let early = s.snapshot();
        s.record_write_timed(1, 8, Duration::from_micros(20));
        s.record_modelled_io(Duration::from_nanos(50));
        let d = s.snapshot().since(&early);
        assert_eq!(d.write_latency.count, 1);
        assert_eq!(d.write_latency.total_ns, 20_000);
        assert_eq!(d.modelled_io_ns, 50);
    }

    #[test]
    fn wait_overlap_and_skip_counters_flow_through_snapshots() {
        let s = IoStats::new();
        s.record_io_wait(Duration::from_micros(5));
        s.record_io_wait(Duration::from_micros(5));
        s.record_overlapped_io(Duration::from_micros(7));
        s.record_block_skip(4096);
        s.record_block_skip(1024);
        let early = s.snapshot();
        assert_eq!(early.io_wait_ns, 10_000);
        assert_eq!(early.overlapped_io_ns, 7_000);
        assert_eq!(early.blocks_skipped, 2);
        assert_eq!(early.bytes_skipped, 5120);
        s.record_block_skip(100);
        s.record_overlapped_io(Duration::from_nanos(1));
        let d = s.snapshot().since(&early);
        assert_eq!(d.blocks_skipped, 1);
        assert_eq!(d.bytes_skipped, 100);
        assert_eq!(d.overlapped_io_ns, 1);
        assert_eq!(d.io_wait_ns, 0);
        let m = early.merged(&d);
        assert_eq!(m.blocks_skipped, 3);
        assert_eq!(m.bytes_skipped, 5220);
        assert_eq!(m.overlapped_io_ns, 7_001);
    }

    #[test]
    fn ledger_settles_only_the_hidden_busy_time() {
        let s = IoStats::new();
        let ledger = OverlapLedger::new(s.clone());
        ledger.record_busy(Duration::from_micros(10));
        ledger.record_wait(Duration::from_micros(3));
        ledger.settle();
        assert_eq!(s.snapshot().overlapped_io_ns, 7_000);
        // Idempotent: a second settle books nothing more.
        ledger.settle();
        assert_eq!(s.snapshot().overlapped_io_ns, 7_000);
    }

    #[test]
    fn ledger_saturates_when_waits_cover_the_busy_time() {
        let s = IoStats::new();
        let ledger = OverlapLedger::new(s.clone());
        ledger.record_busy(Duration::from_micros(5));
        ledger.record_wait(Duration::from_micros(9));
        ledger.settle();
        assert_eq!(s.snapshot().overlapped_io_ns, 0, "nothing was hidden");
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_write(1, 8);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().rows_written, 4000);
        assert_eq!(s.snapshot().write_ops, 4000);
    }
}
