//! Overlapped I/O: the spill pipeline and the prefetching run reader.
//!
//! The paper's storage is a disaggregated service reached over the network
//! (§2.1): every request costs a round trip. Synchronous spilling and
//! merging therefore *add* that latency to run generation and merge time.
//! The two primitives here hide it instead:
//!
//! * `SpillPipeline` — the background writer behind each pooled
//!   [`RunWriter`](crate::RunWriter). The operator thread appends rows
//!   into the active frame; once it holds a request's worth of sealed
//!   blocks (payloads behind still-blank headers, see `run.rs`) it hands
//!   the frame to a bounded queue (capacity [`SPILL_PIPELINE_DEPTH`]) and
//!   keeps filling the next one while the background side CRCs the
//!   previous one, patches its headers and writes it in a single request.
//!   A full queue is the backpressure: when storage is slower than
//!   compute, the operator blocks holding the frame it could not queue.
//!   Per open writer that is at most `SPILL_PIPELINE_DEPTH + 2` frames —
//!   the one in the backend's hands, the queued ones, the one being
//!   filled or waiting for room — of `REQUEST_BLOCKS` blocks each:
//!   **1 MiB** at the default 64 KiB block.
//! * [`PrefetchingRunReader`] — read-ahead per merge input. The background
//!   side fetches requests and CRC-checks and decodes their blocks one at
//!   a time into a bounded buffer of decoded row batches, so loser-tree
//!   refill pops rows that are already in memory. Per source that is at
//!   most [`READAHEAD_BLOCKS`] ready batches, the batch the consumer is
//!   draining, plus ≤ `REQUEST_BLOCKS − 1` fetched blocks not yet
//!   decoded: **(`READAHEAD_BLOCKS` + 4) × 64 KiB** of block data. Rows
//!   are slices of the buffer their request arrived in, so the request
//!   being drained stays whole until its last row is dropped: up to
//!   `REQUEST_BLOCKS − 1` consumed blocks, 192 KiB, more.
//!
//! Both primitives submit block-sized jobs to a shared
//! [`IoScheduler`](crate::IoScheduler) pool, which bounds the process-wide
//! background thread count to the pool size no matter how many runs and
//! sources are open; without a pool, a run's bytes move inline on the
//! calling thread (the [`RunCatalog`](crate::RunCatalog) decides which).
//! Jobs are state-machine steps: they re-check the component state under
//! its lock, do at most one block of I/O, and *return* instead of
//! blocking, so any pool size ≥ 1 is deadlock-free. Spill jobs run at
//! [`IoPriority::SpillWrite`]; prefetch jobs start at
//! [`IoPriority::Prefetch`] and are escalated to
//! [`IoPriority::MergeReadAhead`] — including jobs already queued — the
//! moment the consumer actually blocks on the source.
//!
//! **Error protocol.** A job that fails latches its error (a `failed` slot
//! for the pipeline, an in-band `Err` batch for the prefetcher) and stops;
//! the latch unblocks the peer, which surfaces the error on its next
//! `append`/`finish`/`next`. Nothing panics across the boundary and
//! nothing can deadlock: every blocking wait has a live counterpart or a
//! latched terminal state.
//!
//! **Cancellation.** Dropping either wrapper marks the component abandoned,
//! waits out at most one in-flight block job, and discards any unfinished
//! backend object (same contract as dropping an inline `RunWriter`). A
//! consumer that abandons a merge stream mid-way therefore tears down
//! every prefetch source deterministically.
//!
//! **Accounting.** Background I/O books its storage busy time into a
//! per-component `OverlapLedger`; the compute thread books its blocked
//! intervals both as live `io_wait_ns` and into the same ledger. At
//! component shutdown the ledger settles `busy − wait` (saturating) as
//! `overlapped_io_ns` — the latency genuinely *hidden* from the compute
//! thread — so the two counters never book the same nanoseconds twice and
//! their per-component sum never exceeds the component's wall time.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use histok_types::{Error, Result, Row, RowBatch, SortKey};

use crate::backend::SpillWriter;
use crate::run::{Frame, RunReader};
use crate::scheduler::{lock, wait, IoClass, IoPriority, IoSchedulerHandle};
use crate::stats::{IoStats, OverlapLedger};

/// Maximum sealed blocks in flight between the operator thread and the
/// pipeline's background side (double buffering).
pub const SPILL_PIPELINE_DEPTH: usize = 2;

/// Decoded blocks a merge source's read-ahead keeps ready ahead of its
/// consumer (double buffering).
pub const READAHEAD_BLOCKS: usize = 2;

/// Shared state between a pipeline's producer and its jobs.
struct PipeShared {
    state: Mutex<PipeState>,
    cond: Condvar,
    stats: IoStats,
    ledger: Arc<OverlapLedger>,
}

struct PipeState {
    queue: VecDeque<Frame>,
    /// The backend writer; taken out by the active job while it performs
    /// I/O, dropped behind the run's last frame.
    writer: Option<Box<dyn SpillWriter>>,
    /// True while a pool job owns this component (at most one at a time).
    job_active: bool,
    finished: bool,
    failed: Option<Error>,
    abandoned: bool,
}

/// One scheduler job: write queued frames until the queue is empty, the
/// run finishes/fails, or the component is abandoned. Never blocks.
fn pipe_job(shared: &Arc<PipeShared>) {
    loop {
        let (mut frame, writer) = {
            let mut st = lock(&shared.state);
            if st.abandoned || st.failed.is_some() {
                // Dropping the writer discards the unfinished object, per
                // the SpillWriter contract.
                st.writer = None;
                st.queue.clear();
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
            let Some(frame) = st.queue.pop_front() else {
                st.job_active = false;
                shared.cond.notify_all();
                return;
            };
            // Queue space freed: a producer blocked on backpressure can go.
            shared.cond.notify_all();
            (frame, st.writer.take())
        };
        let Some(mut writer) = writer else {
            let mut st = lock(&shared.state);
            st.failed = Some(Error::Io(std::io::Error::other("spill job ran without a writer")));
            st.queue.clear();
            st.job_active = false;
            shared.cond.notify_all();
            return;
        };
        let outcome = frame.write(writer.as_mut(), &shared.stats);
        let mut st = lock(&shared.state);
        match outcome {
            Ok(busy) => {
                shared.ledger.record_busy(busy);
                if !frame.last {
                    st.writer = Some(writer);
                    continue;
                }
                st.finished = true;
            }
            Err(e) => {
                st.failed = Some(e);
                st.queue.clear();
            }
        }
        // Finished or failed: either way the writer is done with (dropping
        // it unfinished discards the object).
        drop(writer);
        st.job_active = false;
        shared.cond.notify_all();
        return;
    }
}

/// A background writer that turns sealed block frames into CRC-stamped
/// single-request writes against a [`SpillWriter`], as
/// [`IoPriority::SpillWrite`] jobs on a shared scheduler pool;
/// [`RunWriter`](crate::RunWriter) is its only user. See the module docs
/// for the backpressure, error, cancellation and accounting rules.
pub(crate) struct SpillPipeline {
    shared: Arc<PipeShared>,
    handle: IoSchedulerHandle,
    class: IoClass,
}

impl SpillPipeline {
    /// A pipeline writing through `writer` on `scheduler`'s pool; the
    /// operator thread performs no storage request itself.
    pub(crate) fn new(
        writer: Box<dyn SpillWriter>,
        stats: IoStats,
        scheduler: IoSchedulerHandle,
    ) -> Self {
        let shared = Arc::new(PipeShared {
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                writer: Some(writer),
                job_active: false,
                finished: false,
                failed: None,
                abandoned: false,
            }),
            cond: Condvar::new(),
            ledger: OverlapLedger::new(stats.clone()),
            stats,
        });
        SpillPipeline { shared, handle: scheduler, class: IoClass::new(IoPriority::SpillWrite) }
    }

    /// Queues one sealed frame. Blocks while [`SPILL_PIPELINE_DEPTH`]
    /// frames are already in flight (backpressure); the blocked time is
    /// booked as compute-side I/O wait.
    pub(crate) fn write_block(&mut self, frame: Frame) -> Result<()> {
        let shared = &self.shared;
        let started = Instant::now();
        let mut st = lock(&shared.state);
        while st.queue.len() >= SPILL_PIPELINE_DEPTH && st.failed.is_none() {
            st = wait(&shared.cond, st);
        }
        shared.ledger.record_wait(started.elapsed());
        if let Some(e) = st.failed.take() {
            return Err(e);
        }
        if st.finished {
            return Err(Error::Io(std::io::Error::other("write after pipeline finish")));
        }
        st.queue.push_back(frame);
        if !st.job_active {
            st.job_active = true;
            let shared = shared.clone();
            self.handle.submit(&self.class, move || pipe_job(&shared));
        }
        Ok(())
    }

    /// Queues the run's last frame, waits out the background side — which
    /// finishes the backend object behind that frame — and surfaces any
    /// latched error. The wait (drain + completion) is booked as
    /// compute-side I/O wait; the component's overlap ledger settles here.
    pub(crate) fn finish(&mut self, last: Frame) -> Result<()> {
        debug_assert!(last.last);
        let queued = self.write_block(last);
        let started = Instant::now();
        let drained = {
            let mut st = lock(&self.shared.state);
            // If the last frame never made it into the queue, nothing will
            // ever finish the run: only wait out a running job.
            while st.job_active || (queued.is_ok() && !st.finished && st.failed.is_none()) {
                st = wait(&self.shared.cond, st);
            }
            st.failed.take()
        };
        self.shared.ledger.record_wait(started.elapsed());
        self.shared.ledger.settle();
        queued.and(drained.map_or(Ok(()), Err))
    }
}

impl Drop for SpillPipeline {
    fn drop(&mut self) {
        let mut st = lock(&self.shared.state);
        st.abandoned = true;
        st.queue.clear();
        st.writer = None;
        self.shared.cond.notify_all();
        // Wait out at most one in-flight block job so nothing touches the
        // component after it is gone.
        while st.job_active {
            st = wait(&self.shared.cond, st);
        }
        drop(st);
        self.shared.ledger.settle();
    }
}

/// Shared state between a prefetcher's consumer and its jobs.
struct PrefetchShared<K: SortKey> {
    state: Mutex<PrefetchState<K>>,
    cond: Condvar,
}

struct PrefetchState<K: SortKey> {
    /// Decoded batches (or one trailing in-band error) awaiting the
    /// consumer; bounded at [`READAHEAD_BLOCKS`].
    ready: VecDeque<Result<RowBatch<K>>>,
    /// The underlying reader; taken out by the active job during I/O,
    /// dropped at end of run.
    reader: Option<RunReader<K>>,
    job_active: bool,
    eof: bool,
    dropped: bool,
}

/// One scheduler job: decode blocks until the buffer is full, the run
/// ends/fails, or the consumer is gone. Never blocks.
fn prefetch_job<K: SortKey>(shared: &Arc<PrefetchShared<K>>) {
    loop {
        let mut reader = {
            let mut st = lock(&shared.state);
            if st.dropped {
                st.reader = None;
                st.ready.clear();
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
            if st.eof || st.ready.len() >= READAHEAD_BLOCKS {
                st.job_active = false;
                shared.cond.notify_all();
                return;
            }
            match st.reader.take() {
                Some(reader) => reader,
                None => {
                    st.job_active = false;
                    shared.cond.notify_all();
                    return;
                }
            }
        };
        let res = reader.next_batch();
        let mut st = lock(&shared.state);
        match res {
            Ok(Some(batch)) => {
                st.ready.push_back(Ok(batch));
                st.reader = Some(reader);
            }
            Ok(None) => st.eof = true,
            Err(e) => {
                st.ready.push_back(Err(e));
                st.eof = true;
            }
        }
        shared.cond.notify_all();
    }
}

/// A [`RunReader`] driven by bounded background read-ahead: decode jobs
/// on a shared scheduler pool.
///
/// The background side reads, CRC-checks and decodes up to
/// [`READAHEAD_BLOCKS`] batches ahead (the module docs give the memory
/// ceiling that follows); `next` pops rows from the current decoded batch
/// and only waits at batch boundaries. Errors arrive in-band and fuse the
/// iterator; dropping the reader mid-stream tears the background side down
/// (see the module docs).
pub struct PrefetchingRunReader<K: SortKey> {
    shared: Arc<PrefetchShared<K>>,
    handle: IoSchedulerHandle,
    class: IoClass,
    current: VecDeque<Row<K>>,
    ledger: Arc<OverlapLedger>,
    done: bool,
    rows_yielded: u64,
}

impl<K: SortKey> PrefetchingRunReader<K> {
    /// Takes ownership of `reader` (which may be mid-run, e.g. positioned
    /// by `skip_rows`) and starts prefetching on `scheduler`'s pool. Jobs
    /// start at [`IoPriority::Prefetch`] and are escalated to
    /// [`IoPriority::MergeReadAhead`] once the consumer blocks on this
    /// source.
    pub fn new(mut reader: RunReader<K>, scheduler: IoSchedulerHandle) -> Self {
        let ledger = OverlapLedger::new(reader.stats().clone());
        reader.set_ledger(Some(ledger.clone()));
        let shared = Arc::new(PrefetchShared {
            state: Mutex::new(PrefetchState {
                ready: VecDeque::new(),
                reader: Some(reader),
                job_active: false,
                eof: false,
                dropped: false,
            }),
            cond: Condvar::new(),
        });
        let pf = PrefetchingRunReader {
            shared,
            handle: scheduler,
            class: IoClass::new(IoPriority::Prefetch),
            current: VecDeque::new(),
            ledger,
            done: false,
            rows_yielded: 0,
        };
        pf.start_fill(&mut lock(&pf.shared.state));
        pf
    }

    /// Rows yielded so far.
    pub fn rows_yielded(&self) -> u64 {
        self.rows_yielded
    }

    /// Submits a fill job unless one is running or the run is exhausted.
    fn start_fill(&self, st: &mut PrefetchState<K>) {
        if !st.job_active && !st.eof && st.reader.is_some() {
            st.job_active = true;
            let job = self.shared.clone();
            self.handle.submit(&self.class, move || prefetch_job(&job));
        }
    }

    /// The next decoded batch (rows plus prefix column), `Ok(None)` at end
    /// of run. Errors fuse the reader and tear down the background side.
    /// This is the batched merge loop's pull: a whole prefetched block
    /// changes hands per call, prefix column included.
    pub fn next_batch(&mut self) -> Result<Option<RowBatch<K>>> {
        if !self.current.is_empty() {
            // Rows buffered by a previous row-at-a-time `next` call: drain
            // them first so the two pull styles compose (cold path).
            let rows: Vec<Row<K>> = std::mem::take(&mut self.current).into();
            self.rows_yielded += rows.len() as u64;
            return Ok(Some(RowBatch::from_rows(rows)));
        }
        if self.done {
            return Ok(None);
        }
        match self.recv_batch() {
            Some(Ok(batch)) => {
                self.rows_yielded += batch.len() as u64;
                Ok(Some(batch))
            }
            Some(Err(e)) => {
                self.done = true;
                self.shut_down();
                Err(e)
            }
            None => {
                self.done = true;
                self.shut_down();
                Ok(None)
            }
        }
    }

    /// The next batch from the background side (or in-band error), `None`
    /// at end of run. Only the blocked time counts as compute-side wait;
    /// the read and decode themselves were booked by the background side.
    fn recv_batch(&self) -> Option<Result<RowBatch<K>>> {
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(item) = st.ready.pop_front() {
                // Buffer space freed: restart the fill if needed.
                self.start_fill(&mut st);
                return Some(item);
            }
            if st.eof {
                return None;
            }
            // The consumer is now blocked on this source: escalate its jobs
            // — including any already queued — so the pool serves a
            // draining merge input before speculation.
            self.class.set(IoPriority::MergeReadAhead);
            self.start_fill(&mut st);
            let started = Instant::now();
            st = wait(&self.shared.cond, st);
            self.ledger.record_wait(started.elapsed());
        }
    }

    /// Tears down the background side and settles the overlap ledger.
    fn shut_down(&mut self) {
        let mut st = lock(&self.shared.state);
        st.dropped = true;
        st.ready.clear();
        st.reader = None;
        self.shared.cond.notify_all();
        while st.job_active {
            st = wait(&self.shared.cond, st);
        }
        drop(st);
        self.ledger.settle();
    }
}

impl<K: SortKey> Iterator for PrefetchingRunReader<K> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.current.pop_front() {
                self.rows_yielded += 1;
                return Some(Ok(row));
            }
            if self.done {
                return None;
            }
            match self.recv_batch() {
                Some(Ok(batch)) => self.current = batch.rows.into(),
                Some(Err(e)) => {
                    self.done = true;
                    self.shut_down();
                    return Some(Err(e));
                }
                None => {
                    self.done = true;
                    self.shut_down();
                    return None;
                }
            }
        }
    }
}

impl<K: SortKey> Drop for PrefetchingRunReader<K> {
    fn drop(&mut self) {
        self.shut_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{SpillReader, StorageBackend};
    use crate::memory::MemoryBackend;
    use crate::run::{RunWriter, REQUEST_BLOCKS};
    use crate::scheduler::IoScheduler;
    use crate::throttle::{ThrottleModel, ThrottledBackend};
    use histok_types::SortOrder;
    use std::time::Duration;

    /// A writer on `pool` when given, inline otherwise.
    fn writer(
        be: &dyn StorageBackend,
        name: &str,
        stats: IoStats,
        block_bytes: usize,
        pool: Option<&IoScheduler>,
    ) -> RunWriter<u64> {
        RunWriter::with_io(
            be,
            name,
            SortOrder::Ascending,
            stats,
            block_bytes,
            pool.map(IoScheduler::handle),
        )
        .unwrap()
    }

    fn write_run(
        be: &dyn StorageBackend,
        name: &str,
        keys: std::ops::Range<u64>,
        block_bytes: usize,
        pool: Option<&IoScheduler>,
    ) -> crate::run::RunMeta<u64> {
        let mut w = writer(be, name, IoStats::new(), block_bytes, pool);
        for k in keys {
            w.append(&Row::new(k, vec![k as u8; 5])).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn pipelined_and_sync_runs_are_byte_identical() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(2);
        let inline = write_run(&be, "inline", 0..500, 128, None);
        let pooled = write_run(&be, "pooled", 0..500, 128, Some(&sched));
        assert_eq!(inline.rows, pooled.rows);
        assert_eq!(inline.bytes, pooled.bytes);
        assert_eq!(inline.blocks, pooled.blocks);
        let mut a = vec![0u8; inline.bytes as usize];
        let mut b = vec![0u8; pooled.bytes as usize];
        be.open("inline").unwrap().read_exact(&mut a).unwrap();
        be.open("pooled").unwrap().read_exact(&mut b).unwrap();
        assert_eq!(a, b, "pooled spill changed the on-storage bytes");
        assert!(sched.metrics().submitted[IoPriority::SpillWrite as usize] > 0);
    }

    /// A slow producer over a throttled backend: the pipeline keeps up, so
    /// nearly all of its storage busy time is genuinely hidden and must
    /// settle as overlapped I/O — while the per-component invariant
    /// `io_wait + overlapped ≤ wall` holds.
    #[test]
    fn pipelined_writer_records_overlapped_io() {
        let model = ThrottleModel {
            per_op: Duration::from_micros(200),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let sched = IoScheduler::new(1);
        let stats = IoStats::new();
        let started = Instant::now();
        let mut w = writer(&be, "ov", stats.clone(), 64, Some(&sched));
        // Six rows fill a block, so 260 rows are eleven requests: one or
        // two would leave nothing hidden once the finish drain is netted
        // out.
        for k in 0..260u64 {
            w.append(&Row::key_only(k)).unwrap();
            // Compute "work" between appends so the pool drains the queue
            // and its sleeps overlap with this.
            std::thread::sleep(Duration::from_micros(300));
        }
        w.finish().unwrap();
        let wall = started.elapsed().as_nanos() as u64;
        let snap = stats.snapshot();
        assert!(snap.write_ops > 1);
        assert!(snap.overlapped_io_ns > 0, "pipeline writes should book overlapped time");
        assert_eq!(snap.rows_written, 260);
        assert!(
            snap.io_wait_ns + snap.overlapped_io_ns <= wall,
            "io_wait {} + overlapped {} must not exceed wall {wall}",
            snap.io_wait_ns,
            snap.overlapped_io_ns,
        );
    }

    /// Regression for the finish() double-count: the drain must not be
    /// booked as io_wait *and* overlapped. A fast producer over a slow
    /// backend maximizes the drain, which the old accounting double-counted
    /// past wall time.
    #[test]
    fn wait_and_overlap_never_double_count_the_finish_drain() {
        let sched = IoScheduler::new(1);
        let model = ThrottleModel {
            per_op: Duration::from_micros(400),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let stats = IoStats::new();
        let started = Instant::now();
        let mut w = writer(&be, "dc", stats.clone(), 64, Some(&sched));
        // Push everything at once: the pipeline queue fills and finish()
        // has a long drain to sit out.
        for k in 0..60u64 {
            w.append(&Row::key_only(k)).unwrap();
        }
        w.finish().unwrap();
        let wall = started.elapsed().as_nanos() as u64;
        let snap = stats.snapshot();
        assert!(snap.io_wait_ns > 0, "a saturated pipeline must book wait");
        assert!(
            snap.io_wait_ns + snap.overlapped_io_ns <= wall,
            "io_wait {} + overlapped {} exceeds wall {wall}",
            snap.io_wait_ns,
            snap.overlapped_io_ns,
        );
    }

    /// A backend that counts the data requests reaching it and holds each
    /// one at a gate until the test opens it: what the other side does
    /// while storage stands still is then a number, not a race.
    #[derive(Clone)]
    struct Gate {
        inner: MemoryBackend,
        open: Arc<(Mutex<bool>, Condvar)>,
        requests: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Gate {
        fn new(open: bool) -> Self {
            Gate {
                inner: MemoryBackend::new(),
                open: Arc::new((Mutex::new(open), Condvar::new())),
                requests: Arc::default(),
            }
        }

        fn requests(&self) -> usize {
            self.requests.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn open(&self) {
            *lock(&self.open.0) = true;
            self.open.1.notify_all();
        }

        fn pass(&self) {
            self.requests.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut open = lock(&self.open.0);
            while !*open {
                open = wait(&self.open.1, open);
            }
        }
    }

    struct Gated<T>(T, Gate);

    impl SpillWriter for Gated<Box<dyn SpillWriter>> {
        fn write_all(&mut self, data: &[u8]) -> Result<()> {
            self.1.pass();
            self.0.write_all(data)
        }
        fn finish(&mut self) -> Result<u64> {
            self.0.finish()
        }
    }

    impl SpillReader for Gated<Box<dyn SpillReader>> {
        fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
            self.1.pass();
            self.0.read_exact(buf)
        }
    }

    impl StorageBackend for Gate {
        fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
            Ok(Box::new(Gated(self.inner.create(name)?, self.clone())))
        }
        fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
            Ok(Box::new(Gated(self.inner.open(name)?, self.clone())))
        }
        fn delete(&self, name: &str) -> Result<()> {
            self.inner.delete(name)
        }
        fn size_of(&self, name: &str) -> Result<u64> {
            self.inner.size_of(name)
        }
    }

    /// Waits for `reached` (a state the code under test must get to), then
    /// gives it time to go *past* it: a correct implementation is blocked
    /// for good, so the pause can only expose a wrong one.
    fn settle(reached: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !reached() {
            assert!(Instant::now() < deadline, "never reached the expected stall point");
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
    }

    /// The module docs' write ceiling: with storage standing still, the
    /// producer is stopped once `SPILL_PIPELINE_DEPTH + 2` frames exist.
    #[test]
    fn a_stalled_backend_stops_the_producer_at_depth_plus_two_frames() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Six twelve-byte rows fill a 64-byte block.
        const FRAME_ROWS: u64 = 6 * REQUEST_BLOCKS as u64;
        const CEILING: u64 = (SPILL_PIPELINE_DEPTH as u64 + 2) * FRAME_ROWS;
        let sched = IoScheduler::new(1);
        let gate = Gate::new(false);
        let offered = AtomicU64::new(0);
        std::thread::scope(|s| {
            let producer = s.spawn(|| {
                let mut w = writer(&gate, "stall", IoStats::new(), 64, Some(&sched));
                for k in 0..3 * CEILING {
                    offered.fetch_add(1, Ordering::SeqCst);
                    w.append(&Row::key_only(k)).unwrap();
                }
                w.finish().unwrap()
            });
            // The append that completes the last frame the pipeline has
            // room for is the one that blocks.
            settle(|| offered.load(Ordering::SeqCst) >= CEILING);
            assert_eq!(offered.load(Ordering::SeqCst), CEILING);
            assert_eq!(gate.requests(), 1, "one frame is at the backend");
            gate.open();
            assert_eq!(producer.join().unwrap().rows, 3 * CEILING);
        });
    }

    /// The module docs' read ceiling: behind a consumer that stops with one
    /// batch in hand, jobs stop at a full buffer of `READAHEAD_BLOCKS`
    /// decoded batches, leaving the undecoded rest of their request.
    #[test]
    fn a_stalled_consumer_bounds_what_is_fetched_behind_it() {
        let sched = IoScheduler::new(1);
        let gate = Gate::new(true);
        let meta = write_run(&gate.inner, "ahead", 0..1000, 96, None);
        assert!(meta.blocks.len() > 8 * REQUEST_BLOCKS);
        let reader = RunReader::open(&gate, &meta, IoStats::new()).unwrap();
        let mut pf = PrefetchingRunReader::new(reader, sched.handle());
        let in_hand = pf.next_batch().unwrap().unwrap();
        let requests = (1 + READAHEAD_BLOCKS).div_ceil(REQUEST_BLOCKS);
        settle(|| gate.requests() >= requests);
        assert_eq!(gate.requests(), requests);
        let rest: usize = std::iter::from_fn(|| pf.next_batch().unwrap()).map(|b| b.len()).sum();
        assert_eq!(in_hand.len() + rest, 1000);
        assert_eq!(gate.requests(), meta.blocks.len().div_ceil(REQUEST_BLOCKS));
    }

    #[test]
    fn prefetching_reader_yields_identical_rows() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(2);
        let meta = write_run(&be, "pf", 0..1000, 96, Some(&sched));
        let plain: Vec<u64> =
            RunReader::open(&be, &meta, IoStats::new()).unwrap().map(|r| r.unwrap().key).collect();
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let mut pf = PrefetchingRunReader::new(reader, sched.handle());
        let fetched: Vec<u64> = pf.by_ref().map(|r| r.unwrap().key).collect();
        assert_eq!(plain, fetched);
        assert_eq!(pf.rows_yielded(), 1000);
    }

    /// The batched pull hands over whole decoded blocks, prefix column
    /// included, exactly as the inline reader decodes them.
    #[test]
    fn scheduled_prefetcher_yields_identical_rows() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(2);
        let meta = write_run(&be, "spf", 0..1000, 96, None);
        let mut plain = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let inline: Vec<RowBatch<u64>> =
            std::iter::from_fn(|| plain.next_batch().unwrap()).collect();
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let mut pf = PrefetchingRunReader::new(reader, sched.handle());
        let pooled: Vec<RowBatch<u64>> = std::iter::from_fn(|| pf.next_batch().unwrap()).collect();
        assert_eq!(inline.len(), meta.blocks.len());
        for (a, b) in inline.iter().zip(&pooled) {
            assert_eq!(a.prefixes, b.prefixes);
            assert!(a
                .rows
                .iter()
                .zip(&b.rows)
                .all(|(x, y)| x.key == y.key && x.payload == y.payload));
        }
        assert_eq!(inline.len(), pooled.len());
        assert_eq!(pf.rows_yielded(), 1000);
        assert!(sched.metrics().submitted_total() > 0, "prefetch must run through the pool");
    }

    #[test]
    fn prefetching_reader_resumes_after_skip() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(1);
        let meta = write_run(&be, "sk", 0..600, 128, None);
        let stats = IoStats::new();
        let mut reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
        reader.skip_rows(450).unwrap();
        let rest: Vec<u64> =
            PrefetchingRunReader::new(reader, sched.handle()).map(|r| r.unwrap().key).collect();
        assert_eq!(rest, (450..600).collect::<Vec<_>>());
        let snap = stats.snapshot();
        assert!(snap.blocks_skipped > 0, "whole-block skips should be counted");
        assert!(snap.bytes_skipped > 0);
    }

    /// The reader's handle keeps the pool alive after the caller dropped
    /// its scheduler; dropping the reader mid-run then stops its job and,
    /// as the last handle, joins the pool's worker.
    #[test]
    fn dropping_a_prefetching_reader_joins_its_thread() {
        let be = MemoryBackend::new();
        // Many small blocks so a job is still mid-run (or the buffer full)
        // when the consumer walks away.
        let meta = write_run(&be, "drop", 0..2000, 32, None);
        let sched = IoScheduler::new(1);
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let mut pf = PrefetchingRunReader::new(reader, sched.handle());
        drop(sched);
        let first = pf.next().unwrap().unwrap();
        assert_eq!(first.key, 0);
        drop(pf); // must not deadlock
    }

    #[test]
    fn dropping_a_scheduled_prefetcher_cancels_its_jobs() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(1);
        let meta = write_run(&be, "sdrop", 0..2000, 32, None);
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let mut pf = PrefetchingRunReader::new(reader, sched.handle());
        let first = pf.next().unwrap().unwrap();
        assert_eq!(first.key, 0);
        drop(pf); // must not deadlock and must not leave a runaway job
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = sched.metrics();
            if m.queue_depth == 0 && m.completed_total() == m.submitted_total() {
                break;
            }
            assert!(Instant::now() < deadline, "prefetch jobs leaked after drop");
            std::thread::yield_now();
        }
    }

    /// Dropped while a job is inside the backend: the drop waits that job
    /// out, and the job then discards the object instead of finishing it.
    #[test]
    fn abandoned_pipelined_run_discards_the_object() {
        let sched = IoScheduler::new(1);
        let gate = Gate::new(false);
        let mut w = writer(&gate, "gone", IoStats::new(), 64, Some(&sched));
        // Five blocks: one full request goes to the (closed) backend.
        for k in 0..30u64 {
            w.append(&Row::key_only(k)).unwrap();
        }
        settle(|| gate.requests() >= 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                gate.open();
            });
            drop(w);
        });
        assert_eq!(gate.requests(), 1, "no request after the abandon");
        assert!(gate.inner.open("gone").is_err());
    }

    #[test]
    fn abandoned_scheduled_run_discards_the_object() {
        let be = MemoryBackend::new();
        let sched = IoScheduler::new(1);
        let mut w = writer(&be, "sgone", IoStats::new(), 64, Some(&sched));
        for k in 0..100u64 {
            w.append(&Row::key_only(k)).unwrap();
        }
        drop(w); // no finish: the job must drop the writer, discarding it
        assert!(be.open("sgone").is_err());
    }
}
