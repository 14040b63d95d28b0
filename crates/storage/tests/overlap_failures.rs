//! Failure, cancellation and accounting paths through a run catalog, the
//! one place that decides how a run's bytes move: as jobs on its I/O pool
//! when it has one, inline on the calling thread when it does not. Every
//! test drives both routes the catalog can pick.
//!
//! Every test runs its body on a watchdog thread with a hard timeout: the
//! failure mode these paths guard against is a *hang* (a job that never
//! completes, a consumer blocked on a cancelled source), which a plain
//! assert cannot catch.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use histok_storage::{
    FaultBackend, FaultPlan, IoScheduler, IoStats, MemoryBackend, PrefetchingRunReader, RunCatalog,
    RunMeta, SpillReader, SpillWriter, StorageBackend, ThrottleModel, ThrottledBackend,
};
use histok_types::{Error, Result, Row, SortOrder};

const TEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `body` on its own thread and panics if it does not complete in
/// time — converting a deadlocked job or consumer into a test failure.
fn with_watchdog<F: FnOnce() + Send + 'static>(body: F) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(TEST_TIMEOUT) {
        Ok(()) => handle.join().unwrap(),
        Err(_) => panic!("test body deadlocked (exceeded {TEST_TIMEOUT:?})"),
    }
}

/// The two catalogs, each over its own `backend()`: inline, and on a
/// two-worker pool.
fn catalogs<B: StorageBackend + 'static>(backend: impl Fn() -> B) -> [RunCatalog<u64>; 2] {
    let catalog = || {
        RunCatalog::new(Arc::new(backend()), "ovf", SortOrder::Ascending, IoStats::new())
            .with_block_bytes(64)
    };
    [catalog(), catalog().with_io_scheduler(Some(IoScheduler::new(2)))]
}

fn route(catalog: &RunCatalog<u64>) -> &'static str {
    if catalog.io_scheduler().is_some() {
        "pooled"
    } else {
        "inline"
    }
}

fn write_run(catalog: &RunCatalog<u64>, n: u64) -> Result<RunMeta<u64>> {
    let mut w = catalog.start_run()?;
    for k in 0..n {
        w.append(&Row::new(k, vec![k as u8; 16]))?;
    }
    w.finish()
}

/// Reads `meta` back the way a merge source opened from `catalog` does:
/// prefetched on its pool, or inline.
fn read_run(
    catalog: &RunCatalog<u64>,
    meta: &RunMeta<u64>,
) -> Box<dyn Iterator<Item = Result<Row<u64>>>> {
    let reader = catalog.open(meta).unwrap();
    match catalog.io_scheduler() {
        Some(handle) => Box::new(PrefetchingRunReader::new(reader, handle)),
        None => Box::new(reader),
    }
}

#[test]
fn backend_write_error_fails_pipelined_finish() {
    with_watchdog(|| {
        for catalog in catalogs(|| {
            FaultBackend::new(
                MemoryBackend::new(),
                FaultPlan { fail_write_after_bytes: Some(256), ..FaultPlan::none() },
            )
        }) {
            // The fault trips on an early request; the error must surface
            // on a later append or, at the latest, on finish — never as a
            // panic or a hang.
            let err = write_run(&catalog, 5_000).unwrap_err();
            assert!(matches!(err, Error::Injected(_)), "{}: got {err:?}", route(&catalog));
            assert!(catalog.is_empty());
        }
    });
}

#[test]
fn create_error_fails_pipelined_construction() {
    with_watchdog(|| {
        for catalog in catalogs(|| {
            FaultBackend::new(
                MemoryBackend::new(),
                FaultPlan { fail_create: true, ..FaultPlan::none() },
            )
        }) {
            assert!(catalog.start_run().is_err(), "{}", route(&catalog));
        }
    });
}

#[test]
fn crc_corruption_surfaces_as_err_through_prefetch_and_fuses() {
    with_watchdog(|| {
        for catalog in catalogs(|| {
            FaultBackend::new(
                MemoryBackend::new(),
                // Past the file header (8) + first block, inside a later
                // payload: some rows decode fine before the error arrives.
                FaultPlan { corrupt_write_byte_at: Some(400), ..FaultPlan::none() },
            )
        }) {
            let meta = write_run(&catalog, 500).unwrap();
            let mut rows = read_run(&catalog, &meta);
            let mut good = 0u64;
            let mut err: Option<Error> = None;
            for item in rows.by_ref() {
                match item {
                    Ok(row) => {
                        assert_eq!(row.key, good);
                        good += 1;
                    }
                    Err(e) => {
                        err = Some(e);
                        break;
                    }
                }
            }
            let route = route(&catalog);
            assert!(matches!(err, Some(Error::Corrupt(_))), "{route}: got {err:?}");
            assert!(good > 0, "{route}: rows ahead of the damaged block must arrive");
            // Fused: after the error the iterator ends; it does not resume
            // decoding or hang waiting for a job.
            assert!(rows.next().is_none(), "{route}");
        }
    });
}

#[test]
fn read_error_mid_run_surfaces_through_prefetch() {
    with_watchdog(|| {
        for catalog in catalogs(|| {
            FaultBackend::new(
                MemoryBackend::new(),
                FaultPlan { fail_read_after_bytes: Some(512), ..FaultPlan::none() },
            )
        }) {
            let meta = write_run(&catalog, 1_000).unwrap();
            let results: Vec<Result<Row<u64>>> = read_run(&catalog, &meta).collect();
            assert!(results.last().unwrap().is_err(), "{}", route(&catalog));
            assert!(results.iter().take(results.len() - 1).all(Result::is_ok));
        }
    });
}

#[test]
fn dropping_prefetch_readers_mid_stream_joins_all_threads() {
    with_watchdog(|| {
        // A sleeping throttle keeps the prefetch jobs genuinely busy in I/O
        // when the consumer walks away after one row.
        let model = ThrottleModel {
            per_op: Duration::from_micros(200),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let [_, catalog] = catalogs(|| ThrottledBackend::new(MemoryBackend::new(), model));
        let mut readers: Vec<_> = (0..4)
            .map(|_| {
                let meta = write_run(&catalog, 2_000).unwrap();
                read_run(&catalog, &meta)
            })
            .collect();
        for rows in &mut readers {
            assert_eq!(rows.next().unwrap().unwrap().key, 0);
        }
        // Each dropped reader waits out its in-flight job; the catalog then
        // releases the last handle on the pool, which joins its workers.
        drop(readers);
        drop(catalog);
    });
}

#[test]
fn pipelined_spill_under_sleeping_throttle_does_not_deadlock() {
    with_watchdog(|| {
        // Storage slower than compute: the bounded pipeline queue exerts
        // backpressure on every request. Both routes must complete and
        // write the same bytes.
        let model = ThrottleModel {
            per_op: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let [inline, pooled] = catalogs(|| ThrottledBackend::new(MemoryBackend::new(), model));
        let (a, b) = (write_run(&inline, 1_500).unwrap(), write_run(&pooled, 1_500).unwrap());
        assert_eq!((a.bytes, &a.blocks), (b.bytes, &b.blocks));
        let stored = |catalog: &RunCatalog<u64>, meta: &RunMeta<u64>| {
            let mut all = vec![0u8; meta.bytes as usize];
            catalog.backend().open(&meta.name).unwrap().read_exact(&mut all).unwrap();
            all
        };
        assert_eq!(stored(&inline, &a), stored(&pooled, &b), "pooled spill changed the bytes");
    });
}

/// The counters of a [`Gate`]: requests that arrived, and how many of
/// them may proceed.
struct GateState {
    arrived: u64,
    allowed: u64,
}

/// Where every request of a [`GatedBackend`] waits its turn: the `n`-th
/// request (from 0) proceeds once `allowed > n`. The test decides which
/// requests run when, so what overlaps what is fixed by the order of the
/// test's steps, not by how long anything takes.
struct Gate {
    state: std::sync::Mutex<GateState>,
    cond: std::sync::Condvar,
    /// Set by the test, polled by the thread of [`Gate::release_when_asked`].
    asked: std::sync::atomic::AtomicBool,
}

impl Gate {
    fn open() -> Arc<Gate> {
        let state = GateState { arrived: 0, allowed: u64::MAX };
        Arc::new(Gate {
            state: std::sync::Mutex::new(state),
            cond: std::sync::Condvar::new(),
            asked: Default::default(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap()
    }

    /// Waits for this request's turn, then runs it.
    fn pass<T>(&self, request: impl FnOnce() -> T) -> T {
        let mut st = self.lock();
        let ticket = st.arrived;
        st.arrived += 1;
        self.cond.notify_all();
        while st.allowed <= ticket {
            st = self.cond.wait(st).unwrap();
        }
        drop(st);
        request()
    }

    /// Holds every request that arrives from now on.
    fn hold(&self) {
        let mut st = self.lock();
        st.allowed = st.arrived;
    }

    fn release_all(&self) {
        self.lock().allowed = u64::MAX;
        self.cond.notify_all();
    }

    /// Blocks until `until` holds. Not a storage wait: nothing books it.
    fn wait_until(&self, until: impl Fn(&GateState) -> bool) {
        let mut st = self.lock();
        while !until(&st) {
            st = self.cond.wait(st).unwrap();
        }
    }

    fn arrived(&self) -> u64 {
        self.lock().arrived
    }

    /// Asks the helper to release: a plain store, so the asking thread
    /// wakes no one and goes straight on to block on the held request.
    fn ask(&self) {
        self.asked.store(true, std::sync::atomic::Ordering::Release);
    }

    /// For a helper thread: releases every request once the test asks.
    fn release_when_asked(&self) {
        while !self.asked.load(std::sync::atomic::Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.release_all();
    }
}

/// A memory backend whose writes and reads pass a [`Gate`].
struct GatedBackend {
    inner: MemoryBackend,
    gate: Arc<Gate>,
}

struct GatedWriter(Box<dyn SpillWriter>, Arc<Gate>);

impl SpillWriter for GatedWriter {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.1.pass(|| self.0.write_all(data))
    }

    fn finish(&mut self) -> Result<u64> {
        self.0.finish()
    }
}

struct GatedReader(Box<dyn SpillReader>, Arc<Gate>);

impl SpillReader for GatedReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.1.pass(|| self.0.read_exact(buf))
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.0.skip(n)
    }
}

impl StorageBackend for GatedBackend {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        Ok(Box::new(GatedWriter(self.inner.create(name)?, self.gate.clone())))
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        Ok(Box::new(GatedReader(self.inner.open(name)?, self.gate.clone())))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }
}

/// Both catalogs book what they should, in the order the test imposes
/// through a [`Gate`]: the pooled catalog's first write request and first
/// read request are held while the compute thread does other work (the
/// whole inline write and read), so storage time passes with no one
/// waiting for it; and the compute thread then waits on a request that
/// cannot finish before the test releases it. Inline, every request is
/// compute-side wait and nothing overlaps. Per component, wait plus
/// overlap never exceeds the phase's wall time: no nanosecond is booked
/// twice.
#[test]
fn io_wait_and_overlap_are_both_recorded_through_a_gate() {
    with_watchdog(|| {
        let row = |k: u64| Row::new(k, vec![0u8; 16]);
        let gated = |gate: &Arc<Gate>| {
            let backend = GatedBackend { inner: MemoryBackend::new(), gate: gate.clone() };
            RunCatalog::new(Arc::new(backend), "ovf", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(64)
        };
        let (inline_gate, pooled_gate) = (Gate::open(), Gate::open());
        let inline = gated(&inline_gate);
        let pooled = gated(&pooled_gate).with_io_scheduler(Some(IoScheduler::new(2)));

        // Rows per write request: an inline writer makes its first request
        // inside the append that fills it.
        let mut w = inline.start_run().unwrap();
        let mut per_request = 0;
        while inline_gate.arrived() == 0 {
            w.append(&row(per_request)).unwrap();
            per_request += 1;
        }
        drop(w);

        // Writes. The pooled writer's first request is held while the
        // compute thread writes and reads the whole inline run.
        let started = std::time::Instant::now();
        pooled_gate.hold();
        let mut w = pooled.start_run().unwrap();
        for k in 0..per_request {
            w.append(&row(k)).unwrap();
        }
        pooled_gate.wait_until(|st| st.arrived >= 1);
        let inline_meta = write_run(&inline, 2_000).unwrap();
        let inline_written = inline.stats().snapshot();
        assert_eq!(read_run(&inline, &inline_meta).count(), 2_000);
        let inline_read = inline.stats().snapshot().since(&inline_written);
        pooled_gate.release_all();
        for k in per_request..4 * per_request {
            w.append(&row(k)).unwrap();
        }
        let meta = w.finish().unwrap();
        let write_wall = started.elapsed().as_nanos() as u64;
        let written = pooled.stats().snapshot();

        // Reads. The prefetcher's first request is held while the compute
        // thread reads the inline run again; then the compute thread asks
        // for a row, and a helper releases the request only once asked.
        let started = std::time::Instant::now();
        pooled_gate.hold();
        let held = pooled_gate.arrived();
        let mut rows = read_run(&pooled, &meta);
        pooled_gate.wait_until(|st| st.arrived > held);
        assert_eq!(read_run(&inline, &inline_meta).count(), 2_000);
        let read_rows = std::thread::scope(|scope| {
            scope.spawn(|| pooled_gate.release_when_asked());
            pooled_gate.ask();
            rows.by_ref().inspect(|row| assert!(row.is_ok())).count()
        });
        drop(rows);
        let read_wall = started.elapsed().as_nanos() as u64;
        assert_eq!(read_rows as u64, 4 * per_request);
        let read = pooled.stats().snapshot().since(&written);

        assert!(written.io_wait_ns > 0, "written {written:?}");
        assert!(read.io_wait_ns > 0, "read {read:?}");
        assert!(written.overlapped_io_ns > 0, "written {written:?}");
        assert!(read.overlapped_io_ns > 0, "read {read:?}");
        assert!(written.io_wait_ns + written.overlapped_io_ns <= write_wall);
        assert!(read.io_wait_ns + read.overlapped_io_ns <= read_wall);
        // Nothing runs behind an inline catalog's back.
        assert!(inline_written.io_wait_ns > 0 && inline_read.io_wait_ns > 0);
        assert_eq!((inline_written.overlapped_io_ns, inline_read.overlapped_io_ns), (0, 0));
    });
}
