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
    RunMeta, StorageBackend, ThrottleModel, ThrottledBackend,
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

#[test]
fn io_wait_and_overlap_are_both_recorded_under_throttle() {
    with_watchdog(|| {
        let model = ThrottleModel {
            per_op: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        for catalog in catalogs(|| ThrottledBackend::new(MemoryBackend::new(), model)) {
            let stats = catalog.stats().clone();
            let mut w = catalog.start_run().unwrap();
            for k in 0..400u64 {
                w.append(&Row::new(k, vec![0u8; 16])).unwrap();
                // Compute work between appends: the pool drains the queue
                // while this thread is busy, so the throttle sleeps are
                // genuinely hidden and settle as overlapped time.
                std::thread::sleep(Duration::from_micros(60));
            }
            let meta = w.finish().unwrap();
            let written = stats.snapshot();

            // Reads book the same way: with read-ahead, storage latency
            // lands on the pool (overlapped) while the consumer does
            // per-row compute and records only its blocked waits.
            let mut read_rows = 0u64;
            for row in read_run(&catalog, &meta) {
                row.unwrap();
                read_rows += 1;
                std::thread::sleep(Duration::from_micros(30));
            }
            assert_eq!(read_rows, 400);
            let read = stats.snapshot().since(&written);

            // The compute thread waited somewhere either way (inline: on
            // every request; pooled: at least the finish drain), and the
            // two counters never book the same nanoseconds twice.
            assert!(written.io_wait_ns > 0 && read.io_wait_ns > 0);
            if catalog.io_scheduler().is_some() {
                assert!(written.overlapped_io_ns > 0 && read.overlapped_io_ns > 0);
            } else {
                // Nothing runs behind an inline catalog's back.
                assert_eq!((written.overlapped_io_ns, read.overlapped_io_ns), (0, 0));
            }
        }
    });
}
