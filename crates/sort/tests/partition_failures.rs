//! Failure and cancellation discipline of the partitioned parallel merge:
//! a worker error mid-partition must resurface to the consumer, and
//! dropping the output stream mid-merge must join every worker without
//! deadlock. All bodies run under a watchdog so a leak or deadlock fails
//! the test instead of hanging the suite.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use histok_sort::{merge_runs_partitioned, ExternalSorter, MergeTuning};
use histok_storage::{
    FaultBackend, FaultPlan, IoScheduler, IoStats, MemoryBackend, RunCatalog, ThrottleModel,
    ThrottledBackend,
};
use histok_types::{Error, Result, Row, SortOrder};

const TEST_TIMEOUT: Duration = Duration::from_secs(30);

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

fn write_run(cat: &RunCatalog<u64>, keys: impl Iterator<Item = u64>) {
    let mut w = cat.start_run().unwrap();
    for k in keys {
        w.append(&Row::new(k, vec![0u8; 8])).unwrap();
    }
    cat.register(w.finish().unwrap()).unwrap();
}

#[test]
fn worker_error_mid_partition_resurfaces_to_the_consumer() {
    with_watchdog(|| {
        let be = FaultBackend::new(
            MemoryBackend::new(),
            // Corrupts a byte inside a later block of the first run, so
            // some partition's worker hits Error::Corrupt mid-merge.
            FaultPlan { corrupt_write_byte_at: Some(2_000), ..FaultPlan::none() },
        );
        let cat: Arc<RunCatalog<u64>> = Arc::new(
            RunCatalog::new(Arc::new(be), "pf", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(128)
                .with_io_scheduler(Some(IoScheduler::new(2))),
        );
        for r in 0..3u64 {
            write_run(&cat, (0..800).map(|j| j * 3 + r));
        }
        let runs = cat.runs();
        let merge = merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
            .unwrap()
            .partitioned()
            .expect("partitionable");
        let collected: Result<Vec<Row<u64>>> = merge.collect();
        assert!(matches!(collected, Err(Error::Corrupt(_))), "got {collected:?}");
    });
}

#[test]
fn consumer_is_fused_after_a_worker_error() {
    with_watchdog(|| {
        let be = FaultBackend::new(
            MemoryBackend::new(),
            FaultPlan { corrupt_write_byte_at: Some(2_000), ..FaultPlan::none() },
        );
        let cat: Arc<RunCatalog<u64>> = Arc::new(
            RunCatalog::new(Arc::new(be), "pf", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(128)
                .with_io_scheduler(Some(IoScheduler::new(2))),
        );
        write_run(&cat, 0..2_000);
        write_run(&cat, 2_000..4_000);
        let runs = cat.runs();
        let mut merge =
            merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
                .unwrap()
                .partitioned()
                .expect("partitionable");
        let mut saw_error = false;
        for row in &mut merge {
            if row.is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "corruption never surfaced");
        assert!(merge.next().is_none(), "stream must fuse after an error");
    });
}

#[test]
fn dropping_the_stream_mid_merge_joins_all_workers() {
    with_watchdog(|| {
        // Sleeping throttle keeps workers mid-I/O (and blocked on their
        // bounded output channels) when the consumer walks away.
        let model = ThrottleModel {
            per_op: Duration::from_micros(200),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let cat: Arc<RunCatalog<u64>> = Arc::new(
            RunCatalog::new(Arc::new(be), "pd", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(64)
                .with_io_scheduler(Some(IoScheduler::new(2))),
        );
        for r in 0..4u64 {
            write_run(&cat, (0..2_000).map(|j| j * 4 + r));
        }
        let runs = cat.runs();
        let mut merge =
            merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
                .unwrap()
                .partitioned()
                .expect("partitionable");
        let first = merge.next().unwrap().unwrap();
        assert_eq!(first.key, 0);
        // Dropping the stream closes every partition channel; each worker
        // must unblock and join, and each of its prefetch readers stop its
        // job. A leaked or deadlocked thread hangs the watchdog.
        drop(merge);
    });
}

#[test]
fn dropping_before_the_first_row_joins_all_workers() {
    with_watchdog(|| {
        let cat: Arc<RunCatalog<u64>> = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "pd0",
                SortOrder::Ascending,
                IoStats::new(),
            )
            .with_block_bytes(64)
            .with_io_scheduler(Some(IoScheduler::new(2))),
        );
        for r in 0..2u64 {
            write_run(&cat, (0..3_000).map(|j| j * 2 + r));
        }
        let runs = cat.runs();
        let merge = merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
            .unwrap()
            .partitioned()
            .expect("partitionable");
        drop(merge);
    });
}

#[test]
fn partitioned_external_sort_matches_serial_under_throttle() {
    with_watchdog(|| {
        let keys: Vec<u64> = (0..6_000u64).map(|i| (i * 2_654_435_761) % 5_000).collect();
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            let model = ThrottleModel {
                per_op: Duration::from_micros(50),
                per_byte: Duration::ZERO,
                sleep: true,
            };
            let be = ThrottledBackend::new(MemoryBackend::new(), model);
            let mut sorter: ExternalSorter<u64> =
                ExternalSorter::new(Arc::new(be), SortOrder::Ascending, 100 * 64, IoStats::new())
                    .with_fan_in(8)
                    .with_block_bytes(256)
                    .with_io_scheduler(Some(IoScheduler::new(2)))
                    .with_merge_threads(threads)
                    .with_partition_min_rows(1);
            for &k in &keys {
                sorter.push(Row::new(k, k.to_le_bytes().to_vec())).unwrap();
            }
            let stream = sorter.finish().unwrap();
            if threads > 1 {
                assert!(stream.merge_partitions() >= 2, "merge did not go parallel");
            }
            let rows: Vec<Row<u64>> = stream.collect::<Result<Vec<_>>>().unwrap();
            outputs.push(rows);
        }
        assert_eq!(outputs[0].len(), keys.len());
        assert_eq!(outputs[0], outputs[1], "partitioning changed the sorted output");
    });
}
