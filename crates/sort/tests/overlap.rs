//! Overlapped I/O through the merge layer: error propagation from
//! prefetch jobs into the loser tree, cancellation of a multi-source
//! merge, and pooled/inline equivalence of the full external sort. The
//! run catalog alone decides whether a merge source prefetches: on its
//! I/O pool when it has one, inline otherwise.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use histok_sort::{merge_sources, ExternalSorter, MergeSource, MergeTuning};
use histok_storage::{
    FaultBackend, FaultPlan, IoPriority, IoScheduler, IoStats, MemoryBackend, RunCatalog,
    ThrottleModel, ThrottledBackend,
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
fn corrupt_run_fails_a_full_prefetched_merge_with_err() {
    with_watchdog(|| {
        let be = FaultBackend::new(
            MemoryBackend::new(),
            // Inside a later block of the first run written.
            FaultPlan { corrupt_write_byte_at: Some(700), ..FaultPlan::none() },
        );
        let cat: Arc<RunCatalog<u64>> = Arc::new(
            RunCatalog::new(Arc::new(be), "c", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(64)
                .with_io_scheduler(Some(IoScheduler::new(2))),
        );
        for r in 0..3u64 {
            write_run(&cat, (0..500).map(|j| j * 3 + r));
        }
        let tuning = MergeTuning::default();
        let mut sources = Vec::new();
        for meta in cat.runs() {
            let source = histok_sort::open_source(&cat, &meta).unwrap();
            assert!(matches!(source, MergeSource::Prefetched(_)));
            sources.push(source);
        }
        let tree = merge_sources(sources, SortOrder::Ascending, &tuning).unwrap();
        let collected: Result<Vec<Row<u64>>> = tree.collect();
        assert!(matches!(collected, Err(Error::Corrupt(_))), "got {collected:?}");
    });
}

#[test]
fn dropping_a_merge_stream_after_one_row_joins_all_prefetch_threads() {
    with_watchdog(|| {
        // Sleeping throttle: prefetch jobs are mid-I/O when cancelled.
        let model = ThrottleModel {
            per_op: Duration::from_micros(200),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let cat: Arc<RunCatalog<u64>> = Arc::new(
            RunCatalog::new(Arc::new(be), "drop", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(32)
                .with_io_scheduler(Some(IoScheduler::new(2))),
        );
        for r in 0..6u64 {
            write_run(&cat, (0..1_000).map(|j| j * 6 + r));
        }
        let tuning = MergeTuning::default();
        let mut sources = Vec::new();
        for meta in cat.runs() {
            sources.push(histok_sort::open_source(&cat, &meta).unwrap());
        }
        let mut tree = merge_sources(sources, SortOrder::Ascending, &tuning).unwrap();
        let first = tree.next().unwrap().unwrap();
        assert_eq!(first.key, 0);
        // Dropping the tree drops all six prefetch readers; each must stop
        // its job, and the catalog's drop then joins the pool. A leak
        // hangs the watchdog.
        drop(tree);
        drop(cat);
    });
}

#[test]
fn a_catalog_without_a_pool_opens_inline_sources() {
    with_watchdog(|| {
        let cat: Arc<RunCatalog<u64>> = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "sync",
                SortOrder::Ascending,
                IoStats::new(),
            )
            .with_block_bytes(64),
        );
        write_run(&cat, 0..100);
        let tuning = MergeTuning::default();
        let source = histok_sort::open_source(&cat, &cat.runs()[0]).unwrap();
        assert!(matches!(source, MergeSource::Run(_)));
        let keys: Vec<u64> = merge_sources(vec![source], SortOrder::Ascending, &tuning)
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    });
}

#[test]
fn external_sort_is_identical_with_and_without_overlap() {
    with_watchdog(|| {
        let keys: Vec<u64> = (0..4_000u64).map(|i| (i * 2_654_435_761) % 10_000).collect();
        let mut outputs = Vec::new();
        for overlap in [true, false] {
            let mut sorter: ExternalSorter<u64> = ExternalSorter::new(
                Arc::new(MemoryBackend::new()),
                SortOrder::Ascending,
                100 * 64,
                IoStats::new(),
            )
            .with_fan_in(4)
            .with_block_bytes(256)
            .with_io_scheduler(overlap.then(|| IoScheduler::new(2)));
            for &k in &keys {
                sorter.push(Row::new(k, k.to_le_bytes().to_vec())).unwrap();
            }
            let rows: Vec<Row<u64>> = sorter.finish().unwrap().collect::<Result<Vec<_>>>().unwrap();
            outputs.push(rows);
        }
        assert_eq!(outputs[0].len(), keys.len());
        assert_eq!(outputs[0], outputs[1], "overlap changed the sorted output");
    });
}

#[test]
fn a_pool_set_before_the_tuning_still_drives_merge_read_ahead() {
    with_watchdog(|| {
        // The pool belongs to the sorter's run catalog, so a tuning set
        // after it cannot take merge read-ahead off the pool.
        let pool = IoScheduler::new(2);
        let mut sorter: ExternalSorter<u64> = ExternalSorter::new(
            Arc::new(MemoryBackend::new()),
            SortOrder::Ascending,
            100 * 64,
            IoStats::new(),
        )
        .with_fan_in(4)
        .with_block_bytes(256)
        .with_io_scheduler(Some(pool.clone()))
        .with_tuning(MergeTuning::default());
        for i in 0..4_000u64 {
            sorter.push(Row::key_only((i * 2_654_435_761) % 10_000)).unwrap();
        }
        let keys: Vec<u64> = sorter.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(keys.len(), 4_000);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "output is not sorted");
        let m = pool.metrics();
        assert!(m.submitted[IoPriority::SpillWrite as usize] > 0, "spills ran off the pool");
        let read_ahead = m.submitted[IoPriority::Prefetch as usize]
            + m.submitted[IoPriority::MergeReadAhead as usize];
        assert!(read_ahead > 0, "merge read-ahead ran off the pool");
    });
}
