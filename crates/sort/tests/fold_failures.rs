//! Fault injection on *folded* merges (DESIGN.md §14): a merge that dies
//! mid-write must not leak partially-folded aggregates — the half-written
//! output is deleted, the duplicate-bearing inputs stay intact, and a
//! retry over those inputs still produces exact aggregates (no lost or
//! double-counted duplicates). All bodies run under a watchdog so a
//! wedged merge fails the test instead of hanging CI.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use histok_sort::{
    merge_runs_to_new, merge_sources, open_source, FoldSpec, FoldStats, MergeTuning,
};
use histok_storage::{FaultBackend, FaultPlan, FileBackend, IoStats, MemoryBackend, RunCatalog};
use histok_types::{decode_count, AggregateOp, Row, SortOrder};

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

/// One COUNT accumulator (count = 1) per key, as run generation would
/// have initialized them.
fn write_count_run(cat: &RunCatalog<u64>, keys: impl Iterator<Item = u64>) {
    let mut w = cat.start_run().unwrap();
    for k in keys {
        w.append(&Row::new(k, 1u64.to_le_bytes().to_vec())).unwrap();
    }
    cat.register(w.finish().unwrap()).unwrap();
}

fn count_fold() -> MergeTuning {
    MergeTuning {
        fold: Some(FoldSpec::new(AggregateOp::Count.aggregator()).with_stats(FoldStats::new())),
        ..MergeTuning::default()
    }
}

#[test]
fn failed_folded_merge_keeps_inputs_and_leaks_no_partial_aggregates() {
    with_watchdog(|| {
        // Two runs holding the same 200 keys: the folded merge collapses
        // them to one accumulator (count 2) per key. Learn the input byte
        // cost on an unfaulted backend first, then trip the fault budget
        // partway through the merge's *output*.
        let input_bytes = {
            let probe = RunCatalog::<u64>::new(
                Arc::new(MemoryBackend::new()),
                "probe",
                SortOrder::Ascending,
                IoStats::new(),
            );
            write_count_run(&probe, 0..200);
            write_count_run(&probe, 0..200);
            probe.stats().snapshot().bytes_written
        };
        let files = FileBackend::temp().unwrap();
        let dir = files.dir().to_path_buf();
        let be = FaultBackend::new(
            files,
            FaultPlan { fail_write_after_bytes: Some(input_bytes + 64), ..FaultPlan::none() },
        );
        let cat = RunCatalog::<u64>::new(
            Arc::new(be.clone()),
            "probe", // same prefix/order ⇒ identical byte layout as the dry run
            SortOrder::Ascending,
            IoStats::new(),
        );
        write_count_run(&cat, 0..200);
        write_count_run(&cat, 0..200);
        let runs = cat.runs();
        let err = merge_runs_to_new(&cat, &runs, None, None, &count_fold());
        assert!(err.is_err(), "the fault budget must fail the folded merge");
        assert!(be.fault_fired());

        // Inputs stay registered, readable, and UNfolded — every original
        // accumulator still reads count = 1 (a leak of merged counts into
        // a surviving run would double-count on retry).
        assert_eq!(cat.len(), 2);
        for meta in &cat.runs() {
            let rows: Vec<Row<u64>> = cat.open(meta).unwrap().map(|r| r.unwrap()).collect();
            assert_eq!(rows.len(), 200);
            for row in &rows {
                assert_eq!(decode_count(&row.payload), 1, "partial aggregate leaked into input");
            }
        }
        // The half-written folded output is gone from the backend.
        let on_disk = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, 2, "failed folded merge leaked its half-written output");

        // Recovery: a streaming folded merge over the intact inputs (no
        // writes, so the exhausted fault budget is irrelevant) yields the
        // exact aggregates.
        let tuning = count_fold();
        let mut sources = Vec::new();
        for meta in &cat.runs() {
            sources.push(open_source(&cat, meta).unwrap());
        }
        let merged: Vec<Row<u64>> = merge_sources(sources, SortOrder::Ascending, &tuning)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(merged.len(), 200, "one folded group per distinct key");
        for (i, row) in merged.iter().enumerate() {
            assert_eq!(row.key, i as u64);
            assert_eq!(decode_count(&row.payload), 2, "key {i} lost or double-counted a row");
        }
    });
}
