//! Failure discipline of the cascade: the first error a merge group hits
//! must end the pass, resurface from [`plan_merges`], and leave no
//! orphaned intermediate run behind — every registered run has a backing
//! object and every backing object a registration. All bodies run under a
//! watchdog so a hang fails the test instead of the suite.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use histok_sort::{plan_merges, MergeConfig, MergeTuning};
use histok_storage::{
    FaultBackend, FaultPlan, IoStats, MemoryBackend, RunCatalog, ThrottleModel, ThrottledBackend,
};
use histok_types::{Error, Row, SortOrder};

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

/// Registered-run names and backend objects must agree after a failed
/// cascade: inputs of the failed merge stay registered and readable,
/// the half-written output is deleted, nothing leaks.
fn assert_no_orphans(cat: &RunCatalog<u64>, mem: &MemoryBackend) {
    assert_eq!(
        cat.len(),
        mem.object_count(),
        "registered runs and stored objects diverged: orphaned or leaked intermediate run"
    );
    for meta in cat.runs() {
        let mut reader = cat.open(&meta).expect("surviving run must open");
        let mut rows = 0u64;
        let mut clean = true;
        loop {
            match reader.next_batch() {
                Ok(Some(batch)) => rows += batch.len() as u64,
                Ok(None) => break,
                // The injected fault itself (e.g. the corrupt initial
                // run, still registered because its merge failed) —
                // parity above is the orphan guard; row counts can only
                // be verified on clean runs.
                Err(_) => {
                    clean = false;
                    break;
                }
            }
        }
        if clean {
            assert_eq!(rows, meta.rows, "surviving run {} lost rows", meta.name);
        }
    }
}

#[test]
fn corrupt_input_latches_the_pass_and_resurfaces() {
    with_watchdog(|| {
        let mem = MemoryBackend::shared();
        let be = FaultBackend::new(
            mem.clone(),
            // Corrupts a byte inside one of the initial runs, so the
            // merge group reading it hits Error::Corrupt mid-drain after
            // earlier groups of the pass have merged.
            FaultPlan { corrupt_write_byte_at: Some(3_000), ..FaultPlan::none() },
        );
        let cat: RunCatalog<u64> =
            RunCatalog::new(Arc::new(be), "cf", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(128);
        for r in 0..8u64 {
            write_run(&cat, (0..600).map(|j| j * 8 + r));
        }
        let config = MergeConfig { fan_in: 2, ..MergeConfig::default() };
        let result = plan_merges(&cat, &config, None, None, &MergeTuning::default());
        assert!(
            matches!(result, Err(Error::Corrupt(_))),
            "corruption must resurface, got {result:?}"
        );
        assert_no_orphans(&cat, &mem);
    });
}

#[test]
fn write_failure_mid_pass_deletes_the_partial_output() {
    with_watchdog(|| {
        // The initial runs are written through a plain backend; the
        // fault backend (whose write budget starts at zero) only sees
        // the intermediate merge outputs, so a merge fails mid-run-write
        // — exercising the half-written-output cleanup.
        let mem = MemoryBackend::shared();
        let plain: RunCatalog<u64> =
            RunCatalog::new(Arc::new(mem.clone()), "cw", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(128);
        for r in 0..8u64 {
            write_run(&plain, (0..400).map(|j| j * 8 + r));
        }
        let be = FaultBackend::new(
            mem.clone(),
            FaultPlan { fail_write_after_bytes: Some(2_000), ..FaultPlan::none() },
        );
        let fault_probe = be.clone();
        // A distinct run-name prefix keeps merge outputs from colliding
        // with the adopted initial runs.
        let cat: RunCatalog<u64> =
            RunCatalog::new(Arc::new(be), "cwo", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(128);
        for meta in plain.runs() {
            cat.register(meta).unwrap();
        }
        let config = MergeConfig { fan_in: 2, ..MergeConfig::default() };
        let result = plan_merges(&cat, &config, None, None, &MergeTuning::default());
        assert!(result.is_err(), "write fault must resurface, got {result:?}");
        assert!(fault_probe.fault_fired(), "plan never tripped");
        assert_no_orphans(&cat, &mem);
    });
}

#[test]
fn error_under_throttle_leaves_no_orphans() {
    with_watchdog(|| {
        // Sleeping storage: the corrupt block surfaces while the merge's
        // reads and writes really wait on the backend.
        let mem = MemoryBackend::shared();
        let model = ThrottleModel {
            per_op: Duration::from_micros(100),
            per_byte: Duration::ZERO,
            sleep: true,
        };
        let be = FaultBackend::new(
            ThrottledBackend::new(mem.clone(), model),
            FaultPlan { corrupt_write_byte_at: Some(5_000), ..FaultPlan::none() },
        );
        let cat: RunCatalog<u64> =
            RunCatalog::new(Arc::new(be), "ct", SortOrder::Ascending, IoStats::new())
                .with_block_bytes(128);
        for r in 0..8u64 {
            write_run(&cat, (0..600).map(|j| j * 8 + r));
        }
        let config = MergeConfig { fan_in: 2, ..MergeConfig::default() };
        let result = plan_merges(&cat, &config, None, None, &MergeTuning::default());
        assert!(matches!(result, Err(Error::Corrupt(_))), "got {result:?}");
        assert_no_orphans(&cat, &mem);
    });
}
