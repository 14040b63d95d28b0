//! Write-behind run seals under storage faults. A run is registered once its
//! last frame is queued, so its last request or its object `finish` can
//! fail after run generation has moved on. The query must still fail with
//! that error: from the `push_batch` that seals the next run, or from
//! `finish`, never later in the drain and never as some other error. A
//! failed query, and an operator dropped while a run is pending, leave no
//! backend object, no queued I/O job and no run-generation worker.
//!
//! Run-generation worker slots are process-global, so every test here
//! takes one lock and checks that no worker is alive when it starts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use histok::core::{live_rungen_workers, HistogramTopK, TopKConfig, TopKOperator};
use histok::exec::{Query, ServerConfig, TopKServer};
use histok::storage::{
    FaultBackend, FaultPlan, IoScheduler, MemoryBackend, SpillReader, SpillWriter, StorageBackend,
};
use histok::types::{Error, Result, Row, SortSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const INPUT: usize = 2_500;
const K: u64 = 400;
const MEM_ROWS: usize = 150;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(live_rungen_workers(), 0, "a worker outlived an earlier test");
    guard
}

/// Workers the process allows: one core stays with the query threads.
fn cap() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

fn input() -> Vec<Row<u64>> {
    let mut rng = StdRng::seed_from_u64(44);
    (0..INPUT)
        .map(|i| Row::new(rng.gen_range(0..INPUT as u64 / 3), (i as u32).to_le_bytes().to_vec()))
        .collect()
}

fn config(mem_rows: usize) -> TopKConfig {
    let row_bytes = histok::sort::row_footprint(&Row::new(0u64, vec![0u8; 4]));
    TopKConfig::builder().memory_budget(mem_rows * row_bytes).block_bytes(1024).build().unwrap()
}

/// `config` with its spill I/O on `pool`.
fn pooled(pool: &IoScheduler) -> TopKConfig {
    let mut cfg = config(MEM_ROWS);
    cfg.io_scheduler_handle = Some(pool.clone());
    cfg
}

/// Waits until every job submitted to `pool` has run and none is queued.
fn assert_quiescent(pool: &IoScheduler, case: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = pool.metrics();
        if m.queue_depth == 0 && m.completed_total() == m.submitted_total() {
            return;
        }
        assert!(Instant::now() < deadline, "{case}: I/O jobs left queued after the query");
        std::thread::yield_now();
    }
}

/// Where run generation runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Place {
    /// On the operator's worker thread (inline where the machine has one
    /// core).
    Worker,
    /// On the query thread: every worker slot is held by a blocker.
    Inline,
}

/// Spilling operators that hold every worker slot.
fn hold_every_slot() -> Vec<HistogramTopK<u64>> {
    (0..cap())
        .map(|_| {
            let mut op =
                HistogramTopK::new(SortSpec::ascending(100), config(20), MemoryBackend::new())
                    .unwrap();
            (0..200u64).for_each(|k| op.push(Row::key_only(k)).unwrap());
            op
        })
        .collect()
}

/// Where a query stopped.
#[derive(Debug)]
enum Outcome {
    /// It ran to the end, having sealed this many runs.
    Done { runs: u64 },
    /// `push_batch` or `finish` returned this error.
    Failed(Error),
}

/// One standalone query in batches of 256 rows, dropped at the end.
fn standalone(backend: FaultBackend<MemoryBackend>, pool: &IoScheduler, place: Place) -> Outcome {
    let blockers = if place == Place::Inline { hold_every_slot() } else { Vec::new() };
    let live = live_rungen_workers();
    let mut op = HistogramTopK::new(SortSpec::ascending(K), pooled(pool), backend).unwrap();
    for chunk in input().chunks(256) {
        if let Err(e) = op.push_batch(&mut chunk.to_vec()) {
            return Outcome::Failed(e);
        }
    }
    let on_worker = place == Place::Worker && cap() > 0;
    assert_eq!(live_rungen_workers() - live, usize::from(on_worker), "{place:?}");
    let stream = match op.finish() {
        Ok(stream) => stream,
        Err(e) => return Outcome::Failed(e),
    };
    let rows = stream.collect::<Result<Vec<_>>>().expect("a write error surfaced in the drain");
    assert_eq!(rows.len() as u64, K);
    drop(blockers);
    Outcome::Done { runs: op.metrics().io.runs_created }
}

/// One query through a server, whose lease keeps run generation inline.
fn served(backend: FaultBackend<MemoryBackend>, server: &TopKServer) -> Outcome {
    let query = Query::scan(input().into_iter(), SortSpec::ascending(K)).config(config(MEM_ROWS));
    match server.execute(query, Arc::new(backend)) {
        Ok(result) => {
            assert_eq!(result.rows.len() as u64, K);
            Outcome::Done { runs: result.metrics.io.runs_created }
        }
        Err(e) => Outcome::Failed(e),
    }
}

/// Fails the last request, then the `finish`, of the first, second and last
/// run in turn. Each query must fail with the injected error and leave
/// nothing behind.
fn every_fault_fails_the_query(
    case: &str,
    pool: &IoScheduler,
    query: impl Fn(&FaultBackend<MemoryBackend>) -> Outcome,
) {
    let memory = MemoryBackend::new();
    let Outcome::Done { runs } = query(&FaultBackend::new(memory.clone(), FaultPlan::none()))
    else {
        panic!("{case}: the clean query failed");
    };
    assert!(runs >= 3, "{case}: {runs} runs leave no run pending behind another");
    assert_eq!(memory.object_count(), 0, "{case}: clean query left objects behind");
    for object in [0, 1, runs - 1] {
        for plan in [
            FaultPlan { fail_last_write_of: Some(object), ..FaultPlan::none() },
            FaultPlan { fail_finish_of: Some(object), ..FaultPlan::none() },
        ] {
            let at = format!("{case}, {plan:?}");
            let backend = FaultBackend::new(MemoryBackend::new(), plan);
            match query(&backend) {
                Outcome::Failed(Error::Injected(_)) => {}
                other => panic!("{at}: {other:?}"),
            }
            assert!(backend.fault_fired(), "{at}");
            assert_eq!(backend.inner().object_count(), 0, "{at}: run objects left behind");
            assert_eq!(live_rungen_workers(), 0, "{at}: worker left behind");
            assert_quiescent(pool, &at);
        }
    }
}

#[test]
fn a_failed_seal_fails_the_query_with_run_generation_on_the_worker() {
    let _serial = serial();
    let pool = IoScheduler::new(2);
    every_fault_fails_the_query("worker", &pool, |be| standalone(be.clone(), &pool, Place::Worker));
}

#[test]
fn a_failed_seal_fails_the_query_with_run_generation_inline() {
    let _serial = serial();
    let pool = IoScheduler::new(2);
    every_fault_fails_the_query("inline", &pool, |be| standalone(be.clone(), &pool, Place::Inline));
}

#[test]
fn a_failed_seal_fails_a_server_leased_query() {
    let _serial = serial();
    let server = TopKServer::new(ServerConfig {
        total_memory: 1024 * 1024,
        io_threads: 2,
        min_lease: 4 * 1024,
        small_query_bytes: 2 * 1024,
        row_bytes_hint: 64,
        folded_row_bytes_hint: 32,
    });
    let pool = server.scheduler().expect("the server's I/O pool").clone();
    every_fault_fails_the_query("server", &pool, |be| served(be.clone(), &server));
}

/// A memory backend that holds the first object's `finish` until released.
#[derive(Clone, Default)]
struct HoldFirstFinish {
    inner: MemoryBackend,
    created: Arc<Mutex<u64>>,
    released: Arc<(Mutex<bool>, Condvar)>,
}

impl HoldFirstFinish {
    fn release(&self) {
        *self.released.0.lock().unwrap() = true;
        self.released.1.notify_all();
    }
}

struct Held(Box<dyn SpillWriter>, Option<HoldFirstFinish>);

impl SpillWriter for Held {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.0.write_all(data)
    }
    fn finish(&mut self) -> Result<u64> {
        if let Some(gate) = &self.1 {
            let mut released = gate.released.0.lock().unwrap();
            while !*released {
                released = gate.released.1.wait(released).unwrap();
            }
        }
        self.0.finish()
    }
}

impl StorageBackend for HoldFirstFinish {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        let mut created = self.created.lock().unwrap();
        *created += 1;
        Ok(Box::new(Held(self.inner.create(name)?, (*created == 1).then(|| self.clone()))))
    }
    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        self.inner.open(name)
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }
}

#[test]
fn dropping_the_operator_while_a_run_is_pending_leaves_nothing() {
    let _serial = serial();
    let pool = IoScheduler::new(2);
    let gate = HoldFirstFinish::default();
    let mut op = HistogramTopK::new(SortSpec::ascending(K), pooled(&pool), gate.clone()).unwrap();
    // Runs are longer than memory, so a 64-row batch seals at most one:
    // stop once the first run is sealed. Its finish is held, so it is
    // pending, and nothing waits on it yet.
    for chunk in input().chunks(64) {
        op.push_batch(&mut chunk.to_vec()).unwrap();
        if op.metrics().io.runs_created > 0 {
            break;
        }
    }
    assert_eq!(op.metrics().io.runs_created, 1);
    assert_eq!(live_rungen_workers(), cap().min(1));
    let dropping = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !dropping.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // Let the drop get as far as it can before the write it must
            // wait for completes.
            (0..1_000).for_each(|_| std::thread::yield_now());
            gate.release();
        });
        dropping.store(true, Ordering::Release);
        drop(op);
    });
    assert_eq!(gate.inner.object_count(), 0, "run objects left behind");
    assert_eq!(live_rungen_workers(), 0);
    assert_quiescent(&pool, "drop");
}
