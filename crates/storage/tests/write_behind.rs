//! Write-behind run seals ([`RunCatalog::finish_run`]): the order a pooled
//! catalog promises between run generation and a run's last writes.
//!
//! A gated backend logs every request per object and holds object
//! `finish` calls: in the chained mode each run's `finish` waits until the
//! next run's `finish` arrives. Nothing here sleeps. A blocking seal
//! deadlocks under that gate and trips the watchdog; a catalog that lets
//! more than one run pend creates a run while one two seals back is still
//! unfinished, which the gate records as it happens.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use histok_storage::{
    IoScheduler, IoStats, MemoryBackend, RunCatalog, RunMeta, SpillReader, SpillWriter,
    StorageBackend,
};
use histok_types::{Result, Row, SortOrder};

/// Only a deadlocked implementation waits this long.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Encoded bytes of one `row(_)` and the block target that holds four of
/// them, as in `request_budget.rs`: sixteen rows a request.
const ROW_BYTES: usize = 8 + 4 + 16;
const BLOCK: usize = 4 * ROW_BYTES;

fn row(k: u64) -> Row<u64> {
    Row::new(k, vec![k as u8; 16])
}

/// What the gate does with an object's `finish`.
#[derive(Clone, Copy, PartialEq)]
enum Hold {
    /// Nothing is held.
    Nothing,
    /// Every `finish` waits until the gate opens.
    Everything,
    /// Object j's `finish` waits until object j + 1's `finish` arrives.
    UntilNextFinish,
}

/// Per object, in creation order: what reached the backend.
#[derive(Default)]
struct Log {
    names: Vec<String>,
    writes: Vec<u64>,
    finishes: Vec<u64>,
    /// Its `finish` may return.
    released: Vec<bool>,
    /// Its `finish` has returned.
    finished: Vec<bool>,
    /// Object j's first write found object j − 1 unfinished.
    overlapped: Vec<bool>,
    open: bool,
    violations: Vec<String>,
}

#[derive(Clone)]
struct Gate {
    inner: MemoryBackend,
    hold: Hold,
    log: Arc<(Mutex<Log>, Condvar)>,
}

impl Gate {
    fn new(hold: Hold) -> Self {
        Gate { inner: MemoryBackend::new(), hold, log: Arc::default() }
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.0.lock().unwrap()
    }

    /// Lets every held and future `finish` through.
    fn open(&self) {
        self.log().open = true;
        self.log.1.notify_all();
    }

    fn finish(&self, object: usize) {
        let mut log = self.log();
        log.finishes[object] += 1;
        if self.hold == Hold::UntilNextFinish && object > 0 {
            log.released[object - 1] = true;
            self.log.1.notify_all();
        }
        while !(self.hold == Hold::Nothing || log.open || log.released[object]) {
            log = self.log.1.wait(log).unwrap();
        }
    }

    fn finished(&self, object: usize) {
        self.log().finished[object] = true;
        self.log.1.notify_all();
    }
}

struct GatedWriter {
    inner: Box<dyn SpillWriter>,
    object: usize,
    gate: Gate,
}

impl SpillWriter for GatedWriter {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        let j = self.object;
        {
            let mut log = self.gate.log();
            log.writes[j] += 1;
            if log.writes[j] == 1 && j > 0 {
                log.overlapped[j] = !log.finished[j - 1];
            }
        }
        self.inner.write_all(data)
    }

    fn finish(&mut self) -> Result<u64> {
        self.gate.finish(self.object);
        let bytes = self.inner.finish();
        self.gate.finished(self.object);
        bytes
    }
}

impl StorageBackend for Gate {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        let object = {
            let mut log = self.log();
            let j = log.names.len();
            // The one-pending bound: creating run j means run j − 1 was
            // sealed, which settled every run before it.
            if let Some(i) = (0..j.saturating_sub(1)).find(|&i| !log.finished[i]) {
                log.violations.push(format!("object {j} created while object {i} unfinished"));
            }
            log.names.push(name.to_string());
            log.writes.push(0);
            log.finishes.push(0);
            log.released.push(false);
            log.finished.push(false);
            log.overlapped.push(false);
            j
        };
        Ok(Box::new(GatedWriter { inner: self.inner.create(name)?, object, gate: self.clone() }))
    }
    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        let mut log = self.log();
        let unfinished = log.names.iter().position(|n| n == name).filter(|&j| !log.finished[j]);
        if let Some(j) = unfinished {
            log.violations.push(format!("object {j} opened before its finish returned"));
        }
        drop(log);
        self.inner.open(name)
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }
}

/// A catalog on `gate` whose runs move on a three-worker pool: enough for
/// a held `finish`, the next run's writes and that run's own `finish`.
fn catalog(gate: &Gate) -> Arc<RunCatalog<u64>> {
    let catalog =
        RunCatalog::new(Arc::new(gate.clone()), "wb", SortOrder::Ascending, IoStats::new())
            .with_block_bytes(BLOCK)
            .with_io_scheduler(Some(IoScheduler::new(3)));
    Arc::new(catalog)
}

/// Writes one run of keys `from..from + rows` and seals it write-behind.
fn seal_run(catalog: &RunCatalog<u64>, from: u64, rows: u64) -> RunMeta<u64> {
    let mut w = catalog.start_run().unwrap();
    (from..from + rows).for_each(|k| w.append(&row(k)).unwrap());
    catalog.finish_run(w).unwrap()
}

/// Runs `work` on its own thread and returns its result, failing the test
/// if it has not returned by the watchdog (the thread is left behind then).
fn within_watchdog<T: Send + 'static>(what: &str, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(work()).is_ok());
    match rx.recv_timeout(WATCHDOG) {
        Ok(done) => {
            assert!(worker.join().unwrap());
            done
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what} did not return"),
    }
}

fn keys(catalog: &RunCatalog<u64>, meta: &RunMeta<u64>) -> Vec<u64> {
    catalog.open(meta).unwrap().map(|r| r.unwrap().key).collect()
}

/// Seals `RUNS` runs of three requests each on a chained gate, then reads
/// every run back.
fn chained_drive() -> Log {
    const RUNS: u64 = 8;
    const ROWS: u64 = 40;
    let gate = Gate::new(Hold::UntilNextFinish);
    let cat = catalog(&gate);
    let producer = cat.clone();
    let metas = within_watchdog("sealing under a chained gate", move || {
        (0..RUNS).map(|r| seal_run(&producer, r * ROWS, ROWS)).collect::<Vec<_>>()
    });
    // The last run's finish waits for a run that never comes.
    gate.open();
    for (r, meta) in (0..RUNS).zip(&metas) {
        assert_eq!(keys(&cat, meta), (r * ROWS..(r + 1) * ROWS).collect::<Vec<_>>());
    }
    assert_eq!(cat.len(), RUNS as usize);
    drop(cat);
    assert_eq!(gate.inner.object_count(), 0, "the catalog's drop deletes every run");
    let log = std::mem::take(&mut *gate.log());
    log
}

#[test]
fn the_next_run_is_written_while_the_last_request_of_the_previous_is_held() {
    let log = chained_drive();
    assert!(log.violations.is_empty(), "{:?}", log.violations);
    assert_eq!(log.names.len(), 8);
    assert!(log.writes.iter().all(|&w| w == 3), "{:?}", log.writes);
    assert!(log.overlapped[1..].iter().all(|&o| o), "{:?}", log.overlapped);
}

#[test]
fn sealing_run_r_plus_2_waits_until_run_r_is_released() {
    // The gate records a run created while a run two seals back is still
    // unfinished; the chained drive gives a second pending run every chance.
    for _ in 0..4 {
        let log = chained_drive();
        assert!(log.violations.is_empty(), "{:?}", log.violations);
    }
}

#[test]
fn a_reader_opened_on_a_pending_run_gets_exactly_its_rows() {
    let gate = Gate::new(Hold::Everything);
    let cat = catalog(&gate);
    let producer = cat.clone();
    let meta =
        within_watchdog("sealing a run whose finish is held", move || seal_run(&producer, 100, 70));
    assert_eq!(cat.len(), 1, "the run is registered before its object is finished");
    let (opening_tx, opening) = mpsc::channel();
    let reader = {
        let cat = cat.clone();
        std::thread::spawn(move || {
            opening_tx.send(()).unwrap();
            keys(&cat, &meta)
        })
    };
    opening.recv().unwrap();
    // Give an open that does not wait a chance to reach the backend first.
    (0..1_000).for_each(|_| std::thread::yield_now());
    assert!(!gate.log().finished[0], "the gate still holds the finish");
    gate.open();
    assert_eq!(reader.join().unwrap(), (100..170).collect::<Vec<_>>());
    let log = gate.log();
    assert!(log.violations.is_empty(), "{:?}", log.violations);
    assert_eq!((log.writes[0], log.finishes[0]), (5, 1));
}

#[test]
fn write_behind_runs_cost_the_request_budget_table() {
    // (rows, blocks B, `write_all`s) from `request_budget.rs`: ⌈B / G⌉,
    // and one more for the end marker only where nothing is pending for it
    // to ride behind.
    let cases: [(u64, usize, u64); 8] = [
        (13, 4, 1),
        (29, 8, 2),
        (12, 3, 1),
        (44, 11, 3),
        (17, 5, 2),
        (16, 4, 2),
        (32, 8, 3),
        (0, 0, 1),
    ];
    let gate = Gate::new(Hold::Nothing);
    let cat = catalog(&gate);
    let metas: Vec<RunMeta<u64>> =
        cases.iter().map(|&(rows, ..)| seal_run(&cat, 0, rows)).collect();
    // Sealing the empty run settled the run before it, and the empty run
    // itself was settled and deleted: nothing is pending any more.
    let log = gate.log();
    assert!(log.violations.is_empty(), "{:?}", log.violations);
    for (j, ((rows, blocks, writes), meta)) in cases.iter().zip(&metas).enumerate() {
        assert_eq!(meta.blocks.len(), *blocks, "{rows} rows");
        assert_eq!((log.writes[j], log.finishes[j]), (*writes, 1), "{rows} rows");
        if *rows > 0 {
            assert_eq!(gate.inner.size_of(&meta.name).unwrap(), meta.bytes, "{rows} rows");
        }
    }
    drop(log);
    assert_eq!(cat.len(), cases.len() - 1, "the empty run is deleted, not registered");
    assert_eq!(gate.inner.object_count(), cases.len() - 1);
}
