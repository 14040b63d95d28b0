//! Reads are a count: what a prefetching reader fetches is a function of
//! how many batches its consumer took, never of how far the I/O pool got.
//!
//! A gated backend holds every read request until a releaser thread lets
//! one through, picking among the waiting requests in an order drawn from
//! a seed. Several readers share a small pool; the consumer takes a
//! seeded interleaving of batches and drops each reader the moment it has
//! its share. Whatever the order, each reader must have fetched exactly
//! what an inline reader fetches for min(batches taken +
//! `READAHEAD_BLOCKS`, blocks in the run) batches.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use histok_storage::{
    IoScheduler, IoStats, MemoryBackend, PrefetchingRunReader, RunMeta, RunReader, RunWriter,
    SpillReader, SpillWriter, StorageBackend, READAHEAD_BLOCKS,
};
use histok_types::{Result, Row, SortOrder};

const TEST_TIMEOUT: Duration = Duration::from_secs(60);

/// SplitMix64: a seeded stream of draws for the release and take orders.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

#[derive(Default)]
struct GateState {
    /// Tickets of the read requests held at the gate.
    waiting: Vec<u64>,
    next_ticket: u64,
    /// Set once the consumer is done: requests pass without waiting.
    open: bool,
}

/// A memory backend whose read requests wait at a gate until the
/// releaser lets them through.
#[derive(Clone, Default)]
struct Gate {
    inner: MemoryBackend,
    state: Arc<(Mutex<GateState>, Condvar)>,
}

impl Gate {
    fn pass(&self) {
        let (lock, cond) = &*self.state;
        let mut st = lock.lock().unwrap();
        if st.open {
            return;
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push(ticket);
        cond.notify_all();
        while st.waiting.contains(&ticket) {
            st = cond.wait(st).unwrap();
        }
    }

    /// Lets the waiting requests through one at a time, each picked by
    /// `draws` among those waiting, until the gate opens.
    fn release(&self, mut draws: Draws) {
        let (lock, cond) = &*self.state;
        loop {
            let mut st = lock.lock().unwrap();
            while st.waiting.is_empty() && !st.open {
                st = cond.wait(st).unwrap();
            }
            if st.open {
                return;
            }
            drop(st);
            // Give requests issued at about the same time a chance to
            // queue up, so the draw has more than one to pick from.
            for _ in 0..draws.below(8) {
                std::thread::yield_now();
            }
            let mut st = lock.lock().unwrap();
            let pick = draws.below(st.waiting.len());
            st.waiting.swap_remove(pick);
            cond.notify_all();
        }
    }

    fn open(&self) {
        let (lock, cond) = &*self.state;
        let mut st = lock.lock().unwrap();
        st.open = true;
        st.waiting.clear();
        cond.notify_all();
    }
}

struct Gated(Box<dyn SpillReader>, Gate);

impl SpillReader for Gated {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.1.pass();
        self.0.read_exact(buf)
    }
}

impl StorageBackend for Gate {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        self.inner.create(name)
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

/// `(read_ops, bytes_read, rows_read)` of one reader.
type Reads = (u64, u64, u64);

fn reads(stats: &IoStats) -> Reads {
    let s = stats.snapshot();
    (s.read_ops, s.bytes_read, s.rows_read)
}

/// What an inline reader of `meta` fetches for `batches` batches.
fn inline_reads(backend: &dyn StorageBackend, meta: &RunMeta<u64>, batches: usize) -> Reads {
    let stats = IoStats::new();
    let mut reader = RunReader::open(backend, meta, stats.clone()).unwrap();
    for _ in 0..batches {
        reader.next_batch().unwrap().unwrap();
    }
    drop(reader);
    reads(&stats)
}

/// One seeded drive: every reader on a two-worker pool, batches taken in a
/// seeded interleaving, each reader dropped right after its last take.
fn drive(gate: &Gate, runs: &[(RunMeta<u64>, usize)], seed: u64) -> Vec<Reads> {
    let pool = IoScheduler::new(2);
    let releaser = {
        let gate = gate.clone();
        std::thread::spawn(move || gate.release(Draws(seed)))
    };
    let mut draws = Draws(!seed);
    let stats: Vec<IoStats> = runs.iter().map(|_| IoStats::new()).collect();
    let mut live: Vec<(usize, PrefetchingRunReader<u64>, usize)> = runs
        .iter()
        .zip(&stats)
        .enumerate()
        .map(|(i, ((meta, _), stats))| {
            let reader = RunReader::open(gate, meta, stats.clone()).unwrap();
            (i, PrefetchingRunReader::new(reader, pool.handle()), 0)
        })
        .collect();
    live.retain(|(i, _, _)| runs[*i].1 > 0);
    while !live.is_empty() {
        let pick = draws.below(live.len());
        let (i, reader, taken) = &mut live[pick];
        reader.next_batch().unwrap().expect("the run has the batch");
        *taken += 1;
        if *taken == runs[*i].1 {
            live.swap_remove(pick);
        }
    }
    gate.open();
    releaser.join().unwrap();
    stats.iter().map(reads).collect()
}

#[test]
fn prefetched_reads_are_a_count_at_every_completion_order() {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        let gate = Gate::default();
        // 64-byte blocks of six rows; 40 blocks a run.
        let write = |name: &str| {
            let mut w = RunWriter::with_io(
                &gate.inner,
                name,
                SortOrder::Ascending,
                IoStats::new(),
                64,
                None,
            )
            .unwrap();
            for k in 0..240u64 {
                w.append(&Row::key_only(k)).unwrap();
            }
            w.finish().unwrap()
        };
        // Batches taken per reader: none, a request boundary inside the
        // read-ahead, mid-run, the whole run.
        let takes = [0, 3, 7, 18, 40];
        let runs: Vec<(RunMeta<u64>, usize)> =
            takes.iter().enumerate().map(|(i, &t)| (write(&format!("r{i}")), t)).collect();
        let want: Vec<Reads> = runs
            .iter()
            .map(|(meta, t)| {
                inline_reads(&gate.inner, meta, (t + READAHEAD_BLOCKS).min(meta.blocks.len()))
            })
            .collect();
        for seed in 0..24 {
            *gate.state.0.lock().unwrap() = GateState::default();
            assert_eq!(drive(&gate, &runs, seed), want, "seed {seed}");
        }
        let _ = tx.send(());
    });
    match rx.recv_timeout(TEST_TIMEOUT) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("the seeded drives deadlocked"),
        // Done, or panicked: the join passes the panic on.
        _ => body.join().unwrap(),
    }
}
