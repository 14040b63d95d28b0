//! Request-budget conformance: up to four contiguous blocks travel in one
//! backend request in each direction (see the `run.rs` module docs for the
//! table these tests pin), for every sink × reader mode, without the
//! on-storage format moving a byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use histok_storage::{
    IoScheduler, IoStats, KeyRange, MemoryBackend, PrefetchingRunReader, RunMeta, RunReader,
    RunWriter, SpillReader, SpillWriter, StorageBackend, ThrottleModel, ThrottledBackend,
};
use histok_types::{Result, Row, SortOrder};

/// Requests seen by a [`Counting`] backend, by kind.
#[derive(Default)]
struct Requests {
    write_all: AtomicU64,
    finish: AtomicU64,
    read_exact: AtomicU64,
    skip: AtomicU64,
    bytes_read: AtomicU64,
}

impl Requests {
    /// `(write_all, finish, read_exact, skip)` since the last call.
    fn take(&self) -> (u64, u64, u64, u64) {
        (
            self.write_all.swap(0, Ordering::Relaxed),
            self.finish.swap(0, Ordering::Relaxed),
            self.read_exact.swap(0, Ordering::Relaxed),
            self.skip.swap(0, Ordering::Relaxed),
        )
    }

    /// Bytes asked for through `read_exact` since the last call.
    fn take_bytes_read(&self) -> u64 {
        self.bytes_read.swap(0, Ordering::Relaxed)
    }
}

/// A [`StorageBackend`] that counts every request its handles receive.
#[derive(Clone, Default)]
struct Counting {
    inner: MemoryBackend,
    seen: Arc<Requests>,
}

struct CountingWriter(Box<dyn SpillWriter>, Arc<Requests>);
struct CountingReader(Box<dyn SpillReader>, Arc<Requests>);

impl SpillWriter for CountingWriter {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.1.write_all.fetch_add(1, Ordering::Relaxed);
        self.0.write_all(data)
    }
    fn finish(&mut self) -> Result<u64> {
        self.1.finish.fetch_add(1, Ordering::Relaxed);
        self.0.finish()
    }
}

impl SpillReader for CountingReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.1.read_exact.fetch_add(1, Ordering::Relaxed);
        self.1.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.0.read_exact(buf)
    }
    fn skip(&mut self, n: u64) -> Result<()> {
        self.1.skip.fetch_add(1, Ordering::Relaxed);
        self.0.skip(n)
    }
}

impl StorageBackend for Counting {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        Ok(Box::new(CountingWriter(self.inner.create(name)?, self.seen.clone())))
    }
    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        Ok(Box::new(CountingReader(self.inner.open(name)?, self.seen.clone())))
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Sync,
    Thread,
    Scheduled,
}
const MODES: [Mode; 3] = [Mode::Sync, Mode::Thread, Mode::Scheduled];

/// Encoded bytes of one `row(_)`: an 8-byte key, then 16 payload bytes
/// behind their length prefix. `BLOCK` holds exactly four of them.
const ROW_BYTES: usize = 8 + 4 + 16;
const BLOCK: usize = 4 * ROW_BYTES;
/// Bytes of one full block on storage: its 16-byte header and payload.
const FRAME: u64 = 16 + BLOCK as u64;
/// Blocks per request (`REQUEST_BLOCKS` in `run.rs`): sixteen rows here.
const G: u64 = 4;

fn row(k: u64) -> Row<u64> {
    Row::new(k, vec![k as u8; 16])
}

fn start_run(
    be: &dyn StorageBackend,
    sched: &IoScheduler,
    mode: Mode,
    name: &str,
    block_bytes: usize,
    stats: IoStats,
) -> RunWriter<u64> {
    let (pipelined, handle) = match mode {
        Mode::Sync => (false, None),
        Mode::Thread => (true, None),
        Mode::Scheduled => (true, Some(sched.handle())),
    };
    RunWriter::with_io(be, name, SortOrder::Ascending, stats, block_bytes, pipelined, handle)
        .unwrap()
}

fn write_run(
    be: &dyn StorageBackend,
    sched: &IoScheduler,
    mode: Mode,
    name: &str,
    rows: u64,
    stats: IoStats,
) -> RunMeta<u64> {
    let mut w = start_run(be, sched, mode, name, BLOCK, stats);
    for k in 0..rows {
        w.append(&row(k)).unwrap();
    }
    w.finish().unwrap()
}

fn object_bytes(be: &dyn StorageBackend, name: &str) -> Vec<u8> {
    let mut all = vec![0u8; be.size_of(name).unwrap() as usize];
    be.open(name).unwrap().read_exact(&mut all).unwrap();
    all
}

#[test]
fn a_row_encodes_to_the_size_the_block_target_assumes() {
    assert_eq!(row(7).encoded_len(), ROW_BYTES);
}

#[test]
fn writing_a_run_costs_one_request_per_four_blocks_plus_finish() {
    let sched = IoScheduler::new(2);
    // (rows, blocks B, `write_all`s): ⌈B / G⌉, and one more for the end
    // marker only where nothing is pending for it to ride behind.
    let cases: [(u64, usize, u64); 8] = [
        // B mod G = 0, the last block holding one row: the end marker
        // rides with it.
        (13, 4, 1),
        (29, 8, 2),
        // Ending exactly on a block boundary that is not a request
        // boundary (B mod G = 3): the header reserved behind the pending
        // blocks is the end marker.
        (12, 3, 1),
        (44, 11, 3),
        // B mod G = 1: the fifth block travels alone with the end marker.
        (17, 5, 2),
        // Ending exactly on a request boundary: the last request left
        // before `finish` knew it was the last, so the end marker travels
        // alone.
        (16, 4, 2),
        (32, 8, 3),
        // An empty run is its file header and end marker in one request.
        (0, 0, 1),
    ];
    for mode in MODES {
        let be = Counting::default();
        for (rows, blocks, writes) in cases {
            let meta = write_run(&be, &sched, mode, "run", rows, IoStats::new());
            assert_eq!(meta.blocks.len(), blocks, "{rows} rows");
            assert_eq!(be.seen.take(), (writes, 1, 0, 0), "{mode:?}, {rows} rows");
            assert_eq!(be.inner.size_of("run").unwrap(), meta.bytes, "{mode:?}, {rows} rows");
        }
    }
}

#[test]
fn the_three_sinks_write_identical_objects() {
    let sched = IoScheduler::new(2);
    let be = MemoryBackend::new();
    for rows in [0, 3, 12, 13, 16, 17, 500] {
        let metas: Vec<RunMeta<u64>> = MODES
            .iter()
            .map(|&mode| write_run(&be, &sched, mode, &format!("{mode:?}"), rows, IoStats::new()))
            .collect();
        let sync = object_bytes(&be, "Sync");
        assert_eq!(sync.len() as u64, metas[0].bytes);
        for (mode, meta) in MODES.iter().zip(&metas).skip(1) {
            assert_eq!(meta.bytes, metas[0].bytes);
            assert_eq!(meta.blocks, metas[0].blocks);
            assert_eq!(object_bytes(&be, &format!("{mode:?}")), sync, "{mode:?}, {rows} rows");
        }
    }
}

/// Format v1, byte for byte, as written before blocks travelled in one
/// request: any drift in the framing shows up here, not in a reader that
/// happens to agree with the writer.
#[test]
fn a_three_row_run_matches_the_golden_bytes() {
    const GOLDEN: &str = "4b54534801000000314b4c420300000027000000719e197a\
        010000000000000001000000aa020000000000000002000000bbcc03000000000000\
        0000000000314b4c42000000000000000000000000";
    let sched = IoScheduler::new(1);
    for mode in MODES {
        let be = MemoryBackend::new();
        let mut w =
            start_run(&be, &sched, mode, "g", histok_storage::DEFAULT_BLOCK_BYTES, IoStats::new());
        w.append(&Row::new(1, vec![0xAA])).unwrap();
        w.append(&Row::new(2, vec![0xBB, 0xCC])).unwrap();
        w.append(&Row::new(3, vec![])).unwrap();
        w.finish().unwrap();
        let hex: String = object_bytes(&be, "g").iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN, "{mode:?}");
    }
}

#[test]
fn a_full_scan_costs_one_request_per_four_blocks() {
    let sched = IoScheduler::new(2);
    let be = Counting::default();
    // B = 4, 3, 4, 5, 11, 0: B mod G of 0, 1 and 3, on and off a block
    // boundary.
    for rows in [13, 12, 16, 17, 44, 0] {
        let meta = write_run(&be, &sched, Mode::Sync, "scan", rows, IoStats::new());
        let requests = (meta.blocks.len() as u64).div_ceil(G);
        be.seen.take();
        be.seen.take_bytes_read();
        let open = || RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let expected: Vec<u64> = (0..rows).collect();
        let keys = |it: &mut dyn Iterator<Item = Result<Row<u64>>>| -> Vec<u64> {
            it.map(|r| r.unwrap().key).collect()
        };
        assert_eq!(keys(&mut open()), expected);
        assert_eq!(be.seen.take(), (0, 0, requests, 0), "plain, {rows} rows");
        // Everything but the end marker, which is never read.
        assert_eq!(be.seen.take_bytes_read(), if rows == 0 { 0 } else { meta.bytes - 16 });
        assert_eq!(keys(&mut PrefetchingRunReader::spawn(open(), 2)), expected);
        assert_eq!(be.seen.take(), (0, 0, requests, 0), "thread prefetch, {rows} rows");
        let mut pooled = PrefetchingRunReader::spawn_scheduled(open(), 2, sched.handle());
        assert_eq!(keys(&mut pooled), expected);
        assert_eq!(be.seen.take(), (0, 0, requests, 0), "scheduled prefetch, {rows} rows");
    }
}

#[test]
fn a_range_open_costs_its_blocks_and_at_most_one_skip() {
    let sched = IoScheduler::new(1);
    let be = Counting::default();
    // Ten blocks of four rows: block b holds keys 4b .. 4b+3.
    let meta = write_run(&be, &sched, Mode::Sync, "range", 40, IoStats::new());
    assert_eq!(meta.blocks.len(), 10);
    be.seen.take();
    be.seen.take_bytes_read();
    let read = |lo: Option<u64>, hi: Option<u64>| -> Vec<u64> {
        RunReader::open_range(&be, &meta, IoStats::new(), KeyRange::half_open(lo, hi))
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect()
    };
    // Interior: keys 13..26 live in blocks 3..=6 — one request of four
    // blocks behind one positioning skip, and not a byte of block 7.
    assert_eq!(read(Some(13), Some(26)), (13..26).collect::<Vec<_>>());
    assert_eq!(be.seen.take(), (0, 0, 1, 1), "interior range");
    assert_eq!(be.seen.take_bytes_read(), 4 * FRAME);
    // Keys 13..34 live in blocks 3..=8: R = 6 straddles two requests, the
    // second stopping short at the last in-range block.
    assert_eq!(read(Some(13), Some(34)), (13..34).collect::<Vec<_>>());
    assert_eq!(be.seen.take(), (0, 0, 2, 1), "range across two requests");
    assert_eq!(be.seen.take_bytes_read(), 6 * FRAME);
    // The same through both prefetchers: read-ahead stops at the range end.
    let open = || {
        let range = KeyRange::half_open(Some(13), Some(34));
        RunReader::open_range(&be, &meta, IoStats::new(), range).unwrap()
    };
    assert_eq!(PrefetchingRunReader::spawn(open(), 3).count(), 21);
    assert_eq!((be.seen.take(), be.seen.take_bytes_read()), ((0, 0, 2, 1), 6 * FRAME));
    assert_eq!(PrefetchingRunReader::spawn_scheduled(open(), 3, sched.handle()).count(), 21);
    assert_eq!((be.seen.take(), be.seen.take_bytes_read()), ((0, 0, 2, 1), 6 * FRAME));
    // From block 0: no positioning at all.
    assert_eq!(read(None, Some(6)), (0..6).collect::<Vec<_>>());
    assert_eq!(be.seen.take(), (0, 0, 1, 0), "range from block 0");
    assert_eq!(be.seen.take_bytes_read(), 8 + 2 * FRAME);
    // To the end of the run: the end marker is still never read.
    assert_eq!(read(Some(36), None), (36..40).collect::<Vec<_>>());
    assert_eq!(be.seen.take(), (0, 0, 1, 1), "range to the end");
    assert_eq!(be.seen.take_bytes_read(), FRAME);
    // Matching nothing: not a single request.
    assert!(read(Some(1_000), None).is_empty());
    assert_eq!(be.seen.take(), (0, 0, 0, 0), "range past the run");
    // A range before the run's first key: the index holds last keys only,
    // so block 0 counts as in range (R = 1) and is read, then trimmed.
    assert!(read(None, Some(0)).is_empty());
    assert_eq!(be.seen.take(), (0, 0, 1, 0), "range before the run");
    assert_eq!(be.seen.take_bytes_read(), 8 + FRAME);
}

#[test]
fn skip_rows_passes_whole_blocks_in_one_request() {
    let sched = IoScheduler::new(1);
    let be = Counting::default();
    let meta = write_run(&be, &sched, Mode::Sync, "skip", 40, IoStats::new());
    be.seen.take();
    let stats = IoStats::new();
    let mut reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
    // 22 rows = five whole blocks (one skip) + two rows of the sixth (one
    // read, which brings blocks 5..=8).
    reader.skip_rows(22).unwrap();
    assert_eq!(be.seen.take(), (0, 0, 1, 1));
    assert_eq!(stats.snapshot().blocks_skipped, 5);
    assert_eq!(stats.snapshot().read_ops, 1);
    // Landing inside the request already fetched: blocks 6 and 7 are
    // dropped from the queue without a request — and, having been read,
    // are not booked as skipped.
    reader.skip_rows(2 + 8).unwrap();
    assert_eq!(be.seen.take(), (0, 0, 0, 0));
    assert_eq!(stats.snapshot().blocks_skipped, 5);
    // Block 8 is in hand; block 9 is the next request.
    let rest: Vec<u64> = reader.by_ref().map(|r| r.unwrap().key).collect();
    assert_eq!(rest, (32..40).collect::<Vec<_>>());
    assert_eq!(be.seen.take(), (0, 0, 1, 0));
    assert_eq!(reader.rows_yielded(), 40);

    // Past the fetched request: a straddling first block brings blocks
    // 0..=3; skipping on through block 5 drops 1..=3 and `skip`s only 4
    // and 5, then reads the request that starts at block 6.
    let stats = IoStats::new();
    let mut reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
    reader.skip_rows(2).unwrap();
    assert_eq!(be.seen.take(), (0, 0, 1, 0));
    reader.skip_rows(2 + 4 * 5 + 1).unwrap();
    assert_eq!(be.seen.take(), (0, 0, 1, 1));
    assert_eq!(stats.snapshot().blocks_skipped, 2);
    let rest: Vec<u64> = reader.by_ref().map(|r| r.unwrap().key).collect();
    assert_eq!(rest, (25..40).collect::<Vec<_>>());
    assert_eq!(be.seen.take(), (0, 0, 0, 0));
    assert_eq!(reader.rows_yielded(), 40);
}

/// `write_ops` / `read_ops` count data requests, so with the requests
/// they leave out they reconstruct the throttle model's clock exactly.
#[test]
fn io_stats_ops_account_for_the_modelled_clock() {
    let model = ThrottleModel {
        per_op: Duration::from_micros(100),
        per_byte: Duration::from_nanos(3),
        sleep: false,
    };
    let sched = IoScheduler::new(2);
    for mode in MODES {
        let be = ThrottledBackend::new(MemoryBackend::new(), model);
        let stats = IoStats::new();
        let meta = write_run(&be, &sched, mode, "clock", 4 * 50 + 1, stats.clone());
        let scanned = RunReader::open(&be, &meta, stats.clone()).unwrap().count();
        assert_eq!(scanned, 201);
        let io = stats.snapshot();
        // 51 blocks travel in ⌈51 / 4⌉ requests each way; an op is a
        // request, with the rows and bytes of all its blocks.
        assert_eq!((io.write_ops, io.read_ops), (13, 13));
        assert_eq!((io.write_latency.count, io.read_latency.count), (13, 13));
        assert_eq!((io.rows_written, io.rows_read), (201, 201));
        // Block headers and payloads: no file header, no end marker.
        assert_eq!((io.bytes_written, io.bytes_read), (meta.bytes - 24, meta.bytes - 24));
        let (finishes, skips) = (1, 0);
        // Everything is written; everything but the end marker is read.
        let wire_bytes = meta.bytes + (meta.bytes - 16);
        let expected = (io.write_ops + io.read_ops + finishes + skips)
            * model.per_op.as_nanos() as u64
            + wire_bytes * model.per_byte.as_nanos() as u64;
        assert_eq!(be.virtual_io_time().as_nanos() as u64, expected, "{mode:?}");
    }
}
