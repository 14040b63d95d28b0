//! The sorted-run file format.
//!
//! A run is a sequence of CRC-checked blocks, each holding a batch of
//! encoded rows in sort order:
//!
//! ```text
//! file   := FILE_MAGIC(u32) version(u32) block* end_block
//! block  := BLOCK_MAGIC(u32) row_count(u32) payload_len(u32) crc32(u32) payload
//! end    := block with row_count == 0 && payload_len == 0
//! ```
//!
//! Blocks target [`DEFAULT_BLOCK_BYTES`] of payload and travel up to
//! `REQUEST_BLOCKS` (four) at a time, so spills hit the backend in large
//! sequential requests — the only access pattern that is affordable
//! against the paper's disaggregated storage service. Per-block metadata
//! (row count, byte size, last key) is retained in [`RunMeta`], enabling
//! the §4.1 merge optimizations: a reader can skip whole blocks that an
//! `OFFSET` clause or a cutoff key proves irrelevant.
//!
//! # Request budget
//!
//! Every backend call is a round trip (§2.1), so G = `REQUEST_BLOCKS`
//! contiguous blocks share **one** request in each direction (B = blocks
//! of the run; `finish` and `skip` are requests too):
//!
//! | path | requests |
//! |---|---|
//! | write one run (sync, thread and scheduled sinks alike) | ⌈B / G⌉ + 1 (`finish`); one more when the run ends exactly on a request boundary; 1 + 1 for an empty run |
//! | full scan of one run (plain or prefetching) | ⌈B / G⌉ |
//! | range open reading R of B blocks | ⌈R / G⌉, + 1 `skip` if the first in-range block is not block 0; 0 when R = 0; never a byte past the last in-range block |
//! | `skip_rows` across S whole blocks | ≤ 1 `skip` (none when all S are already fetched) + ≤ 1 read for a straddling block |
//!
//! The block stays the unit of everything else — CRC, index entry, decoded
//! batch, read-ahead, skipping — which is why the request grew and the
//! block did not (DESIGN.md §7 has the measurements). The writer reserves
//! each block header (and, on a run's first block, the file header) in
//! the buffer rows are encoded into and opens the next block behind the
//! sealed ones: the sink patches rows/length/CRC of every block *in
//! place* and sends the whole frame with one `write_all` — no second
//! buffer, no copy — and the end marker rides behind the last block. The
//! reader sizes each request from the [`RunMeta`] block index it is
//! opened with: one `read_exact` fetches the headers and payloads of up
//! to G blocks, each is checked against the index and its CRC only when
//! it is decoded, and the end marker is never read.

use std::sync::Arc;
use std::time::{Duration, Instant};

use histok_types::{Error, Result, Row, RowBatch, SortKey, SortOrder};

use crate::backend::{SpillReader, SpillWriter, StorageBackend};
use crate::crc::crc32;
use crate::pipeline::SpillPipeline;
use crate::scheduler::IoSchedulerHandle;
use crate::stats::{IoStats, OverlapLedger};

/// Target payload bytes per block (64 KiB).
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

/// Contiguous blocks carried by one backend request, in either direction
/// (256 KiB at the default block size). A constant, not a knob: DESIGN.md
/// §7 records the measurements behind four.
pub(crate) const REQUEST_BLOCKS: usize = 4;

const FILE_MAGIC: u32 = 0x4853_544B; // "HSTK"
const FILE_VERSION: u32 = 1;
const FILE_HEADER_BYTES: usize = 8;
const BLOCK_MAGIC: u32 = 0x424C_4B31; // "BLK1"
const BLOCK_HEADER_BYTES: usize = 16;

/// Builds the 16-byte framing header for a sealed block payload. The
/// end-of-run marker is the header of an empty block: all-zero counts and
/// the CRC of no bytes, which is 0.
fn encode_block_header(rows: u32, payload_len: u32, crc: u32) -> [u8; BLOCK_HEADER_BYTES] {
    let mut header = [0u8; BLOCK_HEADER_BYTES];
    header[0..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&rows.to_le_bytes());
    header[8..12].copy_from_slice(&payload_len.to_le_bytes());
    header[12..16].copy_from_slice(&crc.to_le_bytes());
    header
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("a four-byte slice"))
}

/// Room a frame needs behind whatever precedes its block header: the
/// header, the payload target with slack for the row that crosses it, and
/// a trailing end marker.
fn frame_capacity(block_target: usize) -> usize {
    2 * BLOCK_HEADER_BYTES + block_target + 256
}

/// Bytes block `index` occupies on storage: its header and payload, plus
/// the file header in front of block 0.
fn frame_bytes(index: usize, payload_bytes: u32) -> usize {
    let file_header = if index == 0 { FILE_HEADER_BYTES } else { 0 };
    file_header + BLOCK_HEADER_BYTES + payload_bytes as usize
}

/// Up to [`REQUEST_BLOCKS`] sealed blocks on their way to storage, laid out
/// as the single request that carries them:
/// `[file header] (block_header payload)+ [end marker]`.
///
/// [`RunWriter`] encodes rows straight behind the reserved header bytes;
/// whichever sink ends up with the frame — the calling thread, a pipeline
/// thread or a scheduler job — completes it with [`Frame::write`].
pub(crate) struct Frame {
    /// The whole request. The headers of `blocks` are still placeholders;
    /// anything before the first (file header) and behind the last payload
    /// (end marker) is final.
    buf: Vec<u8>,
    /// `(header_at, rows, payload_len)` of each block, in file order. Empty
    /// for the bare end marker.
    blocks: Vec<(usize, u32, u32)>,
    /// The run's final frame: the object is finished right after it.
    pub(crate) last: bool,
}

impl Frame {
    /// CRCs every payload, patches the block headers in place and sends
    /// the frame as **one** `write_all`; a `last` frame also finishes the
    /// object. Books the request into `stats` and returns the time spent
    /// in the backend, for the caller to book as wait or as overlapped
    /// busy time. A frame without blocks is the bare end marker and books
    /// nothing.
    pub(crate) fn write(
        &mut self,
        writer: &mut dyn SpillWriter,
        stats: &IoStats,
    ) -> Result<Duration> {
        let (mut rows, mut bytes) = (0u64, 0u64);
        for &(header_at, block_rows, payload_len) in &self.blocks {
            let payload_at = header_at + BLOCK_HEADER_BYTES;
            let crc = crc32(&self.buf[payload_at..payload_at + payload_len as usize]);
            let header = encode_block_header(block_rows, payload_len, crc);
            self.buf[header_at..payload_at].copy_from_slice(&header);
            rows += u64::from(block_rows);
            bytes += BLOCK_HEADER_BYTES as u64 + u64::from(payload_len);
        }
        // One Instant pair around the whole request — never per row.
        let started = Instant::now();
        writer.write_all(&self.buf)?;
        if !self.blocks.is_empty() {
            stats.record_write_timed(rows, bytes, started.elapsed());
        }
        if self.last {
            writer.finish()?;
        }
        Ok(started.elapsed())
    }
}

/// A key interval restricting a range-scoped [`RunReader`]: rows in
/// `[lo, hi)` in output order, or `[lo, hi]` when `hi_inclusive` (used to
/// clip the final merge partition at a cutoff key, where ties survive).
/// `None` bounds are open ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange<K> {
    /// First key included (output order); `None` = from the start.
    pub lo: Option<K>,
    /// Upper bound; `None` = to the end of the run.
    pub hi: Option<K>,
    /// When true the upper bound itself is included (`[lo, hi]`).
    pub hi_inclusive: bool,
}

impl<K> KeyRange<K> {
    /// The unbounded range (reads the whole run).
    pub fn all() -> Self {
        KeyRange { lo: None, hi: None, hi_inclusive: false }
    }

    /// `[lo, hi)`: from `lo` (inclusive) up to but excluding `hi`.
    pub fn half_open(lo: Option<K>, hi: Option<K>) -> Self {
        KeyRange { lo, hi, hi_inclusive: false }
    }

    /// True if no bound is set.
    pub fn is_unbounded(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }
}

impl<K: Ord> KeyRange<K> {
    /// True if `key` lies inside the range under `order`.
    pub fn contains(&self, key: &K, order: SortOrder) -> bool {
        if let Some(lo) = &self.lo {
            if order.precedes(key, lo) {
                return false;
            }
        }
        match &self.hi {
            Some(hi) if self.hi_inclusive => !order.follows(key, hi),
            Some(hi) => order.precedes(key, hi),
            None => true,
        }
    }
}

/// Per-reader state of a range-scoped open (see [`RunReader::open_range`]).
struct RangeState<K> {
    range: KeyRange<K>,
    order: SortOrder,
    /// True until the first in-range block has been decoded: only that
    /// block can hold rows preceding `lo`.
    trim_lo: bool,
}

/// Metadata of one block within a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta<K> {
    /// Rows in the block.
    pub rows: u32,
    /// Payload bytes (excluding the 16-byte header).
    pub payload_bytes: u32,
    /// The last (worst, in output order) key in the block.
    pub last_key: K,
}

/// Metadata of one finished sorted run.
#[derive(Debug, Clone)]
pub struct RunMeta<K> {
    /// Backend object name.
    pub name: String,
    /// Total rows in the run.
    pub rows: u64,
    /// Total bytes on storage (headers included).
    pub bytes: u64,
    /// First (best) key, `None` for an empty run.
    pub first_key: Option<K>,
    /// Last (worst) key, `None` for an empty run.
    pub last_key: Option<K>,
    /// Per-block index in file order.
    pub blocks: Vec<BlockMeta<K>>,
    /// Sort direction the rows were written in.
    pub order: SortOrder,
}

impl<K> RunMeta<K> {
    /// True if the run holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// Writes rows (already in sort order) into a run object.
///
/// The writer enforces the sort invariant: appending a row whose key sorts
/// before the previous one is an error, which catches run-generation bugs
/// at the earliest possible moment.
pub struct RunWriter<K: SortKey> {
    name: String,
    sink: BlockSink,
    order: SortOrder,
    block_target: usize,
    /// The frame under construction: the sealed blocks of the request,
    /// then the open block's reserved header and the rows encoded so far
    /// (see [`Frame`]).
    block_buf: Vec<u8>,
    /// `(header_at, rows, payload_len)` of the blocks sealed into
    /// `block_buf` and not yet sent; fewer than [`REQUEST_BLOCKS`].
    sealed: Vec<(usize, u32, u32)>,
    /// Where the open block's header sits in `block_buf`.
    header_at: usize,
    rows_in_block: u32,
    blocks: Vec<BlockMeta<K>>,
    rows: u64,
    bytes: u64,
    first_key: Option<K>,
    /// Last key of the most recently *sealed* block, decoded once per block
    /// at flush time. The hot append path never clones a key: the previous
    /// row's key lives in `block_buf` (at `last_row_at`) and is only decoded
    /// when the normalized-prefix order check is inconclusive.
    boundary_key: Option<K>,
    /// Normalized prefix of the most recently appended key.
    last_prefix: u64,
    /// Byte offset in `block_buf` where the most recent row's encoding
    /// starts.
    last_row_at: usize,
    stats: IoStats,
}

/// Where sealed frames go: either the calling thread CRCs and writes them
/// synchronously, or they are handed to a [`SpillPipeline`] writer thread
/// (double-buffered, bounded backpressure — see `pipeline.rs`).
enum BlockSink {
    Sync(Box<dyn SpillWriter>),
    Pipelined(SpillPipeline),
}

impl<K: SortKey> RunWriter<K> {
    /// Starts a new run named `name` on `backend`.
    pub fn create(
        backend: &dyn StorageBackend,
        name: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
    ) -> Result<Self> {
        Self::with_options(backend, name, order, stats, DEFAULT_BLOCK_BYTES, false)
    }

    /// Starts a run with a custom block payload target (tests use small
    /// blocks to exercise the block machinery).
    pub fn with_block_bytes(
        backend: &dyn StorageBackend,
        name: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
        block_target: usize,
    ) -> Result<Self> {
        Self::with_options(backend, name, order, stats, block_target, false)
    }

    /// Starts a run with a custom block target and, when `pipelined`, a
    /// background writer thread that CRCs and writes sealed blocks while
    /// the caller keeps appending into the next one.
    pub fn with_options(
        backend: &dyn StorageBackend,
        name: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
        block_target: usize,
        pipelined: bool,
    ) -> Result<Self> {
        Self::with_io(backend, name, order, stats, block_target, pipelined, None)
    }

    /// As [`RunWriter::with_options`], but a pipelined writer submits its
    /// block writes to `scheduler`'s shared worker pool (when given)
    /// instead of spawning a dedicated thread.
    pub fn with_io(
        backend: &dyn StorageBackend,
        name: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
        block_target: usize,
        pipelined: bool,
        scheduler: Option<IoSchedulerHandle>,
    ) -> Result<Self> {
        if block_target == 0 {
            return Err(Error::InvalidConfig("block target must be positive".into()));
        }
        let name = name.into();
        let writer = backend.create(&name)?;
        // Nothing is sent yet in any mode: the file header travels in the
        // first frame.
        let sink = match (pipelined, scheduler) {
            (false, _) => BlockSink::Sync(writer),
            (true, None) => BlockSink::Pipelined(SpillPipeline::spawn(writer, stats.clone())),
            (true, Some(handle)) => {
                BlockSink::Pipelined(SpillPipeline::spawn_scheduled(writer, stats.clone(), handle))
            }
        };
        let mut block_buf = Vec::with_capacity(FILE_HEADER_BYTES + frame_capacity(block_target));
        block_buf.extend_from_slice(&FILE_MAGIC.to_le_bytes());
        block_buf.extend_from_slice(&FILE_VERSION.to_le_bytes());
        let mut run = RunWriter {
            name,
            sink,
            order,
            block_target,
            block_buf,
            sealed: Vec::new(),
            header_at: 0,
            rows_in_block: 0,
            blocks: Vec::new(),
            rows: 0,
            bytes: FILE_HEADER_BYTES as u64,
            first_key: None,
            boundary_key: None,
            last_prefix: 0,
            last_row_at: 0,
            stats,
        };
        run.reserve_block_header();
        Ok(run)
    }

    /// Opens the next block in `block_buf` behind whatever it already
    /// holds (the file header, sealed blocks or nothing): a placeholder
    /// header with room for a full payload and a trailing end marker. The
    /// placeholder is the end marker itself, so a run that ends before
    /// another row arrives needs nothing appended.
    fn reserve_block_header(&mut self) {
        self.header_at = self.block_buf.len();
        self.block_buf.reserve(frame_capacity(self.block_target));
        self.block_buf.extend_from_slice(&encode_block_header(0, 0, 0));
    }

    /// Payload bytes encoded into the open frame so far.
    fn payload_len(&self) -> usize {
        self.block_buf.len() - self.header_at - BLOCK_HEADER_BYTES
    }

    /// Appends the next row. Keys must be non-decreasing in output order.
    pub fn append(&mut self, row: &Row<K>) -> Result<()> {
        self.append_with_prefix(row, row.key.norm_prefix())
    }

    /// Appends every row of `batch`, reusing the batch's pre-computed
    /// prefix column for the order checks — the batched merge path seals
    /// blocks without recomputing (or cloning) a single key.
    pub fn append_batch(&mut self, batch: &RowBatch<K>) -> Result<()> {
        for (row, &prefix) in batch.rows.iter().zip(&batch.prefixes) {
            self.append_with_prefix(row, prefix)?;
        }
        Ok(())
    }

    /// As [`RunWriter::append`], with the row's normalized prefix already
    /// in hand (batched callers carry it in their code column).
    #[inline]
    pub fn append_with_prefix(&mut self, row: &Row<K>, prefix: u64) -> Result<()> {
        if self.rows > 0 {
            self.check_order(row, prefix)?;
        } else {
            self.first_key = Some(row.key.clone());
        }
        self.last_prefix = prefix;
        self.last_row_at = self.block_buf.len();
        row.encode(&mut self.block_buf);
        self.rows_in_block += 1;
        self.rows += 1;
        if self.payload_len() >= self.block_target {
            self.seal_block(false)?;
        }
        Ok(())
    }

    /// The sort-invariant check: normalized-prefix comparison decides almost
    /// every append; the previous key is decoded from the block buffer only
    /// when the prefixes tie inconclusively (or to format an error).
    fn check_order(&self, row: &Row<K>, prefix: u64) -> Result<()> {
        let out_of_order = if prefix != self.last_prefix {
            // Differing normalized prefixes are decisive.
            match self.order {
                SortOrder::Ascending => prefix < self.last_prefix,
                SortOrder::Descending => prefix > self.last_prefix,
            }
        } else if K::norm_prefix_is_exact() {
            false // equal prefixes ⇒ equal keys ⇒ tie, which is allowed
        } else {
            match self.decode_last_key() {
                Some(last) => self.order.precedes(&row.key, &last),
                None => false,
            }
        };
        if out_of_order {
            return Err(Error::InvalidConfig(format!(
                "rows appended out of order: {:?} after {:?}",
                row.key,
                self.decode_last_key()
            )));
        }
        Ok(())
    }

    /// Decodes the most recently appended key: from the block buffer if the
    /// current block holds rows, else the sealed-block boundary key.
    fn decode_last_key(&self) -> Option<K> {
        if self.rows_in_block > 0 {
            let mut slice = &self.block_buf[self.last_row_at..];
            Row::<K>::decode(&mut slice).ok().map(|r| r.key)
        } else {
            self.boundary_key.clone()
        }
    }

    /// Seals the open block and, once the frame holds [`REQUEST_BLOCKS`]
    /// of them or the run ends (`last`), sends it to the sink. Until then
    /// the next block opens behind the sealed ones in the same buffer, so
    /// at the end of the run its unused placeholder header is the end
    /// marker: it rides behind the last payload, and travels alone (with
    /// the file header, for an empty run) only when nothing is pending.
    ///
    /// Runs once per block, never per row: `#[cold]` keeps it out of the
    /// per-row `append` path the operators inline into their push loops
    /// (inlined there it cost `lineitem_k_fits`, which never spills, 7 %).
    #[cold]
    fn seal_block(&mut self, last: bool) -> Result<()> {
        if self.rows_in_block > 0 {
            let payload_len = self.payload_len() as u32;
            // The block's last key is decoded once here, at seal time — the
            // per-row append path only recorded where its encoding starts.
            let last_key = self
                .decode_last_key()
                .ok_or_else(|| Error::Corrupt("undecodable row in write buffer".into()))?;
            self.boundary_key = Some(last_key.clone());
            self.blocks.push(BlockMeta {
                rows: self.rows_in_block,
                payload_bytes: payload_len,
                last_key,
            });
            self.bytes += BLOCK_HEADER_BYTES as u64 + u64::from(payload_len);
            self.sealed.push((self.header_at, self.rows_in_block, payload_len));
            self.rows_in_block = 0;
            self.last_row_at = 0;
            if last || self.sealed.len() < REQUEST_BLOCKS {
                self.reserve_block_header();
            }
        }
        if !last && self.sealed.len() < REQUEST_BLOCKS {
            return Ok(());
        }
        let mut frame = Frame {
            buf: std::mem::take(&mut self.block_buf),
            blocks: std::mem::take(&mut self.sealed),
            last,
        };
        let sent = match &mut self.sink {
            BlockSink::Sync(writer) => {
                let written = frame.write(writer.as_mut(), &self.stats);
                self.block_buf = frame.buf;
                self.block_buf.clear();
                // The compute thread was blocked for the duration, so the
                // time in the backend is also I/O wait.
                written.map(|elapsed| self.stats.record_io_wait(elapsed))
            }
            // Hand the frame to the background side (it CRCs, patches the
            // headers, writes, and books the stats) and start filling a
            // fresh buffer. Blocks only when ≥2 frames are in flight — or,
            // behind the last frame, until the object is finished.
            BlockSink::Pipelined(pipeline) if last => pipeline.finish(frame),
            BlockSink::Pipelined(pipeline) => pipeline.write_block(frame),
        };
        // Open the next frame even after a failed send, so a caller that
        // keeps appending meets the sink's error again, not a torn buffer.
        // (`last` comes from `finish`, which consumes the writer.)
        if !last {
            self.reserve_block_header();
        }
        sent
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The backend object name this writer is filling (callers use it to
    /// clean up a half-written object after a mid-merge error).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The last appended key, if any — decoded from the write buffer on
    /// demand; the writer keeps no per-row key copy.
    pub fn last_key(&self) -> Option<K> {
        if self.rows == 0 {
            return None;
        }
        self.decode_last_key()
    }

    /// Seals the run and returns its metadata.
    pub fn finish(mut self) -> Result<RunMeta<K>> {
        self.seal_block(true)?;
        self.bytes += BLOCK_HEADER_BYTES as u64;
        self.stats.record_run_created();
        Ok(RunMeta {
            name: self.name.clone(),
            rows: self.rows,
            bytes: self.bytes,
            first_key: self.first_key.clone(),
            last_key: self.boundary_key.clone(),
            blocks: std::mem::take(&mut self.blocks),
            order: self.order,
        })
    }
}

/// Streams rows back out of a finished run in sort order.
///
/// Implements `Iterator<Item = Result<Row<K>>>`. Blocks are fetched up to
/// four at a time in one request sized from the [`RunMeta`] block index,
/// and each is verified (header against the index, CRC) only as it is
/// decoded, so the rows ahead of a damaged block still arrive;
/// [`RunReader::skip_rows`] skips whole blocks without reading them where
/// possible.
pub struct RunReader<K: SortKey> {
    reader: Box<dyn SpillReader>,
    name: String,
    stats: IoStats,
    /// `(rows, payload_bytes)` of every block of the run, in file order.
    index: Vec<(u32, u32)>,
    /// The next block to decode.
    next_block: usize,
    /// The block the backend reader is positioned at (`>= next_block`).
    fetched: usize,
    /// Blocks `next_block .. fetched` as they arrived — `[file header]
    /// block_header payload` each — sliced out of their request's buffer
    /// and not yet verified or decoded.
    pending: std::collections::VecDeque<bytes::Bytes>,
    /// One past the last block this reader visits: the end of the run, or
    /// of the key range it is scoped to. The end marker is never read.
    end_block: usize,
    /// Decoded rows of the current block, yielded front to back.
    current: std::collections::VecDeque<Row<K>>,
    /// Normalized prefix of each buffered row, aligned with `current` —
    /// computed once at decode time and handed out with the batch.
    current_prefixes: std::collections::VecDeque<u64>,
    done: bool,
    rows_yielded: u64,
    /// `Some` when the reader is driven by background prefetch: its
    /// block-read time is then booked into the component's overlap ledger
    /// (settled as overlapped I/O at shutdown) instead of compute-thread
    /// I/O wait.
    ledger: Option<Arc<OverlapLedger>>,
    /// `Some` for a range-scoped reader (see [`RunReader::open_range`]).
    range: Option<RangeState<K>>,
}

impl<K: SortKey> RunReader<K> {
    /// Opens `meta`'s object on `backend`. No request is issued until the
    /// first block is pulled.
    pub fn open(backend: &dyn StorageBackend, meta: &RunMeta<K>, stats: IoStats) -> Result<Self> {
        Ok(RunReader {
            reader: backend.open(&meta.name)?,
            name: meta.name.clone(),
            stats,
            index: meta.blocks.iter().map(|b| (b.rows, b.payload_bytes)).collect(),
            next_block: 0,
            fetched: 0,
            pending: std::collections::VecDeque::new(),
            end_block: meta.blocks.len(),
            current: std::collections::VecDeque::new(),
            current_prefixes: std::collections::VecDeque::new(),
            done: false,
            rows_yielded: 0,
            ledger: None,
            range: None,
        })
    }

    /// Opens `meta`'s object scoped to the rows inside `range`.
    ///
    /// The per-block `last_key` index decides which blocks can contain
    /// in-range rows: blocks wholly before `lo` are skipped with **one**
    /// byte-offset seek (never read, booked as `blocks_skipped` /
    /// `bytes_skipped`), and blocks wholly past the upper bound are booked
    /// as skipped at open time and never visited. A run the index proves
    /// wholly outside the range costs no request at all. Rows of the first
    /// and last in-range block that fall outside the bounds are dropped
    /// after decode (a boundary block may straddle the range).
    ///
    /// Composes with [`crate::PrefetchingRunReader`]: the bounds are
    /// enforced inside the block-load path, so prefetch starts at the seek
    /// point and stops at the range end.
    pub fn open_range(
        backend: &dyn StorageBackend,
        meta: &RunMeta<K>,
        stats: IoStats,
        range: KeyRange<K>,
    ) -> Result<Self> {
        let mut reader = Self::open(backend, meta, stats)?;
        if range.is_unbounded() {
            return Ok(reader);
        }
        let order = meta.order;
        let blocks = &meta.blocks;
        // First block that can hold a row ≥ lo: every earlier block has
        // last_key < lo, and a block's rows all sort at or before its last
        // key, so those blocks are wholly out of range.
        let start = match &range.lo {
            Some(lo) => blocks.partition_point(|b| order.precedes(&b.last_key, lo)),
            None => 0,
        };
        // One past the last block that can hold an in-range row: the first
        // whose last_key reaches the upper bound (it may straddle). Every
        // later block's rows sort at or after that key, hence past the
        // bound.
        let end = match &range.hi {
            Some(hi) if range.hi_inclusive => {
                blocks.partition_point(|b| !order.follows(&b.last_key, hi)) + 1
            }
            Some(hi) => blocks.partition_point(|b| order.precedes(&b.last_key, hi)) + 1,
            None => blocks.len(),
        }
        .min(blocks.len());
        if start >= end {
            // The whole run sorts outside the range: nothing to read, and
            // nothing to position.
            for b in blocks {
                reader.stats.record_block_skip(u64::from(b.payload_bytes));
            }
            reader.done = true;
            return Ok(reader);
        }
        // Skip the prefix in one byte-offset seek. The suffix past the last
        // in-range block is never visited; either way each block is booked
        // individually (it was proven irrelevant by the index).
        reader.skip_blocks(start)?;
        for b in &blocks[end..] {
            reader.stats.record_block_skip(u64::from(b.payload_bytes));
        }
        reader.end_block = end;
        reader.range = Some(RangeState { range, order, trim_lo: true });
        Ok(reader)
    }

    /// Marks the reader as driven by background prefetch: its block-read
    /// time is booked into `ledger` (and settled as overlapped I/O when
    /// the owning component shuts down) instead of compute-side I/O wait.
    pub(crate) fn set_ledger(&mut self, ledger: Option<Arc<OverlapLedger>>) {
        self.ledger = ledger;
    }

    /// The shared I/O stats this reader records into.
    pub(crate) fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Moves the decode position forward to block `to`: blocks already
    /// fetched are dropped from the queue, the rest are passed over with a
    /// single byte-offset `skip` (none if there are none) and booked as
    /// skipped.
    fn skip_blocks(&mut self, to: usize) -> Result<()> {
        self.pending.drain(..self.pending.len().min(to - self.next_block));
        self.next_block = to;
        let mut bytes = 0u64;
        for i in self.fetched..to {
            let payload_bytes = self.index[i].1;
            bytes += frame_bytes(i, payload_bytes) as u64;
            self.stats.record_block_skip(u64::from(payload_bytes));
        }
        if bytes > 0 {
            self.reader.skip(bytes)?;
            self.fetched = to;
        }
        Ok(())
    }

    /// Fetches blocks `fetched .. min(fetched + REQUEST_BLOCKS, end_block)`
    /// with **one** `read_exact` sized from the index — never a byte past
    /// the last in-range block — and queues them, one slice of the
    /// request's buffer per block, for [`RunReader::load_next_block`].
    fn fetch_request(&mut self) -> Result<()> {
        let blocks = self.fetched..self.end_block.min(self.fetched + REQUEST_BLOCKS);
        let sizes = blocks.clone().map(|i| frame_bytes(i, self.index[i].1));
        let mut request = vec![0u8; sizes.clone().sum()];
        // One Instant pair around the whole request — never per row.
        let started = Instant::now();
        self.reader.read_exact(&mut request)?;
        let elapsed = started.elapsed();
        let file_header = if blocks.start == 0 { FILE_HEADER_BYTES } else { 0 };
        self.stats.record_read_timed(
            blocks.clone().map(|i| u64::from(self.index[i].0)).sum(),
            (request.len() - file_header) as u64,
            elapsed,
        );
        match &self.ledger {
            Some(ledger) => ledger.record_busy(elapsed),
            None => self.stats.record_io_wait(elapsed),
        }
        // Rows decode as zero-copy slices of this one refcounted buffer
        // (`Buf for &[u8]` copies; `Buf for Bytes` does not).
        let request = bytes::Bytes::from(request);
        let mut at = 0;
        for size in sizes {
            self.pending.push_back(request.slice(at..at + size));
            at += size;
        }
        self.fetched = blocks.end;
        Ok(())
    }

    /// Verifies and decodes the next block into `self.current`, fetching
    /// the request that holds it if it has not arrived yet. `Ok(false)`
    /// past the last block.
    fn load_next_block(&mut self) -> Result<bool> {
        debug_assert!(self.current.is_empty());
        if self.next_block == self.end_block {
            self.done = true;
            return Ok(false);
        }
        if self.pending.is_empty() {
            self.fetch_request()?;
        }
        let frame = self.pending.pop_front().expect("a fetch queues at least one block");
        let block = self.next_block;
        self.next_block += 1;
        let (rows, payload_len) = self.index[block];
        let payload_at = frame.len() - payload_len as usize;
        let header_at = payload_at - BLOCK_HEADER_BYTES;
        if block == 0 {
            self.check_file_header(&frame[..header_at])?;
        }
        // The request was sized from the index, so a header that disagrees
        // with it means the bytes are not the block they were taken for.
        let header = &frame[header_at..payload_at];
        let found = (u32_at(header, 0), u32_at(header, 4), u32_at(header, 8));
        if found != (BLOCK_MAGIC, rows, payload_len) {
            return Err(Error::Corrupt(format!(
                "block {block} of {} has header {found:x?}, index says {:x?}",
                self.name,
                (BLOCK_MAGIC, rows, payload_len)
            )));
        }
        let (found, expected) = (crc32(&frame[payload_at..]), u32_at(header, 12));
        if found != expected {
            return Err(Error::Corrupt(format!(
                "block {block} of {} has payload CRC {found:#010x}, its header says {expected:#010x}",
                self.name
            )));
        }
        let mut buf = frame.slice(payload_at..frame.len());
        self.current.reserve(rows as usize);
        self.current_prefixes.reserve(rows as usize);
        for _ in 0..rows {
            let row: Row<K> = Row::decode(&mut buf)?;
            self.current_prefixes.push_back(row.key.norm_prefix());
            self.current.push_back(row);
        }
        if !buf.is_empty() {
            return Err(Error::Corrupt("trailing bytes after last row in block".into()));
        }
        self.trim_to_range();
        Ok(true)
    }

    fn check_file_header(&self, header: &[u8]) -> Result<()> {
        let (magic, version) = (u32_at(header, 0), u32_at(header, 4));
        if magic != FILE_MAGIC {
            return Err(Error::Corrupt(format!("bad run magic {magic:#x} in {}", self.name)));
        }
        if version != FILE_VERSION {
            return Err(Error::Corrupt(format!(
                "unsupported run version {version} in {}",
                self.name
            )));
        }
        Ok(())
    }

    /// Drops decoded rows outside the active range. Only the first in-range
    /// block can hold rows preceding `lo` and only the last one rows past
    /// the upper bound (rows are non-decreasing in output order), but the
    /// trims are cheap no-ops on interior blocks.
    fn trim_to_range(&mut self) {
        let Some(state) = &mut self.range else { return };
        if state.trim_lo {
            state.trim_lo = false;
            if let Some(lo) = &state.range.lo {
                while self.current.front().is_some_and(|r| state.order.precedes(&r.key, lo)) {
                    self.current.pop_front();
                    self.current_prefixes.pop_front();
                }
            }
        }
        if let Some(hi) = &state.range.hi {
            let out = |key: &K| {
                if state.range.hi_inclusive {
                    state.order.follows(key, hi)
                } else {
                    !state.order.precedes(key, hi)
                }
            };
            while self.current.back().is_some_and(|r| out(&r.key)) {
                self.current.pop_back();
                self.current_prefixes.pop_back();
            }
        }
    }

    /// Drains the buffered rows and their prefix column into one batch.
    fn take_batch(&mut self) -> RowBatch<K> {
        let rows = Vec::from(std::mem::take(&mut self.current));
        let prefixes = Vec::from(std::mem::take(&mut self.current_prefixes));
        self.rows_yielded += rows.len() as u64;
        RowBatch { rows, prefixes }
    }

    /// Drains the buffered rows, or reads and decodes the next block and
    /// returns it as one batch (rows plus prefix column); `Ok(None)` at end
    /// of run. This is both the merge loop's batched pull and the unit of
    /// work a prefetch thread ships per channel message.
    pub fn next_batch(&mut self) -> Result<Option<RowBatch<K>>> {
        if !self.current.is_empty() {
            return Ok(Some(self.take_batch()));
        }
        if self.done {
            return Ok(None);
        }
        if self.load_next_block()? {
            Ok(Some(self.take_batch()))
        } else {
            Ok(None)
        }
    }

    /// Skips the next `n` rows (used by `OFFSET` positioning, §4.1). The
    /// whole blocks the index proves skippable are passed over unread with
    /// one `skip` request; only a straddling block is read.
    pub fn skip_rows(&mut self, mut n: u64) -> Result<()> {
        loop {
            // First drain buffered rows.
            let buffered = n.min(self.current.len() as u64) as usize;
            self.current.drain(..buffered);
            self.current_prefixes.drain(..buffered);
            self.rows_yielded += buffered as u64;
            n -= buffered as u64;
            if n == 0 {
                return Ok(());
            }
            if self.done {
                return Err(Error::Corrupt("skip past end of run".into()));
            }
            // A range-scoped reader must always decode: the index's row
            // counts include rows outside the range, so the whole-block
            // shortcut would over-count the skip.
            if self.range.is_none() {
                let mut to = self.next_block;
                while to < self.end_block && u64::from(self.index[to].0) <= n {
                    n -= u64::from(self.index[to].0);
                    self.rows_yielded += u64::from(self.index[to].0);
                    to += 1;
                }
                self.skip_blocks(to)?;
                if n == 0 {
                    return Ok(());
                }
            }
            if !self.load_next_block()? {
                return Err(Error::Corrupt("skip past end of run".into()));
            }
        }
    }

    /// Rows yielded (or skipped) so far.
    pub fn rows_yielded(&self) -> u64 {
        self.rows_yielded
    }
}

impl<K: SortKey> Iterator for RunReader<K> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.current.pop_front() {
                self.current_prefixes.pop_front();
                self.rows_yielded += 1;
                return Some(Ok(row));
            }
            if self.done {
                return None;
            }
            match self.load_next_block() {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use histok_types::F64Key;

    fn write_run(
        backend: &MemoryBackend,
        name: &str,
        keys: &[u64],
        block_bytes: usize,
    ) -> RunMeta<u64> {
        let stats = IoStats::new();
        let mut w =
            RunWriter::with_block_bytes(backend, name, SortOrder::Ascending, stats, block_bytes)
                .unwrap();
        for &k in keys {
            w.append(&Row::new(k, vec![k as u8; 3])).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_single_block() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "r1", &[1, 2, 3, 4, 5], DEFAULT_BLOCK_BYTES);
        assert_eq!(meta.rows, 5);
        assert_eq!(meta.first_key, Some(1));
        assert_eq!(meta.last_key, Some(5));
        assert_eq!(meta.blocks.len(), 1);

        let stats = IoStats::new();
        let reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
        let keys: Vec<u64> = reader.map(|r| r.unwrap().key).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        assert_eq!(stats.snapshot().rows_read, 5);
    }

    #[test]
    fn roundtrip_many_blocks() {
        let be = MemoryBackend::new();
        let keys: Vec<u64> = (0..1000).collect();
        let meta = write_run(&be, "r2", &keys, 64); // tiny blocks
        assert!(meta.blocks.len() > 10, "expected many blocks, got {}", meta.blocks.len());
        assert_eq!(meta.blocks.iter().map(|b| b.rows as u64).sum::<u64>(), 1000);

        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let got: Vec<u64> = reader.map(|r| r.unwrap().key).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn empty_run_roundtrips() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "empty", &[], DEFAULT_BLOCK_BYTES);
        assert!(meta.is_empty());
        assert_eq!(meta.first_key, None);
        let mut reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        assert!(reader.next().is_none());
    }

    #[test]
    fn out_of_order_append_rejected() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "bad", SortOrder::Ascending, IoStats::new()).unwrap();
        w.append(&Row::key_only(10)).unwrap();
        w.append(&Row::key_only(10)).unwrap(); // ties allowed
        assert!(w.append(&Row::key_only(9)).is_err());
    }

    #[test]
    fn descending_runs_enforce_descending_order() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "desc", SortOrder::Descending, IoStats::new()).unwrap();
        w.append(&Row::key_only(10)).unwrap();
        w.append(&Row::key_only(5)).unwrap();
        assert!(w.append(&Row::key_only(6)).is_err());
    }

    #[test]
    fn order_check_decodes_previous_key_on_shared_prefixes() {
        use histok_types::BytesKey;
        // All keys share a >8-byte prefix, so the normalized-prefix fast
        // path is inconclusive and the previous key must be decoded from
        // the write buffer.
        let be = MemoryBackend::new();
        let key = |suffix: &str| BytesKey::new(format!("shared-long-prefix-{suffix}"));
        let mut w: RunWriter<BytesKey> =
            RunWriter::with_block_bytes(&be, "bk", SortOrder::Ascending, IoStats::new(), 96)
                .unwrap();
        w.append(&Row::key_only(key("aaa"))).unwrap();
        w.append(&Row::key_only(key("aaa"))).unwrap(); // ties allowed
        w.append(&Row::key_only(key("bbb"))).unwrap();
        assert_eq!(w.last_key(), Some(key("bbb")));
        assert!(w.append(&Row::key_only(key("abc"))).is_err());
        // The check still works across a block seal (previous key no longer
        // in the buffer): append until a block flushes, then go backwards.
        let mut w2: RunWriter<BytesKey> =
            RunWriter::with_block_bytes(&be, "bk2", SortOrder::Ascending, IoStats::new(), 64)
                .unwrap();
        for i in 0..10 {
            w2.append(&Row::key_only(key(&format!("x{i:03}")))).unwrap();
        }
        assert!(w2.append(&Row::key_only(key("x000"))).is_err());
        let meta = w2.finish().unwrap();
        assert_eq!(meta.last_key, Some(key("x009")));
        assert_eq!(meta.blocks.last().unwrap().last_key, key("x009"));
    }

    #[test]
    fn stats_count_rows_and_runs() {
        let be = MemoryBackend::new();
        let stats = IoStats::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "s", SortOrder::Ascending, stats.clone()).unwrap();
        for k in 0..100u64 {
            w.append(&Row::key_only(k)).unwrap();
        }
        let meta = w.finish().unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.runs_created, 1);
        assert_eq!(snap.rows_written, 100);
        assert_eq!(snap.bytes_written + 8 + 16, meta.bytes); // + file header + end marker
    }

    #[test]
    fn skip_rows_jumps_blocks() {
        let be = MemoryBackend::new();
        let keys: Vec<u64> = (0..500).collect();
        let meta = write_run(&be, "skip", &keys, 128);
        let stats = IoStats::new();
        let mut reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
        reader.skip_rows(400).unwrap();
        let rest: Vec<u64> = reader.by_ref().map(|r| r.unwrap().key).collect();
        assert_eq!(rest, (400..500).collect::<Vec<_>>());
        // Whole skipped blocks were not counted as reads.
        assert!(stats.snapshot().rows_read < 500);
        assert_eq!(reader.rows_yielded(), 500);
    }

    #[test]
    fn skip_past_end_is_an_error() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "short", &[1, 2, 3], DEFAULT_BLOCK_BYTES);
        let mut reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        assert!(reader.skip_rows(4).is_err());
    }

    #[test]
    fn corrupt_payload_detected_by_crc() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "c", &(0..50).collect::<Vec<_>>(), DEFAULT_BLOCK_BYTES);
        // Corrupt one payload byte by rewriting the object through a fresh
        // writer with a flipped byte.
        let mut reader = be.open(&meta.name).unwrap();
        let mut all = vec![0u8; meta.bytes as usize];
        reader.read_exact(&mut all).unwrap();
        all[8 + BLOCK_HEADER_BYTES + 3] ^= 0xFF; // inside first block payload
        let mut w = be.create(&meta.name).unwrap();
        w.write_all(&all).unwrap();
        w.finish().unwrap();

        let mut r = RunReader::<u64>::open(&be, &meta, IoStats::new()).unwrap();
        let first = r.next().unwrap();
        assert!(matches!(first, Err(Error::Corrupt(_))));
        assert!(r.next().is_none(), "reader fuses after an error");
    }

    #[test]
    fn bad_magic_rejected() {
        let be = MemoryBackend::new();
        let mut meta = write_run(&be, "good", &[1, 2, 3], DEFAULT_BLOCK_BYTES);
        let mut w = be.create("junk").unwrap();
        w.write_all(&vec![0u8; meta.bytes as usize]).unwrap();
        w.finish().unwrap();
        meta.name = "junk".into();
        let first = RunReader::<u64>::open(&be, &meta, IoStats::new()).unwrap().next().unwrap();
        assert!(matches!(first, Err(Error::Corrupt(_))));
    }

    #[test]
    fn f64_keys_flow_through_runs() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<F64Key> =
            RunWriter::create(&be, "f", SortOrder::Ascending, IoStats::new()).unwrap();
        for i in 0..10 {
            w.append(&Row::key_only(F64Key(i as f64 / 10.0))).unwrap();
        }
        let meta = w.finish().unwrap();
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let keys: Vec<f64> = reader.map(|r| r.unwrap().key.get()).collect();
        assert_eq!(keys.len(), 10);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn payloads_are_preserved() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "p", SortOrder::Ascending, IoStats::new()).unwrap();
        for k in 0..20u64 {
            w.append(&Row::new(k, format!("payload-{k}").into_bytes())).unwrap();
        }
        let meta = w.finish().unwrap();
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        for (i, row) in reader.enumerate() {
            let row = row.unwrap();
            assert_eq!(row.payload, format!("payload-{i}").as_bytes());
        }
    }
}
