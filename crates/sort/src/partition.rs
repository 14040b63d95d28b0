//! Range-partitioned parallel merge (§4.4 adjacent; Polyntsov et al.).
//!
//! The per-block `last_key` index every run already persists is a concise
//! model of the key distribution: treating each block boundary as a
//! candidate splitter weighted by its block's row count lets a planner cut
//! the key domain into `P` disjoint half-open ranges with near-equal
//! estimated row counts. Each range is merged by its own worker thread
//! over range-scoped readers ([`RunCatalog::open_range`]), and because the
//! ranges partition the domain, concatenating the partition outputs in
//! range order reproduces the single-threaded merge byte for byte:
//!
//! * every key — including every duplicate of a splitter key — falls in
//!   exactly one half-open range, so no row is emitted twice or dropped;
//! * within a partition the loser tree breaks ties toward the lower source
//!   index, and sources are opened in the same run order as the serial
//!   merge, so duplicate runs of rows appear in the same relative order;
//! * each worker builds a fresh tree, so offset-value codes are derived
//!   from intra-partition comparisons only and never leak across a seam
//!   (Do & Graefe: codes are relative to the prior row *in that merge*).
//!
//! Error and cancellation discipline mirrors `SpillPipeline`: workers send
//! errors in-band and exit; dropping the consumer closes the channels,
//! which unblocks the workers, and `Drop` joins them all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use histok_storage::{KeyRange, RunCatalog, RunMeta};
use histok_types::{Result, Row, RowBatch, SortKey, SortOrder};

use crate::loser_tree::LoserTree;
use crate::merge::{MergeSource, MergeTuning};

/// Batches a worker may run ahead of the consumer (per partition). The
/// consumer drains partitions strictly in range order, so this bound is
/// what lets later partitions keep their I/O in flight while earlier
/// ones stream out; too shallow and the merge degrades toward serial on
/// latency-dominated storage (a worker stalls on `send` with its range
/// readers idle). 32 batches × `tuning.batch_rows` rows ≈ a few MiB of
/// payload per partition at typical row sizes and the default batch.
const CHANNEL_DEPTH: usize = 32;

/// Picks up to `threads − 1` splitter keys from the runs' block-boundary
/// index, equalizing estimated rows per partition, and returns the
/// half-open ranges `[lo, hi)` they induce (in output order).
///
/// With a `cutoff`, boundaries sorting after it are ignored (their rows
/// can never reach the output), and the final range is clipped at the
/// cutoff inclusively — partitions wholly past the cutoff are never
/// created. Callers should fall back to a serial merge when fewer than
/// two ranges come back (tiny inputs, single-block runs, or an extreme
/// key skew that leaves no distinct boundary to split on).
pub fn plan_partitions<K: SortKey>(
    runs: &[RunMeta<K>],
    order: SortOrder,
    threads: usize,
    cutoff: Option<&K>,
) -> Vec<KeyRange<K>> {
    let full_tail =
        |lo: Option<K>| KeyRange { lo, hi: cutoff.cloned(), hi_inclusive: cutoff.is_some() };
    if threads < 2 {
        return vec![full_tail(None)];
    }
    // Candidate splitters: every block boundary still inside the cutoff,
    // weighted by its block's rows.
    let mut candidates: Vec<(&K, u64)> = Vec::new();
    for run in runs {
        for b in &run.blocks {
            if cutoff.is_some_and(|c| order.follows(&b.last_key, c)) {
                continue;
            }
            candidates.push((&b.last_key, u64::from(b.rows)));
        }
    }
    candidates.sort_by(|a, b| order.cmp_keys(a.0, b.0));
    let mut prefix = Vec::with_capacity(candidates.len());
    let mut acc = 0u64;
    for c in &candidates {
        acc += c.1;
        prefix.push(acc);
    }
    let total = acc;
    if total == 0 {
        return vec![full_tail(None)];
    }
    // The greatest boundary key is the runs' overall last key: splitting
    // there would only isolate duplicates of the maximum into a tail
    // partition, so it is never an eligible splitter.
    let max_key = candidates.last().map(|c| c.0).expect("total > 0 implies candidates");
    let mut splitters: Vec<K> = Vec::new();
    for i in 1..threads as u64 {
        let target = ((total as u128 * i as u128) / threads as u128) as u64;
        let idx = prefix.partition_point(|&s| s < target.max(1));
        let Some((key, _)) = candidates.get(idx) else { break };
        // A splitter must strictly advance past the previous one (dropping
        // duplicates merges the would-be-empty partition into its
        // neighbour) and must strictly precede the cutoff (otherwise the
        // clipped tail range covers it already).
        if splitters.last().is_some_and(|s| !order.precedes(s, key)) {
            continue;
        }
        if cutoff.is_some_and(|c| !order.precedes(*key, c)) {
            continue;
        }
        if !order.precedes(*key, max_key) {
            continue;
        }
        splitters.push((*key).clone());
    }
    let mut ranges = Vec::with_capacity(splitters.len() + 1);
    let mut lo: Option<K> = None;
    for s in splitters {
        ranges.push(KeyRange::half_open(lo, Some(s.clone())));
        lo = Some(s);
    }
    ranges.push(full_tail(lo));
    ranges
}

/// Splits rows already sorted in output order into per-range vectors
/// (the run generator's in-memory residue joins its partition's merge).
/// Rows past a final inclusive bound (the cutoff clip) are dropped.
pub fn split_sorted_rows<K: SortKey>(
    rows: Vec<Row<K>>,
    ranges: &[KeyRange<K>],
    order: SortOrder,
) -> Vec<Vec<Row<K>>> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = rows;
    for range in ranges {
        match &range.hi {
            None => out.push(std::mem::take(&mut rest)),
            Some(hi) => {
                let end = if range.hi_inclusive {
                    rest.partition_point(|r| !order.follows(&r.key, hi))
                } else {
                    rest.partition_point(|r| order.precedes(&r.key, hi))
                };
                let tail = rest.split_off(end);
                out.push(std::mem::replace(&mut rest, tail));
            }
        }
    }
    out
}

/// Shared per-partition output row counters, kept alive by the operator
/// for metrics after the stream is gone.
#[derive(Clone)]
pub struct PartitionCounters(Arc<Vec<AtomicU64>>);

impl PartitionCounters {
    fn new(partitions: usize) -> Self {
        PartitionCounters(Arc::new((0..partitions).map(|_| AtomicU64::new(0)).collect()))
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no partitions were created.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Rows emitted per partition so far, in partition (key) order.
    pub fn snapshot(&self) -> Vec<u64> {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    fn add(&self, partition: usize, rows: u64) {
        self.0[partition].fetch_add(rows, Ordering::Relaxed);
    }
}

/// True if `meta`'s key span intersects `range` — non-overlapping runs
/// are never opened for that partition.
pub fn run_overlaps<K: SortKey>(meta: &RunMeta<K>, range: &KeyRange<K>, order: SortOrder) -> bool {
    let (Some(first), Some(last)) = (&meta.first_key, &meta.last_key) else {
        return false;
    };
    if let Some(lo) = &range.lo {
        if order.precedes(last, lo) {
            return false;
        }
    }
    match &range.hi {
        Some(hi) if range.hi_inclusive => !order.follows(first, hi),
        Some(hi) => order.precedes(first, hi),
        None => true,
    }
}

/// What [`merge_runs_partitioned`] decided: a running parallel merge, or
/// the untouched residue handed back because partitioning cannot help
/// (fewer than two usable ranges, or `threads < 2`) — the caller then
/// merges serially, guaranteeing identical output either way.
pub enum PartitionAttempt<K: SortKey> {
    /// Workers are running; drain the stream.
    Partitioned(PartitionedMerge<K>),
    /// Fall back to the serial merge; the residue comes back untouched.
    Serial(Vec<Vec<Row<K>>>),
}

impl<K: SortKey> PartitionAttempt<K> {
    /// The running merge, if the attempt partitioned.
    pub fn partitioned(self) -> Option<PartitionedMerge<K>> {
        match self {
            PartitionAttempt::Partitioned(m) => Some(m),
            PartitionAttempt::Serial(_) => None,
        }
    }
}

/// Plans partitions over `runs`, opens range-scoped readers per partition
/// (prefetched on the catalog's I/O pool, if it has one), folds the sorted
/// in-memory `residue` sequences into their ranges, and launches the
/// parallel merge. See [`PartitionAttempt`] for the serial fallback
/// contract.
pub fn merge_runs_partitioned<K: SortKey>(
    catalog: &RunCatalog<K>,
    runs: &[RunMeta<K>],
    residue: Vec<Vec<Row<K>>>,
    threads: usize,
    cutoff: Option<&K>,
    tuning: &MergeTuning,
) -> Result<PartitionAttempt<K>> {
    if threads < 2 {
        return Ok(PartitionAttempt::Serial(residue));
    }
    let order = catalog.order();
    let ranges = plan_partitions(runs, order, threads, cutoff);
    if ranges.len() < 2 {
        return Ok(PartitionAttempt::Serial(residue));
    }
    // Each residue sequence is sorted on its own; split each across the
    // ranges and give every non-empty slice its own in-memory source.
    let mut residue_parts: Vec<Vec<Vec<Row<K>>>> = (0..ranges.len()).map(|_| Vec::new()).collect();
    for seq in residue {
        for (i, part) in split_sorted_rows(seq, &ranges, order).into_iter().enumerate() {
            if !part.is_empty() {
                residue_parts[i].push(part);
            }
        }
    }
    let scheduler = catalog.io_scheduler();
    let mut partitions = Vec::with_capacity(ranges.len());
    for (range, seqs) in ranges.iter().zip(residue_parts) {
        let mut sources = Vec::new();
        for meta in runs {
            if !run_overlaps(meta, range, order) {
                continue;
            }
            let reader = catalog.open_range(meta, range.clone())?;
            sources.push(MergeSource::from_reader(reader, scheduler.clone()));
        }
        for seq in seqs {
            sources.push(MergeSource::Memory(seq.into_iter()));
        }
        partitions.push(sources);
    }
    merge_sources_partitioned(partitions, order, tuning).map(PartitionAttempt::Partitioned)
}

/// Spawns one merge worker per source list (one per key range, in output
/// order) and returns the re-sequenced stream. Each worker runs its own
/// loser tree — comparison counters flush into the shared `tuning.stats`
/// handle when the tree drops, and the range-scoped readers book their
/// I/O into the catalog's shared [`IoStats`](histok_storage::IoStats).
pub fn merge_sources_partitioned<K: SortKey>(
    partitions: Vec<Vec<MergeSource<K>>>,
    order: SortOrder,
    tuning: &MergeTuning,
) -> Result<PartitionedMerge<K>> {
    let counters = PartitionCounters::new(partitions.len());
    let mut receivers = Vec::with_capacity(partitions.len());
    let mut workers: Vec<Option<JoinHandle<()>>> = Vec::with_capacity(partitions.len());
    for (i, sources) in partitions.into_iter().enumerate() {
        let (tx, rx) = std::sync::mpsc::sync_channel(CHANNEL_DEPTH);
        let ovc = tuning.ovc;
        let stats = tuning.stats.clone();
        let batch_rows = tuning.batch_rows.max(1);
        // Partition ranges are half-open on keys, so every duplicate of a
        // key lands in exactly one partition and per-partition folding is
        // byte-identical to a serial folded merge.
        let fold = tuning.fold.clone();
        let counters = counters.clone();
        let spawned = std::thread::Builder::new().name(format!("pmerge-{i}")).spawn(move || {
            merge_worker(sources, order, ovc, stats, fold, batch_rows, tx, counters, i)
        });
        match spawned {
            Ok(handle) => {
                receivers.push(Some(rx));
                workers.push(Some(handle));
            }
            Err(e) => {
                // Unblock and reap the workers already launched before
                // surfacing the spawn failure.
                drop(rx);
                receivers.clear();
                for h in workers.iter_mut().filter_map(Option::take) {
                    let _ = h.join();
                }
                return Err(histok_types::Error::Io(e));
            }
        }
    }
    Ok(PartitionedMerge {
        receivers,
        workers,
        current: 0,
        buffer: Vec::new().into_iter(),
        counters,
        failed: false,
    })
}

/// One partition's merge loop: drain the loser tree through its batched
/// [`LoserTree::merge_into`] interface, shipping whole [`RowBatch`]es
/// (prefix column included) through the channel; errors go in-band and
/// end the partition; a closed channel (consumer gone) ends it quietly.
#[allow(clippy::too_many_arguments)]
fn merge_worker<K: SortKey>(
    sources: Vec<MergeSource<K>>,
    order: SortOrder,
    ovc: bool,
    stats: Option<crate::cmp_stats::CmpStats>,
    fold: Option<crate::fold::FoldSpec>,
    batch_rows: usize,
    tx: SyncSender<Result<RowBatch<K>>>,
    counters: PartitionCounters,
    partition: usize,
) {
    let mut tree = match LoserTree::with_ovc(sources, order, ovc, stats) {
        Ok(t) => t,
        Err(e) => {
            let _ = tx.send(Err(e));
            return;
        }
    };
    tree.set_batch_target(batch_rows);
    tree.set_fold(fold);
    loop {
        let mut batch = RowBatch::with_capacity(batch_rows);
        match tree.merge_into(&mut batch, batch_rows) {
            Ok(()) => {
                if batch.is_empty() {
                    return;
                }
                counters.add(partition, batch.len() as u64);
                if tx.send(Ok(batch)).is_err() {
                    return;
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

/// Channel endpoint over which a worker ships row batches (or an error).
type BatchReceiver<K> = Receiver<Result<RowBatch<K>>>;

/// The re-sequenced output of a partitioned merge: partitions drain in
/// key-range order, so the stream is globally sorted. After an error the
/// iterator is fused. Dropping it mid-stream closes every channel and
/// joins every worker.
pub struct PartitionedMerge<K: SortKey> {
    receivers: Vec<Option<BatchReceiver<K>>>,
    workers: Vec<Option<JoinHandle<()>>>,
    current: usize,
    buffer: std::vec::IntoIter<Row<K>>,
    counters: PartitionCounters,
    failed: bool,
}

impl<K: SortKey> PartitionedMerge<K> {
    /// Number of partitions (worker threads) in this merge.
    pub fn partitions(&self) -> usize {
        self.workers.len()
    }

    /// Handle on the per-partition row counters; stays valid after the
    /// stream is dropped.
    pub fn counters(&self) -> PartitionCounters {
        self.counters.clone()
    }

    /// Disconnects every worker and joins them (idempotent).
    fn shut_down(&mut self) {
        self.receivers.clear();
        for h in self.workers.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
    }
}

impl<K: SortKey> Iterator for PartitionedMerge<K> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(row) = self.buffer.next() {
                return Some(Ok(row));
            }
            let slot = self.receivers.get_mut(self.current)?;
            let Some(rx) = slot.as_ref() else {
                self.current += 1;
                continue;
            };
            match rx.recv() {
                Ok(Ok(batch)) => self.buffer = batch.rows.into_iter(),
                Ok(Err(e)) => {
                    self.failed = true;
                    self.shut_down();
                    return Some(Err(e));
                }
                Err(_) => {
                    // Worker finished its range and hung up.
                    *slot = None;
                    if let Some(h) = self.workers[self.current].take() {
                        let _ = h.join();
                    }
                    self.current += 1;
                }
            }
        }
    }
}

impl<K: SortKey> Drop for PartitionedMerge<K> {
    fn drop(&mut self) {
        self.shut_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::{IoStats, MemoryBackend};
    use std::sync::Arc;

    fn catalog(order: SortOrder) -> Arc<RunCatalog<u64>> {
        // Small blocks so multi-block runs (and thus splitter candidates)
        // appear at test sizes.
        Arc::new(
            RunCatalog::new(Arc::new(MemoryBackend::new()), "p", order, IoStats::new())
                .with_block_bytes(256),
        )
    }

    fn write_run(cat: &RunCatalog<u64>, keys: impl IntoIterator<Item = u64>) {
        let mut w = cat.start_run().unwrap();
        for k in keys {
            w.append(&Row::key_only(k)).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }

    fn drain(m: PartitionedMerge<u64>) -> Vec<u64> {
        m.map(|r| r.unwrap().key).collect()
    }

    #[test]
    fn partitioned_equals_serial_over_interleaved_runs() {
        let cat = catalog(SortOrder::Ascending);
        for i in 0..4u64 {
            write_run(&cat, (0..400).map(|j| j * 4 + i));
        }
        let runs = cat.runs();
        let m = merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
            .unwrap()
            .partitioned()
            .expect("enough blocks to partition");
        assert!(m.partitions() >= 2);
        let counters = m.counters();
        let keys = drain(m);
        assert_eq!(keys, (0..1600).collect::<Vec<_>>());
        assert_eq!(counters.snapshot().iter().sum::<u64>(), 1600);
    }

    #[test]
    fn splitter_duplicates_straddle_exactly_once() {
        // A heavy duplicate key sits right where splitters land; the
        // half-open ranges must emit every copy exactly once.
        let cat = catalog(SortOrder::Ascending);
        write_run(&cat, (0..300).map(|_| 500u64));
        write_run(&cat, 0..300);
        write_run(&cat, 400..700);
        let runs = cat.runs();
        let m = merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
            .unwrap()
            .partitioned()
            .expect("partitionable");
        let keys = drain(m);
        let mut expected: Vec<u64> =
            (0..300).chain(400..700).chain((0..300).map(|_| 500)).collect();
        expected.sort_unstable();
        assert_eq!(keys, expected);
    }

    #[test]
    fn cutoff_clips_final_partition_and_drops_tail_ranges() {
        let cat = catalog(SortOrder::Ascending);
        write_run(&cat, 0..1000);
        write_run(&cat, 0..1000);
        let runs = cat.runs();
        let cutoff = 99u64;
        let m =
            merge_runs_partitioned(&cat, &runs, vec![], 4, Some(&cutoff), &MergeTuning::default())
                .unwrap()
                .partitioned()
                .expect("partitionable");
        let keys = drain(m);
        // Nothing past the cutoff; ties at the cutoff survive.
        let expected: Vec<u64> = (0..=99).flat_map(|k| [k, k]).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn residue_rows_join_their_partitions() {
        let cat = catalog(SortOrder::Ascending);
        write_run(&cat, (0..500).map(|j| j * 2));
        let runs = cat.runs();
        let residue: Vec<Row<u64>> = (0..500).map(|j| Row::key_only(j * 2 + 1)).collect();
        let m =
            merge_runs_partitioned(&cat, &runs, vec![residue], 4, None, &MergeTuning::default())
                .unwrap()
                .partitioned()
                .expect("partitionable");
        assert_eq!(drain(m), (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn descending_order_partitions() {
        let cat = catalog(SortOrder::Descending);
        for i in 0..2u64 {
            write_run(&cat, (0..600).rev().map(|j| j * 2 + i));
        }
        let runs = cat.runs();
        let m = merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
            .unwrap()
            .partitioned()
            .expect("partitionable");
        assert_eq!(drain(m), (0..1200).rev().collect::<Vec<_>>());
    }

    #[test]
    fn single_block_runs_fall_back_to_serial() {
        let cat = Arc::new(RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            "p",
            SortOrder::Ascending,
            IoStats::new(),
        ));
        write_run(&cat, 0..10);
        let runs = cat.runs();
        let m =
            merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default()).unwrap();
        assert!(m.partitioned().is_none(), "one boundary key cannot split into two ranges");
    }

    #[test]
    fn plan_balances_rows_across_partitions() {
        let cat = catalog(SortOrder::Ascending);
        for _ in 0..3 {
            write_run(&cat, 0..1000);
        }
        let runs = cat.runs();
        let ranges = plan_partitions(&runs, SortOrder::Ascending, 4, None);
        assert_eq!(ranges.len(), 4);
        let m = merge_runs_partitioned(&cat, &runs, vec![], 4, None, &MergeTuning::default())
            .unwrap()
            .partitioned()
            .expect("partitionable");
        let counters = m.counters();
        let keys = drain(m);
        assert_eq!(keys.len(), 3000);
        let per = counters.snapshot();
        let max = *per.iter().max().unwrap();
        let min = *per.iter().min().unwrap();
        // Identical runs: boundary-weighted planning should land near 750
        // rows per partition; allow generous block-granularity slack.
        assert!(max <= 2 * min.max(1), "unbalanced partitions: {per:?}");
    }
}
