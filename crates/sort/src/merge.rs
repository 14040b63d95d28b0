//! Merge planning for top-k external sorts.
//!
//! When more runs exist than the merge fan-in allows, intermediate merge
//! steps reduce the run count. Two facts specific to top operations
//! (paper §4.1) shape the planner:
//!
//! * any merge step may stop after `k` rows — a row ranked worse than `k`
//!   within *any* subset of runs is ranked worse than `k` globally;
//! * a merge step may stop as soon as the merged key passes the cutoff key;
//! * for a top operation the best runs to merge first are the ones with the
//!   fewest rows at or before the cutoff (the cheapest to rewrite) or,
//!   before a cutoff is known, the ones with the lowest keys (the most
//!   recently produced), not the traditional smallest runs.

use std::sync::Arc;

use histok_storage::{
    IoSchedulerHandle, KeyRange, PrefetchingRunReader, RunCatalog, RunMeta, RunReader,
};
use histok_types::{Result, Row, RowBatch, SortKey, SortOrder};

use crate::cascade::{plan_merges, CascadeStats};
use crate::cmp_stats::CmpStats;
use crate::fold::FoldSpec;
use crate::loser_tree::LoserTree;
use crate::partition::{merge_partitioned, plan_partitions, PartitionCounters, PartitionedMerge};
use crate::source::{RowSource, DEFAULT_BATCH_ROWS};

/// Knobs an operator threads into every merge step it triggers: an
/// optional shared comparison-counter sink the trees flush into, how many
/// rows each merge drain batches, and whether equal keys fold. How run
/// inputs are read (inline or prefetched on a pool) is the run catalog's to
/// decide; how keys compare is the loser tree's (offset-value coding, see
/// [`LoserTree`]).
#[derive(Debug, Clone)]
pub struct MergeTuning {
    /// Shared comparison counters; `None` skips the accounting.
    pub stats: Option<CmpStats>,
    /// Rows per merge output batch (and the refill hint passed to batched
    /// sources). `1` degenerates to row-at-a-time — the differential
    /// baseline.
    pub batch_rows: usize,
    /// Fold equal-key rows at every merge step (duplicate removal /
    /// grouped aggregation); `None` emits duplicates verbatim.
    pub fold: Option<FoldSpec>,
}

impl Default for MergeTuning {
    fn default() -> Self {
        MergeTuning { stats: None, batch_rows: DEFAULT_BATCH_ROWS, fold: None }
    }
}

impl MergeTuning {
    /// Overrides the merge batch size (clamped to at least 1).
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }

    /// Enables (or disables) equal-key folding in every merge this tuning
    /// reaches — serial, cascade and partitioned.
    pub fn with_fold(mut self, fold: Option<FoldSpec>) -> Self {
        self.fold = fold;
        self
    }
}

/// A merge input: a spilled run, an in-memory sorted sequence (the run
/// generator's residue), or a buffered head chained onto a run reader
/// (produced by offset fast-skipping, which may over-read a block
/// boundary and must put the extra rows back in front).
pub enum MergeSource<K: SortKey> {
    /// Rows streamed from a spilled run, read inline on the merge thread.
    Run(RunReader<K>),
    /// Rows streamed from a spilled run through read-ahead jobs on a
    /// shared I/O pool (see [`PrefetchingRunReader`]).
    Prefetched(PrefetchingRunReader<K>),
    /// Rows already in memory, sorted in output order.
    Memory(std::vec::IntoIter<Row<K>>),
    /// Buffered rows followed by the rest of a source.
    Chained {
        /// Rows to emit before resuming the tail (already sorted).
        head: std::vec::IntoIter<Row<K>>,
        /// The remainder of the source.
        tail: Box<MergeSource<K>>,
    },
}

impl<K: SortKey> MergeSource<K> {
    /// Wraps an (optionally mid-run) reader: prefetched by jobs on
    /// `scheduler`'s pool when given (starting at prefetch priority,
    /// escalated once the merge actually drains this source), read inline
    /// otherwise. Callers pass the pool of the catalog the run came from.
    pub fn from_reader(reader: RunReader<K>, scheduler: Option<IoSchedulerHandle>) -> Self {
        match scheduler {
            Some(handle) => MergeSource::Prefetched(PrefetchingRunReader::new(reader, handle)),
            None => MergeSource::Run(reader),
        }
    }
}

impl<K: SortKey> Iterator for MergeSource<K> {
    type Item = Result<Row<K>>;
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            MergeSource::Run(r) => r.next(),
            MergeSource::Prefetched(r) => r.next(),
            MergeSource::Memory(m) => m.next().map(Ok),
            MergeSource::Chained { head, tail } => match head.next() {
                Some(row) => Some(Ok(row)),
                None => tail.next(),
            },
        }
    }
}

impl<K: SortKey> RowSource<K> for MergeSource<K> {
    fn next_batch(&mut self, target: usize) -> Result<Option<RowBatch<K>>> {
        match self {
            // Readers hand over whole decoded blocks with the prefix
            // column already built at decode time; the hint is moot.
            MergeSource::Run(r) => r.next_batch(),
            MergeSource::Prefetched(r) => r.next_batch(),
            MergeSource::Memory(m) => {
                let take = m.len().min(target.max(1));
                if take == 0 {
                    return Ok(None);
                }
                let mut batch = RowBatch::with_capacity(take);
                for row in m.by_ref().take(take) {
                    batch.push(row);
                }
                Ok(Some(batch))
            }
            MergeSource::Chained { head, tail } => {
                let take = head.len().min(target.max(1));
                if take == 0 {
                    return tail.next_batch(target);
                }
                let mut batch = RowBatch::with_capacity(take);
                for row in head.by_ref().take(take) {
                    batch.push(row);
                }
                Ok(Some(batch))
            }
        }
    }
}

/// Row-at-a-time facade over a batched [`LoserTree`] drain: refills an
/// internal buffer through [`LoserTree::merge_into`] so the per-row cost
/// is a buffer pop, with the tree's done/error bookkeeping paid once per
/// batch. Operators wrap their final serial merges in this.
pub struct BatchedMerge<K: SortKey, S: RowSource<K>> {
    tree: LoserTree<K, S>,
    buffer: std::vec::IntoIter<Row<K>>,
    batch_rows: usize,
    done: bool,
}

impl<K: SortKey, S: RowSource<K>> BatchedMerge<K, S> {
    /// Wraps `tree`, draining `batch_rows` rows per refill.
    pub fn new(tree: LoserTree<K, S>, batch_rows: usize) -> Self {
        BatchedMerge {
            tree,
            buffer: Vec::new().into_iter(),
            batch_rows: batch_rows.max(1),
            done: false,
        }
    }

    /// Peeks at the key that would be produced next (buffered rows
    /// first, then the tree head).
    pub fn peek_key(&self) -> Option<&K> {
        self.buffer.as_slice().first().map(|r| &r.key).or_else(|| self.tree.peek_key())
    }

    /// Comparison counts of the underlying tree.
    pub fn cmp_counts(&self) -> (u64, u64) {
        self.tree.cmp_counts()
    }
}

impl<K: SortKey, S: RowSource<K>> Iterator for BatchedMerge<K, S> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(row) = self.buffer.next() {
            return Some(Ok(row));
        }
        if self.done {
            return None;
        }
        let mut out = RowBatch::with_capacity(self.batch_rows);
        match self.tree.merge_into(&mut out, self.batch_rows) {
            Ok(()) => {
                if out.is_empty() {
                    self.done = true;
                    return None;
                }
                self.buffer = out.rows.into_iter();
                self.buffer.next().map(Ok)
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Opens a registered run as a merge source, prefetched on the catalog's
/// I/O pool when it has one (jobs gated on its backend), inline otherwise.
pub fn open_source<K: SortKey>(
    catalog: &RunCatalog<K>,
    meta: &RunMeta<K>,
) -> Result<MergeSource<K>> {
    Ok(MergeSource::from_reader(catalog.open(meta)?, catalog.io_scheduler()))
}

/// Builds a merging iterator over heterogeneous sources, tuned by
/// `tuning` (counter sink, batch size, folding).
pub fn merge_sources<K: SortKey>(
    sources: Vec<MergeSource<K>>,
    order: SortOrder,
    tuning: &MergeTuning,
) -> Result<LoserTree<K, MergeSource<K>>> {
    let mut tree = LoserTree::with_stats(sources, order, tuning.stats.clone())?;
    tree.set_batch_target(tuning.batch_rows);
    tree.set_fold(tuning.fold.clone());
    Ok(tree)
}

/// Merges the given runs into one new run, truncating at `limit` rows
/// and/or at the first key that sorts after `cutoff`. The source runs are
/// deleted; the new run is registered and returned.
///
/// A cutoff can truncate the whole step to zero rows: the empty output is
/// deleted instead of registered (the returned meta has `rows == 0` and
/// refers to no object). On a mid-merge error the half-written output
/// object is removed from the backend and the input runs stay registered
/// untouched.
pub fn merge_runs_to_new<K: SortKey>(
    catalog: &RunCatalog<K>,
    runs: &[RunMeta<K>],
    limit: Option<u64>,
    cutoff: Option<&K>,
    tuning: &MergeTuning,
) -> Result<RunMeta<K>> {
    let order = catalog.order();
    let mut sources = Vec::with_capacity(runs.len());
    for meta in runs {
        sources.push(open_source(catalog, meta)?);
    }
    let mut tree = merge_sources(sources, order, tuning)?;
    let mut writer = catalog.start_run()?;
    let out_name = writer.name().to_string();
    let merged: Result<()> = (|| {
        // Batched drain: pull a batch, clip it at the cutoff by scanning
        // the prefix column (one integer compare per row; key bytes are
        // touched only for wide keys whose prefix ties the cutoff's), and
        // append the survivors in one call.
        let out_mask = match order {
            SortOrder::Ascending => 0,
            SortOrder::Descending => !0u64,
        };
        let cut_prefix = cutoff.map(|c| c.norm_prefix() ^ out_mask);
        let mut produced = 0u64;
        let mut out = RowBatch::with_capacity(tuning.batch_rows);
        loop {
            let want = match limit {
                Some(l) => {
                    let remaining = l.saturating_sub(produced);
                    if remaining == 0 {
                        break;
                    }
                    usize::try_from(remaining).unwrap_or(usize::MAX).min(tuning.batch_rows)
                }
                None => tuning.batch_rows,
            };
            tree.merge_into(&mut out, want)?;
            if out.is_empty() {
                break;
            }
            let mut clipped = false;
            if let (Some(cut), Some(cp)) = (cutoff, cut_prefix) {
                let first_past = if K::norm_prefix_is_exact() {
                    // Exact prefixes: prefix order IS key order.
                    out.prefixes.iter().position(|&p| (p ^ out_mask) > cp)
                } else {
                    // A row can only follow the cutoff if its prefix is at
                    // or past the cutoff's; confirm on the key from there.
                    out.prefixes.iter().position(|&p| (p ^ out_mask) >= cp).and_then(|i| {
                        (i..out.len()).find(|&j| order.follows(&out.rows[j].key, cut))
                    })
                };
                if let Some(i) = first_past {
                    out.truncate(i);
                    clipped = true;
                }
            }
            writer.append_batch(&out)?;
            produced += out.len() as u64;
            if clipped {
                break;
            }
        }
        Ok(())
    })();
    drop(tree); // release readers before deleting their objects

    // Sealed write-behind: the output is registered (or, empty, deleted)
    // while its last frame may still be on its way to storage.
    let meta = match merged.and_then(|()| catalog.finish_run(writer)) {
        Ok(meta) => meta,
        Err(e) => {
            // The output object is half-written (or was abandoned by the
            // writer's drop); remove it so a failed merge leaves the
            // backend holding exactly the registered runs. Best-effort: the
            // merge error is what the caller must see.
            let _ = catalog.backend().delete(&out_name);
            return Err(e);
        }
    };
    for old in runs {
        catalog.remove(&old.name)?;
    }
    Ok(meta)
}

/// Sorts run metas so the best merge candidates come first.
///
/// With a `cutoff` the cheapest runs to rewrite come first: the fewest
/// rows at or before the cutoff ([`live_rows`]), ties by first key, then
/// by rows. That is Knuth's optimal merge pattern (shortest runs first)
/// over the rows a clipped merge actually moves. Without one, a merge
/// with a `limit` is a top-k merge (§4.1) and takes the runs whose first
/// keys sort best, usually the most recently generated ones; a full sort
/// takes the traditional smallest runs first, which minimizes re-read
/// volume.
pub(crate) fn rank_candidates<K: SortKey>(
    runs: &mut [RunMeta<K>],
    limit: Option<u64>,
    cutoff: Option<&K>,
    order: SortOrder,
) {
    if limit.is_none() && cutoff.is_none() {
        runs.sort_by_key(|m| m.rows);
        return;
    }
    runs.sort_by(|a, b| match (&a.first_key, &b.first_key) {
        (Some(ka), Some(kb)) => order.cmp_keys(ka, kb).then(a.rows.cmp(&b.rows)),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });
    if let Some(cut) = cutoff {
        // Stable: equal live rows keep the first-key order above.
        runs.sort_by_cached_key(|m| live_rows(m, cut, order));
    }
}

/// Rows of `meta` a merge clipped at `cutoff` fetches, from the block
/// index alone: every block up to and including the first whose last key
/// sorts after the cutoff.
fn live_rows<K: SortKey>(meta: &RunMeta<K>, cutoff: &K, order: SortOrder) -> u64 {
    let mut rows = 0;
    for block in &meta.blocks {
        rows += u64::from(block.rows);
        if order.follows(&block.last_key, cutoff) {
            break;
        }
    }
    rows
}

/// Rows the final merge must hold before it is range-partitioned: below
/// this, spawning partition workers and hopping batches through their
/// channels costs more than the parallel drain saves.
pub const PARTITION_MIN_ROWS: u64 = 8192;

/// One input of a final merge: a run catalog whose runs still go through
/// the cascade, and the sorted in-memory sequences (run generation's
/// residue) that join the final merge beside them.
pub type MergeInput<K> = (Arc<RunCatalog<K>>, Vec<Vec<Row<K>>>);

/// How every spilled sort finishes (paper §4.1): cascade each input's
/// runs down to the fan-in ([`plan_merges`]), then merge what is left in
/// exactly one of three ways:
///
/// 1. `skip > 0`: skip whole blocks of the offset prefix through the runs'
///    block indexes without reading them, then merge serially;
/// 2. `threads ≥ 2` and at least [`PARTITION_MIN_ROWS`] rows left: the
///    range-partitioned parallel merge, unless the block indexes offer
///    no splitter;
/// 3. otherwise the serial [`BatchedMerge`].
///
/// The partitioned merge emits the serial merge's rows in the serial
/// merge's order; a clipped partition plan only stops earlier.
#[derive(Debug, Clone)]
pub struct FinalMerge<K: SortKey> {
    /// Maximum simultaneous merge inputs of the cascade (at least 2).
    pub fan_in: usize,
    /// Tuning of every merge step, intermediate and final.
    pub tuning: MergeTuning,
    /// Rows the output needs (a top-k's `offset + limit`): intermediate
    /// merges stop there. `None` for a full sort.
    pub limit: Option<u64>,
    /// The operator's cutoff key: intermediate merges truncate at it and
    /// the cascade prunes runs wholly past it.
    pub cutoff: Option<K>,
    /// Whether the cutoff may also clip the partition plan. Only a cutoff
    /// proving `limit` rows at or before it may: with approximation slack
    /// the serial merge emits rows past it, and the partitioned merge must
    /// emit them too.
    pub clip_partitions: bool,
    /// Worker threads for the final merge (1 = serial).
    pub threads: usize,
    /// Leading output rows the caller discards (an `OFFSET`) that the
    /// merge may skip unread; see [`SortedStream::skipped`].
    pub skip: u64,
}

impl<K: SortKey> Default for FinalMerge<K> {
    fn default() -> Self {
        FinalMerge {
            fan_in: 16,
            tuning: MergeTuning::default(),
            limit: None,
            cutoff: None,
            clip_partitions: false,
            threads: 1,
            skip: 0,
        }
    }
}

/// One input after its cascade: the catalog, the runs left in it and the
/// in-memory residue.
pub(crate) struct Planned<K: SortKey> {
    pub(crate) catalog: Arc<RunCatalog<K>>,
    pub(crate) runs: Vec<RunMeta<K>>,
    pub(crate) residue: Vec<Vec<Row<K>>>,
}

impl<K: SortKey> Planned<K> {
    /// Opens every run (prefetched on its catalog's pool, if any) and
    /// appends the residue: the source order every final merge uses.
    pub(crate) fn open_into(self, sources: &mut Vec<MergeSource<K>>) -> Result<()> {
        for meta in &self.runs {
            sources.push(open_source(&self.catalog, meta)?);
        }
        sources.extend(self.residue.into_iter().map(|seq| MergeSource::Memory(seq.into_iter())));
        Ok(())
    }
}

impl<K: SortKey> FinalMerge<K> {
    /// The key ranges of a partitioned final merge; fewer than two means
    /// the merge stays serial (one thread, too few rows, or no splitter in
    /// the block indexes).
    fn partition_plan(&self, planned: &[Planned<K>], order: SortOrder) -> Vec<KeyRange<K>> {
        if self.threads < 2 {
            return Vec::new();
        }
        let rows: u64 = planned
            .iter()
            .map(|p| {
                p.runs.iter().map(|m| m.rows).sum::<u64>()
                    + p.residue.iter().map(|s| s.len() as u64).sum::<u64>()
            })
            .sum();
        if rows < PARTITION_MIN_ROWS {
            return Vec::new();
        }
        let clip = self.cutoff.as_ref().filter(|_| self.clip_partitions);
        plan_partitions(planned.iter().flat_map(|p| &p.runs), order, self.threads, clip)
    }

    /// Runs the cascade over every input, then the final merge over
    /// all of them, inputs in the given order (all share one sort order).
    pub fn run(self, inputs: Vec<MergeInput<K>>) -> Result<SortedStream<K>> {
        let order = inputs.first().map_or(SortOrder::Ascending, |(catalog, _)| catalog.order());
        let mut cascade = CascadeStats::default();
        let mut planned = Vec::with_capacity(inputs.len());
        for (catalog, residue) in inputs {
            let (runs, stats) =
                plan_merges(&catalog, self.fan_in, self.limit, self.cutoff.as_ref(), &self.tuning)?;
            cascade = cascade.merged(&stats);
            planned.push(Planned { catalog, runs, residue });
        }
        let catalogs = planned.iter().map(|p| p.catalog.clone()).collect();
        let (sources, skipped) = if self.skip > 0 {
            let positioned = crate::offset::fast_skip_sources(planned, order, self.skip)?;
            (positioned.sources, positioned.skipped)
        } else {
            let ranges = self.partition_plan(&planned, order);
            if ranges.len() >= 2 {
                let merge = merge_partitioned(planned, &ranges, order, &self.tuning)?;
                return Ok(SortedStream {
                    drain: Drain::Partitioned(merge),
                    _catalogs: catalogs,
                    cascade,
                    skipped: 0,
                });
            }
            let mut sources = Vec::new();
            for p in planned {
                p.open_into(&mut sources)?;
            }
            (sources, 0)
        };
        let tree = merge_sources(sources, order, &self.tuning)?;
        let merge = BatchedMerge::new(tree, self.tuning.batch_rows);
        Ok(SortedStream { drain: Drain::Serial(merge), _catalogs: catalogs, cascade, skipped })
    }
}

/// The output of a [`FinalMerge`]: the merged rows, plus the counters of
/// how they were produced. Owns the run catalogs it reads, so the spilled
/// runs live exactly as long as the stream.
pub struct SortedStream<K: SortKey> {
    drain: Drain<K>,
    /// Dropped after `drain`: readers and partition workers are gone
    /// before the last catalog handle deletes the runs.
    _catalogs: Vec<Arc<RunCatalog<K>>>,
    cascade: CascadeStats,
    skipped: u64,
}

// One stream per sort: the variant size gap is irrelevant at this
// allocation rate, and boxing would cost an indirection per batch.
#[allow(clippy::large_enum_variant)]
enum Drain<K: SortKey> {
    Serial(BatchedMerge<K, MergeSource<K>>),
    Partitioned(PartitionedMerge<K>),
}

impl<K: SortKey> SortedStream<K> {
    /// Key ranges the final merge runs across (1 when serial).
    pub fn merge_partitions(&self) -> usize {
        match &self.drain {
            Drain::Serial(_) => 1,
            Drain::Partitioned(m) => m.partitions(),
        }
    }

    /// Per-partition row counters when the merge went parallel.
    pub fn partition_counters(&self) -> Option<PartitionCounters> {
        match &self.drain {
            Drain::Serial(_) => None,
            Drain::Partitioned(m) => Some(m.counters()),
        }
    }

    /// Pass counters of the intermediate cascade merges, summed over every
    /// input (all zero when no reduction was needed).
    pub fn cascade_stats(&self) -> CascadeStats {
        self.cascade
    }

    /// Leading rows of the merged order skipped before the stream's first
    /// row (at most [`FinalMerge::skip`]); the caller discards that many
    /// fewer.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

impl<K: SortKey> Iterator for SortedStream<K> {
    type Item = Result<Row<K>>;
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.drain {
            Drain::Serial(merge) => merge.next(),
            Drain::Partitioned(merge) => merge.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::{FaultBackend, FaultPlan, FileBackend, IoStats, MemoryBackend};
    use histok_types::Row;
    use std::sync::Arc;

    fn catalog() -> Arc<RunCatalog<u64>> {
        Arc::new(RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            "m",
            SortOrder::Ascending,
            IoStats::new(),
        ))
    }

    fn write_run(cat: &RunCatalog<u64>, keys: &[u64]) {
        let mut w = cat.start_run().unwrap();
        for &k in keys {
            w.append(&Row::key_only(k)).unwrap();
        }
        cat.finish_run(w).unwrap();
    }

    fn read_run(cat: &RunCatalog<u64>, meta: &RunMeta<u64>) -> Vec<u64> {
        cat.open(meta).unwrap().map(|r| r.unwrap().key).collect()
    }

    #[test]
    fn merge_sources_combines_runs_and_memory() {
        let cat = catalog();
        write_run(&cat, &[2, 4, 6]);
        let run = cat.runs()[0].clone();
        let mem: Vec<Row<u64>> = vec![Row::key_only(1), Row::key_only(5)];
        let sources =
            vec![MergeSource::Run(cat.open(&run).unwrap()), MergeSource::Memory(mem.into_iter())];
        let keys: Vec<u64> = merge_sources(sources, SortOrder::Ascending, &MergeTuning::default())
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(keys, vec![1, 2, 4, 5, 6]);
    }

    #[test]
    fn merge_runs_to_new_replaces_inputs() {
        let cat = catalog();
        write_run(&cat, &[1, 4, 7]);
        write_run(&cat, &[2, 5, 8]);
        write_run(&cat, &[3, 6, 9]);
        let runs = cat.runs();
        let merged =
            merge_runs_to_new(&cat, &runs[..2], None, None, &MergeTuning::default()).unwrap();
        assert_eq!(read_run(&cat, &merged), vec![1, 2, 4, 5, 7, 8]);
        assert_eq!(cat.len(), 2); // merged + untouched third run
    }

    #[test]
    fn limit_truncates_merge_output() {
        let cat = catalog();
        write_run(&cat, &[1, 3, 5, 7, 9]);
        write_run(&cat, &[2, 4, 6, 8, 10]);
        let runs = cat.runs();
        let merged =
            merge_runs_to_new(&cat, &runs, Some(4), None, &MergeTuning::default()).unwrap();
        assert_eq!(read_run(&cat, &merged), vec![1, 2, 3, 4]);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn cutoff_truncates_merge_output() {
        let cat = catalog();
        write_run(&cat, &[1, 3, 5, 7, 9]);
        write_run(&cat, &[2, 4, 6, 8, 10]);
        let runs = cat.runs();
        // Keys strictly above 6 must not be written (ties survive).
        let merged =
            merge_runs_to_new(&cat, &runs, None, Some(&6), &MergeTuning::default()).unwrap();
        assert_eq!(read_run(&cat, &merged), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn plan_merges_reduces_to_fan_in() {
        let cat = catalog();
        for i in 0..10u64 {
            write_run(&cat, &[i, i + 10, i + 20]);
        }
        let final_runs = plan_merges(&cat, 4, None, None, &MergeTuning::default()).unwrap().0;
        assert!(final_runs.len() <= 4);
        // Contents preserved exactly.
        let mut all: Vec<u64> = final_runs.iter().flat_map(|m| read_run(&cat, m)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn plan_merges_noop_when_under_fan_in() {
        let cat = catalog();
        write_run(&cat, &[1]);
        write_run(&cat, &[2]);
        let runs = plan_merges(&cat, 16, None, None, &MergeTuning::default()).unwrap().0;
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn lowest_key_policy_merges_best_runs_first() {
        let cat = catalog();
        write_run(&cat, &[100, 101, 102]); // early, high keys
        write_run(&cat, &[50, 51, 52]);
        write_run(&cat, &[1, 2, 3]); // recent, low keys
        write_run(&cat, &[60, 61, 62]);
        let mut runs = cat.runs();
        rank_candidates(&mut runs, Some(3), None, SortOrder::Ascending);
        assert_eq!(runs[0].first_key, Some(1));
        assert_eq!(runs[1].first_key, Some(50));
        assert_eq!(runs[3].first_key, Some(100));
    }

    /// Row counts of the runs left after one cascade at fan-in 3 over two
    /// large runs with the best first keys and two small runs with the
    /// worst: one merge of the two best-ranked runs brings four to three.
    fn cascade_survivors(limit: Option<u64>) -> Vec<u64> {
        let cat = catalog();
        write_run(&cat, &(0..20).step_by(2).collect::<Vec<_>>());
        write_run(&cat, &(1..21).step_by(2).collect::<Vec<_>>());
        write_run(&cat, &[100]);
        write_run(&cat, &[101, 102]);
        let (runs, stats) = plan_merges(&cat, 3, limit, None, &MergeTuning::default()).unwrap();
        assert_eq!(stats.intermediate_merges, 1);
        let mut rows: Vec<u64> = runs.iter().map(|m| m.rows).collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn the_merge_limit_decides_which_runs_the_cascade_merges() {
        // A top-k cascade merges the runs with the best first keys (§4.1);
        // the limit is far above the input, so nothing is truncated.
        assert_eq!(cascade_survivors(Some(1_000)), vec![1, 2, 20]);
        // A full sort merges the runs with the fewest rows.
        assert_eq!(cascade_survivors(None), vec![3, 10, 10]);
    }

    #[test]
    fn invalid_fan_in_rejected() {
        let cat = catalog();
        write_run(&cat, &[1]);
        write_run(&cat, &[2]);
        assert!(plan_merges(&cat, 1, None, None, &MergeTuning::default()).is_err());
    }

    #[test]
    fn plan_merges_refines_the_cutoff_between_steps() {
        // §4.1: once an intermediate merge produces `limit` rows, its last
        // key truncates every later merge. The two low-key runs rank
        // first and merge first, establishing a cutoff ≈ key 59; the high-key merges that follow contain no row
        // at or before it and must write NOTHING.
        let cat = catalog();
        write_run(&cat, &(0..100).step_by(2).collect::<Vec<_>>()); // 50 even low keys
        write_run(&cat, &(1..100).step_by(2).collect::<Vec<_>>()); // 50 odd low keys
        for base in 0..4u64 {
            let keys: Vec<u64> = (0..60).map(|j| 10_000 + j * 4 + base).collect();
            write_run(&cat, &keys);
        }
        let before = cat.stats().snapshot();
        let k = 60;
        let final_runs = plan_merges(&cat, 2, Some(k), None, &MergeTuning::default()).unwrap().0;
        assert!(final_runs.len() <= 2);
        // Correctness: the global top 60 is exactly 0..59.
        let mut sources = Vec::new();
        for m in &final_runs {
            sources.push(MergeSource::Run(cat.open(m).unwrap()));
        }
        let top: Vec<u64> = merge_sources(sources, SortOrder::Ascending, &MergeTuning::default())
            .unwrap()
            .take(k as usize)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(top, (0..k).collect::<Vec<_>>());
        // Savings: only the low-key merge wrote rows; without refinement
        // each high-key pair merge would have written `limit` rows too.
        let rewritten = cat.stats().snapshot().since(&before).rows_written;
        assert!(
            rewritten <= 70,
            "high-key merges were not truncated by the refined cutoff: {rewritten} rows"
        );
    }

    #[test]
    fn cascading_refinement_never_leaves_empty_runs_or_objects() {
        // Same shape as the refinement test above, but driven further: the
        // low-key merge establishes a cutoff that truncates EVERY later
        // high-key merge to zero rows. Those empty outputs must not be
        // registered (each would cost a storage open and a prefetch source
        // per later pass) and must not leak objects in the backend.
        let be = MemoryBackend::new();
        let cat = RunCatalog::<u64>::new(
            Arc::new(be.clone()),
            "cascade",
            SortOrder::Ascending,
            IoStats::new(),
        );
        write_run(&cat, &(0..100).step_by(2).collect::<Vec<_>>());
        write_run(&cat, &(1..100).step_by(2).collect::<Vec<_>>());
        for base in 0..6u64 {
            let keys: Vec<u64> = (0..60).map(|j| 10_000 + j * 6 + base).collect();
            write_run(&cat, &keys);
        }
        let final_runs = plan_merges(&cat, 2, Some(60), None, &MergeTuning::default()).unwrap().0;
        assert!(final_runs.len() <= 2);
        assert!(
            final_runs.iter().all(|m| m.rows > 0),
            "zero-row runs survived into the final run set: {final_runs:?}"
        );
        // Backend and catalog agree: exactly one object per registered run.
        assert_eq!(be.object_count(), cat.len());
        // And the answer is still exact.
        let mut sources = Vec::new();
        for m in &final_runs {
            sources.push(MergeSource::Run(cat.open(m).unwrap()));
        }
        let top: Vec<u64> = merge_sources(sources, SortOrder::Ascending, &MergeTuning::default())
            .unwrap()
            .take(60)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(top, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn failed_merge_cleans_up_its_output_and_keeps_inputs() {
        // Dry run on an unfaulted backend to learn how many bytes the two
        // input runs cost; the fault budget then trips partway through the
        // merge output.
        let keys_a: Vec<u64> = (0..200).map(|i| i * 2).collect();
        let keys_b: Vec<u64> = (0..200).map(|i| i * 2 + 1).collect();
        let input_bytes = {
            let probe = RunCatalog::<u64>::new(
                Arc::new(MemoryBackend::new()),
                "probe",
                SortOrder::Ascending,
                IoStats::new(),
            );
            write_run(&probe, &keys_a);
            write_run(&probe, &keys_b);
            probe.stats().snapshot().bytes_written
        };
        // A file-backed store makes the leak observable: `create` puts the
        // file on disk immediately, so a dropped unfinished writer leaves
        // it behind unless the error path deletes it.
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
        write_run(&cat, &keys_a);
        write_run(&cat, &keys_b);
        let runs = cat.runs();
        let err = merge_runs_to_new(&cat, &runs, None, None, &MergeTuning::default());
        assert!(err.is_err(), "the fault budget must fail the merge");
        assert!(be.fault_fired());
        // Inputs stay registered and readable; the half-written output is
        // gone from the backend.
        assert_eq!(cat.len(), 2);
        for meta in &cat.runs() {
            assert_eq!(cat.open(meta).unwrap().count(), 200);
        }
        let on_disk = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, 2, "failed merge leaked its half-written output object");
    }

    #[test]
    fn multi_level_merge_preserves_order_with_limit() {
        // Truncating intermediate merges at k must still produce the exact
        // global top-k at the end.
        let cat = catalog();
        for i in 0..12u64 {
            let keys: Vec<u64> = (0..50).map(|j| j * 12 + i).collect();
            write_run(&cat, &keys);
        }
        let k = 25;
        let final_runs = plan_merges(&cat, 3, Some(k), None, &MergeTuning::default()).unwrap().0;
        assert!(final_runs.len() <= 3);
        let mut sources = Vec::new();
        for m in &final_runs {
            sources.push(MergeSource::Run(cat.open(m).unwrap()));
        }
        let top: Vec<u64> = merge_sources(sources, SortOrder::Ascending, &MergeTuning::default())
            .unwrap()
            .take(k as usize)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(top, (0..k).collect::<Vec<_>>());
    }

    /// Four interleaved runs over keys `0..10_000` in 64-byte blocks:
    /// past [`PARTITION_MIN_ROWS`], with block boundaries to split on.
    fn final_merge_catalog() -> Arc<RunCatalog<u64>> {
        let cat = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "fm",
                SortOrder::Ascending,
                IoStats::new(),
            )
            .with_block_bytes(64),
        );
        for r in 0..4u64 {
            write_run(&cat, &(0..2_500).map(|j| j * 4 + r).collect::<Vec<_>>());
        }
        cat
    }

    fn keys(stream: SortedStream<u64>) -> Vec<u64> {
        stream.map(|r| r.unwrap().key).collect()
    }

    #[test]
    fn final_merge_with_an_offset_fast_skips_serially() {
        let cat = final_merge_catalog();
        let stream = FinalMerge { threads: 4, skip: 3_000, ..FinalMerge::default() }
            .run(vec![(cat.clone(), Vec::new())])
            .unwrap();
        assert_eq!(stream.merge_partitions(), 1, "an offset merge must stay serial");
        let skipped = stream.skipped();
        assert!(skipped > 0 && skipped <= 3_000, "skipped {skipped}");
        assert!(cat.stats().snapshot().blocks_skipped > 0, "no block was skipped unread");
        let rest: Vec<u64> = keys(stream).into_iter().skip((3_000 - skipped) as usize).collect();
        assert_eq!(rest, (3_000..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn final_merge_on_one_thread_is_serial() {
        let serial = FinalMerge { threads: 1, ..FinalMerge::default() }
            .run(vec![(final_merge_catalog(), Vec::new())])
            .unwrap();
        assert_eq!(serial.merge_partitions(), 1);
        assert!(serial.partition_counters().is_none());
        assert_eq!(serial.skipped(), 0);
        let parallel = FinalMerge { threads: 4, ..FinalMerge::default() }
            .run(vec![(final_merge_catalog(), Vec::new())])
            .unwrap();
        assert!(parallel.merge_partitions() >= 2, "enough rows and blocks to partition");
        assert_eq!(keys(serial), keys(parallel));
    }

    #[test]
    fn inexact_cutoff_never_clips_the_partition_plan() {
        let run = |clip_partitions: bool| {
            let stream = FinalMerge {
                threads: 4,
                cutoff: Some(999),
                clip_partitions,
                ..FinalMerge::default()
            }
            .run(vec![(final_merge_catalog(), Vec::new())])
            .unwrap();
            assert!(stream.merge_partitions() >= 2);
            keys(stream)
        };
        // Exact: the plan ends at the cutoff, ties included.
        assert_eq!(run(true), (0..=999).collect::<Vec<_>>());
        // Inexact: every row the serial merge would emit is still there.
        assert_eq!(run(false), (0..10_000).collect::<Vec<_>>());
    }
}
