//! The top-k operator and its shared pieces.
//!
//! The paper's algorithm and the baselines it is evaluated against are one
//! operator, [`HistogramTopK`], built by four constructors. The recipes
//! differ only in where the cutoff comes from (DESIGN.md §5):
//!
//! | Constructor | Paper section | Cutoff | Behaviour beyond memory |
//! |---|---|---|---|
//! | [`HistogramTopK`] | §3 (the contribution) | histogram priority queue | spills, filtering input with a histogram-derived cutoff |
//! | [`InMemoryTopK`] | §2.3 | bounded heap | assumes provisioned memory; never spills |
//! | [`TraditionalExternalTopK`] | §2.4 | none | externally sorts the *entire* input |
//! | [`OptimizedExternalTopK`] | §2.5 ([Graefe'08]) | k-th key of a run, early merge | run size ≤ k, kth-key filter, early merge steps |
//!
//! Experiments drive them, and the other operators, through
//! [`TopKOperator`].

mod histogram_topk;
mod in_memory;
mod optimized;
mod traditional;

pub use histogram_topk::{live_rungen_workers, HistogramTopK};
pub use in_memory::InMemoryTopK;
pub use optimized::OptimizedExternalTopK;
pub use traditional::TraditionalExternalTopK;

use histok_sort::{row_footprint, BinaryHeapBy, CascadeStats, PartitionCounters, SortedStream};
use histok_types::{Result, Row, SortKey, SortOrder, SortSpec};

use crate::metrics::OperatorMetrics;

/// A boxed stream of output rows in the requested order.
pub type RowStream<K> = Box<dyn Iterator<Item = Result<Row<K>>> + Send>;

/// The uniform push/finish interface of every top-k algorithm.
pub trait TopKOperator<K: SortKey>: Send {
    /// Offers one input row.
    fn push(&mut self, row: Row<K>) -> Result<()>;

    /// Offers every row of `rows` in order and leaves `rows` empty (also
    /// on error). Observably identical to calling [`push`](Self::push) row
    /// by row: same output, same counters, same spill decisions.
    fn push_batch(&mut self, rows: &mut Vec<Row<K>>) -> Result<()> {
        rows.drain(..).try_for_each(|row| self.push(row))
    }

    /// Ends the input and returns the output stream (`offset` rows skipped,
    /// at most `limit` rows). Calling `finish` twice is an error.
    fn finish(&mut self) -> Result<RowStream<K>>;

    /// Execution counters.
    fn metrics(&self) -> OperatorMetrics;

    /// A short algorithm name for reports.
    fn algorithm(&self) -> &'static str;
}

/// Outcome of offering a row to a [`RetainedHeap`] or [`FoldedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// The store grew by one row.
    Grew,
    /// The row replaced a worse one (one candidate eliminated).
    Displaced,
    /// The row was rejected (eliminated immediately).
    Rejected,
    /// The row folded into an existing group's accumulator
    /// ([`FoldedStore`] only).
    Folded,
}

/// The classic in-memory top-k structure (§2.3): a priority queue in the
/// inverse of the output order, capped at `retained` rows. Its top entry is
/// the worst retained row — the in-memory cutoff key.
/// Boxed runtime comparator for rows.
type RowCmp<K> = Box<dyn FnMut(&Row<K>, &Row<K>) -> bool + Send>;
/// Heap of rows ordered by a boxed runtime comparator.
type RowHeap<K> = BinaryHeapBy<Row<K>, RowCmp<K>>;

pub(crate) struct RetainedHeap<K: SortKey> {
    heap: RowHeap<K>,
    retained: u64,
    bytes: usize,
    order: SortOrder,
}

impl<K: SortKey> RetainedHeap<K> {
    pub(crate) fn new(retained: u64, order: SortOrder) -> Self {
        let cmp: RowCmp<K> = Box::new(move |a, b| order.follows(&a.key, &b.key));
        RetainedHeap { heap: BinaryHeapBy::new(cmp), retained: retained.max(1), bytes: 0, order }
    }

    pub(crate) fn len(&self) -> u64 {
        self.heap.len() as u64
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len() >= self.retained
    }

    /// The in-memory cutoff: the worst retained key once the heap is full.
    pub(crate) fn cutoff(&self) -> Option<&K> {
        if self.is_full() {
            self.heap.peek().map(|r| &r.key)
        } else {
            None
        }
    }

    /// The cutoff test of §2.3: true when the heap is full and `key` does
    /// not sort strictly before its worst retained key, i.e. `offer` would
    /// return [`Offer::Rejected`]. One key compare, no row needed.
    #[inline]
    pub(crate) fn rejects(&self, key: &K) -> bool {
        self.cutoff().is_some_and(|worst| !self.order.precedes(key, worst))
    }

    pub(crate) fn offer(&mut self, row: Row<K>) -> Offer {
        if self.rejects(&row.key) {
            return Offer::Rejected;
        }
        self.bytes += row_footprint(&row);
        if !self.is_full() {
            self.heap.push(row);
            return Offer::Grew;
        }
        let old = self.heap.replace_top(row).expect("full heap");
        self.bytes -= row_footprint(&old);
        Offer::Displaced
    }

    /// Removes all rows in unspecified order (used when switching to the
    /// external mode: the retained rows re-enter through run generation).
    pub(crate) fn drain_unordered(&mut self) -> Vec<Row<K>> {
        self.bytes = 0;
        self.heap.drain_unordered().collect()
    }

    /// Consumes the heap, returning rows in output order (best first).
    pub(crate) fn into_sorted(self) -> Vec<Row<K>> {
        // The heap pops worst-first; reverse for output order.
        let mut rows = self.heap.drain_sorted();
        rows.reverse();
        rows
    }
}

/// In-memory phase store for dedup/aggregate queries: one row per distinct
/// key, capped at `retained` groups, ordered by key. A duplicate folds into
/// its group's accumulator the moment it arrives; once the store is full, a
/// row whose key sorts strictly after the worst retained group is rejected
/// outright.
///
/// Rejection is sound even for value aggregates, where dropping an
/// arbitrary row would corrupt its group's SUM/COUNT: the retained key set
/// only ever *improves* (an eviction replaces the worst key with a strictly
/// better one), so if a group is ever rejected or evicted, `retained`
/// strictly better groups exist from that point on and the group can never
/// re-enter the output. No row of an output group is ever dropped
/// (DESIGN.md §14).
pub(crate) struct FoldedStore<K: SortKey> {
    map: std::collections::BTreeMap<K, Row<K>>,
    retained: usize,
    bytes: usize,
    order: SortOrder,
    agg: std::sync::Arc<dyn histok_types::Aggregator>,
    /// Fold counters, recorded as they happen (shared with the external
    /// pipeline's sinks so `metrics()` sees one total).
    stats: histok_sort::FoldStats,
}

impl<K: SortKey> FoldedStore<K> {
    pub(crate) fn new(
        retained: u64,
        order: SortOrder,
        agg: std::sync::Arc<dyn histok_types::Aggregator>,
        stats: histok_sort::FoldStats,
    ) -> Self {
        FoldedStore {
            map: std::collections::BTreeMap::new(),
            retained: retained.max(1) as usize,
            bytes: 0,
            order,
            agg,
            stats,
        }
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn is_full(&self) -> bool {
        self.map.len() >= self.retained
    }

    /// The worst retained group key once the store holds `retained` groups.
    pub(crate) fn cutoff(&self) -> Option<&K> {
        if !self.is_full() {
            return None;
        }
        match self.order {
            SortOrder::Ascending => self.map.keys().next_back(),
            SortOrder::Descending => self.map.keys().next(),
        }
    }

    pub(crate) fn offer(&mut self, row: Row<K>) -> Offer {
        if let Some(acc) = self.map.get_mut(&row.key) {
            self.stats.record_pre_spill(1, row.encoded_len() as u64);
            if let Some(folded) = self.agg.fold(&acc.payload, &row.payload) {
                let old = row_footprint(acc);
                acc.payload = folded;
                self.bytes = self.bytes.saturating_sub(old) + row_footprint(acc);
            }
            return Offer::Folded;
        }
        if !self.is_full() {
            self.bytes += row_footprint(&row);
            self.map.insert(row.key.clone(), row);
            return Offer::Grew;
        }
        let worst = self.cutoff().expect("full store has a worst group").clone();
        if self.order.precedes(&row.key, &worst) {
            let evicted = self.map.remove(&worst).expect("cutoff key is in the map");
            self.bytes = self.bytes.saturating_sub(row_footprint(&evicted));
            self.bytes += row_footprint(&row);
            self.map.insert(row.key.clone(), row);
            Offer::Displaced
        } else {
            Offer::Rejected
        }
    }

    /// Removes all group rows in unspecified order (switching to external
    /// mode: the accumulated groups re-enter through run generation).
    pub(crate) fn drain_unordered(&mut self) -> Vec<Row<K>> {
        self.bytes = 0;
        std::mem::take(&mut self.map).into_values().collect()
    }

    /// Consumes the store, returning group rows in output order.
    pub(crate) fn into_sorted(self) -> Vec<Row<K>> {
        let rows: Vec<Row<K>> = self.map.into_values().collect();
        match self.order {
            SortOrder::Ascending => rows,
            SortOrder::Descending => rows.into_iter().rev().collect(),
        }
    }
}

/// Applies `OFFSET`/`LIMIT` to a fallible row stream: skips `offset` *rows*
/// (errors still propagate immediately — unlike `Iterator::skip`, which
/// would swallow them) and stops after `limit` rows.
pub(crate) struct SpecStream<K, I> {
    inner: I,
    to_skip: u64,
    remaining: u64,
    _key: std::marker::PhantomData<K>,
}

impl<K, I> SpecStream<K, I> {
    pub(crate) fn new(inner: I, spec: &SortSpec) -> Self {
        SpecStream {
            inner,
            to_skip: spec.offset,
            remaining: spec.limit,
            _key: std::marker::PhantomData,
        }
    }
}

impl<K, I: Iterator<Item = Result<Row<K>>>> Iterator for SpecStream<K, I> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.remaining == 0 {
                return None;
            }
            match self.inner.next() {
                None => return None,
                Some(Err(e)) => {
                    self.remaining = 0;
                    return Some(Err(e));
                }
                Some(Ok(row)) => {
                    if self.to_skip > 0 {
                        self.to_skip -= 1;
                        continue;
                    }
                    self.remaining -= 1;
                    return Some(Ok(row));
                }
            }
        }
    }
}

/// How an operator's final merge ran, read off its [`SortedStream`] when
/// `finish` builds it; the partition counters keep counting while the
/// stream drains and stay readable after it is gone.
pub(crate) struct MergeRecord {
    /// Key ranges the final merge ran across (1 = serial).
    pub(crate) partitions: u64,
    counters: Option<PartitionCounters>,
    /// Intermediate cascade-merge pass counters.
    pub(crate) cascade: CascadeStats,
}

impl Default for MergeRecord {
    fn default() -> Self {
        MergeRecord { partitions: 1, counters: None, cascade: CascadeStats::default() }
    }
}

impl MergeRecord {
    pub(crate) fn of<K: SortKey>(stream: &SortedStream<K>) -> Self {
        MergeRecord {
            partitions: stream.merge_partitions() as u64,
            counters: stream.partition_counters(),
            cascade: stream.cascade_stats(),
        }
    }

    /// Rows each partition emitted so far, in key-range order; empty when
    /// the merge ran serially.
    pub(crate) fn partition_rows(&self) -> Vec<u64> {
        self.counters.as_ref().map(|c| c.snapshot()).unwrap_or_default()
    }
}

/// Wraps an output stream so the wall-clock time between `finish()` and the
/// stream being dropped is charged to the final-merge phase: one `Instant`
/// pair for the whole stream, nothing per row. The total lands in a shared
/// atomic so `metrics()` can read it after the stream is gone.
pub(crate) struct TimedStream<I> {
    pub(crate) inner: I,
    started: std::time::Instant,
    sink_ns: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<I> TimedStream<I> {
    pub(crate) fn new(inner: I, sink_ns: std::sync::Arc<std::sync::atomic::AtomicU64>) -> Self {
        TimedStream { inner, started: std::time::Instant::now(), sink_ns }
    }
}

impl<I: Iterator> Iterator for TimedStream<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl<I> Drop for TimedStream<I> {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.sink_ns.fetch_add(ns, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_types::Error;

    #[test]
    fn retained_heap_keeps_the_best_k() {
        let mut h: RetainedHeap<u64> = RetainedHeap::new(3, SortOrder::Ascending);
        assert_eq!(h.offer(Row::key_only(50)), Offer::Grew);
        assert_eq!(h.offer(Row::key_only(10)), Offer::Grew);
        assert_eq!(h.offer(Row::key_only(30)), Offer::Grew);
        assert!(h.is_full());
        assert_eq!(h.cutoff(), Some(&50));
        assert_eq!(h.offer(Row::key_only(99)), Offer::Rejected);
        assert_eq!(h.offer(Row::key_only(20)), Offer::Displaced);
        assert_eq!(h.cutoff(), Some(&30));
        assert_eq!(h.into_sorted().iter().map(|r| r.key).collect::<Vec<_>>(), vec![10, 20, 30]);
    }

    #[test]
    fn retained_heap_descending() {
        let mut h: RetainedHeap<u64> = RetainedHeap::new(2, SortOrder::Descending);
        for k in [5u64, 1, 9, 7] {
            h.offer(Row::key_only(k));
        }
        assert_eq!(h.cutoff(), Some(&7));
        assert_eq!(h.into_sorted().iter().map(|r| r.key).collect::<Vec<_>>(), vec![9, 7]);
    }

    #[test]
    fn retained_heap_tracks_bytes() {
        let mut h: RetainedHeap<u64> = RetainedHeap::new(2, SortOrder::Ascending);
        h.offer(Row::new(1, vec![0u8; 100]));
        let one = h.bytes();
        h.offer(Row::new(2, vec![0u8; 100]));
        assert_eq!(h.bytes(), 2 * one);
        h.offer(Row::new(0, vec![0u8; 10])); // displaces key 2
        assert!(h.bytes() < 2 * one);
        h.drain_unordered();
        assert_eq!(h.bytes(), 0);
    }

    #[test]
    fn retained_heap_with_duplicates_at_cutoff() {
        let mut h: RetainedHeap<u64> = RetainedHeap::new(2, SortOrder::Ascending);
        h.offer(Row::key_only(5));
        h.offer(Row::key_only(5));
        // Equal to the cutoff: rejected (heap already holds k candidates at
        // least as good — matches §2.3's priority-queue semantics).
        assert_eq!(h.offer(Row::key_only(5)), Offer::Rejected);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn folded_store_folds_duplicates_and_evicts_whole_groups() {
        use histok_types::{decode_count, AggregateOp, Bytes};
        let agg = AggregateOp::Count.aggregator();
        let stats = histok_sort::FoldStats::new();
        let mut s: FoldedStore<u64> =
            FoldedStore::new(2, SortOrder::Ascending, agg.clone(), stats.clone());
        let row = |k: u64| Row::new(k, agg.init(Bytes::new()));
        assert_eq!(s.offer(row(10)), Offer::Grew);
        assert_eq!(s.offer(row(10)), Offer::Folded);
        assert_eq!(s.offer(row(30)), Offer::Grew);
        assert!(s.is_full());
        assert_eq!(s.cutoff(), Some(&30));
        assert_eq!(s.offer(row(40)), Offer::Rejected);
        assert_eq!(s.offer(row(20)), Offer::Displaced); // evicts group 30
        assert_eq!(s.offer(row(30)), Offer::Rejected, "evicted groups stay out");
        assert_eq!(s.offer(row(10)), Offer::Folded);
        assert_eq!(stats.snapshot().rows_folded, 2);
        assert!(s.bytes() > 0);
        let out = s.into_sorted();
        assert_eq!(out.iter().map(|r| r.key).collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(decode_count(&out[0].payload), 3);
        assert_eq!(decode_count(&out[1].payload), 1);
    }

    #[test]
    fn folded_store_descending_order() {
        use histok_types::{AggregateOp, Bytes};
        let agg = AggregateOp::First.aggregator();
        let mut s: FoldedStore<u64> =
            FoldedStore::new(2, SortOrder::Descending, agg.clone(), histok_sort::FoldStats::new());
        for k in [5u64, 9, 5, 1, 7] {
            s.offer(Row::new(k, agg.init(Bytes::new())));
        }
        assert_eq!(s.cutoff(), Some(&7));
        let out = s.into_sorted();
        assert_eq!(out.iter().map(|r| r.key).collect::<Vec<_>>(), vec![9, 7]);
    }

    #[test]
    fn spec_stream_applies_offset_and_limit() {
        let spec = SortSpec::ascending(3).with_offset(2);
        let rows: Vec<Result<Row<u64>>> = (0..10).map(|k| Ok(Row::key_only(k))).collect();
        let got: Vec<u64> =
            SpecStream::new(rows.into_iter(), &spec).map(|r| r.unwrap().key).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn spec_stream_propagates_errors_in_skipped_region() {
        let spec = SortSpec::ascending(3).with_offset(5);
        let rows: Vec<Result<Row<u64>>> =
            vec![Ok(Row::key_only(1)), Err(Error::Corrupt("mid-skip".into()))];
        let mut s = SpecStream::new(rows.into_iter(), &spec);
        assert!(matches!(s.next(), Some(Err(Error::Corrupt(_)))));
        assert!(s.next().is_none());
    }

    #[test]
    fn spec_stream_short_input() {
        let spec = SortSpec::ascending(10).with_offset(3);
        let rows: Vec<Result<Row<u64>>> = (0..5).map(|k| Ok(Row::key_only(k))).collect();
        let got: Vec<u64> =
            SpecStream::new(rows.into_iter(), &spec).map(|r| r.unwrap().key).collect();
        assert_eq!(got, vec![3, 4]);
    }
}
