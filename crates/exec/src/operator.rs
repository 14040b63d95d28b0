//! The pull-based operator interface and the built-in operators.

use histok_core::{OperatorMetrics, RowStream, TopKOperator};
use histok_types::{Error, Result, Row, SortKey};

/// Rows `TopKExec` pulls from its child per `next_batch` call. 256 rows of
/// `Row<F64Key>` are 8 KiB: one virtual call per batch instead of three per
/// row, for under 2 % of the smallest benchmark query's peak memory. A
/// constant, not a knob: larger batches measured no further gain.
const SCAN_BATCH_ROWS: usize = 256;

/// A volcano-style operator: `open`, then `next` or `next_batch` until end
/// of stream, then `close`. Blocking consumers (the top-k) pull batches, so
/// the input path costs one virtual call per batch; `next` serves row-wise
/// consumers of an operator's output.
pub trait Operator<K: SortKey>: Send {
    /// Prepares the operator (and its children) for execution.
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    /// Produces the next row, or `None` at end of stream.
    fn next(&mut self) -> Result<Option<Row<K>>>;

    /// Appends up to `max` rows to `out`, in stream order. Fewer than `max`
    /// rows appended means end of stream. `next` and `next_batch` may be
    /// interleaved.
    fn next_batch(&mut self, out: &mut Vec<Row<K>>, max: usize) -> Result<()> {
        for _ in 0..max {
            match self.next()? {
                Some(row) => out.push(row),
                None => break,
            }
        }
        Ok(())
    }

    /// Releases resources.
    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    /// Operator name for plan displays.
    fn name(&self) -> &'static str;
}

/// Appends up to `max` source rows to a batch.
type Fill<K> = Box<dyn FnMut(&mut Vec<Row<K>>, usize) + Send>;

/// Leaf operator producing rows from any iterator (a table scan, a
/// workload generator, a test vector).
pub struct ScanOp<K: SortKey> {
    /// The one path to the source: built where the iterator's concrete
    /// type is known, so a batch costs one virtual call and the per-row
    /// `Iterator::next` inlines into the loop.
    fill: Fill<K>,
    /// Scratch batch `next` pulls its single row through.
    one: Vec<Row<K>>,
    produced: u64,
}

impl<K: SortKey> ScanOp<K> {
    /// Wraps an iterator as a scan.
    pub fn new(mut source: impl Iterator<Item = Row<K>> + Send + 'static) -> Self {
        let fill: Fill<K> = Box::new(move |out, max| out.extend(source.by_ref().take(max)));
        ScanOp { fill, one: Vec::with_capacity(1), produced: 0 }
    }

    /// Rows produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

impl<K: SortKey> Operator<K> for ScanOp<K> {
    fn next(&mut self) -> Result<Option<Row<K>>> {
        (self.fill)(&mut self.one, 1);
        let row = self.one.pop();
        self.produced += u64::from(row.is_some());
        Ok(row)
    }

    fn next_batch(&mut self, out: &mut Vec<Row<K>>, max: usize) -> Result<()> {
        let before = out.len();
        (self.fill)(out, max);
        self.produced += (out.len() - before) as u64;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "Scan"
    }
}

/// Boxed row predicate.
type Predicate<K> = Box<dyn FnMut(&Row<K>) -> bool + Send>;

/// A predicate filter on the sort key (the WHERE clause of the paper's
/// example queries).
pub struct FilterOp<K: SortKey> {
    child: Box<dyn Operator<K>>,
    predicate: Predicate<K>,
}

impl<K: SortKey> FilterOp<K> {
    /// Filters `child` by `predicate`.
    pub fn new(
        child: Box<dyn Operator<K>>,
        predicate: impl FnMut(&Row<K>) -> bool + Send + 'static,
    ) -> Self {
        FilterOp { child, predicate: Box::new(predicate) }
    }
}

impl<K: SortKey> Operator<K> for FilterOp<K> {
    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Row<K>>> {
        while let Some(row) = self.child.next()? {
            if (self.predicate)(&row) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn next_batch(&mut self, out: &mut Vec<Row<K>>, max: usize) -> Result<()> {
        let target = out.len() + max;
        while out.len() < target {
            let (start, want) = (out.len(), target - out.len());
            self.child.next_batch(out, want)?;
            let ended = out.len() - start < want;
            // Filter the new tail in place, keeping order.
            let mut kept = start;
            for i in start..out.len() {
                if (self.predicate)(&out[i]) {
                    out.swap(kept, i);
                    kept += 1;
                }
            }
            out.truncate(kept);
            if ended {
                break;
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }

    fn name(&self) -> &'static str {
        "Filter"
    }
}

/// A plain `LIMIT n` node (useful above a top-k when a consumer wants
/// fewer rows than the operator produced, e.g. a preview pane).
pub struct LimitOp<K: SortKey> {
    child: Box<dyn Operator<K>>,
    remaining: u64,
}

impl<K: SortKey> LimitOp<K> {
    /// Caps `child` at `limit` rows.
    pub fn new(child: Box<dyn Operator<K>>, limit: u64) -> Self {
        LimitOp { child, remaining: limit }
    }
}

impl<K: SortKey> Operator<K> for LimitOp<K> {
    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Row<K>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.child.next()? {
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row<K>>, max: usize) -> Result<()> {
        // Never pulls past the limit: the child is asked for no more rows
        // than may still be emitted.
        let want = max.min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let before = out.len();
        self.child.next_batch(out, want)?;
        let got = out.len() - before;
        self.remaining = if got < want { 0 } else { self.remaining - got as u64 };
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }

    fn name(&self) -> &'static str {
        "Limit"
    }
}

/// The top-k operator node: a blocking operator that drains its child into
/// any [`TopKOperator`] on `open`, then streams the result.
pub struct TopKExec<K: SortKey> {
    child: Box<dyn Operator<K>>,
    topk: Box<dyn TopKOperator<K>>,
    output: Option<RowStream<K>>,
    metrics: Option<OperatorMetrics>,
}

impl<K: SortKey> TopKExec<K> {
    /// Plans `topk` over `child`.
    pub fn new(child: Box<dyn Operator<K>>, topk: Box<dyn TopKOperator<K>>) -> Self {
        TopKExec { child, topk, output: None, metrics: None }
    }

    /// The wrapped algorithm's metrics. Live until `close`; the snapshot
    /// cached at `close` afterwards. Final-merge reads happen while the
    /// output streams, so only the post-`close` view includes the full
    /// merge-phase I/O and timing.
    pub fn metrics(&self) -> OperatorMetrics {
        self.metrics.clone().unwrap_or_else(|| self.topk.metrics())
    }

    /// The wrapped algorithm's name.
    pub fn algorithm(&self) -> &'static str {
        self.topk.algorithm()
    }

    /// Feeds the whole child stream to the algorithm, one reused batch at a
    /// time.
    fn drain_child(&mut self) -> Result<()> {
        let mut batch = Vec::with_capacity(SCAN_BATCH_ROWS);
        loop {
            self.child.next_batch(&mut batch, SCAN_BATCH_ROWS)?;
            let ended = batch.len() < SCAN_BATCH_ROWS;
            self.topk.push_batch(&mut batch)?;
            if ended {
                return Ok(());
            }
        }
    }

    /// The first half of `open`: feeds the whole child stream to the
    /// algorithm (run generation) and closes the child.
    pub(crate) fn consume(&mut self) -> Result<()> {
        // The child is closed on every exit path; the first error wins.
        let drained = self.child.open().and_then(|()| self.drain_child());
        let closed = self.child.close();
        drained.and(closed)
    }

    /// The second half of `open`: ends the input and opens the output
    /// stream (the algorithm's last spill, intermediate merges and the
    /// start of its final merge).
    pub(crate) fn finish(&mut self) -> Result<()> {
        self.output = Some(self.topk.finish()?);
        Ok(())
    }
}

impl<K: SortKey> Operator<K> for TopKExec<K> {
    fn open(&mut self) -> Result<()> {
        self.consume()?;
        self.finish()
    }

    fn next(&mut self) -> Result<Option<Row<K>>> {
        let stream = self
            .output
            .as_mut()
            .ok_or_else(|| Error::InvalidConfig("TopKExec::next before open".into()))?;
        stream.next().transpose()
    }

    fn close(&mut self) -> Result<()> {
        // Drop the stream first: its drop guard books the merge-phase time
        // into the operator before the snapshot below.
        self.output = None;
        self.metrics = Some(self.topk.metrics());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "TopK"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_core::{HistogramTopK, TopKConfig};
    use histok_storage::{FaultBackend, FaultPlan, MemoryBackend, StorageBackend};
    use histok_types::SortSpec;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn scan_of(keys: Vec<u64>) -> Box<dyn Operator<u64>> {
        Box::new(ScanOp::new(keys.into_iter().map(Row::key_only)))
    }

    /// What a [`Probe`] saw, readable after the probe was boxed into a plan.
    #[derive(Default)]
    struct Seen {
        next: AtomicU64,
        next_batch: AtomicU64,
        close: AtomicU64,
        /// `ScanOp::produced()` of the wrapped scan, as of the last call.
        produced: AtomicU64,
    }

    /// A scan of `0..n` that records every call made to it.
    struct Probe {
        scan: ScanOp<u64>,
        seen: Arc<Seen>,
        /// Fail `next_batch` once this many rows were produced.
        fail_after: Option<u64>,
    }

    fn probe(n: u64) -> (Probe, Arc<Seen>) {
        let seen = Arc::new(Seen::default());
        let scan = ScanOp::new((0..n).map(Row::key_only));
        (Probe { scan, seen: seen.clone(), fail_after: None }, seen)
    }

    impl Operator<u64> for Probe {
        fn next(&mut self) -> Result<Option<Row<u64>>> {
            self.seen.next.fetch_add(1, Ordering::Relaxed);
            let row = self.scan.next();
            self.seen.produced.store(self.scan.produced(), Ordering::Relaxed);
            row
        }

        fn next_batch(&mut self, out: &mut Vec<Row<u64>>, max: usize) -> Result<()> {
            self.seen.next_batch.fetch_add(1, Ordering::Relaxed);
            if self.fail_after.is_some_and(|n| self.scan.produced() >= n) {
                return Err(Error::Injected("probe".into()));
            }
            self.scan.next_batch(out, max)?;
            self.seen.produced.store(self.scan.produced(), Ordering::Relaxed);
            Ok(())
        }

        fn close(&mut self) -> Result<()> {
            self.seen.close.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        fn name(&self) -> &'static str {
            "Probe"
        }
    }

    fn histogram_topk(
        k: u64,
        budget: usize,
        backend: impl StorageBackend + 'static,
    ) -> Box<dyn TopKOperator<u64>> {
        let config = TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap();
        Box::new(HistogramTopK::new(SortSpec::ascending(k), config, backend).unwrap())
    }

    #[test]
    fn topk_exec_pulls_batches_only() {
        // ⌈n/256⌉ calls, plus the empty one that signals the end when n is
        // a multiple of the batch size; never a row-wise `next`.
        let b = SCAN_BATCH_ROWS as u64;
        for (n, calls) in [(0, 1), (1, 1), (b - 1, 1), (b, 2), (b + 1, 2), (3 * b, 4), (1000, 4)] {
            let (child, seen) = probe(n);
            let mut node =
                TopKExec::new(Box::new(child), histogram_topk(10, 1 << 20, MemoryBackend::new()));
            node.open().unwrap();
            assert_eq!(seen.next_batch.load(Ordering::Relaxed), calls, "n = {n}");
            assert_eq!(seen.next.load(Ordering::Relaxed), 0, "n = {n}");
            assert_eq!(seen.close.load(Ordering::Relaxed), 1, "n = {n}");
            assert_eq!(node.metrics().rows_in, n);
            let mut got = Vec::new();
            while let Some(row) = node.next().unwrap() {
                got.push(row.key);
            }
            assert_eq!(got, (0..n.min(10)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn topk_exec_closes_its_child_when_the_spill_fails() {
        // k = 500 rows against memory for 50: the first spill write hits
        // a backend that accepts no bytes.
        let plan = FaultPlan { fail_write_after_bytes: Some(0), ..FaultPlan::none() };
        let backend = FaultBackend::new(MemoryBackend::new(), plan);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (child, seen) = probe(20_000);
        let mut node =
            TopKExec::new(Box::new(child), histogram_topk(500, 50 * row_bytes, backend.clone()));
        assert!(matches!(node.open(), Err(Error::Injected(_))));
        assert!(backend.fault_fired());
        assert_eq!(seen.close.load(Ordering::Relaxed), 1, "child left open on a failed push");
        assert!(node.next().is_err(), "a failed open produces no output");
    }

    #[test]
    fn topk_exec_closes_its_child_when_the_child_fails() {
        let (mut child, seen) = probe(1000);
        child.fail_after = Some(512);
        let mut node =
            TopKExec::new(Box::new(child), histogram_topk(10, 1 << 20, MemoryBackend::new()));
        assert!(matches!(node.open(), Err(Error::Injected(_))));
        assert_eq!(seen.close.load(Ordering::Relaxed), 1, "child left open on a failed next_batch");
    }

    #[test]
    fn limit_batch_never_pulls_past_the_limit() {
        let (child, seen) = probe(10_000);
        let mut l = LimitOp::new(Box::new(child), 300);
        l.open().unwrap();
        let mut out = Vec::new();
        l.next_batch(&mut out, 256).unwrap();
        assert_eq!(out.len(), 256);
        l.next_batch(&mut out, 256).unwrap();
        assert_eq!(out.len(), 300, "short batch: the limit is the end of the stream");
        l.next_batch(&mut out, 256).unwrap();
        assert!(l.next().unwrap().is_none());
        assert_eq!(out.iter().map(|r| r.key).collect::<Vec<_>>(), (0..300).collect::<Vec<_>>());
        assert_eq!(seen.produced.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn filter_batch_keeps_order_and_fills_short_batches() {
        // One row in seven survives: a child batch of 10 yields one or two
        // rows, which must not read as the end of the stream.
        let mut f = FilterOp::new(scan_of((0..100).collect()), |row| row.key % 7 == 0);
        f.open().unwrap();
        let mut out = vec![Row::key_only(999)];
        f.next_batch(&mut out, 10).unwrap();
        assert_eq!(
            out.iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![999, 0, 7, 14, 21, 28, 35, 42, 49, 56, 63],
            "rows already in `out` stay; a full batch of survivors follows in order"
        );
        out.clear();
        f.next_batch(&mut out, 10).unwrap();
        assert_eq!(out.iter().map(|r| r.key).collect::<Vec<_>>(), vec![70, 77, 84, 91, 98]);
        out.clear();
        f.next_batch(&mut out, 10).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn scan_next_and_next_batch_interleave() {
        let mut scan = ScanOp::new((0..20u64).map(Row::key_only));
        let mut got = Vec::new();
        let mut batch = Vec::new();
        while let Some(row) = scan.next().unwrap() {
            got.push(row.key);
            scan.next_batch(&mut batch, 3).unwrap();
            got.extend(batch.drain(..).map(|r| r.key));
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(scan.produced(), 20);
    }

    #[test]
    fn scan_produces_all_rows() {
        let mut scan = ScanOp::new((0..5u64).map(Row::key_only));
        scan.open().unwrap();
        let mut got = Vec::new();
        while let Some(row) = scan.next().unwrap() {
            got.push(row.key);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(scan.produced(), 5);
        scan.close().unwrap();
    }

    #[test]
    fn filter_applies_predicate() {
        let mut f = FilterOp::new(scan_of((0..10).collect()), |row| row.key % 2 == 0);
        f.open().unwrap();
        let mut got = Vec::new();
        while let Some(row) = f.next().unwrap() {
            got.push(row.key);
        }
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn limit_caps_the_stream() {
        let mut l = LimitOp::new(scan_of((0..10).collect()), 3);
        l.open().unwrap();
        let mut got = Vec::new();
        while let Some(row) = l.next().unwrap() {
            got.push(row.key);
        }
        assert_eq!(got, vec![0, 1, 2]);
        // Fused after exhaustion.
        assert!(l.next().unwrap().is_none());
        l.close().unwrap();
    }

    #[test]
    fn limit_larger_than_input() {
        let mut l = LimitOp::new(scan_of(vec![1, 2]), 10);
        l.open().unwrap();
        let mut n = 0;
        while l.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn topk_exec_runs_the_operator() {
        let topk = HistogramTopK::new(
            SortSpec::ascending(3),
            TopKConfig::builder().memory_budget(1 << 20).build().unwrap(),
            MemoryBackend::new(),
        )
        .unwrap();
        let mut node = TopKExec::new(scan_of(vec![9, 2, 7, 4, 1]), Box::new(topk));
        assert!(node.next().is_err(), "next before open must fail");
        node.open().unwrap();
        let mut got = Vec::new();
        while let Some(row) = node.next().unwrap() {
            got.push(row.key);
        }
        assert_eq!(got, vec![1, 2, 4]);
        assert_eq!(node.metrics().rows_in, 5);
        assert_eq!(node.algorithm(), "histogram-topk");
        node.close().unwrap();
    }
}
