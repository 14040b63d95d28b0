//! Run bookkeeping for one operator.
//!
//! A [`RunCatalog`] owns the set of live runs an operator has spilled:
//! it hands out unique object names, records finished [`RunMeta`]s, and
//! deletes every object when dropped — the cleanup a query engine performs
//! when an operator closes. It is also the one place that decides how a
//! run's bytes move: on its I/O pool when it has one, inline otherwise.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use histok_types::{Result, SortKey, SortOrder};

use crate::backend::StorageBackend;
use crate::run::{KeyRange, RunMeta, RunReader, RunWriter};
use crate::scheduler::{IoScheduler, IoSchedulerHandle};
use crate::stats::IoStats;

/// Tracks the sorted runs one operator has written.
pub struct RunCatalog<K: SortKey> {
    backend: Arc<dyn StorageBackend>,
    prefix: String,
    next_id: AtomicU64,
    runs: Mutex<Vec<RunMeta<K>>>,
    stats: IoStats,
    order: SortOrder,
    block_bytes: AtomicUsize,
    /// When set, spill writes and merge read-ahead of this catalog's runs
    /// run on this shared pool (gated on this catalog's backend); when
    /// not, both move inline on the calling thread.
    io_scheduler: Mutex<Option<IoSchedulerHandle>>,
}

/// Process-global counter backing [`RunCatalog::unique_prefix`].
static PREFIX_COUNTER: AtomicU64 = AtomicU64::new(0);

impl<K: SortKey> RunCatalog<K> {
    /// Returns `{base}-{n}` with a process-unique `n`, so several catalogs
    /// (operators, worker threads, groups) can share one backend without
    /// object-name collisions.
    pub fn unique_prefix(base: &str) -> String {
        format!("{base}-{}", PREFIX_COUNTER.fetch_add(1, Ordering::Relaxed))
    }

    /// Creates a catalog writing runs named `{prefix}-{n}` on `backend`,
    /// inline until [`RunCatalog::set_io_scheduler`] gives it a pool.
    pub fn new(
        backend: Arc<dyn StorageBackend>,
        prefix: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
    ) -> Self {
        RunCatalog {
            backend,
            prefix: prefix.into(),
            next_id: AtomicU64::new(0),
            runs: Mutex::new(Vec::new()),
            stats,
            order,
            block_bytes: AtomicUsize::new(crate::run::DEFAULT_BLOCK_BYTES),
            io_scheduler: Mutex::new(None),
        }
    }

    /// Overrides the block payload target for new runs.
    pub fn with_block_bytes(self, bytes: usize) -> Self {
        self.set_block_bytes(bytes);
        self
    }

    /// Sets the block payload target for runs started after this call.
    /// Interior-mutable so owners holding the catalog behind an `Arc` can
    /// still apply config knobs.
    pub fn set_block_bytes(&self, bytes: usize) {
        self.block_bytes.store(bytes.max(1), Ordering::Relaxed);
    }

    /// The current block payload target.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes.load(Ordering::Relaxed)
    }

    /// Moves the bytes of runs started or opened after this call through
    /// `scheduler`'s shared worker pool (see [`crate::pipeline`]); `None`
    /// moves them inline on the calling thread.
    pub fn with_io_scheduler(self, scheduler: Option<IoScheduler>) -> Self {
        self.set_io_scheduler(scheduler);
        self
    }

    /// Interior-mutable setter for the spill I/O scheduler; see
    /// [`RunCatalog::with_io_scheduler`].
    pub fn set_io_scheduler(&self, scheduler: Option<IoScheduler>) {
        *self.io_scheduler.lock() = scheduler.map(|s| s.for_backend(&self.backend));
    }

    /// The pool handle this catalog's runs move their bytes on, if any:
    /// spill writes of new runs, and read-ahead of the merge sources
    /// opened over them.
    pub fn io_scheduler(&self) -> Option<IoSchedulerHandle> {
        self.io_scheduler.lock().clone()
    }

    /// Starts a new run; call [`RunCatalog::register`] with the meta
    /// returned by `RunWriter::finish`.
    pub fn start_run(&self) -> Result<RunWriter<K>> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}-{:06}", self.prefix, id);
        RunWriter::with_io(
            self.backend.as_ref(),
            name,
            self.order,
            self.stats.clone(),
            self.block_bytes(),
            self.io_scheduler(),
        )
    }

    /// Records a finished run. Empty runs are deleted instead of recorded.
    pub fn register(&self, meta: RunMeta<K>) -> Result<()> {
        if meta.is_empty() {
            self.backend.delete(&meta.name)?;
            return Ok(());
        }
        self.runs.lock().push(meta);
        Ok(())
    }

    /// Opens a reader over a registered run.
    pub fn open(&self, meta: &RunMeta<K>) -> Result<RunReader<K>> {
        RunReader::open(self.backend.as_ref(), meta, self.stats.clone())
    }

    /// Opens a reader scoped to the rows of `meta` inside `range`,
    /// skipping out-of-range blocks via the per-block key index (see
    /// [`RunReader::open_range`]).
    pub fn open_range(&self, meta: &RunMeta<K>, range: KeyRange<K>) -> Result<RunReader<K>> {
        RunReader::open_range(self.backend.as_ref(), meta, self.stats.clone(), range)
    }

    /// Snapshot of all registered runs, in creation order.
    pub fn runs(&self) -> Vec<RunMeta<K>> {
        self.runs.lock().clone()
    }

    /// Number of registered runs.
    pub fn len(&self) -> usize {
        self.runs.lock().len()
    }

    /// True if no runs are registered.
    pub fn is_empty(&self) -> bool {
        self.runs.lock().is_empty()
    }

    /// Removes a run from the catalog and deletes its object (after a merge
    /// has consumed it).
    pub fn remove(&self, name: &str) -> Result<()> {
        self.runs.lock().retain(|m| m.name != name);
        self.backend.delete(name)
    }

    /// Replaces the whole run set (after a merge rewrote the runs).
    pub fn replace_all(&self, new_runs: Vec<RunMeta<K>>) -> Result<()> {
        let old = std::mem::replace(&mut *self.runs.lock(), new_runs);
        let kept: Vec<String> = self.runs.lock().iter().map(|m| m.name.clone()).collect();
        for meta in old {
            if !kept.contains(&meta.name) {
                self.backend.delete(&meta.name)?;
            }
        }
        Ok(())
    }

    /// The shared I/O stats for this catalog.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The storage backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Sort direction of the catalog's runs.
    pub fn order(&self) -> SortOrder {
        self.order
    }
}

impl<K: SortKey> Drop for RunCatalog<K> {
    fn drop(&mut self) {
        for meta in self.runs.lock().drain(..) {
            let _ = self.backend.delete(&meta.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use histok_types::Row;

    fn catalog(be: &MemoryBackend) -> RunCatalog<u64> {
        RunCatalog::new(Arc::new(be.clone()), "t", SortOrder::Ascending, IoStats::new())
    }

    #[test]
    fn start_register_read_cycle() {
        let be = MemoryBackend::new();
        let cat = catalog(&be);
        let mut w = cat.start_run().unwrap();
        for k in [3u64, 5, 9] {
            w.append(&Row::key_only(k)).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
        assert_eq!(cat.len(), 1);
        let meta = &cat.runs()[0];
        let keys: Vec<u64> = cat.open(meta).unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(keys, vec![3, 5, 9]);
    }

    #[test]
    fn names_are_unique() {
        let be = MemoryBackend::new();
        let cat = catalog(&be);
        let w1 = cat.start_run().unwrap();
        let w2 = cat.start_run().unwrap();
        let m1 = w1.finish().unwrap();
        let m2 = w2.finish().unwrap();
        assert_ne!(m1.name, m2.name);
    }

    #[test]
    fn empty_runs_are_dropped_on_register() {
        let be = MemoryBackend::new();
        let cat = catalog(&be);
        let w = cat.start_run().unwrap();
        cat.register(w.finish().unwrap()).unwrap();
        assert!(cat.is_empty());
        assert_eq!(be.object_count(), 0);
    }

    #[test]
    fn drop_deletes_objects() {
        let be = MemoryBackend::new();
        {
            let cat = catalog(&be);
            let mut w = cat.start_run().unwrap();
            w.append(&Row::key_only(1u64)).unwrap();
            cat.register(w.finish().unwrap()).unwrap();
            assert_eq!(be.object_count(), 1);
        }
        assert_eq!(be.object_count(), 0);
    }

    #[test]
    fn remove_deletes_object() {
        let be = MemoryBackend::new();
        let cat = catalog(&be);
        let mut w = cat.start_run().unwrap();
        w.append(&Row::key_only(1u64)).unwrap();
        let meta = w.finish().unwrap();
        let name = meta.name.clone();
        cat.register(meta).unwrap();
        cat.remove(&name).unwrap();
        assert!(cat.is_empty());
        assert_eq!(be.object_count(), 0);
    }

    #[test]
    fn replace_all_deletes_stale_objects() {
        let be = MemoryBackend::new();
        let cat = catalog(&be);
        for _ in 0..3 {
            let mut w = cat.start_run().unwrap();
            w.append(&Row::key_only(1u64)).unwrap();
            cat.register(w.finish().unwrap()).unwrap();
        }
        let keep = cat.runs()[2].clone();
        cat.replace_all(vec![keep.clone()]).unwrap();
        assert_eq!(cat.len(), 1);
        assert_eq!(be.object_count(), 1);
        assert_eq!(cat.runs()[0].name, keep.name);
    }
}
