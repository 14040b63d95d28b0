//! `TopKServer`: N concurrent top-k queries over one memory pool and one
//! I/O pool.
//!
//! Every optimization below this layer makes *one* query fast; the
//! "millions of users" story needs many simultaneous queries that do not
//! trample each other. The server owns the two process-wide resources:
//!
//! * **One [`IoScheduler`]** shared by every admitted query, so the fleet's
//!   background I/O threads stay at `io_threads` instead of `4 × N` (the
//!   scheduler's priority classes and per-backend gates, built in
//!   DESIGN.md §9, finally arbitrate *across* queries here).
//! * **One [`ServerBudget`]** carved into per-query [`BudgetLease`]s by the
//!   admission controller (see `admission.rs`): small in-memory queries
//!   admit immediately, spilling queries queue FIFO, and leases rebalance
//!   live at query finish and at the run-generation → merge phase
//!   boundary.
//!
//! [`BudgetLease`]: crate::admission::BudgetLease

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use histok_storage::{IoScheduler, StorageBackend};
use histok_types::{Result, SortKey};

use crate::admission::{AdmissionMetrics, ServerBudget};
use crate::query::{Algorithm, Query, QueryResult};

/// Tunables for [`TopKServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The global memory pool all queries lease from (the fleet-wide
    /// analogue of the paper's per-operator 1 GB allocation, §5.1.2).
    pub total_memory: usize,
    /// Background-I/O worker threads for the whole fleet: every admitted
    /// query's spills and read-ahead run on this one pool. `0` builds no
    /// shared pool, so each query runs as its own config says (a private
    /// pool of its `io_threads`, or inline I/O at 0).
    pub io_threads: usize,
    /// The smallest workspace a spilling query is admitted with; also the
    /// merge-phase reserve a lease shrinks to after run generation.
    pub min_lease: usize,
    /// Estimated in-memory footprint at or below which a query skips the
    /// admission queue entirely.
    pub small_query_bytes: usize,
    /// Assumed bytes per retained row when estimating whether a query fits
    /// in memory (row struct + payload + bookkeeping).
    pub row_bytes_hint: usize,
    /// Assumed bytes per retained *group* for dedup/aggregate queries:
    /// in-sort folding keeps one fixed-width accumulator per distinct key
    /// instead of an arbitrary payload, so folded queries sit lighter in
    /// memory than the general hint suggests (DESIGN.md §14).
    pub folded_row_bytes_hint: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            total_memory: 64 * 1024 * 1024,
            io_threads: 4,
            min_lease: 1024 * 1024,
            small_query_bytes: 256 * 1024,
            row_bytes_hint: 64,
            folded_row_bytes_hint: 32,
        }
    }
}

/// Fleet-wide execution counters; snapshot via
/// [`TopKServer::fleet_metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetMetrics {
    /// Queries completed (successfully or not).
    pub queries: u64,
    /// High-water mark of queries executing at once.
    pub peak_concurrent: usize,
    /// Aggregate bytes the fleet spilled to storage.
    pub spilled_bytes: u64,
    /// Aggregate rows returned to clients.
    pub rows_out: u64,
    /// Admission-controller counters (grants, rebalances, queue waits).
    pub admission: AdmissionMetrics,
}

/// A shared execution layer: admits concurrent [`Query`]s against one
/// global memory budget and one background-I/O pool.
///
/// `execute` is `&self` and thread-safe — call it from as many threads as
/// you have clients.
#[derive(Debug)]
pub struct TopKServer {
    config: ServerConfig,
    scheduler: Option<IoScheduler>,
    budget: ServerBudget,
    running: AtomicUsize,
    peak_running: AtomicUsize,
    queries: AtomicU64,
    spilled_bytes: AtomicU64,
    rows_out: AtomicU64,
}

impl TopKServer {
    /// Builds a server owning `config.total_memory` bytes of lease pool
    /// and (unless `io_threads == 0`) one shared I/O worker pool.
    pub fn new(config: ServerConfig) -> Self {
        let scheduler = (config.io_threads > 0).then(|| IoScheduler::new(config.io_threads));
        let budget = ServerBudget::new(config.total_memory);
        TopKServer {
            config,
            scheduler,
            budget,
            running: AtomicUsize::new(0),
            peak_running: AtomicUsize::new(0),
            queries: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
        }
    }

    /// The shared background-I/O pool (None when `io_threads == 0`).
    pub fn scheduler(&self) -> Option<&IoScheduler> {
        self.scheduler.as_ref()
    }

    /// The global lease pool.
    pub fn budget(&self) -> &ServerBudget {
        &self.budget
    }

    /// Fleet counters so far.
    pub fn fleet_metrics(&self) -> FleetMetrics {
        FleetMetrics {
            queries: self.queries.load(Ordering::Relaxed),
            peak_concurrent: self.peak_running.load(Ordering::Relaxed),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            admission: self.budget.metrics(),
        }
    }

    /// Estimated bytes the query's retained top-k occupies in memory.
    /// Folded (dedup/aggregate) queries retain one accumulator per
    /// distinct group, priced at the smaller
    /// [`ServerConfig::folded_row_bytes_hint`].
    fn estimated_footprint<K: SortKey>(&self, query: &Query<K>) -> usize {
        let retained = query.spec().retained().max(1);
        let hint = if query.config_ref().fold_op().is_some() {
            self.config.folded_row_bytes_hint
        } else {
            self.config.row_bytes_hint
        };
        (retained as usize).saturating_mul(hint.max(1))
    }

    /// Admits and executes one query, blocking until its lease is granted
    /// and the result is materialized.
    ///
    /// Admission policy: a query whose estimated retained footprint fits
    /// [`ServerConfig::small_query_bytes`] — or that cannot spill at all —
    /// is granted immediately; anything larger queues FIFO for a lease
    /// between [`ServerConfig::min_lease`] and its configured
    /// `memory_budget`. After run generation completes (the `open` phase
    /// boundary), the lease shrinks back to the merge reserve so queued
    /// siblings start sooner.
    pub fn execute<K: SortKey>(
        &self,
        mut query: Query<K>,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<QueryResult<K>> {
        let est = self.estimated_footprint(&query);
        let desired = query.config_ref().memory_budget;
        let in_memory_only = matches!(query.algorithm_kind(), Algorithm::InMemory);
        let lease = if in_memory_only || est <= self.config.small_query_bytes {
            self.budget.admit_small(est.min(desired.max(1)))
        } else {
            self.budget.admit(desired, self.config.min_lease)
        };
        let queued = lease.queued();

        {
            let config = query.config_mut();
            if let Some(scheduler) = &self.scheduler {
                config.io_scheduler_handle = Some(scheduler.clone());
            }
            config.budget_lease = Some(lease.handle().clone());
        }

        let running = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_running.fetch_max(running, Ordering::SeqCst);
        let merge_reserve = self.config.min_lease.min(lease.granted());
        let result = query.execute_with_phase_hook(backend, |_metrics| {
            // Run generation is done and the workspace flushed; keep only
            // a merge reserve and hand the rest back to the pool.
            lease.downsize(merge_reserve);
        });
        self.running.fetch_sub(1, Ordering::SeqCst);
        drop(lease);

        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut result = result?;
        result.queued = queued;
        result.metrics.queued_ns = queued.as_nanos() as u64;
        self.spilled_bytes.fetch_add(result.metrics.io.bytes_written, Ordering::Relaxed);
        self.rows_out.fetch_add(result.rows.len() as u64, Ordering::Relaxed);
        Ok(result)
    }
}

/// A client's connection to the server: one shared storage backend, many
/// queries. Sessions are cheap; open one per client thread.
pub struct Session<'a> {
    server: &'a TopKServer,
    backend: Arc<dyn StorageBackend>,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

impl TopKServer {
    /// Opens a session executing queries against `backend`.
    pub fn session(&self, backend: Arc<dyn StorageBackend>) -> Session<'_> {
        Session { server: self, backend }
    }
}

impl Session<'_> {
    /// Admits and executes one query through the owning server.
    pub fn execute<K: SortKey>(&self, query: Query<K>) -> Result<QueryResult<K>> {
        self.server.execute(query, self.backend.clone())
    }

    /// The server this session talks to.
    pub fn server(&self) -> &TopKServer {
        self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_core::TopKConfig;
    use histok_storage::MemoryBackend;
    use histok_types::SortSpec;
    use histok_workload::Workload;

    fn small_server() -> TopKServer {
        TopKServer::new(ServerConfig {
            total_memory: 64 * 1024,
            io_threads: 2,
            min_lease: 4 * 1024,
            small_query_bytes: 2 * 1024,
            row_bytes_hint: 64,
            folded_row_bytes_hint: 32,
        })
    }

    fn query(rows: u64, k: u64, seed: u64, budget: usize) -> Query<histok_types::F64Key> {
        Query::scan(Workload::uniform(rows, seed).rows(), SortSpec::ascending(k))
            .config(TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap())
    }

    #[test]
    fn server_results_match_standalone_execution() {
        let server = small_server();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        for (rows, k) in [(3_000, 10u64), (20_000, 800)] {
            let standalone = query(rows, k, 42, 16 * 1024).execute(MemoryBackend::new()).unwrap();
            let served = server.execute(query(rows, k, 42, 16 * 1024), backend.clone()).unwrap();
            let a: Vec<f64> = standalone.rows.iter().map(|r| r.key.get()).collect();
            let b: Vec<f64> = served.rows.iter().map(|r| r.key.get()).collect();
            assert_eq!(a, b, "rows={rows} k={k}");
        }
        let fleet = server.fleet_metrics();
        assert_eq!(fleet.queries, 2);
        assert_eq!(fleet.admission.grants, 2);
        assert!(fleet.admission.admitted_immediately >= 1, "small k=10 query takes the fast path");
        assert!(fleet.spilled_bytes > 0, "the k=800 query under a 16 KiB lease must spill");
    }

    #[test]
    fn concurrent_queries_share_the_pool_and_all_finish() {
        let server = Arc::new(small_server());
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let server = server.clone();
                let backend = backend.clone();
                std::thread::spawn(move || {
                    let k = if i % 2 == 0 { 5 } else { 400 };
                    let q = query(10_000, k, 100 + i, 16 * 1024);
                    let expected =
                        Workload::uniform(10_000, 100 + i).expected_top_k(k as usize, true);
                    let result = server.execute(q, backend).unwrap();
                    let got: Vec<f64> = result.rows.iter().map(|r| r.key.get()).collect();
                    assert_eq!(got, expected, "query {i} diverged under concurrency");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let fleet = server.fleet_metrics();
        assert_eq!(fleet.queries, 8);
        assert!(fleet.peak_concurrent >= 2, "queries must actually overlap");
        assert_eq!(server.budget().available(), server.budget().total(), "all leases returned");
        assert_eq!(server.budget().queue_len(), 0);
    }

    #[test]
    fn folded_queries_estimate_smaller_and_take_the_fast_path() {
        // retained = 48: plain estimate 48 × 64 = 3 KiB (queued), dedup
        // estimate 48 × 32 = 1.5 KiB (immediate small-query admission).
        let server = small_server();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        server.execute(query(5_000, 48, 9, 16 * 1024), backend.clone()).unwrap();
        let fleet = server.fleet_metrics();
        assert_eq!(fleet.admission.queued_queries, 1, "plain query must queue for a lease");
        let dedup_cfg = TopKConfig::builder()
            .memory_budget(16 * 1024)
            .block_bytes(1024)
            .dedup(true)
            .build()
            .unwrap();
        let q = Query::scan(Workload::uniform(5_000, 9).rows(), SortSpec::ascending(48))
            .config(dedup_cfg);
        let result = server.execute(q, backend).unwrap();
        assert_eq!(result.rows.len(), 48);
        let fleet = server.fleet_metrics();
        assert_eq!(fleet.admission.queued_queries, 1, "folded query skips the queue");
        assert!(fleet.admission.admitted_immediately >= 1);
    }

    #[test]
    fn queued_time_reaches_result_and_metrics() {
        let server = small_server();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
        let result = server.execute(query(20_000, 800, 7, 16 * 1024), backend).unwrap();
        // Uncontended: admission still records a (possibly zero) wait and
        // the JSON-visible metric mirrors the result field.
        assert_eq!(result.queued.as_nanos() as u64, result.metrics.queued_ns);
        let fleet = server.fleet_metrics();
        assert_eq!(fleet.admission.queued_queries, 1);
        assert_eq!(fleet.rows_out, 800);
    }
}
