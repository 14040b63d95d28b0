//! Regression tests for background-I/O thread fan-out: a grouped query
//! over G groups and a many-query `TopKServer` fleet must both peak at
//! ≤ `io_threads` background threads, not `4 × G` / `4 × N`, and a query
//! with `io_threads = 0` at none.
//!
//! `ThreadCensus` is process-global, so the tests serialize through one
//! mutex and reset the peak while holding it. This file must not
//! gain tests that spawn I/O pools without taking the same lock.

use std::sync::{Arc, Mutex, OnceLock};

use histok_core::{GroupedTopK, TopKConfig};
use histok_exec::{Query, ServerConfig, TopKServer};
use histok_storage::{MemoryBackend, StorageBackend, ThreadCensus};
use histok_types::{Row, SortSpec};
use histok_workload::Workload;

fn census_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[test]
fn grouped_query_shares_one_pool_across_groups() {
    let _serial = census_lock().lock().unwrap();
    assert_eq!(ThreadCensus::current(), 0, "no stray pools before the test");
    ThreadCensus::reset_peak();

    const GROUPS: u32 = 8;
    const IO_THREADS: usize = 2;
    let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
    // ~40 rows of budget per group with k = 100: every group spills, so
    // every group's spills and read-ahead want the pool.
    let config = TopKConfig::builder()
        .memory_budget(40 * row_bytes)
        .block_bytes(1024)
        .io_threads(IO_THREADS)
        .build()
        .unwrap();
    let mut op: GroupedTopK<u32, u64> =
        GroupedTopK::new(SortSpec::ascending(100), config, MemoryBackend::new()).unwrap();
    for g in 0..GROUPS {
        for k in 0..2_000u64 {
            op.push(g, Row::key_only(k)).unwrap();
        }
    }
    let out = op.finish().unwrap();
    assert_eq!(out.len(), GROUPS as usize);

    let peak = ThreadCensus::peak();
    assert!(
        peak <= IO_THREADS,
        "grouped query over {GROUPS} groups peaked at {peak} background \
         threads; the shared pool caps it at io_threads = {IO_THREADS}"
    );
    assert!(peak > 0, "spilling groups must actually use the pool");
    drop(op);
    assert_eq!(ThreadCensus::current(), 0, "pool threads exit with the operator");
}

#[test]
fn server_fleet_shares_one_pool_across_queries() {
    let _serial = census_lock().lock().unwrap();
    assert_eq!(ThreadCensus::current(), 0, "no stray pools before the test");
    ThreadCensus::reset_peak();

    const QUERIES: u64 = 64;
    const IO_THREADS: usize = 2;
    let server = Arc::new(TopKServer::new(ServerConfig {
        total_memory: 256 * 1024,
        io_threads: IO_THREADS,
        min_lease: 4 * 1024,
        small_query_bytes: 2 * 1024,
        row_bytes_hint: 64,
        folded_row_bytes_hint: 32,
    }));
    let backend: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
    let handles: Vec<_> = (0..QUERIES)
        .map(|i| {
            let server = server.clone();
            let backend = backend.clone();
            std::thread::spawn(move || {
                // Mix of in-memory (k = 5) and spilling (k = 300) queries.
                let k = if i % 2 == 0 { 5 } else { 300 };
                let config = TopKConfig::builder()
                    .memory_budget(16 * 1024)
                    .block_bytes(1024)
                    .build()
                    .unwrap();
                let query: Query<histok_types::F64Key> =
                    Query::scan(Workload::uniform(4_000, i).rows(), SortSpec::ascending(k))
                        .config(config);
                let result = server.execute(query, backend).unwrap();
                assert_eq!(result.rows.len(), k as usize);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let fleet = server.fleet_metrics();
    assert_eq!(fleet.queries, QUERIES);
    assert!(fleet.spilled_bytes > 0, "the k = 300 queries must spill");
    let peak = ThreadCensus::peak();
    assert!(
        peak <= IO_THREADS,
        "{QUERIES}-query fleet peaked at {peak} background threads; the \
         server's shared pool caps it at io_threads = {IO_THREADS}"
    );
    assert!(peak > 0, "spilling queries must actually use the pool");
    drop(server);
    assert_eq!(ThreadCensus::current(), 0, "pool threads exit with the server");
}

#[test]
fn inline_query_spills_without_a_background_thread() {
    let _serial = census_lock().lock().unwrap();
    assert_eq!(ThreadCensus::current(), 0, "no stray pools before the test");
    ThreadCensus::reset_peak();

    let config = TopKConfig::builder()
        .memory_budget(16 * 1024)
        .block_bytes(1024)
        .io_threads(0)
        .build()
        .unwrap();
    let query: Query<histok_types::F64Key> =
        Query::scan(Workload::uniform(20_000, 7).rows(), SortSpec::ascending(2_000)).config(config);
    let result = query.execute(MemoryBackend::new()).unwrap();
    assert_eq!(result.rows.len(), 2_000);
    assert!(result.metrics.io.bytes_written > 0, "the query must spill");
    assert!(result.metrics.io.bytes_read > 0, "and read its runs back");
    assert_eq!(ThreadCensus::peak(), 0, "inline I/O must not start a background thread");
}
