//! Regression tests for background-I/O thread fan-out: a grouped query
//! over G groups, a many-query `TopKServer` fleet and a spill storm's
//! cascade and partitioned final merge must all peak at ≤ `io_threads`
//! background threads, not `4 × G` / `4 × N`, and a query with
//! `io_threads = 0` at none.
//!
//! `ThreadCensus` is process-global, so the tests serialize through one
//! mutex and reset the peak while holding it. This file must not
//! gain tests that spawn I/O pools without taking the same lock.

use std::sync::{Arc, Mutex, OnceLock};

use histok_core::{GroupedTopK, TopKConfig};
use histok_exec::{Query, ServerConfig, TopKServer};
use histok_sort::FinalMerge;
use histok_storage::{
    IoScheduler, IoStats, MemoryBackend, RunCatalog, StorageBackend, ThreadCensus,
};
use histok_types::{BytesKey, F64Key, Row, SortOrder, SortSpec};
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
    // Mix of in-memory (k = 5) and spilling (k = 300) queries.
    let k_of = |i: u64| if i.is_multiple_of(2) { 5 } else { 300 };
    let query = move |i: u64| {
        let k = k_of(i);
        let config =
            TopKConfig::builder().memory_budget(16 * 1024).block_bytes(1024).build().unwrap();
        Query::<F64Key>::scan(Workload::uniform(4_000, i).rows(), SortSpec::ascending(k))
            .config(config)
    };
    let view = |rows: &[Row<F64Key>]| -> Vec<(F64Key, Vec<u8>)> {
        rows.iter().map(|r| (r.key, r.payload.to_vec())).collect()
    };
    let handles: Vec<_> = (0..QUERIES)
        .map(|i| {
            let server = server.clone();
            let backend = backend.clone();
            std::thread::spawn(move || server.execute(query(i), backend).unwrap().rows)
        })
        .collect();
    let shared: Vec<Vec<Row<F64Key>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

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

    // Each query, run alone on its own pool, returns the same rows.
    for (i, rows) in (0..QUERIES).zip(&shared) {
        let alone = query(i).execute(MemoryBackend::new()).unwrap().rows;
        assert_eq!(rows.len() as u64, k_of(i), "query {i}");
        assert!(view(rows) == view(&alone), "query {i} differs from its standalone run");
    }
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

/// A spill storm on a 4-worker pool: 128 runs merged at fan-in 16 (one
/// cascade pass of 8 merges, each holding 16 read-ahead sources and a
/// spill writer at once), then a final merge on 4 partitions. Every key
/// comes out once, in order, on at most `io_threads` background threads.
#[test]
fn spill_storm_merges_stay_on_the_pool() {
    let _serial = census_lock().lock().unwrap();
    assert_eq!(ThreadCensus::current(), 0, "no stray pools before the test");

    const RUNS: u64 = 128;
    // 8,192 rows in all, the fewest a final merge partitions.
    const ROWS_PER_RUN: u64 = 64;
    const IO_THREADS: usize = 4;
    let key = |k: u64| BytesKey::new(format!("storm-key-{k:012}"));
    let catalog = Arc::new(
        RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            RunCatalog::<BytesKey>::unique_prefix("storm"),
            SortOrder::Ascending,
            IoStats::new(),
        )
        .with_block_bytes(512)
        .with_io_scheduler(Some(IoScheduler::new(IO_THREADS))),
    );
    // Run r holds keys r, r + 128, r + 256, ...: every run spans every
    // key range, so no merge can shortcut.
    for r in 0..RUNS {
        let mut w = catalog.start_run().unwrap();
        for j in 0..ROWS_PER_RUN {
            w.append(&Row::key_only(key(j * RUNS + r))).unwrap();
        }
        catalog.finish_run(w).unwrap();
    }
    ThreadCensus::reset_peak();
    let merge = FinalMerge { fan_in: 16, threads: 4, ..FinalMerge::default() }
        .run(vec![(catalog.clone(), Vec::new())])
        .unwrap();
    assert_eq!(merge.cascade_stats().intermediate_merges, 8, "one cascade pass of 8 merges");
    assert!(merge.merge_partitions() >= 2, "the final merge did not partition");
    let got: Vec<BytesKey> = merge.map(|r| r.unwrap().key).collect();
    let want: Vec<BytesKey> = (0..RUNS * ROWS_PER_RUN).map(key).collect();
    assert!(got == want, "the storm returned {} rows, not every key once in order", got.len());

    let peak = ThreadCensus::peak();
    assert!(
        (1..=IO_THREADS).contains(&peak),
        "the storm peaked at {peak} background threads on a {IO_THREADS}-worker pool"
    );
    drop(catalog);
    assert_eq!(ThreadCensus::current(), 0, "pool threads exit with the catalog");
}
