//! `bench_smoke`: a fast release-mode sanity benchmark for the sort hot
//! path, suitable as a CI step.
//!
//! Runs the loser-tree merge and replacement-selection run generation over
//! fixed workloads twice — offset-value coding on and off — and records
//! wall-clock throughput plus the comparison counters (`ovc_cmps` /
//! `full_cmps`) for each. The result is written to `BENCH_<n>.json` (the
//! first unused index, or `$BENCH_INDEX`), so successive CI runs do not
//! overwrite history.
//!
//! The process exits non-zero if offset-value coding fails to cut the
//! loser-tree's *full* key comparisons by at least 2× on the byte-key
//! merge workload — the regression the counters exist to catch — if
//! OVC-on fails to match or beat OVC-off *wall-clock* on any merge case
//! (including plain u64 keys: comparison savings must not be bought with
//! slower duels), if the overlapped-I/O layer (spill pipeline + merge
//! read-ahead on the I/O pool) changes the output of a spill-heavy top-k
//! over a sleeping throttled backend against inline I/O (its walls and
//! wait/overlap split are reported, not gated: with four blocks per
//! request the inline side loses three of four round trips too, and the
//! ratio on a 2-core runner is noise — `bench_e2e`'s
//! `lineitem_k_large_remote` gates overlap end to end), if a 512-run spill
//! storm on a 4-worker pool loses or reorders a row or holds more than
//! four background I/O threads, or if the range-partitioned parallel
//! merge fails to beat the serial merge
//! by at least 1.5× wall-clock on a latency-dominated backend, or if the
//! 64-query `TopKServer`
//! fleet fails to beat serial one-at-a-time execution by at least 1.5×
//! aggregate throughput (with bounded p95 latency, byte-identical
//! per-query results, and ≤ `io_threads` background threads), or if
//! in-sort duplicate folding (DESIGN.md §14) fails to cut spilled bytes
//! by at least 5× on a Zipf(1.2) duplicate-heavy stream over throttled
//! storage versus deduplicating at the sort's output (with the folded
//! results byte-identical to the post-hoc oracle, dedup and grouped
//! COUNT alike).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use histok_core::{
    GroupedAggTopK, HistogramTopK, TopKConfig, TopKOperator, TraditionalExternalTopK,
};
use histok_exec::{Query, ServerConfig, TopKServer};
use histok_sort::run_gen::{ReplacementSelection, ResiduePolicy, RunGenerator};
use histok_sort::{
    merge_runs_partitioned, merge_sources_tuned, open_source, plan_merges_cascade,
    plan_merges_legacy, plan_merges_tuned, CascadeStats, CmpStats, IterSource, LoserTree,
    MergeConfig, MergePolicy, MergeTuning, NoopObserver, DEFAULT_BATCH_ROWS,
};
use histok_storage::{
    IoScheduler, IoSchedulerMetrics, IoStats, MemoryBackend, RunCatalog, StorageBackend,
    ThreadCensus, ThrottleModel, ThrottledBackend,
};
use histok_types::{
    decode_count, AggregateOp, BytesKey, F64Key, JsonValue, Result, Row, RowBatch, SortKey,
    SortOrder, SortSpec,
};
use histok_workload::{Distribution, Workload};

const MERGE_ROWS: u64 = 200_000;
const FAN_IN: u64 = 64;
const RUN_GEN_ROWS: u64 = 50_000;
const REQUIRED_REDUCTION: f64 = 2.0;
const OVERLAP_ROWS: u64 = 30_000;
const PARTITION_RUNS: u64 = 4;
const PARTITION_ROWS_PER_RUN: u64 = 8_000;
const PARTITION_THREADS: usize = 4;
const REQUIRED_PARTITION_SPEEDUP: f64 = 1.5;
const STORM_RUNS: u64 = 512;
const STORM_ROWS_PER_RUN: u64 = 400;
const STORM_FAN_IN: usize = 64;
const STORM_THREADS: usize = 4;
const STORM_IO_THREADS: usize = 4;
const CONC_QUERIES: u64 = 64;
const CONC_ROWS_PER_QUERY: u64 = 3_000;
const CONC_SMALL_K: u64 = 10;
const CONC_SPILL_K: u64 = 400;
const CONC_QUERY_BUDGET: usize = 16 * 1024;
const CONC_POOL_BYTES: usize = 256 * 1024;
const CONC_IO_THREADS: usize = 4;
const REQUIRED_CONC_SPEEDUP: f64 = 1.5;
/// p95 per-query latency (admission wait + execution) in the concurrent
/// fleet must stay under this fraction of the serial wall — concurrency
/// must not be bought by starving individual queries.
const CONC_P95_FRACTION: f64 = 0.75;
const CASCADE_RUNS: u64 = 512;
const CASCADE_ROWS_PER_RUN: u64 = 500;
const CASCADE_FAN_IN: usize = 64;
const CASCADE_WORKERS: usize = 4;
const REQUIRED_CASCADE_SPEEDUP: f64 = 1.4;
/// Zipf dedup workload (DESIGN.md §14): i.i.d. Zipf(s) ranks over a key
/// space much smaller than the row count, so duplicates dominate.
const ZIPF_ROWS: u64 = 60_000;
const ZIPF_DISTINCT: u64 = 2_000;
const ZIPF_S: f64 = 1.2;
/// Distinct groups the dedup query retains.
const ZIPF_K: u64 = 500;
/// Groups the COUNT-aggregate query ranks by group size.
const ZIPF_GROUP_K: u64 = 50;
const ZIPF_BUDGET: usize = 8 * 1024;
/// In-sort folding must cut spilled bytes by at least this factor vs.
/// carrying every duplicate through the sort and deduplicating at the
/// output.
const REQUIRED_FOLD_REDUCTION: f64 = 5.0;
/// Timed merge cases keep the fastest of this many repetitions (wall-clock
/// gates must not trip on scheduler noise).
const MERGE_REPS: usize = 7;
/// OVC-on must not run slower than this × the OVC-off wall on any merge
/// case. On exact-prefix keys both modes duel on one integer compare, so
/// the structural expectation is parity (medians run 0.94–1.01×); the
/// margin absorbs per-process code-layout variance, which shifts a tight
/// merge loop ±10% between otherwise identical invocations. The gate's
/// job is the old failure class — the 1.7× regression of BENCH_3 — not a
/// ten-percent layout lottery.
const OVC_WALL_PARITY: f64 = 1.15;

fn rate(rows: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        rows as f64 / (wall_ns as f64 / 1e9)
    }
}

struct CaseResult {
    rows: u64,
    wall_ns: u64,
    ovc_cmps: u64,
    full_cmps: u64,
}

impl CaseResult {
    fn rows_per_sec(&self) -> f64 {
        rate(self.rows, self.wall_ns)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("rows".to_owned(), JsonValue::from(self.rows)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("rows_per_sec".to_owned(), JsonValue::from(self.rows_per_sec())),
            ("ovc_cmps".to_owned(), JsonValue::from(self.ovc_cmps)),
            ("full_cmps".to_owned(), JsonValue::from(self.full_cmps)),
        ])
    }
}

/// One wall-clock measurement of the spill-heavy top-k, with the I/O-wait
/// accounting split the overlap layer maintains.
struct OverlapRun {
    rows: u64,
    wall_ns: u64,
    io_wait_ns: u64,
    overlapped_io_ns: u64,
    /// Order-sensitive digest of the output keys: both modes must agree.
    checksum: u64,
}

impl OverlapRun {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("rows".to_owned(), JsonValue::from(self.rows)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("rows_per_sec".to_owned(), JsonValue::from(rate(self.rows, self.wall_ns))),
            ("io_wait_ns".to_owned(), JsonValue::from(self.io_wait_ns)),
            ("overlapped_io_ns".to_owned(), JsonValue::from(self.overlapped_io_ns)),
        ])
    }
}

/// Spill-heavy top-k over a *sleeping* throttled backend modelling
/// disaggregated-storage latency (a fixed per-request cost, no bandwidth
/// term). `k = rows` so the merge reads every spilled block back. With the
/// overlap layer on (`io_threads = 4`), spill writes run as pool jobs and
/// the final merge prefetches all ~10 runs concurrently, so the
/// per-request sleeps parallelize across sources; inline
/// (`io_threads = 0`) they serialize on the compute thread.
fn overlap_case(overlap: bool) -> OverlapRun {
    let model =
        ThrottleModel { per_op: Duration::from_micros(150), per_byte: Duration::ZERO, sleep: true };
    let backend: Arc<dyn histok_storage::StorageBackend> =
        Arc::new(ThrottledBackend::new(MemoryBackend::new(), model));
    let config = TopKConfig::builder()
        .memory_budget(240 * 1024) // ~10 runs of 30k rows
        .block_bytes(1024)
        .io_threads(if overlap { 4 } else { 0 })
        .build()
        .expect("overlap config");
    let mut op: TraditionalExternalTopK<u64> =
        TraditionalExternalTopK::with_config(SortSpec::ascending(OVERLAP_ROWS), &config, backend)
            .expect("overlap operator");
    let started = Instant::now();
    for i in 0..OVERLAP_ROWS {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        op.push(Row::new(key, key.to_le_bytes().repeat(2))).expect("push");
    }
    let mut rows = 0u64;
    let mut checksum = 0u64;
    for row in op.finish().expect("finish") {
        let row = row.expect("row");
        checksum = checksum.wrapping_mul(31).wrapping_add(row.key);
        rows += 1;
    }
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let io = op.metrics().io;
    OverlapRun {
        rows,
        wall_ns,
        io_wait_ns: io.io_wait_ns,
        overlapped_io_ns: io.overlapped_io_ns,
        checksum,
    }
}

/// One wall-clock measurement of the final merge only (runs are written
/// untimed), serial vs. range-partitioned across worker threads.
struct PartitionRun {
    rows: u64,
    wall_ns: u64,
    partitions: u64,
    blocks_skipped: u64,
    checksum: u64,
}

impl PartitionRun {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("rows".to_owned(), JsonValue::from(self.rows)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("rows_per_sec".to_owned(), JsonValue::from(rate(self.rows, self.wall_ns))),
            ("partitions".to_owned(), JsonValue::from(self.partitions)),
            ("blocks_skipped".to_owned(), JsonValue::from(self.blocks_skipped)),
        ])
    }
}

/// Few wide runs over the same sleeping throttled backend as
/// `overlap_case`: the serial merge keeps only `PARTITION_RUNS` requests
/// in flight (one prefetch stream per run), while the partitioned merge
/// keeps `threads ×` that many — range-scoped readers skip straight to
/// their partition — so the per-request sleeps divide by the partition
/// count even on a single core. The catalog's pool has one worker per
/// prefetch stream, `PARTITION_RUNS × threads`, so every stream can have
/// a request in flight. A request carries four blocks, so
/// 256-byte blocks keep it the 1 KiB / 150 µs request the case was sized
/// around: with 1 KiB blocks the merge is CPU-bound on two cores and the
/// ratio reads 1.0–1.4×.
fn partition_case(threads: usize) -> PartitionRun {
    let model =
        ThrottleModel { per_op: Duration::from_micros(150), per_byte: Duration::ZERO, sleep: true };
    let stats = IoStats::new();
    let catalog: Arc<RunCatalog<u64>> = Arc::new(
        RunCatalog::new(
            Arc::new(ThrottledBackend::new(MemoryBackend::new(), model)),
            RunCatalog::<u64>::unique_prefix("pmerge"),
            SortOrder::Ascending,
            stats.clone(),
        )
        .with_block_bytes(256),
    );
    for r in 0..PARTITION_RUNS {
        let mut w = catalog.start_run().expect("start run");
        for j in 0..PARTITION_ROWS_PER_RUN {
            let key = j * PARTITION_RUNS + r;
            w.append(&Row::new(key, key.to_le_bytes().repeat(2))).expect("append");
        }
        catalog.register(w.finish().expect("finish run")).expect("register");
    }
    // Written inline; only the timed merge reads through the pool.
    catalog.set_io_scheduler(Some(IoScheduler::new(PARTITION_RUNS as usize * threads)));
    let runs = catalog.runs();
    let tuning = MergeTuning::default();
    let skipped_before = stats.snapshot().blocks_skipped;
    let started = Instant::now();
    let mut rows = 0u64;
    let mut checksum = 0u64;
    let mut drain = |iter: &mut dyn Iterator<Item = Result<Row<u64>>>| {
        for row in iter {
            let row = row.expect("row");
            checksum = checksum.wrapping_mul(31).wrapping_add(row.key);
            rows += 1;
        }
    };
    let partitions = if threads >= 2 {
        let merge = merge_runs_partitioned(&catalog, &runs, vec![], threads, None, &tuning)
            .expect("plan")
            .partitioned()
            .expect("partitionable");
        let partitions = merge.partitions() as u64;
        drain(&mut { merge });
        partitions
    } else {
        let sources: Vec<_> =
            runs.iter().map(|m| open_source(&catalog, m).expect("open source")).collect();
        let tree = merge_sources_tuned(sources, SortOrder::Ascending, &tuning).expect("merge");
        drain(&mut { tree });
        1
    };
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    PartitionRun {
        rows,
        wall_ns,
        partitions,
        blocks_skipped: stats.snapshot().blocks_skipped - skipped_before,
        checksum,
    }
}

/// One wall-clock measurement of the spill storm: 512 runs merged at
/// fan-in 64 (one intermediate pass of 8 merges, each holding 64 prefetch
/// sources and one spill writer open at once) followed by a partitioned
/// final merge — all over a sleeping throttled backend.
struct StormRun {
    rows: u64,
    wall_ns: u64,
    /// Peak background-I/O threads alive during the merges.
    peak_io_threads: usize,
    io_wait_ns: u64,
    overlapped_io_ns: u64,
    sched: IoSchedulerMetrics,
    checksum: u64,
}

impl StormRun {
    fn to_json(&self) -> JsonValue {
        let m = &self.sched;
        JsonValue::Obj(vec![
            ("rows".to_owned(), JsonValue::from(self.rows)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("rows_per_sec".to_owned(), JsonValue::from(rate(self.rows, self.wall_ns))),
            ("peak_io_threads".to_owned(), JsonValue::from(self.peak_io_threads as u64)),
            ("io_wait_ns".to_owned(), JsonValue::from(self.io_wait_ns)),
            ("overlapped_io_ns".to_owned(), JsonValue::from(self.overlapped_io_ns)),
            (
                "scheduler".to_owned(),
                JsonValue::Obj(vec![
                    ("jobs_merge_readahead".to_owned(), JsonValue::from(m.completed[0])),
                    ("jobs_prefetch".to_owned(), JsonValue::from(m.completed[1])),
                    ("jobs_spill_write".to_owned(), JsonValue::from(m.completed[2])),
                    ("queue_depth_peak".to_owned(), JsonValue::from(m.queue_depth_peak as u64)),
                ]),
            ),
        ])
    }
}

/// The intermediate merges hold 64 prefetch sources and the output spill
/// pipeline open at once; on a 4-worker pool they must run on 4
/// background threads and yield every key exactly once, in order.
fn spill_storm_case() -> StormRun {
    let model =
        ThrottleModel { per_op: Duration::from_micros(2), per_byte: Duration::ZERO, sleep: true };
    let stats = IoStats::new();
    let scheduler = IoScheduler::new(STORM_IO_THREADS);
    let catalog: Arc<RunCatalog<BytesKey>> = Arc::new(
        RunCatalog::new(
            Arc::new(ThrottledBackend::new(MemoryBackend::new(), model)),
            RunCatalog::<BytesKey>::unique_prefix("storm"),
            SortOrder::Ascending,
            stats.clone(),
        )
        .with_block_bytes(8192)
        .with_io_scheduler(Some(scheduler.clone())),
    );
    // 512 sorted strided runs, written untimed: run r holds keys
    // r, r+512, r+1024, … so every run overlaps every key range and the
    // merges cannot shortcut.
    for r in 0..STORM_RUNS {
        let mut w = catalog.start_run().expect("start storm run");
        for j in 0..STORM_ROWS_PER_RUN {
            let k = j * STORM_RUNS + r;
            w.append(&Row::key_only(BytesKey::new(format!("storm-key-{k:012}")))).expect("append");
        }
        catalog.register(w.finish().expect("finish storm run")).expect("register");
    }
    let tuning = MergeTuning::default();
    let merge = MergeConfig { fan_in: STORM_FAN_IN, policy: MergePolicy::SmallestFirst };
    let io_before = stats.snapshot();
    ThreadCensus::reset_peak();
    let started = Instant::now();
    // Intermediate passes: 512 runs → 8 at fan-in 64.
    let final_runs = plan_merges_tuned(&catalog, &merge, None, None, &tuning).expect("plan");
    let mut rows = 0u64;
    let mut checksum = 0u64;
    let attempt =
        merge_runs_partitioned(&catalog, &final_runs, vec![], STORM_THREADS, None, &tuning)
            .expect("partition plan");
    match attempt.partitioned() {
        Some(merge) => {
            for row in merge {
                let row = row.expect("row");
                for b in row.key.as_slice() {
                    checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(*b));
                }
                rows += 1;
            }
        }
        None => panic!("storm final merge did not partition"),
    }
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let peak_io_threads = ThreadCensus::peak();
    let io = stats.snapshot().since(&io_before);
    StormRun {
        rows,
        wall_ns,
        peak_io_threads,
        io_wait_ns: io.io_wait_ns,
        overlapped_io_ns: io.overlapped_io_ns,
        sched: scheduler.metrics(),
        checksum,
    }
}

/// One wall-clock measurement of the cascade gate: 512 strided runs
/// reduced to the fan-in over a sleeping throttled backend with fully
/// synchronous I/O, so the planned-parallel cascade's speedup comes
/// from overlapping storage sleeps across pass workers — exactly the
/// latency-bound regime DESIGN.md §11 targets.
struct CascadeRun {
    rows: u64,
    wall_ns: u64,
    final_runs: u64,
    peak_io_threads: usize,
    stats: CascadeStats,
    /// Order-sensitive digest of the fully drained output: both
    /// planners must agree byte for byte.
    checksum: u64,
}

impl CascadeRun {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("rows".to_owned(), JsonValue::from(self.rows)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("final_runs".to_owned(), JsonValue::from(self.final_runs)),
            ("peak_io_threads".to_owned(), JsonValue::from(self.peak_io_threads as u64)),
            ("merge_passes".to_owned(), JsonValue::from(self.stats.merge_passes)),
            ("intermediate_merges".to_owned(), JsonValue::from(self.stats.intermediate_merges)),
            ("runs_pruned".to_owned(), JsonValue::from(self.stats.runs_pruned)),
            ("cascade_wait_ns".to_owned(), JsonValue::from(self.stats.cascade_wait_ns)),
            ("checksum".to_owned(), JsonValue::from(self.checksum)),
        ])
    }
}

/// Runs the cascade workload once: `parallel = false` is the greedy
/// serial baseline ([`plan_merges_legacy`]); `parallel = true` the
/// planned cascade on [`CASCADE_WORKERS`] pass workers. Run drain for
/// the checksum happens untimed after the wall measurement.
fn cascade_case(parallel: bool) -> CascadeRun {
    let model =
        ThrottleModel { per_op: Duration::from_micros(100), per_byte: Duration::ZERO, sleep: true };
    let stats = IoStats::new();
    let catalog: RunCatalog<u64> = RunCatalog::new(
        Arc::new(ThrottledBackend::new(MemoryBackend::new(), model)),
        RunCatalog::<u64>::unique_prefix("cascade"),
        SortOrder::Ascending,
        stats.clone(),
    )
    .with_block_bytes(4096);
    // 512 sorted strided runs, written untimed: run r holds keys
    // r, r+512, r+1024, … so every run overlaps every key range and no
    // merge can shortcut.
    for r in 0..CASCADE_RUNS {
        let mut w = catalog.start_run().expect("start cascade run");
        for j in 0..CASCADE_ROWS_PER_RUN {
            w.append(&Row::key_only(j * CASCADE_RUNS + r)).expect("append");
        }
        catalog.register(w.finish().expect("finish cascade run")).expect("register");
    }
    // Inline I/O (the catalog has no pool): every storage sleep lands on
    // the merge thread that issued it, so worker overlap is the only
    // latency hiding available.
    let tuning = MergeTuning::default();
    let merge = MergeConfig { fan_in: CASCADE_FAN_IN, policy: MergePolicy::LowestKeyFirst };
    ThreadCensus::reset_peak();
    let started = Instant::now();
    let (final_runs, cascade_stats) = if parallel {
        plan_merges_cascade(&catalog, &merge, None, None, &tuning, CASCADE_WORKERS).expect("plan")
    } else {
        let runs = plan_merges_legacy(&catalog, &merge, None, None, &tuning).expect("legacy plan");
        (runs, CascadeStats::default())
    };
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let peak_io_threads = ThreadCensus::peak();
    // Untimed correctness drain: content preservation is the invariant
    // (limit is None), so both planners must yield the same key stream.
    let sources = final_runs.iter().map(|m| open_source(&catalog, m).expect("open")).collect();
    let tree = merge_sources_tuned(sources, SortOrder::Ascending, &tuning).expect("drain tree");
    let mut rows = 0u64;
    let mut checksum = 0u64;
    for row in tree {
        let row = row.expect("row");
        checksum = checksum.wrapping_mul(31).wrapping_add(row.key);
        rows += 1;
    }
    CascadeRun {
        rows,
        wall_ns,
        final_runs: final_runs.len() as u64,
        peak_io_threads,
        stats: cascade_stats,
        checksum,
    }
}

type VecSource<K> = IterSource<std::vec::IntoIter<Result<Row<K>>>>;

/// One query of the mixed fleet: odd indices spill (k = 400 under a
/// 16 KiB workspace), even indices stay in memory (k = 10). Serially each
/// query overlaps storage sleeps only within itself, on its private pool;
/// the fleet overlaps them across query threads on the server's shared
/// pool — the latency-bound regime the shared server targets on any core
/// count.
fn fleet_query(i: u64) -> Query<F64Key> {
    let k = if i.is_multiple_of(2) { CONC_SMALL_K } else { CONC_SPILL_K };
    let config = TopKConfig::builder()
        .memory_budget(CONC_QUERY_BUDGET)
        .block_bytes(4096)
        .io_threads(CONC_IO_THREADS)
        .build()
        .expect("fleet config");
    Query::scan(
        Workload::uniform(CONC_ROWS_PER_QUERY, 0xC0FFEE ^ i).with_payload_bytes(32).rows(),
        SortSpec::ascending(k),
    )
    .config(config)
}

/// Order-sensitive checksum over keys *and* payloads: byte-identical
/// per-query results regardless of lease sizing is a gate.
fn fleet_checksum(rows: &[Row<F64Key>]) -> u64 {
    let mut sum = 0u64;
    for row in rows {
        sum = sum.wrapping_mul(0x100000001b3).wrapping_add(row.key.get().to_bits());
        for b in row.payload.as_ref() {
            sum = sum.wrapping_mul(31).wrapping_add(u64::from(*b));
        }
    }
    sum
}

fn fleet_backend() -> Arc<dyn StorageBackend> {
    let model =
        ThrottleModel { per_op: Duration::from_micros(25), per_byte: Duration::ZERO, sleep: true };
    Arc::new(ThrottledBackend::new(MemoryBackend::new(), model))
}

struct FleetSerial {
    wall_ns: u64,
    rows_in: u64,
    checksums: Vec<u64>,
}

impl FleetSerial {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("rows_in".to_owned(), JsonValue::from(self.rows_in)),
            ("rows_per_sec".to_owned(), JsonValue::from(rate(self.rows_in, self.wall_ns))),
        ])
    }
}

/// The baseline: the same 64 queries, one at a time, each standalone
/// (private pool, fixed `memory_budget`) on the same throttled backend.
fn concurrent_queries_serial() -> FleetSerial {
    let backend = fleet_backend();
    let started = Instant::now();
    let mut checksums = Vec::with_capacity(CONC_QUERIES as usize);
    for i in 0..CONC_QUERIES {
        let result = fleet_query(i).execute_shared(backend.clone()).expect("serial fleet query");
        checksums.push(fleet_checksum(&result.rows));
    }
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    FleetSerial { wall_ns, rows_in: CONC_QUERIES * CONC_ROWS_PER_QUERY, checksums }
}

struct FleetRun {
    wall_ns: u64,
    rows_in: u64,
    p95_latency_ns: u64,
    queued_ns_total: u64,
    peak_io_threads: usize,
    peak_concurrent: usize,
    peak_leases: usize,
    grants: u64,
    admitted_immediately: u64,
    rebalances: u64,
    revoked_bytes: u64,
    spilled_bytes: u64,
    checksums: Vec<u64>,
}

impl FleetRun {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("rows_in".to_owned(), JsonValue::from(self.rows_in)),
            ("rows_per_sec".to_owned(), JsonValue::from(rate(self.rows_in, self.wall_ns))),
            ("p95_latency_ns".to_owned(), JsonValue::from(self.p95_latency_ns)),
            ("queued_ns_total".to_owned(), JsonValue::from(self.queued_ns_total)),
            ("peak_io_threads".to_owned(), JsonValue::from(self.peak_io_threads as u64)),
            ("peak_concurrent".to_owned(), JsonValue::from(self.peak_concurrent as u64)),
            ("peak_leases".to_owned(), JsonValue::from(self.peak_leases as u64)),
            ("grants".to_owned(), JsonValue::from(self.grants)),
            ("admitted_immediately".to_owned(), JsonValue::from(self.admitted_immediately)),
            ("rebalances".to_owned(), JsonValue::from(self.rebalances)),
            ("revoked_bytes".to_owned(), JsonValue::from(self.revoked_bytes)),
            ("spilled_bytes".to_owned(), JsonValue::from(self.spilled_bytes)),
        ])
    }
}

/// The gate workload: the same 64 queries through one `TopKServer` from
/// 64 client threads — one 256 KiB lease pool (oversubscribed 2× by the
/// spilling queries' desired workspaces) and one 4-worker I/O pool.
fn concurrent_queries_fleet() -> FleetRun {
    let backend = fleet_backend();
    ThreadCensus::reset_peak();
    let server = Arc::new(TopKServer::new(ServerConfig {
        total_memory: CONC_POOL_BYTES,
        io_threads: CONC_IO_THREADS,
        min_lease: 4 * 1024,
        small_query_bytes: 2 * 1024,
        // Estimates must cover the payload-carrying rows, or the small
        // queries' leases run below their k-row heap and force spills.
        row_bytes_hint: 128,
        folded_row_bytes_hint: 32,
    }));
    let started = Instant::now();
    let handles: Vec<_> = (0..CONC_QUERIES)
        .map(|i| {
            let server = server.clone();
            let backend = backend.clone();
            std::thread::spawn(move || {
                let result = server.execute(fleet_query(i), backend).expect("fleet query");
                let latency = result.queued + result.elapsed;
                let latency_ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
                (latency_ns, fleet_checksum(&result.rows))
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(handles.len());
    let mut checksums = Vec::with_capacity(handles.len());
    for h in handles {
        let (latency_ns, checksum) = h.join().expect("fleet query thread");
        latencies.push(latency_ns);
        checksums.push(checksum);
    }
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let peak_io_threads = ThreadCensus::peak();
    latencies.sort_unstable();
    let p95_latency_ns = latencies[(latencies.len() * 95).div_ceil(100).saturating_sub(1)];
    let fleet = server.fleet_metrics();
    FleetRun {
        wall_ns,
        rows_in: CONC_QUERIES * CONC_ROWS_PER_QUERY,
        p95_latency_ns,
        queued_ns_total: fleet.admission.queued_ns_total,
        peak_io_threads,
        peak_concurrent: fleet.peak_concurrent,
        peak_leases: fleet.admission.peak_leases,
        grants: fleet.admission.grants,
        admitted_immediately: fleet.admission.admitted_immediately,
        rebalances: fleet.admission.rebalances,
        revoked_bytes: fleet.admission.revoked_bytes,
        spilled_bytes: fleet.spilled_bytes,
        checksums,
    }
}

fn sources<K: SortKey>(key: &impl Fn(u64) -> K) -> Vec<VecSource<K>> {
    (0..FAN_IN)
        .map(|i| {
            let rows: Vec<Result<Row<K>>> =
                (0..MERGE_ROWS / FAN_IN).map(|j| Ok(Row::key_only(key(j * FAN_IN + i)))).collect();
            IterSource::new(rows.into_iter())
        })
        .collect()
}

/// One timed drain of a fan-in-64 loser tree through the batched
/// `merge_into` path. Both the OVC and the full-comparison run go through
/// the same drain loop, so the wall-clock gate compares duel cost alone.
fn merge_once<K: SortKey>(ovc: bool, key: &impl Fn(u64) -> K) -> CaseResult {
    let stats = CmpStats::new();
    let input = sources(key);
    let started = Instant::now();
    let mut tree = LoserTree::with_ovc(input, SortOrder::Ascending, ovc, Some(stats.clone()))
        .expect("merge tree");
    let mut rows = 0u64;
    let mut batch: RowBatch<K> = RowBatch::with_capacity(DEFAULT_BATCH_ROWS);
    loop {
        tree.merge_into(&mut batch, DEFAULT_BATCH_ROWS).expect("merge batch");
        if batch.is_empty() {
            break;
        }
        rows += batch.len() as u64;
    }
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    drop(tree); // flush the counters
    let snap = stats.snapshot();
    CaseResult { rows, wall_ns, ovc_cmps: snap.ovc_cmps, full_cmps: snap.full_cmps }
}

/// Best wall-clock of [`MERGE_REPS`] runs (counters are deterministic, so
/// any repetition's counts are the counts).
fn merge_case<K: SortKey>(ovc: bool, key: &impl Fn(u64) -> K) -> CaseResult {
    (0..MERGE_REPS)
        .map(|_| merge_once(ovc, key))
        .min_by_key(|r| r.wall_ns)
        .expect("at least one rep")
}

/// Best wall-clock of [`MERGE_REPS`] *interleaved* (OVC, full-comparison)
/// rep pairs. Alternating the modes inside one loop exposes both to the
/// same machine drift (frequency scaling, cache pressure); timing each
/// mode in its own loop lets drift masquerade as a 30%+ duel-cost
/// difference on near-parity cases like u64.
fn merge_pair<K: SortKey>(key: &impl Fn(u64) -> K) -> (CaseResult, CaseResult) {
    let mut best: Option<(CaseResult, CaseResult)> = None;
    for rep in 0..MERGE_REPS {
        // Alternate which mode runs first so allocator/cache warm-up
        // doesn't systematically favor one side.
        let (with_ovc, without) = if rep % 2 == 0 {
            let w = merge_once(true, key);
            (w, merge_once(false, key))
        } else {
            let wo = merge_once(false, key);
            (merge_once(true, key), wo)
        };
        best = Some(match best.take() {
            None => (with_ovc, without),
            Some((bw, bwo)) => (
                if with_ovc.wall_ns < bw.wall_ns { with_ovc } else { bw },
                if without.wall_ns < bwo.wall_ns { without } else { bwo },
            ),
        });
    }
    best.expect("at least one rep")
}

/// The same u64 merge drained row-at-a-time through `Iterator::next` —
/// the baseline the batched `merge_into` loop replaced.
fn merge_row_at_a_time_case() -> CaseResult {
    (0..MERGE_REPS)
        .map(|_| {
            let stats = CmpStats::new();
            let input = sources(&|k| k);
            let started = Instant::now();
            let tree = LoserTree::with_ovc(input, SortOrder::Ascending, true, Some(stats.clone()))
                .expect("merge tree");
            let mut rows = 0u64;
            for row in tree {
                row.expect("merge row");
                rows += 1;
            }
            let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let snap = stats.snapshot();
            CaseResult { rows, wall_ns, ovc_cmps: snap.ovc_cmps, full_cmps: snap.full_cmps }
        })
        .min_by_key(|r| r.wall_ns)
        .expect("at least one rep")
}

fn run_gen_case(ovc: bool, keys: &[BytesKey]) -> CaseResult {
    let stats = CmpStats::new();
    let catalog = Arc::new(RunCatalog::new(
        Arc::new(MemoryBackend::new()),
        RunCatalog::<BytesKey>::unique_prefix("benchsmoke"),
        SortOrder::Ascending,
        IoStats::new(),
    ));
    let started = Instant::now();
    let mut gen = ReplacementSelection::new(catalog, 256 * 1024).with_ovc(ovc, Some(stats.clone()));
    for key in keys {
        gen.push(Row::key_only(key.clone()), &mut NoopObserver).expect("push");
    }
    gen.finish(&mut NoopObserver, ResiduePolicy::SpillToRuns).expect("finish");
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    drop(gen); // flush the heap's locally-buffered counters
    let snap = stats.snapshot();
    CaseResult {
        rows: keys.len() as u64,
        wall_ns,
        ovc_cmps: snap.ovc_cmps,
        full_cmps: snap.full_cmps,
    }
}

/// One workload measured with OVC on and off, plus the headline ratio:
/// how many times fewer *full* key comparisons the coded run needed.
fn case_json(name: &str, with_ovc: &CaseResult, without: &CaseResult) -> (f64, JsonValue) {
    let reduction = if with_ovc.full_cmps == 0 {
        f64::INFINITY
    } else {
        without.full_cmps as f64 / with_ovc.full_cmps as f64
    };
    let json = JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from(name)),
        ("ovc".to_owned(), with_ovc.to_json()),
        ("full_cmp".to_owned(), without.to_json()),
        (
            "full_cmp_reduction".to_owned(),
            JsonValue::from(if reduction.is_finite() { reduction } else { f64::MAX }),
        ),
    ]);
    (reduction, json)
}

/// One pass over the Zipf stream: either folding duplicates inside the
/// sort (`dedup` on, k = [`ZIPF_K`] distinct groups) or carrying every
/// duplicate through the full external sort and deduplicating at the
/// output.
struct ZipfRun {
    rows_in: u64,
    wall_ns: u64,
    spilled_bytes: u64,
    rows_spilled: u64,
    rows_folded: u64,
    bytes_folded_pre_spill: u64,
}

impl ZipfRun {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("rows_in".to_owned(), JsonValue::from(self.rows_in)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("rows_per_sec".to_owned(), JsonValue::from(rate(self.rows_in, self.wall_ns))),
            ("spilled_bytes".to_owned(), JsonValue::from(self.spilled_bytes)),
            ("rows_spilled".to_owned(), JsonValue::from(self.rows_spilled)),
            ("rows_folded".to_owned(), JsonValue::from(self.rows_folded)),
            ("bytes_folded_pre_spill".to_owned(), JsonValue::from(self.bytes_folded_pre_spill)),
        ])
    }
}

/// The grouped-aggregation leg: top groups by COUNT, verified against a
/// post-hoc hash-count oracle.
struct ZipfGrouped {
    rows_in: u64,
    wall_ns: u64,
    groups: u64,
    top_count: u64,
    rows_folded: u64,
}

impl ZipfGrouped {
    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("rows_in".to_owned(), JsonValue::from(self.rows_in)),
            ("wall_ns".to_owned(), JsonValue::from(self.wall_ns)),
            ("groups".to_owned(), JsonValue::from(self.groups)),
            ("top_count".to_owned(), JsonValue::from(self.top_count)),
            ("rows_folded".to_owned(), JsonValue::from(self.rows_folded)),
        ])
    }
}

/// The shared duplicate-heavy stream: i.i.d. Zipf([`ZIPF_S`]) ranks over
/// [`ZIPF_DISTINCT`] keys, [`ZIPF_ROWS`] rows.
fn zipf_stream() -> impl Iterator<Item = F64Key> {
    Workload::uniform(ZIPF_ROWS, 0xD5F0)
        .with_distribution(Distribution::Zipf { s: ZIPF_S, n: ZIPF_DISTINCT })
        .keys()
}

/// All duplicates of a key share one payload, so FIRST is deterministic
/// and byte-comparison against the oracle meaningful.
fn zipf_payload(k: f64) -> Vec<u8> {
    k.to_le_bytes().to_vec()
}

/// Sleeping throttled backend: spilled bytes carry a modelled
/// disaggregated-storage cost, so the fold's byte savings are also
/// wall-clock savings.
fn zipf_backend() -> Arc<dyn StorageBackend> {
    let model =
        ThrottleModel { per_op: Duration::from_micros(20), per_byte: Duration::ZERO, sleep: true };
    Arc::new(ThrottledBackend::new(MemoryBackend::new(), model))
}

/// Runs the dedup top-k (`dedup = true`) or the dedup-at-output baseline
/// (`dedup = false`: plain full sort of every duplicate; the caller
/// dedups the returned rows). Returns the output rows (key bits,
/// payload) and the run's accounting.
fn zipf_case(dedup: bool) -> (Vec<(u64, Vec<u8>)>, ZipfRun) {
    let config = TopKConfig::builder()
        .memory_budget(ZIPF_BUDGET)
        .block_bytes(4096)
        .dedup(dedup)
        .build()
        .expect("zipf config");
    let spec = if dedup { SortSpec::ascending(ZIPF_K) } else { SortSpec::ascending(ZIPF_ROWS) };
    let mut op: HistogramTopK<F64Key> =
        HistogramTopK::with_arc(spec, config, zipf_backend()).expect("zipf operator");
    let started = Instant::now();
    for k in zipf_stream() {
        let payload = zipf_payload(k.0);
        op.push(Row::new(k, payload)).expect("push");
    }
    let mut out = Vec::new();
    for row in op.finish().expect("finish") {
        let row = row.expect("row");
        out.push((row.key.0.to_bits(), row.payload.to_vec()));
    }
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let m = op.metrics();
    let run = ZipfRun {
        rows_in: m.rows_in,
        wall_ns,
        spilled_bytes: m.io.bytes_written,
        rows_spilled: m.rows_spilled(),
        rows_folded: m.rows_folded,
        bytes_folded_pre_spill: m.bytes_folded_pre_spill,
    };
    (out, run)
}

/// Dedup at the output: keep the first row of each adjacent group of the
/// already-sorted baseline output, truncated to the k distinct groups
/// the in-sort dedup query retains.
fn zipf_posthoc_dedup(rows: &[(u64, Vec<u8>)]) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
    for (k, p) in rows {
        if out.last().map(|(last, _)| last == k) != Some(true) {
            out.push((*k, p.clone()));
        }
    }
    out.truncate(ZIPF_K as usize);
    out
}

/// Top [`ZIPF_GROUP_K`] groups by COUNT descending over the same stream,
/// asserted byte-identical (keys, values, accumulator bytes) to a
/// post-hoc hash-count oracle with the same (count, key) descending
/// tie-break.
fn zipf_grouped_case() -> ZipfGrouped {
    let config = TopKConfig::builder()
        .memory_budget(ZIPF_BUDGET)
        .block_bytes(4096)
        .aggregate(AggregateOp::Count)
        .build()
        .expect("zipf grouped config");
    let mut op: GroupedAggTopK<F64Key> =
        GroupedAggTopK::with_arc(ZIPF_GROUP_K, SortOrder::Descending, config, zipf_backend())
            .expect("zipf grouped operator");
    let started = Instant::now();
    for k in zipf_stream() {
        op.push(Row::key_only(k)).expect("push");
    }
    let groups = op.finish().expect("finish");
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for k in zipf_stream() {
        *counts.entry(k.0.to_bits()).or_insert(0) += 1;
    }
    // Positive-f64 bit patterns order like the values, so (count, bits)
    // descending matches the operator's (value, group key) tie-break.
    let mut want: Vec<(u64, u64)> = counts.iter().map(|(&bits, &c)| (c, bits)).collect();
    want.sort_unstable_by(|a, b| b.cmp(a));
    want.truncate(ZIPF_GROUP_K as usize);
    assert_eq!(groups.len(), want.len(), "grouped COUNT lost groups");
    for (g, &(count, bits)) in groups.iter().zip(&want) {
        assert_eq!(g.key.0.to_bits(), bits, "grouped COUNT ranked the wrong group");
        assert_eq!(g.value, count as f64, "grouped COUNT mis-valued a group");
        assert_eq!(decode_count(&g.acc), count, "grouped COUNT accumulator diverged");
        assert_eq!(
            &g.acc[..],
            &count.to_le_bytes()[..],
            "grouped COUNT accumulator bytes diverged"
        );
    }

    let m = op.metrics();
    ZipfGrouped {
        rows_in: m.rows_in,
        wall_ns,
        groups: groups.len() as u64,
        top_count: want.first().map_or(0, |&(c, _)| c),
        rows_folded: m.rows_folded,
    }
}

fn output_path() -> PathBuf {
    if let Ok(n) = std::env::var("BENCH_INDEX") {
        return PathBuf::from(format!("BENCH_{n}.json"));
    }
    let mut n = 1u32;
    loop {
        let path = PathBuf::from(format!("BENCH_{n}.json"));
        if !path.exists() {
            return path;
        }
        n += 1;
    }
}

fn main() {
    let byte_key = |k: u64| BytesKey::new(format!("shared-prefix-{k:012}"));
    // Run-generation keys vary within their first 8 bytes so the selection
    // heap's normalized-prefix fast path gets a chance to fire (the heap
    // compares prefixes, not full offset-value codes — see DESIGN.md).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let run_gen_keys: Vec<BytesKey> = (0..RUN_GEN_ROWS)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            BytesKey::new(format!("{:08}-suffix", state % 100_000_000))
        })
        .collect();

    let (u64_ovc, u64_full) = merge_pair(&|k| k);
    let (bytes_ovc, bytes_full) = merge_pair(&byte_key);
    let (dup_ovc, dup_full) = merge_pair(&|k| k % 64);
    let cases: Vec<(&str, CaseResult, CaseResult)> = vec![
        ("merge_u64", u64_ovc, u64_full),
        ("merge_bytes", bytes_ovc, bytes_full),
        ("merge_duplicate_heavy", dup_ovc, dup_full),
        (
            "run_generation_bytes",
            run_gen_case(true, &run_gen_keys),
            run_gen_case(false, &run_gen_keys),
        ),
    ];

    let mut rows = Vec::new();
    let mut byte_merge_reduction = 0.0f64;
    // (name, ovc wall / full-comparison wall) for every merge_* case: the
    // tentpole's wall-clock gate.
    let mut ovc_wall_ratios: Vec<(String, f64)> = Vec::new();
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "case", "ovc rows/s", "base rows/s", "ovc full", "base full", "reduction"
    );
    for (name, with_ovc, without) in &cases {
        let (reduction, json) = case_json(name, with_ovc, without);
        if *name == "merge_bytes" {
            byte_merge_reduction = reduction;
        }
        if name.starts_with("merge") && without.wall_ns > 0 {
            ovc_wall_ratios
                .push(((*name).to_owned(), with_ovc.wall_ns as f64 / without.wall_ns as f64));
        }
        println!(
            "{:<24} {:>12.0} {:>12.0} {:>12} {:>12} {:>9.1}x",
            name,
            with_ovc.rows_per_sec(),
            without.rows_per_sec(),
            with_ovc.full_cmps,
            without.full_cmps,
            reduction
        );
        rows.push(json);
    }

    // Batched vs. row-at-a-time drain of the same u64 merge (OVC on in
    // both): the batched execution win, isolated.
    let batched = merge_case(true, &|k| k);
    let row_at_a_time = merge_row_at_a_time_case();
    assert_eq!(batched.rows, row_at_a_time.rows, "drain mode changed the row count");
    let batch_speedup = if batched.wall_ns == 0 {
        f64::INFINITY
    } else {
        row_at_a_time.wall_ns as f64 / batched.wall_ns as f64
    };
    println!(
        "{:<24} {:>12.0} {:>12.0} {:>12} {:>12} {:>9.2}x",
        "batched_merge",
        batched.rows_per_sec(),
        row_at_a_time.rows_per_sec(),
        "(batch)",
        "(row)",
        batch_speedup
    );
    rows.push(JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from("batched_merge")),
        ("batched".to_owned(), batched.to_json()),
        ("row_at_a_time".to_owned(), row_at_a_time.to_json()),
        (
            "speedup".to_owned(),
            JsonValue::from(if batch_speedup.is_finite() { batch_speedup } else { f64::MAX }),
        ),
    ]));

    // Overlapped I/O: same spill-heavy top-k with the pipeline + read-ahead
    // on vs. fully synchronous, over a sleeping throttled backend.
    let piped = overlap_case(true);
    let synchronous = overlap_case(false);
    assert_eq!(piped.rows, synchronous.rows, "overlap changed the row count");
    assert_eq!(piped.checksum, synchronous.checksum, "overlap changed the output order");
    let speedup = if piped.wall_ns == 0 {
        f64::INFINITY
    } else {
        synchronous.wall_ns as f64 / piped.wall_ns as f64
    };
    println!(
        "{:<24} {:>10.0}ms {:>10.0}ms {:>12} {:>12} {:>9.2}x",
        "overlap_topk",
        piped.wall_ns as f64 / 1e6,
        synchronous.wall_ns as f64 / 1e6,
        "(piped)",
        "(sync)",
        speedup
    );
    rows.push(JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from("overlap_topk")),
        ("pipelined".to_owned(), piped.to_json()),
        ("synchronous".to_owned(), synchronous.to_json()),
        (
            "speedup".to_owned(),
            JsonValue::from(if speedup.is_finite() { speedup } else { f64::MAX }),
        ),
    ]));

    // Partitioned merge: the same final merge over few wide runs, serial
    // vs. range-partitioned across worker threads.
    let partitioned = partition_case(PARTITION_THREADS);
    let serial = partition_case(1);
    assert_eq!(partitioned.rows, serial.rows, "partitioning changed the row count");
    assert_eq!(partitioned.checksum, serial.checksum, "partitioning changed the output order");
    let partition_speedup = if partitioned.wall_ns == 0 {
        f64::INFINITY
    } else {
        serial.wall_ns as f64 / partitioned.wall_ns as f64
    };
    println!(
        "{:<24} {:>10.0}ms {:>10.0}ms {:>12} {:>12} {:>9.2}x",
        "partitioned_merge",
        partitioned.wall_ns as f64 / 1e6,
        serial.wall_ns as f64 / 1e6,
        format!("(P={})", partitioned.partitions),
        "(serial)",
        partition_speedup
    );
    rows.push(JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from("partitioned_merge")),
        ("partitioned".to_owned(), partitioned.to_json()),
        ("serial".to_owned(), serial.to_json()),
        (
            "speedup".to_owned(),
            JsonValue::from(if partition_speedup.is_finite() {
                partition_speedup
            } else {
                f64::MAX
            }),
        ),
    ]));

    // Spill storm: 512 runs merged at fan-in 64 on the shared 4-worker
    // I/O pool. The pool must hold the thread count at `io_threads`, and
    // the output must be every key once, in order.
    let storm_pooled = spill_storm_case();
    let storm_keys = STORM_RUNS * STORM_ROWS_PER_RUN;
    let storm_oracle = (0..storm_keys).fold(0u64, |sum, k| {
        format!("storm-key-{k:012}")
            .bytes()
            .fold(sum, |sum, b| sum.wrapping_mul(31).wrapping_add(u64::from(b)))
    });
    assert_eq!(storm_pooled.rows, storm_keys, "spill storm changed the row count");
    assert_eq!(storm_pooled.checksum, storm_oracle, "spill storm changed the output order");
    println!(
        "{:<24} {:>10.0}ms {:>12} {:>12}",
        "spill_storm",
        storm_pooled.wall_ns as f64 / 1e6,
        format!("({}thr)", storm_pooled.peak_io_threads),
        format!("({}rows)", storm_pooled.rows),
    );
    rows.push(JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from("spill_storm")),
        ("pooled".to_owned(), storm_pooled.to_json()),
    ]));

    // Cascade gate: 512 runs reduced to fan-in 64 on synchronous
    // throttled I/O — the planned cascade on 4 pass workers vs. the
    // greedy serial baseline, byte-identical with ≥1.4× speedup.
    let cascade_serial = cascade_case(false);
    let cascade_parallel = cascade_case(true);
    assert_eq!(cascade_parallel.rows, cascade_serial.rows, "cascade planner changed the row count");
    assert_eq!(
        cascade_parallel.checksum, cascade_serial.checksum,
        "cascade planner changed the output"
    );
    let cascade_speedup = if cascade_parallel.wall_ns == 0 {
        f64::INFINITY
    } else {
        cascade_serial.wall_ns as f64 / cascade_parallel.wall_ns as f64
    };
    println!(
        "{:<24} {:>10.0}ms {:>10.0}ms {:>12} {:>12} {:>9.2}x",
        "cascade",
        cascade_parallel.wall_ns as f64 / 1e6,
        cascade_serial.wall_ns as f64 / 1e6,
        format!("({}pass)", cascade_parallel.stats.merge_passes),
        format!("({}mrg)", cascade_parallel.stats.intermediate_merges),
        cascade_speedup
    );
    rows.push(JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from("cascade")),
        ("planned".to_owned(), cascade_parallel.to_json()),
        ("legacy_serial".to_owned(), cascade_serial.to_json()),
        (
            "speedup".to_owned(),
            JsonValue::from(if cascade_speedup.is_finite() { cascade_speedup } else { f64::MAX }),
        ),
    ]));

    // Concurrent-query fleet: 64 mixed queries through one `TopKServer`
    // (one lease pool, one I/O pool) vs. the same queries serially,
    // standalone. Byte-identical per-query output is a hard assert.
    let fleet_serial = concurrent_queries_serial();
    let fleet = concurrent_queries_fleet();
    assert_eq!(
        fleet.checksums, fleet_serial.checksums,
        "concurrent execution changed some query's result bytes"
    );
    let conc_speedup = if fleet.wall_ns == 0 {
        f64::INFINITY
    } else {
        fleet_serial.wall_ns as f64 / fleet.wall_ns as f64
    };
    println!(
        "{:<24} {:>10.0}ms {:>10.0}ms {:>12} {:>12} {:>9.2}x",
        "concurrent_queries",
        fleet.wall_ns as f64 / 1e6,
        fleet_serial.wall_ns as f64 / 1e6,
        format!("(p95 {:.0}ms)", fleet.p95_latency_ns as f64 / 1e6),
        "(serial)",
        conc_speedup
    );
    rows.push(JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from("concurrent_queries")),
        ("fleet".to_owned(), fleet.to_json()),
        ("serial".to_owned(), fleet_serial.to_json()),
        (
            "speedup".to_owned(),
            JsonValue::from(if conc_speedup.is_finite() { conc_speedup } else { f64::MAX }),
        ),
    ]));

    // Zipf dedup: the same duplicate-heavy stream folded inside the sort
    // vs. carried whole through the external sort and deduplicated at the
    // output. The folded result must be byte-identical to the post-hoc
    // oracle; the fold must cut spilled bytes ≥ 5×.
    let (folded_rows, zipf_early) = zipf_case(true);
    let (raw_rows, zipf_at_output) = zipf_case(false);
    assert_eq!(zipf_early.rows_in, zipf_at_output.rows_in, "zipf stream diverged between modes");
    let zipf_oracle = zipf_posthoc_dedup(&raw_rows);
    assert_eq!(folded_rows, zipf_oracle, "in-sort dedup diverged from the post-hoc oracle");
    let fold_reduction = if zipf_early.spilled_bytes == 0 {
        f64::INFINITY
    } else {
        zipf_at_output.spilled_bytes as f64 / zipf_early.spilled_bytes as f64
    };
    let zipf_grouped = zipf_grouped_case();
    println!(
        "{:<24} {:>10.0}ms {:>10.0}ms {:>12} {:>12} {:>9.1}x",
        "zipf_dedup",
        zipf_early.wall_ns as f64 / 1e6,
        zipf_at_output.wall_ns as f64 / 1e6,
        format!("({}kB)", zipf_early.spilled_bytes / 1024),
        format!("({}kB)", zipf_at_output.spilled_bytes / 1024),
        fold_reduction
    );
    rows.push(JsonValue::Obj(vec![
        ("name".to_owned(), JsonValue::from("zipf_dedup")),
        ("dedup_early".to_owned(), zipf_early.to_json()),
        ("dedup_at_output".to_owned(), zipf_at_output.to_json()),
        (
            "spilled_bytes_reduction".to_owned(),
            JsonValue::from(if fold_reduction.is_finite() { fold_reduction } else { f64::MAX }),
        ),
        ("grouped_count".to_owned(), zipf_grouped.to_json()),
    ]));

    let report = JsonValue::Obj(vec![
        ("experiment".to_owned(), JsonValue::from("bench_smoke")),
        (
            "params".to_owned(),
            JsonValue::Obj(vec![
                ("merge_rows".to_owned(), JsonValue::from(MERGE_ROWS)),
                ("fan_in".to_owned(), JsonValue::from(FAN_IN)),
                ("run_gen_rows".to_owned(), JsonValue::from(RUN_GEN_ROWS)),
                ("required_reduction".to_owned(), JsonValue::from(REQUIRED_REDUCTION)),
                ("merge_reps".to_owned(), JsonValue::from(MERGE_REPS as u64)),
                ("ovc_wall_parity".to_owned(), JsonValue::from(OVC_WALL_PARITY)),
                ("batch_rows".to_owned(), JsonValue::from(DEFAULT_BATCH_ROWS as u64)),
                ("overlap_rows".to_owned(), JsonValue::from(OVERLAP_ROWS)),
                ("partition_runs".to_owned(), JsonValue::from(PARTITION_RUNS)),
                ("partition_rows_per_run".to_owned(), JsonValue::from(PARTITION_ROWS_PER_RUN)),
                ("partition_threads".to_owned(), JsonValue::from(PARTITION_THREADS as u64)),
                (
                    "required_partition_speedup".to_owned(),
                    JsonValue::from(REQUIRED_PARTITION_SPEEDUP),
                ),
                ("storm_runs".to_owned(), JsonValue::from(STORM_RUNS)),
                ("storm_rows_per_run".to_owned(), JsonValue::from(STORM_ROWS_PER_RUN)),
                ("storm_fan_in".to_owned(), JsonValue::from(STORM_FAN_IN as u64)),
                ("storm_io_threads".to_owned(), JsonValue::from(STORM_IO_THREADS as u64)),
                ("cascade_runs".to_owned(), JsonValue::from(CASCADE_RUNS)),
                ("cascade_rows_per_run".to_owned(), JsonValue::from(CASCADE_ROWS_PER_RUN)),
                ("cascade_fan_in".to_owned(), JsonValue::from(CASCADE_FAN_IN as u64)),
                ("cascade_workers".to_owned(), JsonValue::from(CASCADE_WORKERS as u64)),
                ("required_cascade_speedup".to_owned(), JsonValue::from(REQUIRED_CASCADE_SPEEDUP)),
                ("conc_queries".to_owned(), JsonValue::from(CONC_QUERIES)),
                ("conc_rows_per_query".to_owned(), JsonValue::from(CONC_ROWS_PER_QUERY)),
                ("conc_pool_bytes".to_owned(), JsonValue::from(CONC_POOL_BYTES as u64)),
                ("conc_io_threads".to_owned(), JsonValue::from(CONC_IO_THREADS as u64)),
                ("required_conc_speedup".to_owned(), JsonValue::from(REQUIRED_CONC_SPEEDUP)),
                ("conc_p95_fraction".to_owned(), JsonValue::from(CONC_P95_FRACTION)),
                ("zipf_rows".to_owned(), JsonValue::from(ZIPF_ROWS)),
                ("zipf_distinct".to_owned(), JsonValue::from(ZIPF_DISTINCT)),
                ("zipf_s".to_owned(), JsonValue::from(ZIPF_S)),
                ("zipf_k".to_owned(), JsonValue::from(ZIPF_K)),
                ("zipf_group_k".to_owned(), JsonValue::from(ZIPF_GROUP_K)),
                ("zipf_budget".to_owned(), JsonValue::from(ZIPF_BUDGET as u64)),
                ("required_fold_reduction".to_owned(), JsonValue::from(REQUIRED_FOLD_REDUCTION)),
            ]),
        ),
        ("cases".to_owned(), JsonValue::Arr(rows)),
    ]);
    let path = output_path();
    std::fs::write(&path, report.to_json_pretty(2)).expect("write BENCH json");
    println!("\nreport: {}", path.display());

    let mut failed = false;
    for (name, ratio) in &ovc_wall_ratios {
        if *ratio > OVC_WALL_PARITY {
            eprintln!(
                "FAIL: {name} ran {ratio:.2}x the full-comparison wall with OVC on \
                 (bound {OVC_WALL_PARITY}x)"
            );
            failed = true;
        } else {
            println!(
                "OK: {name} with OVC on ran {ratio:.2}x the full-comparison wall \
                 (bound {OVC_WALL_PARITY}x)"
            );
        }
    }
    if byte_merge_reduction < REQUIRED_REDUCTION {
        eprintln!(
            "FAIL: byte-key merge full comparisons reduced only {byte_merge_reduction:.2}x \
             (required {REQUIRED_REDUCTION}x)"
        );
        failed = true;
    } else {
        println!(
            "OK: byte-key merge full comparisons reduced {byte_merge_reduction:.1}x \
             (required {REQUIRED_REDUCTION}x)"
        );
    }
    println!(
        "INFO: overlapped I/O sped the throttled top-k up {speedup:.2}x with identical output \
         (not gated here: bench_e2e's lineitem_k_large_remote gates overlap end to end)"
    );
    if partition_speedup < REQUIRED_PARTITION_SPEEDUP {
        eprintln!(
            "FAIL: partitioned merge sped the throttled final merge up only \
             {partition_speedup:.2}x (required {REQUIRED_PARTITION_SPEEDUP}x)"
        );
        failed = true;
    } else {
        println!(
            "OK: partitioned merge sped the throttled final merge up {partition_speedup:.2}x \
             (required {REQUIRED_PARTITION_SPEEDUP}x)"
        );
    }
    if storm_pooled.peak_io_threads > STORM_IO_THREADS {
        eprintln!(
            "FAIL: spill storm peaked at {} background I/O threads with a {}-worker pool",
            storm_pooled.peak_io_threads, STORM_IO_THREADS
        );
        failed = true;
    } else {
        println!(
            "OK: spill storm held {} background I/O threads (pool of {})",
            storm_pooled.peak_io_threads, STORM_IO_THREADS
        );
    }
    if cascade_speedup < REQUIRED_CASCADE_SPEEDUP {
        eprintln!(
            "FAIL: planned-parallel cascade sped the serial cascade up only \
             {cascade_speedup:.2}x (required {REQUIRED_CASCADE_SPEEDUP}x)"
        );
        failed = true;
    } else {
        println!(
            "OK: planned-parallel cascade sped the serial cascade up {cascade_speedup:.2}x \
             (required {REQUIRED_CASCADE_SPEEDUP}x)"
        );
    }
    if cascade_parallel.peak_io_threads > STORM_IO_THREADS {
        eprintln!(
            "FAIL: cascade peaked at {} background I/O threads on synchronous tuning \
             (bound {STORM_IO_THREADS})",
            cascade_parallel.peak_io_threads
        );
        failed = true;
    } else {
        println!(
            "OK: cascade held {} background I/O threads (bound {STORM_IO_THREADS})",
            cascade_parallel.peak_io_threads
        );
    }
    if conc_speedup < REQUIRED_CONC_SPEEDUP {
        eprintln!(
            "FAIL: the concurrent fleet sped the 64-query workload up only {conc_speedup:.2}x \
             (required {REQUIRED_CONC_SPEEDUP}x)"
        );
        failed = true;
    } else {
        println!(
            "OK: the concurrent fleet sped the 64-query workload up {conc_speedup:.2}x \
             (required {REQUIRED_CONC_SPEEDUP}x)"
        );
    }
    let p95_bound_ns = (fleet_serial.wall_ns as f64 * CONC_P95_FRACTION) as u64;
    if fleet.p95_latency_ns > p95_bound_ns {
        eprintln!(
            "FAIL: fleet p95 latency {:.0}ms exceeds {CONC_P95_FRACTION} of the serial wall \
             ({:.0}ms)",
            fleet.p95_latency_ns as f64 / 1e6,
            p95_bound_ns as f64 / 1e6
        );
        failed = true;
    } else {
        println!(
            "OK: fleet p95 latency {:.0}ms within {CONC_P95_FRACTION} of the serial wall \
             ({:.0}ms)",
            fleet.p95_latency_ns as f64 / 1e6,
            p95_bound_ns as f64 / 1e6
        );
    }
    if fleet.peak_io_threads > CONC_IO_THREADS {
        eprintln!(
            "FAIL: the fleet peaked at {} background I/O threads with a {}-worker shared pool",
            fleet.peak_io_threads, CONC_IO_THREADS
        );
        failed = true;
    } else {
        println!(
            "OK: the fleet held {} background I/O threads (shared pool of {})",
            fleet.peak_io_threads, CONC_IO_THREADS
        );
    }
    if fold_reduction < REQUIRED_FOLD_REDUCTION {
        eprintln!(
            "FAIL: in-sort dedup cut spilled bytes only {fold_reduction:.2}x \
             (required {REQUIRED_FOLD_REDUCTION}x)"
        );
        failed = true;
    } else {
        println!(
            "OK: in-sort dedup cut spilled bytes {fold_reduction:.1}x \
             (required {REQUIRED_FOLD_REDUCTION}x; dedup and grouped COUNT byte-identical \
             to the post-hoc oracle; {} rows folded)",
            zipf_early.rows_folded + zipf_grouped.rows_folded
        );
    }
    if failed {
        std::process::exit(1);
    }
}
