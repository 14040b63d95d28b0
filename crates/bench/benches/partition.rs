//! Range-partitioned parallel-merge benchmarks.
//!
//! Two angles on the partitioned final merge:
//!  * a partition-count sweep (P ∈ {1, 2, 4, 8}) over few wide runs on a
//!    *sleeping* throttled backend — the case the layer exists for: each
//!    partition's range-scoped readers sleep concurrently, so the
//!    per-request latency divides by the partition count (the catalog's
//!    I/O pool has one worker per reader, `RUNS × P`);
//!  * a skew-adversarial workload where one key accounts for half of
//!    every run — the planner cannot split inside a duplicate cluster
//!    (half-open ranges assign all duplicates to one partition), so the
//!    hot partition bounds the win. This measures how gracefully the
//!    speedup degrades, not whether it holds.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use histok_sort::FinalMerge;
use histok_storage::{
    IoScheduler, IoStats, MemoryBackend, RunCatalog, ThrottleModel, ThrottledBackend,
};
use histok_types::{Row, SortOrder};

const RUNS: u64 = 4;
/// Enough rows in total to clear `PARTITION_MIN_ROWS`.
const ROWS_PER_RUN: u64 = 2_500;
const BLOCK_BYTES: usize = 512;

/// A fixed 20µs per storage request, slept for real: small enough to keep
/// the benchmark quick, large enough to dominate decode time.
fn throttled_catalog(prefix: &str) -> Arc<RunCatalog<u64>> {
    let model =
        ThrottleModel { per_op: Duration::from_micros(20), per_byte: Duration::ZERO, sleep: true };
    Arc::new(
        RunCatalog::new(
            Arc::new(ThrottledBackend::new(MemoryBackend::new(), model)),
            RunCatalog::<u64>::unique_prefix(prefix),
            SortOrder::Ascending,
            IoStats::new(),
        )
        .with_block_bytes(BLOCK_BYTES),
    )
}

fn write_runs(cat: &RunCatalog<u64>, key: impl Fn(u64, u64) -> u64) {
    for r in 0..RUNS {
        let mut keys: Vec<u64> = (0..ROWS_PER_RUN).map(|j| key(r, j)).collect();
        keys.sort_unstable();
        let mut w = cat.start_run().unwrap();
        for k in keys {
            w.append(&Row::new(k, k.to_le_bytes().to_vec())).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }
}

fn drain_partitioned(cat: &Arc<RunCatalog<u64>>, threads: usize) -> u64 {
    let merge = FinalMerge { threads, ..FinalMerge::default() }
        .run(vec![(cat.clone(), Vec::new())])
        .unwrap();
    let mut n = 0u64;
    for row in merge {
        black_box(row.unwrap());
        n += 1;
    }
    n
}

/// Interleaved distinct keys: every partition gets an even share of every
/// run, the planner's best case.
fn bench_partition_sweep(c: &mut Criterion) {
    let cat = throttled_catalog("psweep");
    write_runs(&cat, |r, j| j * RUNS + r);
    let total = RUNS * ROWS_PER_RUN;
    let mut g = c.benchmark_group("partition/sweep_throttled");
    g.throughput(Throughput::Elements(total));
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        cat.set_io_scheduler(Some(IoScheduler::new(RUNS as usize * threads)));
        g.bench_function(format!("p{threads}"), |b| {
            b.iter(|| assert_eq!(drain_partitioned(&cat, threads), total))
        });
    }
    g.finish();
}

/// Half of every run is one hot key sitting in the middle of the key
/// space: the planner cannot split the cluster, so one partition carries
/// half the rows no matter how many threads are offered.
fn bench_partition_skewed(c: &mut Criterion) {
    let cat = throttled_catalog("pskew");
    let hot = ROWS_PER_RUN; // middle of the 0..2·ROWS_PER_RUN cold range
    write_runs(&cat, |r, j| {
        if j % 2 == 0 {
            hot
        } else {
            // Cold keys spread evenly on both sides of the hot cluster.
            (j * RUNS + r) * 2 % (2 * ROWS_PER_RUN * RUNS)
        }
    });
    let total = RUNS * ROWS_PER_RUN;
    let mut g = c.benchmark_group("partition/skew_adversarial");
    g.throughput(Throughput::Elements(total));
    g.sample_size(10);
    for threads in [1usize, 4] {
        cat.set_io_scheduler(Some(IoScheduler::new(RUNS as usize * threads)));
        g.bench_function(format!("p{threads}"), |b| {
            b.iter(|| assert_eq!(drain_partitioned(&cat, threads), total))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_partition_sweep, bench_partition_skewed);
criterion_main!(benches);
