//! Cascade merge planner benchmarks.
//!
//! Sweeps the planned cascade over fan_in ∈ {4, 16, 64, 256} × workers
//! ∈ {1, 4} on a 512-run catalog with a *sleeping* throttled backend
//! and inline merge I/O (the catalog has no I/O pool): every
//! storage sleep lands on the pass worker that issued it, so the
//! 4-worker column shows pure latency overlap across the independent
//! merges of a pass, and the fan-in sweep shows how pass count (9
//! passes at fan-in 4, a single pass at 256) trades against per-merge
//! width. The catalog is rebuilt untimed before each iteration — the
//! cascade consumes its input runs.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use histok_sort::{plan_merges_cascade, MergeConfig, MergeTuning};
use histok_storage::{IoStats, MemoryBackend, RunCatalog, ThrottleModel, ThrottledBackend};
use histok_types::{Row, SortOrder};

const RUNS: u64 = 512;
const ROWS_PER_RUN: u64 = 40;
const BLOCK_BYTES: usize = 512;

/// 512 sorted strided runs over a 10µs-per-request sleeping backend:
/// small enough to keep the sweep quick, latency-dominated enough that
/// worker overlap is what the numbers show.
fn build_catalog() -> RunCatalog<u64> {
    let model =
        ThrottleModel { per_op: Duration::from_micros(10), per_byte: Duration::ZERO, sleep: true };
    let cat = RunCatalog::new(
        Arc::new(ThrottledBackend::new(MemoryBackend::new(), model)),
        RunCatalog::<u64>::unique_prefix("casc"),
        SortOrder::Ascending,
        IoStats::new(),
    )
    .with_block_bytes(BLOCK_BYTES);
    for r in 0..RUNS {
        let mut w = cat.start_run().unwrap();
        for j in 0..ROWS_PER_RUN {
            w.append(&Row::key_only(j * RUNS + r)).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }
    cat
}

fn bench_cascade_sweep(c: &mut Criterion) {
    let tuning = MergeTuning::default();
    let mut g = c.benchmark_group("cascade/plan_throttled");
    g.throughput(Throughput::Elements(RUNS * ROWS_PER_RUN));
    g.sample_size(10);
    for fan_in in [4usize, 16, 64, 256] {
        for workers in [1usize, 4] {
            g.bench_function(format!("f{fan_in}_w{workers}"), |b| {
                b.iter_batched(
                    build_catalog,
                    |cat| {
                        let config = MergeConfig { fan_in, ..MergeConfig::default() };
                        let (final_runs, stats) =
                            plan_merges_cascade(&cat, &config, None, None, &tuning, workers)
                                .unwrap();
                        assert!(final_runs.len() <= fan_in);
                        black_box(stats)
                    },
                    BatchSize::PerIteration,
                )
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_cascade_sweep);
criterion_main!(benches);
