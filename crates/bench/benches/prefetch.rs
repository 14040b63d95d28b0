//! Overlapped-I/O benchmarks: run reading inline vs. prefetched on a
//! shared I/O pool at `READAHEAD_BLOCKS` decoded blocks per source.
//!
//! Three angles on the read-ahead layer:
//!  * a single run over a *sleeping* throttled backend (modelled
//!    disaggregated-storage latency) — with only one source and a trivial
//!    consumer there is nothing to overlap with, so this is the break-even
//!    case: prefetch must not be *slower*;
//!  * the same run over a bare in-memory backend — measures the job
//!    hand-off overhead prefetch adds when storage is already free;
//!  * a multi-run merge over the throttled backend — the case the layer
//!    exists for: with read-ahead every source sleeps concurrently, so
//!    latency divides by the fan-in.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use histok_sort::{merge_sources_tuned, MergeTuning};
use histok_storage::{
    IoScheduler, IoStats, MemoryBackend, PrefetchingRunReader, RunCatalog, RunMeta, RunReader,
    RunWriter, StorageBackend, ThrottleModel, ThrottledBackend,
};
use histok_types::{Row, SortOrder};

const RUN_ROWS: u64 = 2_000;
const MERGE_RUNS: u64 = 6;
const BLOCK_BYTES: usize = 256;

/// A fixed 20µs per storage request, slept for real: small enough to keep
/// the benchmark quick, large enough to dominate decode time.
fn throttled() -> ThrottledBackend<MemoryBackend> {
    let model =
        ThrottleModel { per_op: Duration::from_micros(20), per_byte: Duration::ZERO, sleep: true };
    ThrottledBackend::new(MemoryBackend::new(), model)
}

fn write_run<B: StorageBackend>(
    be: &B,
    name: &str,
    keys: impl Iterator<Item = u64>,
) -> RunMeta<u64> {
    let mut w = RunWriter::<u64>::with_block_bytes(
        be,
        name,
        SortOrder::Ascending,
        IoStats::new(),
        BLOCK_BYTES,
    )
    .unwrap();
    for k in keys {
        w.append(&Row::new(k, k.to_le_bytes().to_vec())).unwrap();
    }
    w.finish().unwrap()
}

fn drain_sync<B: StorageBackend>(be: &B, meta: &RunMeta<u64>) -> u64 {
    let reader = RunReader::open(be, meta, IoStats::new()).unwrap();
    let mut n = 0u64;
    for row in reader {
        black_box(row.unwrap());
        n += 1;
    }
    n
}

fn drain_prefetched<B: StorageBackend>(be: &B, meta: &RunMeta<u64>, pool: &IoScheduler) -> u64 {
    let reader = RunReader::open(be, meta, IoStats::new()).unwrap();
    let mut n = 0u64;
    for row in PrefetchingRunReader::new(reader, pool.handle()) {
        black_box(row.unwrap());
        n += 1;
    }
    n
}

fn bench_read<B: StorageBackend>(c: &mut Criterion, group: &str, be: B) {
    let meta = write_run(&be, "bench", 0..RUN_ROWS);
    let pool = IoScheduler::new(1);
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(RUN_ROWS));
    g.sample_size(10);
    g.bench_function("inline", |b| b.iter(|| assert_eq!(drain_sync(&be, &meta), RUN_ROWS)));
    g.bench_function("prefetched", |b| {
        b.iter(|| assert_eq!(drain_prefetched(&be, &meta, &pool), RUN_ROWS))
    });
    g.finish();
}

fn bench_read_throttled(c: &mut Criterion) {
    bench_read(c, "prefetch/read_throttled", throttled());
}

fn bench_read_memory(c: &mut Criterion) {
    // No latency to hide: this measures the overhead of the prefetch jobs
    // and their hand-off against the plain decode loop.
    bench_read(c, "prefetch/read_memory", MemoryBackend::new());
}

fn bench_merge_throttled(c: &mut Criterion) {
    let cat: Arc<RunCatalog<u64>> = Arc::new(
        RunCatalog::new(
            Arc::new(throttled()),
            "prefetchmerge",
            SortOrder::Ascending,
            IoStats::new(),
        )
        .with_block_bytes(BLOCK_BYTES),
    );
    for r in 0..MERGE_RUNS {
        let mut w = cat.start_run().unwrap();
        for j in 0..RUN_ROWS / MERGE_RUNS {
            let k = j * MERGE_RUNS + r;
            w.append(&Row::new(k, k.to_le_bytes().to_vec())).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }
    let total = RUN_ROWS / MERGE_RUNS * MERGE_RUNS;
    let mut g = c.benchmark_group("prefetch/merge_throttled");
    g.throughput(Throughput::Elements(total));
    g.sample_size(10);
    let tuning = MergeTuning::default();
    for (label, pool) in
        [("inline", None), ("prefetched", Some(IoScheduler::new(MERGE_RUNS as usize)))]
    {
        // One worker per source: every source can have a request in flight.
        cat.set_io_scheduler(pool);
        g.bench_function(label, |b| {
            b.iter(|| {
                let sources = cat
                    .runs()
                    .iter()
                    .map(|meta| histok_sort::open_source(&cat, meta).unwrap())
                    .collect::<Vec<_>>();
                let tree = merge_sources_tuned(sources, SortOrder::Ascending, &tuning).unwrap();
                let mut n = 0u64;
                for row in tree {
                    black_box(row.unwrap());
                    n += 1;
                }
                assert_eq!(n, total);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_read_throttled, bench_read_memory, bench_merge_throttled);
criterion_main!(benches);
