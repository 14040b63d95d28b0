//! Run-generation benchmarks: replacement selection vs load-sort-store
//! (DESIGN.md ablation #2), with and without the cutoff filter attached.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use histok_core::CutoffFilter;
use histok_sort::run_gen::{LoadSortStore, ReplacementSelection, ResiduePolicy, RunGenerator};
use histok_sort::NoopObserver;
use histok_storage::{IoStats, MemoryBackend, RunCatalog};
use histok_types::{F64Key, Row, SortOrder};
use histok_workload::{Distribution, Workload, LINEITEM_PAYLOAD_BYTES};

const ROWS: u64 = 100_000;
const MEM_ROWS: usize = 1_000;

/// The benchmark's figure-scale workspace (`bench_e2e`: M = 14,000 rows x
/// 146 B) and enough `lineitem` rows to cycle it ~70 times.
const LINEITEM_ROWS: u64 = 1_000_000;
const LINEITEM_BUDGET: usize = 14_000 * 146;

fn catalog() -> Arc<RunCatalog<F64Key>> {
    Arc::new(
        RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            RunCatalog::<F64Key>::unique_prefix("bench"),
            SortOrder::Ascending,
            IoStats::new(),
        )
        .with_block_bytes(64 * 1024),
    )
}

/// Replacement selection over `rows` under `budget` bytes, everything
/// spilled; returns the number of runs.
fn replacement_selection_runs(rows: &[Row<F64Key>], budget: usize) -> usize {
    let cat = catalog();
    let mut gen = ReplacementSelection::new(cat.clone(), budget);
    let mut obs = NoopObserver;
    for row in rows.iter().cloned() {
        gen.push(row, &mut obs).unwrap();
    }
    gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
    cat.len()
}

fn bench_generators(c: &mut Criterion) {
    let rows: Vec<Row<F64Key>> = Workload::uniform(ROWS, 1).rows().collect();
    let budget = MEM_ROWS * 64;
    let mut g = c.benchmark_group("run_generation");
    g.throughput(Throughput::Elements(ROWS));
    g.sample_size(10);

    g.bench_function("replacement_selection_100k", |b| {
        b.iter(|| black_box(replacement_selection_runs(&rows, budget)))
    });

    g.bench_function("load_sort_store_100k", |b| {
        b.iter(|| {
            let cat = catalog();
            let mut gen = LoadSortStore::new(cat.clone(), budget);
            let mut obs = NoopObserver;
            for row in rows.iter().cloned() {
                gen.push(row, &mut obs).unwrap();
            }
            gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
            black_box(cat.len())
        })
    });

    g.bench_function("replacement_selection_with_filter_100k", |b| {
        b.iter(|| {
            let cat = catalog();
            let mut gen = ReplacementSelection::new(cat.clone(), budget).with_run_limit(5_000);
            let mut filter: CutoffFilter<F64Key> = CutoffFilter::new(5_000, SortOrder::Ascending);
            for row in rows.iter().cloned() {
                if !filter.eliminate(&row.key) {
                    gen.push(row, &mut filter).unwrap();
                }
            }
            gen.finish(&mut filter, ResiduePolicy::SpillToRuns).unwrap();
            black_box(cat.stats().rows_written())
        })
    });

    // The cases above keep 1,000 key-only rows buffered: the whole selection
    // structure sits in L1 and its cost hides. This one is the shape the
    // spilling `bench_e2e` workloads run: 14,000 buffered rows with the
    // 82-byte payload, ~1.5 MB of nodes and slots.
    let rows: Vec<Row<F64Key>> = Workload::uniform(LINEITEM_ROWS, 1)
        .with_payload_bytes(LINEITEM_PAYLOAD_BYTES)
        .rows()
        .collect();
    g.throughput(Throughput::Elements(LINEITEM_ROWS));
    g.bench_function("replacement_selection_14k_lineitem", |b| {
        b.iter(|| black_box(replacement_selection_runs(&rows, LINEITEM_BUDGET)))
    });

    g.finish();
}

fn bench_nearly_sorted(c: &mut Criterion) {
    // Replacement selection's home turf (§2.5): nearly sorted input makes
    // runs arbitrarily long, collapsing the run count — load-sort-store
    // cannot exploit the pre-order at all.
    let w =
        Workload::uniform(ROWS, 2).with_distribution(Distribution::NearlySorted { disorder: 200 });
    let rows: Vec<Row<F64Key>> = w.rows().collect();
    let budget = MEM_ROWS * 64;
    let mut g = c.benchmark_group("run_generation/nearly_sorted");
    g.throughput(Throughput::Elements(ROWS));
    g.sample_size(10);

    g.bench_function("replacement_selection", |b| {
        b.iter(|| {
            let runs = replacement_selection_runs(&rows, budget);
            // The point of the ablation: a handful of runs, not ~100.
            assert!(runs < 10, "expected few runs, got {runs}");
            black_box(runs)
        })
    });

    g.bench_function("load_sort_store", |b| {
        b.iter(|| {
            let cat = catalog();
            let mut gen = LoadSortStore::new(cat.clone(), budget);
            let mut obs = NoopObserver;
            for row in rows.iter().cloned() {
                gen.push(row, &mut obs).unwrap();
            }
            gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
            assert!(cat.len() > 50, "LSS should produce memory-sized runs");
            black_box(cat.len())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_generators, bench_nearly_sorted);
criterion_main!(benches);
