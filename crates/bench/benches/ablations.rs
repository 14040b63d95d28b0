//! Ablation benches for the design choices called out in DESIGN.md §6:
//! tail buckets, spill-time re-check, input-side filtering, run-generation
//! strategy, and the consolidation budget. Each variant runs the same
//! scaled workload; differences show up as time and (asserted) spill
//! volume.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use histok_bench::{run_topk, BackendKind};
use histok_core::{FilterSites, RunGenKind, SizingPolicy, TopKConfig, TopKConfigBuilder};
use histok_exec::Algorithm;
use histok_types::SortSpec;
use histok_workload::Workload;

const INPUT: u64 = 200_000;
const MEM_ROWS: usize = 1_000;
const K: u64 = 5_000;

fn base_config() -> TopKConfigBuilder {
    TopKConfig::builder().memory_budget(MEM_ROWS * 64).sizing(SizingPolicy::TargetBuckets(50))
}

fn run_with(config: TopKConfig) -> u64 {
    let w = Workload::uniform(INPUT, 4242);
    let out =
        run_topk(Algorithm::Histogram, &w, SortSpec::ascending(K), config, BackendKind::Memory)
            .unwrap();
    assert_eq!(out.output_rows, K);
    out.metrics.rows_spilled()
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.throughput(Throughput::Elements(INPUT));
    g.sample_size(10);

    let variants: Vec<(&str, TopKConfig)> = vec![
        ("full_default", base_config().build().unwrap()),
        ("no_tail_buckets", base_config().tail_buckets(false).build().unwrap()),
        ("no_spill_recheck", base_config().filter(FilterSites::InputOnly).build().unwrap()),
        ("no_input_filter", base_config().filter(FilterSites::SpillOnly).build().unwrap()),
        (
            "load_sort_store",
            base_config().run_generation(RunGenKind::LoadSortStore).build().unwrap(),
        ),
        ("no_run_limit", base_config().limit_run_size(false).build().unwrap()),
        ("tiny_queue_1KiB", base_config().histogram_memory(1024).build().unwrap()),
        ("filter_off", base_config().filter(FilterSites::Off).build().unwrap()),
    ];

    for (name, config) in variants {
        g.bench_function(name, |b| {
            b.iter(|| black_box(run_with(config.clone())));
        });
    }
    g.finish();
}

fn bench_spill_volume_report(c: &mut Criterion) {
    // Not a timing bench: one pass per variant so the spill volumes land in
    // the bench log for EXPERIMENTS.md.
    let mut g = c.benchmark_group("ablations/spill_rows");
    g.sample_size(10);
    g.bench_function("report_once", |b| {
        b.iter(|| {
            let full = run_with(base_config().build().unwrap());
            let no_input = run_with(base_config().filter(FilterSites::SpillOnly).build().unwrap());
            let off = run_with(base_config().filter(FilterSites::Off).build().unwrap());
            // Filtering layers reduce spill volume in aggregate. The
            // input-filter ablation can shift run boundaries a little
            // (doomed rows occupy workspace before dying at spill time),
            // so allow a few percent of noise; the full-off comparison is
            // the order-of-magnitude one.
            assert!(full <= no_input + no_input / 10, "{full} vs {no_input}");
            assert!(no_input <= off, "{no_input} vs {off}");
            assert!(full * 4 < off, "filter barely helped: {full} vs {off}");
            black_box((full, no_input, off))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ablations, bench_spill_volume_report);
criterion_main!(benches);
