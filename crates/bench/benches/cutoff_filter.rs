//! Microbenchmarks of the cutoff filter — the per-row costs that §5.5
//! bounds: bucket insertion (with sharpening pops), the `eliminate` test on
//! the input hot path, consolidation under a tiny queue budget, and the
//! distinct tracker's three verdicts in `zipf_dedup`'s steady state.

use std::collections::BTreeSet;

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use histok_core::{Bucket, CutoffFilter, DistinctVerdict, SizingPolicy};
use histok_sort::SpillObserver;
use histok_types::{F64Key, SortOrder};
use histok_workload::{Distribution, Workload};

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("cutoff_filter/insert_bucket");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("10k_buckets_k1000", |b| {
        b.iter(|| {
            let mut f: CutoffFilter<u64> = CutoffFilter::new(1_000, SortOrder::Ascending);
            for i in 0..10_000u64 {
                // Boundaries descend: every insert sharpens.
                f.insert_bucket(Bucket::new(1_000_000 - i * 7, 100));
            }
            black_box(f.cutoff().copied())
        })
    });
    g.finish();
}

fn bench_eliminate(c: &mut Criterion) {
    let mut f: CutoffFilter<u64> = CutoffFilter::new(100, SortOrder::Ascending);
    for i in 0..200u64 {
        f.insert_bucket(Bucket::new(10_000 - i, 10));
    }
    assert!(f.established());
    let mut g = c.benchmark_group("cutoff_filter/eliminate");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("hot_path_1k_keys", |b| {
        b.iter(|| {
            let mut kills = 0u32;
            for key in 0..1_000u64 {
                if f.eliminate(black_box(&(key * 13))) {
                    kills += 1;
                }
            }
            black_box(kills)
        })
    });
    g.finish();
}

fn bench_consolidation(c: &mut Criterion) {
    let mut g = c.benchmark_group("cutoff_filter/consolidation");
    g.throughput(Throughput::Elements(10_000));
    for budget in [256usize, 1024 * 1024] {
        g.bench_function(format!("queue_budget_{budget}B"), |b| {
            b.iter(|| {
                let mut f: CutoffFilter<u64> =
                    CutoffFilter::new(1_000, SortOrder::Ascending).with_memory_budget(budget);
                for i in 0..10_000u64 {
                    f.insert_bucket(Bucket::new(1_000_000 - i, 1));
                }
                black_box(f.metrics().consolidations)
            })
        });
    }
    g.finish();
}

fn bench_observer_path(c: &mut Criterion) {
    // The full spill-observer path on an adversarial stream: sharpens
    // constantly, eliminates nothing — the §5.5 worst case, per row.
    let mut g = c.benchmark_group("cutoff_filter/observer_adversarial");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("100k_rows", |b| {
        b.iter(|| {
            let mut f: CutoffFilter<u64> = CutoffFilter::with_policy(
                1_000,
                SortOrder::Ascending,
                SizingPolicy::TargetBuckets(50),
            );
            for run in 0..50u64 {
                f.run_started(2_000);
                for j in 0..2_000u64 {
                    let key = (50 - run) * 1_000_000 + j;
                    if !f.should_eliminate(&key) {
                        f.row_spilled(&key);
                    }
                }
                f.run_finished();
            }
            black_box(f.metrics().buckets_inserted)
        })
    });
    g.finish();
}

fn bench_observe_input(c: &mut Criterion) {
    // `zipf_dedup`'s tracker in its steady state: the best 60,000 distinct
    // keys of 1.5 M Zipf(1.2, 400k) rows. Every row of that stream is then a
    // `Duplicate` or a `Worse`, neither of which changes the tracker; the
    // last 500 k are the probes, in arrival order (hot keys recur).
    const TARGET: usize = 60_000;
    let keys: Vec<F64Key> = Workload::uniform(1_500_000, 42)
        .with_distribution(Distribution::Zipf { s: 1.2, n: 400_000 })
        .keys()
        .collect();
    let distinct: BTreeSet<F64Key> = keys.iter().copied().collect();
    let tracked: Vec<F64Key> = distinct.into_iter().take(TARGET).collect();
    let steady = || {
        let mut f: CutoffFilter<F64Key> =
            CutoffFilter::new(TARGET as u64, SortOrder::Ascending).with_distinct_tracking();
        tracked.iter().for_each(|key| assert_eq!(f.observe_input(key), DistinctVerdict::Admit));
        f
    };
    let mut f = steady();
    let (mut duplicate, worse): (Vec<F64Key>, Vec<F64Key>) = keys[1_000_000..]
        .iter()
        .partition(|key| f.observe_input(key) == DistinctVerdict::Duplicate);
    duplicate.truncate(100_000);

    let mut g = c.benchmark_group("cutoff_filter/observe_input");
    for (name, probes, verdict) in [
        ("duplicate", &duplicate, DistinctVerdict::Duplicate),
        ("worse", &worse, DistinctVerdict::Worse),
    ] {
        g.throughput(Throughput::Elements(probes.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                let hits = probes.iter().filter(|key| f.observe_input(key) == verdict).count();
                assert_eq!(hits, probes.len());
            })
        });
    }
    // An evicting `Admit` changes the tracker, so each batch starts from the
    // steady state again. The probes are first sightings (the tracked keys
    // are whole numbers) spread over the better two thirds of the tracked
    // range, so all 10,000 stay ahead of the worst key as it retreats.
    let fresh: Vec<F64Key> =
        (0..10_000).map(|i| F64Key(tracked[i * 7_919 % 40_000].get() + 0.5)).collect();
    g.throughput(Throughput::Elements(fresh.len() as u64));
    g.bench_function("admit_evicting", |b| {
        b.iter_batched(
            steady,
            |mut f| {
                let hits = fresh
                    .iter()
                    .filter(|key| f.observe_input(key) == DistinctVerdict::Admit)
                    .count();
                assert_eq!(hits, fresh.len());
                f
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_insert, bench_eliminate, bench_consolidation, bench_observer_path,
        bench_observe_input
}
criterion_main!(benches);
