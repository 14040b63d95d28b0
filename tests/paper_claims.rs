//! Integration tests pinning the paper's quantitative claims on the *real*
//! operator (not the idealized model): spill reductions, distribution
//! insensitivity, the adversarial worst case, and agreement between the
//! analytical model and the production code path.

use histok::analysis::{simulate, ModelParams};
use histok::core::{
    FilterSites, HistogramTopK, OptimizedExternalTopK, RunGenKind, SizingPolicy, TopKConfig,
    TopKOperator, TraditionalExternalTopK,
};
use histok::sort::run_gen::ResiduePolicy;
use histok::storage::MemoryBackend;
use histok::types::{F64Key, SortSpec};
use histok::workload::{Distribution, Workload};

const INPUT: u64 = 300_000;
const MEM_ROWS: usize = 2_000;
const K: u64 = 10_000;

fn config(buckets: u32) -> TopKConfig {
    let sizing =
        if buckets == 0 { SizingPolicy::Disabled } else { SizingPolicy::TargetBuckets(buckets) };
    TopKConfig::builder().memory_budget(MEM_ROWS * 64).sizing(sizing).build().unwrap()
}

fn run_histogram(w: &Workload, buckets: u32) -> (u64, u64) {
    let mut op =
        HistogramTopK::new(SortSpec::ascending(K), config(buckets), MemoryBackend::new()).unwrap();
    for row in w.rows() {
        op.push(row).unwrap();
    }
    let n = op.finish().unwrap().count() as u64;
    assert_eq!(n, K);
    (op.metrics().rows_spilled(), op.metrics().runs())
}

#[test]
fn order_of_magnitude_spill_reduction_vs_traditional() {
    // §5.2/§5.3: up to 11-13x fewer rows spilled. At our scaled input/k
    // ratio (30x) we require at least 5x.
    let w = Workload::uniform(INPUT, 1);
    let (hist_spilled, _) = run_histogram(&w, 50);

    let mut trad: TraditionalExternalTopK<F64Key> =
        TraditionalExternalTopK::new(SortSpec::ascending(K), MEM_ROWS * 64, MemoryBackend::new())
            .unwrap();
    for row in w.rows() {
        trad.push(row).unwrap();
    }
    let n = trad.finish().unwrap().count() as u64;
    assert_eq!(n, K);
    let trad_spilled = trad.metrics().rows_spilled();

    assert!(trad_spilled >= INPUT, "traditional must spill everything");
    let reduction = trad_spilled as f64 / hist_spilled as f64;
    assert!(reduction >= 5.0, "only {reduction:.1}x spill reduction ({hist_spilled} rows)");
}

#[test]
fn beats_the_optimized_baseline_substantially() {
    // §3.2.1: "our algorithm will write 12x less input rows compared to the
    // optimized external merge sort". Scaled, we require ≥ 2.5x.
    let w = Workload::uniform(INPUT, 2);
    let (hist_spilled, _) = run_histogram(&w, 50);

    let mut opt =
        OptimizedExternalTopK::new(SortSpec::ascending(K), config(0), MemoryBackend::new())
            .unwrap();
    for row in w.rows() {
        opt.push(row).unwrap();
    }
    let n = opt.finish().unwrap().count() as u64;
    assert_eq!(n, K);
    let opt_spilled = opt.metrics().rows_spilled();
    let reduction = opt_spilled as f64 / hist_spilled as f64;
    assert!(
        reduction >= 2.5,
        "only {reduction:.1}x vs optimized baseline ({hist_spilled} vs {opt_spilled})"
    );
}

#[test]
fn distribution_does_not_affect_filtering() {
    // §5.2: "The distribution of the sort keys does not affect the
    // performance of our algorithm." Spill volumes across distributions
    // must agree within 25%.
    let mut volumes = Vec::new();
    for dist in [
        Distribution::Uniform,
        Distribution::Fal { shape: 0.5 },
        Distribution::Fal { shape: 1.25 },
        Distribution::Fal { shape: 1.5 },
        Distribution::lognormal_default(),
    ] {
        let w = Workload::uniform(INPUT, 3).with_distribution(dist);
        let (spilled, _) = run_histogram(&w, 50);
        volumes.push((dist.label(), spilled));
    }
    let min = volumes.iter().map(|v| v.1).min().unwrap() as f64;
    let max = volumes.iter().map(|v| v.1).max().unwrap() as f64;
    assert!(max / min < 1.25, "distribution-dependent spills: {volumes:?}");
}

#[test]
fn adversarial_input_eliminates_nothing_but_stays_correct() {
    // §5.5: strictly improving keys defeat the filter entirely.
    let w = Workload::uniform(100_000, 0).with_distribution(Distribution::Adversarial);
    let mut op =
        HistogramTopK::new(SortSpec::ascending(5_000), config(50), MemoryBackend::new()).unwrap();
    for row in w.rows() {
        op.push(row).unwrap();
    }
    let out: Vec<f64> = op.finish().unwrap().map(|r| r.unwrap().key.get()).collect();
    assert_eq!(out.len(), 5_000);
    assert_eq!(out[0], 1.0);
    let m = op.metrics();
    assert_eq!(m.eliminated_at_input, 0);
    assert_eq!(m.eliminated_at_spill, 0);
    // The filter still did its bookkeeping the whole time.
    assert!(m.filter.buckets_inserted > 0);
    assert!(m.filter.refinements > 0);
}

#[test]
fn real_operator_tracks_the_analytical_model() {
    // Drive the production operator with the model's exact setup (uniform
    // keys, load-sort-store, no tail buckets, B=10, residue spilled) and
    // compare spilled rows against the idealized prediction.
    let params =
        ModelParams { input_rows: 200_000, k: 5_000, memory_rows: 1_000, buckets_per_run: 10 };
    let predicted = simulate(params);

    let cfg = TopKConfig::builder()
        .memory_budget(params.memory_rows as usize * 56) // key-only rows
        .sizing(SizingPolicy::TargetBuckets(params.buckets_per_run))
        .tail_buckets(false)
        .run_generation(RunGenKind::LoadSortStore)
        .residue(ResiduePolicy::SpillToRuns)
        .build()
        .unwrap();
    let w = Workload::uniform(params.input_rows, 7);
    let mut op =
        HistogramTopK::new(SortSpec::ascending(params.k), cfg, MemoryBackend::new()).unwrap();
    for row in w.rows() {
        op.push(row).unwrap();
    }
    let n = op.finish().unwrap().count() as u64;
    assert_eq!(n, params.k);

    let measured = op.metrics().rows_spilled();
    let ratio = measured as f64 / predicted.rows_spilled as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "real operator spilled {measured}, model predicted {} (ratio {ratio:.2})",
        predicted.rows_spilled
    );
}

#[test]
fn replacement_selection_exploits_presorted_input() {
    // §2.5 / §3.1.3: replacement selection keeps runs open while input
    // keeps arriving in roughly ascending order; on nearly sorted data it
    // produces a handful of long runs where load-sort-store produces one
    // run per memory load.
    let w = Workload::uniform(100_000, 9)
        .with_distribution(Distribution::NearlySorted { disorder: 500 });
    let run_with = |kind| {
        let cfg = TopKConfig::builder()
            .memory_budget(2_000 * 64)
            .run_generation(kind)
            .limit_run_size(false)
            .build()
            .unwrap();
        let mut op =
            HistogramTopK::new(SortSpec::ascending(20_000), cfg, MemoryBackend::new()).unwrap();
        for row in w.rows() {
            op.push(row).unwrap();
        }
        let n = op.finish().unwrap().count();
        assert_eq!(n, 20_000);
        op.metrics().runs()
    };
    let rs_runs = run_with(RunGenKind::ReplacementSelection);
    let lss_runs = run_with(RunGenKind::LoadSortStore);
    assert!(
        rs_runs * 4 <= lss_runs,
        "replacement selection made {rs_runs} runs vs load-sort-store {lss_runs}"
    );
}

#[test]
fn more_buckets_spill_less_on_the_real_operator() {
    // Table 2's trend on the production code path.
    let w = Workload::uniform(INPUT, 4);
    let (s1, _) = run_histogram(&w, 1);
    let (s10, _) = run_histogram(&w, 10);
    let (s100, _) = run_histogram(&w, 100);
    assert!(s10 < s1, "10 buckets ({s10}) should beat 1 ({s1})");
    assert!(s100 <= s10 + s10 / 10, "100 buckets ({s100}) should not lose to 10 ({s10})");
}

#[test]
fn each_filter_site_cuts_rows_spilled() {
    // DESIGN.md §6's filter ablation on the real operator. Filtering at
    // spill time only can shift run boundaries a little (doomed rows hold
    // workspace until they die at spill time), so the full filter gets 10 %
    // slack against it; against no filter it must spill under a quarter.
    let w = Workload::uniform(100_000, 4242);
    let spilled = |filter| {
        let cfg = TopKConfig::builder()
            .memory_budget(1_000 * 64)
            .sizing(SizingPolicy::TargetBuckets(50))
            .filter(filter)
            .build()
            .unwrap();
        let mut op =
            HistogramTopK::new(SortSpec::ascending(5_000), cfg, MemoryBackend::new()).unwrap();
        for row in w.rows() {
            op.push(row).unwrap();
        }
        assert_eq!(op.finish().unwrap().count(), 5_000);
        op.metrics().rows_spilled()
    };
    let full = spilled(FilterSites::InputAndSpill);
    let spill_only = spilled(FilterSites::SpillOnly);
    let off = spilled(FilterSites::Off);
    assert!(full <= spill_only + spill_only / 10, "full {full} vs spill-only {spill_only}");
    assert!(spill_only <= off, "spill-only {spill_only} vs off {off}");
    assert!(full * 4 < off, "the filter barely helped: {full} vs {off}");
}

/// Goldens for the three external algorithms on one uniform input: rows
/// spilled, runs created, bytes written, early merges, bytes read and read
/// requests at `k` = mem/2, 2·mem and 8·mem (Figures 2–6 vary exactly
/// these). Each algorithm is a recipe of one operator, so any change to the
/// shared skeleton that moves a baseline's I/O shows here, not only in the
/// figures.
#[test]
fn spill_counts_of_each_algorithm_are_pinned() {
    const ROWS: u64 = 40_000;
    const MEM: u64 = 500;
    let w = Workload::uniform(ROWS, 42);
    let config = TopKConfig::builder().memory_budget(MEM as usize * 64).build().unwrap();
    let counts = |k: u64, mut op: Box<dyn TopKOperator<F64Key>>| {
        for row in w.rows() {
            op.push(row).unwrap();
        }
        let keys: Vec<F64Key> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        let mut oracle: Vec<F64Key> = w.rows().map(|r| r.key).collect();
        oracle.sort();
        assert_eq!(keys, oracle[..k as usize], "{}", op.algorithm());
        let m = op.metrics();
        [
            m.rows_spilled(),
            m.runs(),
            m.io.bytes_written,
            m.early_merges,
            m.io.bytes_read,
            m.io.read_ops,
        ]
    };
    let mut got = Vec::new();
    for k in [MEM / 2, 2 * MEM, 8 * MEM] {
        let spec = SortSpec::ascending(k);
        let backend = MemoryBackend::new;
        got.push(counts(k, Box::new(HistogramTopK::new(spec, config.clone(), backend()).unwrap())));
        let optimized = OptimizedExternalTopK::new(spec, config.clone(), backend()).unwrap();
        got.push(counts(k, Box::new(optimized)));
        let traditional =
            TraditionalExternalTopK::new(spec, config.memory_budget, backend()).unwrap();
        got.push(counts(k, Box::new(traditional)));
    }
    // [rows spilled, runs, bytes written, early merges, bytes read, read
    // requests]; per k: histogram, optimized, traditional. Reads repeated
    // exactly over 100 release runs, half of them beside a second copy.
    let want: [[u64; 6]; 9] = [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [40_000, 71, 481_136, 0, 481_136, 71],
        [3_978, 7, 47_848, 0, 47_848, 7],
        [17_536, 34, 210_976, 0, 210_976, 34],
        [40_000, 71, 481_136, 0, 481_136, 71],
        [12_612, 14, 151_568, 0, 151_568, 14],
        [28_735, 24, 345_204, 1, 481_172, 32],
        [40_000, 71, 481_136, 0, 481_136, 71],
    ];
    assert_eq!(got, want);
}
