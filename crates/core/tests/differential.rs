//! Differential testing: `HistogramTopK` vs `ParallelTopK` vs a sorted
//! in-memory oracle, across the full configuration grid
//! {asc, desc} × {filter on/off} × {approx_slack 0, 0.1} × both residue
//! policies, over seeded (deterministic) shuffled inputs with duplicate
//! keys.
//!
//! Exact configurations must match the oracle row-for-row. Approximate
//! configurations (ε > 0) must still produce the exact best ⌈k·(1−ε)⌉
//! rows as a prefix (§4.5), in order, with at most `k` rows total.

use histok_core::{FilterSites, HistogramTopK, ParallelTopK, TopKConfig, TopKOperator};
use histok_sort::run_gen::ResiduePolicy;
use histok_storage::MemoryBackend;
use histok_types::{Row, SortOrder, SortSpec};
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

const INPUT: u64 = 12_000;
const K: u64 = 600;
const MEM_ROWS: usize = 120;
const THREADS: usize = 3;
const SLACK: f64 = 0.1;

/// Shuffled keys with duplicates (each value appears ~3 times), so ties
/// cross run and worker boundaries.
fn workload(seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..INPUT).map(|i| i / 3).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(seed));
    keys
}

fn oracle(keys: &[u64], order: SortOrder, k: usize) -> Vec<u64> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    if order == SortOrder::Descending {
        sorted.reverse();
    }
    sorted.truncate(k);
    sorted
}

fn config(filter: bool, slack: f64, residue: ResiduePolicy) -> TopKConfig {
    TopKConfig::builder()
        .memory_budget(MEM_ROWS * 60)
        .block_bytes(1024)
        .filter(if filter { FilterSites::InputAndSpill } else { FilterSites::Off })
        .approx_slack(slack)
        .residue(residue)
        .build()
        .expect("valid grid config")
}

fn drain(mut op: impl TopKOperator<u64>, keys: &[u64]) -> Vec<u64> {
    for &k in keys {
        op.push(Row::key_only(k)).expect("push");
    }
    op.finish().expect("finish").map(|r| r.expect("row").key).collect()
}

/// Exact runs must equal the oracle; approximate runs must produce the
/// guaranteed prefix exactly and never exceed `k` rows.
fn check(label: &str, got: &[u64], expected: &[u64], order: SortOrder, slack: f64) {
    if slack == 0.0 {
        assert_eq!(got, expected, "{label}: exact output diverged from the oracle");
        return;
    }
    let guaranteed = ((K as f64) * (1.0 - slack)).ceil() as usize;
    assert!(
        got.len() >= guaranteed && got.len() <= K as usize,
        "{label}: {} rows outside [{guaranteed}, {K}]",
        got.len()
    );
    assert_eq!(
        &got[..guaranteed],
        &expected[..guaranteed],
        "{label}: guaranteed ⌈k(1−ε)⌉-prefix diverged from the oracle"
    );
    // Best-effort tail: still in output order.
    for w in got.windows(2) {
        let ordered = match order {
            SortOrder::Ascending => w[0] <= w[1],
            SortOrder::Descending => w[0] >= w[1],
        };
        assert!(ordered, "{label}: output out of order");
    }
}

#[test]
fn histogram_and_parallel_match_the_oracle_across_the_grid() {
    for seed in [11u64, 23] {
        let keys = workload(seed);
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let spec = match order {
                SortOrder::Ascending => SortSpec::ascending(K),
                SortOrder::Descending => SortSpec::descending(K),
            };
            let expected = oracle(&keys, order, K as usize);
            for filter in [true, false] {
                for slack in [0.0, SLACK] {
                    for residue in [ResiduePolicy::SpillToRuns, ResiduePolicy::KeepInMemory] {
                        let label = format!(
                            "seed={seed} order={order:?} filter={filter} \
                             slack={slack} residue={residue:?}"
                        );
                        let cfg = config(filter, slack, residue);
                        let hist = drain(
                            HistogramTopK::new(spec, cfg.clone(), MemoryBackend::new())
                                .expect("histogram operator"),
                            &keys,
                        );
                        check(&format!("histogram {label}"), &hist, &expected, order, slack);
                        let par = drain(
                            ParallelTopK::new(spec, cfg, MemoryBackend::new(), THREADS)
                                .expect("parallel operator"),
                            &keys,
                        );
                        check(&format!("parallel {label}"), &par, &expected, order, slack);
                        if slack == 0.0 {
                            assert_eq!(hist, par, "histogram vs parallel diverged ({label})");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn filter_disabled_still_exact_with_duplicate_heavy_input() {
    // All-duplicates input: every key equal, cutoff can never sharpen.
    let keys = vec![7u64; 3_000];
    let spec = SortSpec::ascending(100);
    for residue in [ResiduePolicy::SpillToRuns, ResiduePolicy::KeepInMemory] {
        let cfg = config(true, 0.0, residue);
        let hist =
            drain(HistogramTopK::new(spec, cfg.clone(), MemoryBackend::new()).unwrap(), &keys);
        let par =
            drain(ParallelTopK::new(spec, cfg, MemoryBackend::new(), THREADS).unwrap(), &keys);
        assert_eq!(hist, vec![7u64; 100]);
        assert_eq!(par, vec![7u64; 100]);
    }
}
