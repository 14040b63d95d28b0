//! Differential grid: the cascade planner must be invisible in the
//! output.
//!
//! Every {key type} × {sort order} × {filter on/off} cell writes the
//! same 96-run catalog, merges it once in a single giant-fan-in pass
//! (the baseline — no intermediate merges at all), and then replays it
//! through [`plan_merges_cascade`] across fan_in ∈ {2, 4, 64} ×
//! workers ∈ {1, 4}, asserting byte-identical output every time.
//!
//! Keys are duplicate-heavy (~37 distinct values over 5 760 rows), so
//! runs of equal keys straddle group and pass boundaries — exactly
//! where a cascade that merged the wrong groups, dropped a pass-through
//! singleton, or double-counted a survivor would diverge. Payloads are
//! *key-derived* (equal keys ⇒ equal payloads): with `workers > 1` and
//! a `limit`, concurrent merges publish cutoff refinements in
//! completion order, so which physical row wins an equal-key tie is
//! timing-dependent — but with indistinguishable duplicates the byte
//! sequence is still uniquely determined, which is precisely the
//! guarantee the cascade owes its callers.

use std::sync::Arc;

use histok_sort::{
    merge_sources_tuned, open_source, plan_merges_cascade, MergeConfig, MergeTuning,
};
use histok_storage::{IoStats, MemoryBackend, RunCatalog, RunMeta};
use histok_types::{BytesKey, F64Key, Result, Row, SortKey, SortOrder};
use rand::{rngs::StdRng, Rng, SeedableRng};

const RUNS: usize = 96;
const ROWS_PER_RUN: usize = 60;
const LIMIT: u64 = 200;
const DISTINCT: u64 = 37;

/// Key (and payload) derived from a small seed space, so duplicates are
/// plentiful and byte-indistinguishable.
trait GridKey: SortKey {
    fn from_seed(seed: u64) -> Self;
}

impl GridKey for u64 {
    fn from_seed(seed: u64) -> Self {
        seed
    }
}

impl GridKey for F64Key {
    fn from_seed(seed: u64) -> Self {
        F64Key(seed as f64 * 2.5 - 37.5)
    }
}

impl GridKey for BytesKey {
    fn from_seed(seed: u64) -> Self {
        BytesKey::new(format!("shared-prefix-{seed:04}"))
    }
}

fn payload(seed: u64) -> Vec<u8> {
    format!("payload-for-{seed:04}").into_bytes()
}

fn fresh_catalog<K: GridKey>(order: SortOrder) -> RunCatalog<K> {
    let cat = RunCatalog::new(Arc::new(MemoryBackend::new()), "cd", order, IoStats::new())
        .with_block_bytes(256);
    let mut rng = StdRng::seed_from_u64(0xCA5CADE);
    for _ in 0..RUNS {
        let mut seeds: Vec<u64> = (0..ROWS_PER_RUN).map(|_| rng.gen_range(0..DISTINCT)).collect();
        seeds.sort_by(|a, b| order.cmp_keys(&K::from_seed(*a), &K::from_seed(*b)));
        let mut w = cat.start_run().unwrap();
        for s in seeds {
            w.append(&Row::new(K::from_seed(s), payload(s))).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }
    cat
}

/// Drains `runs` through one loser-tree merge, in the given order.
fn drain<K: SortKey>(cat: &RunCatalog<K>, runs: &[RunMeta<K>]) -> Vec<Row<K>> {
    let tuning = MergeTuning::default();
    let sources = runs.iter().map(|m| open_source(cat, m).unwrap()).collect();
    let tree = merge_sources_tuned(sources, cat.order(), &tuning).unwrap();
    tree.collect::<Result<Vec<Row<K>>>>().unwrap()
}

fn cascade_differential<K: GridKey>(label: &str, order: SortOrder, filter: bool) {
    let limit = filter.then_some(LIMIT);
    let take = if filter { LIMIT as usize } else { RUNS * ROWS_PER_RUN };

    // Baseline: one pass over all 96 original runs, no cascade at all.
    let base_cat = fresh_catalog::<K>(order);
    let mut baseline = drain(&base_cat, &base_cat.runs());
    baseline.truncate(take);
    assert_eq!(baseline.len(), take, "{label}: baseline short");

    for fan_in in [2usize, 4, 64] {
        for workers in [1usize, 4] {
            let cat = fresh_catalog::<K>(order);
            let config = MergeConfig { fan_in, ..MergeConfig::default() };
            let (final_runs, stats) =
                plan_merges_cascade(&cat, &config, limit, None, &MergeTuning::default(), workers)
                    .unwrap();
            assert!(
                final_runs.len() <= fan_in,
                "{label}: F={fan_in} W={workers} left {} runs",
                final_runs.len()
            );
            if fan_in < RUNS {
                assert!(
                    stats.merge_passes > 0 && stats.intermediate_merges > 0,
                    "{label}: F={fan_in} W={workers} cascade never merged: {stats:?}"
                );
            } else {
                assert_eq!(
                    stats.merge_passes, 0,
                    "{label}: F={fan_in} fits, yet passes ran: {stats:?}"
                );
            }
            let mut out = drain(&cat, &final_runs);
            out.truncate(take);
            assert_eq!(
                baseline.len(),
                out.len(),
                "{label}: F={fan_in} W={workers} row counts diverged"
            );
            for (i, (a, b)) in baseline.iter().zip(&out).enumerate() {
                assert_eq!(a.key, b.key, "{label}: F={fan_in} W={workers} key diverged at row {i}");
                assert_eq!(
                    a.payload, b.payload,
                    "{label}: F={fan_in} W={workers} payload diverged at row {i}"
                );
            }
        }
    }
}

macro_rules! grid_cell {
    ($name:ident, $key:ty, $order:expr, $filter:expr) => {
        #[test]
        fn $name() {
            let label = concat!(
                stringify!($key),
                " / ",
                stringify!($order),
                " / filter=",
                stringify!($filter)
            );
            cascade_differential::<$key>(label, $order, $filter);
        }
    };
}

grid_cell!(u64_ascending_filtered, u64, SortOrder::Ascending, true);
grid_cell!(u64_ascending_unfiltered, u64, SortOrder::Ascending, false);
grid_cell!(u64_descending_filtered, u64, SortOrder::Descending, true);
grid_cell!(u64_descending_unfiltered, u64, SortOrder::Descending, false);
grid_cell!(f64_ascending_filtered, F64Key, SortOrder::Ascending, true);
grid_cell!(f64_ascending_unfiltered, F64Key, SortOrder::Ascending, false);
grid_cell!(f64_descending_filtered, F64Key, SortOrder::Descending, true);
grid_cell!(f64_descending_unfiltered, F64Key, SortOrder::Descending, false);
grid_cell!(bytes_ascending_filtered, BytesKey, SortOrder::Ascending, true);
grid_cell!(bytes_ascending_unfiltered, BytesKey, SortOrder::Ascending, false);
grid_cell!(bytes_descending_filtered, BytesKey, SortOrder::Descending, true);
grid_cell!(bytes_descending_unfiltered, BytesKey, SortOrder::Descending, false);
