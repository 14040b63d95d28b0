//! Differential grid: the cascade planner must be invisible in the
//! output.
//!
//! Every {key type} × {sort order} × {filter on/off} cell writes the
//! same 96-run catalog, merges it once in a single giant-fan-in pass
//! (the baseline — no intermediate merges at all), and then replays it
//! through [`plan_merges`] at fan_in ∈ {2, 4, 64}.
//!
//! Keys are duplicate-heavy (~37 distinct values over 5 760 rows), so
//! runs of equal keys straddle group and pass boundaries — exactly
//! where a cascade that merged the wrong groups, dropped a pass-through
//! singleton, or double-counted a survivor would diverge. Every row
//! carries a unique payload (its run and position), so each check is on
//! row identity, not just on keys:
//!
//! * the key sequence equals the baseline's;
//! * every key group the output holds in full carries exactly the
//!   baseline's rows for that key, and a group cut by the limit carries
//!   distinct rows of that key only;
//! * a second cascade over a fresh copy of the catalog yields the same
//!   bytes, payloads included. Which equal-key row wins a tie is a
//!   function of the cascade's merge structure (loser trees prefer the
//!   lower source index), never of timing.

use std::collections::BTreeMap;
use std::sync::Arc;

use histok_sort::{merge_sources, open_source, plan_merges, MergeConfig, MergeTuning};
use histok_storage::{IoStats, MemoryBackend, RunCatalog, RunMeta};
use histok_types::{BytesKey, F64Key, Result, Row, SortKey, SortOrder};
use rand::{rngs::StdRng, Rng, SeedableRng};

const RUNS: usize = 96;
const ROWS_PER_RUN: usize = 60;
const LIMIT: u64 = 200;
const DISTINCT: u64 = 37;

/// Keys derived from a small seed space, so duplicates are plentiful.
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

/// Unique per input row.
fn payload(run: usize, row: usize) -> Vec<u8> {
    format!("run-{run:02}-row-{row:02}").into_bytes()
}

fn fresh_catalog<K: GridKey>(order: SortOrder) -> RunCatalog<K> {
    let cat = RunCatalog::new(Arc::new(MemoryBackend::new()), "cd", order, IoStats::new())
        .with_block_bytes(256);
    let mut rng = StdRng::seed_from_u64(0xCA5CADE);
    for run in 0..RUNS {
        let mut seeds: Vec<u64> = (0..ROWS_PER_RUN).map(|_| rng.gen_range(0..DISTINCT)).collect();
        seeds.sort_by(|a, b| order.cmp_keys(&K::from_seed(*a), &K::from_seed(*b)));
        let mut w = cat.start_run().unwrap();
        for (row, s) in seeds.into_iter().enumerate() {
            w.append(&Row::new(K::from_seed(s), payload(run, row))).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
    }
    cat
}

/// Drains `runs` through one loser-tree merge, in the given order.
fn drain<K: SortKey>(cat: &RunCatalog<K>, runs: &[RunMeta<K>]) -> Vec<Row<K>> {
    let tuning = MergeTuning::default();
    let sources = runs.iter().map(|m| open_source(cat, m).unwrap()).collect();
    let tree = merge_sources(sources, cat.order(), &tuning).unwrap();
    tree.collect::<Result<Vec<Row<K>>>>().unwrap()
}

/// The cascade at `fan_in` over a fresh catalog, then the final merge,
/// cut to `take` rows.
fn cascade<K: GridKey>(
    label: &str,
    order: SortOrder,
    fan_in: usize,
    limit: Option<u64>,
    take: usize,
) -> Vec<Row<K>> {
    let cat = fresh_catalog::<K>(order);
    let config = MergeConfig { fan_in, ..MergeConfig::default() };
    let (final_runs, stats) =
        plan_merges(&cat, &config, limit, None, &MergeTuning::default()).unwrap();
    assert!(final_runs.len() <= fan_in, "{label}: F={fan_in} left {} runs", final_runs.len());
    if fan_in < RUNS {
        assert!(
            stats.merge_passes > 0 && stats.intermediate_merges > 0,
            "{label}: F={fan_in} cascade never merged: {stats:?}"
        );
    } else {
        assert_eq!(stats.merge_passes, 0, "{label}: F={fan_in} fits, yet passes ran: {stats:?}");
    }
    let mut out = drain(&cat, &final_runs);
    out.truncate(take);
    out
}

fn cascade_differential<K: GridKey>(label: &str, order: SortOrder, filter: bool) {
    let limit = filter.then_some(LIMIT);
    let take = if filter { LIMIT as usize } else { RUNS * ROWS_PER_RUN };

    // Baseline: one pass over all 96 original runs, no cascade at all.
    let base_cat = fresh_catalog::<K>(order);
    let full = drain(&base_cat, &base_cat.runs());
    let mut by_key: BTreeMap<K, Vec<&[u8]>> = BTreeMap::new();
    for row in &full {
        by_key.entry(row.key.clone()).or_default().push(&row.payload);
    }
    let baseline = &full[..take];

    for fan_in in [2usize, 4, 64] {
        let out = cascade::<K>(label, order, fan_in, limit, take);
        assert_eq!(baseline.len(), out.len(), "{label}: F={fan_in} row counts diverged");
        for (i, (a, b)) in baseline.iter().zip(&out).enumerate() {
            assert_eq!(a.key, b.key, "{label}: F={fan_in} key diverged at row {i}");
        }
        let groups: Vec<&[Row<K>]> = out.chunk_by(|a, b| a.key == b.key).collect();
        for (g, group) in groups.iter().enumerate() {
            let key = &group[0].key;
            let mut got: Vec<&[u8]> = group.iter().map(|r| &r.payload[..]).collect();
            got.sort_unstable();
            let mut want = by_key[key].clone();
            want.sort_unstable();
            // With a limit, the last key group may be cut mid-way.
            if filter && g + 1 == groups.len() {
                got.dedup();
                assert_eq!(got.len(), group.len(), "{label}: F={fan_in} duplicated a row");
                assert!(
                    got.iter().all(|p| want.binary_search(p).is_ok()),
                    "{label}: F={fan_in} emitted a row of another key at {key:?}"
                );
            } else {
                assert_eq!(got, want, "{label}: F={fan_in} lost or duplicated rows of {key:?}");
            }
        }
        let again = cascade::<K>(label, order, fan_in, limit, take);
        assert!(out == again, "{label}: F={fan_in} tie-breaks differ between two cascades");
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
