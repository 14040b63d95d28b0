//! Differential testing of in-sort duplicate folding (DESIGN.md §14):
//! dedup and SUM-aggregate queries across the full configuration grid
//! {u64, F64Key, BytesKey, KeyPair} × {asc, desc} × {filter on/off} ×
//! {cascade fan-in 2, 64}, against a post-hoc oracle (plain full sort
//! through the same machinery, folded afterwards in test code). Outputs
//! must be byte-identical — keys AND accumulator payloads. Dedup is asked
//! for both ways, `dedup(true)` and `aggregate(First)`: the two must agree
//! row for row and count for count. (Merge batch sizes are varied one
//! layer down, in `histok-sort`'s `batched_differential`.)

use histok_core::{
    FilterSites, HistogramTopK, OperatorMetrics, TopKConfig, TopKConfigBuilder, TopKOperator,
};
use histok_storage::MemoryBackend;
use histok_types::{encode_f64, AggregateOp, BytesKey, F64Key, KeyPair, Row, SortKey, SortSpec};
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

const DISTINCT: u64 = 150;
const REPS: u64 = 6;
const K: u64 = 60;
const BUDGET: usize = 2048;

/// Shuffled (group, occurrence) pairs: every group 0..DISTINCT appears
/// REPS times, arrival order random but seeded.
fn arrivals(seed: u64) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> =
        (0..DISTINCT).flat_map(|v| (0..REPS).map(move |j| (v, j))).collect();
    pairs.shuffle(&mut StdRng::seed_from_u64(seed));
    pairs
}

/// Dedup inputs: all duplicates of a group share one payload, so FIRST
/// is deterministic and byte-comparison meaningful.
fn dedup_payload(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// SUM inputs: per-occurrence integer values — exact in f64 under any
/// fold order, so the accumulator bytes are deterministic.
fn sum_term(v: u64, j: u64) -> f64 {
    (v % 11 + j) as f64
}

fn group_sum(v: u64) -> f64 {
    (0..REPS).map(|j| sum_term(v, j)).sum()
}

/// Groups in output order for (ascending?) truncated to k.
fn expected_groups(ascending: bool) -> Vec<u64> {
    let mut vs: Vec<u64> = (0..DISTINCT).collect();
    if !ascending {
        vs.reverse();
    }
    vs.truncate(K as usize);
    vs
}

fn config(filter: bool, fan_in: usize) -> TopKConfigBuilder {
    TopKConfig::builder()
        .memory_budget(BUDGET)
        .block_bytes(1024)
        .filter(if filter { FilterSites::InputAndSpill } else { FilterSites::Off })
        .fan_in(fan_in)
}

/// Every counter of one execution (no timings).
fn counts(m: &OperatorMetrics) -> Vec<u64> {
    vec![
        m.rows_in,
        m.eliminated_at_input,
        m.eliminated_at_spill,
        m.io.rows_written,
        m.io.bytes_written,
        m.io.runs_created,
        m.io.rows_read,
        m.filter.buckets_inserted,
        m.filter.eliminated_at_spill,
        m.cascade.merge_passes,
        m.cascade.intermediate_merges,
        m.cascade.runs_pruned,
        m.rows_folded,
        m.bytes_folded_pre_spill,
    ]
}

fn run<K2: SortKey + std::fmt::Debug>(
    spec: SortSpec,
    cfg: TopKConfig,
    rows: Vec<Row<K2>>,
) -> (Vec<(K2, Vec<u8>)>, OperatorMetrics) {
    let mut op = HistogramTopK::new(spec, cfg, MemoryBackend::new()).expect("operator");
    for r in rows {
        op.push(r).expect("push");
    }
    let out = op
        .finish()
        .expect("finish")
        .map(|r| {
            let r = r.expect("row");
            let payload = r.payload.to_vec();
            (r.key, payload)
        })
        .collect();
    (out, op.metrics())
}

fn grid_for_key<K2, F>(type_label: &str, make_key: F)
where
    K2: SortKey + std::fmt::Debug,
    F: Fn(u64) -> K2 + Copy,
{
    let pairs = arrivals(41);
    for ascending in [true, false] {
        let spec = if ascending { SortSpec::ascending(K) } else { SortSpec::descending(K) };
        let full = if ascending {
            SortSpec::ascending(DISTINCT * REPS)
        } else {
            SortSpec::descending(DISTINCT * REPS)
        };
        let groups = expected_groups(ascending);

        // Post-hoc oracle: plain (fold-free) full sort through the same
        // operator, deduped/summed afterwards in test code.
        let (plain, _) = run(
            full,
            config(true, 64).build().expect("valid oracle config"),
            pairs.iter().map(|&(v, _)| Row::new(make_key(v), dedup_payload(v))).collect(),
        );
        assert_eq!(plain.len(), (DISTINCT * REPS) as usize, "{type_label}: oracle lost rows");
        let mut posthoc: Vec<(K2, Vec<u8>)> = Vec::new();
        for (key, payload) in plain {
            if posthoc.last().map(|(k, _)| *k == key) != Some(true) {
                posthoc.push((key, payload));
            }
        }
        posthoc.truncate(K as usize);

        let want_dedup: Vec<(K2, Vec<u8>)> =
            groups.iter().map(|&v| (make_key(v), dedup_payload(v))).collect();
        assert_eq!(posthoc, want_dedup, "{type_label} asc={ascending}: oracle disagrees");
        let want_sum: Vec<(K2, Vec<u8>)> =
            groups.iter().map(|&v| (make_key(v), encode_f64(group_sum(v)).to_vec())).collect();

        let dedup_rows = || -> Vec<Row<K2>> {
            pairs.iter().map(|&(v, _)| Row::new(make_key(v), dedup_payload(v))).collect()
        };
        for filter in [true, false] {
            for fan_in in [2usize, 64] {
                let label = format!("{type_label} asc={ascending} filter={filter} fan_in={fan_in}");
                let first = config(filter, fan_in).aggregate(AggregateOp::First).build();
                let (got, metrics) = run(spec, first.expect("valid grid config"), dedup_rows());
                assert_eq!(got, want_dedup, "{label}: dedup diverged from post-hoc oracle");
                assert!(metrics.spilled, "{label}: dedup run must exercise the external path");

                let dedup = config(filter, fan_in).dedup(true).build();
                let (again, again_metrics) =
                    run(spec, dedup.expect("valid grid config"), dedup_rows());
                assert_eq!(again, got, "{label}: dedup(true) and aggregate(First) rows differ");
                assert_eq!(
                    counts(&again_metrics),
                    counts(&metrics),
                    "{label}: dedup(true) and aggregate(First) counts differ"
                );

                let (got, metrics) = run(
                    spec,
                    config(filter, fan_in).aggregate(AggregateOp::Sum).build().expect("valid"),
                    pairs
                        .iter()
                        .map(|&(v, j)| Row::new(make_key(v), encode_f64(sum_term(v, j))))
                        .collect(),
                );
                assert_eq!(got, want_sum, "{label}: SUM diverged from post-hoc oracle");
                assert!(metrics.spilled, "{label}: SUM run must exercise the external path");
            }
        }
    }
}

#[test]
fn fold_grid_u64() {
    grid_for_key("u64", |v| v);
}

#[test]
fn fold_grid_f64() {
    grid_for_key("F64Key", |v| F64Key(v as f64));
}

#[test]
fn fold_grid_bytes() {
    grid_for_key("BytesKey", |v| BytesKey::new(format!("{v:05}").into_bytes()));
}

#[test]
fn fold_grid_key_pair() {
    grid_for_key("KeyPair", |v| KeyPair(v / 10, v % 10));
}
