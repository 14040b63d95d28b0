//! Differential testing of in-sort duplicate folding (DESIGN.md §14):
//! dedup and SUM-aggregate queries across the full configuration grid
//! {u64, F64Key, BytesKey, KeyPair} × {asc, desc} × {filter on/off} ×
//! {cascade fan-in 2, 64}, against a post-hoc oracle (plain full sort
//! through the same machinery, folded afterwards in test code). Outputs
//! must be byte-identical — keys AND accumulator payloads. Dedup is asked
//! for both ways, `dedup(true)` and `aggregate(First)`: the two must agree
//! row for row and count for count. (Merge batch sizes are varied one
//! layer down, in `histok-sort`'s `batched_differential`.) A Zipf stream
//! then checks what folding saves: spilled bytes against deduplicating at
//! the output.

use std::collections::HashMap;

use histok_core::{
    FilterSites, GroupedAggTopK, HistogramTopK, OperatorMetrics, RunGenKind, TopKConfig,
    TopKConfigBuilder, TopKOperator,
};
use histok_storage::MemoryBackend;
use histok_types::{
    encode_f64, AggregateOp, BytesKey, F64Key, KeyPair, Row, SortKey, SortOrder, SortSpec,
};
use histok_workload::{Distribution, Workload};
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

/// One SUM cell of the grid (u64, ascending, filter on, fan-in 64) folds
/// pinned bytes before it spills and writes pinned bytes: the output alone
/// cannot show whether run generation folds, since every merge folds too.
#[test]
fn a_sum_cell_folds_pinned_bytes_before_it_spills() {
    let rows = arrivals(41)
        .iter()
        .map(|&(v, j)| Row::new(v, encode_f64(sum_term(v, j))))
        .collect::<Vec<Row<u64>>>();
    let cfg = config(true, 64).aggregate(AggregateOp::Sum).build().expect("valid");
    let (got, m) = run(SortSpec::ascending(K), cfg, rows);
    let want: Vec<(u64, Vec<u8>)> =
        expected_groups(true).iter().map(|&v| (v, encode_f64(group_sum(v)).to_vec())).collect();
    assert_eq!(got, want, "SUM diverged from post-hoc oracle");
    assert_eq!((m.bytes_folded_pre_spill, m.io.bytes_written), (2_560, 15_268));
}

/// Load-sort-store folds wide keys before they spill: a dedup query over
/// `BytesKey`s whose normalized prefixes tie, with the filter off so that
/// every duplicate reaches run generation, writes fewer bytes than the
/// 24,640 it wrote when only the in-memory phase and the merges folded.
#[test]
fn load_sort_store_folds_wide_keys_before_they_spill() {
    let key = |v: u64| BytesKey::new(format!("wide-key-{v:05}"));
    // Each group's duplicates arrive together, worst group first.
    let rows = (0..DISTINCT)
        .rev()
        .flat_map(|v| (0..REPS).map(move |_| v))
        .map(|v| Row::new(key(v), dedup_payload(v)))
        .collect();
    let cfg = config(false, 64).run_generation(RunGenKind::LoadSortStore).dedup(true);
    let (got, m) = run(SortSpec::ascending(K), cfg.build().expect("valid"), rows);
    let want: Vec<(BytesKey, Vec<u8>)> =
        expected_groups(true).iter().map(|&v| (key(v), dedup_payload(v))).collect();
    assert_eq!(got, want, "dedup diverged from the oracle");
    assert!(m.bytes_folded_pre_spill > 0, "run generation folded nothing");
    assert!(m.io.bytes_written < 24_640, "{} B written", m.io.bytes_written);
}

/// Zipf(1.2) ranks over 1,000 keys in 20,000 rows, so duplicates dominate.
/// Folding inside the sort must write at least 5x fewer bytes than
/// carrying every duplicate through it and deduplicating at the output.
/// Dedup and grouped COUNT must equal the post-hoc answers byte for byte.
#[test]
fn zipf_folding_spills_a_fifth_of_dedup_at_the_output() {
    const ROWS: u64 = 20_000;
    const DEDUP_K: usize = 300;
    const GROUP_K: usize = 50;
    let keys = || {
        Workload::uniform(ROWS, 0xD5F0)
            .with_distribution(Distribution::Zipf { s: 1.2, n: 1_000 })
            .keys()
    };
    let config = || TopKConfig::builder().memory_budget(8 * 1024).block_bytes(4096);
    // Duplicates share one payload, so FIRST is deterministic.
    let rows = || keys().map(|k| Row::new(k, k.get().to_le_bytes().to_vec())).collect();

    let (mut posthoc, at_output) =
        run(SortSpec::ascending(ROWS), config().build().expect("valid"), rows());
    assert_eq!(posthoc.len() as u64, ROWS, "the full sort lost rows");
    posthoc.dedup_by(|later, kept| later.0 == kept.0);
    posthoc.truncate(DEDUP_K);
    let (folded, in_sort) = run(
        SortSpec::ascending(DEDUP_K as u64),
        config().dedup(true).build().expect("valid"),
        rows(),
    );
    assert_eq!(folded, posthoc, "in-sort dedup diverged from dedup at the output");
    assert!(in_sort.spilled, "the dedup query must spill");
    let (folded_bytes, raw_bytes) = (in_sort.io.bytes_written, at_output.io.bytes_written);
    assert!(
        folded_bytes * 5 <= raw_bytes,
        "folding wrote {folded_bytes} B against {raw_bytes} B deduplicated at the output"
    );

    let count = config().aggregate(AggregateOp::Count).build().expect("valid");
    let mut op =
        GroupedAggTopK::new(GROUP_K as u64, SortOrder::Descending, count, MemoryBackend::new())
            .expect("operator");
    for k in keys() {
        op.push(Row::key_only(k)).expect("push");
    }
    let groups = op.finish().expect("finish");
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for k in keys() {
        *counts.entry(k.get().to_bits()).or_default() += 1;
    }
    // Positive f64 bits order like the values: (count, bits) descending is
    // the operator's (value, group key) order.
    let mut want: Vec<(u64, u64)> = counts.into_iter().map(|(bits, c)| (c, bits)).collect();
    want.sort_unstable_by(|a, b| b.cmp(a));
    want.truncate(GROUP_K);
    let got: Vec<(f64, u64, Vec<u8>)> =
        groups.iter().map(|g| (g.value, g.key.get().to_bits(), g.acc.to_vec())).collect();
    let want: Vec<(f64, u64, Vec<u8>)> =
        want.into_iter().map(|(c, bits)| (c as f64, bits, c.to_le_bytes().to_vec())).collect();
    assert_eq!(got, want, "grouped COUNT diverged from the post-hoc count");
}
