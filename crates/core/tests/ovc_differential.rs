//! Differential grid: offset-value coding must be invisible in the output.
//!
//! Every {key type} × {sort order} × duplicate-heavy-workload cell runs the
//! same input twice — OVC on and OVC off — at two levels:
//!
//! 1. the bare multi-source merge ([`merge_sources`]), and
//! 2. the full [`HistogramTopK`] operator (run generation through the
//!    selection heap, cutoff prefix filtering, intermediate + final merges),
//!
//! and asserts the outputs are identical row-for-row, payloads included.
//! Payloads are unique per input row, so any difference in tie-breaking
//! among equal keys (the duplicate-heavy edge case where codes collide on
//! `Ovc::EQUAL`) shows up as a payload mismatch, not just a key mismatch.

use histok_core::{HistogramTopK, TopKConfig, TopKOperator};
use histok_sort::{merge_sources, MergeSource, MergeTuning};
use histok_storage::MemoryBackend;
use histok_types::{BytesKey, F64Key, KeyPair, Row, SortKey, SortOrder, SortSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const INPUT: usize = 9_000;
const K: u64 = 500;

/// Draw a duplicate-heavy key: a small domain (~40 distinct values) so ties
/// are everywhere — within runs, across runs, and at the cutoff.
trait KeyGen: SortKey {
    fn draw(rng: &mut StdRng) -> Self;
}

impl KeyGen for u64 {
    fn draw(rng: &mut StdRng) -> Self {
        rng.gen_range(0..40)
    }
}

impl KeyGen for F64Key {
    fn draw(rng: &mut StdRng) -> Self {
        // Mixed-sign values on a small grid.
        F64Key((rng.gen_range(0..40) as f64 - 20.0) / 4.0)
    }
}

impl KeyGen for BytesKey {
    fn draw(rng: &mut StdRng) -> Self {
        // Shared >8-byte prefixes defeat the norm-prefix fast path;
        // embedded NULs exercise the escaping in the normalized form.
        let v: u32 = rng.gen_range(0..40);
        if v.is_multiple_of(7) {
            BytesKey::new(format!("shared-prefix-bytes\0{v:02}"))
        } else {
            BytesKey::new(format!("shared-prefix-bytes-{v:02}"))
        }
    }
}

impl KeyGen for KeyPair<u64, BytesKey> {
    fn draw(rng: &mut StdRng) -> Self {
        // A tiny major key makes the minor key decide most comparisons.
        KeyPair(rng.gen_range(0..4), BytesKey::draw(rng))
    }
}

fn workload<K: KeyGen>(seed: u64) -> Vec<Row<K>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUT).map(|i| Row::new(K::draw(&mut rng), format!("row-{i:05}").into_bytes())).collect()
}

fn spec_for(order: SortOrder) -> SortSpec {
    match order {
        SortOrder::Ascending => SortSpec::ascending(K),
        SortOrder::Descending => SortSpec::descending(K),
    }
}

/// Level 1: the bare merge. The input is split into many pre-sorted
/// sources; OVC-on and OVC-off merges of the same sources must agree.
fn merge_differential<K: KeyGen>(label: &str, order: SortOrder) {
    let rows = workload::<K>(0xA5A5);
    let sources = |n: usize| -> Vec<MergeSource<K>> {
        let mut parts: Vec<Vec<Row<K>>> = vec![Vec::new(); n];
        for (i, row) in rows.iter().enumerate() {
            parts[i % n].push(row.clone());
        }
        parts
            .into_iter()
            .map(|mut p| {
                p.sort_by(|a, b| order.cmp_keys(&a.key, &b.key));
                MergeSource::Memory(p.into_iter())
            })
            .collect()
    };
    for n in [2usize, 5, 16] {
        let with_ovc: Vec<Row<K>> = merge_sources(sources(n), order, &MergeTuning::default())
            .expect("ovc merge")
            .map(|r| r.expect("row"))
            .collect();
        let without: Vec<Row<K>> = merge_sources(sources(n), order, &MergeTuning::without_ovc())
            .expect("plain merge")
            .map(|r| r.expect("row"))
            .collect();
        assert_eq!(with_ovc.len(), without.len(), "{label} n={n}: row counts diverged");
        for (i, (a, b)) in with_ovc.iter().zip(&without).enumerate() {
            assert_eq!(a.key, b.key, "{label} n={n}: key diverged at row {i}");
            assert_eq!(a.payload, b.payload, "{label} n={n}: tie-break diverged at row {i}");
        }
    }
}

/// Level 2: the full operator, spilling through tiny memory so the sort
/// path (selection heap, cutoff filter, merges) actually runs.
fn operator_differential<K: KeyGen>(label: &str, order: SortOrder) {
    let rows = workload::<K>(0x5A5A);
    let run = |ovc: bool| -> Vec<Row<K>> {
        let cfg = TopKConfig::builder()
            .memory_budget(16 * 1024)
            .block_bytes(1024)
            .fan_in(4)
            .ovc_enabled(ovc)
            .build()
            .expect("grid config");
        let mut op =
            HistogramTopK::new(spec_for(order), cfg, MemoryBackend::new()).expect("operator");
        for row in &rows {
            op.push(row.clone()).expect("push");
        }
        op.finish().expect("finish").map(|r| r.expect("row")).collect()
    };
    let with_ovc = run(true);
    let without = run(false);
    let m = spec_for(order);
    assert_eq!(with_ovc.len(), m.retained().min(INPUT as u64) as usize, "{label}: short output");
    assert_eq!(with_ovc.len(), without.len(), "{label}: row counts diverged");
    for (i, (a, b)) in with_ovc.iter().zip(&without).enumerate() {
        assert_eq!(a.key, b.key, "{label}: key diverged at row {i}");
        assert_eq!(a.payload, b.payload, "{label}: tie-break diverged at row {i}");
    }
}

macro_rules! grid_cell {
    ($name:ident, $key:ty, $order:expr) => {
        #[test]
        fn $name() {
            let label = concat!(stringify!($key), " / ", stringify!($order));
            merge_differential::<$key>(label, $order);
            operator_differential::<$key>(label, $order);
        }
    };
}

grid_cell!(u64_ascending, u64, SortOrder::Ascending);
grid_cell!(u64_descending, u64, SortOrder::Descending);
grid_cell!(f64_ascending, F64Key, SortOrder::Ascending);
grid_cell!(f64_descending, F64Key, SortOrder::Descending);
grid_cell!(bytes_ascending, BytesKey, SortOrder::Ascending);
grid_cell!(bytes_descending, BytesKey, SortOrder::Descending);
grid_cell!(pair_ascending, KeyPair<u64, BytesKey>, SortOrder::Ascending);
grid_cell!(pair_descending, KeyPair<u64, BytesKey>, SortOrder::Descending);
