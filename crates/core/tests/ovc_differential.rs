//! Differential grid: offset-value coding against plain sorts.
//!
//! Every {key type} × {sort order} × duplicate-heavy-workload cell is
//! checked at two levels against a reference built in the test:
//!
//! 1. the bare multi-source merge ([`merge_sources`]) must equal a stable
//!    sort of its rows by (key, source index);
//! 2. the full [`HistogramTopK`] operator (run generation through the
//!    selection tree, cutoff prefix filtering, intermediate + final
//!    merges) must return the key sequence of sort-then-take-`k`, every
//!    row of each key before the `k`-th, distinct rows of the `k`-th key,
//!    and the same bytes on a second run.
//!
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
/// sources; the merge must equal a stable sort by (key, source index).
fn merge_differential<K: KeyGen>(label: &str, order: SortOrder) {
    let rows = workload::<K>(0xA5A5);
    for n in [2usize, 5, 16] {
        let mut parts: Vec<Vec<Row<K>>> = vec![Vec::new(); n];
        for (i, row) in rows.iter().enumerate() {
            parts[i % n].push(row.clone());
        }
        let mut want: Vec<(usize, Row<K>)> = Vec::new();
        let mut sources = Vec::new();
        for (s, mut part) in parts.into_iter().enumerate() {
            part.sort_by(|a, b| order.cmp_keys(&a.key, &b.key));
            want.extend(part.iter().map(|row| (s, row.clone())));
            sources.push(MergeSource::Memory(part.into_iter()));
        }
        want.sort_by(|(sa, a), (sb, b)| order.cmp_keys(&a.key, &b.key).then(sa.cmp(sb)));
        let got: Vec<Row<K>> = merge_sources(sources, order, &MergeTuning::default())
            .expect("merge")
            .map(|r| r.expect("row"))
            .collect();
        assert_eq!(got.len(), want.len(), "{label} n={n}: row counts diverged");
        for (i, (a, (_, b))) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.key, b.key, "{label} n={n}: key diverged at row {i}");
            assert_eq!(a.payload, b.payload, "{label} n={n}: tie-break diverged at row {i}");
        }
    }
}

/// Level 2: the full operator, spilling through tiny memory so the sort
/// path (selection tree, cutoff filter, merges) actually runs, against
/// sort-then-take-`k`. Which rows of the `k`-th key survive is the
/// operator's choice; they must be distinct rows of that key.
fn operator_differential<K: KeyGen>(label: &str, order: SortOrder) {
    let rows = workload::<K>(0x5A5A);
    let run = || -> Vec<Row<K>> {
        let cfg = TopKConfig::builder()
            .memory_budget(16 * 1024)
            .block_bytes(1024)
            .fan_in(4)
            .build()
            .expect("grid config");
        let mut op =
            HistogramTopK::new(spec_for(order), cfg, MemoryBackend::new()).expect("operator");
        for row in &rows {
            op.push(row.clone()).expect("push");
        }
        op.finish().expect("finish").map(|r| r.expect("row")).collect()
    };
    let got = run();
    let k = spec_for(order).retained().min(INPUT as u64) as usize;
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| order.cmp_keys(&a.key, &b.key));
    assert_eq!(got.len(), k, "{label}: short output");
    for (i, (a, b)) in got.iter().zip(&sorted).enumerate() {
        assert_eq!(a.key, b.key, "{label}: key diverged at row {i}");
    }
    let payloads = |rows: &[Row<K>], key: &K| -> Vec<Vec<u8>> {
        let mut p: Vec<Vec<u8>> =
            rows.iter().filter(|r| r.key == *key).map(|r| r.payload.to_vec()).collect();
        p.sort();
        p
    };
    let last = &got[k - 1].key;
    for group in got.chunk_by(|a, b| a.key == b.key) {
        let key = &group[0].key;
        let (out, input) = (payloads(group, key), payloads(&rows, key));
        if key == last {
            assert!(out.windows(2).all(|w| w[0] != w[1]), "{label}: a row of {key:?} twice");
            assert!(out.iter().all(|p| input.contains(p)), "{label}: {key:?} row not in input");
        } else {
            assert_eq!(out, input, "{label}: rows of {key:?} differ from the input's");
        }
    }
    assert_eq!(run(), got, "{label}: two runs differ");
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
