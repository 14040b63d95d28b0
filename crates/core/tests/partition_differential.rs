//! Differential grid: the range-partitioned parallel merge must be
//! invisible in the output of every operator that finishes through the
//! shared final merge.
//!
//! Every cell runs the same input through one operator three times —
//! serially (`merge_threads = 1`) and partitioned with P ∈ {2, 4} — and
//! asserts identical output. `k` exceeds `PARTITION_MIN_ROWS`, so the
//! final merge always holds enough rows to partition. Payloads are unique
//! per input row, so a divergence in splitter placement, per-partition
//! tie-breaking, or output re-sequencing shows up as a payload mismatch,
//! not just a key mismatch. Keys are duplicate-heavy (~40 distinct values
//! over 20 000 rows), so runs of equal keys straddle the partition
//! splitters — the exact case where a closed/closed range overlap would
//! double-count or drop rows.
//!
//! [`HistogramTopK`] cells run with the cutoff filter on and off; the
//! [`OptimizedExternalTopK`], [`ParallelTopK`] and
//! [`TraditionalExternalTopK`] cells run each key type in both orders.
//! `ParallelTopK`'s workers race on the shared cutoff, so which rows of
//! the last key make the output, and the order of equal keys, may differ
//! between any two of its runs: its cells compare every key group as a
//! set of rows, and the last group by size.

use std::sync::Arc;

use histok_core::{
    FilterSites, HistogramTopK, OptimizedExternalTopK, ParallelTopK, TopKConfig, TopKOperator,
    TraditionalExternalTopK,
};
use histok_storage::MemoryBackend;
use histok_types::{BytesKey, F64Key, Row, SortKey, SortOrder, SortSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const INPUT: usize = 20_000;
const K: u64 = 9_000;

/// Duplicate-heavy keys (~40 distinct values): ties at block boundaries,
/// at the cutoff and across partition splitters are exactly where
/// ordering bugs would hide.
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
        let v: u32 = rng.gen_range(0..40);
        F64Key(f64::from(v) * 2.5 - 37.5)
    }
}

impl KeyGen for BytesKey {
    fn draw(rng: &mut StdRng) -> Self {
        let v: u32 = rng.gen_range(0..40);
        BytesKey::new(format!("shared-prefix-bytes-{v:02}"))
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

/// The operators that finish through the shared final merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Histogram,
    Optimized,
    Parallel,
    Traditional,
}

fn run_cell<K: KeyGen>(
    op: Op,
    rows: &[Row<K>],
    order: SortOrder,
    filter: bool,
    threads: usize,
) -> (Vec<Row<K>>, u64) {
    let cfg = TopKConfig::builder()
        .memory_budget(16 * 1024)
        .block_bytes(512)
        .fan_in(4)
        .filter(if filter { FilterSites::InputAndSpill } else { FilterSites::Off })
        .merge_threads(threads)
        .build()
        .expect("grid config");
    let spec = spec_for(order);
    let mut op: Box<dyn TopKOperator<K>> = match op {
        Op::Histogram => Box::new(HistogramTopK::new(spec, cfg, MemoryBackend::new()).unwrap()),
        Op::Optimized => {
            Box::new(OptimizedExternalTopK::new(spec, cfg, MemoryBackend::new()).unwrap())
        }
        Op::Parallel => Box::new(ParallelTopK::new(spec, cfg, MemoryBackend::new(), 2).unwrap()),
        Op::Traditional => Box::new(
            TraditionalExternalTopK::with_config(spec, &cfg, Arc::new(MemoryBackend::new()))
                .unwrap(),
        ),
    };
    for row in rows {
        op.push(row.clone()).expect("push");
    }
    let out: Vec<Row<K>> = op.finish().expect("finish").map(|r| r.expect("row")).collect();
    let partitions = op.metrics().merge_partitions;
    (out, partitions)
}

/// Key groups of `rows`, each as its sorted payloads.
fn groups<K: SortKey>(rows: &[Row<K>]) -> Vec<Vec<&[u8]>> {
    rows.chunk_by(|a, b| a.key == b.key)
        .map(|g| {
            let mut payloads: Vec<&[u8]> = g.iter().map(|r| &r.payload[..]).collect();
            payloads.sort_unstable();
            payloads
        })
        .collect()
}

fn partition_differential<K: KeyGen>(label: &str, op: Op, order: SortOrder, filter: bool) {
    let rows = workload::<K>(0xD4D4);
    let (serial, p1) = run_cell(op, &rows, order, filter, 1);
    assert_eq!(serial.len(), K as usize, "{label}: short output");
    assert_eq!(p1, 1, "{label}: serial run reported partitions");
    for threads in [2usize, 4] {
        let (parallel, partitions) = run_cell(op, &rows, order, filter, threads);
        assert!(
            partitions >= 2,
            "{label}: P={threads} never went parallel ({partitions} partitions)"
        );
        assert_eq!(serial.len(), parallel.len(), "{label}: P={threads} row counts diverged");
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a.key, b.key, "{label}: P={threads} key diverged at row {i}");
            if op != Op::Parallel {
                assert_eq!(
                    a.payload, b.payload,
                    "{label}: P={threads} tie-break diverged at row {i}"
                );
            }
        }
        if op == Op::Parallel {
            // Equal keys: every group but the last (which `k` may cut)
            // holds the same rows. Group sizes matched with the keys.
            let (a, b) = (groups(&serial), groups(&parallel));
            let full = a.len() - 1;
            assert!(a[..full] == b[..full], "{label}: P={threads} rows diverged");
        }
    }
}

macro_rules! grid_cell {
    ($name:ident, $op:expr, $key:ty, $order:expr, $filter:expr) => {
        #[test]
        fn $name() {
            let label = concat!(
                stringify!($op),
                " / ",
                stringify!($key),
                " / ",
                stringify!($order),
                " / filter=",
                stringify!($filter)
            );
            partition_differential::<$key>(label, $op, $order, $filter);
        }
    };
}

grid_cell!(u64_ascending_filtered, Op::Histogram, u64, SortOrder::Ascending, true);
grid_cell!(u64_ascending_unfiltered, Op::Histogram, u64, SortOrder::Ascending, false);
grid_cell!(u64_descending_filtered, Op::Histogram, u64, SortOrder::Descending, true);
grid_cell!(u64_descending_unfiltered, Op::Histogram, u64, SortOrder::Descending, false);
grid_cell!(f64_ascending_filtered, Op::Histogram, F64Key, SortOrder::Ascending, true);
grid_cell!(f64_ascending_unfiltered, Op::Histogram, F64Key, SortOrder::Ascending, false);
grid_cell!(f64_descending_filtered, Op::Histogram, F64Key, SortOrder::Descending, true);
grid_cell!(f64_descending_unfiltered, Op::Histogram, F64Key, SortOrder::Descending, false);
grid_cell!(bytes_ascending_filtered, Op::Histogram, BytesKey, SortOrder::Ascending, true);
grid_cell!(bytes_ascending_unfiltered, Op::Histogram, BytesKey, SortOrder::Ascending, false);
grid_cell!(bytes_descending_filtered, Op::Histogram, BytesKey, SortOrder::Descending, true);
grid_cell!(bytes_descending_unfiltered, Op::Histogram, BytesKey, SortOrder::Descending, false);
grid_cell!(optimized_u64_ascending, Op::Optimized, u64, SortOrder::Ascending, true);
grid_cell!(optimized_u64_descending, Op::Optimized, u64, SortOrder::Descending, true);
grid_cell!(optimized_f64_ascending, Op::Optimized, F64Key, SortOrder::Ascending, true);
grid_cell!(optimized_f64_descending, Op::Optimized, F64Key, SortOrder::Descending, true);
grid_cell!(optimized_bytes_ascending, Op::Optimized, BytesKey, SortOrder::Ascending, true);
grid_cell!(optimized_bytes_descending, Op::Optimized, BytesKey, SortOrder::Descending, true);
grid_cell!(parallel_u64_ascending, Op::Parallel, u64, SortOrder::Ascending, true);
grid_cell!(parallel_u64_descending, Op::Parallel, u64, SortOrder::Descending, true);
grid_cell!(parallel_f64_ascending, Op::Parallel, F64Key, SortOrder::Ascending, true);
grid_cell!(parallel_f64_descending, Op::Parallel, F64Key, SortOrder::Descending, true);
grid_cell!(parallel_bytes_ascending, Op::Parallel, BytesKey, SortOrder::Ascending, true);
grid_cell!(parallel_bytes_descending, Op::Parallel, BytesKey, SortOrder::Descending, true);
grid_cell!(traditional_u64_ascending, Op::Traditional, u64, SortOrder::Ascending, true);
grid_cell!(traditional_u64_descending, Op::Traditional, u64, SortOrder::Descending, true);
grid_cell!(traditional_f64_ascending, Op::Traditional, F64Key, SortOrder::Ascending, true);
grid_cell!(traditional_f64_descending, Op::Traditional, F64Key, SortOrder::Descending, true);
grid_cell!(traditional_bytes_ascending, Op::Traditional, BytesKey, SortOrder::Ascending, true);
grid_cell!(traditional_bytes_descending, Op::Traditional, BytesKey, SortOrder::Descending, true);
