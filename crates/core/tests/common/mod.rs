//! The I/O differential grid, shared by `overlap_differential.rs` and
//! `scheduler_differential.rs`: how a run's bytes move must be invisible
//! in the output.
//!
//! Every {key type} × {sort order} × {filter on/off} cell runs the same
//! input through [`HistogramTopK`] at each `io_threads` value the calling
//! suite names and asserts byte-identical output against `io_threads = 0`,
//! the inline reference. Payloads are unique per input row, so a
//! divergence in tie-breaking, block framing, or job scheduling shows up
//! as a payload mismatch, not just a key mismatch. Tiny memory and block
//! sizes force spilling, multi-block runs and real merge fan-in, so the
//! pool genuinely carries spill and read-ahead jobs in every pooled cell.

use histok_core::{FilterSites, HistogramTopK, TopKConfig, TopKOperator};
use histok_storage::MemoryBackend;
use histok_types::{BytesKey, Row, SortKey, SortOrder, SortSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const INPUT: usize = 9_000;
const K: u64 = 500;

/// Duplicate-heavy keys (~40 distinct values): ties at block boundaries
/// and at the cutoff are exactly where ordering bugs would hide.
pub trait KeyGen: SortKey {
    fn draw(rng: &mut StdRng) -> Self;
}

impl KeyGen for u64 {
    fn draw(rng: &mut StdRng) -> Self {
        rng.gen_range(0..40)
    }
}

impl KeyGen for BytesKey {
    fn draw(rng: &mut StdRng) -> Self {
        let v: u32 = rng.gen_range(0..40);
        BytesKey::new(format!("shared-prefix-bytes-{v:02}"))
    }
}

/// Runs one grid cell: the output at every `io_threads` in `pooled` must
/// match the inline output byte for byte.
pub fn io_grid<K: KeyGen>(
    label: &str,
    seed: u64,
    order: SortOrder,
    filter: bool,
    pooled: &[usize],
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Row<K>> = (0..INPUT)
        .map(|i| Row::new(K::draw(&mut rng), format!("row-{i:05}").into_bytes()))
        .collect();
    let spec = match order {
        SortOrder::Ascending => SortSpec::ascending(K),
        SortOrder::Descending => SortSpec::descending(K),
    };
    let run = |io_threads: usize| -> Vec<Row<K>> {
        let cfg = TopKConfig::builder()
            .memory_budget(16 * 1024)
            .block_bytes(512)
            .fan_in(4)
            .filter(if filter { FilterSites::InputAndSpill } else { FilterSites::Off })
            .io_threads(io_threads)
            .build()
            .expect("grid config");
        let mut op = HistogramTopK::new(spec, cfg, MemoryBackend::new()).expect("operator");
        for row in &rows {
            op.push(row.clone()).expect("push");
        }
        op.finish().expect("finish").map(|r| r.expect("row")).collect()
    };
    let inline = run(0);
    assert_eq!(inline.len(), K as usize, "{label}: short output");
    for &threads in pooled {
        let out = run(threads);
        assert_eq!(inline.len(), out.len(), "{label}: row counts diverged at io_threads={threads}");
        for (i, (a, b)) in inline.iter().zip(&out).enumerate() {
            assert_eq!(a.key, b.key, "{label}: key diverged at row {i} (io_threads={threads})");
            assert_eq!(
                a.payload, b.payload,
                "{label}: tie-break diverged at row {i} (io_threads={threads})"
            );
        }
    }
}

/// Declares the grid's eight cells as tests running [`io_grid`] with
/// `$seed` against the pooled `io_threads` values `$pooled`.
macro_rules! io_grid_cells {
    ($seed:expr, $pooled:expr) => {
        io_grid_cells!(@cell $seed, $pooled, u64_ascending_filtered, u64, Ascending, true);
        io_grid_cells!(@cell $seed, $pooled, u64_ascending_unfiltered, u64, Ascending, false);
        io_grid_cells!(@cell $seed, $pooled, u64_descending_filtered, u64, Descending, true);
        io_grid_cells!(@cell $seed, $pooled, u64_descending_unfiltered, u64, Descending, false);
        io_grid_cells!(@cell $seed, $pooled, bytes_ascending_filtered, BytesKey, Ascending, true);
        io_grid_cells!(@cell $seed, $pooled, bytes_ascending_unfiltered, BytesKey, Ascending, false);
        io_grid_cells!(@cell $seed, $pooled, bytes_descending_filtered, BytesKey, Descending, true);
        io_grid_cells!(@cell $seed, $pooled, bytes_descending_unfiltered, BytesKey, Descending, false);
    };
    (@cell $seed:expr, $pooled:expr, $name:ident, $key:ty, $order:ident, $filter:expr) => {
        #[test]
        fn $name() {
            let label = concat!(
                stringify!($key),
                " / ",
                stringify!($order),
                " / filter=",
                stringify!($filter)
            );
            common::io_grid::<$key>(
                label,
                $seed,
                histok_types::SortOrder::$order,
                $filter,
                &$pooled,
            );
        }
    };
}
