//! Differential testing of batched input (DESIGN.md §10, "Batched input"):
//! `push_batch` must be observably identical to `push` row by row. One
//! seeded input drives all six `TopKOperator` implementations through both
//! entry points across {batch 1, 3, 256, > input} × {asc, desc} × {plain,
//! dedup, COUNT} × {offset 0, > 0} × {fits, spills}; output rows (key and
//! payload bytes) and the operator's counters must agree exactly.

use histok_core::{
    ApproximateTopK, HistogramTopK, InMemoryTopK, OperatorMetrics, OptimizedExternalTopK,
    ParallelTopK, TopKConfig, TopKOperator, TraditionalExternalTopK,
};
use histok_storage::{FaultBackend, FaultPlan, MemoryBackend};
use histok_types::{AggregateOp, Result, Row, SortSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

const INPUT: usize = 3_000;
const K: u64 = 200;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Histogram,
    InMemory,
    Traditional,
    Optimized,
    Parallel,
    Approximate,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Dedup,
    Count,
}

/// Keys drawn from a third of the input size, so every mode meets
/// duplicates and ties at the cutoff; the payload carries the arrival index
/// (a reordered or dropped row shows in the output bytes) and varies in
/// length (the phase-1 budget checks see variable-size rows).
fn input() -> Vec<Row<u64>> {
    let mut rng = StdRng::seed_from_u64(20);
    (0..INPUT)
        .map(|i| {
            let key = rng.gen_range(0..INPUT as u64 / 3);
            let mut payload = (i as u32).to_le_bytes().to_vec();
            payload.resize(4 + (key % 37) as usize, 0xAB);
            Row::new(key, payload)
        })
        .collect()
}

fn config(mode: Mode, fits: bool) -> TopKConfig {
    let row_bytes = histok_sort::row_footprint(&Row::new(0u64, vec![0u8; 22]));
    let builder = TopKConfig::builder()
        .memory_budget(if fits { 1 << 22 } else { 60 * row_bytes })
        .block_bytes(1024);
    match mode {
        Mode::Plain => builder,
        Mode::Dedup => builder.dedup(true),
        Mode::Count => builder.aggregate(AggregateOp::Count),
    }
    .build()
    .expect("valid config")
}

/// `None` where the operator refuses the configuration (only the histogram
/// operator and its approximate variant fold) or, as `InMemoryTopK`, takes
/// none and would repeat its plain cell.
fn operator(kind: Kind, spec: SortSpec, config: TopKConfig) -> Option<Box<dyn TopKOperator<u64>>> {
    if kind == Kind::InMemory && config.fold_op().is_some() {
        return None;
    }
    let backend = MemoryBackend::new();
    let op: Result<Box<dyn TopKOperator<u64>>> = match kind {
        Kind::Histogram => HistogramTopK::new(spec, config, backend).map(|op| Box::new(op) as _),
        Kind::InMemory => InMemoryTopK::new(spec).map(|op| Box::new(op) as _),
        Kind::Traditional => TraditionalExternalTopK::with_config(spec, &config, Arc::new(backend))
            .map(|op| Box::new(op) as _),
        Kind::Optimized => {
            OptimizedExternalTopK::new(spec, config, backend).map(|op| Box::new(op) as _)
        }
        Kind::Parallel => ParallelTopK::new(spec, config, backend, 2).map(|op| Box::new(op) as _),
        Kind::Approximate => {
            ApproximateTopK::new(spec, config, backend, 0.1).map(|op| Box::new(op) as _)
        }
    };
    match op {
        Ok(op) => Some(op),
        Err(e) => {
            assert!(e.to_string().contains("not supported"), "{kind:?}: {e}");
            None
        }
    }
}

type Counters = [u64; 8];

fn counters(m: &OperatorMetrics) -> Counters {
    [
        m.rows_in,
        m.eliminated_at_input,
        m.eliminated_at_spill,
        m.io.bytes_written,
        m.io.write_ops,
        m.runs(),
        m.rows_folded,
        m.bytes_folded_pre_spill,
    ]
}

/// Feeds `rows` through `push` (`batch == None`) or through `push_batch` in
/// batches of the given size, then drains the output.
fn run(
    mut op: Box<dyn TopKOperator<u64>>,
    rows: &[Row<u64>],
    batch: Option<usize>,
) -> (Vec<(u64, Vec<u8>)>, OperatorMetrics) {
    match batch {
        None => rows.iter().for_each(|row| op.push(row.clone()).expect("push")),
        Some(size) => {
            let mut buf = Vec::with_capacity(size);
            for chunk in rows.chunks(size) {
                buf.extend_from_slice(chunk);
                op.push_batch(&mut buf).expect("push_batch");
                assert!(buf.is_empty(), "push_batch must leave the batch empty");
            }
        }
    }
    let out = op
        .finish()
        .expect("finish")
        .map(|row| row.map(|r| (r.key, r.payload.to_vec())))
        .collect::<Result<Vec<_>>>()
        .expect("output row");
    (out, op.metrics())
}

#[test]
fn push_batch_is_push_for_every_operator() {
    let rows = input();
    let kinds = [
        Kind::Histogram,
        Kind::InMemory,
        Kind::Traditional,
        Kind::Optimized,
        Kind::Parallel,
        Kind::Approximate,
    ];
    let mut cells = 0;
    let mut spilled_cells = 0;
    for kind in kinds {
        for ascending in [true, false] {
            for mode in [Mode::Plain, Mode::Dedup, Mode::Count] {
                for offset in [0, 50] {
                    for fits in [true, false] {
                        let spec = if ascending {
                            SortSpec::ascending(K)
                        } else {
                            SortSpec::descending(K)
                        }
                        .with_offset(offset);
                        let build = || operator(kind, spec, config(mode, fits));
                        let Some(op) = build() else {
                            assert!(mode != Mode::Plain, "{kind:?} must run plain queries");
                            continue;
                        };
                        let cell = format!(
                            "{kind:?} asc={ascending} {mode:?} offset={offset} fits={fits}"
                        );
                        let (want, want_metrics) = run(op, &rows, None);
                        assert!(!want.is_empty(), "{cell}: empty reference output");
                        cells += 1;
                        spilled_cells += u32::from(want_metrics.spilled);
                        for size in [1, 3, 256, INPUT + 1] {
                            let (got, got_metrics) =
                                run(build().expect("built once already"), &rows, Some(size));
                            if kind == Kind::Parallel {
                                // Which duplicate of a tied key survives,
                                // and every elimination count, depend on
                                // when the workers publish the cutoff, on
                                // either entry point.
                                let keys = |out: &[(u64, Vec<u8>)]| {
                                    out.iter().map(|(k, _)| *k).collect::<Vec<_>>()
                                };
                                assert_eq!(keys(&got), keys(&want), "{cell} batch={size}");
                                assert_eq!(got_metrics.rows_in, want_metrics.rows_in);
                                continue;
                            }
                            assert_eq!(got, want, "{cell} batch={size}: rows differ");
                            assert_eq!(
                                counters(&got_metrics),
                                counters(&want_metrics),
                                "{cell} batch={size}: counters differ (rows_in, \
                                 eliminated_at_input, eliminated_at_spill, bytes_written, \
                                 write_ops, runs, rows_folded, bytes_folded_pre_spill)"
                            );
                        }
                    }
                }
            }
        }
    }
    // 4 plain-only operators × 8 cells + 2 folding operators × 24 cells.
    assert_eq!(cells, 80);
    assert!(spilled_cells >= 30, "the spilling half of the grid must spill: {spilled_cells}");
}

/// A batch that fails part-way reports what `push` row by row reports when
/// it fails on the same row: the duplicates the distinct tracker folded
/// away before the failing row are counted, none after it.
#[test]
fn a_failed_dedup_batch_keeps_its_fold_counts() {
    let rows = input();
    // Synchronous spill: the write fault surfaces on the row that fills the
    // block, on both entry points.
    let config = || {
        let row_bytes = histok_sort::row_footprint(&Row::new(0u64, vec![0u8; 22]));
        TopKConfig::builder()
            .memory_budget(60 * row_bytes)
            .block_bytes(1024)
            .spill_pipeline(false)
            .dedup(true)
            .build()
            .expect("valid config")
    };
    let feed = |plan: FaultPlan, batch: usize| {
        let backend = FaultBackend::new(MemoryBackend::new(), plan);
        let mut op = HistogramTopK::new(SortSpec::ascending(K), config(), backend).expect("op");
        let mut buf = Vec::with_capacity(batch);
        let failed = rows.chunks(batch).any(|chunk| {
            buf.extend_from_slice(chunk);
            let result = if batch == 1 {
                op.push(buf.pop().expect("one row"))
            } else {
                op.push_batch(&mut buf)
            };
            assert!(buf.is_empty(), "the batch is consumed, also on error");
            result.is_err()
        });
        (failed, op.metrics())
    };
    let (failed, whole) = feed(FaultPlan::none(), 1);
    assert!(!failed && whole.spilled && whole.rows_folded > 0);
    // Fail half-way through the bytes the whole input spills while arriving.
    let plan = || FaultPlan {
        fail_write_after_bytes: Some(whole.io.bytes_written / 2),
        ..FaultPlan::none()
    };
    let (failed, want) = feed(plan(), 1);
    assert!(failed, "the fault must fire while rows are arriving");
    assert!(want.rows_folded > 0 && want.rows_in < INPUT as u64);
    for batch in [7, 256] {
        assert_ne!(want.rows_in % batch as u64, 0, "batch={batch}: must fail mid-batch");
        let (failed, got) = feed(plan(), batch);
        assert!(failed, "batch={batch}");
        assert_eq!(counters(&got), counters(&want), "batch={batch}: counters at the failure");
    }
}
