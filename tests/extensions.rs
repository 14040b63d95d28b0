//! Integration tests for the §4 extensions through the public facade:
//! grouped top-k, parallel top-k with a shared filter, and the analysis
//! model exposed next to the production operator.

use histok::core::{ExchangeTopK, GroupedTopK, ParallelTopK, TopKConfig};
use histok::prelude::*;
use histok::types::F64Key;
use histok::workload::Distribution;

fn config(mem_rows: usize) -> TopKConfig {
    TopKConfig::builder().memory_budget(mem_rows * 64).block_bytes(1024).build().unwrap()
}

#[test]
fn grouped_topk_spills_and_answers_per_group() {
    let mut op: GroupedTopK<u32, F64Key> =
        GroupedTopK::new(SortSpec::ascending(200), config(50), MemoryBackend::new()).unwrap();
    // Interleave 5 groups with distinct key ranges.
    for round in 0..4_000u64 {
        for g in 0..5u32 {
            let key = F64Key((round * 5 + u64::from(g)) as f64 + f64::from(g) * 1e6);
            op.push(g, Row::key_only(key)).unwrap();
        }
    }
    let results = op.finish().unwrap();
    assert_eq!(results.len(), 5);
    for (g, rows) in results {
        assert_eq!(rows.len(), 200, "group {g}");
        // Each group's minimum lives in its own offset range.
        assert!(rows[0].key.get() >= f64::from(g) * 1e6);
        assert!(rows[0].key.get() < f64::from(g) * 1e6 + 10.0);
        assert!(rows.windows(2).all(|w| w[0].key <= w[1].key));
    }
}

#[test]
fn parallel_topk_matches_single_threaded_answer() {
    let w = Workload::uniform(100_000, 50);
    let expected = w.expected_top_k(2_000, true);

    for threads in [1usize, 2, 4] {
        let mut op: ParallelTopK<F64Key> = ParallelTopK::new(
            SortSpec::ascending(2_000),
            config(300),
            MemoryBackend::new(),
            threads,
        )
        .unwrap();
        for row in w.rows() {
            op.push(row).unwrap();
        }
        let got: Vec<f64> = op.finish().unwrap().map(|r| r.unwrap().key.get()).collect();
        assert_eq!(got, expected, "threads = {threads}");
    }
}

#[test]
fn parallel_shared_filter_bounds_total_spill() {
    // §4.4: threads sharing the histogram queue retain "basically the same
    // number of input rows as a single thread" — total spill must not
    // scale with the thread count.
    let w = Workload::uniform(200_000, 51);
    let spill_with = |threads: usize| {
        let mut op: ParallelTopK<F64Key> = ParallelTopK::new(
            SortSpec::ascending(4_000),
            config(400),
            MemoryBackend::new(),
            threads,
        )
        .unwrap();
        for row in w.rows() {
            op.push(row).unwrap();
        }
        let n = op.finish().unwrap().count();
        assert_eq!(n, 4_000);
        op.metrics().io.rows_written
    };
    let single = spill_with(1);
    let quad = spill_with(4);
    assert!(
        quad < single * 3,
        "4 threads spilled {quad} vs {single} single-threaded — filter not shared?"
    );
}

#[test]
fn parallel_topk_on_skewed_distributions() {
    let w = Workload::uniform(80_000, 52).with_distribution(Distribution::Fal { shape: 1.25 });
    let expected = w.expected_top_k(1_000, false);
    let mut op: ParallelTopK<F64Key> =
        ParallelTopK::new(SortSpec::descending(1_000), config(200), MemoryBackend::new(), 3)
            .unwrap();
    for row in w.rows() {
        op.push(row).unwrap();
    }
    let got: Vec<f64> = op.finish().unwrap().map(|r| r.unwrap().key.get()).collect();
    assert_eq!(got, expected);
}

#[test]
fn facade_reexports_are_coherent() {
    // The prelude's types are the same types as the per-crate paths.
    let spec: histok::types::SortSpec = SortSpec::ascending(5);
    let _config: histok::core::TopKConfig = TopKConfig::default();
    let op = HistogramTopK::<u64>::new(spec, TopKConfig::default(), MemoryBackend::new());
    assert!(op.is_ok());
    let model = histok::analysis::simulate(histok::analysis::ModelParams {
        input_rows: 10_000,
        k: 500,
        memory_rows: 100,
        buckets_per_run: 10,
    });
    assert!(model.rows_spilled < 10_000);
}

#[test]
fn exchange_design_is_correct_but_less_effective_than_shared_queue() {
    // §4.4 predicts the producer-filtering exchange "suffers from lower
    // effectiveness than sharing histogram priority queues": producers
    // always filter with a stale cutoff, so more rows cross the exchange
    // than a design filtering with the current cutoff admits into run
    // generation.
    let rows = 150_000u64;
    let k = 3_000u64;
    let threads = 3usize;
    let w = Workload::uniform(rows, 70);
    let expected = w.expected_top_k(k as usize, true);

    // Shared-queue design (ParallelTopK).
    let mut shared: ParallelTopK<F64Key> =
        ParallelTopK::new(SortSpec::ascending(k), config(500), MemoryBackend::new(), threads)
            .unwrap();
    for row in w.rows() {
        shared.push(row).unwrap();
    }
    let shared_out: Vec<f64> = shared.finish().unwrap().map(|r| r.unwrap().key.get()).collect();
    assert_eq!(shared_out, expected);

    // What the shared queue admits depends on how its workers are scheduled
    // (19,867-20,198 rows here), and so does what the exchange ships, so the
    // two cannot be compared run against run. The yardstick is the shared
    // queue with no staleness at all: one thread, which admits the same
    // 17,031 rows every time ("basically the same number of input rows as a
    // single thread", §4.4).
    let mut serial: HistogramTopK<F64Key> =
        HistogramTopK::new(SortSpec::ascending(k), config(500), MemoryBackend::new()).unwrap();
    for row in w.rows() {
        serial.push(row).unwrap();
    }
    let serial_out: Vec<f64> = serial.finish().unwrap().map(|r| r.unwrap().key.get()).collect();
    assert_eq!(serial_out, expected);
    let serial_admitted = rows - serial.metrics().eliminated_at_input;

    // Exchange design (producer-side filtering via flow control).
    let exchange =
        ExchangeTopK::new(SortSpec::ascending(k), config(500), MemoryBackend::new()).unwrap();
    std::thread::scope(|scope| {
        for p in 0..threads {
            let mut producer = exchange.producer().unwrap();
            let rows_iter = w.rows();
            scope.spawn(move || {
                for (i, row) in rows_iter.enumerate() {
                    if i % threads == p {
                        producer.push(row).unwrap();
                    }
                }
                producer.finish().unwrap();
            });
        }
    });
    let (stream, metrics) = exchange.finish().unwrap();
    let exchange_out: Vec<f64> = stream.map(|r| r.unwrap().key.get()).collect();
    assert_eq!(exchange_out, expected);

    // Both designs eliminate most of the input...
    assert!(metrics.filtered_at_producer > rows / 2);
    // ...but the exchange ships noticeably more rows than filtering with the
    // current cutoff admits. Scheduling cannot flip this: a consumer that
    // never lags still publishes one cutoff per 512-row packet and ships
    // 19,590 rows (1.15x, simulated); every bit of lag only adds to that
    // (20,576-37,334 observed).
    assert!(
        metrics.rows_shipped as f64 > serial_admitted as f64 * 1.05,
        "expected the exchange to be less effective: shipped {} vs {} admitted by one thread",
        metrics.rows_shipped,
        serial_admitted
    );
}
