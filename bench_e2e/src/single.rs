//! The five single-query workloads: one query after another, one thread.

use std::sync::Arc;
use std::time::Instant;

use histok_core::{HistogramTopK, OperatorMetrics, TopKConfig, TopKOperator};
use histok_exec::{Algorithm, Query};
use histok_storage::{StorageBackend, ThrottledBackend};
use histok_types::{F64Key, Result, Row, SortSpec};

use crate::alloc;
use crate::input::{generate, Checker, Oracle, Output, Scan, Table, ROW_BYTES};
use crate::probes;
use crate::report::{median, tail, Report, Values, END_TO_END, PER_LAYER};
use crate::speed::Speed;
use crate::store::SpillStore;
use crate::trace::{self, Tracer};
use crate::workloads::{Probes, Single, MEMORY_BUDGET, MIN_QUERIES, RUN_SECONDS};
use crate::Args;

/// Rows pulled from the scan per `scan` span in the traced pass.
const SCAN_CHUNK: usize = 1024;

/// One finished query: its rows and what it cost.
struct Done {
    rows: Vec<Row<F64Key>>,
    metrics: OperatorMetrics,
    elapsed_s: f64,
    /// Virtual-clock storage time of this query (reads + writes).
    model_s: f64,
}

impl Output for Done {
    fn rows(&self) -> &[Row<F64Key>] {
        &self.rows
    }
}

/// The query as a user runs it: through `histok-exec`, fresh storage.
fn run_query(
    spec: &Single,
    config: &TopKConfig,
    table: &Table,
    algorithm: Algorithm,
) -> Result<Done> {
    let backend = Arc::new(ThrottledBackend::new(SpillStore::new(), spec.model));
    let start = Instant::now();
    let result = Query::scan(Scan::new(table), SortSpec::ascending(spec.k))
        .config(config.clone())
        .algorithm(algorithm)
        .execute_shared(backend.clone())?;
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok(Done {
        rows: result.rows,
        metrics: result.metrics,
        elapsed_s,
        model_s: backend.virtual_io_time().as_secs_f64(),
    })
}

/// The same query driven from here, so that each layer boundary can be
/// timed: operator construction, `push` loop over scan chunks, `finish`,
/// drain. Without a tracer it does the same work and records nothing: the
/// yardstick for what tracing itself costs.
fn run_direct(
    spec: &Single,
    config: &TopKConfig,
    table: &Table,
    tracer: Option<(&Arc<Tracer>, u32)>,
) -> Result<Done> {
    let throttled: Arc<dyn StorageBackend> =
        Arc::new(ThrottledBackend::new(SpillStore::new(), spec.model));
    let backend = match tracer {
        Some((t, query)) => {
            Arc::new(trace::TracedBackend::new(throttled.clone(), t.clone(), query))
        }
        None => throttled.clone(),
    };
    let enter = |name| tracer.map(|(t, query)| t.enter(name, query));
    let start = Instant::now();
    let root = enter("query");
    let mut op = HistogramTopK::with_arc(SortSpec::ascending(spec.k), config.clone(), backend)?;
    {
        let _push = enter("push");
        let mut source = Scan::new(table);
        let mut chunk = Vec::with_capacity(SCAN_CHUNK);
        loop {
            let scan_start = tracer.map(|(t, _)| t.now_ns());
            chunk.extend(source.by_ref().take(SCAN_CHUNK));
            if let (Some((t, query)), Some(scan_start)) = (tracer, scan_start) {
                let bytes = chunk.len() as u64 * ROW_BYTES;
                t.leaf(trace::SCAN, scan_start, t.now_ns(), bytes, query);
            }
            if chunk.is_empty() {
                break;
            }
            for row in chunk.drain(..) {
                op.push(row)?;
            }
        }
    }
    let stream = {
        let _finish = enter("finish");
        op.finish()?
    };
    let rows = {
        // The stream is consumed and dropped inside: read-ahead still in
        // flight is cancelled here, as `Query::execute` does on close.
        let _drain = enter("drain");
        stream.collect::<Result<Vec<_>>>()?
    };
    let metrics = op.metrics();
    drop(op);
    drop(root);
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok(Done { rows, metrics, elapsed_s, model_s: throttled.modelled_io_ns() as f64 / 1e9 })
}

/// A generated table with its oracle, after the warm-up queries.
struct Ready {
    table: Table,
    oracle: Oracle,
}

/// Generates the input once, builds the oracle and runs the workload's
/// checked warm-up queries.
fn set_up(spec: &Single, config: &TopKConfig, args: &Args, checker: &mut Checker) -> Ready {
    let table = generate(spec.rows, spec.dist, args.seed);
    let mut oracle = Oracle::new(&table, spec.k, spec.dedup);
    if args.corrupt_oracle {
        oracle.corrupt();
    }
    for i in 0..spec.warm_ups {
        let warm = run_query(spec, config, &table, Algorithm::Histogram);
        checker.check(&format!("warm-up {i}"), &oracle, &warm);
    }
    Ready { table, oracle }
}

fn query_count(spec: &Single, seconds: f64) -> usize {
    ((spec.queries as f64 * seconds / RUN_SECONDS).round() as usize).max(MIN_QUERIES)
}

/// The untraced run: the end-to-end metrics. `started` is process start
/// (or, when several workloads share a process, the end of the one before).
pub fn run(spec: &Single, args: &Args, started: Instant) -> Report {
    let config = spec.config();
    let mut checker = Checker::new(spec.name);
    let ready = set_up(spec, &config, args, &mut checker);
    let mut speed = Speed::new(spec.model.sleep);
    let n = query_count(spec, args.seconds);
    let setup_s = started.elapsed().as_secs_f64();

    let baseline = alloc::reset_peak();
    let mut raw = Vec::with_capacity(n);
    let mut slowdowns = Vec::with_capacity(n);
    let mut bytes_written = 0u64;
    let mut model_s = 0.0;
    // Wall time of the loop: queries and their oracle checks, without the
    // speed kernel; as measured, and with every iteration corrected like
    // the query in it.
    let (mut loop_raw_s, mut loop_s) = (0.0, 0.0);
    for i in 0..n {
        let slowdown = speed.slowdown();
        let start = Instant::now();
        let done = run_query(spec, &config, &ready.table, Algorithm::Histogram);
        if let Ok(d) = &done {
            raw.push(d.elapsed_s);
            slowdowns.push(slowdown);
            bytes_written += d.metrics.io.bytes_written;
            model_s += d.model_s;
        }
        checker.check(&format!("query {i}"), &ready.oracle, &done);
        drop(done);
        let iteration_s = start.elapsed().as_secs_f64();
        loop_raw_s += iteration_s;
        loop_s += iteration_s / slowdown;
    }
    let peak = alloc::peak_above(baseline);

    let mut report = Report::new(spec.name, &checker);
    if raw.is_empty() {
        report.notes.push("every timed query failed: no metrics".into());
        return report;
    }
    let elapsed: Vec<f64> = raw.iter().zip(&slowdowns).map(|(t, s)| t / s).collect();
    let (tail_s, percentile, beyond) = tail(&elapsed);
    let input_rows = raw.len() as u64 * spec.rows;
    let input_bytes = (input_rows * ROW_BYTES) as f64;
    let mut values = Values::new(&END_TO_END);
    values.set("setup_s", setup_s);
    values.set("query_s", median(&elapsed));
    values.set("query_tail_s", tail_s);
    values.set("rows_per_s", input_rows as f64 / loop_s);
    values.set("storage_bytes_per_input_byte", 1.0 + bytes_written as f64 / input_bytes);
    // The storage bill in units of reading the input once at the model's
    // bandwidth; that one scan is the 1, so the metric is never 0.
    let scan_s = input_bytes * spec.model.per_byte.as_secs_f64();
    values.set("modelled_io_per_scan", 1.0 + model_s / scan_s);
    values.set("peak_alloc_mb", peak as f64 / 1e6);
    values.set("ok_share", checker.ok_share());
    report.metrics = values.into_metrics();
    report.notes.push(format!(
        "N = {n} timed queries after {} warm-ups; query_tail_s is p{percentile:.0} ({beyond} samples beyond it)",
        spec.warm_ups
    ));
    report.notes.push(if speed.corrects() {
        format!(
            "query times are wall time / the machine's slowdown against the reference kernel (median {:.3}); uncorrected: query_s {:.6}, query_tail_s {:.6}, rows_per_s {:.0}",
            median(&slowdowns),
            median(&raw),
            tail(&raw).0,
            input_rows as f64 / loop_raw_s
        )
    } else {
        "times are raw wall time: the storage model sleeps".to_string()
    });
    report
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: the per-layer metrics.
pub fn run_trace(spec: &Single, args: &Args) -> Report {
    let config = spec.config();
    let mut checker = Checker::new(spec.name);
    let ready = set_up(spec, &config, args, &mut checker);
    let tracer = Tracer::new();

    // The same direct drive with tracing off and on, in turns and with the
    // order swapped every round, so that drift of the machine lands on both
    // sides of `trace.overhead_share`.
    let mut traced = Vec::new();
    let mut overheads = Vec::new();
    let mut peak = 0usize;
    let mut rounds = 0;
    while trace::another_round(rounds, &overheads) {
        let query = rounds as u32;
        let (mut direct_s, mut traced_s) = (None, None);
        let traced_first = rounds % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                let done = run_direct(spec, &config, &ready.table, Some((&tracer, query)));
                checker.check(&format!("traced {rounds}"), &ready.oracle, &done);
                if let Ok(d) = done {
                    traced_s = Some(d.elapsed_s);
                    traced.push((query, d));
                }
            } else {
                let baseline = alloc::reset_peak();
                let done = run_direct(spec, &config, &ready.table, None);
                peak = peak.max(alloc::peak_above(baseline));
                checker.check(&format!("direct {rounds}"), &ready.oracle, &done);
                direct_s = done.ok().map(|d| d.elapsed_s);
            }
        }
        // The traced query against the untraced one next to it.
        if let (Some(direct_s), Some(traced_s)) = (direct_s, traced_s) {
            overheads.push(traced_s / direct_s - 1.0);
        }
        rounds += 1;
    }

    if overheads.is_empty() {
        let mut report = Report::new(spec.name, &checker);
        report.notes.push("one way of running the query always failed: no metrics".into());
        return report;
    }

    let spans = tracer.take();
    let breakdowns = trace::breakdowns(&spans);
    let per_query: Vec<(&trace::Breakdown, &Done)> =
        traced.iter().filter_map(|(q, d)| breakdowns.get(q).map(|b| (b, d))).collect();
    let self_s = |name: &'static str| median_of(&per_query, |(b, _)| b.self_of(name) as f64 / 1e9);

    let mut v = Values::new(&PER_LAYER);
    v.set("workload.scan_self_s", self_s(trace::SCAN));
    v.set("core.push_self_s", self_s("push"));
    v.set("sort.finish_self_s", self_s("finish"));
    v.set("sort.drain_self_s", self_s("drain"));
    v.set("storage.write_blocking_s", self_s(trace::WRITE));
    v.set("storage.read_blocking_s", self_s(trace::READ));
    v.set("storage.write_busy_s", median_of(&per_query, |(b, _)| b.write_busy_ns as f64 / 1e9));
    v.set("storage.read_busy_s", median_of(&per_query, |(b, _)| b.read_busy_ns as f64 / 1e9));

    v.set("sort.budget_truth_ratio", peak as f64 / MEMORY_BUDGET as f64);
    trace::set_counts(&mut v, spec.rows as f64, |f| {
        median_of(&per_query, |(_, d)| f(&d.metrics) as f64)
    });

    v.set("trace.query_s", median_of(&per_query, |(_, d)| d.elapsed_s));
    v.set("trace.overhead_share", median(&overheads));
    v.set(
        "trace.self_sum_share",
        median_of(&per_query, |(b, d)| b.self_sum_ns() as f64 / 1e9 / d.elapsed_s),
    );

    match spec.probes {
        Probes::None => {}
        Probes::Filter => probes::filter(&ready.table, &mut v),
        Probes::Histogram => {
            probes::histogram(&ready.table, &mut v);
            // The paper's Fig. 2 y-axis: what the [Graefe'08] baseline
            // spills on the same input, over what the histogram query did.
            let optimized = run_query(spec, &config, &ready.table, Algorithm::Optimized);
            checker.check("optimized baseline", &ready.oracle, &optimized);
            if let Ok(d) = optimized {
                v.set(
                    "core.spill_reduction_vs_optimized",
                    d.metrics.io.bytes_written as f64 / v.get("storage.bytes_written"),
                );
            }
        }
        Probes::MergeAndRuns => {
            probes::merge(&ready.table, &mut v);
            probes::external_sort(&ready.table, &mut v);
            probes::run_io(&ready.table, &mut v);
        }
    }
    let mut report = Report::new(spec.name, &checker);
    report.notes.push(format!(
        "{rounds} rounds of one untraced and one traced query; per-query medians; probes run once"
    ));
    trace::conclude(&mut report, v, &spans, args);
    report
}
