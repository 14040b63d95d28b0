//! `server_mixed_fleet`: the same crates used as a service. Two closed-loop
//! clients pull a fixed sequence of dashboard, export and distinct queries
//! from one shared counter and run them through one `TopKServer`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use histok_core::OperatorMetrics;
use histok_exec::{Query, ServerConfig, TopKServer};
use histok_storage::{IoSchedulerMetrics, StorageBackend, ThrottledBackend};
use histok_types::SortSpec;

use crate::alloc;
use crate::input::{generate, Checker, Oracle, Scan, Table, ROW_BYTES};
use crate::report::{median, tail, Report, Values, END_TO_END, PER_LAYER};
use crate::store::SpillStore;
use crate::trace::{self, Tracer};
use crate::workloads::{
    class_of, Class, FLEET_CLIENTS, FLEET_IO_THREADS, FLEET_MIN_LEASE, FLEET_MODEL, FLEET_NAME,
    FLEET_ROUND, FLEET_ROUNDS, FLEET_TOTAL_MEMORY, FLEET_WARM_UP_ROUNDS, RUN_SECONDS,
};
use crate::Args;

/// Dashboard query pairs of the server-overhead probe.
const OVERHEAD_PAIRS: usize = 30;

/// The three resident tables with their oracles, indexed by `Class`.
struct Inputs {
    tables: [Table; 3],
    oracles: [Oracle; 3],
}

impl Inputs {
    fn build(args: &Args) -> Self {
        let table =
            |c: Class| generate(c.rows(), c.dist(), args.seed.wrapping_add(c.index() as u64));
        let tables = Class::ALL.map(table);
        let oracles = Class::ALL.map(|c| {
            let mut oracle = Oracle::new(&tables[c.index()], c.k(), c.dedup());
            if args.corrupt_oracle {
                oracle.corrupt();
            }
            oracle
        });
        Inputs { tables, oracles }
    }

    fn query(&self, class: Class) -> Query<histok_types::F64Key> {
        Query::scan(Scan::new(&self.tables[class.index()]), SortSpec::ascending(class.k()))
            .config(class.config())
    }
}

/// One server with the storage every query it runs shares.
struct Fleet {
    server: TopKServer,
    backend: Arc<dyn StorageBackend>,
}

impl Fleet {
    /// With a tracer, every storage call is recorded.
    fn new(tracer: Option<&Arc<Tracer>>) -> Self {
        let server = TopKServer::new(ServerConfig {
            total_memory: FLEET_TOTAL_MEMORY,
            io_threads: FLEET_IO_THREADS,
            min_lease: FLEET_MIN_LEASE,
            ..ServerConfig::default()
        });
        let storage: Arc<dyn StorageBackend> =
            Arc::new(ThrottledBackend::new(SpillStore::new(), FLEET_MODEL));
        let backend = match tracer {
            Some(t) => Arc::new(trace::TracedBackend::new(storage, t.clone(), trace::SHARED)),
            None => storage,
        };
        Fleet { server, backend }
    }

    /// Virtual-clock storage time so far (reads + writes).
    fn model_s(&self) -> f64 {
        self.backend.modelled_io_ns() as f64 / 1e9
    }

    fn pool(&self) -> IoSchedulerMetrics {
        self.server.scheduler().map(|s| s.metrics()).unwrap_or_default()
    }
}

/// One finished fleet query.
struct Served {
    class: Class,
    /// What the client saw: admission wait + execution.
    latency_s: f64,
    metrics: OperatorMetrics,
}

fn latencies(served: &[Served], class: Option<Class>) -> Vec<f64> {
    served.iter().filter(|s| class.is_none_or(|c| c == s.class)).map(|s| s.latency_s).collect()
}

fn input_rows(served: &[Served]) -> u64 {
    served.iter().map(|s| s.class.rows()).sum()
}

fn sum(served: &[Served], f: impl Fn(&OperatorMetrics) -> u64) -> f64 {
    served.iter().map(|s| f(&s.metrics)).sum::<u64>() as f64
}

/// Runs queries `first..first + n` of the fixed sequence through `fleet`
/// from `FLEET_CLIENTS` closed-loop clients and returns them with the wall
/// time of the whole loop. With a tracer, one `query` span per query is
/// recorded.
fn run_pass(
    inputs: &Inputs,
    fleet: &Fleet,
    (first, n): (usize, usize),
    label: &str,
    tracer: Option<&Arc<Tracer>>,
    checker: &mut Checker,
) -> (Vec<Served>, f64) {
    let next = AtomicUsize::new(first);
    let client = || {
        let mut served = Vec::new();
        let mut local = Checker::new(FLEET_NAME);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= first + n {
                break;
            }
            let class = class_of(i);
            let start = Instant::now();
            let span = tracer.map(|t| t.enter("query", i as u32));
            let result = fleet.server.execute(inputs.query(class), fleet.backend.clone());
            drop(span);
            let latency_s = start.elapsed().as_secs_f64();
            local.check(
                &format!("{label} {i} ({class:?})"),
                &inputs.oracles[class.index()],
                &result,
            );
            if let Ok(r) = result {
                served.push(Served { class, latency_s, metrics: r.metrics });
            }
        }
        (served, local)
    };
    let start = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..FLEET_CLIENTS).map(|_| s.spawn(client)).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut served = Vec::with_capacity(n);
    for (part, local) in per_client {
        served.extend(part);
        checker.absorb(local);
    }
    (served, wall_s)
}

/// Generates the three inputs once, builds their oracles and runs the
/// checked warm-up rounds.
fn set_up(args: &Args, checker: &mut Checker) -> Inputs {
    let inputs = Inputs::build(args);
    let n = FLEET_WARM_UP_ROUNDS * FLEET_ROUND;
    run_pass(&inputs, &Fleet::new(None), (0, n), "warm-up", None, checker);
    inputs
}

fn report(checker: &Checker, note: &str) -> Report {
    let mut report = Report::new(FLEET_NAME, checker);
    report.notes.push(note.into());
    report
}

/// The untraced run: the end-to-end metrics. `started` is process start
/// (or, when several workloads share a process, the end of the one before).
pub fn run(args: &Args, started: Instant) -> Report {
    let mut checker = Checker::new(FLEET_NAME);
    let inputs = set_up(args, &mut checker);
    // Ten samples must lie beyond the p95.
    let rounds = ((FLEET_ROUNDS as f64 * args.seconds / RUN_SECONDS).round() as usize).max(10);
    let n = rounds * FLEET_ROUND;
    let fleet = Fleet::new(None);
    let setup_s = started.elapsed().as_secs_f64();

    let baseline = alloc::reset_peak();
    let (served, wall_s) = run_pass(&inputs, &fleet, (0, n), "query", None, &mut checker);
    let peak = alloc::peak_above(baseline);

    let latencies = latencies(&served, None);
    if latencies.is_empty() {
        return report(&checker, "every timed query failed: no metrics");
    }
    let (tail_s, percentile, beyond) = tail(&latencies);
    let input_bytes = (input_rows(&served) * ROW_BYTES) as f64;
    let mut v = Values::new(&END_TO_END);
    v.set("setup_s", setup_s);
    v.set("query_s", median(&latencies));
    v.set("query_tail_s", tail_s);
    v.set("rows_per_s", input_rows(&served) as f64 / wall_s);
    v.set("storage_bytes_per_input_byte", 1.0 + sum(&served, |m| m.io.bytes_written) / input_bytes);
    let scan_s = input_bytes * FLEET_MODEL.per_byte.as_secs_f64();
    v.set("modelled_io_per_scan", 1.0 + fleet.model_s() / scan_s);
    v.set("peak_alloc_mb", peak as f64 / 1e6);
    v.set("ok_share", checker.ok_share());
    let mut out = report(
        &checker,
        &format!(
            "N = {n} timed queries from {FLEET_CLIENTS} clients after {} warm-ups; query_tail_s is p{percentile:.0} ({beyond} samples beyond it)",
            FLEET_WARM_UP_ROUNDS * FLEET_ROUND
        ),
    );
    out.notes.push("times are raw wall time: the storage model sleeps".into());
    out.metrics = v.into_metrics();
    out
}

/// The dashboard query through `TopKServer::execute` against the same
/// query through `Query::execute_shared`, alternating, one thread.
fn server_overhead(inputs: &Inputs, checker: &mut Checker) -> f64 {
    let fleet = Fleet::new(None);
    let oracle = &inputs.oracles[Class::Dashboard.index()];
    let mut served = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut direct = Vec::with_capacity(OVERHEAD_PAIRS);
    for i in 0..OVERHEAD_PAIRS {
        let start = Instant::now();
        let result = fleet.server.execute(inputs.query(Class::Dashboard), fleet.backend.clone());
        served.push(start.elapsed().as_secs_f64());
        checker.check(&format!("overhead probe served {i}"), oracle, &result);
        drop(result);

        let start = Instant::now();
        let result = inputs.query(Class::Dashboard).execute_shared(fleet.backend.clone());
        direct.push(start.elapsed().as_secs_f64());
        checker.check(&format!("overhead probe direct {i}"), oracle, &result);
    }
    median(&served) - median(&direct)
}

/// The traced run: the per-layer metrics.
pub fn run_trace(args: &Args) -> Report {
    let mut checker = Checker::new(FLEET_NAME);
    let inputs = set_up(args, &mut checker);
    let tracer = Tracer::new();
    let plain = Fleet::new(None);
    let traced = Fleet::new(Some(&tracer));

    // One round of the mix through the untraced server and one through the
    // traced one, in turns and with the order swapped every round, so that
    // drift of the machine lands on both sides of `trace.overhead_share`.
    let mut served = Vec::new();
    let mut overheads = Vec::new();
    let mut peak = 0usize;
    let mut rounds = 0;
    while trace::another_round(rounds, &overheads) {
        let queries = (rounds * FLEET_ROUND, FLEET_ROUND);
        let mut sums = [0.0; 2];
        let traced_first = rounds % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            let part = if traced_turn {
                run_pass(&inputs, &traced, queries, "traced", Some(&tracer), &mut checker).0
            } else {
                let baseline = alloc::reset_peak();
                let part = run_pass(&inputs, &plain, queries, "untraced", None, &mut checker).0;
                peak = peak.max(alloc::peak_above(baseline));
                part
            };
            sums[usize::from(traced_turn)] = latencies(&part, None).iter().sum();
            if traced_turn {
                served.extend(part);
            }
        }
        if sums[0] > 0.0 && sums[1] > 0.0 {
            overheads.push(sums[1] / sums[0] - 1.0);
        }
        rounds += 1;
    }
    let spans = tracer.take();
    if overheads.is_empty() {
        return report(&checker, "every traced or untraced query failed: no metrics");
    }

    let queries = served.len() as f64;
    let breakdowns = trace::breakdowns(&spans);
    let total = |f: fn(&trace::Breakdown) -> u64| {
        breakdowns.values().map(f).sum::<u64>() as f64 / 1e9 / queries
    };
    // Fleet numbers are means per query over the traced rounds: the classes
    // differ by 100x, so a median would only ever describe a dashboard.
    let mut v = Values::new(&PER_LAYER);
    v.set("storage.write_blocking_s", total(|b| b.self_of(trace::WRITE)));
    v.set("storage.read_blocking_s", total(|b| b.self_of(trace::READ)));
    v.set("storage.write_busy_s", total(|b| b.write_busy_ns));
    v.set("storage.read_busy_s", total(|b| b.read_busy_ns));

    v.set("sort.budget_truth_ratio", peak as f64 / FLEET_TOTAL_MEMORY as f64);
    trace::set_counts(&mut v, input_rows(&served) as f64 / queries, |f| sum(&served, f) / queries);
    let pool = traced.pool();
    v.set("storage.io_pool_jobs", pool.submitted_total() as f64);
    v.set("storage.io_pool_queue_peak", pool.queue_depth_peak as f64);

    v.set("exec.dashboard_query_s", median(&latencies(&served, Some(Class::Dashboard))));
    v.set("exec.export_query_s", median(&latencies(&served, Some(Class::Export))));
    v.set("exec.distinct_query_s", median(&latencies(&served, Some(Class::Distinct))));
    v.set("exec.server_overhead_s", server_overhead(&inputs, &mut checker));
    let fleet = traced.server.fleet_metrics();
    let admission = fleet.admission;
    let latency_sum: f64 = latencies(&served, None).iter().sum();
    v.set("exec.queued_share", admission.queued_ns_total as f64 / 1e9 / latency_sum);
    v.set(
        "exec.admitted_immediately_share",
        admission.admitted_immediately as f64 / admission.grants.max(1) as f64,
    );
    v.set("exec.rebalances", admission.rebalances as f64);
    v.set("exec.revoked_mb", admission.revoked_bytes as f64 / 1e6);
    v.set("exec.peak_concurrent", fleet.peak_concurrent as f64);

    v.set("trace.query_s", latency_sum / queries);
    v.set("trace.overhead_share", median(&overheads));
    // Each client's `query` spans cover its latencies one for one.
    let self_sum: u64 = breakdowns.values().map(trace::Breakdown::self_sum_ns).sum();
    v.set("trace.self_sum_share", self_sum as f64 / 1e9 / latency_sum);

    let mut out = report(
        &checker,
        &format!(
            "{rounds} rounds of {FLEET_ROUND} untraced and {FLEET_ROUND} traced queries; per-query means over the traced rounds"
        ),
    );
    trace::conclude(&mut out, v, &spans, args);
    out
}
