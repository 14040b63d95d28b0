//! Spans recorded from the benchmark's side of each crate boundary.
//!
//! Nothing in the crates is instrumented: the traced pass drives the
//! operator itself, times the scan in chunks, and wraps the storage
//! traits. Spans stay in memory and are written out when the run ends.
//!
//! A span's parent is the span open on the same thread when it started,
//! so children never leave their parent's thread and a span's self time is
//! its duration minus its children's. Storage calls on other threads (I/O
//! pool, merge workers) have no parent: they are overlapped work.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use histok_core::OperatorMetrics;
use histok_storage::{SpillReader, SpillWriter, StorageBackend};
use histok_types::Result;

/// Where a traced run writes its spans, relative to the repository root.
const OUT_DIR: &str = "bench_e2e/out";

pub const SCAN: &str = "scan";
pub const WRITE: &str = "storage.write";
pub const READ: &str = "storage.read";

/// Rounds of untraced and traced work a traced run compares.
const ROUNDS: usize = 5;
/// Most that tracing may add to a query's time.
const OVERHEAD_LIMIT: f64 = 0.05;
/// A pair of queries differs by up to 10 % on the reference sandbox, so
/// five rounds can read above the limit by chance: a run that does makes
/// this many more rounds and is judged on all of them.
const EXTRA_ROUNDS: usize = 10;

/// Whether a traced run that has made `rounds` rounds, with these overheads
/// (traced / untraced - 1, one per round), makes another.
pub fn another_round(rounds: usize, overheads: &[f64]) -> bool {
    rounds < ROUNDS
        || (rounds < ROUNDS + EXTRA_ROUNDS
            && !overheads.is_empty()
            && crate::report::median(overheads) > OVERHEAD_LIMIT)
}

/// Query id of storage calls that cannot be tied to one query (pool
/// threads serving a shared fleet backend).
pub const SHARED: u32 = u32::MAX;

pub struct Span {
    pub id: u32,
    /// 0 = no parent.
    pub parent: u32,
    pub query: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(0) };
    /// (query, span) open on this thread; span 0 = none.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((SHARED, 0)) };
}

fn thread_index() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("no span recorder panics while holding the lock").push(span);
    }

    /// Opens `name` under this thread's open span; closed when the guard
    /// drops.
    pub fn enter(self: &Arc<Self>, name: &'static str, query: u32) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace((query, id)));
        Open { tracer: self.clone(), id, outer, query, name, start_ns: self.now_ns() }
    }

    /// Records a finished leaf (a scan chunk or one storage call) under
    /// this thread's open span, or parentless under `fallback_query`.
    pub fn leaf(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
        fallback_query: u32,
    ) {
        let (query, parent) = CURRENT.with(Cell::get);
        self.record(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            query: if parent == 0 { fallback_query } else { query },
            name,
            thread: thread_index(),
            start_ns,
            end_ns,
            bytes,
        });
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

/// An open span; records itself and restores the enclosing span on drop.
pub struct Open {
    tracer: Arc<Tracer>,
    id: u32,
    outer: (u32, u32),
    query: u32,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        CURRENT.with(|c| c.set(self.outer));
        self.tracer.record(Span {
            id: self.id,
            parent: self.outer.1,
            query: self.query,
            name: self.name,
            thread: thread_index(),
            start_ns: self.start_ns,
            end_ns,
            bytes: 0,
        });
    }
}

/// Per-query totals read off the spans.
#[derive(Default)]
pub struct Breakdown {
    /// Self time by span name, over the query's own span tree.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Storage call time on every thread.
    pub write_busy_ns: u64,
    pub read_busy_ns: u64,
}

impl Breakdown {
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Sum of all self times = the root span, if the tree is well formed.
    pub fn self_sum_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}

/// Groups spans by query and computes each span's self time.
pub fn breakdowns(spans: &[Span]) -> BTreeMap<u32, Breakdown> {
    let mut children: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(span.parent).or_default() += span.duration_ns();
    }
    let mut out: BTreeMap<u32, Breakdown> = BTreeMap::new();
    for span in spans {
        let b = out.entry(span.query).or_default();
        match span.name {
            WRITE => b.write_busy_ns += span.duration_ns(),
            READ => b.read_busy_ns += span.duration_ns(),
            _ => {}
        }
        // A root (the query span) or anything below one.
        if span.parent != 0 || span.name == "query" {
            let own =
                span.duration_ns().saturating_sub(children.get(&span.id).copied().unwrap_or(0));
            *b.self_ns.entry(span.name).or_default() += own;
        }
    }
    out
}

/// Sets the per-layer metrics that are read off the crates' own counters.
/// `per_query` reduces one counter over the traced queries to a per-query
/// figure (a median, or a mean where queries differ in kind); `rows_in` is
/// the input rows of one such query.
pub fn set_counts(
    v: &mut crate::report::Values,
    rows_in: f64,
    per_query: impl Fn(fn(&OperatorMetrics) -> u64) -> f64,
) {
    let input_bytes = rows_in * crate::input::ROW_BYTES as f64;
    v.set("core.input_eliminated_share", per_query(|m| m.eliminated_at_input) / rows_in);
    v.set("core.spill_eliminated_share", per_query(|m| m.eliminated_at_spill) / rows_in);
    v.set("core.rows_folded_share", per_query(|m| m.rows_folded) / rows_in);
    v.set("sort.runs_created", per_query(|m| m.io.runs_created));
    v.set("sort.merge_passes", per_query(|m| m.cascade.merge_passes));
    v.set("sort.intermediate_merges", per_query(|m| m.cascade.intermediate_merges));
    v.set("sort.runs_pruned", per_query(|m| m.cascade.runs_pruned));
    v.set("sort.merge_partitions", per_query(|m| m.merge_partitions));
    v.set("sort.full_cmps_per_row", per_query(|m| m.cmp.full_cmps) / rows_in);
    v.set("sort.ovc_cmps_per_row", per_query(|m| m.cmp.ovc_cmps) / rows_in);
    v.set("sort.merge_batches", per_query(|m| m.cmp.merge_batches));

    let io_wait = per_query(|m| m.io.io_wait_ns) / 1e9;
    let overlapped = per_query(|m| m.io.overlapped_io_ns) / 1e9;
    v.set("storage.io_wait_s", io_wait);
    v.set("storage.overlapped_io_s", overlapped);
    if io_wait + overlapped > 0.0 {
        v.set("storage.hidden_io_share", overlapped / (io_wait + overlapped));
    }
    v.set("storage.write_ops", per_query(|m| m.io.write_ops));
    v.set("storage.read_ops", per_query(|m| m.io.read_ops));
    v.set("storage.bytes_written", per_query(|m| m.io.bytes_written));
    v.set("storage.bytes_read", per_query(|m| m.io.bytes_read));
    v.set("storage.read_bytes_per_input_byte", per_query(|m| m.io.bytes_read) / input_bytes);
    v.set("storage.blocks_skipped", per_query(|m| m.io.blocks_skipped));
}

/// Ends a traced run: checks that the layers sum to the wall and that
/// tracing cost no more than 5 % (either miss fails the run), writes the
/// spans out, and hands the values to the report.
pub fn conclude(
    report: &mut crate::report::Report,
    values: crate::report::Values,
    spans: &[Span],
    args: &crate::Args,
) {
    let workload = report.workload;
    let self_sum = values.get("trace.self_sum_share");
    report.attempted += 1;
    if !(0.97..=1.03).contains(&self_sum) {
        // Structural, not noise: a boundary is no longer timed.
        report.failed += 1;
        eprintln!("TRACE {workload}: self times sum to {self_sum:.4} of the query wall");
    }
    let overhead = values.get("trace.overhead_share");
    report.attempted += 1;
    if overhead > OVERHEAD_LIMIT {
        report.failed += 1;
        eprintln!("TRACE {workload}: tracing overhead {:.1} % is above 5 %", 100.0 * overhead);
    }
    let path = std::path::Path::new(OUT_DIR).join(format!("trace_{workload}.json"));
    match write_json(&path, workload, args.seed, spans) {
        Ok(()) => report.notes.push(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => eprintln!("TRACE {workload}: cannot write {}: {e}", path.display()),
    }
    report.metrics = values.into_metrics();
}

/// Writes the spans of a run as one JSON document.
fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"schema\":\"bench_e2e.trace.v1\",\"workload\":\"{workload}\",\"seed\":{seed},"
    )?;
    writeln!(out, "\"note\":\"parent 0 = none; query {SHARED} = not attributable to one query\",")?;
    writeln!(out, "\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}{comma}",
            s.id, s.parent, s.query, s.name, s.thread, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// A [`StorageBackend`] that records every call into it (and into the
/// writers and readers it hands out) as a `storage.write` or
/// `storage.read` span.
pub struct TracedBackend {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
    /// Query charged for calls made off the query's thread.
    query: u32,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, tracer: Arc<Tracer>, query: u32) -> Self {
        TracedBackend { inner, tracer, query }
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = self.tracer.now_ns();
        let out = call();
        self.tracer.leaf(name, start, self.tracer.now_ns(), 0, self.query);
        out
    }
}

impl StorageBackend for TracedBackend {
    fn create(&self, name: &str) -> Result<Box<dyn SpillWriter>> {
        let inner = self.timed(WRITE, || self.inner.create(name))?;
        Ok(Box::new(TracedIo { inner, tracer: self.tracer.clone(), query: self.query }))
    }

    fn open(&self, name: &str) -> Result<Box<dyn SpillReader>> {
        let inner = self.timed(READ, || self.inner.open(name))?;
        Ok(Box::new(TracedIo { inner, tracer: self.tracer.clone(), query: self.query }))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.timed(WRITE, || self.inner.delete(name))
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.timed(READ, || self.inner.size_of(name))
    }

    fn modelled_io_ns(&self) -> u64 {
        self.inner.modelled_io_ns()
    }
}

/// A traced writer or reader.
struct TracedIo<T> {
    inner: T,
    tracer: Arc<Tracer>,
    query: u32,
}

impl<T> TracedIo<T> {
    fn timed<R>(&mut self, name: &'static str, bytes: u64, call: impl FnOnce(&mut T) -> R) -> R {
        let start = self.tracer.now_ns();
        let out = call(&mut self.inner);
        self.tracer.leaf(name, start, self.tracer.now_ns(), bytes, self.query);
        out
    }
}

impl SpillWriter for TracedIo<Box<dyn SpillWriter>> {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.timed(WRITE, data.len() as u64, |w| w.write_all(data))
    }

    fn finish(&mut self) -> Result<u64> {
        self.timed(WRITE, 0, |w| w.finish())
    }
}

impl SpillReader for TracedIo<Box<dyn SpillReader>> {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.timed(READ, buf.len() as u64, |r| r.read_exact(buf))
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.timed(READ, 0, |r| r.skip(n))
    }
}
