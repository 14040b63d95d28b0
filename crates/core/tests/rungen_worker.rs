//! Run generation on a worker thread (DESIGN.md §10, *Run generation on a
//! worker*): the query thread filters on the last cutoff the worker
//! handed back, the worker tests every row again on the exact cutoff and
//! gives dedup's distinct verdicts, so which thread runs run generation
//! must not show in any output byte or counter — and a worker must never
//! outlive its operator.
//!
//! The worker slots are process-global, so the tests serialize through one
//! mutex and check that no worker is alive when they start. This file must
//! not gain tests that spill without taking the same lock.

use std::sync::{Mutex, MutexGuard, OnceLock};

use histok_core::{
    live_rungen_workers, FilterSites, GroupedTopK, HistogramTopK, OperatorMetrics, TopKConfig,
    TopKOperator,
};
use histok_storage::{FaultBackend, FaultPlan, MemoryBackend};
use histok_types::{AggregateOp, BytesKey, F64Key, Row, SortKey, SortOrder, SortSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const INPUT: usize = 2_500;
const K: u64 = 400;
const MEM_ROWS: usize = 100;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(live_rungen_workers(), 0, "a worker outlived an earlier test");
    guard
}

/// Workers the process allows: one core stays with the query threads.
fn cap() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) - 1
}

trait Key: SortKey {
    fn of(v: u64) -> Self;
}

impl Key for u64 {
    fn of(v: u64) -> Self {
        v
    }
}

impl Key for F64Key {
    fn of(v: u64) -> Self {
        F64Key(v as f64 / 8.0 - 100.0)
    }
}

impl Key for BytesKey {
    fn of(v: u64) -> Self {
        BytesKey::new(format!("shared-prefix-{v:05}"))
    }
}

/// Keys from a third of the input size, so every mode meets duplicates and
/// ties at the cutoff; the payload is the arrival index, so a reordered or
/// lost row shows in the output bytes.
fn input<K: Key>() -> Vec<Row<K>> {
    let mut rng = StdRng::seed_from_u64(39);
    (0..INPUT)
        .map(|i| {
            Row::new(K::of(rng.gen_range(0..INPUT as u64 / 3)), (i as u32).to_le_bytes().to_vec())
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Dedup,
    Count,
}

fn config(mode: Mode, sites: FilterSites, mem_rows: usize) -> TopKConfig {
    let row_bytes = histok_sort::row_footprint(&Row::new(0u64, vec![0u8; 4]));
    let builder = TopKConfig::builder()
        .memory_budget(mem_rows * row_bytes)
        .block_bytes(1024)
        .io_threads(1)
        .filter(sites);
    match mode {
        Mode::Plain => builder,
        Mode::Dedup => builder.dedup(true),
        Mode::Count => builder.aggregate(AggregateOp::Count),
    }
    .build()
    .expect("valid config")
}

/// What one run must reproduce: the output rows and the counters.
#[derive(Debug, PartialEq)]
struct Outcome<K> {
    rows: Vec<(K, Vec<u8>)>,
    counts: [u64; 8],
    filter: histok_core::FilterMetrics,
    cutoff: Option<K>,
}

fn counts(m: &OperatorMetrics) -> [u64; 8] {
    [
        m.rows_in,
        m.eliminated_at_input,
        m.eliminated_at_spill,
        m.rows_folded,
        m.bytes_folded_pre_spill,
        m.io.runs_created,
        m.io.bytes_written,
        m.io.write_ops,
    ]
}

/// Holds every worker slot: `cap()` spilling operators, each with a worker.
fn hold_every_slot() -> Vec<HistogramTopK<u64>> {
    (0..cap())
        .map(|i| {
            let cfg = config(Mode::Plain, FilterSites::InputAndSpill, 20);
            let mut op = HistogramTopK::new(SortSpec::ascending(100), cfg, MemoryBackend::new())
                .expect("blocker");
            (0..200u64).for_each(|k| op.push(Row::key_only(k)).expect("blocker push"));
            assert_eq!(live_rungen_workers(), i + 1, "blocker {i} holds a slot");
            op
        })
        .collect()
}

/// One run of `rows` through `push` (`sizes == None`) or `push_batch` in
/// batches of the drawn sizes.
fn run<K: Key>(
    rows: &[Row<K>],
    spec: SortSpec,
    cfg: TopKConfig,
    sizes: Option<&mut StdRng>,
    on_worker: bool,
) -> Outcome<K> {
    let mut op = HistogramTopK::new(spec, cfg, MemoryBackend::new()).expect("op");
    let live = live_rungen_workers();
    match sizes {
        None => rows.iter().for_each(|row| op.push(row.clone()).expect("push")),
        Some(rng) => {
            let mut rest = rows;
            let mut buf = Vec::new();
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(rng.gen_range(1..=700).min(rest.len()));
                buf.extend_from_slice(batch);
                op.push_batch(&mut buf).expect("push_batch");
                rest = tail;
            }
        }
    }
    assert!(op.is_external(), "the grid spills");
    let placed = live_rungen_workers() - live;
    assert_eq!(placed, usize::from(on_worker), "run generation ran where it was asked to");
    let cutoff = op.cutoff();
    let rows = op
        .finish()
        .expect("finish")
        .map(|r| r.map(|row| (row.key, row.payload.to_vec())))
        .collect::<Result<_, _>>()
        .expect("drain");
    let m = op.metrics();
    assert_eq!(live_rungen_workers(), live, "finish joins the worker");
    Outcome { rows, counts: counts(&m), filter: m.filter, cutoff }
}

/// Every cell of one key type: the reference is the inline `push` run.
/// Inline `push_batch`, and five repetitions of each entry point on the
/// worker (where timing could leak in), must match it exactly. Returns the
/// number of cells.
fn grid<K: Key>() -> usize {
    let rows = input::<K>();
    let mut sizes = StdRng::seed_from_u64(7);
    let mut cells = 0;
    for order in [SortOrder::Ascending, SortOrder::Descending] {
        for mode in [Mode::Plain, Mode::Dedup, Mode::Count] {
            for sites in
                [FilterSites::InputAndSpill, FilterSites::InputOnly, FilterSites::SpillOnly]
            {
                let spec = match order {
                    SortOrder::Ascending => SortSpec::ascending(K),
                    SortOrder::Descending => SortSpec::descending(K),
                };
                let cfg = || config(mode, sites, MEM_ROWS);
                let cell = format!("{} {order:?} {mode:?} {sites:?}", std::any::type_name::<K>());
                let blockers = hold_every_slot();
                let want = run(&rows, spec, cfg(), None, false);
                let got = run(&rows, spec, cfg(), Some(&mut sizes), false);
                assert_eq!(got, want, "{cell}: inline, push_batch");
                drop(blockers);
                let on_worker = cap() > 0;
                for rep in 0..5 {
                    let got = run(&rows, spec, cfg(), None, on_worker);
                    assert_eq!(got, want, "{cell}: worker, push, repetition {rep}");
                    let got = run(&rows, spec, cfg(), Some(&mut sizes), on_worker);
                    assert_eq!(got, want, "{cell}: worker, push_batch, repetition {rep}");
                }
                if mode == Mode::Plain && sites != FilterSites::SpillOnly {
                    assert!(want.counts[1] > 0, "{cell}: the input site eliminated rows");
                }
                cells += 1;
            }
        }
    }
    cells
}

#[test]
fn both_placements_produce_the_same_rows_and_counts() {
    let _serial = serial();
    assert_eq!(grid::<u64>() + grid::<F64Key>() + grid::<BytesKey>(), 54);
    assert_eq!(live_rungen_workers(), 0);
}

fn fault_config() -> TopKConfig {
    config(Mode::Plain, FilterSites::InputAndSpill, 150)
}

#[test]
fn a_write_fault_on_the_worker_fails_the_query_and_leaves_nothing() {
    let _serial = serial();
    let rows: Vec<Row<u64>> = input();
    // What the whole query writes, so the fault can fire half-way.
    let memory = MemoryBackend::new();
    let mut op =
        HistogramTopK::new(SortSpec::ascending(K), fault_config(), memory.clone()).expect("op");
    rows.iter().for_each(|row| op.push(row.clone()).expect("push"));
    let whole = op.metrics().io.bytes_written;
    drop(op);
    assert!(whole > 0);
    for at in [whole / 4, whole / 2, whole - 1] {
        let memory = MemoryBackend::new();
        let plan = FaultPlan { fail_write_after_bytes: Some(at), ..FaultPlan::none() };
        let backend = FaultBackend::new(memory.clone(), plan);
        let mut op =
            HistogramTopK::new(SortSpec::ascending(K), fault_config(), backend).expect("op");
        let mut failed = false;
        let mut went_external = false;
        for chunk in rows.chunks(256) {
            let mut buf = chunk.to_vec();
            failed = op.push_batch(&mut buf).is_err();
            went_external |= op.is_external();
            if failed {
                break;
            }
        }
        assert!(went_external);
        if !failed {
            failed = op.finish().and_then(|s| s.collect::<Result<Vec<_>, _>>()).is_err();
        }
        assert!(failed, "fault at byte {at} must fail push_batch or finish");
        drop(op);
        assert_eq!(live_rungen_workers(), 0, "fault at byte {at}: worker joined");
        assert_eq!(memory.object_count(), 0, "fault at byte {at}: run objects left behind");
    }
}

#[test]
fn dropping_the_operator_mid_run_generation_joins_its_worker() {
    let _serial = serial();
    let memory = MemoryBackend::new();
    let mut op =
        HistogramTopK::new(SortSpec::ascending(K), fault_config(), memory.clone()).expect("op");
    let rows = input::<u64>();
    let (first, rest) = rows.split_at(INPUT / 2);
    first.iter().for_each(|row| op.push(row.clone()).expect("push"));
    assert!(op.is_external());
    assert_eq!(live_rungen_workers(), cap().min(1));
    // `metrics` waits for the worker, so the runs so far are on storage.
    assert!(op.metrics().io.runs_created > 0 && memory.object_count() > 0);
    // The rest is left in flight.
    rest.iter().for_each(|row| op.push(row.clone()).expect("push"));
    drop(op);
    assert_eq!(live_rungen_workers(), 0);
    assert_eq!(memory.object_count(), 0, "run objects left behind");
}

#[test]
fn eight_spilling_groups_never_exceed_the_worker_cap() {
    let _serial = serial();
    const GROUPS: u32 = 8;
    let memory = MemoryBackend::new();
    let mut op: GroupedTopK<u32, u64> = GroupedTopK::new(
        SortSpec::ascending(100),
        config(Mode::Plain, FilterSites::InputAndSpill, 40),
        memory.clone(),
    )
    .expect("grouped");
    let mut peak = 0;
    for row in input::<u64>() {
        op.push((row.key % u64::from(GROUPS)) as u32, row).expect("push");
        peak = peak.max(live_rungen_workers());
    }
    assert!(peak <= cap(), "{peak} workers alive, cap {}", cap());
    assert_eq!(peak, cap().min(GROUPS as usize), "spilling groups take the free slots");
    let out = op.finish().expect("finish");
    assert_eq!(out.len(), GROUPS as usize);
    assert!(out.iter().all(|(_, rows)| rows.len() == 100));
    drop(op);
    assert_eq!(live_rungen_workers(), 0);
    assert_eq!(memory.object_count(), 0);
}

/// The work of a reduced `zipf_dedup` query, pinned: 100,000 Zipf(1.2)
/// keys over 10,000 ranks with 82-byte payloads, `dedup`, `k` = 1,500 and
/// memory for 350 rows — the benchmark's shape at 1/40 of its size — fed
/// in batches of 1,024 as a planned scan feeds it, once on a worker and
/// once inline. Every count is a decision of the algorithm, so a change
/// that moves one changes the work the query does.
#[test]
fn reduced_zipf_dedup_does_pinned_work() {
    use histok_workload::{Distribution, Workload, LINEITEM_PAYLOAD_BYTES};
    let _serial = serial();
    let rows: Vec<Row<F64Key>> = Workload::uniform(100_000, 42)
        .with_distribution(Distribution::Zipf { s: 1.2, n: 10_000 })
        .with_payload_bytes(LINEITEM_PAYLOAD_BYTES)
        .rows()
        .collect();
    let cfg = || {
        TopKConfig::builder()
            .memory_budget(350 * (8 + LINEITEM_PAYLOAD_BYTES + 56))
            .dedup(true)
            .build()
            .expect("valid config")
    };
    let work = |on_worker: bool| {
        let blockers = (!on_worker).then(hold_every_slot);
        let mut op = HistogramTopK::new(SortSpec::ascending(1_500), cfg(), MemoryBackend::new())
            .expect("op");
        let live = live_rungen_workers();
        for chunk in rows.chunks(1_024) {
            op.push_batch(&mut chunk.to_vec()).expect("push_batch");
        }
        let placed = live_rungen_workers() - live;
        assert_eq!(placed, usize::from(on_worker && cap() > 0), "placement");
        let out = op.finish().expect("finish").count();
        assert_eq!(out, 1_500);
        drop(blockers);
        let m = op.metrics();
        [
            m.rows_in,
            m.eliminated_at_input,
            m.eliminated_at_spill,
            m.rows_folded,
            m.bytes_folded_pre_spill,
            m.io.runs_created,
            m.io.bytes_written,
            m.io.write_ops,
            m.filter.refinements,
        ]
    };
    let want = [100_000, 6_201, 386, 91_225, 8_575_150, 4, 177_364, 4, 1_075];
    assert_eq!(work(true), want, "on a worker");
    assert_eq!(work(false), want, "inline");
}
