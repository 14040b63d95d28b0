//! Differential grid: batched execution against row-at-a-time execution.
//!
//! The batched merge drain (`LoserTree::merge_into`) must be byte-identical
//! to the iterator drain, and the radix run generator ([`BatchSort`]) to a
//! load-sort-store written out in the test (fill to the budget, stable
//! sort, Algorithm 1 per row), on every cell of the grid
//! {u64, F64Key, BytesKey, KeyPair} × {asc, desc} × {filter on/off} ×
//! batch_rows ∈ {1, 7, 1024}, plus duplicate-heavy inputs, a cutoff that
//! tightens as rows spill (run generation only), and the
//! mid-batch error-latch protocol. Merge cells run once plain and once
//! folding equal keys (`AggregateOp::First`, duplicate removal), so the
//! batched drain's in-merge folding is held to the iterator's too.
//!
//! Payloads are derived from the key seed, so rows with equal keys but
//! different seeds differ, and a sort or merge that reorders equal keys
//! shows as an output difference.

use std::sync::Arc;

use histok_sort::run_gen::{BatchSort, ResiduePolicy, RunGenerator};
use histok_sort::{
    merge_sources, open_source, row_footprint, FoldSpec, IterSource, LoserTree, MergeTuning,
    SpillObserver,
};
use histok_storage::{IoStats, MemoryBackend, RunCatalog};
use histok_types::{
    AggregateOp, BytesKey, Error, F64Key, KeyPair, Result, Row, RowBatch, SortKey, SortOrder,
};

const BATCH_SIZES: [usize; 3] = [1, 7, 1024];
const N_RUNS: usize = 5;
const N_KEYS: u64 = 700;

fn catalog<K: SortKey>(order: SortOrder, tag: &str) -> Arc<RunCatalog<K>> {
    Arc::new(
        RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            RunCatalog::<K>::unique_prefix(tag),
            order,
            IoStats::new(),
        )
        .with_block_bytes(256),
    )
}

/// Payload derived from the key seed alone (see module doc).
fn payload(seed: u64) -> Vec<u8> {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes().to_vec()
}

/// Deterministic pseudo-random key seeds.
fn seeds(n: u64, salt: u64) -> Vec<u64> {
    let mut state = salt | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 16
        })
        .collect()
}

fn write_runs<K: SortKey>(cat: &RunCatalog<K>, seeds: &[u64], key_fn: impl Fn(u64) -> K) {
    let order = cat.order();
    for r in 0..N_RUNS {
        let mut rows: Vec<Row<K>> = seeds
            .iter()
            .skip(r)
            .step_by(N_RUNS)
            .map(|&s| Row::new(key_fn(s), payload(s)))
            .collect();
        rows.sort_by(|a, b| order.cmp_keys(&a.key, &b.key));
        let mut w = cat.start_run().unwrap();
        for row in &rows {
            w.append(row).unwrap();
        }
        cat.finish_run(w).unwrap();
    }
}

fn open_tree<K: SortKey>(
    cat: &RunCatalog<K>,
    tuning: &MergeTuning,
) -> LoserTree<K, histok_sort::MergeSource<K>> {
    let sources: Vec<_> = cat.runs().iter().map(|m| open_source(cat, m).unwrap()).collect();
    merge_sources(sources, cat.order(), tuning).unwrap()
}

/// Merge tuning that folds equal keys to their first row when `fold`.
fn tuning(fold: bool) -> MergeTuning {
    let fold = fold.then(|| FoldSpec::new(AggregateOp::First.aggregator()));
    MergeTuning { fold, ..MergeTuning::default() }
}

/// Row-at-a-time baseline: the plain `Iterator` drain, optionally stopping
/// after `limit` rows (a top-k merge's early stop).
fn drain_rows<K: SortKey>(cat: &RunCatalog<K>, limit: Option<usize>, fold: bool) -> Vec<Row<K>> {
    let tree = open_tree(cat, &tuning(fold));
    let it = tree.map(|r| r.unwrap());
    match limit {
        Some(n) => it.take(n).collect(),
        None => it.collect(),
    }
}

/// Batched drain through `merge_into`, verifying the code-column invariant
/// on every batch that comes out.
fn drain_batched<K: SortKey>(
    cat: &RunCatalog<K>,
    batch_rows: usize,
    limit: Option<usize>,
    fold: bool,
) -> Vec<Row<K>> {
    let mut tree = open_tree(cat, &tuning(fold).with_batch_rows(batch_rows));
    let mut batch = RowBatch::new();
    let mut out: Vec<Row<K>> = Vec::new();
    loop {
        tree.merge_into(&mut batch, batch_rows).unwrap();
        if batch.is_empty() {
            break;
        }
        assert!(batch.len() <= batch_rows, "batch overran its target");
        for (row, &p) in batch.rows.iter().zip(batch.prefixes.iter()) {
            assert_eq!(p, row.key.norm_prefix(), "code column out of sync with rows");
        }
        out.append(&mut batch.rows);
        if let Some(n) = limit {
            if out.len() >= n {
                out.truncate(n);
                break;
            }
        }
    }
    out
}

/// One merge cell: all batch sizes against the row baseline, with and
/// without the early-stop "filter", plain and folding.
fn merge_grid<K: SortKey>(key_fn: impl Fn(u64) -> K + Copy, order: SortOrder, tag: &str) {
    let cat = catalog::<K>(order, tag);
    write_runs(&cat, &seeds(N_KEYS, 0xD1FF), key_fn);
    for fold in [false, true] {
        for filter in [false, true] {
            let limit = filter.then_some(37);
            let expected = drain_rows(&cat, limit, fold);
            if fold {
                assert!(
                    expected.windows(2).all(|w| w[0].key != w[1].key),
                    "{tag}: the folding baseline emitted a duplicate key"
                );
            }
            for batch_rows in BATCH_SIZES {
                let got = drain_batched(&cat, batch_rows, limit, fold);
                assert_eq!(
                    got, expected,
                    "{tag}: batched (batch_rows={batch_rows}, limit={limit:?}, fold={fold}) \
                     diverged from row-at-a-time"
                );
            }
        }
    }
}

#[test]
fn merge_grid_u64() {
    merge_grid(|s| s, SortOrder::Ascending, "dg-u64-asc");
    merge_grid(|s| s, SortOrder::Descending, "dg-u64-desc");
}

#[test]
fn merge_grid_f64() {
    let key = |s: u64| F64Key(s as f64 / 3.0 - 1e6);
    merge_grid(key, SortOrder::Ascending, "dg-f64-asc");
    merge_grid(key, SortOrder::Descending, "dg-f64-desc");
}

#[test]
fn merge_grid_bytes() {
    // Shared prefix longer than 8 bytes: the u64 code column alone cannot
    // distinguish keys, forcing the full-comparison fallback mid-batch.
    let key = |s: u64| BytesKey::new(format!("shared-prefix-{s:016}"));
    merge_grid(key, SortOrder::Ascending, "dg-bytes-asc");
    merge_grid(key, SortOrder::Descending, "dg-bytes-desc");
}

#[test]
fn merge_grid_key_pair() {
    // An 8-byte exact composite: both halves land in the code column.
    let key = |s: u64| KeyPair((s >> 8) as u32, (s & 0xFF) as u32);
    merge_grid(key, SortOrder::Ascending, "dg-pair-asc");
    merge_grid(key, SortOrder::Descending, "dg-pair-desc");
}

#[test]
fn merge_grid_duplicate_heavy() {
    // 700 rows over 13 distinct keys: most duels tie on the code column.
    merge_grid(|s| s % 13, SortOrder::Ascending, "dg-dup-asc");
    merge_grid(|s| s % 13, SortOrder::Descending, "dg-dup-desc");
    let key = |s: u64| BytesKey::new(format!("dup-{:02}", s % 13));
    merge_grid(key, SortOrder::Ascending, "dg-dupb-asc");
}

/// A counting cutoff observer shared by both run-generation paths. The
/// oracle ([`load_sort_store`]) filters row by row through
/// `should_eliminate`; [`BatchSort`] reads `cutoff_key` once per flush,
/// reports that clip through `rows_clipped` and checks the rest row by row.
/// Both feed the same elimination counter, so the accounting must agree
/// too. With `tighten_every`, every that-many spilled rows the cutoff
/// moves to the key just spilled, as a histogram's does inside a run: a
/// generator that checks its rows before writing any of them misses it.
struct CutoffObs<K> {
    cut: K,
    order: SortOrder,
    eliminated: u64,
    spilled: u64,
    tighten_every: Option<u64>,
}

impl<K: SortKey> SpillObserver<K> for CutoffObs<K> {
    fn should_eliminate(&mut self, key: &K) -> bool {
        let e = self.order.follows(key, &self.cut);
        if e {
            self.eliminated += 1;
        }
        e
    }
    fn row_spilled(&mut self, key: &K) {
        self.spilled += 1;
        let due = self.tighten_every.is_some_and(|n| self.spilled.is_multiple_of(n));
        if due && self.order.precedes(key, &self.cut) {
            self.cut = key.clone();
        }
    }
    fn cutoff_key(&mut self) -> Option<K> {
        Some(self.cut.clone())
    }
    fn rows_clipped(&mut self, n: u64) {
        self.eliminated += n;
    }
}

/// Spilled runs and in-memory residue, each a list of row sequences.
type Generated<K> = (Vec<Vec<Row<K>>>, Vec<Vec<Row<K>>>);

/// Pushes every row through [`BatchSort`], returning (runs, residue) with
/// each run fully decoded back from storage.
fn generate<K: SortKey>(
    rows: &[Row<K>],
    budget: usize,
    obs: &mut CutoffObs<K>,
    residue: ResiduePolicy,
) -> Generated<K> {
    let cat = catalog::<K>(obs.order, "rg-batch");
    let mut gen = BatchSort::new(cat.clone(), budget);
    for row in rows {
        gen.push(row.clone(), obs).unwrap();
    }
    let residue = gen.finish(obs, residue).unwrap();
    let runs =
        cat.runs().iter().map(|m| cat.open(m).unwrap().map(|r| r.unwrap()).collect()).collect();
    (runs, residue)
}

/// Load-sort-store written out in full, the reference for [`BatchSort`]:
/// fill the buffer until the next row's footprint would pass `budget` (one
/// row always fits), stable-sort it, and check each row against the
/// observer as it is written (Algorithm 1 lines 11–13). The last buffer is
/// spilled or kept as `residue` says; a buffer with no survivor is no run.
fn load_sort_store<K: SortKey>(
    rows: &[Row<K>],
    budget: usize,
    obs: &mut CutoffObs<K>,
    residue: ResiduePolicy,
) -> Generated<K> {
    let order = obs.order;
    let flush = |buffer: &mut Vec<Row<K>>, obs: &mut CutoffObs<K>, spill: bool| {
        buffer.sort_by(|a, b| order.cmp_keys(&a.key, &b.key));
        let mut out = Vec::new();
        for row in buffer.drain(..) {
            if !obs.should_eliminate(&row.key) {
                if spill {
                    obs.row_spilled(&row.key);
                }
                out.push(row);
            }
        }
        out
    };
    let (mut runs, mut buffer, mut used) = (Vec::new(), Vec::new(), 0);
    for row in rows.iter().cloned() {
        let fp = row_footprint(&row);
        if used + fp > budget && !buffer.is_empty() {
            runs.push(flush(&mut buffer, obs, true));
            used = 0;
        }
        used += fp;
        buffer.push(row);
    }
    let spill = residue == ResiduePolicy::SpillToRuns;
    let last = flush(&mut buffer, obs, spill);
    let mut kept = Vec::new();
    if spill {
        runs.push(last);
    } else {
        kept.push(last);
    }
    runs.retain(|r| !r.is_empty());
    kept.retain(|r| !r.is_empty());
    (runs, kept)
}

/// One run-generation cell: radix [`BatchSort`] against the
/// [`load_sort_store`] oracle, same budget, same observer logic:
/// byte-identical runs and residue, and the same eliminated and spilled
/// counts.
fn rungen_grid<K: SortKey>(
    key_fn: impl Fn(u64) -> K + Copy,
    order: SortOrder,
    (filter, tighten): (bool, bool),
    residue: ResiduePolicy,
    tag: &str,
) {
    let seeds = seeds(N_KEYS, 0xBEEF);
    let rows: Vec<Row<K>> = seeds.iter().map(|&s| Row::new(key_fn(s), payload(s))).collect();
    let mut keys: Vec<K> = rows.iter().map(|r| r.key.clone()).collect();
    keys.sort_by(|a, b| order.cmp_keys(a, b));
    // The cutoff admits roughly the better half of the key space. Without
    // the filter dimension, it is the worst key: `follows` never fires.
    let cut = if filter { keys[keys.len() / 2].clone() } else { keys[keys.len() - 1].clone() };
    let budget = 4096;
    let observer = || CutoffObs {
        cut: cut.clone(),
        order,
        eliminated: 0,
        spilled: 0,
        tighten_every: tighten.then_some(16),
    };
    let (mut obs_b, mut obs_o) = (observer(), observer());
    let (runs_b, res_b) = generate(&rows, budget, &mut obs_b, residue);
    let (runs_o, res_o) = load_sort_store(&rows, budget, &mut obs_o, residue);
    assert_eq!(runs_b, runs_o, "{tag}: run contents diverged");
    assert_eq!(res_b, res_o, "{tag}: residue diverged");
    assert_eq!(obs_b.eliminated, obs_o.eliminated, "{tag}: elimination counts diverged");
    assert_eq!(obs_b.spilled, obs_o.spilled, "{tag}: spill counts diverged");
}

#[test]
fn rungen_grid_all_key_types() {
    for order in [SortOrder::Ascending, SortOrder::Descending] {
        for cutoff in [(false, false), (true, false), (false, true), (true, true)] {
            for residue in [ResiduePolicy::SpillToRuns, ResiduePolicy::KeepInMemory] {
                let tag = format!("rg-{order:?}-{cutoff:?}-{residue:?}");
                rungen_grid(|s| s, order, cutoff, residue, &format!("{tag}-u64"));
                rungen_grid(
                    |s| F64Key(s as f64 / 7.0 - 5e5),
                    order,
                    cutoff,
                    residue,
                    &format!("{tag}-f64"),
                );
                rungen_grid(
                    |s| BytesKey::new(format!("commonprefix-{s:016}")),
                    order,
                    cutoff,
                    residue,
                    &format!("{tag}-bytes"),
                );
                rungen_grid(
                    |s| KeyPair((s >> 8) as u32, (s & 0xFF) as u32),
                    order,
                    cutoff,
                    residue,
                    &format!("{tag}-pair"),
                );
            }
        }
    }
}

#[test]
fn rungen_duplicate_heavy() {
    for order in [SortOrder::Ascending, SortOrder::Descending] {
        rungen_grid(|s| s % 13, order, (true, false), ResiduePolicy::SpillToRuns, "rg-dup");
        rungen_grid(|s| s % 13, order, (false, false), ResiduePolicy::KeepInMemory, "rg-dup-keep");
        rungen_grid(|s| s % 13, order, (true, true), ResiduePolicy::SpillToRuns, "rg-dup-tight");
    }
}

/// Mid-batch error latch: a source error striking inside a batch must
/// first surface the rows already merged as a short `Ok` batch, then the
/// error, then a fused (empty-forever) tree — mirroring the iterator
/// protocol, where the same rows precede the same error.
#[test]
fn error_latch_mid_batch_matches_row_protocol() {
    let make_sources = || {
        let good: Vec<Result<Row<u64>>> = (0..10).map(|k| Ok(Row::key_only(k * 2))).collect();
        let mut bad: Vec<Result<Row<u64>>> = (0..5).map(|k| Ok(Row::key_only(k * 2 + 1))).collect();
        bad.push(Err(Error::Corrupt("injected mid-stream".into())));
        bad.push(Ok(Row::key_only(999)));
        vec![IterSource::new(good.into_iter()), IterSource::new(bad.into_iter())]
    };

    // Row baseline: rows until the latch, then the error, then None.
    let mut row_rows = Vec::new();
    let mut row_err = None;
    let mut tree = LoserTree::new(make_sources(), SortOrder::Ascending).unwrap();
    for r in tree.by_ref() {
        match r {
            Ok(row) => row_rows.push(row),
            Err(e) => {
                row_err = Some(e.to_string());
                break;
            }
        }
    }
    assert!(tree.next().is_none(), "iterator must fuse after the error");

    // Batched path: same rows across batches, then the error, then fused.
    for batch_rows in BATCH_SIZES {
        let mut tree = LoserTree::new(make_sources(), SortOrder::Ascending).unwrap();
        let mut batch = RowBatch::new();
        let mut got_rows = Vec::new();
        let got_err = loop {
            match tree.merge_into(&mut batch, batch_rows) {
                Ok(()) if batch.is_empty() => break None,
                Ok(()) => got_rows.append(&mut batch.rows),
                Err(e) => break Some(e.to_string()),
            }
        };
        assert_eq!(got_rows, row_rows, "batch_rows={batch_rows}: rows before the error diverged");
        assert_eq!(got_err, row_err, "batch_rows={batch_rows}: error mismatch");
        tree.merge_into(&mut batch, batch_rows).unwrap();
        assert!(batch.is_empty(), "batch_rows={batch_rows}: tree must fuse after the error");
    }
}
