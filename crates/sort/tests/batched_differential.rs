//! Differential grid: batched execution against row-at-a-time execution.
//!
//! The batched merge drain (`LoserTree::merge_into`) and the radix
//! run generator ([`BatchSort`]) are pure performance refactors — their
//! output must be byte-identical to the iterator drain and to
//! [`LoadSortStore`] on every cell of the grid
//! {u64, F64Key, BytesKey, KeyPair} × {asc, desc} × {filter on/off} ×
//! batch_rows ∈ {1, 7, 1024}, plus duplicate-heavy inputs and the
//! mid-batch error-latch protocol.
//!
//! Payloads are derived from the key seed alone, so rows with equal keys
//! are byte-identical and stable-vs-unstable sort differences between the
//! radix and comparison paths cannot masquerade as output differences.

use std::sync::Arc;

use histok_sort::run_gen::{BatchSort, LoadSortStore, ResiduePolicy, RunGenerator};
use histok_sort::{merge_sources, open_source, IterSource, LoserTree, MergeTuning, SpillObserver};
use histok_storage::{IoStats, MemoryBackend, RunCatalog};
use histok_types::{BytesKey, Error, F64Key, KeyPair, Result, Row, RowBatch, SortKey, SortOrder};

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
        cat.register(w.finish().unwrap()).unwrap();
    }
}

fn open_tree<K: SortKey>(
    cat: &RunCatalog<K>,
    tuning: &MergeTuning,
) -> LoserTree<K, histok_sort::MergeSource<K>> {
    let sources: Vec<_> = cat.runs().iter().map(|m| open_source(cat, m).unwrap()).collect();
    merge_sources(sources, cat.order(), tuning).unwrap()
}

/// Row-at-a-time baseline: the plain `Iterator` drain, optionally stopping
/// after `limit` rows (a top-k merge's early stop).
fn drain_rows<K: SortKey>(cat: &RunCatalog<K>, limit: Option<usize>) -> Vec<Row<K>> {
    let tuning = MergeTuning::default();
    let tree = open_tree(cat, &tuning);
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
) -> Vec<Row<K>> {
    let tuning = MergeTuning::default().with_batch_rows(batch_rows);
    let mut tree = open_tree(cat, &tuning);
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
/// without the early-stop "filter".
fn merge_grid<K: SortKey>(key_fn: impl Fn(u64) -> K + Copy, order: SortOrder, tag: &str) {
    let cat = catalog::<K>(order, tag);
    write_runs(&cat, &seeds(N_KEYS, 0xD1FF), key_fn);
    for filter in [false, true] {
        let limit = filter.then_some(37);
        let expected = drain_rows(&cat, limit);
        for batch_rows in BATCH_SIZES {
            let got = drain_batched(&cat, batch_rows, limit);
            assert_eq!(
                got, expected,
                "{tag}: batched (batch_rows={batch_rows}, limit={limit:?}) diverged from row-at-a-time"
            );
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
/// baseline ([`LoadSortStore`]) filters row by row through
/// `should_eliminate`; [`BatchSort`] reads `cutoff_key` once per flush and
/// reports the whole clip through `rows_clipped`. Both feed the same
/// elimination counter, so the accounting must agree too.
struct CutoffObs<K> {
    cut: K,
    order: SortOrder,
    eliminated: u64,
    spilled: u64,
}

impl<K: SortKey> SpillObserver<K> for CutoffObs<K> {
    fn should_eliminate(&mut self, key: &K) -> bool {
        let e = self.order.follows(key, &self.cut);
        if e {
            self.eliminated += 1;
        }
        e
    }
    fn row_spilled(&mut self, _key: &K) {
        self.spilled += 1;
    }
    fn cutoff_key(&mut self) -> Option<K> {
        Some(self.cut.clone())
    }
    fn rows_clipped(&mut self, n: u64) {
        self.eliminated += n;
    }
}

/// Pushes every seed through `gen`, returning (runs, residue, eliminated,
/// spilled) with each run fully decoded back from storage.
///
/// Run-generation payloads are derived from the *key* (its normalized
/// prefix), not the seed: the radix sort is stable, the comparison sort
/// is not, and equal keys must stay byte-identical either way.
#[allow(clippy::type_complexity)]
fn generate<K: SortKey>(
    gen: &mut dyn RunGenerator<K>,
    cat: &RunCatalog<K>,
    obs: &mut CutoffObs<K>,
    seeds: &[u64],
    key_fn: impl Fn(u64) -> K,
    residue: ResiduePolicy,
) -> (Vec<Vec<Row<K>>>, Vec<Vec<Row<K>>>, u64, u64) {
    for &s in seeds {
        let key = key_fn(s);
        let pl = payload(key.norm_prefix());
        gen.push(Row::new(key, pl), obs).unwrap();
    }
    let residue = gen.finish(obs, residue).unwrap();
    let runs: Vec<Vec<Row<K>>> =
        cat.runs().iter().map(|m| cat.open(m).unwrap().map(|r| r.unwrap()).collect()).collect();
    (runs, residue, obs.eliminated, obs.spilled)
}

/// One run-generation cell: radix [`BatchSort`] against comparison-based
/// [`LoadSortStore`], same budget, same observer logic, byte-identical
/// runs and residue.
fn rungen_grid<K: SortKey>(
    key_fn: impl Fn(u64) -> K + Copy,
    order: SortOrder,
    filter: bool,
    residue: ResiduePolicy,
    tag: &str,
) {
    let seeds = seeds(N_KEYS, 0xBEEF);
    // The cutoff admits roughly the better half of the key space.
    let cut = {
        let mut keys: Vec<K> = seeds.iter().map(|&s| key_fn(s)).collect();
        keys.sort_by(|a, b| order.cmp_keys(a, b));
        keys[keys.len() / 2].clone()
    };
    let budget = 4096;
    let run = |gen_batch: bool| {
        let cat = catalog::<K>(order, if gen_batch { "rg-batch" } else { "rg-cmp" });
        let mut gen: Box<dyn RunGenerator<K>> = if gen_batch {
            Box::new(BatchSort::new(cat.clone(), budget))
        } else {
            Box::new(LoadSortStore::new(cat.clone(), budget))
        };
        let mut obs = CutoffObs { cut: cut.clone(), order, eliminated: 0, spilled: 0 };
        // Without the filter dimension, neutralize the cutoff by making it
        // the worst admitted key: `follows` never fires.
        if !filter {
            let mut keys: Vec<K> = seeds.iter().map(|&s| key_fn(s)).collect();
            keys.sort_by(|a, b| order.cmp_keys(a, b));
            obs.cut = keys.last().unwrap().clone();
        }
        generate(gen.as_mut(), &cat, &mut obs, &seeds, key_fn, residue)
    };
    let (runs_b, res_b, elim_b, spill_b) = run(true);
    let (runs_c, res_c, elim_c, spill_c) = run(false);
    assert_eq!(runs_b, runs_c, "{tag}: run contents diverged");
    assert_eq!(res_b, res_c, "{tag}: residue diverged");
    assert_eq!(elim_b, elim_c, "{tag}: elimination counts diverged");
    assert_eq!(spill_b, spill_c, "{tag}: spill counts diverged");
}

#[test]
fn rungen_grid_all_key_types() {
    for order in [SortOrder::Ascending, SortOrder::Descending] {
        for filter in [false, true] {
            for residue in [ResiduePolicy::SpillToRuns, ResiduePolicy::KeepInMemory] {
                let tag = format!("rg-{order:?}-f{filter}-{residue:?}");
                rungen_grid(|s| s, order, filter, residue, &format!("{tag}-u64"));
                rungen_grid(
                    |s| F64Key(s as f64 / 7.0 - 5e5),
                    order,
                    filter,
                    residue,
                    &format!("{tag}-f64"),
                );
                rungen_grid(
                    |s| BytesKey::new(format!("commonprefix-{s:016}")),
                    order,
                    filter,
                    residue,
                    &format!("{tag}-bytes"),
                );
                rungen_grid(
                    |s| KeyPair((s >> 8) as u32, (s & 0xFF) as u32),
                    order,
                    filter,
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
        rungen_grid(|s| s % 13, order, true, ResiduePolicy::SpillToRuns, "rg-dup");
        rungen_grid(|s| s % 13, order, false, ResiduePolicy::KeepInMemory, "rg-dup-keep");
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
