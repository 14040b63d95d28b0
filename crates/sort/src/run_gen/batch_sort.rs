//! Load-sort-store run generation, by radix sort.
//!
//! The strategy the paper's §3.2 analysis assumes ("to create a run we fill
//! our available memory with input rows, sort and write them to disk") and
//! the one PostgreSQL's top-k uses (§5.2). Fill the workspace, sort an index
//! of `(prefix, row)` pairs by an LSB radix pass over the 8-byte normalized
//! key prefixes (digit passes that carry no information are skipped), fall
//! back to a stable comparison sort only inside groups of rows whose
//! prefixes tie, and write the rows in index order; they never move. For
//! keys whose whole normalized form fits the prefix — the integers,
//! `F64Key` — the sort never touches a key byte and never calls a
//! comparator. The sort is stable for every key type.
//!
//! Runs are memory-sized, with `run_started`/`row_spilled`/`run_finished`
//! per run and Algorithm 1 per row as it is written (`should_eliminate`,
//! append, `row_spilled`, lines 10–13), so a cutoff that tightens inside a
//! run eliminates the run's later rows. An observer that exposes a plain
//! cutoff lets the flush drop the sorted tail past it with one scan first.

use std::sync::Arc;

use histok_storage::RunCatalog;
use histok_types::{Result, Row, SortKey, SortOrder};

use crate::budget::{row_footprint, MemoryBudget};
use crate::cmp_stats::CmpStats;
use crate::fold::FoldSpec;
use crate::observer::SpillObserver;
use crate::run_gen::{ResiduePolicy, RunGenerator};

/// Sorts `pairs` by their `u64` ascending with a stable LSB radix (8-bit
/// digits, low to high). Digits on which all values agree are skipped, so
/// narrow key domains pay for the passes they need, not all eight.
fn radix_sort_pairs(pairs: &mut Vec<(u64, u32)>, scratch: &mut Vec<(u64, u32)>) {
    let n = pairs.len();
    if n < 2 {
        return;
    }
    // One read pass builds every digit's histogram.
    let mut hist = [[0u32; 256]; 8];
    for &(p, _) in pairs.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[((p >> (8 * d)) & 0xFF) as usize] += 1;
        }
    }
    scratch.clear();
    scratch.resize(n, (0, 0));
    for (d, h) in hist.iter().enumerate() {
        if h.iter().any(|&c| c as usize == n) {
            continue; // every value shares this digit
        }
        let mut offsets = [0u32; 256];
        let mut acc = 0u32;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = acc;
            acc += c;
        }
        for &pair in pairs.iter() {
            let digit = ((pair.0 >> (8 * d)) & 0xFF) as usize;
            scratch[offsets[digit] as usize] = pair;
            offsets[digit] += 1;
        }
        std::mem::swap(pairs, scratch);
    }
}

/// Sorts `(prefix, row)` pairs into output order, keeping arrival order
/// among equal keys: the radix pass, then `cmp` over rows inside each group
/// of equal prefixes unless `exact` (equal prefixes are equal keys). Returns
/// the comparisons made.
pub(super) fn sort_pairs(
    pairs: &mut Vec<(u64, u32)>,
    scratch: &mut Vec<(u64, u32)>,
    exact: bool,
    mut cmp: impl FnMut(u32, u32) -> std::cmp::Ordering,
) -> u64 {
    radix_sort_pairs(pairs, scratch);
    let (mut cmps, inexact) = (0, if exact { &mut pairs[..0] } else { &mut pairs[..] });
    for ties in inexact.chunk_by_mut(|a, b| a.0 == b.0).filter(|t| t.len() > 1) {
        ties.sort_by(|a, b| {
            cmps += 1;
            cmp(a.1, b.1)
        });
    }
    cmps
}

/// Folds adjacent equal keys of sorted pairs: for each pair whose prefix
/// equals the last survivor's, `fold(survivor, row)` folds the row into the
/// survivor if their keys are equal (releasing the row) and says whether it
/// did; folded rows leave `pairs`.
pub(super) fn fold_sorted_pairs(
    pairs: &mut Vec<(u64, u32)>,
    mut fold: impl FnMut(u32, u32) -> bool,
) {
    let mut w = 0;
    for r in 1..pairs.len() {
        let (acc, dup) = (pairs[w], pairs[r]);
        if acc.0 != dup.0 || !fold(acc.1, dup.1) {
            w += 1;
            pairs[w] = dup;
        }
    }
    pairs.truncate(w + 1);
}

/// Radix-based run generation over the normalized-prefix column.
pub struct BatchSort<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    /// Buffered rows, in arrival order; they never move.
    rows: Vec<Row<K>>,
    /// `(output-order prefix, index into rows)` per buffered row, where the
    /// prefix is `norm_prefix() ^ out_mask`: ascending in it is output
    /// order. Sorted at a flush, and what the flush writes in order.
    pairs: Vec<(u64, u32)>,
    /// 0 for ascending output, `!0` for descending.
    out_mask: u64,
    budget: MemoryBudget,
    order: SortOrder,
    /// Reused radix workspace, kept across flushes.
    scratch: Vec<(u64, u32)>,
    fold: Option<FoldSpec>,
    rows_folded: u64,
    bytes_folded: u64,
    /// Full key comparisons the sorts of prefix ties made.
    full_cmps: u64,
    /// Shared sink `full_cmps` flushes into on drop.
    cmp_stats: Option<CmpStats>,
}

impl<K: SortKey> BatchSort<K> {
    /// Creates a generator writing runs through `catalog` under a budget
    /// of `budget_bytes`.
    pub fn new(catalog: Arc<RunCatalog<K>>, budget_bytes: usize) -> Self {
        Self::with_budget(catalog, MemoryBudget::new(budget_bytes))
    }

    /// Creates a generator charging its workspace against `budget` — use a
    /// budget forked from a shared [`crate::BudgetHandle`] when an external
    /// lease governs the limit.
    pub fn with_budget(catalog: Arc<RunCatalog<K>>, budget: MemoryBudget) -> Self {
        let order = catalog.order();
        let out_mask = match order {
            SortOrder::Ascending => 0,
            SortOrder::Descending => !0u64,
        };
        BatchSort {
            catalog,
            rows: Vec::new(),
            pairs: Vec::new(),
            out_mask,
            budget,
            order,
            scratch: Vec::new(),
            fold: None,
            rows_folded: 0,
            bytes_folded: 0,
            full_cmps: 0,
            cmp_stats: None,
        }
    }

    /// Attaches a shared comparison-counter sink (flushed on drop).
    pub fn with_stats(mut self, stats: Option<CmpStats>) -> Self {
        self.cmp_stats = stats;
        self
    }

    /// Enables duplicate folding: after each buffer sort, adjacent equal
    /// keys collapse into one row before the run is written, so runs leave
    /// the generator already duplicate-free. Equality is decided on the
    /// prefix column alone for prefix-exact keys and falls back to a full
    /// key compare when tied prefixes are inconclusive.
    pub fn with_fold(mut self, fold: FoldSpec) -> Self {
        self.fold = Some(fold);
        self
    }

    fn key(&self, pair: (u64, u32)) -> &K {
        &self.rows[pair.1 as usize].key
    }

    /// Sorts the index into output order, then, folding, collapses
    /// adjacent equal keys: each duplicate's payload folds into the group's
    /// surviving row and its budget is released; the duplicate leaves the
    /// index (its row is dropped with the buffer).
    fn sort_buffer(&mut self) {
        let (order, rows, exact) = (self.order, &self.rows, K::norm_prefix_is_exact());
        self.full_cmps += sort_pairs(&mut self.pairs, &mut self.scratch, exact, |a, b| {
            order.cmp_keys(&rows[a as usize].key, &rows[b as usize].key)
        });
        let Some(spec) = self.fold.clone() else { return };
        let mut pairs = std::mem::take(&mut self.pairs);
        fold_sorted_pairs(&mut pairs, |acc, dup| {
            let (acc, dup) = (acc as usize, dup as usize);
            if !exact && self.rows[acc].key != self.rows[dup].key {
                return false;
            }
            let dup = &self.rows[dup];
            self.rows_folded += 1;
            self.bytes_folded += dup.encoded_len() as u64;
            let (dup_footprint, dup_payload) = (row_footprint(dup), dup.payload.clone());
            let acc = &mut self.rows[acc];
            if let Some(folded) = spec.agg.fold(&acc.payload, &dup_payload) {
                let old_fp = row_footprint(acc);
                acc.payload = folded;
                self.budget.resize_row(old_fp, row_footprint(acc));
            }
            self.budget.release(dup_footprint);
            true
        });
        self.pairs = pairs;
    }

    /// The sorted index's rows that survive the observer: all of them, or
    /// up to the first that sorts after its plain cutoff, if it exposes one
    /// (found on the prefix column; key bytes are consulted only for wide
    /// keys whose prefix ties the cutoff's). The clipped tail's budget is
    /// released. A cutoff only tightens, so the clip is a head start: every
    /// survivor is still checked as it is written.
    fn clip(&mut self, obs: &mut dyn SpillObserver<K>) -> usize {
        let Some(cut) = obs.cutoff_key() else { return self.pairs.len() };
        let cut_out = cut.norm_prefix() ^ self.out_mask;
        let keep = if K::norm_prefix_is_exact() {
            self.pairs.partition_point(|&(p, _)| p <= cut_out)
        } else {
            let candidate = self.pairs.partition_point(|&(p, _)| p < cut_out);
            (candidate..self.pairs.len())
                .find(|&i| self.order.follows(self.key(self.pairs[i]), &cut))
                .unwrap_or(self.pairs.len())
        };
        for &(_, i) in &self.pairs[keep..] {
            self.budget.release(row_footprint(&self.rows[i as usize]));
        }
        if keep < self.pairs.len() {
            obs.rows_clipped((self.pairs.len() - keep) as u64);
        }
        keep
    }

    /// Sorts and writes the whole buffer as one run, in index order, with
    /// Algorithm 1 per row: `should_eliminate`, append, `row_spilled`, so a
    /// cutoff that tightens inside the run eliminates its later rows.
    fn flush(&mut self, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        if self.rows.is_empty() {
            return Ok(());
        }
        self.sort_buffer();
        // The run estimate is the buffer being flushed — known exactly,
        // before spill-time elimination.
        let estimated_rows = self.pairs.len() as u64;
        let mut writer = None;
        for i in 0..self.clip(obs) {
            let (prefix, r) = self.pairs[i];
            let row = &self.rows[r as usize];
            self.budget.release(row_footprint(row));
            if obs.should_eliminate(&row.key) {
                continue;
            }
            if writer.is_none() {
                writer = Some(self.catalog.start_run()?);
                obs.run_started(estimated_rows.max(1));
            }
            if let Some(w) = writer.as_mut() {
                // The raw prefix is at hand: no key is re-encoded.
                w.append_with_prefix(row, prefix ^ self.out_mask)?;
            }
            obs.row_spilled(&row.key);
        }
        if let Some(w) = writer {
            self.catalog.finish_run(w)?;
            obs.run_finished();
        }
        self.rows.clear();
        self.pairs.clear();
        Ok(())
    }
}

impl<K: SortKey> RunGenerator<K> for BatchSort<K> {
    fn push(&mut self, row: Row<K>, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        let fp = row_footprint(&row);
        if self.budget.would_exceed(fp) && !self.rows.is_empty() {
            self.flush(obs)?;
        }
        self.budget.charge(fp);
        self.pairs.push((row.key.norm_prefix() ^ self.out_mask, self.rows.len() as u32));
        self.rows.push(row);
        Ok(())
    }

    fn finish(
        &mut self,
        obs: &mut dyn SpillObserver<K>,
        residue: ResiduePolicy,
    ) -> Result<Vec<Vec<Row<K>>>> {
        if residue == ResiduePolicy::SpillToRuns {
            self.flush(obs)?;
            return Ok(Vec::new());
        }
        self.sort_buffer();
        let keep = self.clip(obs);
        let mut rows: Vec<Option<Row<K>>> = self.rows.drain(..).map(Some).collect();
        let mut out = Vec::with_capacity(keep);
        for &(_, i) in &self.pairs[..keep] {
            let Some(row) = rows[i as usize].take() else { continue };
            self.budget.release(row_footprint(&row));
            if !obs.should_eliminate(&row.key) {
                out.push(row);
            }
        }
        self.pairs.clear();
        Ok(if out.is_empty() { Vec::new() } else { vec![out] })
    }

    fn buffered_rows(&self) -> usize {
        self.pairs.len()
    }

    fn buffered_bytes(&self) -> usize {
        self.budget.used()
    }

    fn cmp_counts(&self) -> (u64, u64) {
        (0, self.full_cmps)
    }

    fn set_fold(&mut self, fold: Option<FoldSpec>) {
        self.fold = fold;
    }
}

impl<K: SortKey> Drop for BatchSort<K> {
    fn drop(&mut self) {
        if let Some(stats) = &self.cmp_stats {
            stats.record(0, self.full_cmps);
        }
        if let Some(spec) = &self.fold {
            spec.flush_pre_spill(self.rows_folded, self.bytes_folded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;
    use histok_storage::{IoStats, MemoryBackend};
    use histok_types::BytesKey;

    fn catalog(order: SortOrder) -> Arc<RunCatalog<u64>> {
        Arc::new(RunCatalog::new(Arc::new(MemoryBackend::new()), "bs", order, IoStats::new()))
    }

    fn read_all(cat: &RunCatalog<u64>) -> Vec<Vec<u64>> {
        cat.runs().iter().map(|m| cat.open(m).unwrap().map(|r| r.unwrap().key).collect()).collect()
    }

    #[test]
    fn radix_pairs_sort_and_stay_stable() {
        let mut pairs: Vec<(u64, u32)> =
            vec![(5, 0), (1, 1), (5, 2), (0, 3), (u64::MAX, 4), (1, 5), (5, 6)];
        let mut scratch = Vec::new();
        radix_sort_pairs(&mut pairs, &mut scratch);
        assert_eq!(pairs, vec![(0, 3), (1, 1), (1, 5), (5, 0), (5, 2), (5, 6), (u64::MAX, 4)]);
    }

    #[test]
    fn runs_are_memory_sized_and_sorted_both_orders() {
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let cat = catalog(order);
            let row_bytes = row_footprint(&Row::key_only(0u64));
            let mut gen = BatchSort::new(cat.clone(), 10 * row_bytes);
            let mut obs = NoopObserver;
            for k in [77u64, 3, 41, 9, 100, 2, 55, 13, 8, 99, 1, 64, 30, 5, 88, 21, 7, 45, 6, 92] {
                gen.push(Row::key_only(k), &mut obs).unwrap();
            }
            gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
            let runs = read_all(&cat);
            assert!(runs.len() >= 2, "order {order:?}: expected 2+ runs, got {}", runs.len());
            let mut all = Vec::new();
            for run in &runs {
                let sorted = match order {
                    SortOrder::Ascending => run.windows(2).all(|w| w[0] <= w[1]),
                    SortOrder::Descending => run.windows(2).all(|w| w[0] >= w[1]),
                };
                assert!(sorted, "run not sorted for {order:?}: {run:?}");
                assert!(run.len() <= 10);
                all.extend_from_slice(run);
            }
            all.sort_unstable();
            let mut expected =
                vec![77u64, 3, 41, 9, 100, 2, 55, 13, 8, 99, 1, 64, 30, 5, 88, 21, 7, 45, 6, 92];
            expected.sort_unstable();
            assert_eq!(all, expected);
        }
    }

    /// Load-sort-store written out in full: fill the buffer until the next
    /// row's footprint would pass `budget` (one row always fits), stable
    /// sort, one run per buffer.
    fn load_sort_store_oracle<K: SortKey>(
        rows: &[Row<K>],
        budget: usize,
        order: SortOrder,
    ) -> Vec<Vec<Row<K>>> {
        let (mut runs, mut buffer, mut used) = (Vec::new(), Vec::<Row<K>>::new(), 0);
        for row in rows {
            let fp = row_footprint(row);
            if used + fp > budget && !buffer.is_empty() {
                runs.push(std::mem::take(&mut buffer));
                used = 0;
            }
            used += fp;
            buffer.push(row.clone());
        }
        runs.extend((!buffer.is_empty()).then_some(buffer));
        for run in &mut runs {
            run.sort_by(|a, b| order.cmp_keys(&a.key, &b.key));
        }
        runs
    }

    #[test]
    fn matches_load_sort_store_output_on_wide_keys() {
        // Byte keys sharing their first 13 bytes exercise the prefix-tie
        // fallback; equal keys carry their arrival number, so the runs must
        // equal the oracle's row for row, in both orders.
        let rows: Vec<Row<BytesKey>> = (0..200u32)
            .map(|i| {
                let key = BytesKey::from(format!("commonprefix-{:03}", i * 7 % 50).as_str());
                Row::new(key, i.to_le_bytes().to_vec())
            })
            .collect();
        let budget = 40 * row_footprint(&rows[0]);
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let cat = Arc::new(RunCatalog::<BytesKey>::new(
                Arc::new(MemoryBackend::new()),
                "w",
                order,
                IoStats::new(),
            ));
            let mut gen = BatchSort::new(cat.clone(), budget);
            for row in &rows {
                gen.push(row.clone(), &mut NoopObserver).unwrap();
            }
            gen.finish(&mut NoopObserver, ResiduePolicy::SpillToRuns).unwrap();
            let got: Vec<Vec<Row<BytesKey>>> = cat
                .runs()
                .iter()
                .map(|m| cat.open(m).unwrap().map(|r| r.unwrap()).collect())
                .collect();
            assert_eq!(got, load_sort_store_oracle(&rows, budget, order), "{order:?}");
        }
    }

    #[test]
    fn sorted_input_still_produces_memory_sized_runs() {
        // Unlike replacement selection, load-sort-store gains nothing from
        // sorted input.
        let cat = catalog(SortOrder::Ascending);
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = BatchSort::new(cat.clone(), 10 * row_bytes);
        let mut obs = NoopObserver;
        for k in 0..100u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert_eq!(read_all(&cat).len(), 10);
    }

    #[test]
    fn run_estimate_matches_buffer_for_wide_payload_rows() {
        struct Estimates(Vec<u64>, Vec<u64>, u64);
        impl SpillObserver<u64> for Estimates {
            fn run_started(&mut self, estimated_rows: u64) {
                self.0.push(estimated_rows);
                self.2 = 0;
            }
            fn row_spilled(&mut self, _key: &u64) {
                self.2 += 1;
            }
            fn run_finished(&mut self) {
                self.1.push(self.2);
            }
        }
        let cat = catalog(SortOrder::Ascending);
        let payload = 400usize;
        let row_bytes = row_footprint(&Row::new(0u64, vec![0u8; payload]));
        let mut gen = BatchSort::new(cat.clone(), 40 * row_bytes);
        let mut obs = Estimates(Vec::new(), Vec::new(), 0);
        for k in 0..500u64 {
            gen.push(Row::new(k, vec![0u8; payload]), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert_eq!(obs.0.len(), obs.1.len());
        for (est, actual) in obs.0.iter().zip(&obs.1) {
            assert!(
                *est <= 2 * actual && *est >= actual / 2,
                "estimate {est} not within 2x of actual run length {actual}"
            );
        }
    }

    #[test]
    fn oversized_single_row_does_not_wedge() {
        let cat = catalog(SortOrder::Ascending);
        let mut gen = BatchSort::new(cat.clone(), 64); // tiny budget
        let mut obs = NoopObserver;
        gen.push(Row::new(1u64, vec![0u8; 1024]), &mut obs).unwrap();
        gen.push(Row::new(2u64, vec![0u8; 1024]), &mut obs).unwrap();
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert_eq!(read_all(&cat), vec![vec![1], vec![2]]);
        assert_eq!(gen.buffered_bytes(), 0);
    }

    #[test]
    fn cutoff_key_clips_vectorized() {
        struct CutAt(u64);
        impl SpillObserver<u64> for CutAt {
            fn should_eliminate(&mut self, key: &u64) -> bool {
                *key > self.0
            }
            fn cutoff_key(&mut self) -> Option<u64> {
                Some(self.0)
            }
        }
        let cat = catalog(SortOrder::Ascending);
        let mut gen = BatchSort::new(cat.clone(), 1 << 20);
        let mut obs = CutAt(20);
        for k in (0..100u64).rev() {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let spilled: Vec<u64> = read_all(&cat).into_iter().flatten().collect();
        assert_eq!(spilled, (0..=20).collect::<Vec<_>>());
        assert_eq!(gen.buffered_bytes(), 0);
    }

    #[test]
    fn per_row_observer_still_filters_without_cutoff_key() {
        struct OddKiller;
        impl SpillObserver<u64> for OddKiller {
            fn should_eliminate(&mut self, key: &u64) -> bool {
                key % 2 == 1 // not a suffix of the sorted buffer
            }
        }
        let cat = catalog(SortOrder::Ascending);
        let mut gen = BatchSort::new(cat.clone(), 1 << 20);
        let mut obs = OddKiller;
        for k in 0..50u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let spilled: Vec<u64> = read_all(&cat).into_iter().flatten().collect();
        assert_eq!(spilled, (0..50).filter(|k| k % 2 == 0).collect::<Vec<_>>());
        assert_eq!(gen.buffered_bytes(), 0);
    }

    #[test]
    fn residue_kept_in_memory_is_sorted_filtered_and_released() {
        struct CutAt(u64);
        impl SpillObserver<u64> for CutAt {
            fn should_eliminate(&mut self, key: &u64) -> bool {
                *key > self.0
            }
            fn cutoff_key(&mut self) -> Option<u64> {
                Some(self.0)
            }
        }
        let cat = catalog(SortOrder::Ascending);
        let mut gen = BatchSort::new(cat.clone(), 1 << 20);
        let mut obs = CutAt(7);
        for k in [9u64, 2, 7, 4, 11] {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::KeepInMemory).unwrap();
        assert!(cat.is_empty());
        assert_eq!(residue.len(), 1);
        assert_eq!(residue[0].iter().map(|r| r.key).collect::<Vec<_>>(), vec![2, 4, 7]);
        assert_eq!(gen.buffered_bytes(), 0);
    }

    #[test]
    fn fully_clipped_buffer_registers_no_run() {
        struct KillAll;
        impl SpillObserver<u64> for KillAll {
            fn should_eliminate(&mut self, _: &u64) -> bool {
                true
            }
        }
        let cat = catalog(SortOrder::Ascending);
        let mut gen = BatchSort::new(cat.clone(), 1 << 20);
        let mut obs = KillAll;
        for k in 0..10u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert!(residue.is_empty());
        assert!(cat.is_empty());
    }

    #[test]
    fn observer_protocol_fires_per_run() {
        struct Protocol {
            started: Vec<u64>,
            spilled: u64,
            finished: usize,
        }
        impl SpillObserver<u64> for Protocol {
            fn run_started(&mut self, est: u64) {
                self.started.push(est);
            }
            fn row_spilled(&mut self, _k: &u64) {
                self.spilled += 1;
            }
            fn run_finished(&mut self) {
                self.finished += 1;
            }
        }
        let cat = catalog(SortOrder::Ascending);
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = BatchSort::new(cat.clone(), 10 * row_bytes);
        let mut obs = Protocol { started: Vec::new(), spilled: 0, finished: 0 };
        for k in 0..35u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert_eq!(obs.started.len(), obs.finished);
        assert_eq!(obs.spilled, 35);
        assert!(obs.started.iter().all(|&e| e > 0 && e <= 10));
    }

    #[test]
    fn fold_collapses_adjacent_duplicates_per_run() {
        use crate::fold::{FoldSpec, FoldStats};
        use histok_types::{decode_count, AggregateOp, Bytes};
        let agg = AggregateOp::Count.aggregator();
        let stats = FoldStats::new();
        let cat = catalog(SortOrder::Ascending);
        let row_bytes = row_footprint(&Row::new(0u64, agg.init(Bytes::new())));
        let mut gen = BatchSort::new(cat.clone(), 20 * row_bytes)
            .with_fold(FoldSpec::new(agg.clone()).with_stats(stats.clone()));
        let mut obs = NoopObserver;
        // 60 rows over 5 distinct keys, scattered so each memory load holds
        // many duplicates of each key.
        for i in 0..60u64 {
            gen.push(Row::new(i % 5, agg.init(Bytes::new())), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let mut total = [0u64; 5];
        for meta in cat.runs().iter() {
            let rows: Vec<Row<u64>> = cat.open(meta).unwrap().map(|r| r.unwrap()).collect();
            // Each run is duplicate-free: distinct, sorted keys.
            assert!(rows.windows(2).all(|w| w[0].key < w[1].key), "run keys must be distinct");
            for row in rows {
                total[row.key as usize] += decode_count(&row.payload);
            }
        }
        assert_eq!(total, [12; 5], "folded counts must cover every input row");
        assert_eq!(gen.buffered_bytes(), 0);
        drop(gen);
        let snap = stats.snapshot();
        assert_eq!(snap.rows_folded + 5 * cat.runs().len() as u64, 60);
        assert!(snap.bytes_folded_pre_spill > 0);
    }

    #[test]
    fn fold_wide_keys_with_tied_prefixes_only_merges_true_equals() {
        use crate::fold::FoldSpec;
        use histok_types::AggregateOp;
        let cat = Arc::new(RunCatalog::<BytesKey>::new(
            Arc::new(MemoryBackend::new()),
            "wf",
            SortOrder::Ascending,
            IoStats::new(),
        ));
        let mut gen = BatchSort::new(cat.clone(), 1 << 20)
            .with_fold(FoldSpec::new(AggregateOp::First.aggregator()));
        let mut obs = NoopObserver;
        // Same 8-byte prefix, three distinct tails, with duplicates.
        for s in ["prefix-0001-a", "prefix-0001-b", "prefix-0001-a", "prefix-0001-c"] {
            gen.push(Row::key_only(BytesKey::from(s)), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let runs = cat.runs();
        assert_eq!(runs.len(), 1);
        let got: Vec<BytesKey> = cat.open(&runs[0]).unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(
            got,
            vec![
                BytesKey::from("prefix-0001-a"),
                BytesKey::from("prefix-0001-b"),
                BytesKey::from("prefix-0001-c"),
            ]
        );
    }

    #[test]
    fn descending_f64_keys_sort_by_prefix_only() {
        use histok_types::F64Key;
        let cat = Arc::new(RunCatalog::<F64Key>::new(
            Arc::new(MemoryBackend::new()),
            "f",
            SortOrder::Descending,
            IoStats::new(),
        ));
        let mut gen = BatchSort::new(cat.clone(), 1 << 20);
        let mut obs = NoopObserver;
        let vals = [1.5f64, -2.25, 0.0, -0.0, 100.0, -1e300, 3.5e-10, -7.0];
        for v in vals {
            gen.push(Row::key_only(F64Key(v)), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let runs = cat.runs();
        assert_eq!(runs.len(), 1);
        let got: Vec<f64> = cat.open(&runs[0]).unwrap().map(|r| r.unwrap().key.0).collect();
        let mut expected = vals.to_vec();
        expected.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(got, expected);
    }

    /// Wide keys whose prefixes tie are sorted by full key, and each of
    /// those comparisons reaches the stats sink at drop; a key whose prefix
    /// is the whole key is sorted without one.
    #[test]
    fn prefix_ties_book_their_full_comparisons() {
        use histok_types::F64Key;
        fn sorted_with_stats<K: SortKey>(keys: &[K]) -> (u64, crate::CmpSnapshot) {
            let cat = Arc::new(RunCatalog::<K>::new(
                Arc::new(MemoryBackend::new()),
                "cmp",
                SortOrder::Ascending,
                IoStats::new(),
            ));
            let stats = CmpStats::new();
            let mut gen = BatchSort::new(cat, 1 << 20).with_stats(Some(stats.clone()));
            for key in keys {
                gen.push(Row::key_only(key.clone()), &mut NoopObserver).unwrap();
            }
            gen.finish(&mut NoopObserver, ResiduePolicy::SpillToRuns).unwrap();
            let counted = gen.cmp_counts().1;
            drop(gen);
            (counted, stats.snapshot())
        }
        // One buffer of keys sharing their 8-byte prefix: a single tie
        // group of `(prefix, index)` pairs in arrival order, sorted by the
        // same stable sort as this reference, which counts its comparisons.
        let keys: Vec<BytesKey> = (0..300u64)
            .map(|i| BytesKey::new(format!("shared-prefix-{:05}", i * 7919 % 300)))
            .collect();
        let mut pairs: Vec<(u64, u32)> = (0..300).map(|i| (keys[0].norm_prefix(), i)).collect();
        let mut want = 0u64;
        pairs.sort_by(|a, b| {
            want += 1;
            keys[a.1 as usize].cmp(&keys[b.1 as usize])
        });
        let (counted, snap) = sorted_with_stats(&keys);
        assert!(want > 0);
        assert_eq!((counted, snap.full_cmps, snap.ovc_cmps), (want, want, 0));
        let floats: Vec<F64Key> = (0..300u64).map(|i| F64Key((i * 7919 % 300) as f64)).collect();
        let (counted, snap) = sorted_with_stats(&floats);
        assert_eq!((counted, snap.full_cmps, snap.ovc_cmps), (0, 0, 0));
    }
}
