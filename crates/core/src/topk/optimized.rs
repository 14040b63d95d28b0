//! The optimized external-merge-sort top-k of [Graefe'08] — the paper's
//! baseline (§2.5, §5.1.3).
//!
//! Beyond the traditional algorithm it applies three optimizations:
//!
//! 1. **run size ≤ k** — no run ever needs more rows than the output;
//! 2. **kth-key filter** — once any single run holds `k` rows, its `k`th
//!    key is a valid cutoff for all further input;
//! 3. **early merge step** — when `k` exceeds a run (the paper's target
//!    regime), runs are merged early into an intermediate run of `k` rows
//!    whose last key becomes the cutoff.
//!
//! Compared to the histogram algorithm this establishes a cutoff *later*
//! (a full merge step must complete first), pays merge I/O to sharpen it,
//! and disrupts pipelined run generation — exactly the costs §3.2.1
//! quantifies ("our algorithm will write 12× less input rows compared to
//! the optimized external merge sort").
//!
//! It is a recipe of [`TopK`]: the k-th key of a run of `k` rows
//! is the run's one histogram bucket of width `k` (DESIGN.md §5), so the
//! cutoff filter with that sizing and no tail buckets is the kth-key
//! filter, and [`EarlyMerge`] adds step 3.

use std::sync::Arc;

use histok_sort::{merge_runs_to_new, MergeTuning};
use histok_storage::{RunCatalog, StorageBackend};
use histok_types::{Result, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::cutoff::CutoffFilter;
use crate::topk::histogram_topk::{Recipe, RecipeKind, TopK};

/// The [Graefe'08] optimized external top-k: the operator of
/// [`HistogramTopK`](crate::HistogramTopK) with the optimized recipe. It
/// rejects dedup/aggregate configs and fixes filter, sizing, slack, run
/// generation and residue.
pub type OptimizedExternalTopK<K> = TopK<K, Optimized>;

/// The [`OptimizedExternalTopK`] recipe.
pub struct Optimized;

impl Recipe for Optimized {
    const KIND: RecipeKind = RecipeKind::Optimized;
    const NAME: &'static str = "optimized-ems";
}

impl<K: SortKey> OptimizedExternalTopK<K> {
    /// Creates the operator.
    pub fn new(
        spec: SortSpec,
        config: TopKConfig,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        Self::with_arc(spec, config, Arc::new(backend))
    }

    /// As [`OptimizedExternalTopK::new`] with a shared backend handle.
    pub fn with_arc(
        spec: SortSpec,
        config: TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        Self::build(spec, config, backend)
    }

    /// Enables periodic re-merging: after the first early merge, merge
    /// again whenever `rows` more rows have spilled (an ablation knob — a
    /// more generous baseline than [Graefe'08] prescribes).
    pub fn with_resharpen_every(mut self, rows: u64) -> Self {
        self.resharpen_every = Some(rows.max(1));
        self
    }
}

/// The early merge step: combine all finished runs into one intermediate
/// run of at most `k` rows; its last key is the cutoff.
///
/// Triggered once `2k` rows have spilled: merging at exactly `k` rows
/// would derive a cutoff near the maximum seen key (useless), whereas at
/// `2k` the intermediate run's `k`th key sits near the median of the
/// spilled keys — the paper's §3.2.1 account of this technique ("merging 10
/// initial runs [10 × 1000 rows, k = 5000] establishes a cutoff key able to
/// eliminate ½ of the remaining input").
pub(crate) struct EarlyMerge {
    k: u64,
    /// Re-derive the cutoff by another merge every time this many more rows
    /// have spilled; `None` (the default, per [Graefe'08]) merges once.
    resharpen_every: Option<u64>,
    spilled_at_last_merge: u64,
    pub(crate) merges: u64,
    tuning: MergeTuning,
}

impl EarlyMerge {
    pub(crate) fn new(k: u64, resharpen_every: Option<u64>, tuning: MergeTuning) -> Self {
        EarlyMerge { k, resharpen_every, spilled_at_last_merge: 0, merges: 0, tuning }
    }

    /// Merges if one is due, after run generation took a row.
    pub(crate) fn maybe_merge<K: SortKey>(
        &mut self,
        catalog: &RunCatalog<K>,
        filter: &mut CutoffFilter<K>,
    ) -> Result<()> {
        let spilled = filter.rows_spilled();
        let due = match (filter.cutoff(), self.resharpen_every) {
            (None, _) => spilled >= 2 * self.k,
            (Some(_), Some(every)) => spilled - self.spilled_at_last_merge >= every,
            (Some(_), None) => false,
        };
        if !due || catalog.len() < 2 {
            return Ok(());
        }
        let runs = catalog.runs();
        let merged =
            merge_runs_to_new(catalog, &runs, Some(self.k), filter.cutoff(), &self.tuning)?;
        if merged.rows >= self.k {
            if let Some(last) = &merged.last_key {
                filter.tighten(last);
            }
        }
        self.merges += 1;
        self.spilled_at_last_merge = spilled;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OperatorMetrics;
    use crate::TopKOperator;
    use histok_storage::MemoryBackend;
    use histok_types::Row;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn config(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap()
    }

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        keys
    }

    fn run_op(spec: SortSpec, cfg: TopKConfig, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        let mut op = OptimizedExternalTopK::new(spec, cfg, MemoryBackend::new()).unwrap();
        for &k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    #[test]
    fn in_memory_when_k_fits() {
        let keys = shuffled(5_000, 1);
        let (out, m) = run_op(SortSpec::ascending(50), config(1 << 20), &keys);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert!(!m.spilled);
    }

    #[test]
    fn correct_when_k_exceeds_memory() {
        let keys = shuffled(40_000, 2);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
        assert!(m.spilled);
        assert!(m.early_merges >= 1, "early merge should have fired");
    }

    #[test]
    fn early_merge_establishes_a_filter() {
        let keys = shuffled(50_000, 3);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert_eq!(out.len(), 1_000);
        // After the early merge the cutoff eliminates most remaining input.
        assert!(m.eliminated_at_input > 10_000, "eliminated {}", m.eliminated_at_input);
        // But it still spills more than the histogram algorithm would —
        // verified cross-algorithm in the integration tests.
        assert!(m.rows_spilled() > 2_000);
    }

    #[test]
    fn spills_less_than_traditional() {
        let keys = shuffled(50_000, 4);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (_, m) = run_op(SortSpec::ascending(1_000), config(200 * row_bytes), &keys);
        assert!(
            m.rows_spilled() < 40_000,
            "optimized baseline spilled {} of 50k",
            m.rows_spilled()
        );
    }

    #[test]
    fn resharpening_reduces_spill_further() {
        let keys = shuffled(60_000, 5);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(1_000);

        let run_with = |resharpen: Option<u64>| {
            let mut op =
                OptimizedExternalTopK::new(spec, config(200 * row_bytes), MemoryBackend::new())
                    .unwrap();
            if let Some(every) = resharpen {
                op = op.with_resharpen_every(every);
            }
            for &k in &keys {
                op.push(Row::key_only(k)).unwrap();
            }
            let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
            assert_eq!(out, (0..1_000).collect::<Vec<_>>());
            op.metrics()
        };

        let single = run_with(None);
        let periodic = run_with(Some(1_000));
        assert!(periodic.early_merges > single.early_merges);
        // Fewer *run-generation* rows spilled thanks to the sharper filter
        // (total I/O may still be higher due to merge rewrites).
        assert!(periodic.eliminated_at_input >= single.eliminated_at_input);
    }

    #[test]
    fn descending_works() {
        let keys = shuffled(20_000, 6);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let (out, _) = run_op(SortSpec::descending(500), config(100 * row_bytes), &keys);
        assert_eq!(out, (19_500..20_000).rev().collect::<Vec<_>>());
    }

    #[test]
    fn offset_supported() {
        let keys = shuffled(10_000, 7);
        let row_bytes = histok_sort::row_footprint(&Row::key_only(0u64));
        let spec = SortSpec::ascending(50).with_offset(200);
        let (out, _) = run_op(spec, config(100 * row_bytes), &keys);
        assert_eq!(out, (200..250).collect::<Vec<_>>());
    }

    #[test]
    fn finish_twice_errors() {
        let mut op: OptimizedExternalTopK<u64> =
            OptimizedExternalTopK::new(SortSpec::ascending(1), config(1024), MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
    }
}
