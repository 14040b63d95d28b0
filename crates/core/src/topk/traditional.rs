//! The traditional external-merge-sort top-k (§2.4).
//!
//! "The entire input is consumed and written to sorted runs on secondary
//! storage, the final result is produced by scanning and merging all the
//! sorted runs until k records have been produced." No cutoff, no run-size
//! limit, quicksort runs — the PostgreSQL behaviour whose order-of-magnitude
//! performance cliff §5.2 demonstrates.
//!
//! It is a recipe of [`TopK`]: no in-memory phase, no filter,
//! load-sort-store runs, the residue spilled, and a final merge with no
//! limit or cutoff — the runs, writes, reads and merges of
//! [`histok_sort::ExternalSorter`].

use std::sync::Arc;

use histok_storage::StorageBackend;
use histok_types::{Result, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::topk::histogram_topk::{Recipe, RecipeKind, TopK};

/// Top-k by fully sorting the input externally, then taking `k` rows: the
/// operator of [`HistogramTopK`](crate::HistogramTopK) with the traditional recipe.
pub type TraditionalExternalTopK<K> = TopK<K, Traditional>;

/// The [`TraditionalExternalTopK`] recipe.
pub struct Traditional;

impl Recipe for Traditional {
    const KIND: RecipeKind = RecipeKind::Traditional;
    const NAME: &'static str = "traditional-ems";
}

impl<K: SortKey> TraditionalExternalTopK<K> {
    /// Creates the operator with `budget_bytes` of sort workspace.
    pub fn new(
        spec: SortSpec,
        budget_bytes: usize,
        backend: impl StorageBackend + 'static,
    ) -> Result<Self> {
        Self::with_arc(spec, budget_bytes, Arc::new(backend))
    }

    /// As [`TraditionalExternalTopK::new`] with a shared backend: inline
    /// I/O, a serial merge and the default fan-in, block size and
    /// offset-value coding.
    pub fn with_arc(
        spec: SortSpec,
        budget_bytes: usize,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        let config =
            TopKConfig::builder().memory_budget(budget_bytes).merge_threads(1).io_threads(0);
        Self::build(spec, config.build()?, backend)
    }

    /// As [`TraditionalExternalTopK::with_arc`] with the workspace (or its
    /// lease), fan-in, block size, I/O pool, merge threads and offset-value
    /// coding from `config`. Dedup/aggregate configs are rejected.
    pub fn with_config(
        spec: SortSpec,
        config: &TopKConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        Self::build(spec, config.clone(), backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopKOperator;
    use histok_storage::MemoryBackend;
    use histok_types::Row;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    #[test]
    fn produces_exact_top_k_and_spills_everything() {
        let mut keys: Vec<u64> = (0..5000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(11));
        let mut op =
            TraditionalExternalTopK::new(SortSpec::ascending(50), 100 * 60, MemoryBackend::new())
                .unwrap();
        for k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let m = op.metrics();
        // The defining flaw: all 5000 rows were spilled for 50 outputs.
        assert!(m.rows_spilled() >= 5000);
        assert!((m.spill_fraction() - 1.0).abs() < 0.01 || m.spill_fraction() > 1.0);
        assert_eq!(m.eliminated_at_input, 0);
    }

    #[test]
    fn offset_works() {
        let mut op = TraditionalExternalTopK::new(
            SortSpec::ascending(5).with_offset(10),
            40 * 60,
            MemoryBackend::new(),
        )
        .unwrap();
        for k in (0..200u64).rev() {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn small_input_without_spilling() {
        let mut op =
            TraditionalExternalTopK::new(SortSpec::descending(2), 1 << 20, MemoryBackend::new())
                .unwrap();
        for k in [4u64, 8, 2] {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, vec![8, 4]);
    }

    #[test]
    fn finish_twice_errors() {
        let mut op: TraditionalExternalTopK<u64> =
            TraditionalExternalTopK::new(SortSpec::ascending(1), 1024, MemoryBackend::new())
                .unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
    }

    #[test]
    fn config_fan_in_reaches_the_merge() {
        let mut keys: Vec<u64> = (0..6_000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(12));
        let config = TopKConfig::builder()
            .memory_budget(100 * 60)
            .fan_in(4)
            .block_bytes(1024)
            .build()
            .unwrap();
        let spec = SortSpec::ascending(300);
        let mut op =
            TraditionalExternalTopK::with_config(spec, &config, Arc::new(MemoryBackend::new()))
                .unwrap();
        for k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..300).collect::<Vec<_>>());
        let m = op.metrics();
        assert!(m.runs() >= 20, "{} runs", m.runs());
        assert!(m.cascade.intermediate_merges > 0, "fan-in 4 merged {} runs at once", m.runs());
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(TraditionalExternalTopK::<u64>::new(
            SortSpec::ascending(1),
            0,
            MemoryBackend::new()
        )
        .is_err());
    }
}
