//! The in-memory priority-queue top-k (§2.3) — the baseline for the
//! resource-cost comparison of §5.6.
//!
//! Assumes memory has been provisioned for the whole output: it never
//! spills and its peak memory grows with `k`. Efficient when that
//! assumption holds, impossible to rely on in a shared production system —
//! which is the paper's motivation.
//!
//! It is a recipe of [`TopK`]: the in-memory phase with a budget
//! no output exceeds, so the external phase never starts.

use std::sync::Arc;

use histok_storage::MemoryBackend;
use histok_types::{Result, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::topk::histogram_topk::{Recipe, RecipeKind, TopK};

/// Top-k with an in-memory priority queue sized for the full output: the
/// operator of [`HistogramTopK`](crate::HistogramTopK) with the in-memory recipe.
pub type InMemoryTopK<K> = TopK<K, InMemory>;

/// The [`InMemoryTopK`] recipe.
pub struct InMemory;

impl Recipe for InMemory {
    const KIND: RecipeKind = RecipeKind::InMemory;
    const NAME: &'static str = "in-memory-pq";
}

impl<K: SortKey> InMemoryTopK<K> {
    /// Creates the operator for `spec`.
    pub fn new(spec: SortSpec) -> Result<Self> {
        let config = TopKConfig { memory_budget: usize::MAX, io_threads: 0, ..Default::default() };
        Self::build(spec, config, Arc::new(MemoryBackend::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OperatorMetrics;
    use crate::TopKOperator;
    use histok_types::{Row, SortOrder};
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    fn run(spec: SortSpec, keys: Vec<u64>) -> (Vec<u64>, OperatorMetrics) {
        let mut op = InMemoryTopK::new(spec).unwrap();
        for k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    #[test]
    fn returns_exact_top_k() {
        let mut keys: Vec<u64> = (0..10_000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(5));
        let (out, m) = run(SortSpec::ascending(100), keys);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(m.rows_in, 10_000);
        assert_eq!(m.eliminated_at_input, 10_000 - 100);
        assert_eq!(m.rows_spilled(), 0);
    }

    #[test]
    fn descending_top_k() {
        let (out, _) = run(SortSpec::descending(3), vec![5, 9, 1, 7, 3]);
        assert_eq!(out, vec![9, 7, 5]);
    }

    #[test]
    fn offset_pages_through_results() {
        let keys: Vec<u64> = (0..100).rev().collect();
        let (page1, _) = run(SortSpec::ascending(10), keys.clone());
        let (page2, _) = run(SortSpec::ascending(10).with_offset(10), keys.clone());
        let (page3, _) = run(SortSpec::ascending(10).with_offset(20), keys);
        assert_eq!(page1, (0..10).collect::<Vec<_>>());
        assert_eq!(page2, (10..20).collect::<Vec<_>>());
        assert_eq!(page3, (20..30).collect::<Vec<_>>());
    }

    #[test]
    fn input_smaller_than_k() {
        let (out, _) = run(SortSpec::ascending(10), vec![3, 1, 2]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn cutoff_appears_when_full() {
        let mut op = InMemoryTopK::new(SortSpec::ascending(2)).unwrap();
        op.push(Row::key_only(10u64)).unwrap();
        assert!(op.cutoff().is_none());
        op.push(Row::key_only(20u64)).unwrap();
        assert_eq!(op.cutoff(), Some(20));
        op.push(Row::key_only(5u64)).unwrap();
        assert_eq!(op.cutoff(), Some(10));
    }

    #[test]
    fn finish_twice_is_an_error() {
        let mut op = InMemoryTopK::<u64>::new(SortSpec::ascending(1)).unwrap();
        op.push(Row::key_only(1)).unwrap();
        let _ = op.finish().unwrap();
        assert!(op.finish().is_err());
        assert!(op.push(Row::key_only(2)).is_err());
    }

    #[test]
    fn peak_memory_scales_with_k() {
        let keys: Vec<u64> = (0..1000).collect();
        let (_, m_small) = run(SortSpec::ascending(10), keys.clone());
        let (_, m_big) = run(SortSpec::ascending(500), keys);
        assert!(m_big.peak_memory_bytes > 10 * m_small.peak_memory_bytes);
    }

    #[test]
    fn invalid_spec_rejected() {
        assert!(InMemoryTopK::<u64>::new(SortSpec::ascending(0)).is_err());
        assert!(InMemoryTopK::<u64>::new(SortSpec {
            order: SortOrder::Ascending,
            limit: 1,
            offset: u64::MAX
        })
        .is_err());
    }
}
