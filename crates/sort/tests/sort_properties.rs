//! Property-based tests of the sorting substrate: the loser tree against a
//! reference merge, run generation invariants, and merge planning.

use std::sync::Arc;

use proptest::prelude::*;

use histok_sort::run_gen::{LoadSortStore, ReplacementSelection, ResiduePolicy, RunGenerator};
use histok_sort::{
    merge_sources, plan_merges, IterSource, LoserTree, MergeConfig, MergePolicy, MergeSource,
    MergeTuning, NoopObserver,
};
use histok_storage::{IoStats, MemoryBackend, RunCatalog};
use histok_types::{Result, Row, SortOrder};

type VecSource = IterSource<std::vec::IntoIter<Result<Row<u64>>>>;

fn source(keys: &[u64]) -> VecSource {
    IterSource::new(keys.iter().map(|&k| Ok(Row::key_only(k))).collect::<Vec<_>>().into_iter())
}

fn catalog(order: SortOrder) -> Arc<RunCatalog<u64>> {
    Arc::new(
        RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            RunCatalog::<u64>::unique_prefix("prop"),
            order,
            IoStats::new(),
        )
        .with_block_bytes(256),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging arbitrary sorted sources equals sorting the concatenation.
    #[test]
    fn loser_tree_matches_reference_merge(
        mut runs in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..100),
            0..12,
        ),
        descending in any::<bool>(),
    ) {
        let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
        for run in runs.iter_mut() {
            run.sort_unstable();
            if descending {
                run.reverse();
            }
        }
        let mut expected: Vec<u64> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();
        if descending {
            expected.reverse();
        }
        let sources: Vec<VecSource> = runs.iter().map(|r| source(r)).collect();
        let got: Vec<u64> = LoserTree::new(sources, order)
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Replacement selection: every run individually sorted, the union of
    /// runs plus residue is exactly the input multiset, and sorted input
    /// produces at most one run.
    #[test]
    fn replacement_selection_invariants(
        keys in proptest::collection::vec(0u64..5_000, 0..1_500),
        mem_rows in 2usize..64,
        keep in any::<bool>(),
    ) {
        let cat = catalog(SortOrder::Ascending);
        let mut gen = ReplacementSelection::new(cat.clone(), mem_rows * 60);
        let mut obs = NoopObserver;
        for &k in &keys {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen
            .finish(&mut obs, if keep { ResiduePolicy::KeepInMemory } else { ResiduePolicy::SpillToRuns })
            .unwrap();
        let mut collected: Vec<u64> = Vec::new();
        for meta in cat.runs() {
            let run: Vec<u64> = cat.open(&meta).unwrap().map(|r| r.unwrap().key).collect();
            prop_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
            collected.extend(run);
        }
        for seq in &residue {
            prop_assert!(seq.windows(2).all(|w| w[0].key <= w[1].key), "residue not sorted");
            collected.extend(seq.iter().map(|r| r.key));
        }
        let mut expected = keys.clone();
        expected.sort_unstable();
        collected.sort_unstable();
        prop_assert_eq!(collected, expected);
    }

    /// Load-sort-store obeys the same conservation law.
    #[test]
    fn load_sort_store_conserves_rows(
        keys in proptest::collection::vec(0u64..5_000, 0..1_500),
        mem_rows in 2usize..64,
    ) {
        let cat = catalog(SortOrder::Ascending);
        let mut gen = LoadSortStore::new(cat.clone(), mem_rows * 60);
        let mut obs = NoopObserver;
        for &k in &keys {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let mut collected: Vec<u64> = cat
            .runs()
            .iter()
            .flat_map(|m| cat.open(m).unwrap().map(|r| r.unwrap().key).collect::<Vec<_>>())
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        collected.sort_unstable();
        prop_assert_eq!(collected, expected);
    }

    /// Multi-level merge planning preserves content exactly (no limit/cutoff).
    #[test]
    fn plan_merges_preserves_content(
        runs in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000, 1..60),
            1..24,
        ),
        fan_in in 2usize..6,
        smallest_first in any::<bool>(),
    ) {
        let cat = catalog(SortOrder::Ascending);
        for keys in &runs {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let mut w = cat.start_run().unwrap();
            for k in sorted {
                w.append(&Row::key_only(k)).unwrap();
            }
            cat.register(w.finish().unwrap()).unwrap();
        }
        let cfg = MergeConfig {
            fan_in,
            policy: if smallest_first {
                MergePolicy::SmallestFirst
            } else {
                MergePolicy::LowestKeyFirst
            },
        };
        let final_runs = plan_merges(&cat, &cfg, None, None, &MergeTuning::default()).unwrap().0;
        prop_assert!(final_runs.len() <= fan_in);
        let mut sources = Vec::new();
        for meta in &final_runs {
            sources.push(MergeSource::Run(cat.open(meta).unwrap()));
        }
        let got: Vec<u64> = merge_sources(sources, SortOrder::Ascending, &MergeTuning::default())
            .unwrap()
            .map(|r| r.unwrap().key)
            .collect();
        let mut expected: Vec<u64> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Truncating a merge at `limit` yields exactly the global best `limit`
    /// rows of the merged runs.
    #[test]
    fn merge_with_limit_is_a_true_top_k(
        runs in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000, 1..60),
            2..10,
        ),
        limit in 1u64..100,
    ) {
        let cat = catalog(SortOrder::Ascending);
        for keys in &runs {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let mut w = cat.start_run().unwrap();
            for k in sorted {
                w.append(&Row::key_only(k)).unwrap();
            }
            cat.register(w.finish().unwrap()).unwrap();
        }
        let all = cat.runs();
        let merged = histok_sort::merge_runs_to_new(&cat, &all, Some(limit), None, &MergeTuning::default()).unwrap();
        let got: Vec<u64> = cat.open(&merged).unwrap().map(|r| r.unwrap().key).collect();
        let mut expected: Vec<u64> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();
        expected.truncate(limit as usize);
        prop_assert_eq!(got, expected);
    }
}
