//! Load-sort-store as the paper's §3.2 analysis states it, checked on
//! [`BatchSort`](super::BatchSort), which implements it: runs are at most a
//! memory-full and sorted, every row re-checked against the observer when
//! its buffer is written, a buffer that loses every row registers no run,
//! and the residue kept in memory is sorted with its budget released.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use histok_storage::{IoStats, MemoryBackend, RunCatalog};
    use histok_types::{Row, SortOrder};

    use crate::budget::row_footprint;
    use crate::observer::{NoopObserver, SpillObserver};
    use crate::run_gen::{BatchSort, ResiduePolicy, RunGenerator};

    fn catalog() -> Arc<RunCatalog<u64>> {
        Arc::new(RunCatalog::new(
            Arc::new(MemoryBackend::new()),
            "lss",
            SortOrder::Ascending,
            IoStats::new(),
        ))
    }

    fn read_all(cat: &RunCatalog<u64>) -> Vec<Vec<u64>> {
        cat.runs().iter().map(|m| cat.open(m).unwrap().map(|r| r.unwrap().key).collect()).collect()
    }

    #[test]
    fn runs_are_memory_sized_and_sorted() {
        let cat = catalog();
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = BatchSort::new(cat.clone(), 10 * row_bytes);
        let mut obs = NoopObserver;
        for k in (0..95u64).rev() {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let runs = read_all(&cat);
        assert!(runs.len() >= 9, "expected ~10 runs, got {}", runs.len());
        let mut all = Vec::new();
        for run in &runs {
            assert!(run.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
            assert!(run.len() <= 10);
            all.extend_from_slice(run);
        }
        all.sort_unstable();
        assert_eq!(all, (0..95).collect::<Vec<_>>());
    }

    #[test]
    fn residue_kept_in_memory_is_sorted_and_complete() {
        let cat = catalog();
        let mut gen = BatchSort::new(cat.clone(), 1 << 20);
        let mut obs = NoopObserver;
        for k in [9u64, 2, 7, 4] {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::KeepInMemory).unwrap();
        assert!(cat.is_empty());
        assert_eq!(residue.len(), 1);
        assert_eq!(residue[0].iter().map(|r| r.key).collect::<Vec<_>>(), vec![2, 4, 7, 9]);
        assert_eq!(gen.buffered_bytes(), 0);
    }

    #[test]
    fn observer_filters_at_flush() {
        struct CutAbove(u64);
        impl SpillObserver<u64> for CutAbove {
            fn should_eliminate(&mut self, key: &u64) -> bool {
                *key > self.0
            }
        }
        let cat = catalog();
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = BatchSort::new(cat.clone(), 10 * row_bytes);
        let mut obs = CutAbove(20);
        for k in 0..100u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let spilled: Vec<u64> = read_all(&cat).into_iter().flatten().collect();
        assert!(spilled.iter().all(|&k| k <= 20));
        assert_eq!(spilled.len(), 21);
    }

    #[test]
    fn fully_filtered_buffer_registers_no_run() {
        struct KillAll;
        impl SpillObserver<u64> for KillAll {
            fn should_eliminate(&mut self, _: &u64) -> bool {
                true
            }
        }
        // A budget of ten rows: every one of the ten buffers is written and
        // loses all its rows, and none of them leaves a run behind.
        let cat = catalog();
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = BatchSort::new(cat.clone(), 10 * row_bytes);
        let mut obs = KillAll;
        for k in 0..100u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert!(residue.is_empty());
        assert!(cat.is_empty());
        assert_eq!(gen.buffered_bytes(), 0);
    }
}
