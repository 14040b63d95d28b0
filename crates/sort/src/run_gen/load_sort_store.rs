//! Load-sort-store run generation.
//!
//! Fill the workspace, sort it (quicksort via `sort_unstable_by`), write it
//! out as one run, repeat. Runs are exactly memory-sized. This is the
//! strategy the paper's §3.2 analysis assumes ("to create a run we fill our
//! available memory with input rows, sort and write them to disk") and the
//! one PostgreSQL's top-k uses (§5.2).

use std::sync::Arc;

use histok_storage::RunCatalog;
use histok_types::{Result, Row, SortKey, SortOrder};

use crate::budget::{row_footprint, MemoryBudget};
use crate::observer::SpillObserver;
use crate::run_gen::{ResiduePolicy, RunGenerator};

/// Quicksort-based run generation.
pub struct LoadSortStore<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    buffer: Vec<Row<K>>,
    budget: MemoryBudget,
    order: SortOrder,
}

impl<K: SortKey> LoadSortStore<K> {
    /// Creates a generator writing runs through `catalog` under a budget of
    /// `budget_bytes`.
    pub fn new(catalog: Arc<RunCatalog<K>>, budget_bytes: usize) -> Self {
        Self::with_budget(catalog, MemoryBudget::new(budget_bytes))
    }

    /// Creates a generator charging its workspace against `budget` — use a
    /// budget forked from a shared [`crate::BudgetHandle`] when an external
    /// lease governs the limit.
    pub fn with_budget(catalog: Arc<RunCatalog<K>>, budget: MemoryBudget) -> Self {
        let order = catalog.order();
        LoadSortStore { catalog, buffer: Vec::new(), budget, order }
    }

    fn sort_buffer(&mut self) {
        let order = self.order;
        // Unstable sort: equal keys may reorder, acceptable for top-k
        // semantics (the paper's queries have no secondary tie-breaker).
        self.buffer.sort_unstable_by(|a, b| order.cmp_keys(&a.key, &b.key));
    }

    /// Sorts and writes the whole buffer as one run, consulting the
    /// observer per row.
    fn flush(&mut self, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.sort_buffer();
        // The run length is known here: it is the buffer being flushed
        // (minus any spill-time eliminations). Reporting the actual row
        // count — not a fallback-byte guess — keeps histogram bucket widths
        // honest for wide payload rows.
        let estimated_rows = self.buffer.len() as u64;
        let mut writer = None;
        for row in self.buffer.drain(..) {
            let fp = row_footprint(&row);
            self.budget.release(fp);
            if obs.should_eliminate(&row.key) {
                continue;
            }
            let w = match writer.as_mut() {
                Some(w) => w,
                None => {
                    writer = Some(self.catalog.start_run()?);
                    obs.run_started(estimated_rows.max(1));
                    writer.as_mut().expect("writer just set")
                }
            };
            w.append(&row)?;
            obs.row_spilled(&row.key);
        }
        if let Some(w) = writer {
            self.catalog.finish_run(w)?;
            obs.run_finished();
        }
        Ok(())
    }
}

impl<K: SortKey> RunGenerator<K> for LoadSortStore<K> {
    fn push(&mut self, row: Row<K>, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        let fp = row_footprint(&row);
        if self.budget.would_exceed(fp) && !self.buffer.is_empty() {
            self.flush(obs)?;
        }
        self.budget.charge(fp);
        self.buffer.push(row);
        Ok(())
    }

    fn finish(
        &mut self,
        obs: &mut dyn SpillObserver<K>,
        residue: ResiduePolicy,
    ) -> Result<Vec<Vec<Row<K>>>> {
        match residue {
            ResiduePolicy::SpillToRuns => {
                self.flush(obs)?;
                Ok(Vec::new())
            }
            ResiduePolicy::KeepInMemory => {
                self.sort_buffer();
                let mut out = Vec::with_capacity(self.buffer.len());
                for row in self.buffer.drain(..) {
                    let fp = row_footprint(&row);
                    self.budget.release(fp);
                    if !obs.should_eliminate(&row.key) {
                        out.push(row);
                    }
                }
                Ok(if out.is_empty() { Vec::new() } else { vec![out] })
            }
        }
    }

    fn buffered_rows(&self) -> usize {
        self.buffer.len()
    }

    fn buffered_bytes(&self) -> usize {
        self.budget.used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;
    use histok_storage::{IoStats, MemoryBackend};

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
        let mut gen = LoadSortStore::new(cat.clone(), 10 * row_bytes);
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
    fn sorted_input_still_produces_memory_sized_runs() {
        // Unlike replacement selection, LSS gains nothing from sorted input.
        let cat = catalog();
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = LoadSortStore::new(cat.clone(), 10 * row_bytes);
        let mut obs = NoopObserver;
        for k in 0..100u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert!(read_all(&cat).len() >= 9);
    }

    #[test]
    fn residue_kept_in_memory_is_sorted_and_complete() {
        let cat = catalog();
        let mut gen = LoadSortStore::new(cat.clone(), 1 << 20);
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
        let mut gen = LoadSortStore::new(cat.clone(), 10 * row_bytes);
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
        let cat = catalog();
        let mut gen = LoadSortStore::new(cat.clone(), 1 << 20);
        let mut obs = KillAll;
        for k in 0..10u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        assert!(residue.is_empty());
        assert!(cat.is_empty());
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
        let cat = catalog();
        let payload = 400usize;
        let row_bytes = row_footprint(&Row::new(0u64, vec![0u8; payload]));
        let mut gen = LoadSortStore::new(cat.clone(), 40 * row_bytes);
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
        let cat = catalog();
        let mut gen = LoadSortStore::new(cat.clone(), 64); // tiny budget
        let mut obs = NoopObserver;
        gen.push(Row::new(1u64, vec![0u8; 1024]), &mut obs).unwrap();
        gen.push(Row::new(2u64, vec![0u8; 1024]), &mut obs).unwrap();
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let total: usize = read_all(&cat).iter().map(Vec::len).sum();
        assert_eq!(total, 2);
    }
}
