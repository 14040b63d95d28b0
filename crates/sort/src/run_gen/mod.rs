//! Run generation: turning an unsorted stream into sorted runs on storage.
//!
//! Three strategies are provided, matching the paper's discussion:
//!
//! * [`ReplacementSelection`] — the production choice (§5.1.2). A selection
//!   tree over radix-sorted mini-runs keeps consuming input while it
//!   writes: rows that can still extend the current run go out in key
//!   order; rows that sort before the last written key are deferred to the
//!   next run. Runs average about twice the memory size on random input and
//!   can be capped at `k` rows (one of the optimizations of [Graefe'08] the
//!   paper builds on).
//! * [`LoadSortStore`] — fill memory, quicksort, write, repeat. This is what
//!   "vanilla" engines such as PostgreSQL do (§5.2) and what the paper's
//!   §3.2 analysis assumes "for simplicity".
//! * [`BatchSort`] — load-sort-store with a radix sort of an index over
//!   the 8-byte normalized key prefixes; the bandwidth-oriented choice for
//!   narrow keys.
//!
//! All re-check every row against the [`SpillObserver`] at spill time
//! (Algorithm 1 line 11) and report every surviving spilled row to it
//! (line 13), which is where the histogram model is built.

mod batch_sort;
mod load_sort_store;
mod replacement_selection;

pub use batch_sort::BatchSort;
pub use load_sort_store::LoadSortStore;
pub use replacement_selection::ReplacementSelection;

use histok_types::{Result, Row, SortKey};

use crate::fold::FoldSpec;
use crate::observer::SpillObserver;

/// What to do with rows still buffered in memory when input ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResiduePolicy {
    /// Keep the residue in memory and hand it to the final merge directly —
    /// avoids one write+read round trip for up to a memory-full of rows.
    #[default]
    KeepInMemory,
    /// Spill the residue to runs like any other data. This matches the
    /// accounting of the paper's §3.2 analysis, where every surviving input
    /// row is written to a run.
    SpillToRuns,
}

/// A strategy for converting buffered rows into sorted runs under a memory
/// budget.
pub trait RunGenerator<K: SortKey>: Send {
    /// Accepts one input row, spilling as needed to stay within budget.
    fn push(&mut self, row: Row<K>, obs: &mut dyn SpillObserver<K>) -> Result<()>;

    /// Ends the input. Depending on `residue`, the still-buffered rows are
    /// either spilled or returned as sorted in-memory sequences (each inner
    /// `Vec` is sorted in output order).
    fn finish(
        &mut self,
        obs: &mut dyn SpillObserver<K>,
        residue: ResiduePolicy,
    ) -> Result<Vec<Vec<Row<K>>>>;

    /// Rows currently buffered in memory.
    fn buffered_rows(&self) -> usize;

    /// Bytes currently charged against the memory budget.
    fn buffered_bytes(&self) -> usize;

    /// Comparison counts so far as `(ovc_cmps, full_cmps)`. Generators
    /// without normalized-key support report zeros.
    fn cmp_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Enables in-sort duplicate folding: equal keys are combined by the
    /// spec's aggregator before rows reach storage, so runs leave the
    /// generator duplicate-free (or at least duplicate-reduced — see each
    /// generator's notes). Generators without fold support ignore the
    /// call; merge-time folding downstream still guarantees distinct
    /// output, this only saves the spill bandwidth.
    fn set_fold(&mut self, _fold: Option<FoldSpec>) {}
}
