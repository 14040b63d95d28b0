//! # histok-sort
//!
//! The sorting substrate under the top-k operators:
//!
//! * [`MemoryBudget`] — byte accounting for an operator's workspace.
//! * [`RunGenerator`] implementations — [`ReplacementSelection`] (the
//!   paper's production choice, §5.1.2: pipelined, no stop-the-world sort,
//!   runs ~2× memory, optional run-size limit) and [`LoadSortStore`]
//!   (quicksort runs — what PostgreSQL does, §5.2).
//! * [`SpillObserver`] — the hook through which the histogram cutoff filter
//!   of `histok-core` watches and vetoes spills (Algorithm 1 lines 8–13).
//! * [`LoserTree`] — the classic tournament merge over any number of
//!   sources, plus multi-level merge planning with the paper's §4.1 top-k
//!   merge policies (lowest-key runs first, early stop at `k` rows or at
//!   the cutoff key).
//! * [`FinalMerge`] — how every spilled sort finishes: the cascade, then
//!   an offset fast-skip, a range-partitioned or a serial final merge.
//! * [`ExternalSorter`] — a complete external merge sort built from those
//!   parts (the traditional baseline's engine).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod budget;
pub mod cascade;
pub mod cmp_stats;
pub mod external;
pub mod fold;
pub mod heap;
pub mod loser_tree;
pub mod merge;
pub mod observer;
mod offset;
pub mod partition;
pub mod run_gen;
pub mod source;

pub use budget::{row_footprint, BudgetHandle, MemoryBudget};
pub use cascade::{plan_merges, CascadeStats};
pub use cmp_stats::{CmpSnapshot, CmpStats};
pub use external::ExternalSorter;
pub use fold::{FoldSnapshot, FoldSpec, FoldStats};
pub use heap::BinaryHeapBy;
pub use loser_tree::LoserTree;
pub use merge::{
    merge_runs_to_new, merge_sources, open_source, BatchedMerge, FinalMerge, MergeConfig,
    MergeInput, MergePolicy, MergeSource, MergeTuning, SortedStream, PARTITION_MIN_ROWS,
};
pub use observer::{NoopObserver, SpillObserver};
pub use partition::PartitionCounters;
pub use run_gen::{BatchSort, LoadSortStore, ReplacementSelection, ResiduePolicy, RunGenerator};
pub use source::{IterSource, RowSource, DEFAULT_BATCH_ROWS};
