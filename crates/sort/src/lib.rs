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
pub mod partition;
pub mod run_gen;
pub mod source;

pub use budget::{row_footprint, BudgetHandle, MemoryBudget};
pub use cascade::{plan_merges_cascade, plan_pass_groups, CascadeStats, SharedCutoff};
pub use cmp_stats::{CmpSnapshot, CmpStats};
pub use external::ExternalSorter;
pub use fold::{FoldSnapshot, FoldSpec, FoldStats};
pub use heap::BinaryHeapBy;
pub use loser_tree::LoserTree;
pub use merge::{
    merge_runs_to_new, merge_runs_to_new_shared, merge_runs_to_new_tuned, merge_sources,
    merge_sources_tuned, open_source, plan_merges, plan_merges_legacy, plan_merges_tuned,
    BatchedMerge, MergeConfig, MergePolicy, MergeSource, MergeTuning,
};
pub use observer::{NoopObserver, SpillObserver};
pub use partition::{
    merge_runs_partitioned, merge_sources_partitioned, plan_partitions, run_overlaps,
    split_sorted_rows, PartitionAttempt, PartitionCounters, PartitionedMerge,
};
pub use run_gen::{BatchSort, LoadSortStore, ReplacementSelection, ResiduePolicy, RunGenerator};
pub use source::{IterSource, RowSource, DEFAULT_BATCH_ROWS};
