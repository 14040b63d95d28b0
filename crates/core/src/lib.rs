//! # histok-core
//!
//! The paper's contribution and its baselines:
//!
//! * [`CutoffFilter`] — the histogram priority queue that models the input
//!   and derives an ever-sharpening cutoff key (§3.1.2).
//! * [`HistogramTopK`] — the adaptive top-k operator: in-memory priority
//!   queue while the output fits, histogram-filtered external merge sort
//!   beyond (§3.1).
//! * Baselines, as recipes of that operator: [`InMemoryTopK`] (§2.3),
//!   [`TraditionalExternalTopK`] (§2.4), [`OptimizedExternalTopK`] (§2.5).
//! * Extensions from §4: merge-time offset fast-skipping
//!   ([`histok_sort::FinalMerge`], §4.1), segmented execution over prefix-sorted inputs
//!   ([`SegmentedTopK`], §4.2), grouped top-k ([`GroupedTopK`], §4.3),
//!   parallel top-k with a shared filter ([`ParallelTopK`], §4.4) and
//!   approximate top-k ([`HistogramTopK`] with [`TopKConfig`]'s
//!   `approx_slack`, §4.5). `OFFSET` clauses (§2.7) are supported by
//!   every operator through [`histok_types::SortSpec`]'s `offset`.
//! * In-sort aggregation (DESIGN.md §14): `DISTINCT` / `GROUP BY`
//!   duplicate folding inside the sort via [`TopKConfig`]'s `aggregate`
//!   (`AggregateOp::First` is `DISTINCT`), and "top-k groups by aggregate
//!   value" through [`GroupedAggTopK`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod cutoff;
pub mod exchange;
pub mod grouped;
pub mod grouped_agg;
pub mod histogram;
pub mod metrics;
pub mod parallel;
pub mod segmented;
pub mod sizing;
pub mod topk;

// §4.5's approximate top-k is `HistogramTopK` with `approx_slack`; its tests.
#[cfg(test)]
mod approximate;

pub use config::{FilterSites, RunGenKind, TopKConfig, TopKConfigBuilder};
pub use cutoff::{CutoffFilter, DistinctVerdict, FilterMetrics, DEFAULT_FILTER_MEMORY};
pub use exchange::{ExchangeMetrics, ExchangeTopK, Producer};
pub use grouped::GroupedTopK;
pub use grouped_agg::{AggGroup, GroupedAggTopK};
pub use histogram::{Bucket, HistogramBuilder};
pub use metrics::OperatorMetrics;
pub use parallel::ParallelTopK;
pub use segmented::SegmentedTopK;
pub use sizing::SizingPolicy;
pub use topk::{
    live_rungen_workers, HistogramTopK, InMemoryTopK, OptimizedExternalTopK, RowStream,
    TopKOperator, TraditionalExternalTopK,
};
