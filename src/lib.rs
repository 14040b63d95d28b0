//! # histok — External Merge Sort for Top-K Queries
//!
//! A from-scratch Rust implementation of the SIGMOD 2020 paper
//! *"External Merge Sort for Top-K Queries: Eager input filtering guided by
//! histograms"* (Chronis, Do, Graefe, Peters — the top-k operator deployed
//! in Google F1 Query), together with every substrate it needs: run-file
//! storage, run generation (replacement selection and load-sort-store),
//! loser-tree merging, the baseline top-k algorithms it is evaluated
//! against, workload generators, and the paper's analytical model.
//!
//! ## Quick start
//!
//! ```
//! use histok::prelude::*;
//!
//! // top 100 smallest keys out of 10_000, with memory for only ~500 rows
//! let spec = SortSpec::ascending(100);
//! let config = TopKConfig::builder()
//!     .memory_budget(500 * 32)
//!     .build()
//!     .unwrap();
//! let storage = MemoryBackend::shared();
//! let mut op = HistogramTopK::<u64>::new(spec, config, storage).unwrap();
//! for key in (0..10_000u64).rev() {
//!     op.push(Row::key_only(key)).unwrap();
//! }
//! let out: Vec<_> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
//! assert_eq!(out, (0..100u64).collect::<Vec<_>>());
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Source crate | Contents |
//! |---|---|---|
//! | [`types`] | `histok-types` | keys, rows, sort specs, errors |
//! | [`storage`] | `histok-storage` | run files, backends, I/O stats |
//! | [`sort`] | `histok-sort` | run generation, loser-tree merge |
//! | [`core`] | `histok-core` | the histogram top-k + all baselines |
//! | [`analysis`] | `histok-analysis` | the paper's §3.2 idealized model |
//! | [`workload`] | `histok-workload` | uniform / fal / lognormal generators |
//! | [`exec`] | `histok-exec` | mini query-operator framework |

#![forbid(unsafe_code)]

pub use histok_analysis as analysis;
pub use histok_core as core;
pub use histok_exec as exec;
pub use histok_sort as sort;
pub use histok_storage as storage;
pub use histok_types as types;
pub use histok_workload as workload;

/// The most common imports, bundled.
pub mod prelude {
    pub use histok_core::{
        ApproximateTopK, CutoffFilter, ExchangeTopK, GroupedTopK, HistogramTopK, InMemoryTopK,
        OptimizedExternalTopK, ParallelTopK, SegmentedTopK, SizingPolicy, TopKConfig, TopKOperator,
        TraditionalExternalTopK,
    };
    pub use histok_storage::{FileBackend, IoStats, MemoryBackend, StorageBackend};
    pub use histok_types::{
        BytesKey, Error, F64Key, HeapSize, Result, Row, SortKey, SortOrder, SortSpec,
    };
    pub use histok_workload::{Distribution, Workload};
}
