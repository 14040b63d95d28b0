//! # histok-storage
//!
//! The secondary-storage substrate of `histok`. The paper's environment is a
//! disaggregated storage service reached over the network (§2.1, *Late
//! Materialization*), where sequential run I/O is the only affordable access
//! pattern; this crate reproduces that world on a single machine:
//!
//! * [`StorageBackend`] — where spilled bytes live. Implementations:
//!   [`MemoryBackend`] (tests / analysis), [`FileBackend`] (real buffered
//!   file I/O), [`ThrottledBackend`] (models disaggregated-storage latency
//!   and bandwidth on top of any other backend), and [`FaultBackend`]
//!   (failure injection for tests).
//! * [`RunWriter`] / [`RunReader`] — the sorted-run file format: CRC-checked
//!   blocks of length-prefixed rows, plus per-run metadata ([`RunMeta`]:
//!   row count, first/last key, per-block index).
//! * [`IoStats`] — the experiment currency of the paper: rows and bytes
//!   spilled to and read from secondary storage.
//! * [`RunCatalog`] — tracks live runs for one operator and garbage-collects
//!   them on drop.
//! * [`IoScheduler`] — a fixed-size background worker pool with priority
//!   classes and per-backend in-flight limits; the spill pipeline and
//!   prefetching reader submit block-sized jobs to it. A [`RunCatalog`]
//!   given a pool moves its runs' bytes there; without one, inline.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod catalog;
pub mod crc;
pub mod fault;
pub mod file;
pub mod memory;
pub mod pipeline;
pub mod run;
pub mod scheduler;
pub mod stats;
pub mod throttle;

pub use backend::{SpillReader, SpillWriter, StorageBackend};
pub use catalog::RunCatalog;
pub use fault::{FaultBackend, FaultPlan};
pub use file::FileBackend;
pub use memory::MemoryBackend;
pub use pipeline::{PrefetchingRunReader, READAHEAD_BLOCKS, SPILL_PIPELINE_DEPTH};
pub use run::{BlockMeta, KeyRange, RunMeta, RunReader, RunWriter, DEFAULT_BLOCK_BYTES};
pub use scheduler::{
    CensusGuard, IoClass, IoPriority, IoScheduler, IoSchedulerHandle, IoSchedulerMetrics,
    ThreadCensus,
};
pub use stats::{IoStats, IoStatsSnapshot};
pub use throttle::{ThrottleModel, ThrottledBackend};
