//! # histok-types
//!
//! Foundational value types shared by every `histok` crate:
//!
//! * [`SortKey`] — the trait a sort-column value must implement to flow
//!   through run generation, histograms and merging. Implementations are
//!   provided for the integer types, a total-ordered `f64` wrapper
//!   ([`F64Key`]), byte strings ([`BytesKey`]) and pairs of keys.
//! * [`Row`] — a sort key plus an opaque payload, the unit of data the
//!   top-k operators consume and produce.
//! * [`SortOrder`] / [`SortSpec`] — the direction requested by the query's
//!   `ORDER BY ... LIMIT k` clause. All operators are direction-agnostic;
//!   comparisons always go through [`SortOrder::cmp_keys`].
//! * [`Error`] / [`Result`] — the crate-wide error type.
//! * [`HeapSize`] — byte-level memory accounting used by the operators'
//!   memory budgets.
//! * [`PhaseTimer`] / [`LatencyHistogram`] — std-only observability
//!   primitives: per-phase wall-clock attribution and log₂-bucketed I/O
//!   latency histograms, shared by the storage and operator layers.
//! * [`JsonValue`] — a dependency-free JSON value used by the benchmark
//!   harness to emit machine-readable metrics reports.
//! * [`Ovc`] — offset-value codes over the keys' order-preserving
//!   normalized byte strings ([`SortKey::norm_encode`]), letting merge
//!   loops decide most comparisons with a single `u64` compare.
//! * [`Aggregator`] / [`AggregateOp`] — payload folding for in-sort
//!   duplicate removal and grouped aggregation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod batch;
pub mod error;
pub mod json;
pub mod key;
pub mod memsize;
pub mod norm;
pub mod order;
pub mod row;
pub mod timing;

pub use agg::{decode_count, decode_f64, encode_f64, AggregateOp, Aggregator};
pub use batch::RowBatch;
pub use bytes::Bytes;
pub use error::{Error, Result};
pub use json::JsonValue;
pub use key::{prefix_of_norm, BytesKey, F64Key, KeyPair, SortKey};
pub use memsize::HeapSize;
pub use norm::{norm_cmp, ovc_resolve, Ovc, OvcResolution};
pub use order::{SortOrder, SortSpec};
pub use row::Row;
pub use timing::{LatencyHistogram, LatencySnapshot, Phase, PhaseTimer, PhaseTotals};
