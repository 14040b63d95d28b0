//! # histok-analysis
//!
//! The paper's §3.2 analytical model: an idealized, deterministic
//! simulation of the histogram top-k algorithm over perfectly uniform
//! `[0, 1]` keys, using fill-sort-spill run generation ("for simplicity,
//! in this section, to create a run we fill our available memory with
//! input rows, sort and write them to disk").
//!
//! The simulator drives the *real* [`histok_core::CutoffFilter`] with
//! idealized quantile keys, so the arithmetic of Tables 1–5 exercises the
//! production data structure rather than a reimplementation.
//!
//! [`tables`] regenerates each of the paper's analysis tables; the
//! `histok-bench` binaries print them in the paper's format.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod tables;

pub use model::{simulate, simulate_keyed, KeyModel, ModelParams, ModelResult, RunTrace};
pub use tables::{table1, table2, table3, table4, table5, Table2Row, Table3Row, Table45Row};
