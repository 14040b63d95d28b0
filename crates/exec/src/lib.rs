//! # histok-exec
//!
//! A minimal pull-based query-operator framework, standing in for the F1
//! Query plumbing around the paper's operator. It exists so the examples
//! and experiments can run the paper's actual query shape —
//!
//! ```sql
//! SELECT L_ORDERKEY, ..., L_COMMENT   -- full projection
//! FROM LINEITEM
//! ORDER BY L_ORDERKEY
//! LIMIT K;
//! ```
//!
//! — through a recognizable plan: `Scan → Filter? → TopK → output`.
//!
//! Operators implement [`Operator`] (open / next or next_batch / close);
//! the top-k pulls its input a batch at a time. [`Query`] wires them
//! together and reports rows, metrics, and wall time.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod operator;
pub mod query;
pub mod schema;
pub mod server;

pub use admission::{AdmissionMetrics, BudgetLease, MergePermit, ServerBudget};
pub use operator::{FilterOp, LimitOp, Operator, ScanOp, TopKExec};
pub use query::{Algorithm, Query, QueryResult};
pub use schema::{DataType, Field, Record, Schema, Value};
pub use server::{FleetMetrics, ServerConfig, Session, TopKServer};
