//! # histok-workload
//!
//! Seeded, reproducible dataset generators matching the paper's evaluation
//! (§5.1.4):
//!
//! * **uniform** — shuffled distinct keys, like the `L_ORDERKEY` column of
//!   an unsorted TPC-H `lineitem` table;
//! * **fal** — the Faloutsos/Jagadish skewed-value generator
//!   `value(r) = N / r^z` for rank `r`, with shape `z` from near-uniform
//!   (0.5) to hyperbolic (1.5), each rank appearing exactly once, in
//!   random arrival order;
//! * **lognormal** — i.i.d. samples from Lognormal(μ = 0, σ = 2), sampled
//!   with a local Box–Muller transform (the approved crate set has no
//!   `rand_distr`);
//! * **adversarial** — strictly improving keys: the §5.5 worst case where
//!   the cutoff filter sharpens constantly yet never eliminates a row.
//!
//! Payloads are TPC-H `lineitem`-shaped ([`lineitem`]), so rows have the
//! realistic "sort key plus wide payload" profile of the paper's query
//! (`SELECT * FROM lineitem ORDER BY l_orderkey LIMIT k`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod distribution;
pub mod lineitem;
pub mod workload;

pub use distribution::Distribution;
pub use lineitem::{Lineitem, LINEITEM_PAYLOAD_BYTES};
pub use workload::{KeyStream, Workload};
