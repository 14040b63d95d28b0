//! Differential grid: the shared I/O worker pool must be invisible in the
//! output even at maximum contention. Each cell runs inline
//! (`io_threads = 0`) and on a one-worker pool, where every spill and
//! read-ahead job is serialized through one worker (see `common/mod.rs`).

#[macro_use]
mod common;

use histok_types::BytesKey;

io_grid_cells!(0x10DD, [1]);
