//! Differential grid: the overlapped-I/O layer must be invisible in the
//! output. Each cell runs inline (`io_threads = 0`) and on the default
//! 4-worker pool, whose spill pipeline and merge read-ahead genuinely run
//! in every cell (see `common/mod.rs`).

#[macro_use]
mod common;

use histok_types::BytesKey;

io_grid_cells!(0xC3C3, [4]);
