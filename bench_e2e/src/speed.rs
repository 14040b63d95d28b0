//! The machine's momentary speed, measured with a fixed kernel.
//!
//! The reference sandbox changes speed under the benchmark: block medians
//! of one query over 6 s lay 13 % apart in a 60-s series, with nothing
//! changing in the process. A run lasts 10-30 s, so whole runs land on one
//! speed or another and no number of samples inside a run averages that
//! out. The kernel below, run just before each timed query, slows and speeds
//! up with the queries: dividing each sample by it cut those 13 % to 2.5 %,
//! and the quartile spread of ten runs' `query_s` from 6-22 % to 1-6 %. That
//! is what keeps the spreads under a third of the bounds in BENCHMARK.json;
//! every run prints the uncorrected medians beside the corrected ones.
//!
//! Every worker thread of a query is joined before the query returns (the
//! process is down to one thread after each), so nothing of the program is
//! still running while the kernel is timed.
//!
//! Only the CPU-bound timed queries are corrected. Where the storage model
//! sleeps, the wall is mostly real waiting, which does not scale with CPU
//! speed; `setup_s` and the per-layer times are raw everywhere.

use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the reference sandbox at its usual speed. It
/// only fixes the unit, so that corrected times still read as seconds;
/// comparisons between two commits do not depend on it.
const REFERENCE_S: f64 = 0.0047;

/// Keys the kernel sorts (2 MiB: half of one core's L2).
const KEYS: usize = 1 << 18;

/// Clone and `sort_unstable` of fixed pseudo-random keys: standard-library
/// code only, so a change in the crates cannot move it.
struct Kernel {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys: Vec<u64> = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Kernel { scratch: keys.clone(), keys }
    }

    fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        self.scratch.clone_from(black_box(&self.keys));
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        start.elapsed().as_secs_f64() / REFERENCE_S
    }
}

/// The correction a workload's query times get: the kernel where they are
/// CPU time, none where its storage sleeps.
pub struct Speed(Option<Kernel>);

impl Speed {
    pub fn new(storage_sleeps: bool) -> Self {
        Speed((!storage_sleeps).then(Kernel::new))
    }

    pub fn corrects(&self) -> bool {
        self.0.is_some()
    }

    /// How many times slower than the reference sandbox the machine is
    /// running right now (about 5 ms to find out, no allocation); 1 for a
    /// workload that is not corrected.
    pub fn slowdown(&mut self) -> f64 {
        self.0.as_mut().map_or(1.0, Kernel::slowdown)
    }
}
