//! The six workloads. Names, sizes and parameters are the benchmark's
//! definition: later changes are judged against them, so nothing here is a
//! tuning knob.

use std::time::Duration;

use histok_core::TopKConfig;
use histok_storage::ThrottleModel;
use histok_workload::Distribution;

/// `M`: 14,000 rows x 146 B of operator workspace (EXPERIMENTS.md's
/// figure-scale memory) on every single-query workload.
pub const MEMORY_BUDGET: usize = 14_000 * 146;

/// `--seconds` the query counts below are stated for (`run_seconds` in
/// BENCHMARK.json).
pub const RUN_SECONDS: f64 = 15.0;

/// Fewest timed queries a run may make: the tail metric is the 11th-largest
/// sample, which needs ten samples beyond it.
pub const MIN_QUERIES: usize = 20;

/// The micro-calls a workload's traced run adds: each set runs on the
/// workload whose `query_s` it should explain.
#[derive(Clone, Copy)]
pub enum Probes {
    None,
    /// `CutoffFilter::eliminate`.
    Filter,
    /// `HistogramBuilder::offer`, and one `Algorithm::Optimized` query.
    Histogram,
    /// Loser-tree merge, `ExternalSorter`, run write/read against memcpy.
    MergeAndRuns,
}

/// One query at a time from one thread.
pub struct Single {
    pub name: &'static str,
    pub why: &'static str,
    pub rows: u64,
    pub dist: Distribution,
    pub k: u64,
    pub fan_in: Option<usize>,
    pub dedup: bool,
    pub model: ThrottleModel,
    /// Timed queries at `RUN_SECONDS`: a count, not below `MIN_QUERIES`
    /// (the timed part takes 9-27 s on the 2-core reference sandbox).
    pub queries: usize,
    /// Untimed, oracle-checked warm-up queries: at least 3, and enough that
    /// set-up takes at least 3 s (the first query after start-up runs
    /// 1.4-1.7x slower than the rest).
    pub warm_ups: usize,
    pub probes: Probes,
}

impl Single {
    /// Only the paper-level parameters are set; every other field keeps the
    /// default a user gets.
    pub fn config(&self) -> TopKConfig {
        let mut builder = TopKConfig::builder().memory_budget(MEMORY_BUDGET).dedup(self.dedup);
        if let Some(fan_in) = self.fan_in {
            builder = builder.fan_in(fan_in);
        }
        builder.build().expect("benchmark config is valid")
    }
}

/// Latency-bound storage like the paper's testbed: every request sleeps.
const REMOTE: ThrottleModel = ThrottleModel {
    per_op: Duration::from_micros(350),
    per_byte: Duration::from_nanos(2),
    sleep: true,
};

pub fn singles() -> [Single; 5] {
    let virtual_clock = ThrottleModel::disaggregated();
    [
        Single {
            name: "lineitem_k_fits",
            why: "4M uniform rows, k=7,000 (M/2), no storage reached; N=48, W=12, tail p79. Scan, cutoff filter and retained heap do all the work: the control on which storage and merge changes must show no change",
            rows: 4_000_000,
            dist: Distribution::Uniform,
            k: 7_000,
            fan_in: None,
            dedup: false,
            model: virtual_clock,
            queries: 48,
            warm_ups: 12,
            probes: Probes::Filter,
        },
        Single {
            name: "lineitem_k_spills",
            why: "4M uniform rows, k=60,000 (4.3 x M), virtual-clock disaggregated storage; N=24, W=6, tail p58. The paper's headline cell: run generation and the histogram filter dominate",
            rows: 4_000_000,
            dist: Distribution::Uniform,
            k: 60_000,
            fan_in: None,
            dedup: false,
            model: virtual_clock,
            queries: 24,
            warm_ups: 6,
            probes: Probes::Histogram,
        },
        Single {
            name: "lineitem_k_large",
            why: "2M uniform rows, k=450,000 (32 x M), F=16, virtual-clock storage; N=20, W=3, tail p50. The filter barely helps: spill writes, a cascade pass, the partitioned final merge and loser-tree CPU dominate",
            rows: 2_000_000,
            dist: Distribution::Uniform,
            k: 450_000,
            fan_in: Some(16),
            dedup: false,
            model: virtual_clock,
            queries: 20,
            warm_ups: 3,
            probes: Probes::MergeAndRuns,
        },
        Single {
            name: "lineitem_k_large_remote",
            why: "1M uniform rows, k=225,000, F=16, sleeping storage 350 us/op + 2 ns/B; N=20, W=3, tail p50. Same shape as lineitem_k_large, latency-bound: overlap of I/O sets the wall, CPU savings must not show",
            rows: 1_000_000,
            dist: Distribution::Uniform,
            k: 225_000,
            fan_in: Some(16),
            dedup: false,
            model: REMOTE,
            queries: 20,
            warm_ups: 3,
            probes: Probes::None,
        },
        Single {
            name: "zipf_dedup",
            why: "4M Zipf(1.2, 400k) rows, k=60,000, dedup, virtual-clock storage; N=24, W=4, tail p58. The distinct tracker and in-sort folding, which plain filtering changes can slow",
            rows: 4_000_000,
            dist: Distribution::Zipf { s: 1.2, n: 400_000 },
            k: 60_000,
            fan_in: None,
            dedup: true,
            model: virtual_clock,
            queries: 24,
            warm_ups: 4,
            probes: Probes::None,
        },
    ]
}

pub const FLEET_NAME: &str = "server_mixed_fleet";
pub const FLEET_WHY: &str = "480 queries (16 dashboard, 3 export, 1 distinct per 20) through one TopKServer, 2 closed-loop clients, sleeping 100 us/op storage; W=120, tail p95. Per-query fixed costs and lease contention dominate";

/// What a fleet query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 50 k rows, `k` = 100: never spills, admitted without queueing.
    Dashboard,
    /// 400 k rows, `k` = 40,000: spills, leases up to 1 MiB.
    Export,
    /// 400 k Zipf rows, `dedup`, `k` = 10,000.
    Distinct,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Dashboard, Class::Export, Class::Distinct];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn rows(self) -> u64 {
        match self {
            Class::Dashboard => 50_000,
            Class::Export | Class::Distinct => 400_000,
        }
    }

    pub fn dist(self) -> Distribution {
        match self {
            Class::Dashboard | Class::Export => Distribution::Uniform,
            Class::Distinct => Distribution::Zipf { s: 1.2, n: 100_000 },
        }
    }

    pub fn k(self) -> u64 {
        match self {
            Class::Dashboard => 100,
            Class::Export => 40_000,
            Class::Distinct => 10_000,
        }
    }

    pub fn dedup(self) -> bool {
        self == Class::Distinct
    }

    pub fn config(self) -> TopKConfig {
        TopKConfig::builder()
            .memory_budget(FLEET_QUERY_BUDGET)
            .dedup(self.dedup())
            .build()
            .expect("benchmark config is valid")
    }
}

/// Queries per round of the mix: 16 dashboards, 3 exports, 1 distinct.
pub const FLEET_ROUND: usize = 20;

/// The fixed order of one round; query `i` of the loop is `class_of(i)`.
pub fn class_of(i: usize) -> Class {
    match i % FLEET_ROUND {
        3 | 9 | 15 => Class::Export,
        19 => Class::Distinct,
        _ => Class::Dashboard,
    }
}

/// Rounds at `RUN_SECONDS` (480 queries, about 15 s on the reference
/// sandbox; 24 samples lie beyond the p95).
pub const FLEET_ROUNDS: usize = 24;
/// Untimed, oracle-checked warm-up rounds (120 queries): enough that
/// set-up takes at least 3 s.
pub const FLEET_WARM_UP_ROUNDS: usize = 6;
/// Closed-loop clients (= cores of the reference sandbox).
pub const FLEET_CLIENTS: usize = 2;
pub const FLEET_TOTAL_MEMORY: usize = 3 * 512 * 1024;
pub const FLEET_IO_THREADS: usize = 2;
pub const FLEET_MIN_LEASE: usize = 256 * 1024;
pub const FLEET_QUERY_BUDGET: usize = 1024 * 1024;
/// Sleeping storage shared by every fleet query.
pub const FLEET_MODEL: ThrottleModel = ThrottleModel {
    per_op: Duration::from_micros(100),
    per_byte: Duration::from_nanos(2),
    sleep: true,
};

/// Every workload with the reason it exists, in the order they run.
pub fn list() -> Vec<(&'static str, &'static str)> {
    singles().iter().map(|s| (s.name, s.why)).chain([(FLEET_NAME, FLEET_WHY)]).collect()
}
