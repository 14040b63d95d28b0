//! # histok-bench
//!
//! The experiment harness. One binary per paper table/figure regenerates
//! the corresponding rows/series (see `DESIGN.md` §4 for the index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1`…`table5` | the §3.2 analysis tables |
//! | `fig2` | §5.2 varying output size (speedup + spill reduction) |
//! | `fig3` | §5.3 varying input size, six key distributions |
//! | `fig4` | §5.4 histogram sizes 1/5/50 over the input sweep |
//! | `fig5` | §5.4 histogram-size sweep |
//! | `fig6` | §5.6 memory-cost vs the in-memory top-k |
//! | `overhead` | §5.5 adversarial filter overhead |
//!
//! Experiments are scaled ~500× down from the paper's testbed with the
//! input : memory : k *ratios* preserved (see `DESIGN.md` §5). Environment
//! variables adjust the scale:
//!
//! * `HISTOK_INPUT_ROWS` — base input size (figures default to 4,000,000);
//! * `HISTOK_PAYLOAD` — payload bytes per row (default 0 = key-only);
//! * `HISTOK_BACKEND` — `throttled` (default: memory objects plus the
//!   disaggregated-storage cost model), `memory`, or `file`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

pub use report::{metrics_to_json, outcome_to_json, MetricsReport};

use std::time::Duration;

use histok_core::{OperatorMetrics, SizingPolicy, TopKConfig};
use histok_exec::query::Algorithm;
use histok_exec::Query;
use histok_storage::{FileBackend, MemoryBackend, ThrottleModel, ThrottledBackend};
use histok_types::{Result, SortSpec};
use histok_workload::Workload;

/// Where experiment spills go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory objects: measures pure CPU + row volumes.
    Memory,
    /// Real buffered files in a temp directory.
    File,
    /// In-memory objects with the disaggregated-storage cost model; the
    /// modelled I/O time is added to the reported time. The figures'
    /// default: the paper's environment is I/O-bound (speedup and spill
    /// reduction are "perfectly correlated", §5).
    #[default]
    Throttled,
}

impl BackendKind {
    /// Parses `HISTOK_BACKEND` (`memory` / `file` / `throttled`).
    pub fn from_env() -> Self {
        match std::env::var("HISTOK_BACKEND").as_deref() {
            Ok("file") => BackendKind::File,
            Ok("memory") => BackendKind::Memory,
            _ => BackendKind::Throttled,
        }
    }
}

/// Outcome of one algorithm execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Algorithm name as reported by the operator.
    pub algorithm: &'static str,
    /// Operator metrics (I/O, eliminations, memory).
    pub metrics: OperatorMetrics,
    /// Wall-clock time of the execution.
    pub wall: Duration,
    /// Modelled I/O time (only nonzero for [`BackendKind::Throttled`]).
    pub modelled_io: Duration,
    /// Number of output rows.
    pub output_rows: u64,
    /// Order-insensitive fingerprint of the output keys, used to verify
    /// that two algorithms produced the same answer.
    pub checksum: u64,
}

impl RunOutcome {
    /// Wall time plus modelled I/O — the figure of merit in the
    /// disaggregated-storage model.
    pub fn total_time(&self) -> Duration {
        self.wall + self.modelled_io
    }
}

/// Runs `algorithm` over `workload` with the given clause and config.
pub fn run_topk(
    algorithm: Algorithm,
    workload: &Workload,
    spec: SortSpec,
    config: TopKConfig,
    backend: BackendKind,
) -> Result<RunOutcome> {
    let query = Query::scan(workload.rows(), spec).config(config).algorithm(algorithm);
    let (result, modelled_io) = match backend {
        BackendKind::Memory => (query.execute(MemoryBackend::new())?, Duration::ZERO),
        BackendKind::File => (query.execute(FileBackend::temp()?)?, Duration::ZERO),
        BackendKind::Throttled => {
            let be = ThrottledBackend::new(MemoryBackend::new(), ThrottleModel::disaggregated());
            let handle = be.clone();
            let result = query.execute(be)?;
            (result, handle.virtual_io_time())
        }
    };
    let checksum = result
        .rows
        .iter()
        .fold(0u64, |acc, row| acc.wrapping_add(row.key.get().to_bits().rotate_left(7)));
    Ok(RunOutcome {
        algorithm: result.algorithm,
        metrics: result.metrics,
        wall: result.elapsed,
        modelled_io,
        output_rows: result.rows.len() as u64,
        checksum,
    })
}

/// The standard experiment configuration for a memory budget of
/// `mem_rows` key-only rows (the figures' scaled stand-in for the paper's
/// "1 GB ≈ 7 million rows").
pub fn figure_config(mem_rows: u64, payload_bytes: usize, buckets: u32) -> TopKConfig {
    // Estimated charge per buffered row (key-only rows are ~56 bytes with
    // bookkeeping; payload adds its length).
    let row_bytes = 56 + payload_bytes;
    let sizing =
        if buckets == 0 { SizingPolicy::Disabled } else { SizingPolicy::TargetBuckets(buckets) };
    TopKConfig::builder()
        .memory_budget(mem_rows as usize * row_bytes)
        .sizing(sizing)
        .build()
        .expect("static config is valid")
}

/// Reads a `u64` experiment parameter from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a `usize` experiment parameter from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Formats a `Duration` in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Formats a row count with thousands separators, paper-style.
pub fn fmt_count(n: u64) -> String {
    let digits: Vec<u8> = n.to_string().into_bytes();
    let mut out = String::new();
    for (i, d) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*d as char);
    }
    out
}

/// Prints a standard experiment banner.
pub fn banner(title: &str, detail: &str) {
    println!("================================================================");
    println!("{title}");
    println!("{detail}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_thousands() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn fmt_duration_picks_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.0ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }

    #[test]
    fn run_topk_smoke_all_backends() {
        let w = Workload::uniform(5_000, 1);
        let spec = SortSpec::ascending(200);
        let config = figure_config(50, 0, 50);
        let mem =
            run_topk(Algorithm::Histogram, &w, spec, config.clone(), BackendKind::Memory).unwrap();
        let file =
            run_topk(Algorithm::Histogram, &w, spec, config.clone(), BackendKind::File).unwrap();
        let throttled =
            run_topk(Algorithm::Histogram, &w, spec, config, BackendKind::Throttled).unwrap();
        assert_eq!(mem.output_rows, 200);
        assert_eq!(mem.checksum, file.checksum);
        assert_eq!(mem.checksum, throttled.checksum);
        assert!(throttled.modelled_io > Duration::ZERO);
        assert_eq!(mem.modelled_io, Duration::ZERO);
    }

    #[test]
    fn algorithms_agree_via_checksum() {
        let w = Workload::uniform(20_000, 2);
        let spec = SortSpec::ascending(400);
        let config = figure_config(100, 0, 50);
        let mut sums = Vec::new();
        for algo in [
            Algorithm::Histogram,
            Algorithm::InMemory,
            Algorithm::Traditional,
            Algorithm::Optimized,
        ] {
            let out = run_topk(algo, &w, spec, config.clone(), BackendKind::Memory).unwrap();
            assert_eq!(out.output_rows, 400, "{algo:?}");
            sums.push(out.checksum);
        }
        assert!(sums.windows(2).all(|p| p[0] == p[1]), "algorithms disagree: {sums:?}");
    }
}
