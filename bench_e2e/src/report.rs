//! Metric names, units and the result line.

use histok_types::JsonValue;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    /// Queries run against the oracle, warm-ups included.
    pub attempted: u64,
    /// Of those, how many returned an error or a wrong answer.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics (counts, percentiles).
    pub notes: Vec<String>,
}

impl Report {
    /// A report with the checker's counts so far and nothing else.
    pub fn new(workload: &'static str, checker: &crate::input::Checker) -> Self {
        Report {
            workload,
            attempted: checker.attempted,
            failed: checker.failed,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the metrics by name with their units, then the result object
    /// as the last line.
    pub fn print(&self) {
        println!("workload {}", self.workload);
        for note in &self.notes {
            println!("  # {note}");
        }
        for m in &self.metrics {
            println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics = JsonValue::obj(self.metrics.iter().map(|m| {
            (m.name, JsonValue::obj([("value", JsonValue::F64(m.value)), ("unit", m.unit.into())]))
        }));
        let line = JsonValue::obj([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::U64(self.attempted)),
            ("failed", JsonValue::U64(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{}", line.to_json());
    }
}

/// End-to-end metrics, in the order they are printed: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_s", "s"),
    ("query_tail_s", "s"),
    ("rows_per_s", "1/s"),
    ("storage_bytes_per_input_byte", "B/B"),
    ("modelled_io_per_scan", "ratio"),
    ("peak_alloc_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit). A workload a metric
/// does not apply to reports 0 for it.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("workload.scan_self_s", "s"),
    ("core.push_self_s", "s"),
    ("core.input_eliminated_share", "ratio"),
    ("core.spill_eliminated_share", "ratio"),
    ("core.rows_folded_share", "ratio"),
    ("core.spill_reduction_vs_optimized", "ratio"),
    ("core.filter_probe_ns_per_row", "ns/row"),
    ("core.histogram_probe_ns_per_row", "ns/row"),
    ("sort.finish_self_s", "s"),
    ("sort.drain_self_s", "s"),
    ("sort.runs_created", "count"),
    ("sort.merge_passes", "count"),
    ("sort.intermediate_merges", "count"),
    ("sort.runs_pruned", "count"),
    ("sort.merge_partitions", "count"),
    ("sort.full_cmps_per_row", "1/row"),
    ("sort.ovc_cmps_per_row", "1/row"),
    ("sort.merge_batches", "count"),
    ("sort.merge_probe_rows_per_s", "1/s"),
    ("sort.external_sort_probe_rows_per_s", "1/s"),
    ("sort.budget_truth_ratio", "ratio"),
    ("storage.write_busy_s", "s"),
    ("storage.read_busy_s", "s"),
    ("storage.write_blocking_s", "s"),
    ("storage.read_blocking_s", "s"),
    ("storage.io_wait_s", "s"),
    ("storage.overlapped_io_s", "s"),
    ("storage.hidden_io_share", "ratio"),
    ("storage.write_ops", "count"),
    ("storage.read_ops", "count"),
    ("storage.bytes_written", "B"),
    ("storage.bytes_read", "B"),
    ("storage.read_bytes_per_input_byte", "B/B"),
    ("storage.blocks_skipped", "count"),
    ("storage.run_write_probe_mb_per_s", "MB/s"),
    ("storage.run_read_probe_mb_per_s", "MB/s"),
    ("bound.memcpy_mb_per_s", "MB/s"),
    ("storage.write_roofline_share", "ratio"),
    ("storage.io_pool_jobs", "count"),
    ("storage.io_pool_queue_peak", "count"),
    ("exec.dashboard_query_s", "s"),
    ("exec.export_query_s", "s"),
    ("exec.distinct_query_s", "s"),
    ("exec.server_overhead_s", "s"),
    ("exec.queued_share", "ratio"),
    ("exec.admitted_immediately_share", "ratio"),
    ("exec.rebalances", "count"),
    ("exec.revoked_mb", "MB"),
    ("exec.peak_concurrent", "count"),
    ("trace.query_s", "s"),
    ("trace.self_sum_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Values for a fixed list of metric names; unset names report 0.
pub struct Values {
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Values {
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Self {
        Values { names, values: vec![0.0; names.len()] }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        let i = self.names.iter().position(|(n, _)| *n == name).expect("declared metric");
        self.values[i]
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.names
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p95: returns (value, percentile, samples beyond).
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let n = samples.len();
    let beyond = (n / 20).max(10).min(n - 1);
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let value = sorted[n - 1 - beyond];
    (value, 100.0 * (n - beyond) as f64 / n as f64, beyond)
}
