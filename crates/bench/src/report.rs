//! Machine-readable JSON reports for the experiment binaries.
//!
//! Every `fig*`/`table*` binary (and `all_experiments`) writes a
//! `results/<name>.json` next to its human-readable text output, so plots
//! and regression dashboards can consume the numbers without scraping
//! stdout. The format is hand-rolled on [`JsonValue`] — the build
//! environment has no serde — and the serializer is round-trip tested
//! against [`JsonValue::parse`].
//!
//! Schema (see `docs/METRICS.md` for the field-by-field reference):
//!
//! ```json
//! {
//!   "experiment": "fig2",
//!   "params": { "input_rows": 4000000, ... },
//!   "rows": [ { "k": 7000, ..., "outcomes": { "histogram": {...} } } ]
//! }
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use histok_core::OperatorMetrics;
use histok_storage::IoStatsSnapshot;
use histok_types::{JsonValue, LatencySnapshot, PhaseTotals};

use crate::RunOutcome;

/// Accumulates one experiment's parameters and per-configuration rows,
/// then serializes them to `results/<experiment>.json`.
pub struct MetricsReport {
    experiment: String,
    params: Vec<(String, JsonValue)>,
    rows: Vec<JsonValue>,
}

impl MetricsReport {
    /// Starts an empty report for `experiment` (also the output file stem).
    pub fn new(experiment: &str) -> Self {
        MetricsReport { experiment: experiment.to_owned(), params: Vec::new(), rows: Vec::new() }
    }

    /// Records a top-level experiment parameter (input size, memory
    /// budget, backend, ...).
    pub fn param(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        self.params.push((key.to_owned(), value.into()));
        self
    }

    /// Appends one data row: the sweep coordinates for this configuration
    /// plus a named [`RunOutcome`] per algorithm that ran at it.
    pub fn push_outcomes(
        &mut self,
        coords: &[(&str, JsonValue)],
        outcomes: &[(&str, &RunOutcome)],
    ) {
        let mut pairs: Vec<(String, JsonValue)> =
            coords.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect();
        pairs.push((
            "outcomes".to_owned(),
            JsonValue::Obj(
                outcomes.iter().map(|(name, o)| ((*name).to_owned(), outcome_to_json(o))).collect(),
            ),
        ));
        self.rows.push(JsonValue::Obj(pairs));
    }

    /// Appends an arbitrary pre-built row (used by the idealized-model
    /// tables, which have no `RunOutcome`).
    pub fn push_row(&mut self, row: JsonValue) {
        self.rows.push(row);
    }

    /// The report as a single JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("experiment".to_owned(), JsonValue::from(self.experiment.as_str())),
            ("params".to_owned(), JsonValue::Obj(self.params.clone())),
            ("rows".to_owned(), JsonValue::Arr(self.rows.clone())),
        ])
    }

    /// Writes the report to `dir/<experiment>.json`, creating `dir` if
    /// needed, and returns the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        fs::write(&path, self.to_json().to_json_pretty(2))?;
        Ok(path)
    }

    /// Writes to `$HISTOK_RESULTS_DIR` (default `results/`), prints the
    /// destination, and never fails the experiment over a report error.
    pub fn write(&self) {
        let dir = std::env::var("HISTOK_RESULTS_DIR").unwrap_or_else(|_| "results".into());
        match self.write_to(Path::new(&dir)) {
            Ok(path) => println!("\nmachine-readable report: {}", path.display()),
            Err(e) => eprintln!("\ncannot write JSON report to {dir}: {e}"),
        }
    }
}

/// Serializes one run: wall/modelled time, output checksum, and the full
/// operator metrics including per-phase timings and I/O latency quantiles.
pub fn outcome_to_json(o: &RunOutcome) -> JsonValue {
    JsonValue::Obj(vec![
        ("algorithm".to_owned(), JsonValue::from(o.algorithm)),
        ("wall_ns".to_owned(), JsonValue::from(o.wall.as_nanos().min(u128::from(u64::MAX)) as u64)),
        (
            "modelled_io_ns".to_owned(),
            JsonValue::from(o.modelled_io.as_nanos().min(u128::from(u64::MAX)) as u64),
        ),
        (
            "total_ns".to_owned(),
            JsonValue::from(o.total_time().as_nanos().min(u128::from(u64::MAX)) as u64),
        ),
        ("output_rows".to_owned(), JsonValue::from(o.output_rows)),
        // Hex string: checksums are opaque 64-bit tags, and a string field
        // sidesteps JSON consumers that mangle integers above 2^53.
        ("checksum".to_owned(), JsonValue::from(format!("{:016x}", o.checksum))),
        ("metrics".to_owned(), metrics_to_json(&o.metrics)),
    ])
}

/// Serializes [`OperatorMetrics`] with nested `io` and `phases` objects.
pub fn metrics_to_json(m: &OperatorMetrics) -> JsonValue {
    JsonValue::Obj(vec![
        ("rows_in".to_owned(), JsonValue::from(m.rows_in)),
        ("queued_ns".to_owned(), JsonValue::from(m.queued_ns)),
        ("eliminated_at_input".to_owned(), JsonValue::from(m.eliminated_at_input)),
        ("eliminated_at_spill".to_owned(), JsonValue::from(m.eliminated_at_spill)),
        ("rows_spilled".to_owned(), JsonValue::from(m.rows_spilled())),
        ("runs".to_owned(), JsonValue::from(m.runs())),
        ("spill_fraction".to_owned(), JsonValue::from(m.spill_fraction())),
        ("spilled".to_owned(), JsonValue::from(m.spilled)),
        ("peak_memory_bytes".to_owned(), JsonValue::from(m.peak_memory_bytes)),
        ("early_merges".to_owned(), JsonValue::from(m.early_merges)),
        ("merge_partitions".to_owned(), JsonValue::from(m.merge_partitions)),
        (
            "partition_rows".to_owned(),
            JsonValue::Arr(m.partition_rows.iter().map(|&r| JsonValue::from(r)).collect()),
        ),
        ("partition_skew".to_owned(), JsonValue::from(m.partition_skew())),
        (
            "cascade".to_owned(),
            JsonValue::Obj(vec![
                ("merge_passes".to_owned(), JsonValue::from(m.cascade.merge_passes)),
                ("intermediate_merges".to_owned(), JsonValue::from(m.cascade.intermediate_merges)),
                ("runs_pruned".to_owned(), JsonValue::from(m.cascade.runs_pruned)),
            ]),
        ),
        (
            "cmp".to_owned(),
            JsonValue::Obj(vec![
                ("ovc_cmps".to_owned(), JsonValue::from(m.cmp.ovc_cmps)),
                ("full_cmps".to_owned(), JsonValue::from(m.cmp.full_cmps)),
                ("total".to_owned(), JsonValue::from(m.cmp.total())),
                ("merge_batches".to_owned(), JsonValue::from(m.cmp.merge_batches)),
            ]),
        ),
        (
            "filter".to_owned(),
            JsonValue::Obj(vec![
                ("buckets_inserted".to_owned(), JsonValue::from(m.filter.buckets_inserted)),
                ("buckets_popped".to_owned(), JsonValue::from(m.filter.buckets_popped)),
                ("refinements".to_owned(), JsonValue::from(m.filter.refinements)),
                ("consolidations".to_owned(), JsonValue::from(m.filter.consolidations)),
            ]),
        ),
        ("io".to_owned(), io_to_json(&m.io)),
        ("phases".to_owned(), phases_to_json(&m.phases)),
    ])
}

/// Serializes the storage counters plus both latency histograms.
pub fn io_to_json(io: &IoStatsSnapshot) -> JsonValue {
    JsonValue::Obj(vec![
        ("runs_created".to_owned(), JsonValue::from(io.runs_created)),
        ("rows_written".to_owned(), JsonValue::from(io.rows_written)),
        ("bytes_written".to_owned(), JsonValue::from(io.bytes_written)),
        ("rows_read".to_owned(), JsonValue::from(io.rows_read)),
        ("bytes_read".to_owned(), JsonValue::from(io.bytes_read)),
        ("write_ops".to_owned(), JsonValue::from(io.write_ops)),
        ("read_ops".to_owned(), JsonValue::from(io.read_ops)),
        ("modelled_io_ns".to_owned(), JsonValue::from(io.modelled_io_ns)),
        ("io_wait_ns".to_owned(), JsonValue::from(io.io_wait_ns)),
        ("overlapped_io_ns".to_owned(), JsonValue::from(io.overlapped_io_ns)),
        ("blocks_skipped".to_owned(), JsonValue::from(io.blocks_skipped)),
        ("bytes_skipped".to_owned(), JsonValue::from(io.bytes_skipped)),
        ("write_latency".to_owned(), latency_to_json(&io.write_latency)),
        ("read_latency".to_owned(), latency_to_json(&io.read_latency)),
    ])
}

/// Serializes a latency histogram as count/total/mean plus p50/p95/max.
pub fn latency_to_json(l: &LatencySnapshot) -> JsonValue {
    let mean = if l.count == 0 { 0.0 } else { l.total_ns as f64 / l.count as f64 };
    JsonValue::Obj(vec![
        ("count".to_owned(), JsonValue::from(l.count)),
        ("total_ns".to_owned(), JsonValue::from(l.total_ns)),
        ("mean_ns".to_owned(), JsonValue::from(mean)),
        ("p50_ns".to_owned(), JsonValue::from(l.quantile_ns(0.50))),
        ("p95_ns".to_owned(), JsonValue::from(l.quantile_ns(0.95))),
        ("max_ns".to_owned(), JsonValue::from(l.max_ns)),
    ])
}

/// Serializes the per-phase wall-clock breakdown.
pub fn phases_to_json(p: &PhaseTotals) -> JsonValue {
    JsonValue::Obj(vec![
        ("in_memory_ns".to_owned(), JsonValue::from(p.in_memory_ns)),
        ("run_generation_ns".to_owned(), JsonValue::from(p.run_generation_ns)),
        ("spill_write_ns".to_owned(), JsonValue::from(p.spill_write_ns)),
        ("final_merge_ns".to_owned(), JsonValue::from(p.final_merge_ns)),
        ("total_ns".to_owned(), JsonValue::from(p.total_ns())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{figure_config, run_topk, BackendKind};
    use histok_exec::Algorithm;
    use histok_types::SortSpec;
    use histok_workload::Workload;

    fn sample_outcome() -> RunOutcome {
        let w = Workload::uniform(40_000, 0xA11CE);
        run_topk(
            Algorithm::Histogram,
            &w,
            SortSpec::ascending(2_000),
            figure_config(1_000, 0, 10),
            BackendKind::Throttled,
        )
        .expect("sample run")
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let outcome = sample_outcome();
        let mut report = MetricsReport::new("unit");
        report.param("input_rows", 40_000u64).param("backend", "throttled");
        report.push_outcomes(&[("k", JsonValue::from(2_000u64))], &[("histogram", &outcome)]);
        let json = report.to_json();
        for text in [json.to_json(), json.to_json_pretty(2)] {
            let back = JsonValue::parse(&text).expect("report parses");
            assert_eq!(back, json, "round trip changed the document");
        }
    }

    #[test]
    fn outcome_json_carries_phases_latency_and_bytes() {
        let outcome = sample_outcome();
        let json = outcome_to_json(&outcome);
        let metrics = json.get("metrics").expect("metrics object");
        let io = metrics.get("io").expect("io object");
        assert!(io.get("bytes_written").and_then(JsonValue::as_u64).unwrap() > 0);
        assert!(io.get("modelled_io_ns").and_then(JsonValue::as_u64).unwrap() > 0);
        let wl = io.get("write_latency").expect("write latency");
        assert!(wl.get("count").and_then(JsonValue::as_u64).unwrap() > 0);
        for q in ["p50_ns", "p95_ns", "max_ns"] {
            assert!(wl.get(q).and_then(JsonValue::as_u64).is_some(), "missing {q}");
        }
        let phases = metrics.get("phases").expect("phases object");
        assert!(phases.get("run_generation_ns").and_then(JsonValue::as_u64).unwrap() > 0);
        let cmp = metrics.get("cmp").expect("cmp object");
        let ovc = cmp.get("ovc_cmps").and_then(JsonValue::as_u64).unwrap();
        let full = cmp.get("full_cmps").and_then(JsonValue::as_u64).unwrap();
        assert!(ovc > 0, "a spilling run must resolve duels on codes");
        assert_eq!(cmp.get("total").and_then(JsonValue::as_u64), Some(ovc + full));
        assert!(
            cmp.get("merge_batches").and_then(JsonValue::as_u64).unwrap() > 0,
            "a spilling run must drain its final merge in batches"
        );
        assert_eq!(
            phases.get("spill_write_ns").and_then(JsonValue::as_u64),
            io.get("write_latency").and_then(|l| l.get("total_ns")).and_then(JsonValue::as_u64),
        );
        assert_eq!(
            json.get("modelled_io_ns").and_then(JsonValue::as_u64),
            io.get("modelled_io_ns").and_then(JsonValue::as_u64),
        );
    }

    #[test]
    fn write_to_emits_a_parseable_file() {
        let outcome = sample_outcome();
        let mut report = MetricsReport::new("write-test");
        report.push_outcomes(&[], &[("histogram", &outcome)]);
        let dir = std::env::temp_dir().join(format!("histok-report-{}", std::process::id()));
        let path = report.write_to(&dir).expect("write report");
        let text = fs::read_to_string(&path).expect("read back");
        let parsed = JsonValue::parse(&text).expect("file parses");
        assert_eq!(parsed.get("experiment").and_then(JsonValue::as_str), Some("write-test"));
        assert_eq!(parsed, report.to_json());
        fs::remove_dir_all(&dir).ok();
    }
}
