//! Regenerates the **§5.5 overhead experiment**: an adversarial input
//! whose keys arrive in strictly improving order, so the cutoff filter
//! sharpens constantly yet never eliminates a single row. The histogram
//! operator is compared against itself with the cutoff logic disabled;
//! the paper measured a 3 % overhead.

use histok_bench::{banner, env_u64, env_usize, fmt_count, run_topk, BackendKind, MetricsReport};
use histok_core::{FilterSites, TopKConfig};
use histok_exec::Algorithm;
use histok_types::{JsonValue, SortSpec};
use histok_workload::{Distribution, Workload};

fn main() {
    let mem_rows = env_u64("HISTOK_MEM_ROWS", 14_000);
    let k = env_u64("HISTOK_K", mem_rows * 30 / 7);
    let input = env_u64("HISTOK_INPUT_ROWS", 1_000_000);
    let payload = env_usize("HISTOK_PAYLOAD", 0);
    let backend = BackendKind::from_env();
    let repeats = env_u64("HISTOK_REPEATS", 5);
    banner(
        "§5.5 — overhead of the cutoff filter on an adversarial input",
        &format!(
            "{} strictly-improving rows, k = {}, memory {} rows, {} repeats",
            fmt_count(input),
            fmt_count(k),
            fmt_count(mem_rows),
            repeats
        ),
    );

    let w = Workload::uniform(input, 0)
        .with_distribution(Distribution::Adversarial)
        .with_payload_bytes(payload);
    let spec = SortSpec::ascending(k);
    let config = |filter: bool| {
        let row_bytes = 56 + payload;
        TopKConfig::builder()
            .memory_budget(mem_rows as usize * row_bytes)
            .filter(if filter { FilterSites::InputAndSpill } else { FilterSites::Off })
            .build()
            .expect("valid config")
    };

    let mut report = MetricsReport::new("overhead");
    report
        .param("input_rows", input)
        .param("k", k)
        .param("mem_rows", mem_rows)
        .param("payload_bytes", payload)
        .param("repeats", repeats)
        .param("backend", format!("{backend:?}"));
    let mut best_on = f64::MAX;
    let mut best_off = f64::MAX;
    let mut spilled = (0, 0);
    for repeat in 0..repeats {
        let on = run_topk(Algorithm::Histogram, &w, spec, config(true), backend).expect("on");
        let off = run_topk(Algorithm::Histogram, &w, spec, config(false), backend).expect("off");
        assert_eq!(on.checksum, off.checksum);
        // Adversarial property: the filter eliminated nothing.
        assert_eq!(on.metrics.eliminated_at_input, 0, "adversarial input was filtered?");
        assert_eq!(on.metrics.eliminated_at_spill, 0);
        best_on = best_on.min(on.total_time().as_secs_f64());
        best_off = best_off.min(off.total_time().as_secs_f64());
        spilled = (on.metrics.rows_spilled(), off.metrics.rows_spilled());
        report.push_outcomes(
            &[("repeat", JsonValue::from(repeat))],
            &[("filter_on", &on), ("filter_off", &off)],
        );
    }

    println!("\nfilter ON : best {:>8.3}s, spilled {} rows", best_on, fmt_count(spilled.0));
    println!("filter OFF: best {:>8.3}s, spilled {} rows", best_off, fmt_count(spilled.1));
    let overhead = (best_on / best_off - 1.0) * 100.0;
    println!("\ncutoff-filter overhead: {overhead:+.1}%  (paper: ~3%)");
    report
        .param("best_on_s", best_on)
        .param("best_off_s", best_off)
        .param("overhead_pct", overhead);
    report.write();
}
