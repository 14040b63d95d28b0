//! `--check-repeat`: does the benchmark agree with itself?
//!
//! Runs every workload ten times, each time with another seed, as the
//! driver does, twice over with the same build, and holds each workload x
//! end-to-end metric to the bound BENCHMARK.json gives it: the two sets'
//! medians may not differ by more than the bound in either direction (two
//! runs of the same code that disagree are noise, whichever is faster),
//! and, except for `setup_s`, the quartile spread of each set must stay
//! inside it.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use histok_types::JsonValue;

use crate::report::median;
use crate::Args;

/// Runs per workload in each of the two sets.
const REPS: u64 = 10;

/// One end-to-end metric as BENCHMARK.json declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared() -> Result<(Vec<String>, Vec<Declared>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match doc.get(key) {
        Some(JsonValue::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json: no array {key}")),
    };
    let text_of = |item: &JsonValue, key: &str| {
        item.get(key).and_then(JsonValue::as_str).map(str::to_owned).ok_or(format!("missing {key}"))
    };
    let workloads =
        list("workloads")?.iter().map(|w| text_of(w, "name")).collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: text_of(m, "name")?,
                higher_is_better: text_of(m, "better")? == "higher",
                bound: m.get("bound").and_then(JsonValue::as_f64).ok_or("missing bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// Runs this binary once and returns the metrics of its result line.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = JsonValue::parse(line).map_err(|e| format!("result line: {e}"))?;
    if !output.status.success() || doc.get("correct") != Some(&JsonValue::Bool(true)) {
        return Err(format!("run failed: {line}"));
    }
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`.
fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

pub fn check(args: &Args) -> ExitCode {
    let (workloads, metrics) = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // samples[set][workload][metric] = one value per run.
    let mut samples: [BTreeMap<(String, String), Vec<f64>>; 2] = Default::default();
    for (set, collected) in samples.iter_mut().enumerate() {
        for workload in &workloads {
            for rep in 0..REPS {
                let seed = args.seed + rep;
                eprintln!("set {} {workload} seed {seed}", set + 1);
                match one_run(workload, seed, args.seconds) {
                    Ok(values) => {
                        for (metric, value) in values {
                            collected.entry((workload.clone(), metric)).or_default().push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("{workload} seed {seed}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    println!(
        "{:<24} {:<30} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "diff%", "iqr1%", "iqr2%", "bound%"
    );
    let mut failures = 0;
    for workload in &workloads {
        for m in &metrics {
            let key = (workload.clone(), m.name.clone());
            let (Some(a), Some(b)) = (samples[0].get(&key), samples[1].get(&key)) else {
                println!("{workload:<24} {:<30} not reported  FAIL", m.name);
                failures += 1;
                continue;
            };
            let (med_a, med_b) = (median(a), median(b));
            // Signed so that positive reads as "the second set is worse".
            let diff =
                if m.higher_is_better { (med_a - med_b) / med_a } else { (med_b - med_a) / med_a };
            let (iqr_a, iqr_b) = (quartile_spread(a), quartile_spread(b));
            let spread_ok = m.name == "setup_s" || iqr_a.max(iqr_b) <= m.bound;
            let pass = diff.abs() <= m.bound && spread_ok;
            failures += usize::from(!pass);
            let steady = iqr_a.max(iqr_b) <= m.bound / 3.0;
            println!(
                "{workload:<24} {:<30} {med_a:>14.6} {med_b:>14.6} {:>8.2} {:>8.2} {:>8.2} {:>6.1}  {}{}",
                m.name,
                100.0 * diff,
                100.0 * iqr_a,
                100.0 * iqr_b,
                100.0 * m.bound,
                if pass { "PASS" } else { "FAIL" },
                if pass && !steady && m.name != "setup_s" { " (spread above bound/3)" } else { "" },
            );
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} pairing(s) outside their bound");
        ExitCode::FAILURE
    }
}
