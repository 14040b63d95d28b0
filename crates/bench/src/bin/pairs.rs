//! `pairs`: alternating parent/change runs of `bench_e2e`, the measurement
//! a performance claim rests on (ROADMAP, *Method*).
//!
//! ```text
//! cargo run --release -p histok-bench --bin pairs -- \
//!     --parent <rev> --change <rev> --pairs N --seed S \
//!     [--workloads w,…] [--trace w,…] [--seconds s] [--out file.json]
//! ```
//!
//! Each revision is exported with `git archive` into `target/pairs/<hash>`
//! and its `bench_e2e` built there `--offline` with its own
//! `CARGO_TARGET_DIR`, so neither build touches the working tree (nor its
//! `bench_e2e/Cargo.lock`). Pair `i` runs every workload on both sides,
//! parent first when `i` is even, change first when odd. Before every run a
//! fixed spin loop is timed and its seconds are reported per pair
//! (`spin_s`), a record of the machine's speed beside each pair; no pair is
//! left out on it. With `--trace`, each named workload then runs
//! `--trace 1` three times a side,
//! alternating, and every per-layer value is kept. The report has the shape
//! of the reports under `results/e2e/`, plus a verdict per end-to-end metric
//! against its `BENCHMARK.json` bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use histok_types::JsonValue;

type Res<T> = Result<T, String>;

/// Runs `cmd`, failing with its stderr unless it exits 0.
fn run(cmd: &mut Command) -> Res<String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{cmd:?}: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Exports `rev` into `target/pairs/<hash>` and builds its `bench_e2e`
/// there; returns the checkout and the binary.
fn checkout(root: &Path, rev: &str) -> Res<(String, PathBuf, PathBuf)> {
    let hash = run(Command::new("git").args(["rev-parse", "--short", rev]).current_dir(root))?;
    let hash = hash.trim().to_owned();
    let dir = root.join("target/pairs").join(&hash);
    if !dir.join("bench_e2e").exists() {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut archive = Command::new("git")
            .args(["archive", "--format=tar", &hash])
            .current_dir(root)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| e.to_string())?;
        let tar = archive.stdout.take().ok_or("git archive: no stdout")?;
        run(Command::new("tar").arg("-x").arg("-C").arg(&dir).stdin(tar))?;
        archive.wait().map_err(|e| e.to_string())?;
    }
    let manifest = dir.join("bench_e2e/Cargo.toml");
    eprintln!("pairs: building {hash}");
    run(Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", dir.join("target")))?;
    let bin = dir.join("target/release/bench_e2e");
    Ok((hash, dir, bin))
}

/// Seconds a fixed integer loop takes: the machine's speed right now.
fn spin() -> f64 {
    let started = Instant::now();
    let mut x = 1u64;
    for i in 0..50_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64()
}

/// One `bench_e2e` run: its metrics by name. `run` is `[workload, seed,
/// seconds, trace]`.
fn bench(dir: &Path, bin: &Path, run: [&str; 4]) -> Res<Vec<(String, f64)>> {
    let [workload, ..] = run;
    let flags = ["--workload", "--seed", "--seconds", "--trace"];
    let out = Command::new(bin)
        .args(flags.iter().zip(run).flat_map(|(flag, value)| [*flag, value]))
        .current_dir(dir)
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().rev().find(|l| l.starts_with('{')).ok_or_else(|| {
        format!("{workload}: no report ({})", String::from_utf8_lossy(&out.stderr))
    })?;
    let report = parse(line)?;
    let Some(JsonValue::Obj(metrics)) = report.get("metrics") else {
        return Err(format!("{workload}: report without metrics"));
    };
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

fn parse(text: &str) -> Res<JsonValue> {
    JsonValue::parse(text).map_err(|e| e.to_string())
}

/// The items of `value`'s array `key`, none if it has none.
fn items<'a>(value: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match value.get(key) {
        Some(JsonValue::Arr(items)) => items,
        _ => &[],
    }
}

/// The median of `values` and its inclusive quartiles as a JSON object.
fn summary(values: &[f64]) -> (f64, JsonValue) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let h = (v.len() - 1) as f64 * p;
        v[h.floor() as usize] + (h - h.floor()) * (v[h.ceil() as usize] - v[h.floor() as usize])
    };
    (q(0.5), JsonValue::obj([("median", q(0.5)), ("q1", q(0.25)), ("q3", q(0.75))]))
}

const USAGE: &str = "usage: pairs --parent <rev> --change <rev> --pairs N --seed S \
                     [--workloads w,…] [--trace w,…] [--seconds s] [--out file]";

/// The command line: `--flag value` pairs, every flag one of [`USAGE`]'s.
fn flags() -> Res<BTreeMap<String, String>> {
    let known = ["parent", "change", "pairs", "seed", "seconds", "workloads", "trace", "out"];
    let (mut argv, mut flags) = (std::env::args().skip(1), BTreeMap::new());
    while let Some(flag) = argv.next() {
        let name = flag.trim_start_matches("--").to_owned();
        if !known.contains(&name.as_str()) {
            return Err(format!("unknown flag {flag}; {USAGE}"));
        }
        flags.insert(name, argv.next().ok_or(format!("{flag} needs a value"))?);
    }
    Ok(flags)
}

/// Per workload, metric and side (0 parent, 1 change), the values in run
/// order.
type Table = BTreeMap<String, BTreeMap<String, [Vec<f64>; 2]>>;

/// `{"workload": {"seed_S": {"metric": entry, …}}, …}` over `table`, for
/// the metrics `entry` renders.
fn section(
    table: &Table,
    seed: &str,
    entry: impl Fn(&str, &[Vec<f64>; 2]) -> Option<JsonValue>,
) -> JsonValue {
    JsonValue::obj(table.iter().map(|(workload, metrics)| {
        let entries = metrics.iter().filter_map(|(m, v)| Some((m.clone(), entry(m, v)?)));
        (workload.clone(), JsonValue::obj([(seed, JsonValue::obj(entries))]))
    }))
}

fn main() -> Res<()> {
    let flags = flags()?;
    let flag = |name, default| flags.get(name).map_or(default, String::as_str);
    let list = |name| flags.get(name).map(|v| v.split(',').map(str::to_owned).collect());
    let (seed, seconds, n_pairs) = (flag("seed", "42"), flag("seconds", "15"), flag("pairs", "10"));
    let n_pairs: usize = n_pairs.parse().map_err(|e| format!("--pairs: {e}"))?;
    let trace: Vec<String> = list("trace").unwrap_or_default();
    let root =
        PathBuf::from(run(Command::new("git").args(["rev-parse", "--show-toplevel"]))?.trim());
    let spec =
        parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?)?;
    let workloads: Vec<String> = list("workloads").unwrap_or_else(|| {
        let names = items(&spec, "workloads").iter();
        names.filter_map(|w| Some(w.get("name")?.as_str()?.to_owned())).collect()
    });
    // Per metric: lower is better, and the end-to-end bound if any.
    let mut rule: BTreeMap<String, (bool, Option<f64>)> = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in items(&spec, section) {
            let (Some(name), Some(better)) =
                (m.get("name").and_then(JsonValue::as_str), m.get("better"))
            else {
                continue;
            };
            let bound = if bounded { m.get("bound").and_then(JsonValue::as_f64) } else { None };
            rule.insert(name.to_owned(), (better.as_str() == Some("lower"), bound));
        }
    }
    let rev = |name: &str| flags.get(name).ok_or(USAGE).map_err(str::to_owned);
    let sides = [checkout(&root, rev("parent")?)?, checkout(&root, rev("change")?)?];
    let (mut table, mut spins) = (Table::new(), vec![Vec::new(); n_pairs]);
    for (pair, spins) in spins.iter_mut().enumerate() {
        for w in &workloads {
            for side in if pair % 2 == 0 { [0, 1] } else { [1, 0] } {
                spins.push(spin());
                let (_, dir, bin) = &sides[side];
                for (metric, value) in bench(dir, bin, [w, seed, seconds, "0"])? {
                    table.entry(w.to_string()).or_default().entry(metric).or_default()[side]
                        .push(value);
                }
            }
        }
        eprintln!("pairs: pair {pair} done");
    }
    let mut traced = Table::new();
    for w in &trace {
        for i in 0..6 {
            let side = i % 2;
            let (_, dir, bin) = &sides[side];
            for (metric, value) in bench(dir, bin, [w, seed, seconds, "1"])? {
                traced.entry(w.to_string()).or_default().entry(metric).or_default()[side]
                    .push(value);
            }
        }
    }
    let seed_key = format!("seed_{seed}");
    let method = format!(
        "pairs --pairs {n_pairs} --seed {seed} --seconds {seconds}: parent first in even pairs; \
         quartiles inclusive; a win is change strictly better than parent in its pair; \
         verdict: the change's median against BENCHMARK.json's bound; spin_s: seconds of a \
         fixed spin loop timed before every run, per pair"
    );
    let workloads = section(&table, &seed_key, |metric, [parent, change]| {
        let (lower, bound) = rule.get(metric).copied().unwrap_or((true, None));
        if parent.is_empty() || parent.len() != change.len() {
            return None;
        }
        let wins = change.iter().zip(parent).filter(|(c, p)| if lower { c < p } else { c > p });
        let ties = change.iter().zip(parent).filter(|(c, p)| c == p).count();
        let ((pm, ps), (cm, cs)) = (summary(parent), summary(change));
        let delta = if pm == 0.0 { 0.0 } else { (cm - pm) / pm };
        let mut fields = vec![
            ("parent", ps),
            ("change", cs),
            ("change_wins", wins.count().into()),
            ("ties", ties.into()),
            ("pairs", parent.len().into()),
        ];
        if let Some(b) = bound {
            let worse = if lower { delta } else { -delta };
            let (side, word) = (["higher", "lower"][usize::from(lower)], ["within", "beyond"]);
            let verdict = format!(
                "median {:+.1} % ({side} is better), {} the {:.0} % bound",
                delta * 100.0,
                word[usize::from(worse > b)],
                b * 100.0
            );
            fields.push(("verdict", verdict.into()));
        }
        let values = [
            ("parent", JsonValue::arr(parent.clone())),
            ("change", JsonValue::arr(change.clone())),
        ];
        fields.push(("values", JsonValue::obj(values)));
        Some(JsonValue::obj(fields))
    });
    let traced = section(&traced, &seed_key, |_, [parent, change]| {
        Some(JsonValue::obj(
            [("parent", parent.clone()), ("change", change.clone())]
                .map(|(k, v)| (k, JsonValue::arr(v))),
        ))
    });
    let report = JsonValue::obj([
        ("parent_commit", JsonValue::from(sides[0].0.as_str())),
        ("change_commit", sides[1].0.as_str().into()),
        ("method", method.into()),
        ("claim", JsonValue::Null),
        ("spin_s", JsonValue::arr(spins.into_iter().map(JsonValue::arr))),
        ("workloads", workloads),
        ("traced", traced),
    ]);
    let path = flags.get("out").map_or(root.join("target/pairs/pairs.json"), PathBuf::from);
    std::fs::write(&path, report.to_json_pretty(1))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("pairs: wrote {}", path.display());
    Ok(())
}
