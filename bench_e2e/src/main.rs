//! `bench_e2e`: the repository's benchmark.
//!
//! Six workloads run the paper's query — `SELECT * FROM lineitem ORDER BY
//! l_orderkey LIMIT k` — through the public API of `histok-exec` and
//! `histok-core`, check every output against a sort-then-take-`k` oracle,
//! and report eight end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). See README.md beside this crate.

mod alloc;
mod fleet;
mod input;
mod probes;
mod repeat;
mod report;
mod single;
mod speed;
mod store;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: bench_e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                 [--list] [--corrupt-oracle] [--check-repeat]

  --workload <name>  one workload (default: all six, one after another)
  --seed <n>         input seed (default 42; 7 is the documented second seed)
  --seconds <s>      scales the fixed query counts, which are stated for 15 (default 15)
  --trace <0|1>      0: end-to-end metrics; 1: traced run, per-layer metrics, spans written
                     to bench_e2e/out/trace_<workload>.json (default 0)
  --list             print the workload names and why each exists
  --corrupt-oracle   self-test: one wrong oracle row must fail every query
  --check-repeat     run every workload on ten seeds, twice, and compare with BENCHMARK.json's bounds";

/// The command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub list: bool,
    pub corrupt_oracle: bool,
    pub check_repeat: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: workloads::RUN_SECONDS,
        trace: false,
        list: false,
        corrupt_oracle: false,
        check_repeat: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--list" => args.list = true,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !workloads::list().iter().any(|(known, _)| known == name) {
            return Err(format!("unknown workload {name}; --list prints the names"));
        }
    }
    Ok(args)
}

/// Runs one workload and prints its report; true when every check passed.
/// `started` is where the workload's `setup_s` begins.
fn run(name: &str, args: &Args, started: Instant) -> bool {
    let report = if name == workloads::FLEET_NAME {
        if args.trace {
            fleet::run_trace(args)
        } else {
            fleet::run(args, started)
        }
    } else {
        let spec = workloads::singles().into_iter().find(|s| s.name == name).expect("checked name");
        if args.trace {
            single::run_trace(&spec, args)
        } else {
            single::run(&spec, args, started)
        }
    };
    report.print();
    report.correct()
}

fn main() -> ExitCode {
    // `setup_s` of the first workload counts from here: process start.
    let mut started = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for (name, why) in workloads::list() {
            println!("{name}\t{why}");
        }
        return ExitCode::SUCCESS;
    }
    if args.check_repeat {
        return repeat::check(&args);
    }
    let names = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::list().into_iter().map(|(name, _)| name).collect(),
    };
    // Every workload runs and prints before a miss turns into the exit code.
    let mut all_correct = true;
    for name in names {
        all_correct &= run(name, &args, started);
        started = Instant::now();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
