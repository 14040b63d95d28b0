//! Approximate top-k (§4.5): a trending dashboard does not care whether it
//! shows the 1,000th or the 1,050th "most important" item — it cares about
//! latency and cost. With 5% slack (`approx_slack`) the operator filters
//! earlier and spills less, while the head of the list — the first
//! ⌈k(1−ε)⌉ rows — stays exact.
//!
//! ```sh
//! cargo run --release --example approximate_trending
//! ```

use histok::prelude::*;
use histok::workload::Distribution;

const EVENTS: u64 = 1_500_000;
const K: u64 = 30_000;
const MEM_ROWS: usize = 6_000;

fn run(epsilon: f64) -> Result<(usize, u64, Vec<f64>)> {
    let spec = SortSpec::descending(K); // most-engaged first
    let config =
        TopKConfig::builder().memory_budget(MEM_ROWS * 64).approx_slack(epsilon).build()?;
    let mut op = HistogramTopK::new(spec, config, MemoryBackend::new())?;
    for row in
        Workload::uniform(EVENTS, 8).with_distribution(Distribution::lognormal_default()).rows()
    {
        op.push(row)?;
    }
    let out: Vec<f64> = op.finish()?.map(|r| r.map(|row| row.key.get())).collect::<Result<_>>()?;
    let spilled = op.metrics().rows_spilled();
    Ok((out.len(), spilled, out))
}

fn main() -> Result<()> {
    println!("top {K} of {EVENTS} engagement events, memory ~{MEM_ROWS} rows\n");
    println!("{:>7} | {:>9} {:>12} {:>14}", "slack", "returned", "spilled", "head intact?");
    let (_, _, exact) = run(0.0)?;
    for epsilon in [0.0, 0.02, 0.05, 0.10] {
        let (returned, spilled, out) = run(epsilon)?;
        let guaranteed = ((K as f64) * (1.0 - epsilon)).ceil() as usize;
        let head_ok = out[..guaranteed.min(out.len())] == exact[..guaranteed.min(out.len())];
        assert!(head_ok, "guaranteed prefix diverged at ε={epsilon}");
        assert!(returned >= guaranteed);
        println!(
            "{:>6.0}% | {:>9} {:>12} {:>14}",
            epsilon * 100.0,
            returned,
            spilled,
            if head_ok { "yes" } else { "NO" },
        );
    }
    println!("\nslack lets the cutoff establish sooner: fewer rows reach secondary");
    println!("storage, the guaranteed head of the ranking stays exact.");
    Ok(())
}
