//! Approximate top-k (§4.5): [`HistogramTopK`](crate::topk::HistogramTopK)
//! with [`TopKConfig::approx_slack`](crate::TopKConfig::approx_slack) = ε.
//! The output's first ⌈k·(1−ε)⌉ rows are the exact best rows; the rest up
//! to `k` are best-effort, and the filter spills less than the exact
//! operator in exchange.

#[cfg(test)]
mod tests {
    use crate::config::TopKConfig;
    use crate::metrics::OperatorMetrics;
    use crate::topk::{HistogramTopK, TopKOperator};
    use histok_storage::MemoryBackend;
    use histok_types::{Row, SortSpec};
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    const INPUT: u64 = 60_000;
    const K: u64 = 2_000;
    const MEM_ROWS: usize = 150;

    fn config(epsilon: f64) -> TopKConfig {
        TopKConfig::builder()
            .memory_budget(MEM_ROWS * 60)
            .block_bytes(1024)
            .approx_slack(epsilon)
            .build()
            .unwrap()
    }

    fn shuffled(seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..INPUT).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        keys
    }

    fn run_op(k: u64, cfg: TopKConfig, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        let mut op = HistogramTopK::new(SortSpec::ascending(k), cfg, MemoryBackend::new()).unwrap();
        for &key in keys {
            op.push(Row::key_only(key)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
    }

    fn run(epsilon: f64, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        run_op(K, config(epsilon), keys)
    }

    #[test]
    fn zero_slack_is_exact() {
        let keys = shuffled(1);
        let (out, _) = run(0.0, &keys);
        assert_eq!(out, (0..K).collect::<Vec<_>>());
    }

    #[test]
    fn guaranteed_prefix_is_exact() {
        let keys = shuffled(2);
        for epsilon in [0.05, 0.1, 0.25] {
            let (out, _) = run(epsilon, &keys);
            let guaranteed = ((K as f64) * (1.0 - epsilon)).ceil() as usize;
            assert!(out.len() >= guaranteed, "ε={epsilon}: only {} rows", out.len());
            assert!(out.len() as u64 <= K);
            // The guaranteed prefix is exactly the true best rows.
            assert_eq!(
                &out[..guaranteed],
                &(0..guaranteed as u64).collect::<Vec<_>>()[..],
                "ε={epsilon}"
            );
            // Everything returned is sorted.
            assert!(out.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn slack_reduces_spilling() {
        let keys = shuffled(3);
        let (_, exact) = run(0.0, &keys);
        let (_, approx) = run(0.2, &keys);
        assert!(
            approx.rows_spilled() < exact.rows_spilled(),
            "slack did not reduce spill: {} vs {}",
            approx.rows_spilled(),
            exact.rows_spilled()
        );
    }

    #[test]
    fn invalid_slack_rejected() {
        for bad in [1.0, 1.5, -0.01] {
            assert!(TopKConfig::builder().approx_slack(bad).build().is_err(), "ε={bad}");
            // A slack set on the public field is rejected by the operator.
            let mut cfg = config(0.0);
            cfg.approx_slack = bad;
            assert!(
                HistogramTopK::<u64>::new(SortSpec::ascending(10), cfg, MemoryBackend::new())
                    .is_err(),
                "ε={bad}"
            );
        }
    }

    #[test]
    fn in_memory_inputs_are_unaffected() {
        // While everything fits in memory, the filter never acts — the
        // answer is exact regardless of slack.
        let cfg = TopKConfig::builder().memory_budget(1 << 20).approx_slack(0.3).build().unwrap();
        let keys: Vec<u64> = (0..1_000).rev().collect();
        let (out, m) = run_op(10, cfg, &keys);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert!(!m.spilled);
    }
}
