//! Approximate top-k (§4.5).
//!
//! The paper identifies two forms of approximation — an approximate *row
//! count* ("a top 100 request may produce 90, 100, or 110 rows") and an
//! approximate *selection* ("100 rows, all of which belong to the true top
//! 120") — and notes combinations are possible. [`ApproximateTopK`]
//! implements the combination with a single slack knob ε:
//!
//! * the output's first ⌈k·(1−ε)⌉ rows are the **exact** best rows
//!   (rows that good sort at or before every cutoff the relaxed filter
//!   ever publishes, so they are never eliminated);
//! * the remaining positions up to `k` are filled best-effort, and the
//!   total may fall short of `k` — the paper's "even a conservatively
//!   estimated final cutoff key may lead to fewer final result rows than
//!   requested";
//! * in exchange, the filter establishes its cutoff after ⌈k·(1−ε)⌉
//!   represented rows instead of `k` and pops harder, spilling strictly
//!   less than the exact operator on the same input.

use histok_storage::StorageBackend;
use histok_types::{Error, Result, Row, SortKey, SortSpec};

use crate::config::TopKConfig;
use crate::metrics::OperatorMetrics;
use crate::topk::{HistogramTopK, RowStream, TopKOperator};

/// Histogram top-k with approximation slack (§4.5).
pub struct ApproximateTopK<K: SortKey> {
    inner: HistogramTopK<K>,
    slack: f64,
    guaranteed: u64,
}

impl<K: SortKey> ApproximateTopK<K> {
    /// Creates the operator with slack `epsilon ∈ [0, 1)`; `epsilon = 0`
    /// is the exact operator.
    pub fn new(
        spec: SortSpec,
        mut config: TopKConfig,
        backend: impl StorageBackend + 'static,
        epsilon: f64,
    ) -> Result<Self> {
        if !(0.0..1.0).contains(&epsilon) {
            return Err(Error::InvalidConfig(format!(
                "approximation slack must be in [0, 1), got {epsilon}"
            )));
        }
        config.approx_slack = epsilon;
        let guaranteed = ((spec.retained() as f64) * (1.0 - epsilon)).ceil() as u64;
        Ok(ApproximateTopK {
            inner: HistogramTopK::new(spec, config, backend)?,
            slack: epsilon,
            guaranteed,
        })
    }

    /// The number of leading output rows guaranteed to be the exact best:
    /// ⌈k·(1−ε)⌉.
    pub fn guaranteed_rows(&self) -> u64 {
        self.guaranteed
    }

    /// The configured slack.
    pub fn slack(&self) -> f64 {
        self.slack
    }
}

impl<K: SortKey> TopKOperator<K> for ApproximateTopK<K> {
    fn push(&mut self, row: Row<K>) -> Result<()> {
        self.inner.push(row)
    }

    fn push_batch(&mut self, rows: &mut Vec<Row<K>>) -> Result<()> {
        self.inner.push_batch(rows)
    }

    fn finish(&mut self) -> Result<RowStream<K>> {
        self.inner.finish()
    }

    fn metrics(&self) -> OperatorMetrics {
        self.inner.metrics()
    }

    fn algorithm(&self) -> &'static str {
        "approximate-histogram-topk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

    const INPUT: u64 = 60_000;
    const K: u64 = 2_000;
    const MEM_ROWS: usize = 150;

    fn config() -> TopKConfig {
        TopKConfig::builder().memory_budget(MEM_ROWS * 60).block_bytes(1024).build().unwrap()
    }

    fn shuffled(seed: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..INPUT).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(seed));
        keys
    }

    fn run(epsilon: f64, keys: &[u64]) -> (Vec<u64>, OperatorMetrics) {
        let mut op =
            ApproximateTopK::new(SortSpec::ascending(K), config(), MemoryBackend::new(), epsilon)
                .unwrap();
        for &k in keys {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        (out, op.metrics())
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
    fn accessors_report_configuration() {
        let op: ApproximateTopK<u64> =
            ApproximateTopK::new(SortSpec::ascending(100), config(), MemoryBackend::new(), 0.1)
                .unwrap();
        assert_eq!(op.guaranteed_rows(), 90);
        assert!((op.slack() - 0.1).abs() < 1e-12);
        assert_eq!(op.algorithm(), "approximate-histogram-topk");
    }

    #[test]
    fn invalid_slack_rejected() {
        for bad in [1.0, 1.5, -0.01] {
            assert!(ApproximateTopK::<u64>::new(
                SortSpec::ascending(10),
                config(),
                MemoryBackend::new(),
                bad
            )
            .is_err());
        }
    }

    #[test]
    fn in_memory_inputs_are_unaffected() {
        // While everything fits in memory, the filter never acts — the
        // answer is exact regardless of slack.
        let mut op = ApproximateTopK::new(
            SortSpec::ascending(10),
            TopKConfig::builder().memory_budget(1 << 20).build().unwrap(),
            MemoryBackend::new(),
            0.3,
        )
        .unwrap();
        for k in (0..1_000u64).rev() {
            op.push(Row::key_only(k)).unwrap();
        }
        let out: Vec<u64> = op.finish().unwrap().map(|r| r.unwrap().key).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }
}
