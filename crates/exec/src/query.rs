//! A tiny fluent query builder over the operators.

use std::sync::Arc;
use std::time::{Duration, Instant};

use histok_core::{
    HistogramTopK, InMemoryTopK, OperatorMetrics, OptimizedExternalTopK, ParallelTopK, TopKConfig,
    TopKOperator, TraditionalExternalTopK,
};
use histok_storage::StorageBackend;
use histok_types::{Result, Row, SortKey, SortSpec};

use crate::operator::{FilterOp, Operator, ScanOp, TopKExec};

/// Which top-k algorithm a [`Query`] should plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The paper's histogram-guided operator.
    #[default]
    Histogram,
    /// In-memory priority queue (assumes provisioned memory).
    InMemory,
    /// Traditional full external merge sort.
    Traditional,
    /// The [Graefe'08] optimized external merge sort.
    Optimized,
    /// The histogram operator parallelized over worker threads sharing one
    /// cutoff filter (§4.4).
    Parallel(
        /// Number of worker threads.
        usize,
    ),
}

/// Builder for a `Scan → Filter? → TopK` plan.
pub struct Query<K: SortKey> {
    source: Box<dyn Operator<K>>,
    spec: SortSpec,
    config: TopKConfig,
    algorithm: Algorithm,
    plan: Vec<String>,
}

/// The materialized result of a query run.
#[derive(Debug)]
pub struct QueryResult<K> {
    /// Output rows in the requested order.
    pub rows: Vec<Row<K>>,
    /// Metrics of the top-k operator.
    pub metrics: OperatorMetrics,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Time spent waiting for admission before execution started (always
    /// zero for standalone execution; set by `TopKServer` so callers can
    /// separate scheduling delay from execution time).
    pub queued: Duration,
    /// Name of the algorithm that ran.
    pub algorithm: &'static str,
}

impl<K: SortKey> Query<K> {
    /// Starts a plan scanning `source` rows with the given top-k clause.
    pub fn scan(source: impl Iterator<Item = Row<K>> + Send + 'static, spec: SortSpec) -> Self {
        Query {
            source: Box::new(ScanOp::new(source)),
            spec,
            config: TopKConfig::default(),
            algorithm: Algorithm::default(),
            plan: vec!["Scan".to_string()],
        }
    }

    /// Adds a WHERE-style predicate below the top-k.
    pub fn filter(mut self, predicate: impl FnMut(&Row<K>) -> bool + Send + 'static) -> Self {
        self.source = Box::new(FilterOp::new(self.source, predicate));
        self.plan.push("Filter".to_string());
        self
    }

    /// Overrides the operator configuration.
    pub fn config(mut self, config: TopKConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the top-k algorithm (default: the histogram operator).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Renders the plan tree, top operator last (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let order =
            if self.spec.order == histok_types::SortOrder::Ascending { "ASC" } else { "DESC" };
        let top = format!(
            "TopK[{:?}] (limit {}, offset {}, {order})",
            self.algorithm, self.spec.limit, self.spec.offset
        );
        for (depth, node) in
            self.plan.iter().map(String::as_str).chain(std::iter::once(top.as_str())).enumerate()
        {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str("-> ");
            out.push_str(node);
            out.push('\n');
        }
        out
    }

    /// The query's top-k clause (used by `TopKServer` admission to
    /// estimate the in-memory footprint).
    pub fn spec(&self) -> histok_types::SortSpec {
        self.spec
    }

    /// The operator configuration as currently built (the server reads the
    /// requested workspace and injects its shared scheduler/lease).
    pub fn config_ref(&self) -> &TopKConfig {
        &self.config
    }

    /// Mutable configuration access for the server's injections.
    pub(crate) fn config_mut(&mut self) -> &mut TopKConfig {
        &mut self.config
    }

    /// Whether this plan can spill at all (the in-memory algorithm never
    /// touches storage, whatever its estimated footprint).
    pub(crate) fn algorithm_kind(&self) -> Algorithm {
        self.algorithm
    }

    /// Plans and executes the query on `backend`, materializing the
    /// output.
    pub fn execute(self, backend: impl StorageBackend + 'static) -> Result<QueryResult<K>> {
        self.execute_shared(Arc::new(backend))
    }

    /// As [`Query::execute`] on a backend shared with other queries (the
    /// server path: N queries, one storage fleet).
    pub fn execute_shared(self, backend: Arc<dyn StorageBackend>) -> Result<QueryResult<K>> {
        self.execute_with_phase_hooks(backend, || (), |_| {})
    }

    /// Executes with two callbacks at the phase boundaries.
    ///
    /// `before_merge` runs once the input is consumed and before the
    /// operator finishes (its last spill, intermediate merges and the start
    /// of its final merge); what it returns is held until the result is
    /// materialized. `after_open` runs once the final-merge stream is open:
    /// run generation and intermediate merges are complete and the sort
    /// workspace is flushed. The server uses the first to admit the final
    /// merge by the size of its result and the second to shrink the
    /// query's lease to a merge reserve.
    pub(crate) fn execute_with_phase_hooks<G>(
        self,
        backend: Arc<dyn StorageBackend>,
        before_merge: impl FnOnce() -> G,
        after_open: impl FnOnce(&OperatorMetrics),
    ) -> Result<QueryResult<K>> {
        let topk: Box<dyn TopKOperator<K>> = match self.algorithm {
            Algorithm::Histogram => {
                Box::new(HistogramTopK::with_arc(self.spec, self.config, backend)?)
            }
            Algorithm::InMemory => Box::new(InMemoryTopK::new(self.spec)?),
            Algorithm::Traditional => {
                Box::new(TraditionalExternalTopK::with_config(self.spec, &self.config, backend)?)
            }
            Algorithm::Optimized => {
                Box::new(OptimizedExternalTopK::with_arc(self.spec, self.config, backend)?)
            }
            Algorithm::Parallel(threads) => {
                Box::new(ParallelTopK::with_arc(self.spec, self.config, backend, threads)?)
            }
        };
        let mut root = TopKExec::new(self.source, topk);
        let start = Instant::now();
        root.consume()?;
        let merging = before_merge();
        root.finish()?;
        after_open(&root.metrics());
        let mut rows = Vec::new();
        while let Some(row) = root.next()? {
            rows.push(row);
        }
        drop(merging);
        let elapsed = start.elapsed();
        let algorithm = root.algorithm();
        // Close before snapshotting: the final-merge stream's reads and
        // timing are only booked once the output stream is released.
        root.close()?;
        let metrics = root.metrics();
        Ok(QueryResult { rows, metrics, elapsed, queued: Duration::ZERO, algorithm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histok_storage::MemoryBackend;
    use histok_types::F64Key;
    use histok_workload::Workload;

    fn cfg(budget: usize) -> TopKConfig {
        TopKConfig::builder().memory_budget(budget).block_bytes(1024).build().unwrap()
    }

    #[test]
    fn all_algorithms_agree_on_the_answer() {
        let w = Workload::uniform(20_000, 77);
        let expected = w.expected_top_k(500, true);
        let row_bytes = 64;
        for algo in [
            Algorithm::Histogram,
            Algorithm::InMemory,
            Algorithm::Traditional,
            Algorithm::Optimized,
            Algorithm::Parallel(3),
        ] {
            let result = Query::scan(w.rows(), SortSpec::ascending(500))
                .config(cfg(120 * row_bytes))
                .algorithm(algo)
                .execute(MemoryBackend::new())
                .unwrap();
            let got: Vec<f64> = result.rows.iter().map(|r| r.key.get()).collect();
            assert_eq!(got, expected, "{:?} diverged", algo);
            assert_eq!(result.metrics.rows_in, 20_000);
        }
    }

    #[test]
    fn histogram_spills_far_less_than_traditional() {
        let w = Workload::uniform(50_000, 78);
        let run = |algo| {
            Query::scan(w.rows(), SortSpec::ascending(1_000))
                .config(cfg(150 * 64))
                .algorithm(algo)
                .execute(MemoryBackend::new())
                .unwrap()
        };
        let hist = run(Algorithm::Histogram);
        let trad = run(Algorithm::Traditional);
        assert_eq!(
            hist.rows.iter().map(|r| r.key.get()).collect::<Vec<_>>(),
            trad.rows.iter().map(|r| r.key.get()).collect::<Vec<_>>()
        );
        assert!(
            hist.metrics.rows_spilled() * 3 < trad.metrics.rows_spilled(),
            "histogram {} vs traditional {}",
            hist.metrics.rows_spilled(),
            trad.metrics.rows_spilled()
        );
    }

    #[test]
    fn reported_metrics_include_the_final_merge() {
        // Regression: metrics used to be snapshotted at `open`, before the
        // output stream was drained, losing all merge-phase reads/timing.
        let w = Workload::uniform(50_000, 81);
        let result = Query::scan(w.rows(), SortSpec::ascending(1_000))
            .config(cfg(150 * 64))
            .algorithm(Algorithm::Histogram)
            .execute(MemoryBackend::new())
            .unwrap();
        assert!(result.metrics.spilled);
        assert!(result.metrics.io.rows_read > 0, "merge reads missing from metrics");
        assert!(result.metrics.io.read_ops > 0);
        assert!(
            result.metrics.phases.final_merge_ns > 0,
            "final-merge phase time missing from metrics"
        );
    }

    #[test]
    fn filter_below_topk() {
        let result: QueryResult<F64Key> =
            Query::scan(Workload::uniform(1_000, 79).rows(), SortSpec::ascending(5))
                .filter(|row| row.key.get() % 2.0 == 0.0)
                .execute(MemoryBackend::new())
                .unwrap();
        let keys: Vec<f64> = result.rows.iter().map(|r| r.key.get()).collect();
        assert_eq!(keys, vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn explain_renders_the_plan() {
        let q = Query::scan(Workload::uniform(10, 1).rows(), SortSpec::ascending(5))
            .filter(|_| true)
            .algorithm(Algorithm::Optimized);
        let plan = q.explain();
        assert!(plan.contains("-> Scan"), "{plan}");
        assert!(plan.contains("-> Filter"), "{plan}");
        assert!(plan.contains("TopK[Optimized] (limit 5, offset 0, ASC)"), "{plan}");
        // Deeper nodes are indented further.
        let scan_line = plan.lines().next().unwrap();
        let topk_line = plan.lines().last().unwrap();
        assert!(topk_line.len() > scan_line.len());
    }

    #[test]
    fn offset_pagination_through_query_api() {
        let w = Workload::uniform(5_000, 80);
        let page = |offset| {
            let result = Query::scan(w.rows(), SortSpec::ascending(10).with_offset(offset))
                .execute(MemoryBackend::new())
                .unwrap();
            result.rows.iter().map(|r| r.key.get()).collect::<Vec<_>>()
        };
        assert_eq!(page(0), (1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(page(10), (11..=20).map(f64::from).collect::<Vec<_>>());
        assert_eq!(page(4_995), (4_996..=5_000).map(f64::from).collect::<Vec<_>>());
    }
}
