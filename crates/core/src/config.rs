//! Configuration of the top-k operators.

use histok_sort::run_gen::ResiduePolicy;
use histok_sort::{BudgetHandle, MemoryBudget, MergeConfig, MergePolicy};
use histok_types::{AggregateOp, Error, Result};

use crate::sizing::SizingPolicy;

/// Which run-generation strategy the operator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunGenKind {
    /// Replacement selection (production default, §5.1.2).
    #[default]
    ReplacementSelection,
    /// Quicksort load-sort-store runs (PostgreSQL-style; also what the
    /// §3.2 analysis assumes).
    LoadSortStore,
}

/// How run generation executes: row-at-a-time comparison sorting, or the
/// batched radix sort over normalized key prefixes
/// ([`histok_sort::BatchSort`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunGenMode {
    /// Decide by key width: when the configured strategy is
    /// [`RunGenKind::LoadSortStore`] and the key's 8-byte normalized
    /// prefix is exact (integers, `F64Key`), use the radix batch sort —
    /// same flush points, same run contents, no comparator on the hot
    /// path. Replacement selection keeps its pipelined heap (its run
    /// shape — ~2× memory, run-size caps — is the strategy).
    #[default]
    Adaptive,
    /// Always the comparison-based strategy named by
    /// [`TopKConfig::run_generation`].
    Comparison,
    /// Always the radix batch sort, regardless of strategy or key width.
    /// Overrides [`RunGenKind`]; run-size caps do not apply.
    Batch,
}

/// Tunables for [`crate::HistogramTopK`] (and, where applicable, the
/// baselines). Build with [`TopKConfig::builder`].
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// Workspace bytes for buffered rows (§5.1.2 default is 1 GB; ours is
    /// 16 MiB, suitable for scaled experiments).
    pub memory_budget: usize,
    /// Histogram sizing policy (default: 50 buckets per run).
    pub sizing: SizingPolicy,
    /// Memory allowed for the histogram priority queue before a
    /// consolidation step (§5.1.2 default: 1 MiB).
    pub histogram_memory: usize,
    /// Emit tail buckets at run end (strictly more information than the
    /// paper's idealized model; ablation switch).
    pub tail_buckets: bool,
    /// Run-generation strategy.
    pub run_generation: RunGenKind,
    /// Run-generation execution mode (comparison vs. batched radix); see
    /// [`RunGenMode`].
    pub run_gen_mode: RunGenMode,
    /// Cap runs at `offset + limit` rows (the [Graefe'08] optimization).
    pub limit_run_size: bool,
    /// Merge fan-in and intermediate-run selection policy.
    pub merge: MergeConfig,
    /// What to do with rows still in memory when input ends.
    pub residue: ResiduePolicy,
    /// Master switch for the cutoff filter (off = measure the bare
    /// operator, §5.5).
    pub filter_enabled: bool,
    /// Apply the filter at operator input (Algorithm 1 line 4); ablation.
    pub input_filter: bool,
    /// Apply the filter again at spill time (Algorithm 1 line 11);
    /// ablation.
    pub spill_filter: bool,
    /// Run-file block payload bytes.
    pub block_bytes: usize,
    /// Approximation slack ε ∈ [0, 1) (§4.5): the cutoff filter targets
    /// ⌈k·(1−ε)⌉ rows instead of `k`, filtering earlier and harder. The
    /// exact top ⌈k·(1−ε)⌉ rows are still guaranteed; the remaining output
    /// positions are best-effort and the row count may fall short of `k`.
    /// 0.0 (the default) = exact.
    pub approx_slack: f64,
    /// Offset-value coding on the sort hot path (loser-tree duels,
    /// selection-tree matches, cutoff prefix checks). On by default; off
    /// forces full key comparisons everywhere (differential baseline).
    pub ovc_enabled: bool,
    /// Worker threads for the final merge. With 2 or more, the final
    /// merge is range-partitioned across histogram-guided splitter keys
    /// when the estimated row count clears
    /// [`partition_min_rows`](TopKConfig::partition_min_rows). Default:
    /// `available_parallelism` capped at 4; 1 = always serial.
    pub merge_threads: usize,
    /// Minimum estimated rows in the final merge before it goes parallel;
    /// below this, partitioning overhead (thread spawn, channel hops)
    /// outweighs the win. Default 8192.
    pub partition_min_rows: u64,
    /// Worker threads for the intermediate cascade merge passes (the
    /// independent merges of one pass run concurrently, sharing the I/O
    /// pool and one cutoff cell — DESIGN.md §11). `1` (the default)
    /// keeps the cascade serial: concurrent merges publish cutoff
    /// refinements in completion order, so intermediate run shapes — and
    /// with them tie-break order among duplicate keys — become
    /// timing-dependent, which the differential suites (and any caller
    /// needing run-to-run byte stability) must not see. `0` reuses
    /// [`merge_threads`](TopKConfig::merge_threads).
    pub cascade_threads: usize,
    /// Background-I/O worker threads. Spill writes and merge read-ahead
    /// submit block-sized jobs to one shared pool of this size, bounding
    /// the operator's background thread count no matter how many runs and
    /// merge sources are open. `0` builds no pool: every run's bytes move
    /// inline on the operator's own thread (the differential suites'
    /// reference). An injected
    /// [`io_scheduler_handle`](TopKConfig::io_scheduler_handle) takes
    /// precedence either way. Default 4.
    pub io_threads: usize,
    /// Rows per batch on the batched merge path (loser-tree drain loops,
    /// partition-worker channel hops). Must be at least 1. Default 1024.
    pub batch_rows: usize,
    /// An injected, shared background-I/O pool. When set,
    /// [`io_scheduler`](TopKConfig::io_scheduler) returns a clone of this
    /// pool instead of constructing a fresh one, so every operator built
    /// from this config — including the per-group sub-operators of
    /// `GroupedTopK`/`SegmentedTopK`/`ExchangeTopK` and every query a
    /// `TopKServer` admits — shares `io_threads` workers fleet-wide
    /// instead of spawning a private pool each. `None` (the default)
    /// keeps the standalone one-pool-per-operator behaviour.
    pub io_scheduler_handle: Option<histok_storage::IoScheduler>,
    /// A revocable memory-lease handle. When set, operators read their
    /// workspace limit through this shared cell instead of the fixed
    /// [`memory_budget`](TopKConfig::memory_budget), so a server's
    /// admission controller can grow or shrink a *running* query's
    /// workspace at phase boundaries without restarting it. `None` (the
    /// default) keeps the fixed budget.
    pub budget_lease: Option<BudgetHandle>,
    /// Remove duplicate keys in-sort (`SELECT DISTINCT ... ORDER BY ...
    /// LIMIT k`): equal keys fold to one deterministic representative row
    /// at every pipeline stage — run generation, each merge duel, and the
    /// in-memory store — so `limit` counts *distinct* keys. Mutually
    /// exclusive with [`aggregate`](TopKConfig::aggregate).
    pub dedup: bool,
    /// Grouped aggregation in-sort (`GROUP BY key` with the top `limit`
    /// groups in key order): equal keys fold by combining payloads with
    /// this aggregate at every pipeline stage. The histogram cutoff can
    /// only prune on the *group key* order — never on unmerged partial
    /// aggregates — so pre-aggregation input/spill filtering is disabled
    /// in this mode; cutoffs still tighten post-merge (DESIGN.md §14).
    /// Mutually exclusive with [`dedup`](TopKConfig::dedup).
    pub aggregate: Option<AggregateOp>,
}

/// Default for [`TopKConfig::merge_threads`]: the machine's available
/// parallelism, capped at 4 (the paper's storage model saturates around
/// there; more threads only shred the read pattern).
pub fn default_merge_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            memory_budget: 16 * 1024 * 1024,
            sizing: SizingPolicy::default(),
            histogram_memory: crate::cutoff::DEFAULT_FILTER_MEMORY,
            tail_buckets: true,
            run_generation: RunGenKind::default(),
            run_gen_mode: RunGenMode::default(),
            limit_run_size: true,
            // The paper's algorithm performs "one pass over the input to
            // generate sorted runs and then merges the runs until the top k
            // rows are produced" (§1) — intermediate merge steps only happen
            // when the run count exceeds this generous fan-in.
            merge: MergeConfig { fan_in: 512, policy: MergePolicy::LowestKeyFirst },
            residue: ResiduePolicy::KeepInMemory,
            filter_enabled: true,
            input_filter: true,
            spill_filter: true,
            block_bytes: histok_storage::DEFAULT_BLOCK_BYTES,
            approx_slack: 0.0,
            ovc_enabled: true,
            merge_threads: default_merge_threads(),
            partition_min_rows: 8192,
            cascade_threads: 1,
            io_threads: 4,
            batch_rows: histok_sort::DEFAULT_BATCH_ROWS,
            io_scheduler_handle: None,
            budget_lease: None,
            dedup: false,
            aggregate: None,
        }
    }
}

impl TopKConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> TopKConfigBuilder {
        TopKConfigBuilder { config: TopKConfig::default() }
    }

    /// The background-I/O worker pool this configuration asks for: the
    /// injected shared pool when
    /// [`io_scheduler_handle`](TopKConfig::io_scheduler_handle) is set,
    /// otherwise a fresh pool of [`io_threads`](TopKConfig::io_threads)
    /// workers, or `None` (inline I/O) when `io_threads == 0`. Operators
    /// call this once and hand the pool to their run catalogs.
    pub fn io_scheduler(&self) -> Option<histok_storage::IoScheduler> {
        self.io_scheduler_handle.clone().or_else(|| {
            (self.io_threads > 0).then(|| histok_storage::IoScheduler::new(self.io_threads))
        })
    }

    /// Returns a clone of this config with one materialized shared I/O
    /// pool injected, so composite operators (grouped, segmented,
    /// exchange) hand every sub-operator the *same* `io_threads` workers
    /// instead of letting each construct a private pool. A no-op for
    /// inline I/O or when a shared pool was already injected.
    pub fn with_shared_io_scheduler(&self) -> TopKConfig {
        let mut config = self.clone();
        if config.io_scheduler_handle.is_none() {
            config.io_scheduler_handle = config.io_scheduler();
        }
        config
    }

    /// Builds the workspace budget for an operator: lease-backed (shared,
    /// resizable limit) when [`budget_lease`](TopKConfig::budget_lease) is
    /// set, otherwise a private fixed budget of
    /// [`memory_budget`](TopKConfig::memory_budget) bytes.
    pub fn make_budget(&self) -> MemoryBudget {
        match &self.budget_lease {
            Some(handle) => MemoryBudget::with_handle(handle.clone()),
            None => MemoryBudget::new(self.memory_budget),
        }
    }

    /// The workspace limit in effect right now: the lease's current grant
    /// when one is attached, else the fixed
    /// [`memory_budget`](TopKConfig::memory_budget). In-memory/spill
    /// switch decisions must read this (not the fixed field) so a lease
    /// resize reaches operators that track usage outside a
    /// [`MemoryBudget`].
    pub fn effective_memory_budget(&self) -> usize {
        match &self.budget_lease {
            Some(handle) => handle.limit(),
            None => self.memory_budget,
        }
    }

    /// Worker threads the intermediate cascade merges actually run on:
    /// [`cascade_threads`](TopKConfig::cascade_threads), falling back to
    /// [`merge_threads`](TopKConfig::merge_threads) when 0.
    pub fn cascade_workers(&self) -> usize {
        if self.cascade_threads == 0 {
            self.merge_threads
        } else {
            self.cascade_threads
        }
    }

    /// The payload-folding operation this configuration asks for: the
    /// configured [`aggregate`](TopKConfig::aggregate), or
    /// [`AggregateOp::First`] (pure duplicate removal) when
    /// [`dedup`](TopKConfig::dedup) is set, else `None`.
    pub fn fold_op(&self) -> Option<AggregateOp> {
        if self.dedup {
            Some(AggregateOp::First)
        } else {
            self.aggregate
        }
    }

    /// Checks the configuration for consistency.
    pub fn validate(&self) -> Result<()> {
        if self.memory_budget == 0 {
            return Err(Error::InvalidConfig("memory budget must be positive".into()));
        }
        if self.block_bytes == 0 {
            return Err(Error::InvalidConfig("block bytes must be positive".into()));
        }
        if !(0.0..1.0).contains(&self.approx_slack) {
            return Err(Error::InvalidConfig("approx_slack must be in [0, 1)".into()));
        }
        if self.merge_threads == 0 {
            return Err(Error::InvalidConfig("merge_threads must be at least 1".into()));
        }
        if self.batch_rows == 0 {
            return Err(Error::InvalidConfig("batch_rows must be at least 1".into()));
        }
        if self.dedup && self.aggregate.is_some() {
            return Err(Error::InvalidConfig(
                "dedup and aggregate are mutually exclusive (dedup IS aggregate FIRST)".into(),
            ));
        }
        self.sizing.validate()?;
        self.merge.validate()?;
        Ok(())
    }
}

/// Fluent builder for [`TopKConfig`].
#[derive(Debug, Clone)]
pub struct TopKConfigBuilder {
    config: TopKConfig,
}

impl TopKConfigBuilder {
    /// Sets the workspace byte budget.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config.memory_budget = bytes;
        self
    }

    /// Sets the histogram sizing policy.
    pub fn sizing(mut self, policy: SizingPolicy) -> Self {
        self.config.sizing = policy;
        self
    }

    /// Sets the histogram priority-queue memory budget.
    pub fn histogram_memory(mut self, bytes: usize) -> Self {
        self.config.histogram_memory = bytes;
        self
    }

    /// Enables or disables tail buckets.
    pub fn tail_buckets(mut self, emit: bool) -> Self {
        self.config.tail_buckets = emit;
        self
    }

    /// Chooses the run-generation strategy.
    pub fn run_generation(mut self, kind: RunGenKind) -> Self {
        self.config.run_generation = kind;
        self
    }

    /// Chooses the run-generation execution mode; see [`RunGenMode`].
    pub fn run_gen_mode(mut self, mode: RunGenMode) -> Self {
        self.config.run_gen_mode = mode;
        self
    }

    /// Enables or disables the run-size cap at `k`.
    pub fn limit_run_size(mut self, on: bool) -> Self {
        self.config.limit_run_size = on;
        self
    }

    /// Sets merge fan-in.
    pub fn fan_in(mut self, fan_in: usize) -> Self {
        self.config.merge.fan_in = fan_in;
        self
    }

    /// Sets the intermediate-merge run-selection policy.
    pub fn merge_policy(mut self, policy: MergePolicy) -> Self {
        self.config.merge.policy = policy;
        self
    }

    /// Sets the end-of-input residue policy.
    pub fn residue(mut self, residue: ResiduePolicy) -> Self {
        self.config.residue = residue;
        self
    }

    /// Master filter switch (§5.5 overhead experiments).
    pub fn filter_enabled(mut self, on: bool) -> Self {
        self.config.filter_enabled = on;
        self
    }

    /// Input-side filtering switch (ablation).
    pub fn input_filter(mut self, on: bool) -> Self {
        self.config.input_filter = on;
        self
    }

    /// Spill-time filtering switch (ablation).
    pub fn spill_filter(mut self, on: bool) -> Self {
        self.config.spill_filter = on;
        self
    }

    /// Run-file block payload size.
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.config.block_bytes = bytes;
        self
    }

    /// Approximation slack (§4.5); see [`TopKConfig::approx_slack`].
    pub fn approx_slack(mut self, slack: f64) -> Self {
        self.config.approx_slack = slack;
        self
    }

    /// Offset-value coding switch; see [`TopKConfig::ovc_enabled`].
    pub fn ovc_enabled(mut self, on: bool) -> Self {
        self.config.ovc_enabled = on;
        self
    }

    /// Final-merge worker threads; see [`TopKConfig::merge_threads`].
    pub fn merge_threads(mut self, threads: usize) -> Self {
        self.config.merge_threads = threads;
        self
    }

    /// Parallel-merge row threshold; see
    /// [`TopKConfig::partition_min_rows`].
    pub fn partition_min_rows(mut self, rows: u64) -> Self {
        self.config.partition_min_rows = rows;
        self
    }

    /// Cascade-pass worker threads; see [`TopKConfig::cascade_threads`].
    pub fn cascade_threads(mut self, threads: usize) -> Self {
        self.config.cascade_threads = threads;
        self
    }

    /// Background-I/O pool size; see [`TopKConfig::io_threads`].
    pub fn io_threads(mut self, threads: usize) -> Self {
        self.config.io_threads = threads;
        self
    }

    /// Batched-merge batch size; see [`TopKConfig::batch_rows`].
    pub fn batch_rows(mut self, rows: usize) -> Self {
        self.config.batch_rows = rows;
        self
    }

    /// Injects a shared background-I/O pool; see
    /// [`TopKConfig::io_scheduler_handle`].
    pub fn io_scheduler_handle(mut self, scheduler: histok_storage::IoScheduler) -> Self {
        self.config.io_scheduler_handle = Some(scheduler);
        self
    }

    /// Attaches a revocable memory-lease handle; see
    /// [`TopKConfig::budget_lease`].
    pub fn budget_lease(mut self, lease: BudgetHandle) -> Self {
        self.config.budget_lease = Some(lease);
        self
    }

    /// In-sort duplicate removal; see [`TopKConfig::dedup`].
    pub fn dedup(mut self, on: bool) -> Self {
        self.config.dedup = on;
        self
    }

    /// In-sort grouped aggregation; see [`TopKConfig::aggregate`].
    pub fn aggregate(mut self, op: AggregateOp) -> Self {
        self.config.aggregate = Some(op);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<TopKConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = TopKConfig::default();
        assert_eq!(c.sizing, SizingPolicy::TargetBuckets(50)); // §5.1.2
        assert_eq!(c.histogram_memory, 1024 * 1024); // §5.1.2: 1 MB
        assert_eq!(c.run_generation, RunGenKind::ReplacementSelection);
        assert!(c.limit_run_size);
        assert!(c.filter_enabled && c.input_filter && c.spill_filter);
        assert!((1..=4).contains(&c.merge_threads));
        assert_eq!(c.partition_min_rows, 8192);
        assert_eq!(c.cascade_threads, 1);
        assert_eq!(c.cascade_workers(), 1);
        assert_eq!(c.io_threads, 4);
        assert_eq!(c.run_gen_mode, RunGenMode::Adaptive);
        assert_eq!(c.batch_rows, 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_roundtrip() {
        let c = TopKConfig::builder()
            .memory_budget(1 << 20)
            .sizing(SizingPolicy::TargetBuckets(9))
            .histogram_memory(4096)
            .tail_buckets(false)
            .run_generation(RunGenKind::LoadSortStore)
            .run_gen_mode(RunGenMode::Batch)
            .limit_run_size(false)
            .fan_in(8)
            .merge_policy(MergePolicy::SmallestFirst)
            .residue(ResiduePolicy::SpillToRuns)
            .filter_enabled(true)
            .input_filter(false)
            .spill_filter(true)
            .block_bytes(1024)
            .merge_threads(2)
            .partition_min_rows(100)
            .cascade_threads(3)
            .io_threads(2)
            .batch_rows(64)
            .build()
            .unwrap();
        assert_eq!(c.memory_budget, 1 << 20);
        assert_eq!(c.sizing, SizingPolicy::TargetBuckets(9));
        assert!(!c.tail_buckets);
        assert_eq!(c.run_generation, RunGenKind::LoadSortStore);
        assert_eq!(c.run_gen_mode, RunGenMode::Batch);
        assert!(!c.limit_run_size);
        assert_eq!(c.merge.fan_in, 8);
        assert!(!c.input_filter);
        assert_eq!(c.block_bytes, 1024);
        assert_eq!(c.merge_threads, 2);
        assert_eq!(c.partition_min_rows, 100);
        assert_eq!(c.cascade_threads, 3);
        assert_eq!(c.cascade_workers(), 3);
        assert_eq!(c.io_threads, 2);
        assert_eq!(c.batch_rows, 64);
    }

    #[test]
    fn injected_scheduler_is_returned_instead_of_a_fresh_pool() {
        let shared = histok_storage::IoScheduler::new(2);
        let c = TopKConfig::builder().io_scheduler_handle(shared.clone()).build().unwrap();
        let got = c.io_scheduler().expect("scheduler expected");
        assert!(got.same_pool(&shared), "injected pool must be returned, not a fresh one");
        let again = c.io_scheduler().unwrap();
        assert!(again.same_pool(&shared), "every call must return the same shared pool");
        // The injected pool wins over io_threads == 0 too: a server's
        // fleet pool reaches a query configured for inline I/O.
        let inline = TopKConfig::builder()
            .io_threads(0)
            .io_scheduler_handle(shared.clone())
            .build()
            .unwrap();
        assert!(inline.io_scheduler().expect("injected pool").same_pool(&shared));
    }

    #[test]
    fn with_shared_io_scheduler_materializes_one_pool() {
        let c = TopKConfig::default().with_shared_io_scheduler();
        let a = c.io_scheduler().unwrap();
        let b = c.io_scheduler().unwrap();
        assert!(a.same_pool(&b), "sub-operators cloned from this config must share the pool");
        // Idempotent: a second call keeps the already-injected pool.
        let again = c.with_shared_io_scheduler();
        assert!(again.io_scheduler().unwrap().same_pool(&a));
    }

    #[test]
    fn budget_lease_governs_make_budget_and_effective_limit() {
        let fixed = TopKConfig::builder().memory_budget(4096).build().unwrap();
        assert_eq!(fixed.effective_memory_budget(), 4096);
        assert_eq!(fixed.make_budget().limit(), 4096);

        let lease = BudgetHandle::new(1024);
        let leased =
            TopKConfig::builder().memory_budget(4096).budget_lease(lease.clone()).build().unwrap();
        assert_eq!(leased.effective_memory_budget(), 1024, "lease overrides the fixed budget");
        let budget = leased.make_budget();
        assert!(budget.handle().same_as(&lease));
        lease.set_limit(8192);
        assert_eq!(leased.effective_memory_budget(), 8192);
        assert_eq!(budget.limit(), 8192, "a resize reaches budgets already handed out");
    }

    #[test]
    fn cascade_threads_zero_reuses_merge_threads() {
        let c = TopKConfig::builder().merge_threads(3).cascade_threads(0).build().unwrap();
        assert_eq!(c.cascade_workers(), 3);
    }

    #[test]
    fn io_threads_zero_is_inline_io_and_valid() {
        let c = TopKConfig::builder().io_threads(0).build().unwrap();
        assert_eq!(c.io_threads, 0);
        assert!(c.io_scheduler().is_none(), "no pool: every run's bytes move inline");
        assert!(c.with_shared_io_scheduler().io_scheduler_handle.is_none());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TopKConfig::builder().memory_budget(0).build().is_err());
        assert!(TopKConfig::builder().block_bytes(0).build().is_err());
        assert!(TopKConfig::builder().fan_in(1).build().is_err());
        assert!(TopKConfig::builder().sizing(SizingPolicy::FixedWidth(0)).build().is_err());
        assert!(TopKConfig::builder().approx_slack(1.0).build().is_err());
        assert!(TopKConfig::builder().approx_slack(-0.1).build().is_err());
        assert!(TopKConfig::builder().approx_slack(0.25).build().is_ok());
        assert!(TopKConfig::builder().merge_threads(0).build().is_err());
        assert!(TopKConfig::builder().merge_threads(1).build().is_ok());
        assert!(TopKConfig::builder().batch_rows(0).build().is_err());
        assert!(TopKConfig::builder().batch_rows(1).build().is_ok());
        assert!(TopKConfig::builder().dedup(true).aggregate(AggregateOp::Sum).build().is_err());
        assert!(TopKConfig::builder().dedup(true).build().is_ok());
        assert!(TopKConfig::builder().aggregate(AggregateOp::Count).build().is_ok());
    }

    #[test]
    fn fold_op_maps_dedup_to_first() {
        assert_eq!(TopKConfig::default().fold_op(), None);
        assert_eq!(
            TopKConfig::builder().dedup(true).build().unwrap().fold_op(),
            Some(AggregateOp::First)
        );
        assert_eq!(
            TopKConfig::builder().aggregate(AggregateOp::Sum).build().unwrap().fold_op(),
            Some(AggregateOp::Sum)
        );
    }
}
