//! Regression tests pinning the two costs the cascade planner exists
//! to remove:
//!
//! * **Plan cost.** The greedy predecessor reduced one (fan_in − 1)-run
//!   step per iteration, re-ranking the whole catalog every time —
//!   O(steps · n log n) ranking work and `steps` sequential passes over
//!   a 1024-run catalog. The cascade planner ranks once per pass and
//!   finishes the same catalog in a single pass of near-equal groups.
//! * **Cutoff-dead reads.** Runs wholly past the refined cutoff used to
//!   be opened, read and clipped row by row; now they are removed from
//!   the catalog without a single read, booked as skipped I/O.

use std::sync::Arc;

use histok_sort::{merge_runs_to_new_tuned, plan_merges_cascade, MergeConfig, MergeTuning};
use histok_storage::{IoStats, MemoryBackend, RunCatalog, RunMeta};
use histok_types::{Row, SortOrder};

fn write_run(cat: &RunCatalog<u64>, keys: impl Iterator<Item = u64>) -> RunMeta<u64> {
    let mut w = cat.start_run().unwrap();
    for k in keys {
        w.append(&Row::new(k, vec![0u8; 16])).unwrap();
    }
    let meta = w.finish().unwrap();
    cat.register(meta.clone()).unwrap();
    meta
}

fn catalog(mem: &MemoryBackend, prefix: &str) -> RunCatalog<u64> {
    RunCatalog::new(Arc::new(mem.clone()), prefix, SortOrder::Ascending, IoStats::new())
        .with_block_bytes(128)
}

/// 1024 runs at fan-in 32 need exactly one pass of 32 near-equal merges
/// (992 excess runs, ⌈992/31⌉ = 32 groups, 1024 inputs — the whole
/// catalog, landing exactly on 32 survivors). The greedy planner took
/// 32 *sequential* steps and 32 full re-rankings for the same shape; a
/// regression to per-step planning shows up here as `merge_passes > 1`
/// or extra intermediate merges.
#[test]
fn thousand_run_catalog_is_one_planned_pass() {
    let mem = MemoryBackend::new();
    let cat = catalog(&mem, "pc");
    for r in 0..1024u64 {
        write_run(&cat, (0..2).map(|j| r * 2 + j));
    }
    let config = MergeConfig { fan_in: 32, ..MergeConfig::default() };
    let (final_runs, stats) =
        plan_merges_cascade(&cat, &config, None, None, &MergeTuning::default(), 1).unwrap();
    assert_eq!(stats.merge_passes, 1, "1024 runs at fan-in 32 must plan a single pass");
    assert_eq!(stats.intermediate_merges, 32, "single pass must hold exactly 32 merges");
    assert_eq!(final_runs.len(), 32, "pass must land exactly on the fan-in");
    assert_eq!(stats.runs_pruned, 0, "no cutoff, nothing to prune");
    assert_eq!(cat.len(), 32);
}

/// Runs whose `first_key` lies past the caller's cutoff are removed
/// before planning: no merge group contains them, no byte of them is
/// read, and their blocks are booked as skipped I/O — byte-exact.
#[test]
fn initial_cutoff_prunes_dead_runs_without_reading() {
    let mem = MemoryBackend::new();
    let cat = catalog(&mem, "ip");
    for r in 0..3u64 {
        write_run(&cat, (0..100).map(|j| j * 3 + r));
    }
    let dead: Vec<RunMeta<u64>> =
        (0..3u64).map(|r| write_run(&cat, (0..100).map(|j| 1_000 + j * 3 + r))).collect();
    let dead_blocks: u64 = dead.iter().map(|m| m.blocks.len() as u64).sum();
    let dead_bytes: u64 =
        dead.iter().flat_map(|m| &m.blocks).map(|b| u64::from(b.payload_bytes)).sum();
    let config = MergeConfig { fan_in: 4, ..MergeConfig::default() };
    let (final_runs, stats) =
        plan_merges_cascade(&cat, &config, None, Some(&500), &MergeTuning::default(), 1).unwrap();
    assert_eq!(stats.runs_pruned, 3);
    assert_eq!(final_runs.len(), 3, "live runs fit the fan-in untouched");
    assert_eq!(stats.merge_passes, 0);
    let io = cat.stats().snapshot();
    assert_eq!(io.blocks_skipped, dead_blocks, "every dead block booked as skipped");
    assert_eq!(io.bytes_skipped, dead_bytes, "skipped bytes must be byte-exact");
    assert_eq!(io.bytes_read, 0, "pruning must not read");
    assert_eq!(mem.object_count(), 3, "dead objects deleted, live ones kept");
}

/// A cutoff *discovered mid-pass* prunes sibling groups before they are
/// read: merging the two lowest-keyed runs at `limit = 10` proves ten
/// rows ≤ key 4 exist, so the high-keyed group is dropped unopened. The
/// cascade's I/O must be identical to running it with the dead runs
/// never present.
#[test]
fn limit_refined_cutoff_prunes_sibling_groups_unread() {
    let run = |cat: &RunCatalog<u64>, base: u64| write_run(cat, (0..200).map(|j| base + j * 2));
    let config = MergeConfig { fan_in: 2, ..MergeConfig::default() };
    // Inline I/O only (the catalog has no pool): with `limit = 10` the
    // merge stops early, and background read-ahead would make
    // `bytes_read` timing-dependent.
    let tuning = MergeTuning::default();

    // Reference: the two live runs merged directly — exactly the one
    // merge the cascade's group 0 performs.
    let ref_mem = MemoryBackend::new();
    let ref_cat = catalog(&ref_mem, "xp");
    run(&ref_cat, 0);
    run(&ref_cat, 1);
    merge_runs_to_new_tuned(&ref_cat, &ref_cat.runs(), Some(10), None, &tuning).unwrap();
    let ref_io = ref_cat.stats().snapshot();
    assert!(ref_io.bytes_read > 0);

    // Same two live runs plus two dead ones starting at key 10 000 —
    // ranked into the second merge group, pruned when group 0's merge
    // publishes its last key.
    let mem = MemoryBackend::new();
    let cat = catalog(&mem, "xp");
    run(&cat, 0);
    run(&cat, 1);
    let dead = [run(&cat, 10_000), run(&cat, 10_001)];
    let dead_blocks: u64 = dead.iter().map(|m| m.blocks.len() as u64).sum();
    let dead_bytes: u64 =
        dead.iter().flat_map(|m| &m.blocks).map(|b| u64::from(b.payload_bytes)).sum();
    let (final_runs, stats) =
        plan_merges_cascade(&cat, &config, Some(10), None, &tuning, 1).unwrap();
    assert_eq!(stats.merge_passes, 1);
    assert_eq!(stats.intermediate_merges, 1, "the dead group must never merge");
    assert_eq!(stats.runs_pruned, 2);
    assert_eq!(final_runs.len(), 1);
    let io = cat.stats().snapshot();
    assert_eq!(io.blocks_skipped, dead_blocks);
    assert_eq!(io.bytes_skipped, dead_bytes);
    assert_eq!(
        io.bytes_read, ref_io.bytes_read,
        "cascade with dead runs must read exactly what the dead-free cascade reads"
    );
}
