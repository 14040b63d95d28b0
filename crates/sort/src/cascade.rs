//! Cascade merge planning: the intermediate merge passes that reduce a
//! catalog to the merge fan-in.
//!
//! [`plan_merges`] runs an explicit pass structure on the calling thread:
//!
//! 1. **Plan.** Rank the catalog once per pass and cut it into merge
//!    groups of at most `fan_in` runs (`plan_pass_groups`). When one
//!    more reduction pass suffices, the pass merges only the
//!    `excess + merges` best-ranked runs (classic minimal-rewrite
//!    cascade); otherwise it is a full pass of maximal groups. Group 0
//!    always holds the best-ranked runs. With a cutoff those are the runs
//!    with the fewest *live* rows, the rows at or before the cutoff that a
//!    clipped merge reads and rewrites: the pass rewrites the cheapest
//!    runs (Knuth's optimal merge pattern over live rows) and the runs
//!    with the most live rows go to the final merge untouched. With a
//!    `limit` and no cutoff yet, they are the runs with the best first
//!    keys, so the merge most likely to establish a cutoff executes first.
//! 2. **Execute.** The groups of a pass merge one after another. A merge
//!    that completes `limit` rows tightens the cutoff to its last key,
//!    and every later merge truncates at the tighter key (paper §4.1).
//! 3. **Prune.** Between passes — and again before each group merges —
//!    any run whose `first_key` sorts strictly after the refined cutoff
//!    is removed from the catalog *without being opened*; its blocks are
//!    booked as skipped I/O.
//!
//! A merge that produced `limit` rows ending at key `L` proves at least
//! `limit` rows at or before `L` exist globally, so no row strictly after
//! `L` can be in the top `limit`. Pruning a run whose `first_key`
//! strictly follows the cutoff drops exactly the rows cutoff clipping
//! would have dropped (ties survive, [`SortOrder::follows`] is strict), so
//! it is cutoff truncation minus the reads.
//!
//! [`SortOrder::follows`]: histok_types::SortOrder::follows

use std::ops::Range;

use histok_storage::{RunCatalog, RunMeta};
use histok_types::{Error, Result, SortKey};

use crate::merge::{merge_runs_to_new, rank_candidates, MergeTuning};

/// Counters a cascade accumulates across its passes; surfaced through
/// `OperatorMetrics` (see docs/METRICS.md).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Intermediate merge passes executed (0 when the catalog already
    /// fit the fan-in).
    pub merge_passes: u64,
    /// Intermediate merges actually drained (groups whose inputs were
    /// all pruned don't count).
    pub intermediate_merges: u64,
    /// Runs deleted without being opened because their `first_key` lay
    /// strictly past the refined cutoff.
    pub runs_pruned: u64,
}

impl CascadeStats {
    /// Field-wise sum, for aggregating the cascades of several catalogs.
    pub fn merged(&self, other: &CascadeStats) -> CascadeStats {
        CascadeStats {
            merge_passes: self.merge_passes + other.merge_passes,
            intermediate_merges: self.intermediate_merges + other.intermediate_merges,
            runs_pruned: self.runs_pruned + other.runs_pruned,
        }
    }
}

/// Cuts `n` ranked runs into the merge groups of one pass, each group a
/// range of at most `fan_in` (and at least 2) indices into the ranked
/// list. Empty when `n` already fits the fan-in.
///
/// When a single reduction pass can finish the cascade, the pass merges
/// only the `excess + merges` best-ranked runs — the minimal rewrite
/// that lands exactly on `fan_in` survivors — in near-equal groups.
/// Otherwise every run participates in maximal `fan_in`-sized groups
/// (a leftover singleton passes through unmerged).
fn plan_pass_groups(n: usize, fan_in: usize) -> Vec<Range<usize>> {
    debug_assert!(fan_in >= 2);
    if n <= fan_in {
        return Vec::new();
    }
    let excess = n - fan_in;
    let merges = excess.div_ceil(fan_in - 1);
    let inputs = excess + merges;
    let mut groups = Vec::with_capacity(merges);
    if inputs <= n {
        // Final reduction pass: merge the `inputs` best-ranked runs in
        // `merges` near-equal groups; the rest survive untouched.
        let base = inputs / merges;
        let extra = inputs % merges;
        let mut start = 0;
        for g in 0..merges {
            let len = base + usize::from(g < extra);
            groups.push(start..start + len);
            start += len;
        }
    } else {
        // More than one pass to go: a full pass of maximal groups.
        let mut start = 0;
        while n - start >= 2 {
            let len = (n - start).min(fan_in);
            groups.push(start..start + len);
            start += len;
        }
    }
    groups
}

/// Runs the cascade until at most `fan_in` runs remain (`fan_in` must be
/// at least 2); returns the final run set and the pass counters.
///
/// Each pass ranks the runs by the merge's kind. With a cutoff, the one
/// passed in or one a previous pass refined, the runs with the fewest
/// rows at or before it merge first, read from their block indexes. With
/// a `limit` and no cutoff, the runs with the best first keys merge first
/// (§4.1); without either, the smallest.
///
/// `limit`/`cutoff` truncate intermediate outputs — always safe for a
/// top-k (module docs), never used for a full sort. Per §4.1, "each merge
/// step can also reduce the cutoff key": whenever an intermediate merge
/// produces a full `limit`-row run, its last key proves `limit` rows at
/// or before it, so later merge steps truncate at that (tighter) key.
/// The run ordering fed to each pass (and returned at the end) is the
/// untouched ranked tail followed by each group's survivors in group
/// order, so every downstream tie-break is a function of the input alone.
pub fn plan_merges<K: SortKey>(
    catalog: &RunCatalog<K>,
    fan_in: usize,
    limit: Option<u64>,
    cutoff: Option<&K>,
    tuning: &MergeTuning,
) -> Result<(Vec<RunMeta<K>>, CascadeStats)> {
    if fan_in < 2 {
        return Err(Error::InvalidConfig("merge fan-in must be at least 2".into()));
    }
    let order = catalog.order();
    let mut cutoff: Option<K> = cutoff.cloned();
    let mut stats = CascadeStats::default();
    let mut runs = catalog.runs();
    loop {
        // Prune cutoff-dead runs before planning, so they neither join
        // a merge group nor occupy a final fan-in slot.
        runs = prune_dead(catalog, runs, cutoff.as_ref(), &mut stats)?;
        if runs.len() <= fan_in {
            return Ok((runs, stats));
        }
        rank_candidates(&mut runs, limit, cutoff.as_ref(), order);
        let groups = plan_pass_groups(runs.len(), fan_in);
        stats.merge_passes += 1;
        let covered = groups.last().map_or(0, |g| g.end);
        let mut next = runs[covered..].to_vec();
        for group in groups {
            // An earlier group of this pass may have tightened the cutoff;
            // a group left with fewer than two live runs has nothing to
            // merge.
            let live = prune_dead(catalog, runs[group].to_vec(), cutoff.as_ref(), &mut stats)?;
            if live.len() < 2 {
                next.extend(live);
                continue;
            }
            let merged = merge_runs_to_new(catalog, &live, limit, cutoff.as_ref(), tuning)?;
            stats.intermediate_merges += 1;
            if let (Some(lim), Some(last)) = (limit, &merged.last_key) {
                // §4.1: `limit` rows end at `last`, so no later row can
                // beat it.
                if merged.rows >= lim && cutoff.as_ref().is_none_or(|c| order.precedes(last, c)) {
                    cutoff = Some(last.clone());
                }
            }
            if !merged.is_empty() {
                next.push(merged);
            }
        }
        runs = next;
    }
}

/// Keeps the runs with a row at or before `cutoff`. A run is dead iff
/// its first (best) key already sorts strictly after the cutoff — ties
/// survive, exactly like cutoff clipping inside a merge. Each dead run is
/// deleted without being opened, its blocks booked as skipped I/O (the
/// reads a merge would have issued but never will).
fn prune_dead<K: SortKey>(
    catalog: &RunCatalog<K>,
    runs: Vec<RunMeta<K>>,
    cutoff: Option<&K>,
    stats: &mut CascadeStats,
) -> Result<Vec<RunMeta<K>>> {
    let Some(cut) = cutoff else { return Ok(runs) };
    let order = catalog.order();
    let mut live = Vec::with_capacity(runs.len());
    for meta in runs {
        if meta.first_key.as_ref().is_some_and(|f| order.follows(f, cut)) {
            for block in &meta.blocks {
                catalog.stats().record_block_skip(block.payload_bytes as u64);
            }
            catalog.remove(&meta.name)?;
            stats.runs_pruned += 1;
        } else {
            live.push(meta);
        }
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_groups(n: usize, fan_in: usize) {
        let groups = plan_pass_groups(n, fan_in);
        if n <= fan_in {
            assert!(groups.is_empty());
            return;
        }
        let mut covered = 0;
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.start, covered, "groups must tile from the front");
            assert!(g.len() >= 2, "group {i} of {n}/{fan_in} too small: {g:?}");
            assert!(g.len() <= fan_in, "group {i} of {n}/{fan_in} too big: {g:?}");
            covered = g.end;
        }
        assert!(covered <= n);
        // The pass must strictly reduce the run count.
        let consumed: usize = groups.iter().map(|g| g.len()).sum();
        let after = n - consumed + groups.len();
        assert!(after < n, "pass over {n}/{fan_in} makes no progress");
    }

    #[test]
    fn pass_groups_are_well_formed_across_shapes() {
        for n in 2..200 {
            for fan_in in 2..20 {
                check_groups(n, fan_in);
            }
        }
        check_groups(512, 64);
        check_groups(1024, 32);
        check_groups(10_000, 64);
    }

    #[test]
    fn final_reduction_pass_lands_exactly_on_fan_in() {
        // 10 runs, fan-in 4: merging the 8 best in 2 groups of 4 leaves
        // exactly 4 survivors.
        let groups = plan_pass_groups(10, 4);
        assert_eq!(groups, vec![0..4, 4..8]);
        // 512 runs, fan-in 64: one pass of 8 near-equal merges.
        let groups = plan_pass_groups(512, 64);
        assert_eq!(groups.len(), 8);
        let consumed: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(512 - consumed + groups.len(), 64);
    }

    #[test]
    fn oversized_catalog_gets_full_passes() {
        // 6 runs at fan-in 2 can't finish in one pass: 3 maximal pairs.
        assert_eq!(plan_pass_groups(6, 2), vec![0..2, 2..4, 4..6]);
        // Odd count leaves the last run passing through unmerged.
        assert_eq!(plan_pass_groups(5, 2), vec![0..2, 2..4]);
    }

    #[test]
    fn cascade_stats_merge_sums_fields() {
        let a = CascadeStats { merge_passes: 1, intermediate_merges: 3, runs_pruned: 2 };
        let b = CascadeStats { merge_passes: 2, intermediate_merges: 5, runs_pruned: 0 };
        let m = a.merged(&b);
        assert_eq!(m.merge_passes, 3);
        assert_eq!(m.intermediate_merges, 8);
        assert_eq!(m.runs_pruned, 2);
    }
}
