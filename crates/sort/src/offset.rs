//! Offset fast-skipping (§4.1).
//!
//! "Histograms can also speed up run generation and merging in the
//! presence of an offset clause ... The combined histogram from all runs
//! can determine the highest key value with a rank lower than the offset;
//! this is the key value where the merge logic should start."
//!
//! Our runs are not b-trees, but every [`RunMeta`] carries a per-block
//! index (row count + last key per block), which supports the same idea at
//! block granularity:
//!
//! 1. pick the largest threshold key `T` such that the rows *provably* at
//!    or before `T` across all merge inputs number at most `offset`
//!    (counting, per run, every block whose last key sorts at or before
//!    `T` — all of those rows are `≤ T`);
//! 2. per run, skip those whole blocks without decoding them, then pop
//!    individual rows `≤ T` from the straddling block;
//! 3. let the merge skip the remaining `offset − skipped` rows normally.
//!
//! Every skipped row has rank ≤ (total rows ≤ T) ≤ offset, so correctness
//! is unconditional; the win is that whole blocks are skipped without
//! being read, decoded or CRC-checked.

use histok_storage::RunMeta;
use histok_types::{Result, Row, SortKey, SortOrder};

use crate::merge::{MergeSource, Planned};

/// Outcome of the fast-skip planning: merge sources positioned after the
/// skipped prefix, and how many rows were skipped.
pub(crate) struct SkippedSources<K: SortKey> {
    /// The positioned merge inputs.
    pub(crate) sources: Vec<MergeSource<K>>,
    /// Rows already skipped (to be deducted from the offset).
    pub(crate) skipped: u64,
}

/// Chooses the threshold key `T` (see module docs): the largest block
/// boundary such that an **upper bound** on the rows sorting at or before
/// `T` across all inputs stays within `offset`. The upper bound charges,
/// per run, every block whose last key is ≤ `T` in full **plus** the whole
/// straddling block (its rows may or may not be ≤ `T` — they must be
/// assumed to be), and counts residue rows exactly. The bound is monotone
/// in `T`, so a single sweep over the sorted boundaries finds the best
/// threshold.
fn choose_threshold<'a, K: SortKey>(
    runs: &[&'a RunMeta<K>],
    residues: impl Iterator<Item = &'a Vec<Row<K>>>,
    offset: u64,
    order: SortOrder,
) -> Option<K> {
    // Per-run block cursor: blocks already fully below T, and the current
    // straddle block.
    struct RunState {
        rows: Vec<u64>,
        next: usize, // index of the current straddle block
        full: u64,
    }
    let mut states: Vec<RunState> = runs
        .iter()
        .map(|run| RunState {
            rows: run.blocks.iter().map(|b| u64::from(b.rows)).collect(),
            next: 0,
            full: 0,
        })
        .collect();

    // Candidates: every block boundary, tagged with its run and position.
    let mut candidates: Vec<(&K, usize)> = Vec::new();
    for (r, run) in runs.iter().enumerate() {
        for block in &run.blocks {
            candidates.push((&block.last_key, r));
        }
    }
    candidates.sort_by(|a, b| order.cmp_keys(a.0, b.0));

    // Residue rows, merged and sorted, consumed by a pointer as T grows.
    let mut residue_keys: Vec<&K> = residues.flatten().map(|row| &row.key).collect();
    residue_keys.sort_by(|a, b| order.cmp_keys(a, b));
    let mut residue_seen = 0usize;

    // upper(T) = Σ_r (full_r + straddle_r) + residue_rows ≤ T.
    let straddle = |st: &RunState| st.rows.get(st.next).copied().unwrap_or(0);
    let mut upper_blocks: u64 = states.iter().map(&straddle).sum();

    let mut best: Option<K> = None;
    let mut i = 0;
    while i < candidates.len() {
        let key = candidates[i].0;
        // Advance every candidate (across runs) whose boundary equals `key`
        // before evaluating, so ties are handled atomically.
        while i < candidates.len()
            && order.cmp_keys(candidates[i].0, key) == std::cmp::Ordering::Equal
        {
            let st = &mut states[candidates[i].1];
            let promoted = straddle(st);
            st.full += promoted;
            st.next += 1;
            // Promoted block stays counted (now in `full`); the new
            // straddle block joins the bound.
            upper_blocks += straddle(st);
            i += 1;
        }
        while residue_seen < residue_keys.len() && !order.follows(residue_keys[residue_seen], key) {
            residue_seen += 1;
        }
        let upper = upper_blocks + residue_seen as u64;
        if upper <= offset {
            best = Some(key.clone());
        } else {
            break; // the bound is monotone: later candidates only grow it
        }
    }
    best
}

/// Builds the merge sources of every planned input, in order (its runs,
/// then its residue), skipping as much of the first `offset` rows of the
/// merged order as the block indexes allow. Each positioned reader is
/// prefetched on its catalog's I/O pool when it has one, and read inline
/// otherwise.
pub(crate) fn fast_skip_sources<K: SortKey>(
    planned: Vec<Planned<K>>,
    order: SortOrder,
    offset: u64,
) -> Result<SkippedSources<K>> {
    let mut sources = Vec::new();
    let runs: Vec<&RunMeta<K>> = planned.iter().flat_map(|p| &p.runs).collect();
    let residues = planned.iter().flat_map(|p| &p.residue);
    let Some(threshold) = choose_threshold(&runs, residues, offset, order) else {
        // Nothing skippable: open everything plainly.
        for p in planned {
            p.open_into(&mut sources)?;
        }
        return Ok(SkippedSources { sources, skipped: 0 });
    };

    let mut skipped = 0u64;
    for p in planned {
        let scheduler = p.catalog.io_scheduler();
        for meta in &p.runs {
            // Whole leading blocks at or before the threshold.
            let mut whole_rows = 0u64;
            for block in &meta.blocks {
                if order.cmp_keys(&block.last_key, &threshold) == std::cmp::Ordering::Greater {
                    break;
                }
                whole_rows += u64::from(block.rows);
            }
            let mut reader = p.catalog.open(meta)?;
            if whole_rows > 0 {
                reader.skip_rows(whole_rows)?;
                skipped += whole_rows;
            }
            // Pop individual rows ≤ T from the straddling block.
            let mut head: Vec<Row<K>> = Vec::new();
            for row in reader.by_ref() {
                let row = row?;
                if order.follows(&row.key, &threshold) {
                    head.push(row); // first survivor: put it back in front
                    break;
                }
                skipped += 1;
            }
            // Prefetch starts here, after positioning — the skipped prefix
            // is never read ahead.
            let tail = Box::new(MergeSource::from_reader(reader, scheduler.clone()));
            sources.push(MergeSource::Chained { head: head.into_iter(), tail });
        }
        for mut seq in p.residue {
            // Residues are sorted in output order: drop the prefix ≤ T.
            let cut = seq.partition_point(|row| !order.follows(&row.key, &threshold));
            skipped += cut as u64;
            seq.drain(..cut);
            sources.push(MergeSource::Memory(seq.into_iter()));
        }
    }
    debug_assert!(skipped <= offset, "fast skip overshot: {skipped} > {offset}");
    Ok(SkippedSources { sources, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{merge_sources, MergeTuning};
    use histok_storage::{IoStats, MemoryBackend, RunCatalog};
    use std::sync::Arc;

    /// Positions sources over every run of `cat` plus `residues`.
    fn skip(
        cat: &Arc<RunCatalog<u64>>,
        residues: Vec<Vec<Row<u64>>>,
        offset: u64,
    ) -> SkippedSources<u64> {
        let planned = vec![Planned { catalog: cat.clone(), runs: cat.runs(), residue: residues }];
        fast_skip_sources(planned, cat.order(), offset).unwrap()
    }

    fn merge(
        sources: Vec<MergeSource<u64>>,
        order: SortOrder,
    ) -> impl Iterator<Item = Result<Row<u64>>> {
        merge_sources(sources, order, &MergeTuning::default()).unwrap()
    }

    /// Catalog with `runs` of interleaved keys and tiny blocks.
    fn build_runs(n_runs: u64, rows_per_run: u64) -> Arc<RunCatalog<u64>> {
        let cat = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "skip",
                SortOrder::Ascending,
                IoStats::new(),
            )
            .with_block_bytes(64), // a handful of rows per block
        );
        for r in 0..n_runs {
            let mut w = cat.start_run().unwrap();
            for j in 0..rows_per_run {
                w.append(&Row::key_only(j * n_runs + r)).unwrap();
            }
            cat.register(w.finish().unwrap()).unwrap();
        }
        cat
    }

    fn merged_after_skip(cat: &Arc<RunCatalog<u64>>, offset: u64) -> Vec<u64> {
        let skipped = skip(cat, Vec::new(), offset);
        let tree = merge(skipped.sources, SortOrder::Ascending);
        let mut remaining = offset - skipped.skipped;
        let mut out = Vec::new();
        for row in tree {
            let row = row.unwrap();
            if remaining > 0 {
                remaining -= 1;
                continue;
            }
            out.push(row.key);
        }
        out
    }

    #[test]
    fn skipping_preserves_exact_semantics() {
        let cat = build_runs(4, 250); // keys 0..1000 interleaved
        for offset in [0u64, 1, 7, 99, 100, 500, 999] {
            let got = merged_after_skip(&cat, offset);
            let expected: Vec<u64> = (offset..1000).collect();
            assert_eq!(got, expected, "offset {offset}");
        }
    }

    #[test]
    fn whole_blocks_are_not_read() {
        let cat = build_runs(4, 2_000);
        let before = cat.stats().snapshot();
        let skipped = skip(&cat, Vec::new(), 4_000);
        assert!(skipped.skipped > 3_000, "only skipped {}", skipped.skipped);
        let read = cat.stats().snapshot().since(&before);
        // Reading all 4,000 skipped rows would cost ≥ 4,000 row-reads; the
        // block index must have avoided most of that.
        assert!(
            read.rows_read < 1_000,
            "fast skip decoded {} rows for a 4,000-row offset",
            read.rows_read
        );
        drop(skipped);
    }

    #[test]
    fn zero_offset_is_a_plain_open() {
        let cat = build_runs(2, 50);
        let s = skip(&cat, Vec::new(), 0);
        assert_eq!(s.skipped, 0);
        let keys: Vec<u64> =
            merge(s.sources, SortOrder::Ascending).map(|r| r.unwrap().key).collect();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn offset_beyond_all_rows() {
        let cat = build_runs(2, 50);
        let s = skip(&cat, Vec::new(), 1_000_000);
        assert!(s.skipped <= 100);
        let rest = merge(s.sources, SortOrder::Ascending).count() as u64;
        assert_eq!(s.skipped + rest, 100);
    }

    #[test]
    fn residues_participate_in_the_threshold() {
        // The residue holds the SMALLEST keys; ignoring it would let the
        // planner skip run rows that rank beyond the offset.
        let cat = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "resid",
                SortOrder::Ascending,
                IoStats::new(),
            )
            .with_block_bytes(64),
        );
        let mut w = cat.start_run().unwrap();
        for j in 100..300u64 {
            w.append(&Row::key_only(j)).unwrap();
        }
        cat.register(w.finish().unwrap()).unwrap();
        let residue: Vec<Row<u64>> = (0..100).map(Row::key_only).collect();

        let offset = 50u64;
        let s = skip(&cat, vec![residue], offset);
        let tree = merge(s.sources, SortOrder::Ascending);
        let mut remaining = offset - s.skipped;
        let mut out = Vec::new();
        for row in tree {
            let row = row.unwrap();
            if remaining > 0 {
                remaining -= 1;
                continue;
            }
            out.push(row.key);
        }
        assert_eq!(out, (50..300).collect::<Vec<_>>());
    }

    #[test]
    fn descending_runs_skip_correctly() {
        let cat = Arc::new(
            RunCatalog::new(
                Arc::new(MemoryBackend::new()),
                "d",
                SortOrder::Descending,
                IoStats::new(),
            )
            .with_block_bytes(64),
        );
        for r in 0..3u64 {
            let mut w = cat.start_run().unwrap();
            for j in (0..300u64).rev() {
                w.append(&Row::key_only(j * 3 + r)).unwrap();
            }
            cat.register(w.finish().unwrap()).unwrap();
        }
        let s = skip(&cat, Vec::new(), 123);
        let tree = merge(s.sources, SortOrder::Descending);
        let mut remaining = 123 - s.skipped;
        let mut out = Vec::new();
        for row in tree {
            let row = row.unwrap();
            if remaining > 0 {
                remaining -= 1;
                continue;
            }
            out.push(row.key);
        }
        let expected: Vec<u64> = (0..900u64).rev().skip(123).collect();
        assert_eq!(out, expected);
    }
}
