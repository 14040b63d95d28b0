//! Tournament (loser-tree) k-way merge, batched, in two kernels.
//!
//! The standard structure for merging many sorted runs: each output row
//! costs one leaf-to-root path of ⌈log₂ n⌉ matches, independent of how
//! many sources are exhausted. Sources are [`RowSource`]s — rows arrive in
//! block-granular [`RowBatch`]es with a pre-computed normalized-prefix
//! column. Each source's head is a cursor into its current batch, so a
//! merged row moves once, from that batch into the caller's, and
//! [`LoserTree::merge_into`] drains a batch at a time so error checks are
//! amortized per batch instead of per row.
//!
//! **Exact-prefix keys** ([`SortKey::norm_prefix_is_exact`]: the integers,
//! `F64Key`) need no key bytes at all: the output-order prefix is the whole
//! key. Each source's head is one `u128` code, `(prefix << 64) | source
//! index`, or `u128::MAX` once the source is exhausted, and the tree's
//! nodes hold codes, not sources. Ties between equal keys fall to the lower
//! index inside the same compare, and no real code reaches the sentinel,
//! since an index is below `u64::MAX`. A replay is then one compare and two
//! `select_unpredictable`s per level, the branch-free form of replacement
//! selection's `climb` (DESIGN.md §8).
//!
//! **Wide keys** keep offset-value coding: each head carries an [`Ovc`]
//! relative to the key it last lost a match to. The invariant that makes
//! single-integer matches sound: along the winner's leaf-to-root path,
//! every parked loser's code is relative to the departing winner — exactly
//! the base the refilled head's fresh code is taken against. When two
//! codes differ, the smaller sorts earlier and the loser's existing code is
//! already correct relative to the new winner (the classic OVC theorem);
//! only equal codes fall back further. When two 8-byte prefixes differ,
//! the first differing byte is the keys' first normalized difference
//! (normalized encodings are prefix-free), so `offset` is the xor's
//! leading-zero byte count and `value` is the loser's byte there, exactly
//! the code a byte-level [`ovc_resolve`] would build. Only keys whose
//! prefixes tie compare full normalized suffixes, encoded lazily. Codes
//! are derived within one tree only: a refilled head's code is always
//! taken against the row that just left the same source, whichever batch
//! either row arrived in.
//!
//! Either way, a match decided on codes or prefixes alone counts into
//! `ovc_cmps` and a byte-level resolution into `full_cmps`; a match is
//! counted only when both heads are live.

use std::hint::select_unpredictable;

use histok_types::{
    norm_cmp, ovc_resolve, Aggregator, Ovc, Result, Row, RowBatch, SortKey, SortOrder,
};

use crate::cmp_stats::CmpStats;
use crate::fold::FoldSpec;
use crate::source::{RowSource, DEFAULT_BATCH_ROWS};

/// The code of an exhausted source: loses to every live head.
const SPENT: u128 = u128::MAX;

/// Builds the loser's code against the winner from two differing
/// output-order prefixes. Sound because normalized encodings are
/// prefix-free: the first differing padded byte is a real byte of both
/// keys, and the complement applied for descending order cancels in the
/// xor while its padding (0xFF) matches the descending sentinel.
#[inline]
fn prefix_ovc(winner: u64, loser: u64) -> Ovc {
    debug_assert!(winner < loser);
    let at = ((winner ^ loser).leading_zeros() >> 3) as usize;
    Ovc::pack(at, (loser >> (56 - 8 * at)) as u8)
}

/// A source's current batch, consumed front to back: the first row left
/// is the source's head.
struct Cursor<K> {
    rows: std::vec::IntoIter<Row<K>>,
    prefixes: std::vec::IntoIter<u64>,
}

impl<K> Cursor<K> {
    fn new(batch: RowBatch<K>) -> Self {
        Cursor { rows: batch.rows.into_iter(), prefixes: batch.prefixes.into_iter() }
    }

    #[inline]
    fn head(&self) -> Option<&Row<K>> {
        self.rows.as_slice().first()
    }

    /// The head's raw (ascending-order) prefix.
    #[inline]
    fn prefix(&self) -> Option<u64> {
        self.prefixes.as_slice().first().copied()
    }

    #[inline]
    fn take(&mut self) -> Option<(Row<K>, u64)> {
        Some((self.rows.next()?, self.prefixes.next()?))
    }
}

/// A k-way merging iterator over sorted sources.
///
/// Ties between sources break toward the lower source index, making the
/// merge stable with respect to source order.
///
/// ```
/// use histok_sort::{IterSource, LoserTree};
/// use histok_types::{Result, Row, SortOrder};
///
/// let runs: Vec<Vec<u64>> = vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]];
/// let sources: Vec<_> = runs
///     .into_iter()
///     .map(|r| r.into_iter().map(|k| Ok(Row::key_only(k))).collect::<Vec<Result<_>>>())
///     .map(|rows| IterSource::new(rows.into_iter()))
///     .collect();
/// let merged: Vec<u64> = LoserTree::new(sources, SortOrder::Ascending)?
///     .map(|r| r.map(|row| row.key))
///     .collect::<Result<_>>()?;
/// assert_eq!(merged, (1..=9).collect::<Vec<_>>());
/// # Ok::<(), histok_types::Error>(())
/// ```
pub struct LoserTree<K: SortKey, S: RowSource<K>> {
    sources: Vec<S>,
    /// Each source's current batch; empty once the source is exhausted.
    cursors: Vec<Cursor<K>>,
    /// Code kernel: `codes[t]` = code of the loser parked at internal node
    /// `t` (nodes `1..n`); `codes[0]` = the winner's.
    codes: Vec<u128>,
    /// OVC kernel: `tree[t]` = loser (source index) parked at internal node
    /// `t`; nodes `1..n`, node 0 unused.
    tree: Vec<usize>,
    /// OVC kernel: the winning source.
    winner: usize,
    /// XOR mask mapping raw (ascending) prefixes into output order:
    /// 0 ascending, `!0` descending.
    out_mask: u64,
    /// Full normalized bytes of each head — maintained lazily, only for
    /// key types whose prefix is not exact (see `norm_valid`).
    norms: Vec<Vec<u8>>,
    /// Whether `norms[i]` currently encodes source `i`'s head.
    norm_valid: Vec<bool>,
    /// Each head's code relative to the key it last lost to.
    ovcs: Vec<Ovc>,
    /// Scratch for encoding a refilled head before swapping into `norms`.
    scratch: Vec<u8>,
    order: SortOrder,
    /// Batch-size hint passed to the sources on refill.
    batch_target: usize,
    /// Matches decided by comparing two codes or two prefixes (one integer
    /// compare each).
    ovc_cmps: u64,
    /// Byte-level key resolutions (wide-key prefix ties).
    full_cmps: u64,
    /// Batches emitted through [`LoserTree::merge_into`].
    batches_out: u64,
    /// Shared sink the local counters flush into on drop.
    stats: Option<CmpStats>,
    /// Fold mode: equal-key rows are combined at emission instead of both
    /// being produced (see [`LoserTree::set_fold`]).
    fold: Option<FoldSpec>,
    /// Duplicate rows absorbed by folding; flushed to the spec's
    /// [`crate::FoldStats`] on drop.
    rows_folded: u64,
    /// First error from any source; returned once, then the tree is done.
    pending_error: Option<histok_types::Error>,
    done: bool,
}

impl<K: SortKey, S: RowSource<K>> LoserTree<K, S> {
    /// Builds a merge over `sources`, each already sorted in `order`, with
    /// no stats sink.
    pub fn new(sources: Vec<S>, order: SortOrder) -> Result<Self> {
        Self::with_stats(sources, order, None)
    }

    /// Builds a merge with an optional shared comparison-counter sink
    /// (flushed on drop).
    pub fn with_stats(sources: Vec<S>, order: SortOrder, stats: Option<CmpStats>) -> Result<Self> {
        let n = sources.len();
        let exact = K::norm_prefix_is_exact();
        let mut lt = LoserTree {
            sources,
            cursors: (0..n).map(|_| Cursor::new(RowBatch::new())).collect(),
            codes: if exact { vec![SPENT; n.max(1)] } else { Vec::new() },
            tree: if exact { Vec::new() } else { vec![usize::MAX; n.max(1)] },
            winner: 0,
            out_mask: match order {
                SortOrder::Ascending => 0,
                SortOrder::Descending => !0u64,
            },
            norms: vec![Vec::new(); n],
            norm_valid: vec![false; n],
            ovcs: vec![Ovc::EQUAL; n],
            scratch: Vec::new(),
            order,
            batch_target: DEFAULT_BATCH_ROWS,
            ovc_cmps: 0,
            full_cmps: 0,
            batches_out: 0,
            stats,
            fold: None,
            rows_folded: 0,
            pending_error: None,
            done: n == 0,
        };
        for i in 0..n {
            lt.refill(i);
        }
        if n > 0 {
            lt.rebuild();
        }
        Ok(lt)
    }

    /// Overrides the batch-size hint passed to sources on refill
    /// (default [`DEFAULT_BATCH_ROWS`]; clamped to at least 1).
    pub fn set_batch_target(&mut self, rows: usize) {
        self.batch_target = rows.max(1);
    }

    /// Comparison counts so far as `(ovc_cmps, full_cmps)`.
    pub fn cmp_counts(&self) -> (u64, u64) {
        (self.ovc_cmps, self.full_cmps)
    }

    /// Enables (or disables) duplicate folding: successive equal-key rows
    /// are combined into one output row, their payloads merged by the
    /// spec's aggregator. Exact-prefix keys recognise an equal winner on
    /// its code, so folding adds no comparisons for them.
    pub fn set_fold(&mut self, fold: Option<FoldSpec>) {
        self.fold = fold;
    }

    /// Duplicate rows absorbed by folding so far.
    pub fn rows_folded(&self) -> u64 {
        self.rows_folded
    }

    /// Pulls batches into source `i`'s cursor until it shows a row and
    /// returns that head's raw prefix, or `None` once the source is
    /// exhausted. A source error is latched into `pending_error` (first one
    /// wins) and reads as exhaustion — the tree surfaces it between rows.
    #[cold]
    fn refill(&mut self, i: usize) -> Option<u64> {
        loop {
            if let Some(prefix) = self.cursors[i].prefix() {
                return Some(prefix);
            }
            match self.sources[i].next_batch(self.batch_target) {
                Ok(Some(batch)) => self.cursors[i] = Cursor::new(batch),
                Ok(None) => return None,
                Err(e) => {
                    self.pending_error.get_or_insert(e);
                    return None;
                }
            }
        }
    }

    /// Source `i`'s code for a head with output-order prefix `out`.
    #[inline]
    fn code(out: u64, i: usize) -> u128 {
        u128::from(out) << 64 | i as u128
    }

    /// The source whose head is emitted next (out of range once every
    /// source is exhausted in the code kernel).
    #[inline]
    fn winner(&self) -> usize {
        if K::norm_prefix_is_exact() {
            self.codes[0] as usize
        } else {
            self.winner
        }
    }

    /// The output-order prefix of source `i`'s head.
    fn out_prefix(&self, i: usize) -> u64 {
        self.cursors[i].prefix().unwrap_or(0) ^ self.out_mask
    }

    /// Re-encodes `norms[i]` from the current head if it is stale.
    fn ensure_norm(&mut self, i: usize) {
        if !self.norm_valid[i] {
            self.norms[i].clear();
            if let Some(row) = self.cursors[i].head() {
                row.key.norm_encode(&mut self.norms[i]);
            }
            self.norm_valid[i] = true;
        }
    }

    /// OVC kernel: decides a match between sources `a` and `b`, returning
    /// the winner (the source whose head is emitted first) and reseating
    /// the loser's code relative to the winner when codes alone could not
    /// decide.
    ///
    /// `fresh` requests an unconditional resolution — used while
    /// (re)building the tournament, when the two heads' codes are not yet
    /// relative to a common base.
    fn duel(&mut self, a: usize, b: usize, fresh: bool) -> usize {
        match (self.cursors[a].head(), self.cursors[b].head()) {
            (Some(_), Some(_)) => {
                if !fresh {
                    let (ca, cb) = (self.ovcs[a], self.ovcs[b]);
                    if ca != cb {
                        // Codes against a common base differ: the smaller
                        // sorts earlier, and the loser's code is already
                        // correct relative to the new winner.
                        self.ovc_cmps += 1;
                        return if ca < cb { a } else { b };
                    }
                    if ca == Ovc::EQUAL {
                        // Both heads equal the common base, hence each
                        // other: stable tie-break, codes stay EQUAL.
                        self.ovc_cmps += 1;
                        return a.min(b);
                    }
                    // Tied non-trivial codes: the heads agree through the
                    // coded offset; resolve on the prefixes / suffixes.
                    let from = ca.offset().map_or(0, |o| o + 1);
                    return self.duel_resolve(a, b, from);
                }
                self.duel_resolve(a, b, 0)
            }
            (Some(_), None) => a,
            (None, Some(_)) => b,
            (None, None) => a.min(b),
        }
    }

    /// Resolves a match the codes could not decide: on the prefix column
    /// when the prefixes differ (one integer compare, and the loser's
    /// code falls out of the xor), otherwise on the full normalized keys
    /// from byte `from`.
    fn duel_resolve(&mut self, a: usize, b: usize, from: usize) -> usize {
        let (oa, ob) = (self.out_prefix(a), self.out_prefix(b));
        if oa != ob {
            self.ovc_cmps += 1;
            return if oa < ob {
                self.ovcs[b] = prefix_ovc(oa, ob);
                a
            } else {
                self.ovcs[a] = prefix_ovc(ob, oa);
                b
            };
        }
        // Wide keys agreeing through the prefix: compare the normalized
        // suffixes. Equal prefixes guarantee agreement through byte
        // min(8, len) (prefix-free encodings), so the scan starts there.
        self.ensure_norm(a);
        self.ensure_norm(b);
        let from = from.max(8);
        if from >= self.norms[a].len() && from >= self.norms[b].len() {
            // Both normalized strings end at or before the scan start, so
            // the resolve touches zero key bytes (prefix-freeness makes
            // the keys equal): this match was decided on the prefix/OVC
            // column alone and books as an OVC comparison.
            self.ovc_cmps += 1;
        } else {
            self.full_cmps += 1;
        }
        let res = ovc_resolve(&self.norms[a], &self.norms[b], from, self.order);
        match res.ordering {
            std::cmp::Ordering::Less => {
                self.ovcs[b] = res.loser_ovc;
                a
            }
            std::cmp::Ordering::Greater => {
                self.ovcs[a] = res.loser_ovc;
                b
            }
            std::cmp::Ordering::Equal => {
                let (w, l) = if a < b { (a, b) } else { (b, a) };
                self.ovcs[l] = Ovc::EQUAL;
                w
            }
        }
    }

    /// Full bottom-up tournament; O(n). In the OVC kernel every match
    /// resolves fully, so each parked loser's code ends up relative to the
    /// winner it lost to.
    fn rebuild(&mut self) {
        let n = self.sources.len();
        if K::norm_prefix_is_exact() {
            // at[t]: the winning code at node t; leaves are n..2n.
            let mut at = vec![SPENT; 2 * n];
            for i in 0..n {
                at[n + i] =
                    self.cursors[i].prefix().map_or(SPENT, |p| Self::code(p ^ self.out_mask, i));
            }
            for t in (1..n).rev() {
                let (a, b) = (at[2 * t], at[2 * t + 1]);
                self.ovc_cmps += u64::from(a != SPENT && b != SPENT);
                at[t] = a.min(b);
                self.codes[t] = a.max(b);
            }
            self.codes[0] = at[1];
            return;
        }
        // winner_at[t] for internal nodes 1..n; leaves are n..2n.
        let mut winner_at: Vec<usize> = (0..2 * n).map(|t| t.wrapping_sub(n)).collect();
        for t in (1..n).rev() {
            let a = winner_at[2 * t];
            let b = winner_at[2 * t + 1];
            let w = self.duel(a, b, true);
            winner_at[t] = w;
            self.tree[t] = if w == a { b } else { a };
        }
        self.winner = winner_at[1];
    }

    /// Code kernel: replays source `i`'s new `code` from its leaf to the
    /// root, one compare and two selects per level; the smaller code climbs
    /// on, the larger stays parked. No branch depends on a key.
    #[inline]
    fn replay(&mut self, i: usize, mut code: u128) {
        let mut t = (i + self.codes.len()) >> 1;
        let mut live = 0;
        while t > 0 {
            let parked = self.codes[t];
            live += u64::from((parked != SPENT) & (code != SPENT));
            let climbs = parked < code;
            self.codes[t] = select_unpredictable(climbs, code, parked);
            code = select_unpredictable(climbs, parked, code);
            t >>= 1;
        }
        self.codes[0] = code;
        self.ovc_cmps += live;
    }

    /// OVC kernel: replays the tournament along the winner's path after
    /// its head changed; O(log n). Parked losers along this path last lost
    /// to the departed winner — the same base the climber's code was
    /// derived against — so code-only matches are sound.
    fn adjust(&mut self) {
        let n = self.sources.len();
        let mut s = self.winner;
        let mut t = (s + n) / 2;
        while t > 0 {
            let w = self.duel(self.tree[t], s, false);
            if w == self.tree[t] {
                std::mem::swap(&mut s, &mut self.tree[t]);
            }
            t /= 2;
        }
        self.winner = s;
    }

    /// OVC kernel: derives the winner's refilled head's code against the
    /// row that just left it (output-order prefix `prev_out`), then
    /// replays. With prefix codes the derivation is a xor and a shift;
    /// only prefix ties re-encode and scan normalized bytes.
    fn derive_and_adjust(&mut self, departed: &Row<K>, prev_out: u64) {
        let i = self.winner;
        if let Some(raw) = self.cursors[i].prefix() {
            let out = raw ^ self.out_mask;
            if out != prev_out {
                debug_assert!(prev_out < out, "source not sorted in the requested order");
                self.ovc_cmps += 1;
                self.ovcs[i] = prefix_ovc(prev_out, out);
                self.norm_valid[i] = false;
            } else {
                // Prefix tie on a wide key: resolve on the full normalized
                // bytes. The departed row's norm may never have been
                // encoded (it is kept lazily); rebuild the base from the
                // row itself.
                if !self.norm_valid[i] {
                    self.norms[i].clear();
                    departed.key.norm_encode(&mut self.norms[i]);
                }
                self.scratch.clear();
                if let Some(head) = self.cursors[i].head() {
                    head.key.norm_encode(&mut self.scratch);
                }
                debug_assert!(
                    norm_cmp(&self.norms[i], &self.scratch, self.order)
                        != std::cmp::Ordering::Greater,
                    "source not sorted in the requested order"
                );
                if self.norms[i].len() <= 8 && self.scratch.len() <= 8 {
                    // Equal keys recognized without scanning a byte (see
                    // `duel_resolve`).
                    self.ovc_cmps += 1;
                } else {
                    self.full_cmps += 1;
                }
                self.ovcs[i] = ovc_resolve(&self.norms[i], &self.scratch, 8, self.order).loser_ovc;
                std::mem::swap(&mut self.norms[i], &mut self.scratch);
                self.norm_valid[i] = true;
            }
        }
        self.adjust();
    }

    /// Takes the winning head out of its batch, with its raw prefix, and
    /// replays the tournament for its source's next row; `None` once every
    /// source is exhausted.
    #[inline]
    fn step(&mut self) -> Option<(Row<K>, u64)> {
        let i = self.winner();
        let (row, raw) = self.cursors.get_mut(i)?.take()?;
        let next = self.cursors[i].prefix().or_else(|| self.refill(i));
        if K::norm_prefix_is_exact() {
            let code = next.map_or(SPENT, |p| Self::code(p ^ self.out_mask, i));
            debug_assert!(Self::code(raw ^ self.out_mask, i) <= code, "source not sorted");
            self.replay(i, code);
        } else {
            self.derive_and_adjust(&row, raw ^ self.out_mask);
        }
        Some((row, raw))
    }

    /// Whether the next head's key equals `key` (output-order prefix
    /// `out`): on the code alone for exact-prefix keys.
    fn winner_is(&self, key: &K, out: u64) -> bool {
        if K::norm_prefix_is_exact() {
            let code = self.codes[0];
            return code != SPENT && (code >> 64) as u64 == out;
        }
        self.cursors[self.winner].head().is_some_and(|h| h.key == *key)
    }

    /// The next output row with its raw prefix. In fold mode it absorbs
    /// every following equal-key row into its payload, until the winning
    /// key changes or the sources drain, so a fold never straddles a batch
    /// boundary and every emitted key is distinct.
    #[inline]
    fn pop(&mut self, agg: Option<&dyn Aggregator>) -> Option<(Row<K>, u64)> {
        let (mut row, raw) = self.step()?;
        if let Some(agg) = agg {
            while self.pending_error.is_none() && self.winner_is(&row.key, raw ^ self.out_mask) {
                let Some((dup, _)) = self.step() else { break };
                if let Some(folded) = agg.fold(&row.payload, &dup.payload) {
                    row.payload = folded;
                }
                self.rows_folded += 1;
            }
        }
        Some((row, raw))
    }

    /// Peeks at the key that would be produced next.
    pub fn peek_key(&self) -> Option<&K> {
        if self.done {
            return None;
        }
        self.cursors.get(self.winner())?.head().map(|r| &r.key)
    }

    /// Drains up to `max_rows` rows into `out` (cleared first), carrying
    /// the prefix column along so downstream consumers (cutoff filters,
    /// run writers) never recompute it.
    ///
    /// Returns `Ok` with a shorter — possibly empty — batch at end of
    /// stream; an empty batch with `max_rows > 0` means the merge is
    /// done. A source error that strikes mid-batch latches: the rows
    /// already merged come back as a short `Ok` batch and the error
    /// surfaces on the next call (exactly the iterator protocol, lifted
    /// to batches). After an error the tree is fused.
    pub fn merge_into(&mut self, out: &mut RowBatch<K>, max_rows: usize) -> Result<()> {
        out.clear();
        if self.done {
            return Ok(());
        }
        if let Some(e) = self.pending_error.take() {
            self.done = true;
            return Err(e);
        }
        let agg = self.fold.as_ref().map(|f| f.agg.clone());
        while out.len() < max_rows {
            let Some((row, raw)) = self.pop(agg.as_deref()) else {
                self.done = true;
                break;
            };
            out.push_with_prefix(row, raw);
            if self.pending_error.is_some() {
                break;
            }
        }
        if !out.is_empty() {
            self.batches_out += 1;
        }
        Ok(())
    }
}

impl<K: SortKey, S: RowSource<K>> Drop for LoserTree<K, S> {
    fn drop(&mut self) {
        if let Some(stats) = &self.stats {
            stats.record(self.ovc_cmps, self.full_cmps);
            stats.record_batches(self.batches_out);
        }
        if let Some(spec) = &self.fold {
            spec.flush_merge(self.rows_folded);
        }
    }
}

impl<K: SortKey, S: RowSource<K>> Iterator for LoserTree<K, S> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        // Deferred-error protocol: an error parked by construction or by a
        // previous call's refill surfaces here, before any further rows,
        // and fuses the tree. An error hit while taking this row is parked
        // the same way: the row in hand is valid and must not be lost.
        if let Some(e) = self.pending_error.take() {
            self.done = true;
            return Some(Err(e));
        }
        let agg = self.fold.as_ref().map(|f| f.agg.clone());
        let popped = self.pop(agg.as_deref());
        self.done = popped.is_none();
        popped.map(|(row, _)| Ok(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::IterSource;
    use histok_types::{BytesKey, Error, KeyPair};

    type VecSource = IterSource<std::vec::IntoIter<Result<Row<u64>>>>;

    fn src(keys: &[u64]) -> VecSource {
        IterSource::new(keys.iter().map(|&k| Ok(Row::key_only(k))).collect::<Vec<_>>().into_iter())
    }

    fn iter_src<K: SortKey>(
        rows: Vec<Result<Row<K>>>,
    ) -> IterSource<std::vec::IntoIter<Result<Row<K>>>> {
        IterSource::new(rows.into_iter())
    }

    fn merge_keys(sources: Vec<VecSource>, order: SortOrder) -> Vec<u64> {
        LoserTree::new(sources, order).unwrap().map(|r| r.unwrap().key).collect()
    }

    #[test]
    fn merges_two_sources() {
        let got = merge_keys(vec![src(&[1, 3, 5]), src(&[2, 4, 6])], SortOrder::Ascending);
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn single_source_passthrough() {
        let got = merge_keys(vec![src(&[1, 2, 3])], SortOrder::Ascending);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn empty_everything() {
        let got = merge_keys(vec![], SortOrder::Ascending);
        assert!(got.is_empty());
        let got = merge_keys(vec![src(&[]), src(&[])], SortOrder::Ascending);
        assert!(got.is_empty());
    }

    #[test]
    fn uneven_sources_and_empties() {
        let got = merge_keys(
            vec![src(&[]), src(&[10]), src(&[1, 2, 3, 4, 5, 6, 7]), src(&[]), src(&[4, 8])],
            SortOrder::Ascending,
        );
        assert_eq!(got, vec![1, 2, 3, 4, 4, 5, 6, 7, 8, 10]);
    }

    #[test]
    fn descending_merge() {
        let got = merge_keys(vec![src(&[9, 5, 1]), src(&[8, 4])], SortOrder::Descending);
        assert_eq!(got, vec![9, 8, 5, 4, 1]);
    }

    #[test]
    fn many_sources_power_of_two_and_odd() {
        for n in [2usize, 3, 4, 5, 7, 8, 15, 16, 17, 33] {
            let sources: Vec<VecSource> = (0..n)
                .map(|i| {
                    let keys: Vec<u64> = (0..20).map(|j| (j * n + i) as u64).collect();
                    src(&keys)
                })
                .collect();
            let got = merge_keys(sources, SortOrder::Ascending);
            let expected: Vec<u64> = (0..(20 * n) as u64).collect();
            assert_eq!(got, expected, "n = {n}");
        }
    }

    #[test]
    fn duplicate_keys_merge_equal_to_a_sort() {
        for n in [2usize, 3, 7, 16] {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let make = || -> Vec<VecSource> {
                    (0..n)
                        .map(|i| {
                            let mut keys: Vec<u64> =
                                (0..30).map(|j| ((j * n + i) as u64 * 7) % 50).collect();
                            keys.sort_unstable();
                            if order == SortOrder::Descending {
                                keys.reverse();
                            }
                            src(&keys)
                        })
                        .collect()
                };
                let got = merge_keys(make(), order);
                let mut want: Vec<u64> = (0..n)
                    .flat_map(|i| (0..30).map(move |j| ((j * n + i) as u64 * 7) % 50))
                    .collect();
                want.sort_unstable();
                if order == SortOrder::Descending {
                    want.reverse();
                }
                assert_eq!(got, want, "n = {n}, order = {order:?}");
            }
        }
    }

    #[test]
    fn ovc_duels_dominate_on_disjoint_ranges() {
        // Interleaved unique keys: every adjust-path duel should resolve
        // on codes after the first refill derivation.
        let n = 8usize;
        let sources: Vec<VecSource> = (0..n)
            .map(|i| {
                let keys: Vec<u64> = (0..100).map(|j| (j * n + i) as u64).collect();
                src(&keys)
            })
            .collect();
        let stats = CmpStats::new();
        let mut lt =
            LoserTree::with_stats(sources, SortOrder::Ascending, Some(stats.clone())).unwrap();
        let mut count = 0u64;
        for r in &mut lt {
            r.unwrap();
            count += 1;
        }
        let (ovc, full) = lt.cmp_counts();
        assert_eq!(count, 800);
        // u64 prefixes are exact: every duel, refill derivation and tie
        // resolves on integers — no byte-level comparison ever fires.
        assert!(ovc > full, "ovc = {ovc}, full = {full}");
        assert_eq!(full, 0, "prefix-exact keys must never fall back to bytes");
        drop(lt);
        let snap = stats.snapshot();
        assert_eq!((snap.ovc_cmps, snap.full_cmps), (ovc, full));
    }

    #[test]
    fn duplicate_heavy_all_equal_keys_stay_stable() {
        // Many sources, every key identical: output must drain sources in
        // index order (ties break toward the lower source), with each
        // source's payloads in their original sequence.
        let n = 6usize;
        let rows_per = 5usize;
        let sources: Vec<_> = (0..n)
            .map(|i| {
                iter_src(
                    (0..rows_per)
                        .map(|j| Ok(Row::new(42u64, format!("s{i}r{j}").into_bytes())))
                        .collect::<Vec<Result<Row<u64>>>>(),
                )
            })
            .collect();
        let got: Vec<String> = LoserTree::new(sources, SortOrder::Ascending)
            .unwrap()
            .map(|r| String::from_utf8(r.unwrap().payload.to_vec()).unwrap())
            .collect();
        let expected: Vec<String> =
            (0..n).flat_map(|i| (0..rows_per).map(move |j| format!("s{i}r{j}"))).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn duplicate_runs_interleave_stably() {
        // Duplicates spanning sources: each tie group must list source 0's
        // rows before source 1's.
        let a: Vec<Result<Row<u64>>> = vec![
            Ok(Row::new(1u64, &b"a0"[..])),
            Ok(Row::new(1u64, &b"a1"[..])),
            Ok(Row::new(2u64, &b"a2"[..])),
        ];
        let b: Vec<Result<Row<u64>>> = vec![
            Ok(Row::new(1u64, &b"b0"[..])),
            Ok(Row::new(2u64, &b"b1"[..])),
            Ok(Row::new(2u64, &b"b2"[..])),
        ];
        let got: Vec<(u64, Vec<u8>)> =
            LoserTree::new(vec![iter_src(a), iter_src(b)], SortOrder::Ascending)
                .unwrap()
                .map(|r| r.map(|row| (row.key, row.payload.to_vec())).unwrap())
                .collect();
        let expected: Vec<(u64, Vec<u8>)> = vec![
            (1, b"a0".to_vec()),
            (1, b"a1".to_vec()),
            (1, b"b0".to_vec()),
            (2, b"a2".to_vec()),
            (2, b"b1".to_vec()),
            (2, b"b2".to_vec()),
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn byte_keys_with_shared_prefixes_merge_correctly() {
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let make = |words: &[&str]| {
                let mut keys: Vec<BytesKey> = words.iter().map(|w| BytesKey::from(*w)).collect();
                keys.sort();
                if order == SortOrder::Descending {
                    keys.reverse();
                }
                iter_src(keys.into_iter().map(|k| Ok(Row::key_only(k))).collect::<Vec<_>>())
            };
            let sources = vec![
                make(&["aaa", "aab", "aba", "abc"]),
                make(&["aab", "aac", "ab", "b"]),
                make(&["", "a", "aa", "aaa"]),
            ];
            let got: Vec<BytesKey> =
                LoserTree::new(sources, order).unwrap().map(|r| r.unwrap().key).collect();
            let mut expected = got.clone();
            expected.sort();
            if order == SortOrder::Descending {
                expected.reverse();
            }
            assert_eq!(got, expected, "order = {order:?}");
            assert_eq!(got.len(), 12);
        }
    }

    #[test]
    fn wide_keys_sharing_long_prefixes_resolve_beyond_the_prefix() {
        // Keys identical through well past byte 8: every duel's prefix
        // compare ties and the byte-level fallback must order them.
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let word = |suffix: &str| BytesKey::from(format!("commonprefix-{suffix}").as_str());
            let make = |suffixes: &[&str]| {
                let mut keys: Vec<BytesKey> = suffixes.iter().map(|s| word(s)).collect();
                keys.sort();
                if order == SortOrder::Descending {
                    keys.reverse();
                }
                iter_src(keys.into_iter().map(|k| Ok(Row::key_only(k))).collect::<Vec<_>>())
            };
            let sources = vec![
                make(&["alpha", "delta", "golf", "golf"]),
                make(&["bravo", "delta", "echo"]),
                make(&["charlie", "foxtrot"]),
            ];
            let got: Vec<BytesKey> =
                LoserTree::new(sources, order).unwrap().map(|r| r.unwrap().key).collect();
            let mut expected = got.clone();
            expected.sort();
            if order == SortOrder::Descending {
                expected.reverse();
            }
            assert_eq!(got, expected, "order = {order:?}");
            assert_eq!(got.len(), 9);
        }
    }

    #[test]
    fn pair_keys_merge_in_both_orders() {
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let make = |seed: u64| {
                let mut keys: Vec<KeyPair<u64, BytesKey>> = (0..20)
                    .map(|j| KeyPair((j * 7 + seed) % 13, BytesKey::from(format!("p{j}").as_str())))
                    .collect();
                keys.sort();
                if order == SortOrder::Descending {
                    keys.reverse();
                }
                iter_src(keys.into_iter().map(|k| Ok(Row::key_only(k))).collect::<Vec<_>>())
            };
            let sources = vec![make(0), make(3), make(5)];
            let got: Vec<_> =
                LoserTree::new(sources, order).unwrap().map(|r| r.unwrap().key).collect();
            let mut expected = got.clone();
            expected.sort();
            if order == SortOrder::Descending {
                expected.reverse();
            }
            assert_eq!(got, expected, "order = {order:?}");
            assert_eq!(got.len(), 60);
        }
    }

    #[test]
    fn peek_key_matches_next() {
        let mut lt = LoserTree::new(vec![src(&[5, 7]), src(&[6])], SortOrder::Ascending).unwrap();
        assert_eq!(lt.peek_key(), Some(&5));
        assert_eq!(lt.next().unwrap().unwrap().key, 5);
        assert_eq!(lt.peek_key(), Some(&6));
    }

    #[test]
    fn ties_break_toward_lower_source_index() {
        let a: Vec<Result<Row<u64>>> = vec![Ok(Row::new(5u64, &b"from-a"[..]))];
        let b: Vec<Result<Row<u64>>> = vec![Ok(Row::new(5u64, &b"from-b"[..]))];
        let mut lt = LoserTree::new(vec![iter_src(a), iter_src(b)], SortOrder::Ascending).unwrap();
        assert_eq!(lt.next().unwrap().unwrap().payload.as_ref(), b"from-a");
        assert_eq!(lt.next().unwrap().unwrap().payload.as_ref(), b"from-b");
    }

    #[test]
    fn source_error_is_surfaced_and_fuses() {
        let bad: Vec<Result<Row<u64>>> =
            vec![Ok(Row::key_only(1)), Err(Error::Corrupt("boom".into()))];
        let mut lt =
            LoserTree::new(vec![iter_src(bad), src(&[100])], SortOrder::Ascending).unwrap();
        assert_eq!(lt.next().unwrap().unwrap().key, 1);
        // The error surfaces before any further rows.
        assert!(matches!(lt.next(), Some(Err(Error::Corrupt(_)))));
        assert!(lt.next().is_none());
    }

    #[test]
    fn immediate_error_in_first_rows() {
        let bad: Vec<Result<Row<u64>>> = vec![Err(Error::Corrupt("early".into()))];
        let mut lt = LoserTree::new(vec![iter_src(bad), src(&[1])], SortOrder::Ascending).unwrap();
        assert!(matches!(lt.next(), Some(Err(_))));
        assert!(lt.next().is_none());
    }

    #[test]
    fn error_after_final_good_row_is_not_lost() {
        // The error arrives from the refill triggered by the last good
        // row: that row must still be emitted, the error next, then fused.
        let bad: Vec<Result<Row<u64>>> =
            vec![Ok(Row::key_only(7)), Err(Error::Corrupt("tail".into()))];
        let mut lt = LoserTree::new(vec![iter_src(bad)], SortOrder::Ascending).unwrap();
        assert_eq!(lt.next().unwrap().unwrap().key, 7);
        assert!(matches!(lt.next(), Some(Err(Error::Corrupt(_)))));
        assert!(lt.next().is_none());
        assert!(lt.next().is_none());

        // Same, but the erroring source outlives every other source.
        let bad: Vec<Result<Row<u64>>> =
            vec![Ok(Row::key_only(9)), Err(Error::Corrupt("tail".into()))];
        let mut lt =
            LoserTree::new(vec![src(&[1, 2]), iter_src(bad)], SortOrder::Ascending).unwrap();
        assert_eq!(lt.next().unwrap().unwrap().key, 1);
        assert_eq!(lt.next().unwrap().unwrap().key, 2);
        assert_eq!(lt.next().unwrap().unwrap().key, 9);
        assert!(matches!(lt.next(), Some(Err(Error::Corrupt(_)))));
        assert!(lt.next().is_none());
    }

    #[test]
    fn merge_into_matches_iterator_output() {
        for batch_rows in [1usize, 7, 1024] {
            let make = || vec![src(&[1, 3, 5, 7, 9, 11]), src(&[2, 4, 6, 8]), src(&[0, 10, 12])];
            let by_iter: Vec<u64> = LoserTree::new(make(), SortOrder::Ascending)
                .unwrap()
                .map(|r| r.unwrap().key)
                .collect();
            let mut lt = LoserTree::new(make(), SortOrder::Ascending).unwrap();
            let mut by_batch: Vec<u64> = Vec::new();
            let mut out = RowBatch::new();
            loop {
                lt.merge_into(&mut out, batch_rows).unwrap();
                if out.is_empty() {
                    break;
                }
                // The carried prefix column must honor the invariant.
                for (row, &p) in out.rows.iter().zip(&out.prefixes) {
                    assert_eq!(p, row.key.norm_prefix());
                }
                by_batch.extend(out.rows.iter().map(|r| r.key));
            }
            assert_eq!(by_batch, by_iter, "batch_rows = {batch_rows}");
        }
    }

    #[test]
    fn merge_into_surfaces_error_after_partial_batch() {
        let bad: Vec<Result<Row<u64>>> =
            vec![Ok(Row::key_only(1)), Ok(Row::key_only(3)), Err(Error::Corrupt("mid".into()))];
        let mut lt = LoserTree::new(vec![iter_src(bad), src(&[2])], SortOrder::Ascending).unwrap();
        let mut out = RowBatch::new();
        // First drain stops once the error latches; the rows merged before
        // it come back intact.
        lt.merge_into(&mut out, 100).unwrap();
        assert_eq!(out.rows.iter().map(|r| r.key).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(matches!(lt.merge_into(&mut out, 100), Err(Error::Corrupt(_))));
        assert!(out.is_empty(), "a failed drain must not leave stale rows");
        // Fused thereafter.
        lt.merge_into(&mut out, 100).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn merge_into_descending_carries_raw_prefixes() {
        let mut lt =
            LoserTree::new(vec![src(&[9, 5, 1]), src(&[8, 4])], SortOrder::Descending).unwrap();
        let mut out = RowBatch::new();
        lt.merge_into(&mut out, 16).unwrap();
        assert_eq!(out.rows.iter().map(|r| r.key).collect::<Vec<_>>(), vec![9, 8, 5, 4, 1]);
        for (row, &p) in out.rows.iter().zip(&out.prefixes) {
            assert_eq!(p, row.key.norm_prefix(), "prefix column must stay raw (ascending-order)");
        }
    }

    #[test]
    fn fold_dedup_emits_each_key_once() {
        use crate::fold::{FoldSpec, FoldStats};
        use histok_types::AggregateOp;
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let mut a = vec![1u64, 3, 3, 5, 5, 5];
            let mut b = vec![1, 1, 3, 6];
            if order == SortOrder::Descending {
                a.reverse();
                b.reverse();
            }
            let stats = FoldStats::new();
            let mut lt = LoserTree::new(vec![src(&a), src(&b)], order).unwrap();
            lt.set_fold(Some(
                FoldSpec::new(AggregateOp::First.aggregator()).with_stats(stats.clone()),
            ));
            let got: Vec<u64> = (&mut lt).map(|r| r.unwrap().key).collect();
            let mut expected = vec![1u64, 3, 5, 6];
            if order == SortOrder::Descending {
                expected.reverse();
            }
            assert_eq!(got, expected, "order = {order:?}");
            assert_eq!(lt.rows_folded(), 6);
            drop(lt);
            assert_eq!(stats.snapshot().rows_folded, 6);
        }
    }

    #[test]
    fn fold_count_totals_multiplicity_across_sources() {
        use crate::fold::FoldSpec;
        use histok_types::{decode_count, AggregateOp, Bytes};
        let agg = AggregateOp::Count.aggregator();
        let counted = |keys: &[u64]| -> Vec<Result<Row<u64>>> {
            keys.iter().map(|&k| Ok(Row::new(k, agg.init(Bytes::new())))).collect()
        };
        let mut lt = LoserTree::new(
            vec![
                iter_src(counted(&[2, 2, 7, 7, 7])),
                iter_src(counted(&[2, 9])),
                iter_src(counted(&[7])),
            ],
            SortOrder::Ascending,
        )
        .unwrap();
        lt.set_fold(Some(FoldSpec::new(agg.clone())));
        let got: Vec<(u64, u64)> =
            (&mut lt).map(|r| r.unwrap()).map(|r| (r.key, decode_count(&r.payload))).collect();
        assert_eq!(got, vec![(2, 3), (7, 4), (9, 1)]);
    }

    #[test]
    fn fold_in_merge_into_matches_iterator_and_respects_batch_bounds() {
        use crate::fold::FoldSpec;
        use histok_types::{decode_count, AggregateOp, Bytes};
        let agg = AggregateOp::Count.aggregator();
        for batch_rows in [1usize, 2, 1024] {
            let counted = |keys: &[u64]| -> Vec<Result<Row<u64>>> {
                keys.iter().map(|&k| Ok(Row::new(k, agg.init(Bytes::new())))).collect()
            };
            let mut lt = LoserTree::new(
                vec![iter_src(counted(&[1, 1, 4, 4, 4, 8])), iter_src(counted(&[1, 4, 8, 8]))],
                SortOrder::Ascending,
            )
            .unwrap();
            lt.set_fold(Some(FoldSpec::new(agg.clone())));
            let mut got: Vec<(u64, u64)> = Vec::new();
            let mut out = RowBatch::new();
            loop {
                lt.merge_into(&mut out, batch_rows).unwrap();
                if out.is_empty() {
                    break;
                }
                assert!(out.rows.len() <= batch_rows);
                for (row, &p) in out.rows.iter().zip(&out.prefixes) {
                    assert_eq!(p, row.key.norm_prefix());
                    got.push((row.key, decode_count(&row.payload)));
                }
            }
            // Every emitted key distinct with its full multiplicity: a fold
            // group never straddles a batch boundary.
            assert_eq!(got, vec![(1, 3), (4, 4), (8, 3)], "batch_rows = {batch_rows}");
        }
    }

    #[test]
    fn fold_wide_keys_needs_key_equality_not_just_prefix() {
        use crate::fold::FoldSpec;
        use histok_types::AggregateOp;
        // Shared 8-byte prefix, different tails: these must NOT fold.
        let mk = |ks: &[&str]| {
            iter_src(
                ks.iter()
                    .map(|s| Ok(Row::key_only(BytesKey::from(*s))))
                    .collect::<Vec<Result<Row<BytesKey>>>>(),
            )
        };
        let mut lt = LoserTree::new(
            vec![
                mk(&["prefix-0001-a", "prefix-0001-a", "prefix-0002-b"]),
                mk(&["prefix-0001-a", "prefix-0002-c"]),
            ],
            SortOrder::Ascending,
        )
        .unwrap();
        lt.set_fold(Some(FoldSpec::new(AggregateOp::First.aggregator())));
        let got: Vec<String> = (&mut lt)
            .map(|r| String::from_utf8(r.unwrap().key.as_slice().to_vec()).unwrap())
            .collect();
        assert_eq!(got, vec!["prefix-0001-a", "prefix-0002-b", "prefix-0002-c"]);
        assert_eq!(lt.rows_folded(), 2);
    }

    #[test]
    fn equal_short_wide_keys_duel_without_full_comparisons() {
        // Regression: a duel between equal keys whose whole normalized form
        // fits the 8-byte prefix scans zero key bytes — prefix-freeness
        // already proves equality — and must book as an ovc comparison, not
        // a full one. BytesKey norms here are 4 bytes ("aa" + terminator).
        let mk = |ks: &[&str]| {
            iter_src(
                ks.iter()
                    .map(|s| Ok(Row::key_only(BytesKey::from(*s))))
                    .collect::<Vec<Result<Row<BytesKey>>>>(),
            )
        };
        let stats = CmpStats::new();
        let mut lt = LoserTree::with_stats(
            vec![mk(&["aa", "aa", "aa", "bb"]), mk(&["aa", "aa", "bb", "bb"])],
            SortOrder::Ascending,
            Some(stats.clone()),
        )
        .unwrap();
        let mut rows = 0usize;
        for r in &mut lt {
            r.unwrap();
            rows += 1;
        }
        assert_eq!(rows, 8);
        let (ovc, full) = lt.cmp_counts();
        assert!(ovc > 0);
        assert_eq!(full, 0, "equal duels resolved inside the prefix must not count as full");
    }
}
