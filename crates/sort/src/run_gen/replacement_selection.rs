//! Replacement selection — pipelined run generation.
//!
//! The classic tournament method (Knuth TAOCP vol. 3, §5.4.1): a selection
//! tree holds the memory workspace. The smallest buffered row (in output
//! order) that can still extend the current run is written next; incoming
//! rows smaller than the last written key are tagged for the *next* run.
//! Consumption of input never pauses for a sort — the property the paper
//! calls out as the reason F1 uses it ("does not require stopping the
//! consumption of the input", §3.1.3).
//!
//! # The tree
//!
//! [`SelectionHeap`] is a *winner* tree over a power-of-two number of
//! leaves. `nodes[leaves + l]` is leaf `l`, `nodes[i]` the winner of
//! `nodes[2i]` and `nodes[2i + 1]`, `nodes[1]` the next row to spill. A node
//! is 32 bytes, `(run, prefix in output order, seq, leaf)`; the row itself
//! parks in `slots[leaf]` and never moves. Free leaves sit on a stack, a
//! vacant leaf holds [`VACANT`] (loses to every row), and when the stack is
//! empty the tree doubles: the old tree becomes the new root's left subtree
//! by one slice copy per level, no comparison.
//!
//! Every change is one *replay*: write the leaf, walk to the root, at each
//! level keep the earlier of the running winner and the sibling. The path
//! is fixed by the leaf, so no address depends on the data, and the choice
//! is a conditional move, not a branch: a binary heap's two sifts per
//! spilled row are ~26 comparisons whose outcome is a coin flip, and it was
//! those mispredictions, not the bytes moved, that made `pop` half the cost
//! of a spilled row. The steady-state step *push one row, spill one row* is
//! a single replay ([`SelectionHeap::push_pop`]). Verified with `cargo rustc
//! --release --manifest-path bench_e2e/Cargo.toml -- --emit asm` (listing in
//! `results/e2e/pr23_climb_loop.s`): the loop of [`climb`] holds one
//! `cmp`/`sbb` chain, `setb`/`cmovne` per field and no jump on their
//! result (the jumps left are the loop, the bounds checks and, for wide
//! keys only, the tie test). Two ways of writing the match that do *not*
//! get there with rustc 1.95: a plain `if` compiles to `jb`/`je`, and
//! `select_unpredictable` over the whole node to a `cmov` on a pointer with
//! the node copied through the stack; both cost ~350 cycles per spilled row
//! against ~225 (DESIGN.md §7). [`climb`] is a free, never-inlined function
//! so that this loop is compiled once, whatever it would be inlined into.
//!
//! Rows leave in key order, not in the order they arrived, so the payload
//! of a row about to be encoded is usually a cold line. Every replay that
//! changes the winner therefore ends with a [`prefetch`] of the new
//! winner's payload, one `push` before it is written (DESIGN.md §7).
//!
//! The order is `(run, key in output order, seq)`, unchanged, so every run
//! is byte-identical to the binary heap's (kept under `cfg(test)` as the
//! reference). Memory per buffered row: two 32-byte nodes, one
//! `Option<Slot>` (row + footprint) and a free-list word, against the
//! `PER_ROW_OVERHEAD = 16` that [`row_footprint`] charges; the difference
//! is part of what ROADMAP item 1 has to account for.

use std::collections::BTreeMap;
use std::hint::select_unpredictable;
use std::sync::Arc;

use histok_storage::{RunCatalog, RunWriter};
use histok_types::{Result, Row, SortKey, SortOrder};

use crate::budget::{row_footprint, MemoryBudget};
use crate::cmp_stats::CmpStats;
use crate::fold::FoldSpec;
use crate::observer::SpillObserver;
use crate::run_gen::{ResiduePolicy, RunGenerator};

/// Fallback bytes-per-row estimate before any row has been observed.
const FALLBACK_ROW_BYTES: usize = 64;

/// Leaves of the first allocation; the tree doubles from here.
const INITIAL_LEAVES: usize = 64;

/// One tree node: a buffered row's place in the order and where it parks.
#[derive(Clone, Copy)]
struct Node {
    run: u64,
    /// First 8 normalized key bytes, complemented for descending sorts so
    /// that a smaller value always pops first (0 with the fast path off).
    prefix: u64,
    seq: u64,
    leaf: usize,
}

/// What an empty leaf holds: loses every match (no real run tag gets here).
const VACANT: Node = Node { run: u64::MAX, prefix: u64::MAX, seq: u64::MAX, leaf: 0 };

impl Node {
    /// `(run, prefix)` as one integer: decides most matches on its own.
    fn code(&self) -> u128 {
        (self.run as u128) << 64 | self.prefix as u128
    }
}

/// Replays `nodes[i]` towards the root, storing the winner of every match
/// on the way, and returns where it stopped: at the root, or earlier only
/// when `KEY_TIES` and two buffered rows tie on `(run, prefix)`; the caller
/// settles that match on full keys and calls again. The winner stays in
/// four scalars and is selected field by field: see the module doc.
#[inline(never)]
fn climb<const KEY_TIES: bool>(nodes: &mut [Node], mut i: usize) -> usize {
    let Node { mut run, mut prefix, mut seq, mut leaf } = nodes[i];
    while i > 1 {
        let sib = nodes[i ^ 1];
        let (s, w) = (sib.code(), Node { run, prefix, seq, leaf }.code());
        if KEY_TIES && s == w && run != VACANT.run {
            break;
        }
        let take = (s < w) | ((s == w) & (sib.seq < seq));
        run = select_unpredictable(take, sib.run, run);
        prefix = select_unpredictable(take, sib.prefix, prefix);
        seq = select_unpredictable(take, sib.seq, seq);
        leaf = select_unpredictable(take, sib.leaf, leaf);
        i >>= 1;
        nodes[i] = Node { run, prefix, seq, leaf };
    }
    i
}

/// Cache lines of a payload [`prefetch`] hints: two cover `lineitem`'s 82
/// bytes.
const PREFETCH_LINES: usize = 2;

/// Asks the CPU to start loading the first [`PREFETCH_LINES`] cache lines
/// of `bytes`, one hint per 64 bytes from its start, so that the load
/// overlaps the work before they are read instead of stalling the read. A
/// hint changes when a line arrives, never what the program reads. A no-op
/// off x86-64.
#[inline]
#[allow(unsafe_code)]
fn prefetch(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    for line in bytes.chunks(64).take(PREFETCH_LINES) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` needs SSE, which is part of the x86-64
        // baseline, so every x86-64 target has it. A prefetch is a hint:
        // it never faults, whatever the address, and reads nothing into
        // the program; the address is the start of a live slice anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = bytes;
}

/// A buffered row and the bytes it is charged.
struct Slot<K> {
    row: Row<K>,
    footprint: usize,
}

/// The selection tree, ordered by `(run, key in output order, seq)`; layout
/// and replay are described in the module doc.
///
/// It compares normalized key *prefixes*, not offset-value codes: differing
/// prefixes decide a match outright, and for fixed-width keys of at most 8
/// bytes ([`SortKey::norm_prefix_is_exact`]) equal prefixes are decisive
/// too (the keys are equal, arrival order wins). Only wider keys with equal
/// prefixes, and every same-run match with the fast path off, compare full
/// keys.
struct SelectionHeap<K: SortKey> {
    nodes: Vec<Node>,
    slots: Vec<Option<Slot<K>>>,
    free: Vec<usize>,
    seq: u64,
    order: SortOrder,
    ovc_enabled: bool,
    /// Matches played: one per tree level per replay, plus the incoming
    /// row against the winner in [`SelectionHeap::push_pop`].
    cmps: u64,
    /// Of those, the ones that needed the full keys.
    full_cmps: u64,
}

impl<K: SortKey> SelectionHeap<K> {
    fn new(order: SortOrder) -> Self {
        SelectionHeap {
            nodes: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            order,
            ovc_enabled: true,
            cmps: 0,
            full_cmps: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(prefix-decided, full-key)` match counts.
    fn cmp_counts(&self) -> (u64, u64) {
        (self.cmps - self.full_cmps, self.full_cmps)
    }

    /// The node a row entering now gets (its leaf is filled in later).
    fn node_for(&mut self, run: u64, key: &K) -> Node {
        let prefix = match (self.ovc_enabled, self.order) {
            (false, _) => 0,
            (true, SortOrder::Ascending) => key.norm_prefix(),
            (true, SortOrder::Descending) => !key.norm_prefix(),
        };
        self.seq += 1;
        Node { run, prefix, seq: self.seq, leaf: 0 }
    }

    fn key_of(&self, node: &Node) -> &K {
        &self.slots[node.leaf].as_ref().expect("a buffered node's leaf holds its row").row.key
    }

    /// True if full keys are what separates rows with equal `(run, prefix)`.
    fn key_ties(&self) -> bool {
        !(self.ovc_enabled && K::norm_prefix_is_exact())
    }

    /// The winner's row if it has exactly this `(run, key)`.
    fn top_if(&mut self, node: &Node, key: &K) -> Option<&mut Slot<K>> {
        let top = *self.nodes.get(1)?;
        if top.code() != node.code() || self.key_of(&top) != key {
            return None;
        }
        self.slots[top.leaf].as_mut()
    }

    fn replay(&mut self, leaf: usize, mut w: Node) {
        w.leaf = leaf;
        let mut i = self.slots.len() + leaf;
        self.nodes[i] = w;
        self.cmps += u64::from(self.slots.len().trailing_zeros());
        if !self.key_ties() {
            climb::<false>(&mut self.nodes, i);
            return;
        }
        loop {
            i = climb::<true>(&mut self.nodes, i);
            if i == 1 {
                return;
            }
            let (w, sib) = (self.nodes[i], self.nodes[i ^ 1]);
            self.full_cmps += 1;
            let keys = self.order.cmp_keys(self.key_of(&sib), self.key_of(&w));
            i >>= 1;
            self.nodes[i] = if keys.then(sib.seq.cmp(&w.seq)).is_lt() { sib } else { w };
        }
    }

    /// Doubles the leaves. The old tree becomes the left subtree of the new
    /// root (node `2^d + o` moves to `2^(d+1) + o`), the right one is vacant,
    /// so the root keeps its winner and no match is played.
    fn grow(&mut self) {
        let old = self.slots.len();
        let new = (2 * old).max(INITIAL_LEAVES);
        let mut nodes = vec![VACANT; 2 * new];
        let mut width = 1;
        while width <= old {
            nodes[2 * width..3 * width].copy_from_slice(&self.nodes[width..2 * width]);
            width *= 2;
        }
        if old > 0 {
            nodes[1] = self.nodes[1];
        }
        self.nodes = nodes;
        self.slots.resize_with(new, || None);
        self.free.extend((old..new).rev());
    }

    fn push(&mut self, node: Node, slot: Slot<K>) {
        if self.free.is_empty() {
            self.grow();
        }
        let leaf = self.free.pop().expect("grow leaves a free leaf");
        self.slots[leaf] = Some(slot);
        self.replay(leaf, node);
    }

    /// Prefetches the winner's payload: it is the next row to leave, so
    /// its bytes are next to be encoded. Nothing once the last row has
    /// left: the root is then [`VACANT`], and its leaf holds no row.
    #[inline]
    fn prefetch_winner(&self) {
        if let Some(slot) = &self.slots[self.nodes[1].leaf] {
            prefetch(&slot.row.payload);
        }
    }

    fn pop(&mut self) -> Option<(u64, Slot<K>)> {
        if self.is_empty() {
            return None;
        }
        let top = self.nodes[1];
        let slot = self.slots[top.leaf].take().expect("the winner's leaf holds its row");
        self.free.push(top.leaf);
        self.replay(top.leaf, VACANT);
        self.prefetch_winner();
        Some((top.run, slot))
    }

    /// `push` then `pop` in one replay, on a non-empty tree: a row that
    /// precedes the winner goes straight back out and never enters the
    /// tree; any other row takes the winner's leaf.
    fn push_pop(&mut self, node: Node, slot: Slot<K>) -> (u64, Slot<K>) {
        let top = self.nodes[1];
        self.cmps += 1;
        let first = if node.code() != top.code() || !self.key_ties() {
            // On a tie of exact prefixes the keys are equal: arrival order.
            node.code() < top.code()
        } else {
            self.full_cmps += 1;
            self.order.precedes(&slot.row.key, self.key_of(&top))
        };
        if first {
            return (node.run, slot);
        }
        let out = self.slots[top.leaf].replace(slot).expect("the winner's leaf holds its row");
        self.replay(top.leaf, node);
        self.prefetch_winner();
        (top.run, out)
    }
}

/// Pipelined run generation by replacement selection.
pub struct ReplacementSelection<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    heap: SelectionHeap<K>,
    budget: MemoryBudget,
    order: SortOrder,
    /// Run tag currently being written.
    current_tag: u64,
    /// Last key written to the open physical run (run-extension test).
    last_written: Option<K>,
    writer: Option<RunWriter<K>>,
    rows_in_run: u64,
    /// Optional cap on physical run length ("limit run size to k").
    run_limit: Option<u64>,
    /// Shared sink the tree's comparison counters flush into on drop.
    cmp_stats: Option<CmpStats>,
    /// Fold mode: an incoming row equal to the tree's winner (same run) is
    /// absorbed into the winner instead of entering the tree.
    fold: Option<FoldSpec>,
    /// Rows absorbed by folding; flushed to the spec's stats on drop.
    rows_folded: u64,
    /// Encoded bytes of absorbed rows (write traffic saved before spill).
    bytes_folded: u64,
}

impl<K: SortKey> ReplacementSelection<K> {
    /// Creates a generator writing runs through `catalog` under a budget of
    /// `budget_bytes`.
    pub fn new(catalog: Arc<RunCatalog<K>>, budget_bytes: usize) -> Self {
        Self::with_budget(catalog, MemoryBudget::new(budget_bytes))
    }

    /// Creates a generator charging its workspace against `budget` — use a
    /// budget forked from a shared [`crate::BudgetHandle`] when an external
    /// lease governs the limit.
    pub fn with_budget(catalog: Arc<RunCatalog<K>>, budget: MemoryBudget) -> Self {
        let order = catalog.order();
        ReplacementSelection {
            catalog,
            heap: SelectionHeap::new(order),
            budget,
            order,
            current_tag: 0,
            last_written: None,
            writer: None,
            rows_in_run: 0,
            run_limit: None,
            cmp_stats: None,
            fold: None,
            rows_folded: 0,
            bytes_folded: 0,
        }
    }

    /// Caps each physical run at `limit` rows (the [Graefe'08] optimization:
    /// no run needs to be longer than the requested output).
    pub fn with_run_limit(mut self, limit: u64) -> Self {
        self.run_limit = Some(limit.max(1));
        self
    }

    /// Controls the normalized-prefix comparison fast path (on by default)
    /// and optionally attaches a shared counter sink (flushed on drop).
    pub fn with_ovc(mut self, enabled: bool, stats: Option<CmpStats>) -> Self {
        self.heap.ovc_enabled = enabled;
        self.cmp_stats = stats;
        self
    }

    /// Enables equal-key folding on insert: a row whose key equals the
    /// current winner's (and that belongs to the same selection run) is
    /// folded into the winner's payload instead of buffering and later
    /// spilling as a duplicate. Opportunistic — duplicates that never
    /// meet the winner still spill and are folded at merge time.
    pub fn with_fold(mut self, fold: FoldSpec) -> Self {
        self.fold = Some(fold);
        self
    }

    /// The generator's estimate of the next run's length in rows:
    /// replacement selection produces runs ~2× the memory capacity on
    /// random input (Knuth), capped by the run limit.
    fn estimated_run_rows(&self) -> u64 {
        let cap = 2 * self.budget.capacity_rows(FALLBACK_ROW_BYTES);
        self.run_limit.map_or(cap, |l| l.min(cap)).max(1)
    }

    fn close_run(&mut self, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        if let Some(writer) = self.writer.take() {
            let meta = writer.finish()?;
            self.catalog.register(meta)?;
            obs.run_finished();
        }
        self.last_written = None;
        self.rows_in_run = 0;
        Ok(())
    }

    /// Pops and disposes of exactly one buffered row.
    fn spill_one(&mut self, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        let (run, slot) = self.heap.pop().expect("spill_one on an empty tree");
        self.dispose(run, slot, obs)
    }

    /// Writes or eliminates one row that left the tree.
    fn dispose(&mut self, run: u64, slot: Slot<K>, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        let Slot { row, footprint } = slot;
        self.budget.release(footprint);
        if run != self.current_tag {
            debug_assert!(run > self.current_tag);
            self.close_run(obs)?;
            self.current_tag = run;
        }
        // Algorithm 1 line 11: the cutoff may have sharpened since this row
        // was admitted — check again before paying for the write.
        if obs.should_eliminate(&row.key) {
            return Ok(());
        }
        if self.writer.is_none() {
            self.writer = Some(self.catalog.start_run()?);
            obs.run_started(self.estimated_run_rows());
        }
        let writer = self.writer.as_mut().expect("writer just ensured");
        writer.append(&row)?;
        obs.row_spilled(&row.key);
        self.last_written = Some(row.key);
        self.rows_in_run += 1;
        if self.run_limit.is_some_and(|l| self.rows_in_run >= l) {
            // Physical cap reached: seal this run; the same selection run
            // continues into a fresh file.
            self.close_run(obs)?;
        }
        Ok(())
    }
}

impl<K: SortKey> RunGenerator<K> for ReplacementSelection<K> {
    fn push(&mut self, row: Row<K>, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        let footprint = row_footprint(&row);
        // Deferment: a row that cannot extend the current run goes to the
        // next one.
        let tag = match &self.last_written {
            Some(last) if self.order.precedes(&row.key, last) => self.current_tag + 1,
            _ => self.current_tag,
        };
        let node = self.heap.node_for(tag, &row.key);
        let top = if self.fold.is_some() { self.heap.top_if(&node, &row.key) } else { None };
        if let (Some(fold), Some(top)) = (&self.fold, top) {
            // Fold on insert: the duplicate never enters the tree (and
            // never spills), so no budget is charged for it.
            self.bytes_folded += row.encoded_len() as u64;
            self.rows_folded += 1;
            if let Some(folded) = fold.agg.fold(&top.row.payload, &row.payload) {
                top.row.payload = folded;
                let new_footprint = row_footprint(&top.row);
                self.budget.resize_row(top.footprint, new_footprint);
                top.footprint = new_footprint;
            }
        } else {
            self.budget.charge(footprint);
            let slot = Slot { row, footprint };
            if self.budget.used() > self.budget.limit() && !self.heap.is_empty() {
                // Steady state, push one row and spill one: a single replay.
                let (run, out) = self.heap.push_pop(node, slot);
                self.dispose(run, out, obs)?;
            } else {
                self.heap.push(node, slot);
            }
        }
        while self.budget.used() > self.budget.limit() && self.heap.len() > 1 {
            self.spill_one(obs)?;
        }
        Ok(())
    }

    fn finish(
        &mut self,
        obs: &mut dyn SpillObserver<K>,
        residue: ResiduePolicy,
    ) -> Result<Vec<Vec<Row<K>>>> {
        match residue {
            ResiduePolicy::SpillToRuns => {
                while !self.heap.is_empty() {
                    self.spill_one(obs)?;
                }
                self.close_run(obs)?;
                Ok(Vec::new())
            }
            ResiduePolicy::KeepInMemory => {
                // Drain by tag: each tag's pops come out in output order.
                let mut by_tag: BTreeMap<u64, Vec<Row<K>>> = BTreeMap::new();
                while let Some((run, slot)) = self.heap.pop() {
                    self.budget.release(slot.footprint);
                    if obs.should_eliminate(&slot.row.key) {
                        continue;
                    }
                    by_tag.entry(run).or_default().push(slot.row);
                }
                self.close_run(obs)?;
                Ok(by_tag.into_values().filter(|v| !v.is_empty()).collect())
            }
        }
    }

    fn buffered_rows(&self) -> usize {
        self.heap.len()
    }

    fn buffered_bytes(&self) -> usize {
        self.budget.used()
    }

    fn cmp_counts(&self) -> (u64, u64) {
        self.heap.cmp_counts()
    }

    fn set_fold(&mut self, fold: Option<FoldSpec>) {
        self.fold = fold;
    }
}

impl<K: SortKey> Drop for ReplacementSelection<K> {
    fn drop(&mut self) {
        if let Some(stats) = &self.cmp_stats {
            let (ovc_cmps, full_cmps) = self.heap.cmp_counts();
            stats.record(ovc_cmps, full_cmps);
        }
        if let Some(spec) = &self.fold {
            spec.flush_pre_spill(self.rows_folded, self.bytes_folded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;
    use histok_storage::{IoStats, MemoryBackend};

    /// The sift-based binary heap the tree replaced, kept as the reference
    /// the differential test below compares pop sequences against.
    struct Entry<K> {
        run: u64,
        prefix: u64,
        seq: u64,
        row: Row<K>,
        footprint: usize,
    }

    struct BinaryHeapRef<K: SortKey> {
        items: Vec<Entry<K>>,
        order: SortOrder,
        ovc_enabled: bool,
        seq: u64,
    }

    impl<K: SortKey> BinaryHeapRef<K> {
        /// True if `a` should be popped before `b`.
        fn before(&self, a: &Entry<K>, b: &Entry<K>) -> bool {
            use std::cmp::Ordering::{Equal, Greater, Less};
            match a.run.cmp(&b.run) {
                Less => true,
                Greater => false,
                Equal => {
                    if self.ovc_enabled {
                        if a.prefix != b.prefix {
                            return match self.order {
                                SortOrder::Ascending => a.prefix < b.prefix,
                                SortOrder::Descending => a.prefix > b.prefix,
                            };
                        }
                        if K::norm_prefix_is_exact() {
                            return a.seq < b.seq;
                        }
                    }
                    match self.order.cmp_keys(&a.row.key, &b.row.key) {
                        Less => true,
                        Greater => false,
                        Equal => a.seq < b.seq,
                    }
                }
            }
        }

        fn push(&mut self, run: u64, row: Row<K>, footprint: usize) {
            let prefix = if self.ovc_enabled { row.key.norm_prefix() } else { 0 };
            self.items.push(Entry { run, prefix, seq: self.seq, row, footprint });
            self.seq += 1;
            let mut i = self.items.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.before(&self.items[i], &self.items[parent]) {
                    self.items.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        }

        fn pop(&mut self) -> Option<Entry<K>> {
            if self.items.is_empty() {
                return None;
            }
            let last = self.items.len() - 1;
            self.items.swap(0, last);
            let top = self.items.pop();
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut best = i;
                if l < self.items.len() && self.before(&self.items[l], &self.items[best]) {
                    best = l;
                }
                if r < self.items.len() && self.before(&self.items[r], &self.items[best]) {
                    best = r;
                }
                if best == i {
                    break;
                }
                self.items.swap(i, best);
                i = best;
            }
            top
        }
    }

    /// The tree and the reference heap side by side, plus the state run
    /// generation keeps around them.
    struct Pair<K: SortKey> {
        tree: SelectionHeap<K>,
        heap: BinaryHeapRef<K>,
        budget: MemoryBudget,
        tag: u64,
        last: Option<K>,
        what: String,
    }

    impl<K: SortKey> Pair<K> {
        /// One pop from each (the tree's may have come out of `push_pop`
        /// already); they must agree. False once both are empty.
        fn pop(&mut self, popped: Option<(u64, Slot<K>)>) -> bool {
            let what = &self.what;
            let got = popped.or_else(|| self.tree.pop());
            let want = self.heap.pop();
            assert_eq!(got.is_some(), want.is_some(), "{what}: one side ran dry");
            let (Some((run, slot)), Some(want)) = (got, want) else { return false };
            assert_eq!(
                (run, &slot.row, slot.footprint),
                (want.run, &want.row, want.footprint),
                "{what}: pop differs"
            );
            assert_eq!(self.tree.len(), self.heap.items.len(), "{what}");
            self.budget.release(slot.footprint);
            assert!(run >= self.tag, "{what}: run tags went backwards");
            self.tag = run;
            self.last = Some(slot.row.key);
            true
        }

        fn over_budget(&self) -> bool {
            self.budget.used() > self.budget.limit()
        }

        /// One row into both, tagged for the run it can extend; with
        /// `spill` the tree takes it by `push_pop` and the pop is checked.
        fn enter(&mut self, row: Row<K>, spill: bool) {
            let footprint = row_footprint(&row);
            let run = match &self.last {
                Some(last) if self.heap.order.precedes(&row.key, last) => self.tag + 1,
                _ => self.tag,
            };
            let node = self.tree.node_for(run, &row.key);
            self.budget.charge(footprint);
            self.heap.push(run, row.clone(), footprint);
            let slot = Slot { row, footprint };
            if spill {
                let out = self.tree.push_pop(node, slot);
                self.pop(Some(out));
            } else {
                self.tree.push(node, slot);
            }
        }
    }

    /// Drives both with one seeded stream of the steps run generation makes
    /// (push into a free leaf, push-then-spill in one replay, vacate without
    /// replace, fold at the winner) under a budget that is shrunk and grown
    /// mid-stream, and requires the same `(run, row, footprint)` at every
    /// pop; a row's payload starts with its arrival number, so equal keys
    /// must also leave in arrival order. Returns the leaves the tree ended
    /// with.
    fn pops_match_reference<K: SortKey>(
        order: SortOrder,
        ovc: bool,
        fold: bool,
        seed: u64,
        key: impl Fn(u64) -> K,
    ) -> usize {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let row_bytes = row_footprint(&Row::new(key(0), vec![0u8; 28]));
        let mut p = Pair {
            tree: SelectionHeap::<K>::new(order),
            heap: BinaryHeapRef { items: Vec::new(), order, ovc_enabled: ovc, seq: 0 },
            budget: MemoryBudget::new(40 * row_bytes),
            tag: 0,
            last: None,
            what: format!("{order:?} ovc={ovc} fold={fold} seed={seed}"),
        };
        p.tree.ovc_enabled = ovc;
        for arrival in 0..4_000u64 {
            match arrival % 1_000 {
                // Shrink: several vacates in a row, nothing takes the leaves.
                300 => p.budget.handle().set_limit(12 * row_bytes),
                // Grow: pushes past the initial leaf count, the tree doubles.
                600 => p.budget.handle().set_limit(200 * row_bytes),
                900 => p.budget.handle().set_limit(40 * row_bytes),
                _ => {}
            }
            let mut payload = arrival.to_le_bytes().to_vec();
            payload.resize(8 + rng.gen_range(0..40usize), 0);
            let row = Row::new(key(rng.gen_range(0..u64::MAX)), payload);
            let footprint = row_footprint(&row);
            let run = match &p.last {
                Some(last) if order.precedes(&row.key, last) => p.tag + 1,
                _ => p.tag,
            };
            let node = p.tree.node_for(run, &row.key);
            let want = p.heap.items.first_mut().filter(|t| t.run == run && t.row.key == row.key);
            let got = p.tree.top_if(&node, &row.key);
            assert_eq!(got.is_some(), want.is_some(), "{}: who is the winner", p.what);
            if let (true, Some(got), Some(want)) = (fold, got, want) {
                // Fold at the winner: its row grows in place, in both.
                let mut grown = got.row.payload.to_vec();
                grown.push(0xF0);
                got.row.payload = grown.into();
                let grown_footprint = row_footprint(&got.row);
                p.budget.resize_row(got.footprint, grown_footprint);
                got.footprint = grown_footprint;
                (want.row, want.footprint) = (got.row.clone(), grown_footprint);
                continue;
            }
            p.budget.charge(footprint);
            p.heap.push(run, row.clone(), footprint);
            let slot = Slot { row, footprint };
            if p.over_budget() && !p.tree.is_empty() {
                let out = p.tree.push_pop(node, slot);
                p.pop(Some(out));
            } else {
                p.tree.push(node, slot);
            }
            while p.over_budget() && p.tree.len() > 1 {
                p.pop(None);
            }
        }
        while p.pop(None) {}
        assert_eq!(p.budget.used(), 0, "{}: footprints leaked", p.what);
        let (ovc_cmps, full_cmps) = p.tree.cmp_counts();
        assert!(ovc_cmps > 0, "{}", p.what);
        if ovc && K::norm_prefix_is_exact() {
            assert_eq!(full_cmps, 0, "{}: exact prefixes never need the key", p.what);
        }
        p.tree.slots.len()
    }

    #[test]
    fn tree_pops_what_the_binary_heap_popped() {
        use histok_types::{BytesKey, F64Key, KeyPair};
        let mut seed = 0;
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            for ovc in [true, false] {
                for fold in [true, false] {
                    seed += 1;
                    // Duplicate-heavy: 37 values, stability is by arrival.
                    let leaves = pops_match_reference(order, ovc, fold, seed, |r| r % 37);
                    assert!(leaves > INITIAL_LEAVES, "the stream must make the tree double");
                    pops_match_reference(order, ovc, fold, seed, |r| {
                        F64Key((r % 2_000) as f64 - 1_000.0)
                    });
                    // Prefixes shared past byte 8: the full key decides.
                    pops_match_reference(order, ovc, fold, seed, |r| {
                        BytesKey::new(format!("lineitem-{:05}", r % 500))
                    });
                    pops_match_reference(order, ovc, fold, seed, |r| KeyPair(r % 5, (r >> 8) % 50));
                }
            }
        }
    }

    /// The trees the winner's payload prefetch meets: empty payloads, a
    /// root left vacant by popping the last row (and a pop past it), and a
    /// tree grown past its first leaves, with payload lengths either side
    /// of every line the hint steps over. Each pop must be the reference's.
    #[test]
    fn prefetch_edges_pop_what_the_binary_heap_popped() {
        use histok_types::Bytes;
        let order = SortOrder::Ascending;
        let mut p = Pair {
            tree: SelectionHeap::<u64>::new(order),
            heap: BinaryHeapRef { items: Vec::new(), order, ovc_enabled: true, seq: 0 },
            budget: MemoryBudget::new(1 << 30),
            tag: 0,
            last: None,
            what: "prefetch edges".into(),
        };
        // A one-row tree popped to empty: its root is vacant.
        p.enter(Row::new(5, Bytes::new()), false);
        assert!(p.pop(None));
        assert!(!p.pop(None));
        // Empty payloads: 20 takes 10's leaf, 15 precedes the winner 20 and
        // never enters, 30 takes 20's leaf; then empty again.
        p.enter(Row::new(10, Bytes::new()), false);
        p.enter(Row::new(20, Bytes::new()), true);
        p.enter(Row::new(15, Bytes::new()), true);
        p.enter(Row::new(30, Bytes::new()), true);
        assert!(p.pop(None));
        assert!(p.tree.is_empty());
        let lens = [0, 1, 63, 64, 65, 82, 127, 128, 129, 300];
        let row =
            |i: u64| Row::new(i * 7_919 % 1_009, vec![i as u8; lens[i as usize % lens.len()]]);
        for i in 0..300 {
            p.enter(row(i), false);
        }
        assert!(p.tree.slots.len() > INITIAL_LEAVES, "the tree must have doubled");
        for i in 300..600 {
            p.enter(row(i), true);
        }
        while p.pop(None) {}
        assert_eq!(p.budget.used(), 0);
    }

    fn catalog(order: SortOrder) -> (MemoryBackend, Arc<RunCatalog<u64>>) {
        let be = MemoryBackend::new();
        let cat = Arc::new(RunCatalog::new(Arc::new(be.clone()), "rs", order, IoStats::new()));
        (be, cat)
    }

    fn read_all(cat: &RunCatalog<u64>) -> Vec<Vec<u64>> {
        cat.runs().iter().map(|m| cat.open(m).unwrap().map(|r| r.unwrap().key).collect()).collect()
    }

    #[test]
    fn sorted_input_yields_one_long_run() {
        let (_be, cat) = catalog(SortOrder::Ascending);
        // Budget for ~10 rows; 100 pre-sorted rows should produce ONE run —
        // the signature behaviour of replacement selection.
        let mut gen = ReplacementSelection::new(cat.clone(), 10 * 60);
        let mut obs = NoopObserver;
        for k in 0..100u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let runs = read_all(&cat);
        assert_eq!(runs.len(), 1, "sorted input must form a single run");
        assert_eq!(runs[0], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn reverse_input_yields_memory_sized_runs() {
        let (_be, cat) = catalog(SortOrder::Ascending);
        let mut gen = ReplacementSelection::new(cat.clone(), 10 * 60);
        let mut obs = NoopObserver;
        for k in (0..100u64).rev() {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let runs = read_all(&cat);
        // Reverse input defeats replacement selection: every arrival is
        // smaller than the last write, so runs are ~memory-sized.
        assert!(runs.len() >= 5, "expected many runs, got {}", runs.len());
        // Each run individually sorted; union == input.
        let mut all: Vec<u64> = runs.iter().flatten().copied().collect();
        for run in &runs {
            assert!(run.windows(2).all(|w| w[0] <= w[1]));
        }
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fold_at_insert_collapses_root_duplicates() {
        use crate::fold::{FoldSpec, FoldStats};
        use histok_types::{decode_count, AggregateOp, Bytes};
        let (_be, cat) = catalog(SortOrder::Ascending);
        let agg = AggregateOp::Count.aggregator();
        let stats = FoldStats::new();
        // Budget for ~4 rows — a constant key folds at the root instead of
        // spilling, so the whole stream fits without a single flush.
        let row_bytes = row_footprint(&Row::new(0u64, agg.init(Bytes::new())));
        let mut gen = ReplacementSelection::new(cat.clone(), 4 * row_bytes)
            .with_fold(FoldSpec::new(agg.clone()).with_stats(stats.clone()));
        let mut obs = NoopObserver;
        for _ in 0..1000 {
            gen.push(Row::new(5u64, agg.init(Bytes::new())), &mut obs).unwrap();
        }
        assert_eq!(gen.buffered_rows(), 1, "duplicates of the root must fold, not accumulate");
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let runs = cat.runs();
        assert_eq!(runs.len(), 1);
        let rows: Vec<Row<u64>> = cat.open(&runs[0]).unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, 5);
        assert_eq!(decode_count(&rows[0].payload), 1000);
        drop(gen);
        let snap = stats.snapshot();
        assert_eq!(snap.rows_folded, 999);
        assert!(snap.bytes_folded_pre_spill > 0);
    }

    #[test]
    fn random_input_runs_average_about_twice_memory() {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let (_be, cat) = catalog(SortOrder::Ascending);
        let mut keys: Vec<u64> = (0..4000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(7));
        // Budget ≈ 100 rows.
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = ReplacementSelection::new(cat.clone(), 100 * row_bytes);
        let mut obs = NoopObserver;
        for k in keys {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let runs = read_all(&cat);
        let avg = 4000.0 / runs.len() as f64;
        assert!(
            (140.0..260.0).contains(&avg),
            "expected ~2x memory (200) rows per run, got {avg:.0} over {} runs",
            runs.len()
        );
    }

    #[test]
    fn run_limit_caps_physical_runs() {
        let (_be, cat) = catalog(SortOrder::Ascending);
        let mut gen = ReplacementSelection::new(cat.clone(), 10 * 60).with_run_limit(8);
        let mut obs = NoopObserver;
        for k in 0..100u64 {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        for run in read_all(&cat) {
            assert!(run.len() <= 8, "run of {} rows exceeds limit", run.len());
        }
    }

    #[test]
    fn keep_in_memory_returns_sorted_residue() {
        let (_be, cat) = catalog(SortOrder::Ascending);
        // Large budget: nothing spills.
        let mut gen = ReplacementSelection::new(cat.clone(), 1 << 20);
        let mut obs = NoopObserver;
        for k in [5u64, 1, 9, 3, 7] {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::KeepInMemory).unwrap();
        assert!(cat.is_empty(), "no runs expected");
        assert_eq!(residue.len(), 1);
        assert_eq!(residue[0].iter().map(|r| r.key).collect::<Vec<_>>(), vec![1, 3, 5, 7, 9]);
        assert_eq!(gen.buffered_rows(), 0);
        assert_eq!(gen.buffered_bytes(), 0);
    }

    #[test]
    fn residue_may_span_two_selection_runs() {
        let (_be, cat) = catalog(SortOrder::Ascending);
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = ReplacementSelection::new(cat.clone(), 4 * row_bytes);
        let mut obs = NoopObserver;
        // Force some spills, then feed keys below the last written key so
        // next-run entries exist at finish time.
        for k in [10u64, 20, 30, 40, 50, 60, 2, 1] {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::KeepInMemory).unwrap();
        for seq in &residue {
            let keys: Vec<u64> = seq.iter().map(|r| r.key).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "residue {keys:?} unsorted");
        }
        // All 8 keys are either in runs or residue, exactly once.
        let mut all: Vec<u64> = read_all(&cat).into_iter().flatten().collect::<Vec<_>>();
        all.extend(residue.iter().flatten().map(|r| r.key));
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn residue_is_one_sorted_vec_per_selection_run() {
        let (_be, cat) = catalog(SortOrder::Ascending);
        let row_bytes = row_footprint(&Row::key_only(0u64));
        let mut gen = ReplacementSelection::new(cat.clone(), 4 * row_bytes);
        let mut obs = NoopObserver;
        // 10..40 spill as run 0; 50 and 60 still extend it, 2 and 1 sort
        // before the last written key and wait for run 1.
        for k in [10u64, 20, 30, 40, 50, 60, 2, 1] {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        let residue = gen.finish(&mut obs, ResiduePolicy::KeepInMemory).unwrap();
        let keys: Vec<Vec<u64>> =
            residue.iter().map(|seq| seq.iter().map(|r| r.key).collect()).collect();
        assert_eq!(keys, vec![vec![50, 60], vec![1, 2]]);
        assert_eq!(read_all(&cat), vec![vec![10, 20, 30, 40]]);
        assert_eq!((gen.buffered_rows(), gen.buffered_bytes()), (0, 0));
    }

    #[test]
    fn observer_eliminates_rows_at_spill_time() {
        use crate::observer::SpillObserver;
        struct CutAbove(u64, Vec<u64>);
        impl SpillObserver<u64> for CutAbove {
            fn should_eliminate(&mut self, key: &u64) -> bool {
                *key > self.0
            }
            fn row_spilled(&mut self, key: &u64) {
                self.1.push(*key);
            }
        }
        let (_be, cat) = catalog(SortOrder::Ascending);
        let mut gen = ReplacementSelection::new(cat.clone(), 5 * 60);
        let mut obs = CutAbove(49, Vec::new());
        for k in (0..100u64).rev() {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let spilled: Vec<u64> = read_all(&cat).into_iter().flatten().collect();
        assert!(spilled.iter().all(|&k| k <= 49), "eliminated row was spilled");
        assert_eq!(obs.1.len(), spilled.len());
    }

    #[test]
    fn descending_order_runs_descend() {
        let be = MemoryBackend::new();
        let cat: Arc<RunCatalog<u64>> =
            Arc::new(RunCatalog::new(Arc::new(be), "d", SortOrder::Descending, IoStats::new()));
        let mut gen = ReplacementSelection::new(cat.clone(), 5 * 60);
        let mut obs = NoopObserver;
        for k in [3u64, 9, 1, 7, 5, 2, 8, 4, 6, 0, 10, 12, 11] {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        for m in cat.runs() {
            let keys: Vec<u64> = cat.open(&m).unwrap().map(|r| r.unwrap().key).collect();
            assert!(keys.windows(2).all(|w| w[0] >= w[1]), "run {keys:?} not descending");
        }
    }

    #[test]
    fn run_estimate_adapts_to_wide_payload_rows() {
        use crate::observer::SpillObserver;
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

        /// Records every `run_started` estimate and the actual length of
        /// each finished run.
        #[derive(Default)]
        struct RunSizes {
            estimates: Vec<u64>,
            lengths: Vec<u64>,
            current: u64,
        }
        impl SpillObserver<u64> for RunSizes {
            fn run_started(&mut self, estimated_rows: u64) {
                self.estimates.push(estimated_rows);
                self.current = 0;
            }
            fn row_spilled(&mut self, _key: &u64) {
                self.current += 1;
            }
            fn run_finished(&mut self) {
                self.lengths.push(self.current);
            }
        }

        let (_be, cat) = catalog(SortOrder::Ascending);
        let payload = 400usize;
        let row_bytes = row_footprint(&Row::new(0u64, vec![0u8; payload]));
        // Budget for ~50 of these wide rows. A non-adaptive 64-byte
        // estimate would claim ~2 × budget/64 ≈ 14 × the real capacity.
        let mut gen = ReplacementSelection::new(cat.clone(), 50 * row_bytes);
        let mut obs = RunSizes::default();
        let mut keys: Vec<u64> = (0..3_000).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(17));
        for k in keys {
            gen.push(Row::new(k, vec![0u8; payload]), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();

        assert!(obs.lengths.len() >= 5, "expected several runs");
        // Truth: average length of the full runs (the final run is
        // truncated by end-of-input).
        let full = &obs.lengths[..obs.lengths.len() - 1];
        let truth = full.iter().sum::<u64>() as f64 / full.len() as f64;
        for (i, &est) in obs.estimates.iter().enumerate() {
            assert!(
                (est as f64) <= 2.0 * truth && (est as f64) >= truth / 2.0,
                "estimate {est} for run {i} is not within 2x of observed \
                 average run length {truth:.0}",
            );
        }
    }

    #[test]
    fn duplicate_keys_are_all_preserved() {
        let (_be, cat) = catalog(SortOrder::Ascending);
        let mut gen = ReplacementSelection::new(cat.clone(), 5 * 60);
        let mut obs = NoopObserver;
        for _ in 0..50 {
            gen.push(Row::key_only(7u64), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let total: usize = read_all(&cat).iter().map(Vec::len).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn prefix_path_matches_full_comparisons() {
        // Same shuffled input through the prefix fast path and the plain
        // comparator must produce identical runs, for both orders.
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let mut keys: Vec<u64> = (0..500).map(|k| k % 97).collect();
            keys.shuffle(&mut StdRng::seed_from_u64(11));
            let run_one = |ovc: bool| -> Vec<Vec<u64>> {
                let be = MemoryBackend::new();
                let cat: Arc<RunCatalog<u64>> =
                    Arc::new(RunCatalog::new(Arc::new(be), "p", order, IoStats::new()));
                let mut gen = ReplacementSelection::new(cat.clone(), 20 * 60).with_ovc(ovc, None);
                let mut obs = NoopObserver;
                for &k in &keys {
                    gen.push(Row::key_only(k), &mut obs).unwrap();
                }
                gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
                read_all(&cat)
            };
            assert_eq!(run_one(true), run_one(false), "order = {order:?}");
        }
    }

    #[test]
    fn u64_keys_never_need_full_comparisons() {
        // u64 normalizes to exactly 8 bytes, so the prefix is the whole
        // key: the full comparator must never run.
        let stats = CmpStats::new();
        let (_be, cat) = catalog(SortOrder::Ascending);
        let mut gen =
            ReplacementSelection::new(cat.clone(), 10 * 60).with_ovc(true, Some(stats.clone()));
        let mut obs = NoopObserver;
        for k in [5u64, 2, 8, 2, 9, 1, 7, 7, 3, 0, 6, 4] {
            gen.push(Row::key_only(k), &mut obs).unwrap();
        }
        gen.finish(&mut obs, ResiduePolicy::SpillToRuns).unwrap();
        let (ovc, full) = gen.cmp_counts();
        assert!(ovc > 0);
        assert_eq!(full, 0, "exact prefixes must never fall back");
        drop(gen);
        let snap = stats.snapshot();
        assert_eq!((snap.ovc_cmps, snap.full_cmps), (ovc, 0));
    }
}
