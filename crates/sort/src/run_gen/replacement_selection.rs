//! Replacement selection — pipelined run generation, batched.
//!
//! The classic tournament method (Knuth TAOCP vol. 3, §5.4.1): the smallest
//! buffered row that can still extend the current run is written next, and
//! rows that sort before the last key out wait for the *next* run, so runs
//! average twice the memory on random input and input never waits for a sort
//! of the whole workspace (the paper's reason F1 uses it, §3.1.3).
//!
//! This is Larson's *batched* variant ("External Sorting: Run Formation
//! Revisited", IEEE TKDE 2003), whose leaves are sorted *mini-runs*. Rows
//! park in a slab; an arriving row is listed as `(prefix, slot)` in a fill
//! buffer. Over budget, the buffer is sorted ([`BatchSort`]'s stable radix
//! sort, then full keys inside prefix ties for wide keys) and split at the
//! last key out: the rows after it become a leaf of the current run, the
//! rows before it wait for the next run, which enters as one leaf of a tree
//! sized afresh. Then rows leave in `(run, key, seq)` order until room for
//! `B` rows is free, and one loop writes them, Algorithm 1 per row. `seq`
//! numbers mini-runs, so equal keys leave in arrival order; fold mode folds
//! equal keys as a mini-run forms, into an equal winner on arrival, and into
//! the row that left before. The tree is a *winner* tree whose replays keep
//! each match's winner by conditional moves (DESIGN.md §7 has the compiled
//! loop of [`climb`]); its ~2M/B leaves stay in L1.
//!
//! [`BatchSort`]: crate::run_gen::BatchSort

use std::collections::BTreeMap;
use std::hint::select_unpredictable;
use std::sync::Arc;

use histok_storage::{RunCatalog, RunWriter};
use histok_types::{Aggregator, Result, Row, SortKey, SortOrder};

use crate::budget::{row_footprint, MemoryBudget};
use crate::cmp_stats::CmpStats;
use crate::fold::FoldSpec;
use crate::observer::SpillObserver;
use crate::run_gen::batch_sort::{fold_sorted_pairs, sort_pairs};
use crate::run_gen::{ResiduePolicy, RunGenerator};

/// Fallback bytes-per-row estimate before any row has been observed.
const FALLBACK_ROW_BYTES: usize = 64;

/// Leaves of the first allocation; the tree doubles from here.
const INITIAL_LEAVES: usize = 16;

/// Fill buffers per memory load: `B` is the budget's capacity in rows over
/// this. A larger `B` plays fewer matches per row, but the tree then holds
/// up to `B` rows fewer than the budget, and runs are shorter.
const BATCHES_PER_LOAD: u64 = 24;

/// One tree node: where a mini-run's head row stands in the order, and the
/// leaf.
#[derive(Clone, Copy)]
struct Node {
    run: u64,
    /// First 8 normalized key bytes, complemented for descending sorts so
    /// that a smaller value always pops first (0 with the fast path off).
    prefix: u64,
    /// The mini-run's formation number: arrival order across mini-runs.
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
/// when `KEY_TIES` and two heads tie on `(run, prefix)`; the caller settles
/// that match on full keys and calls again. The winner stays in four
/// scalars and is selected field by field: see the module doc.
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

/// How far ahead of the row being written the write loop hints: a row's
/// payload this many rows ahead, its slab slot twice as far.
const PREFETCH_AHEAD: usize = 8;

/// Asks the CPU to start loading the cache lines of `data`'s first
/// [`PREFETCH_LINES`] × 64 bytes, so that the load overlaps the work before
/// they are read instead of stalling the read. A hint changes when a line
/// arrives, never what the program reads. A no-op off x86-64.
#[inline]
#[allow(unsafe_code)]
fn prefetch<T: ?Sized>(data: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = std::ptr::from_ref(data).cast::<u8>();
        let len = std::mem::size_of_val(data).min(PREFETCH_LINES * 64);
        for offset in (0..len).step_by(64).chain(len.checked_sub(1)) {
            // SAFETY: `_mm_prefetch` needs SSE, which is part of the x86-64
            // baseline, so every x86-64 target has it. A prefetch is a
            // hint: it never faults, whatever the address, and reads
            // nothing into the program; the address is inside `data`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_add(offset).cast()) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

/// Where buffered rows park: a slot keeps its row until the row leaves.
/// A row costs its slot, a 16-byte pair and a free-list word, against the
/// 16 bytes [`row_footprint`] charges (ROADMAP item 1).
struct Slab<K> {
    slots: Vec<Option<Row<K>>>,
    free: Vec<u32>,
}

impl<K> Slab<K> {
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn insert(&mut self, row: Row<K>) -> u32 {
        let Some(i) = self.free.pop() else {
            self.slots.push(Some(row));
            return (self.slots.len() - 1) as u32;
        };
        self.slots[i as usize] = Some(row);
        i
    }

    fn get(&self, i: u32) -> &Row<K> {
        self.slots[i as usize].as_ref().expect("a listed slot holds its row")
    }

    fn take(&mut self, i: u32) -> Row<K> {
        self.free.push(i);
        self.slots[i as usize].take().expect("a listed slot holds its row")
    }
}

/// A row that left the tree and waits in its slot to be written: run tag,
/// output-order prefix, slot.
type Leaving = (u64, u64, u32);

/// Rows kept in memory at the end of input, by run tag.
type Residue<K> = BTreeMap<u64, Vec<Row<K>>>;

/// A leaf: one sorted mini-run of `(prefix, slot)` pairs, and the next one
/// to leave.
#[derive(Default)]
struct MiniRun {
    pairs: Box<[(u64, u32)]>,
    next: usize,
}

/// The slab, the fill buffer and the tree over mini-runs, ordered by `(run,
/// key in output order, seq)`.
///
/// Matches compare normalized key prefixes: differing prefixes decide a
/// match outright, and for fixed-width keys of at most 8 bytes
/// ([`SortKey::norm_prefix_is_exact`]) equal prefixes are equal keys, so
/// formation order decides. Only wider keys with equal prefixes, and every
/// same-run match with the fast path off, compare full keys.
struct SelectionTree<K: SortKey> {
    nodes: Vec<Node>,
    leaves: Vec<MiniRun>,
    free_leaves: Vec<usize>,
    slab: Slab<K>,
    /// Arrived rows not yet in a mini-run, in arrival order until sorted.
    fill: Vec<(u64, u32)>,
    /// Sorted pieces of the next run (of tag `pending_run`), in formation
    /// order: none can leave before the current run ends.
    pending: Vec<(u64, u32)>,
    pending_run: u64,
    scratch: Vec<(u64, u32)>,
    seq: u64,
    order: SortOrder,
    ovc_enabled: bool,
    /// Matches played (one per level per replay) and key comparisons made
    /// by sorts; `full_cmps` of them needed the full keys.
    cmps: u64,
    full_cmps: u64,
}

impl<K: SortKey> SelectionTree<K> {
    fn new(order: SortOrder) -> Self {
        SelectionTree {
            nodes: Vec::new(),
            leaves: Vec::new(),
            free_leaves: Vec::new(),
            slab: Slab { slots: Vec::new(), free: Vec::new() },
            fill: Vec::new(),
            pending: Vec::new(),
            pending_run: 0,
            scratch: Vec::new(),
            seq: 0,
            order,
            ovc_enabled: true,
            cmps: 0,
            full_cmps: 0,
        }
    }

    /// `(prefix-decided, full-key)` match counts.
    fn cmp_counts(&self) -> (u64, u64) {
        (self.cmps - self.full_cmps, self.full_cmps)
    }

    /// True if full keys are what separates rows with equal `(run, prefix)`.
    fn key_ties(&self) -> bool {
        !(self.ovc_enabled && K::norm_prefix_is_exact())
    }

    /// The prefix a key is ordered by: in output order, 0 with the fast
    /// path off.
    fn prefix(&self, key: &K) -> u64 {
        match (self.ovc_enabled, self.order) {
            (false, _) => 0,
            (true, SortOrder::Ascending) => key.norm_prefix(),
            (true, SortOrder::Descending) => !key.norm_prefix(),
        }
    }

    /// The slot of the row at the head of `node`'s mini-run.
    fn head(&self, node: &Node) -> u32 {
        let leaf = &self.leaves[node.leaf];
        leaf.pairs[leaf.next].1
    }

    fn head_key(&self, node: &Node) -> &K {
        &self.slab.get(self.head(node)).key
    }

    /// Parks an arriving row and lists it in the fill buffer.
    fn admit(&mut self, row: Row<K>) {
        let prefix = self.prefix(&row.key);
        let slot = self.slab.insert(row);
        self.fill.push((prefix, slot));
    }

    /// True when the tree holds no row.
    fn dry(&self) -> bool {
        self.nodes.get(1).is_none_or(|top| top.run == VACANT.run)
    }

    /// Sorts `pairs` (the fill buffer or the pending rows) into output
    /// order, keeping their order among equal keys.
    fn sort(&mut self, pairs: &mut Vec<(u64, u32)>) {
        let (order, slab, exact) = (self.order, &self.slab, !self.key_ties());
        let cmps = sort_pairs(pairs, &mut self.scratch, exact, |a, b| {
            order.cmp_keys(&slab.get(a).key, &slab.get(b).key)
        });
        self.cmps += cmps;
        self.full_cmps += cmps;
    }

    fn sort_fill(&mut self) {
        let mut fill = std::mem::take(&mut self.fill);
        self.sort(&mut fill);
        self.fill = fill;
    }

    /// Folds every row of the sorted fill buffer into the first row of its
    /// key; returns the rows and encoded bytes absorbed.
    fn fold_fill(&mut self, agg: &dyn Aggregator, budget: &mut MemoryBudget) -> (u64, u64) {
        let (mut fill, mut rows, mut bytes) = (std::mem::take(&mut self.fill), 0, 0);
        fold_sorted_pairs(&mut fill, |acc, dup| {
            let fold = self.slab.get(acc).key == self.slab.get(dup).key;
            if fold {
                (rows, bytes) = (rows + 1, bytes + self.fold_slot(acc, dup, agg, budget));
            }
            fold
        });
        self.fill = fill;
        (rows, bytes)
    }

    /// Plants the sorted fill buffer: the rows that precede `bound` join
    /// the pending rows of run `tag + 1`, the others form a mini-run of run
    /// `tag`.
    fn plant_fill(&mut self, bound: Option<&K>, tag: u64) {
        let split = bound.map_or(0, |b| {
            let (bp, ties, order, slab) = (self.prefix(b), self.key_ties(), self.order, &self.slab);
            self.fill.partition_point(|&(p, s)| {
                p < bp || (ties && p == bp && order.precedes(&slab.get(s).key, b))
            })
        });
        if split > 0 {
            debug_assert!(self.pending.is_empty() || self.pending_run == tag + 1);
            self.pending_run = tag + 1;
            self.pending.extend_from_slice(&self.fill[..split]);
        }
        let now = self.fill[split..].into();
        self.fill.clear();
        self.plant(tag, now);
    }

    /// Makes `pairs`, sorted, a leaf of run `run`.
    fn plant(&mut self, run: u64, pairs: Box<[(u64, u32)]>) {
        let Some(&(prefix, _)) = pairs.first() else { return };
        let leaf = self.free_leaves.pop().unwrap_or_else(|| self.grow());
        self.leaves[leaf] = MiniRun { pairs, next: 0 };
        self.seq += 1;
        self.replay(leaf, Node { run, prefix, seq: self.seq, leaf });
    }

    fn replay(&mut self, leaf: usize, mut w: Node) {
        w.leaf = leaf;
        let mut i = self.leaves.len() + leaf;
        self.nodes[i] = w;
        self.cmps += u64::from(self.leaves.len().trailing_zeros());
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
            let keys = self.order.cmp_keys(self.head_key(&sib), self.head_key(&w));
            i >>= 1;
            self.nodes[i] = if keys.then(sib.seq.cmp(&w.seq)).is_lt() { sib } else { w };
        }
    }

    /// Doubles the leaves and returns the first new one; the rest go on the
    /// free stack. The old tree becomes the left subtree of the new root
    /// (node `2^d + o` moves to `2^(d+1) + o`), the right one is vacant, so
    /// the root keeps its winner and no match is played.
    fn grow(&mut self) -> usize {
        let old = self.leaves.len();
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
        self.leaves.resize_with(new, MiniRun::default);
        self.free_leaves.extend((old + 1..new).rev());
        old
    }

    /// The winner's slot if its row is of run `run` and has exactly this key.
    fn top_if(&self, run: u64, key: &K) -> Option<u32> {
        let top = *self.nodes.get(1)?;
        let hit = top.run == run && top.prefix == self.prefix(key) && self.head_key(&top) == key;
        hit.then(|| self.head(&top))
    }

    /// Takes the winner out of the tree; its row stays in its slot until it
    /// is written.
    fn pop(&mut self) -> Option<Leaving> {
        if self.dry() && !self.pending.is_empty() {
            // The current run is out, and with it every leaf: the next run
            // enters as one mini-run into a tree sized afresh.
            (self.nodes, self.leaves, self.free_leaves) = Default::default();
            // The pending rows become the leaf, and the radix scratch that
            // sorted them, as large as a memory load, is let go.
            let mut pending = std::mem::take(&mut self.pending);
            self.sort(&mut pending);
            self.scratch = Vec::new();
            self.plant(self.pending_run, pending.into_boxed_slice());
        }
        let top = *self.nodes.get(1).filter(|top| top.run != VACANT.run)?;
        let leaf = &mut self.leaves[top.leaf];
        let (prefix, slot) = leaf.pairs[leaf.next];
        leaf.next += 1;
        let head = match leaf.pairs.get(leaf.next) {
            Some(&(prefix, _)) => Node { prefix, ..top },
            None => {
                *leaf = MiniRun::default();
                self.free_leaves.push(top.leaf);
                VACANT
            }
        };
        self.replay(top.leaf, head);
        Some((top.run, prefix, slot))
    }

    /// Folds the row in slot `dup` into the one in slot `acc` and frees
    /// `dup`; returns the encoded bytes absorbed.
    fn fold_slot(&mut self, acc: u32, dup: u32, agg: &dyn Aggregator, b: &mut MemoryBudget) -> u64 {
        let dup = self.slab.take(dup);
        b.release(row_footprint(&dup));
        self.fold_into(acc, &dup, agg, b)
    }

    /// Folds `dup`'s payload into the row in slot `acc`, re-charging its
    /// bytes; returns the encoded bytes absorbed.
    fn fold_into(
        &mut self,
        acc: u32,
        dup: &Row<K>,
        agg: &dyn Aggregator,
        b: &mut MemoryBudget,
    ) -> u64 {
        let bytes = dup.encoded_len() as u64;
        let Some(acc) = self.slab.slots[acc as usize].as_mut() else { return bytes };
        if let Some(folded) = agg.fold(&acc.payload, &dup.payload) {
            let before = row_footprint(acc);
            acc.payload = folded;
            b.resize_row(before, row_footprint(acc));
        }
        bytes
    }

    /// Rows leave in key order, not in the order they arrived, so the slot
    /// and payload of a row about to be written are usually cold lines: hint
    /// the payload of the row [`PREFETCH_AHEAD`] places after `chunk[i]`,
    /// and the slot of the one twice as far (DESIGN.md §7).
    #[inline]
    fn prefetch_ahead(&self, chunk: &[Leaving], i: usize) {
        if let Some(&(_, _, slot)) = chunk.get(i + 2 * PREFETCH_AHEAD) {
            prefetch(&self.slab.slots[slot as usize]);
        }
        if let Some(Some(ahead)) =
            chunk.get(i + PREFETCH_AHEAD).map(|&(_, _, slot)| &self.slab.slots[slot as usize])
        {
            prefetch(&ahead.payload[..]);
        }
    }
}

/// Pipelined run generation by batched replacement selection.
pub struct ReplacementSelection<K: SortKey> {
    catalog: Arc<RunCatalog<K>>,
    tree: SelectionTree<K>,
    budget: MemoryBudget,
    /// `B`, derived at every formation.
    batch: usize,
    /// Rows that left the tree and are not written yet, in output order.
    chunk: Vec<Leaving>,
    /// Fold mode: the last row to leave, written once another key leaves.
    held: Option<Leaving>,
    current_tag: u64,
    /// Last key written to the open physical run.
    last_written: Option<K>,
    writer: Option<RunWriter<K>>,
    rows_in_run: u64,
    /// Optional cap on physical run length ("limit run size to k").
    run_limit: Option<u64>,
    /// Shared sink the tree's comparison counters flush into on drop.
    cmp_stats: Option<CmpStats>,
    fold: Option<FoldSpec>,
    /// Rows and encoded bytes absorbed by folding; flushed to the spec's
    /// stats on drop.
    rows_folded: u64,
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
        let batch = batch_rows(&budget);
        ReplacementSelection {
            catalog,
            tree: SelectionTree::new(order),
            budget,
            batch,
            chunk: Vec::new(),
            held: None,
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
        self.tree.ovc_enabled = enabled;
        self.cmp_stats = stats;
        self
    }

    /// Enables equal-key folding: duplicates that meet in a mini-run, at
    /// the winner on arrival or on their way out are folded into one row
    /// instead of spilling twice. Duplicates split across runs still spill
    /// and are folded at merge time.
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

    /// The run tag of the last row to leave the tree and, unless a seal
    /// started a fresh file after it, its key: what a new mini-run splits at.
    fn bound(&self) -> (u64, Option<&K>) {
        match self.held.as_ref().or(self.chunk.last()) {
            Some(&(run, _, slot)) => (run, Some(&self.tree.slab.get(slot).key)),
            None => (self.current_tag, self.last_written.as_ref()),
        }
    }

    /// Sorts, folds and plants the fill buffer, then derives `B` again.
    fn form(&mut self) {
        self.tree.sort_fill();
        if let Some(fold) = &self.fold {
            let (rows, bytes) = self.tree.fold_fill(fold.agg.as_ref(), &mut self.budget);
            self.rows_folded += rows;
            self.bytes_folded += bytes;
        }
        let (tag, bound) = self.bound();
        let bound = bound.cloned();
        self.tree.plant_fill(bound.as_ref(), tag);
        self.batch = batch_rows(&self.budget);
    }

    /// Moves the next row in output order to the chunk, or folds it into
    /// the held row; forms the fill buffer first when the tree is dry.
    /// False once nothing is buffered.
    fn pop_next(&mut self) -> bool {
        if self.tree.dry() && !self.tree.fill.is_empty() {
            self.form();
        }
        let Some(leaving) = self.tree.pop() else { return false };
        let Some(fold) = &self.fold else {
            self.chunk.push(leaving);
            return true;
        };
        let slab = &self.tree.slab;
        match self.held {
            Some((run, _, held))
                if run == leaving.0 && slab.get(held).key == slab.get(leaving.2).key =>
            {
                self.rows_folded += 1;
                self.bytes_folded +=
                    self.tree.fold_slot(held, leaving.2, fold.agg.as_ref(), &mut self.budget);
            }
            _ => self.chunk.extend(self.held.replace(leaving)),
        }
        true
    }

    /// Lets rows leave until at most `keep` bytes stay charged (all of
    /// them for 0), at most `B` a chunk, written or moved to `residue` as
    /// [`write_chunk`](Self::write_chunk) says. The rows to pop are
    /// estimated at the average footprint; writing releases the exact
    /// bytes, and the loop goes round again if they were larger.
    fn drain(
        &mut self,
        keep: usize,
        obs: &mut dyn SpillObserver<K>,
        mut residue: Option<&mut Residue<K>>,
    ) -> Result<()> {
        loop {
            let over = if keep == 0 { usize::MAX } else { self.budget.used().saturating_sub(keep) };
            let rows = over.div_ceil(self.budget.avg_row_bytes(FALLBACK_ROW_BYTES)).min(self.batch);
            let mut popped = 0;
            while popped < rows && self.pop_next() {
                popped += 1;
            }
            self.write_chunk(obs, residue.as_deref_mut())?;
            if popped < rows || rows == 0 {
                return Ok(());
            }
        }
    }

    /// Takes a row that left the tree out of its slot, releasing its bytes.
    fn release(&mut self, slot: u32) -> Row<K> {
        let row = self.tree.slab.take(slot);
        self.budget.release(row_footprint(&row));
        row
    }

    /// Over budget, frees room for a full fill buffer.
    fn spill_if_over(&mut self, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        if self.budget.used() <= self.budget.limit() {
            return Ok(());
        }
        if !self.tree.fill.is_empty() {
            self.form();
        }
        let room = self.batch * self.budget.avg_row_bytes(FALLBACK_ROW_BYTES);
        self.drain(self.budget.limit().saturating_sub(room), obs, None)
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

    /// Writes the chunk, Algorithm 1 per row, closing runs at run-tag
    /// changes and seals; or, given `residue`, moves the rows that survive
    /// the cutoff there.
    fn write_chunk(
        &mut self,
        obs: &mut dyn SpillObserver<K>,
        mut residue: Option<&mut Residue<K>>,
    ) -> Result<()> {
        let mut chunk = std::mem::take(&mut self.chunk);
        let mask = match self.tree.order {
            SortOrder::Ascending => 0,
            SortOrder::Descending => !0,
        };
        for i in 0..chunk.len() {
            self.tree.prefetch_ahead(&chunk, i);
            let (run, prefix, slot) = chunk[i];
            let row = self.release(slot);
            // Algorithm 1 line 11: the cutoff may have sharpened since this
            // row was admitted — check again before paying for the write.
            if obs.should_eliminate(&row.key) {
                continue;
            }
            if let Some(by_tag) = residue.as_deref_mut() {
                by_tag.entry(run).or_default().push(row);
                continue;
            }
            if run != self.current_tag {
                debug_assert!(run > self.current_tag);
                self.close_run(obs)?;
                self.current_tag = run;
            }
            if self.writer.is_none() {
                self.writer = Some(self.catalog.start_run()?);
                obs.run_started(self.estimated_run_rows());
            }
            let writer = self.writer.as_mut().expect("writer just ensured");
            if self.tree.ovc_enabled {
                writer.append_with_prefix(&row, prefix ^ mask)?;
            } else {
                writer.append(&row)?;
            }
            obs.row_spilled(&row.key);
            self.last_written = Some(row.key);
            self.rows_in_run += 1;
            if self.run_limit.is_some_and(|l| self.rows_in_run >= l) {
                // Physical cap reached: seal this run; the same selection
                // run continues into a fresh file.
                self.close_run(obs)?;
            }
        }
        chunk.clear();
        self.chunk = chunk;
        Ok(())
    }
}

/// `B` for `budget`: its capacity in rows over [`BATCHES_PER_LOAD`], at least one.
fn batch_rows(budget: &MemoryBudget) -> usize {
    (budget.capacity_rows(FALLBACK_ROW_BYTES) / BATCHES_PER_LOAD).max(1) as usize
}

impl<K: SortKey> RunGenerator<K> for ReplacementSelection<K> {
    fn push(&mut self, row: Row<K>, obs: &mut dyn SpillObserver<K>) -> Result<()> {
        if let Some(fold) = &self.fold {
            // Fold on arrival: a row equal to the winner, and of its run,
            // never enters the slab, so no budget is charged for it.
            let (tag, bound) = self.bound();
            let tag = tag + u64::from(bound.is_some_and(|b| self.tree.order.precedes(&row.key, b)));
            if let Some(top) = self.tree.top_if(tag, &row.key) {
                self.rows_folded += 1;
                self.bytes_folded +=
                    self.tree.fold_into(top, &row, fold.agg.as_ref(), &mut self.budget);
                return self.spill_if_over(obs);
            }
        }
        let footprint = row_footprint(&row);
        self.budget.charge(footprint);
        self.tree.admit(row);
        // Mini-runs form when the budget runs over; this bounds the fill
        // buffer while nothing has to leave yet.
        if self.tree.fill.len() >= 2 * self.batch {
            self.form();
        }
        self.spill_if_over(obs)
    }

    fn finish(
        &mut self,
        obs: &mut dyn SpillObserver<K>,
        residue: ResiduePolicy,
    ) -> Result<Vec<Vec<Row<K>>>> {
        let mut by_tag = BTreeMap::new();
        let mut kept = (residue == ResiduePolicy::KeepInMemory).then_some(&mut by_tag);
        if !self.tree.fill.is_empty() {
            self.form();
        }
        self.drain(0, obs, kept.as_deref_mut())?;
        self.chunk.extend(self.held.take());
        self.write_chunk(obs, kept)?;
        self.close_run(obs)?;
        // The residue lives through the whole final merge: no spare room.
        by_tag.values_mut().for_each(Vec::shrink_to_fit);
        Ok(by_tag.into_values().filter(|v| !v.is_empty()).collect())
    }

    fn buffered_rows(&self) -> usize {
        self.tree.slab.len()
    }

    fn buffered_bytes(&self) -> usize {
        self.budget.used()
    }

    fn cmp_counts(&self) -> (u64, u64) {
        self.tree.cmp_counts()
    }

    fn set_fold(&mut self, fold: Option<FoldSpec>) {
        self.fold = fold;
    }
}

impl<K: SortKey> Drop for ReplacementSelection<K> {
    fn drop(&mut self) {
        if let Some(stats) = &self.cmp_stats {
            let (ovc_cmps, full_cmps) = self.tree.cmp_counts();
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
    use histok_types::Bytes;

    /// A sift-based binary heap over single rows, ordered by `(run, key,
    /// arrival)`: the reference the tree's pop sequences are compared with.
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

    /// Appends the duplicate to the accumulator: a fold whose result shows
    /// which rows were folded, and in which order.
    #[derive(Debug)]
    struct Concat;

    impl Aggregator for Concat {
        fn fold(&self, acc: &Bytes, dup: &Bytes) -> Option<Bytes> {
            Some([&acc[..], &dup[..]].concat().into())
        }
    }

    /// The tree and the reference heap driven by one schedule, plus the
    /// state run generation keeps around them: the run tag and key a new
    /// mini-run splits at, and the rows of the physical run (a seal at the
    /// run limit clears the key).
    struct Pair<K: SortKey> {
        tree: SelectionTree<K>,
        heap: BinaryHeapRef<K>,
        /// The reference's fill buffer, in arrival order.
        fill: Vec<(Row<K>, usize)>,
        budget: MemoryBudget,
        fold: bool,
        run_limit: Option<u64>,
        tag: u64,
        last: Option<K>,
        in_run: u64,
        what: String,
    }

    impl<K: SortKey> Pair<K> {
        fn new(order: SortOrder, ovc: bool, budget: usize, what: String) -> Self {
            let mut tree = SelectionTree::new(order);
            tree.ovc_enabled = ovc;
            Pair {
                tree,
                heap: BinaryHeapRef { items: Vec::new(), order, ovc_enabled: ovc, seq: 0 },
                fill: Vec::new(),
                budget: MemoryBudget::new(budget),
                fold: false,
                run_limit: None,
                tag: 0,
                last: None,
                in_run: 0,
                what,
            }
        }

        fn admit(&mut self, row: Row<K>) {
            let footprint = row_footprint(&row);
            self.budget.charge(footprint);
            self.fill.push((row.clone(), footprint));
            self.tree.admit(row);
        }

        /// One mini-run on both sides: the tree sorts, folds and splits its
        /// fill buffer; the reference folds the same rows with a stable sort
        /// and pushes each with the run the split gives it.
        fn form(&mut self) {
            let order = self.heap.order;
            let mut fill = std::mem::take(&mut self.fill);
            fill.sort_by(|a, b| order.cmp_keys(&a.0.key, &b.0.key));
            self.tree.sort_fill();
            if self.fold {
                self.tree.fold_fill(&Concat, &mut self.budget);
                fill.dedup_by(|dup, acc| {
                    let equal = dup.0.key == acc.0.key;
                    if equal {
                        // A clone's key may own fewer spare bytes than the
                        // tree's: charge the change, as the tree does.
                        let before = row_footprint(&acc.0);
                        acc.0.payload = [&acc.0.payload[..], &dup.0.payload[..]].concat().into();
                        acc.1 = acc.1 + row_footprint(&acc.0) - before;
                    }
                    equal
                });
            }
            self.tree.plant_fill(self.last.as_ref(), self.tag);
            for (row, footprint) in fill {
                let next = self.last.as_ref().is_some_and(|l| order.precedes(&row.key, l));
                self.heap.push(self.tag + u64::from(next), row, footprint);
            }
        }

        /// One pop from each; they must agree. False once both are empty.
        fn pop(&mut self) -> bool {
            let what = &self.what;
            let (got, want) = (self.tree.pop(), self.heap.pop());
            assert_eq!(got.is_some(), want.is_some(), "{what}: one side ran dry");
            let (Some((run, prefix, slot)), Some(want)) = (got, want) else { return false };
            let row = self.tree.slab.take(slot);
            assert_eq!(
                (run, &row, row_footprint(&row)),
                (want.run, &want.row, want.footprint),
                "{what}: pop differs"
            );
            assert_eq!(prefix, self.tree.prefix(&row.key), "{what}");
            assert_eq!(self.tree.slab.len(), self.heap.items.len() + self.fill.len(), "{what}");
            self.budget.release(want.footprint);
            assert!(run >= self.tag, "{what}: run tags went backwards");
            if run != self.tag {
                (self.tag, self.in_run) = (run, 0);
            }
            self.in_run += 1;
            self.last = Some(row.key);
            if self.run_limit.is_some_and(|l| self.in_run >= l) {
                (self.last, self.in_run) = (None, 0);
            }
            true
        }

        /// Run generation's schedule: pops until a fill buffer of `batch`
        /// rows fits again, forming the fill buffer when the tree is dry.
        fn spill_if_over(&mut self, batch: usize) {
            if self.budget.used() <= self.budget.limit() {
                return;
            }
            let room = batch * self.budget.avg_row_bytes(FALLBACK_ROW_BYTES);
            let keep = self.budget.limit().saturating_sub(room);
            while keep == 0 || self.budget.used() > keep {
                if self.tree.dry() && !self.fill.is_empty() {
                    self.form();
                }
                if !self.pop() {
                    break;
                }
            }
        }
    }

    /// Drives both with one seeded stream under run generation's schedule:
    /// a fill buffer of `B` rows forms a mini-run split at the last key to
    /// leave, and over budget rows leave until a buffer fits. The budget is
    /// shrunk to three rows (`B` = 1) and grown mid-stream, and for a while
    /// every row forms its own mini-run, so the tree doubles. Requires the
    /// same `(run, row, footprint)` at every pop; a row's payload starts with
    /// its arrival number, so equal keys must also leave in arrival order,
    /// and a fold shows which rows it joined. Returns the most leaves the
    /// tree had.
    fn pops_match_reference<K: SortKey>(
        order: SortOrder,
        (ovc, fold, run_limit): (bool, bool, Option<u64>),
        seed: u64,
        key: impl Fn(u64) -> K,
    ) -> usize {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let row_bytes = row_footprint(&Row::new(key(0), vec![0u8; 28]));
        let what = format!("{order:?} ovc={ovc} fold={fold} limit={run_limit:?} seed={seed}");
        let mut p = Pair::new(order, ovc, 40 * row_bytes, what);
        (p.fold, p.run_limit) = (fold, run_limit);
        let (mut batch, mut leaves) = (batch_rows(&p.budget), 0);
        for arrival in 0..4_000u64 {
            match arrival % 1_000 {
                300 => p.budget.handle().set_limit(3 * row_bytes),
                500 => p.budget.handle().set_limit(200 * row_bytes),
                900 => p.budget.handle().set_limit(40 * row_bytes),
                _ => {}
            }
            let mut payload = arrival.to_le_bytes().to_vec();
            payload.resize(8 + rng.gen_range(0..40usize), 0);
            p.admit(Row::new(key(rng.gen_range(0..u64::MAX)), payload));
            if p.fill.len() >= batch {
                p.form();
                leaves = leaves.max(p.tree.leaves.len());
                // One row per mini-run for a while: the tree must double.
                let single = (600..800).contains(&(arrival % 1_000));
                batch = if single { 1 } else { batch_rows(&p.budget) };
            }
            p.spill_if_over(batch);
        }
        if !p.fill.is_empty() {
            p.form();
        }
        while p.pop() {}
        assert_eq!(p.budget.used(), 0, "{}: footprints leaked", p.what);
        let (ovc_cmps, full_cmps) = p.tree.cmp_counts();
        assert!(ovc_cmps > 0, "{}", p.what);
        if ovc && K::norm_prefix_is_exact() {
            assert_eq!(full_cmps, 0, "{}: exact prefixes never need the key", p.what);
        }
        leaves
    }

    #[test]
    fn tree_pops_what_the_binary_heap_popped() {
        use histok_types::{BytesKey, F64Key, KeyPair};
        let mut seed = 0;
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            for ovc in [true, false] {
                for fold in [true, false] {
                    for limit in [None, Some(7)] {
                        seed += 1;
                        let mode = (ovc, fold, limit);
                        // Duplicate-heavy: 37 values, stability is by arrival.
                        let leaves = pops_match_reference(order, mode, seed, |r| r % 37);
                        assert!(leaves > INITIAL_LEAVES, "the stream must make the tree double");
                        pops_match_reference(order, mode, seed, |r| {
                            F64Key((r % 2_000) as f64 - 1_000.0)
                        });
                        // Prefixes shared past byte 8: the full key decides.
                        pops_match_reference(order, mode, seed, |r| {
                            BytesKey::new(format!("lineitem-{:05}", r % 500))
                        });
                        pops_match_reference(order, mode, seed, |r| KeyPair(r % 5, (r >> 8) % 50));
                    }
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
        let mut p = Pair::<u64>::new(SortOrder::Ascending, true, 1 << 30, "prefetch".into());
        // A one-row tree popped to empty: its root is vacant.
        p.admit(Row::new(5, Bytes::new()));
        p.form();
        assert!(p.pop());
        assert!(!p.pop());
        // Empty payloads, one mini-run of three and one of one.
        for k in [20, 10, 30] {
            p.admit(Row::new(k, Bytes::new()));
        }
        p.form();
        p.admit(Row::new(15, Bytes::new()));
        p.form();
        while p.pop() {}
        let lens = [0, 1, 63, 64, 65, 82, 127, 128, 129, 300];
        let row =
            |i: u64| Row::new(i * 7_919 % 1_009, vec![i as u8; lens[i as usize % lens.len()]]);
        for i in 0..300 {
            p.admit(row(i));
            if i % 3 == 0 {
                p.form();
            }
        }
        p.form();
        assert!(p.tree.leaves.len() > INITIAL_LEAVES, "the tree must have doubled");
        for i in 300..600 {
            p.admit(row(i));
            p.form();
            assert!(p.pop());
        }
        while p.pop() {}
        assert_eq!(p.budget.used(), 0);
    }

    /// Fold mode leaves every run duplicate-free, the counts adding up to
    /// the input, under budgets from three rows up and with a run limit.
    #[test]
    fn fold_leaves_no_key_twice_in_a_run() {
        use crate::fold::FoldSpec;
        use histok_types::{decode_count, AggregateOp};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let agg = AggregateOp::Count.aggregator();
        let row_bytes = row_footprint(&Row::new(0u64, agg.init(Bytes::new())));
        for (rows, limit) in [(3, None), (40, None), (40, Some(25)), (300, None)] {
            let (_be, cat) = catalog(SortOrder::Ascending);
            let mut gen = ReplacementSelection::new(cat.clone(), rows * row_bytes)
                .with_fold(FoldSpec::new(agg.clone()));
            if let Some(limit) = limit {
                gen = gen.with_run_limit(limit);
            }
            let mut rng = StdRng::seed_from_u64(rows as u64);
            for _ in 0..5_000 {
                gen.push(
                    Row::new(rng.gen_range(0..200u64), agg.init(Bytes::new())),
                    &mut NoopObserver,
                )
                .unwrap();
            }
            gen.finish(&mut NoopObserver, ResiduePolicy::SpillToRuns).unwrap();
            let mut total = 0;
            for meta in cat.runs().iter() {
                let run: Vec<Row<u64>> = cat.open(meta).unwrap().map(|r| r.unwrap()).collect();
                assert!(run.windows(2).all(|w| w[0].key < w[1].key), "budget of {rows} rows");
                total += run.iter().map(|r| decode_count(&r.payload)).sum::<u64>();
            }
            assert_eq!(total, 5_000, "budget of {rows} rows, limit {limit:?}");
        }
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
