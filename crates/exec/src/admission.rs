//! Admission control for concurrent top-k queries: one global memory pool
//! carved into revocable per-query leases.
//!
//! The paper assumes a fixed per-operator allocation ("the default memory
//! allocation for a top-k operator is 1 GB", §5.1.2). A server running N
//! queries cannot give each the full allocation — [`ServerBudget`] owns the
//! process-wide pool and grants each query a [`BudgetLease`]:
//!
//! * **Small queries** (estimated in-memory footprint under the server's
//!   threshold) admit immediately — they never spill, so making a dashboard
//!   `LIMIT 10` wait behind a bulk export would be absurd.
//! * **Spilling queries** wait FIFO until the pool can cover at least their
//!   minimum lease, then get the pool's best clamp of their desired
//!   workspace. While one waits, small queries take nothing from the pool.
//! * **Final merges** start through [`ServerBudget::begin_merge`]: FIFO,
//!   as many at once as their estimated results fit the pool, and always
//!   at least one.
//! * **Rebalancing**: when a lease is returned (query finished) or shrunk
//!   (run-generation → merge phase boundary), the freed bytes first admit
//!   queued queries in arrival order, then grow running leases toward
//!   their desired size — threaded live into each query's `MemoryBudget`
//!   through the shared [`BudgetHandle`], so a running sort simply buffers
//!   more rows before its next spill, no restart.
//! * **Fairness when oversubscribed**: a queued query at the head of the
//!   line may revoke the *surplus* (granted − minimum) of running leases.
//!   A small query's minimum is its whole grant, so its lease is never
//!   revoked.
//!   The revoked lease observes the smaller limit at its next budget check
//!   and drains at its next natural spill; the accounting credits the
//!   bytes immediately, accepting a bounded transient overcommit (the
//!   `MemoryBudget` tolerated-overage contract — see `sort/src/budget.rs`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use histok_sort::BudgetHandle;

/// Fleet-wide admission counters; snapshot via [`ServerBudget::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionMetrics {
    /// Leases granted (small + spilling).
    pub grants: u64,
    /// Queries admitted without queueing (small-query fast path).
    pub admitted_immediately: u64,
    /// Queries admitted through the spilling-query queue (whether or not
    /// they actually had to wait).
    pub queued_queries: u64,
    /// Total nanoseconds spent waiting in the admission queue.
    pub queued_ns_total: u64,
    /// Lease resizes after the initial grant: grows from freed memory,
    /// phase-boundary shrinks, and fairness revocations.
    pub rebalances: u64,
    /// Bytes revoked from running leases to unblock queued queries.
    pub revoked_bytes: u64,
    /// High-water mark of concurrently outstanding leases.
    pub peak_leases: usize,
}

struct LeaseState {
    ticket: u64,
    granted: usize,
    desired: usize,
    min: usize,
    handle: BudgetHandle,
}

/// Final merges in progress, counted by their estimated result bytes, and
/// the merges waiting to start, in arrival order (tickets).
#[derive(Default)]
struct Merges {
    bytes: usize,
    queue: VecDeque<u64>,
    next_ticket: u64,
}

struct PoolState {
    /// Unleased bytes. Can transiently run "hot" after a revocation: the
    /// revoked query's usage drains to its new limit at its next spill.
    available: usize,
    /// FIFO arrival order of waiting spilling queries (tickets).
    queue: VecDeque<u64>,
    /// Outstanding leases, in grant order.
    leases: Vec<LeaseState>,
    next_ticket: u64,
    metrics: AdmissionMetrics,
}

/// The process-wide memory pool queries lease from.
pub struct ServerBudget {
    total: usize,
    state: Mutex<PoolState>,
    granted_cond: Condvar,
    merges: Mutex<Merges>,
    merge_done: Condvar,
}

impl std::fmt::Debug for ServerBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerBudget").field("total", &self.total).finish()
    }
}

impl ServerBudget {
    /// A pool of `total` bytes.
    pub fn new(total: usize) -> Self {
        ServerBudget {
            total,
            state: Mutex::new(PoolState {
                available: total,
                queue: VecDeque::new(),
                leases: Vec::new(),
                next_ticket: 0,
                metrics: AdmissionMetrics::default(),
            }),
            granted_cond: Condvar::new(),
            merges: Mutex::new(Merges::default()),
            merge_done: Condvar::new(),
        }
    }

    /// The pool size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Bytes not currently leased out.
    pub fn available(&self) -> usize {
        lock_state(&self.state).available
    }

    /// Queries currently waiting for a lease.
    pub fn queue_len(&self) -> usize {
        lock_state(&self.state).queue.len()
    }

    /// Fleet-wide admission counters so far.
    pub fn metrics(&self) -> AdmissionMetrics {
        lock_state(&self.state).metrics
    }

    /// Immediate admission for a query whose working set is known small:
    /// takes up to `bytes` from the pool without queueing (granting the
    /// shortfall anyway — a bounded overcommit — if the pool is dry, so
    /// in-memory queries never wait behind spilling ones). While a
    /// spilling query is queued it takes nothing from the pool and is
    /// granted `bytes` wholly as overcommit, so the bytes other leases
    /// free reach the head of the queue.
    pub fn admit_small(&self, bytes: usize) -> BudgetLease<'_> {
        let bytes = bytes.max(1);
        let mut state = lock_state(&self.state);
        let taken = if state.queue.is_empty() { bytes.min(state.available) } else { 0 };
        state.available -= taken;
        let handle = BudgetHandle::new(bytes);
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        // `granted` records what was actually taken from the pool — the
        // drop path must return exactly that, not the overcommitted grant.
        // The whole grant is the floor, even where a dry pool only
        // overcommitted it: revoking an in-memory query's workspace would
        // only make it spill.
        state.leases.push(LeaseState {
            ticket,
            granted: taken,
            desired: bytes,
            min: bytes,
            handle: handle.clone(),
        });
        state.metrics.grants += 1;
        state.metrics.admitted_immediately += 1;
        state.metrics.peak_leases = state.metrics.peak_leases.max(state.leases.len());
        BudgetLease { pool: self, ticket, handle, queued: Duration::ZERO }
    }

    /// Queued admission for a spilling query: blocks FIFO until this
    /// caller is at the head of the queue and at least `min` bytes are
    /// free (revoking surplus from running leases if that is what it
    /// takes), then grants `available.clamp(min, desired)`.
    pub fn admit(&self, desired: usize, min: usize) -> BudgetLease<'_> {
        let desired = desired.max(1);
        // A minimum above the whole pool could never be satisfied; clamp
        // so admission always makes progress.
        let min = min.clamp(1, self.total.max(1)).min(desired);
        let start = Instant::now();
        let mut state = lock_state(&self.state);
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(ticket);
        loop {
            if state.queue.front() == Some(&ticket) {
                if state.available < min {
                    let shortfall = min - state.available;
                    self.revoke_surplus(&mut state, shortfall);
                }
                if state.available >= min {
                    state.queue.pop_front();
                    break;
                }
            }
            state = self.granted_cond.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        let granted = state.available.clamp(min, desired);
        state.available -= granted;
        let handle = BudgetHandle::new(granted);
        state.leases.push(LeaseState { ticket, granted, desired, min, handle: handle.clone() });
        let queued = start.elapsed();
        state.metrics.grants += 1;
        state.metrics.queued_queries += 1;
        state.metrics.queued_ns_total += queued.as_nanos() as u64;
        state.metrics.peak_leases = state.metrics.peak_leases.max(state.leases.len());
        // The head may have changed; let the next waiter re-check.
        self.granted_cond.notify_all();
        BudgetLease { pool: self, ticket, handle, queued }
    }

    /// Blocks until a final merge whose result is estimated at `bytes` may
    /// start, and holds its place until the returned permit drops.
    ///
    /// A merge starts at once when none is in progress. Otherwise it queues
    /// FIFO and starts at the head of the queue once the results of the
    /// merges in progress plus its own fit the pool (or none is left in
    /// progress), so a result larger than the pool merges alone and a
    /// stream of small merges cannot starve it.
    pub fn begin_merge(&self, bytes: usize) -> MergePermit<'_> {
        let bytes = bytes.max(1);
        let mut merges = lock_merges(&self.merges);
        let fits = |m: &Merges| m.bytes == 0 || m.bytes + bytes <= self.total;
        if !(merges.queue.is_empty() && fits(&merges)) {
            let ticket = merges.next_ticket;
            merges.next_ticket += 1;
            merges.queue.push_back(ticket);
            while merges.queue.front() != Some(&ticket) || !fits(&merges) {
                merges = self.merge_done.wait(merges).unwrap_or_else(PoisonError::into_inner);
            }
            merges.queue.pop_front();
            // The next in line may fit beside this one.
            self.merge_done.notify_all();
        }
        merges.bytes += bytes;
        MergePermit { pool: self, bytes }
    }

    /// Shrinks running leases toward their minimum, oldest first, until
    /// `needed` bytes are freed (or no surplus remains). Credited to
    /// `available` immediately; each revoked query drains to its new limit
    /// at its next budget check.
    fn revoke_surplus(&self, state: &mut PoolState, mut needed: usize) {
        for i in 0..state.leases.len() {
            if needed == 0 {
                break;
            }
            let lease = &mut state.leases[i];
            let surplus = lease.granted.saturating_sub(lease.min.max(1));
            if surplus == 0 {
                continue;
            }
            let take = surplus.min(needed);
            lease.granted -= take;
            lease.handle.set_limit(lease.granted);
            state.available += take;
            needed -= take;
            state.metrics.rebalances += 1;
            state.metrics.revoked_bytes += take as u64;
        }
    }

    /// Returns `keep_hint` of a lease's bytes to the pool (phase-boundary
    /// shrink) or all of them (drop), then redistributes: queued queries
    /// first, then grow running leases toward their desired size.
    fn release(&self, ticket: u64, keep: Option<usize>) {
        let mut state = lock_state(&self.state);
        let Some(idx) = state.leases.iter().position(|l| l.ticket == ticket) else {
            return;
        };
        match keep {
            Some(keep) => {
                let lease = &mut state.leases[idx];
                let freed = lease.granted.saturating_sub(keep);
                if freed == 0 {
                    return;
                }
                lease.granted -= freed;
                // The shrunk lease will not grow back past its new size on
                // its own; cap desired so top-ups respect the caller.
                lease.desired = lease.desired.min(lease.granted.max(keep));
                lease.handle.set_limit(lease.granted);
                state.available += freed;
                state.metrics.rebalances += 1;
            }
            None => {
                let lease = state.leases.swap_remove(idx);
                state.available += lease.granted;
            }
        }
        // Freed memory goes to the queue first (FIFO fairness) …
        if !state.queue.is_empty() {
            self.granted_cond.notify_all();
            return;
        }
        // … and only grows running leases when nobody is waiting.
        for i in 0..state.leases.len() {
            let available = state.available;
            if available == 0 {
                break;
            }
            let lease = &mut state.leases[i];
            let want = lease.desired.saturating_sub(lease.granted);
            if want == 0 {
                continue;
            }
            let grow = want.min(available);
            lease.granted += grow;
            lease.handle.set_limit(lease.granted);
            state.available -= grow;
            state.metrics.rebalances += 1;
        }
    }
}

fn lock_state<'a>(m: &'a Mutex<PoolState>) -> std::sync::MutexGuard<'a, PoolState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_merges<'a>(m: &'a Mutex<Merges>) -> std::sync::MutexGuard<'a, Merges> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A final merge's place in the [`ServerBudget`], given up on drop.
#[derive(Debug)]
pub struct MergePermit<'a> {
    pool: &'a ServerBudget,
    bytes: usize,
}

impl Drop for MergePermit<'_> {
    fn drop(&mut self) {
        lock_merges(&self.pool.merges).bytes -= self.bytes;
        self.pool.merge_done.notify_all();
    }
}

/// One query's slice of the [`ServerBudget`], returned to the pool on
/// drop. The [`BudgetHandle`] inside is the live wire: the admission
/// controller resizes it, and every `MemoryBudget` the query constructs
/// through `TopKConfig::budget_lease` reads its limit from it.
#[derive(Debug)]
pub struct BudgetLease<'a> {
    pool: &'a ServerBudget,
    ticket: u64,
    handle: BudgetHandle,
    queued: Duration,
}

impl BudgetLease<'_> {
    /// The resizable limit cell to thread into `TopKConfig::budget_lease`.
    pub fn handle(&self) -> &BudgetHandle {
        &self.handle
    }

    /// The current grant in bytes.
    pub fn granted(&self) -> usize {
        self.handle.limit()
    }

    /// How long admission queued this query (zero for the small-query
    /// fast path).
    pub fn queued(&self) -> Duration {
        self.queued
    }

    /// Phase-boundary release: shrink this lease to `keep` bytes (the
    /// merge-phase reserve), freeing the run-generation workspace for
    /// queued and running siblings while the query streams its output.
    pub fn downsize(&self, keep: usize) {
        self.pool.release(self.ticket, Some(keep));
    }
}

impl Drop for BudgetLease<'_> {
    fn drop(&mut self) {
        self.pool.release(self.ticket, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn small_queries_admit_immediately_even_when_dry() {
        let pool = ServerBudget::new(100);
        let big = pool.admit(100, 50);
        assert_eq!(big.granted(), 100);
        assert_eq!(pool.available(), 0);
        let small = pool.admit_small(10);
        assert_eq!(small.granted(), 10, "small query admits on an empty pool");
        drop(small);
        drop(big);
        assert_eq!(pool.available(), 100, "overcommitted grant must not inflate the pool");
    }

    #[test]
    fn spilling_queries_wait_fifo_and_reuse_freed_bytes() {
        let pool = Arc::new(ServerBudget::new(100));
        let first = pool.admit(80, 80);
        assert_eq!(first.granted(), 80);
        let order = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..2)
            .map(|i| {
                let pool = pool.clone();
                let order = order.clone();
                // Stagger enqueue so FIFO order is deterministic.
                while pool.queue_len() < i {
                    std::thread::yield_now();
                }
                std::thread::spawn(move || {
                    let lease = pool.admit(60, 40);
                    let rank = order.fetch_add(1, Ordering::SeqCst);
                    let granted = lease.granted();
                    drop(lease);
                    (rank, granted)
                })
            })
            .collect();
        while pool.queue_len() < 2 {
            std::thread::yield_now();
        }
        drop(first); // frees 80 → admits the head (60), then the next (40 via the first's release)
        let results: Vec<_> = waiters.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.len(), 2);
        for (_, granted) in &results {
            assert!((40..=60).contains(granted), "grant {granted} outside [min, desired]");
        }
        assert_eq!(pool.available(), 100);
        let m = pool.metrics();
        assert_eq!(m.queued_queries, 3, "first + both waiters took the queued path");
        assert!(m.queued_ns_total > 0);
    }

    #[test]
    fn finishing_query_grows_running_leases_toward_desired() {
        let pool = ServerBudget::new(100);
        let a = pool.admit(100, 20); // gets everything
        let b = pool.admit_small(1); // placeholder holding nothing extra
        assert_eq!(a.granted(), 100);
        let before = pool.metrics().rebalances;
        drop(b);
        // b held 1 byte; a was already at desired — no growth to do.
        assert_eq!(a.granted(), 100);
        drop(a);
        let c = pool.admit(60, 20);
        let d = pool.admit(60, 20);
        assert_eq!(c.granted(), 60);
        assert_eq!(d.granted(), 40, "second query is clamped to what remains");
        drop(c); // frees 60 with an empty queue → d grows to its desired 60
        assert_eq!(d.granted(), 60, "running lease absorbs freed memory");
        assert!(pool.metrics().rebalances > before);
    }

    #[test]
    fn downsize_frees_bytes_for_the_queue_and_caps_regrowth() {
        let pool = Arc::new(ServerBudget::new(100));
        // min == desired: no revocable surplus, so the waiter must block
        // until the phase-boundary downsize frees memory.
        let a = pool.admit(100, 100);
        assert_eq!(pool.available(), 0);
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let lease = pool.admit(50, 30);
                let granted = lease.granted();
                drop(lease);
                granted
            })
        };
        while pool.queue_len() < 1 {
            std::thread::yield_now();
        }
        a.downsize(40); // run-gen done: keep a merge reserve, free 60
        assert_eq!(a.granted(), 40);
        let granted = waiter.join().unwrap();
        assert!((30..=50).contains(&granted));
        // The waiter's release found an empty queue; `a` must not grow
        // back past its downsized size.
        assert_eq!(a.granted(), 40);
        drop(a);
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn head_of_queue_revokes_surplus_from_running_leases() {
        let pool = Arc::new(ServerBudget::new(100));
        let hog = pool.admit(100, 10); // min 10 → 90 bytes of surplus
        assert_eq!(hog.granted(), 100);
        let granted = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let lease = pool.admit(50, 50);
                let granted = lease.granted();
                drop(lease);
                granted
            })
            .join()
            .unwrap()
        };
        assert_eq!(granted, 50, "waiter is served by revoking the hog's surplus");
        let m = pool.metrics();
        assert!(m.revoked_bytes >= 50);
        // The waiter's release found an empty queue and grew the revoked
        // lease back toward its desired size.
        assert_eq!(hog.granted(), 100, "revoked lease regrows once the waiter finishes");
        drop(hog);
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn head_of_queue_never_revokes_a_small_lease() {
        let pool = Arc::new(ServerBudget::new(100));
        let small = pool.admit_small(60);
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.admit(80, 80).granted())
        };
        // Enqueueing and the revocation attempt happen under one lock; a
        // waiter that revoked its way in is granted without queueing.
        while pool.queue_len() < 1 && pool.metrics().grants < 2 {
            std::thread::yield_now();
        }
        assert_eq!(small.granted(), 60, "an in-memory query keeps its workspace");
        assert_eq!(pool.metrics().revoked_bytes, 0);
        drop(small);
        assert_eq!(waiter.join().unwrap(), 80, "admitted once the small lease drops");
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn small_queries_leave_freed_bytes_to_the_head_of_the_queue() {
        let pool = Arc::new(ServerBudget::new(100));
        let first = pool.admit_small(60);
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.admit(80, 80).granted())
        };
        // 40 bytes free and no revocable surplus: the waiter must queue.
        while pool.queue_len() < 1 {
            std::thread::yield_now();
        }
        let small = pool.admit_small(30);
        assert_eq!(small.granted(), 30, "a small query is still admitted at once");
        assert_eq!(pool.available(), 40, "but takes nothing while a spilling query waits");
        drop(small);
        assert_eq!(pool.available(), 40);
        // A stream of small queries races the waiter for the bytes `first`
        // frees; the waiter must get them.
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stream = {
            let (pool, done) = (pool.clone(), done.clone());
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    drop(pool.admit_small(60));
                }
            })
        };
        drop(first);
        assert_eq!(waiter.join().unwrap(), 80);
        done.store(true, Ordering::SeqCst);
        stream.join().unwrap();
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn small_lease_repaid_after_a_dry_admission_is_not_revoked() {
        let pool = Arc::new(ServerBudget::new(100));
        let big = pool.admit(100, 100);
        let small = pool.admit_small(30); // pool dry: overcommitted
        drop(big); // empty queue: the small lease is paid back in full
        assert_eq!(small.granted(), 30);
        let waiter = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.admit(100, 100).granted())
        };
        while pool.queue_len() < 1 && pool.metrics().grants < 3 {
            std::thread::yield_now();
        }
        assert_eq!(small.granted(), 30);
        drop(small);
        assert_eq!(waiter.join().unwrap(), 100);
        assert_eq!(pool.available(), 100);
    }

    #[test]
    fn merges_whose_results_exceed_the_pool_run_one_at_a_time() {
        let pool = Arc::new(ServerBudget::new(100));
        let first = pool.begin_merge(60);
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let second = {
            let (pool, started) = (pool.clone(), started.clone());
            std::thread::spawn(move || {
                let permit = pool.begin_merge(60);
                started.store(true, Ordering::SeqCst);
                drop(permit);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!started.load(Ordering::SeqCst), "60 + 60 bytes of results exceed the pool");
        drop(first);
        second.join().unwrap();
        assert!(started.load(Ordering::SeqCst));
        assert_eq!(lock_merges(&pool.merges).bytes, 0);
    }

    #[test]
    fn a_waiting_merge_is_not_starved_by_smaller_ones() {
        let pool = Arc::new(ServerBudget::new(100));
        let small = pool.begin_merge(30);
        drop(pool.begin_merge(30)); // 30 + 30 fit: starts at once
        let order = Arc::new(AtomicUsize::new(0));
        let spawn_merge = |bytes: usize| {
            let (pool, order) = (pool.clone(), order.clone());
            std::thread::spawn(move || {
                let _permit = pool.begin_merge(bytes);
                order.fetch_add(1, Ordering::SeqCst)
            })
        };
        let big = spawn_merge(100); // larger than what is left: waits
        while lock_merges(&pool.merges).queue.is_empty() {
            std::thread::yield_now();
        }
        // Would fit beside `small`, but the big merge is waiting first.
        let later = spawn_merge(30);
        while lock_merges(&pool.merges).queue.len() < 2 {
            std::thread::yield_now();
        }
        drop(small);
        assert_eq!(big.join().unwrap(), 0, "the waiting merge goes first");
        assert_eq!(later.join().unwrap(), 1);
        assert_eq!(lock_merges(&pool.merges).bytes, 0);
    }

    #[test]
    fn min_above_total_is_clamped_not_deadlocked() {
        let pool = ServerBudget::new(64);
        let lease = pool.admit(1 << 30, 1 << 20); // min far above the pool
        assert_eq!(lease.granted(), 64);
        drop(lease);
        assert_eq!(pool.available(), 64);
    }
}
