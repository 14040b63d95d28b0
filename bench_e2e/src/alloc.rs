//! Counting global allocator: the budget truth the operators' own
//! `peak_memory_bytes` self-accounting cannot give.
//!
//! It wraps `System` in every run, traced or not, so its cost is the same
//! on both sides of any comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes right now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Of those, bytes the spill store holds: the benchmark's "disk".
static STORED: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE - STORED` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System` plus two relaxed counters (statistics only: they publish no
/// other data).
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    let working = live.saturating_sub(STORED.load(Ordering::Relaxed));
    if working > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(working, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// The spill store is about to allocate `bytes` that it will keep for the
/// rest of the process. Told first, so that in between the working size
/// is under- rather than over-counted, which a peak ignores.
pub fn storage_grew(bytes: usize) {
    STORED.fetch_add(bytes, Ordering::Relaxed);
}

/// Starts a new high-water measurement at the current working size (heap
/// minus stored spill data) and returns that size: the baseline to
/// subtract, i.e. the resident input and the oracle.
pub fn reset_peak() -> usize {
    let working = LIVE.load(Ordering::Relaxed).saturating_sub(STORED.load(Ordering::Relaxed));
    PEAK.store(working, Ordering::Relaxed);
    working
}

/// Bytes the working heap grew above `baseline` at its highest since the
/// last [`reset_peak`].
pub fn peak_above(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}
