//! An empty `Bytes` owns no allocation: `Bytes::new()` and its clones are
//! free, so a key-only row costs no heap allocation for its payload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;

/// Counts every allocation made through the global allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is only incremented.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn empty_bytes_allocate_nothing() {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let empty = Bytes::new();
    let copies: [Bytes; 4] = std::array::from_fn(|_| empty.clone());
    let default = Bytes::default();
    let sliced = empty.slice(0..0);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "an empty Bytes allocated");
    assert!(copies
        .iter()
        .chain([&empty, &default, &sliced])
        .all(|b| b.is_empty() && b[..].is_empty()));
    assert_eq!(empty, Bytes::from(Vec::new()));
}
