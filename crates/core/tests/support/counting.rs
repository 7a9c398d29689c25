//! A counting global allocator for the allocation-budget binaries.
//!
//! The counts are exact: [`Counting`] tallies every `alloc` and
//! `realloc` call the process makes. A binary installs it with its own
//! `#[global_allocator]` and holds one test, so nothing else runs while
//! it counts. Included by `#[path]` from the budget binaries of the core
//! and shard crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts calls.
pub struct Counting;

// Statistics only: the counter publishes no other data, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` is valid for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and this allocator only ever hands out
        // `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc` — `ptr` is a `System` block of `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations `f` makes, and what it returns.
pub fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (CALLS.load(Ordering::Relaxed) - before, out)
}
