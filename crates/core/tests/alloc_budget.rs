//! The allocation budget of the transaction path: after a warm-up,
//! `Pushtap::run_txns` allocates only its report's histograms — a
//! handful per call, not per transaction. A transaction is described by
//! plain `Copy` effects decomposed into one list the engine reuses, and
//! every table's storage is sized when the engine is built
//! (`alloc_budget_cold.rs` holds the same from a cold start).
//!
//! The count is exact: a counting global allocator tallies every
//! `alloc` and `realloc` call the process makes. This binary holds one
//! test, so nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pushtap_core::{Pushtap, PushtapConfig};

/// Forwards to the system allocator and counts calls.
struct Counting;

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

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_TXNS: u64 = 2_000;
const TXNS: u64 = 2_000;
/// Allocations allowed over the measured run: 2 measured (one growth
/// each of the report's commit-latency and GC-stall histograms), plus
/// one per histogram that a change moving a simulated latency may grow a
/// second time.
const BUDGET: u64 = 4;

#[test]
fn run_txns_allocates_at_most_once_per_transaction() {
    let mut engine = Pushtap::new(PushtapConfig::small()).expect("the small config lays out");
    let mut gen = engine.txn_gen(42);
    engine.run_txns(&mut gen, WARM_TXNS);
    let before = CALLS.load(Ordering::Relaxed);
    let report = engine.run_txns(&mut gen, TXNS);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(report.committed, TXNS);
    println!("{calls} allocations over {TXNS} transactions");
    assert!(
        calls <= BUDGET,
        "{calls} allocations over {TXNS} transactions, budget {BUDGET}"
    );
}
