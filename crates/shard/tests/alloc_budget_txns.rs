//! The allocation budget of the sharded transaction path: once its
//! buffers have grown to their working size, the service's one driver
//! (behind `ShardedHtap::run_txns` and `ShardedHtap::run_open_loop`)
//! makes well under one heap allocation per committed transaction. The
//! admission keyset, the routed participant set, the wave scheduler's
//! key maps and waves, each wave's member, item and effect lists, the
//! run's inbox counts and in-flight deques, the delta arenas' free
//! lists and every garbage-collection pass reuse storage they already
//! hold, so what is left is per call, not per transaction (the
//! report's per-shard loads, lists and histograms among it).
//!
//! The budgets are the measured counts plus one allocation: a
//! histogram grows its buckets lazily as it records, so a change that
//! moves one simulated value may cost one more.
//!
//! The counts are exact: a counting global allocator tallies every
//! `alloc` and `realloc` call the process makes. This binary holds one
//! test, so nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pushtap_chbench::RemoteMix;
use pushtap_core::Pushtap;
use pushtap_shard::{ArrivalConfig, ArrivalGen, OpenLoopConfig, ShardConfig, ShardedHtap};

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

const SHARDS: u32 = 2;
const BATCHES: u64 = 10;
const BATCH_TXNS: u64 = 250;
/// The open-loop shape: inbox bound, scheduling window, offered rate
/// and arrivals.
const INBOX: usize = 128;
const WINDOW: usize = 32;
const RATE_TPS: f64 = 120_000.0;
const ARRIVALS: u64 = 1_000;
/// Allocations allowed over the closed-loop batches: 880 measured
/// (0.352 per transaction), plus one.
const CLOSED_BUDGET: u64 = 881;
/// Allocations allowed over the open-loop run: 30 measured (0.030 per
/// admitted transaction), plus one.
const OPEN_BUDGET: u64 = 31;

/// The `shard_durable` deployment: 2 shards, maintenance every 200
/// transactions.
fn config() -> ShardConfig {
    let mut cfg = ShardConfig::small(SHARDS);
    cfg.base.defrag_period = 200;
    cfg
}

/// Allocations `f` makes, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (CALLS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn the_sharded_transaction_path_allocates_at_most_once_per_transaction() {
    let mut service = ShardedHtap::new(config()).expect("the small config lays out");
    let _handles = service.enable_wal();
    let mut gen = service.global_txn_gen(42);
    service.run_txns(&mut gen, BATCH_TXNS);
    let (closed, committed) = counted(|| {
        (0..BATCHES)
            .map(|_| service.run_txns(&mut gen, BATCH_TXNS).committed())
            .sum::<u64>()
    });
    assert_eq!(committed, BATCHES * BATCH_TXNS);

    // The open-loop shape on the same deployment, with arrivals that
    // begin once every engine has caught up with the closed-loop work.
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(42)
        .with_remote_mix(RemoteMix::TPCC, warehouses);
    let mut arrivals = ArrivalGen::new(43, ArrivalConfig::poisson(RATE_TPS));
    let busy = service.shards().iter().map(Pushtap::now).max();
    while Some(arrivals.next_arrival()) < busy {}
    let open = OpenLoopConfig::new(INBOX, WINDOW);
    let (opened, report) =
        counted(|| service.run_open_loop(&mut gen, &mut arrivals, ARRIVALS, &open));
    let admitted = report.exec.committed();
    assert_eq!(admitted, report.admitted());

    println!(
        "closed loop: {closed} allocations over {committed} transactions ({:.3} per transaction)",
        closed as f64 / committed as f64
    );
    println!(
        "open loop: {opened} allocations over {admitted} admitted of {ARRIVALS} arrivals \
         ({:.3} per transaction)",
        opened as f64 / admitted as f64
    );
    assert!(
        closed <= CLOSED_BUDGET,
        "closed loop: {closed} allocations over {committed} transactions, budget \
         {CLOSED_BUDGET}"
    );
    assert!(
        admitted >= ARRIVALS / 2,
        "only {admitted} of {ARRIVALS} arrivals admitted"
    );
    assert!(
        opened <= OPEN_BUDGET,
        "open loop: {opened} allocations over {admitted} transactions, budget {OPEN_BUDGET}"
    );
}
