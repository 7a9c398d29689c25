//! The allocation budget of the transaction path: after a warm-up,
//! `Pushtap::run_txns` allocates only its report's histograms — a
//! handful per call, not per transaction. A transaction is described by
//! plain `Copy` effects decomposed into one list the engine reuses, and
//! every table's storage is sized when the engine is built
//! (`alloc_budget_cold.rs` holds the same from a cold start).
//!
//! The count is exact: the counting global allocator of
//! `support/counting.rs` tallies every `alloc` and `realloc` call the
//! process makes. This binary holds one test, so nothing else runs while
//! it counts.

use pushtap_core::{Pushtap, PushtapConfig};

#[path = "support/counting.rs"]
mod counting;

use counting::{counted, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_TXNS: u64 = 2_000;
const TXNS: u64 = 2_000;
/// Allocations allowed over the measured run: 2 measured, one each for
/// the report's commit-latency and GC-stall histograms, which allocate
/// their buckets once whatever they record.
const BUDGET: u64 = 2;

#[test]
fn run_txns_allocates_at_most_once_per_transaction() {
    let mut engine = Pushtap::new(PushtapConfig::small()).expect("the small config lays out");
    let mut gen = engine.txn_gen(42);
    engine.run_txns(&mut gen, WARM_TXNS);
    let (calls, report) = counted(|| engine.run_txns(&mut gen, TXNS));
    assert_eq!(report.committed, TXNS);
    println!("{calls} allocations over {TXNS} transactions");
    assert!(
        calls <= BUDGET,
        "{calls} allocations over {TXNS} transactions, budget {BUDGET}"
    );
}
