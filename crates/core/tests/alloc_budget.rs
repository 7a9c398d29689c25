//! The allocation budget of the transaction path: after a warm-up,
//! `Pushtap::run_txns` allocates nothing. A transaction is described by
//! plain `Copy` effects decomposed into one list the engine reuses,
//! every table's storage is sized when the engine is built, and the
//! report's histograms hold a batch's latencies inline
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
/// Allocations allowed over the measured run: 0 measured. Its report's
/// commit-latency and GC-stall histograms touch fewer buckets than a
/// histogram holds inline.
const BUDGET: u64 = 0;
/// The `engine_oltp` shape: batches of 200 transactions on the small
/// engine, maintenance every 5 000.
const OLTP_BATCH_TXNS: u64 = 200;
const OLTP_DEFRAG_PERIOD: u64 = 5_000;

#[test]
fn run_txns_allocates_at_most_once_per_transaction() {
    let mut engine = Pushtap::new(PushtapConfig::small()).expect("the small config lays out");
    let mut gen = engine.txn_gen(42);
    engine.run_txns(&mut gen, WARM_TXNS);
    let (calls, report) = counted(|| engine.run_txns(&mut gen, TXNS));
    assert_eq!(report.committed, TXNS);
    println!("{calls} allocations over {TXNS} transactions");
    assert_eq!(
        calls, BUDGET,
        "{calls} allocations over {TXNS} transactions, budget {BUDGET}"
    );

    let mut config = PushtapConfig::small();
    config.defrag_period = OLTP_DEFRAG_PERIOD;
    let mut engine = Pushtap::new(config).expect("the small config lays out");
    let mut gen = engine.txn_gen(42);
    engine.run_txns(&mut gen, WARM_TXNS);
    let (calls, report) = counted(|| engine.run_txns(&mut gen, OLTP_BATCH_TXNS));
    assert_eq!(report.committed, OLTP_BATCH_TXNS);
    println!("{calls} allocations over a warm {OLTP_BATCH_TXNS}-transaction engine_oltp batch");
    assert_eq!(
        calls, 0,
        "a warm {OLTP_BATCH_TXNS}-transaction batch allocates nothing"
    );
}
