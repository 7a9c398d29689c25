//! The allocation budget of building an engine, and of a freshly built
//! one. Building allocates per table, not per column, part, device or
//! arena, and keeps what it allocates: no scratch list. Then, with no
//! warm-up, rounds of [a burst of transactions, then one query cycling
//! Q1 → Q6 → Q9] allocate only what they return. Every table's storage —
//! its device bytes and version chains — the engine's one GC outcome and
//! its per-transaction lists are sized when the engine is built, and a
//! query resolves its column cursors inline. What is left is
//! the reports' histograms and the query results (a Q9 also builds its
//! item bitset).
//!
//! The counts are exact: the counting global allocator of
//! `support/counting.rs` tallies every `alloc` and `realloc` call the
//! process makes. This binary holds one test, so nothing else runs while
//! it counts. The build it counts follows an uncounted one, so no
//! allocation the process makes once, on its first build, lands in the
//! count.

use pushtap_core::{Pushtap, PushtapConfig};
use pushtap_olap::Query;

#[path = "support/counting.rs"]
mod counting;

use counting::{counted, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The `engine_htap` shape: rounds of a 50-transaction burst and one
/// query, at four times the small population.
const ROUNDS: u64 = 30;
const BURST_TXNS: u64 = 50;
const SCALE: f64 = 0.002;
/// Allocations allowed to build the engine at this shape: 244 measured,
/// the same in dev and release builds.
const BUILD_BUDGET: u64 = 244;

#[test]
fn a_fresh_engine_allocates_only_what_it_returns() {
    let mut config = PushtapConfig::small();
    config.db.scale = SCALE;
    let mut engine = Pushtap::new(config.clone()).expect("the configuration lays out");
    // A second build, counted after the uncounted first.
    let (build, twin) = counted(|| Pushtap::new(config));
    drop(twin.expect("the configuration lays out"));
    println!("build: {build} allocations");
    assert!(
        build <= BUILD_BUDGET,
        "{build} allocations to build the engine, budget {BUILD_BUDGET}"
    );
    let mut gen = engine.txn_gen(42);
    let (mut txns, mut histograms) = (0, 0);
    let mut queries = [0u64; 3];
    for k in 0..ROUNDS {
        let (calls, report) = counted(|| engine.run_txns(&mut gen, BURST_TXNS));
        assert_eq!(report.committed, BURST_TXNS);
        txns += calls;
        histograms += [
            &report.commit_latency,
            &report.queue_wait,
            &report.defrag_stall,
            &report.gc_stall,
            &report.two_pc_stall,
        ]
        .iter()
        .filter(|h| !h.is_empty())
        .count() as u64;
        let q = (k % 3) as usize;
        let (calls, _) = counted(|| engine.run_query(Query::ALL[q]));
        queries[q] = queries[q].max(calls);
    }
    println!(
        "{txns} allocations over {} transactions ({histograms} report histograms recorded); \
         at most {queries:?} per Q1, Q6, Q9",
        ROUNDS * BURST_TXNS
    );
    assert_eq!(queries, [1, 0, 2], "a query allocates its result only");
    // A report histogram that records allocates its buckets once,
    // whatever it records (32 of 32 at this shape).
    assert!(
        txns <= histograms,
        "{txns} allocations over {} transactions, budget {histograms}: one per report \
         histogram that recorded",
        ROUNDS * BURST_TXNS
    );
}
