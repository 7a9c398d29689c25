//! The allocation budget of the sharded transaction path: once its
//! buffers have grown to their working size, the service's one driver
//! (behind `ShardedHtap::run_txns` and `ShardedHtap::run_open_loop`)
//! makes well under one heap allocation per committed transaction. The
//! admission keyset, the routed participant set, the wave scheduler's
//! member list, key map and wave list, each wave's member, item and
//! effect lists, the run's inbox counts and in-flight deques, the front
//! end's rejection counts, admission indices and histograms (which only
//! an open-loop run hands out), the delta arenas' free lists and every
//! garbage-collection pass reuse storage they already hold, and every
//! table's storage is sized when its engine is built, so what is left is
//! per call, not per transaction (the report's per-shard loads, lists
//! and histograms among it).
//!
//! A fresh deployment's first batch also grows that storage, once: the
//! scheduler's member list is reserved for the batch, its wave list grows
//! to the widest wave, and its key map to the batch's keys. A gather
//! reads the shards' partials where they lie and merges them into one
//! list, allocated once.
//!
//! The budgets are the measured counts: a report's histogram allocates
//! its buckets once, whatever it records, so the counts do not follow the
//! simulated values.
//!
//! The counts are exact: the counting global allocator of
//! `crates/core/tests/support/counting.rs` tallies every `alloc` and
//! `realloc` call the process makes. This binary holds one test, so
//! nothing else runs while it counts.

use pushtap_chbench::RemoteMix;
use pushtap_core::Pushtap;
use pushtap_olap::Query;
use pushtap_shard::{ArrivalConfig, ArrivalGen, OpenLoopConfig, ShardConfig, ShardedHtap};

#[path = "../../core/tests/support/counting.rs"]
mod counting;

use counting::{counted, Counting};

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
/// Allocations allowed over a fresh deployment's first batch: 118
/// measured.
const FIRST_BATCH_BUDGET: u64 = 118;
/// Allocations allowed over the closed-loop batches: 93 measured
/// (0.037 per transaction).
const CLOSED_BUDGET: u64 = 93;
/// Allocations allowed per Q1, Q6 and Q9 on the warm deployment: the
/// shards' partial list and, per shard, Q1's group table or Q9's item
/// bitset and result list, then the gathered list (4, 1 and 6
/// measured).
const QUERY_BUDGETS: [u64; 3] = [4, 1, 6];
/// Allocations allowed over the open-loop run: 11 measured (0.011 per
/// admitted transaction).
const OPEN_BUDGET: u64 = 11;

/// The `shard_durable` deployment: 2 shards, maintenance every 200
/// transactions.
fn config() -> ShardConfig {
    let mut cfg = ShardConfig::small(SHARDS);
    cfg.base.defrag_period = 200;
    cfg
}

#[test]
fn the_sharded_transaction_path_allocates_at_most_once_per_transaction() {
    let mut service = ShardedHtap::new(config()).expect("the small config lays out");
    let _handles = service.enable_wal();
    let mut gen = service.global_txn_gen(42);
    let (first, report) = counted(|| service.run_txns(&mut gen, BATCH_TXNS));
    assert_eq!(report.committed(), BATCH_TXNS);
    let (closed, committed) = counted(|| {
        (0..BATCHES)
            .map(|_| service.run_txns(&mut gen, BATCH_TXNS).committed())
            .sum::<u64>()
    });
    assert_eq!(committed, BATCHES * BATCH_TXNS);

    // The first query a deployment answers also grows the oracle's pin
    // list, once; the counted queries follow it.
    service.run_query(Query::Q6);
    let mut queries = [0u64; 3];
    for round in 0..2 {
        for (q, &query) in Query::ALL.iter().enumerate() {
            let (calls, report) = counted(|| service.run_query(query));
            assert_eq!(report.per_shard.len(), SHARDS as usize, "round {round}");
            queries[q] = queries[q].max(calls);
        }
    }

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

    println!("first batch: {first} allocations over {BATCH_TXNS} transactions");
    println!(
        "closed loop: {closed} allocations over {committed} transactions ({:.3} per transaction)",
        closed as f64 / committed as f64
    );
    println!("queries: at most {queries:?} allocations per Q1, Q6, Q9");
    println!(
        "open loop: {opened} allocations over {admitted} admitted of {ARRIVALS} arrivals \
         ({:.3} per transaction)",
        opened as f64 / admitted as f64
    );
    assert!(
        first <= FIRST_BATCH_BUDGET,
        "first batch: {first} allocations over {BATCH_TXNS} transactions, budget \
         {FIRST_BATCH_BUDGET}"
    );
    for ((query, calls), budget) in Query::ALL.iter().zip(queries).zip(QUERY_BUDGETS) {
        assert!(
            calls <= budget,
            "{}: {calls} allocations, budget {budget}",
            query.name()
        );
    }
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
