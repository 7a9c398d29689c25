//! The allocation budget of the durability path: a checkpoint and a
//! recovery's replay cost a fixed number of heap allocations per log,
//! whatever its length, and a deployment's build a fixed number per
//! table. A checkpoint scans each durable image once, into a record list
//! sized by a pass over the frame headers, decodes every record into one
//! effect list reserved from the records' declared counts, sizes its
//! last-writer list with a counting pass, and writes the survivors into
//! one buffer; replay shares the scan and the list, and applies the
//! records to tables whose storage was sized when they were built.
//! Building an engine allocates per table, not per column, part, device
//! or arena, and only what it keeps: each table's schema is built once,
//! its layout's parts and fragments are flat and validated in the lists
//! the layout keeps, its device bytes, free lists and version chains'
//! slot states are one buffer each, and one GC outcome serves all the
//! engine's tables.
//!
//! Each budget is the measured count; `alloc_census.rs` names the site
//! of every allocation counted here.
//!
//! The counts are exact: the counting global allocator of
//! `crates/core/tests/support/counting.rs` tallies every `alloc` and
//! `realloc` call the process makes. This binary holds one test, so
//! nothing else runs while it counts. The builds it counts follow an
//! uncounted one, so no allocation the process makes once, on its first
//! build, lands in a count.

use pushtap_shard::{ShardConfig, ShardedHtap};

#[path = "../../core/tests/support/counting.rs"]
mod counting;

use counting::{counted, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SHARDS: u32 = 2;
const BATCHES: u64 = 10;
const BATCH_TXNS: u64 = 250;
/// Allocations allowed to build the 2 shards: 494 measured, the same in
/// dev and release builds.
const BUILD_BUDGET: u64 = 494;
/// Allocations a checkpoint makes per effect log, whatever its length:
/// the durable image, the scan's record list, the decoded effect and
/// record lists, the dedupe's order and appends, the last-writer list,
/// the kept-effect list and the rewritten image (9 measured).
const CHECKPOINT_PER_EFFECT_LOG: u64 = 9;
/// Allocations a checkpoint makes for the decision log: the durable
/// image, the scan's record list, the decided list and the rewritten
/// image (4 measured).
const CHECKPOINT_PER_DECISION_LOG: u64 = 4;
/// Allocations a replay makes per effect log: the scan's record list,
/// the decoded effect and record lists, the dedupe's order and appends,
/// and the committed list (6 measured). The decision log a checkpoint
/// left holds no record, so its scan allocates nothing.
const REPLAY_PER_EFFECT_LOG: u64 = 6;
/// Allocations a checkpoint or a replay makes once, over all the logs:
/// the per-shard image, scan and report lists of a checkpoint; the
/// per-shard result, report and committed lists of a replay (3
/// measured each).
const PER_CALL: u64 = 3;

/// The `shard_durable` deployment: 2 shards, maintenance every 200
/// transactions.
fn config() -> ShardConfig {
    let mut cfg = ShardConfig::small(SHARDS);
    cfg.base.defrag_period = 200;
    cfg
}

#[test]
fn checkpoint_replay_and_build_allocate_per_log() {
    let mut service = ShardedHtap::new(config()).expect("the small config lays out");
    let handles = service.enable_wal();
    let mut gen = service.global_txn_gen(42);
    for _ in 0..BATCHES {
        service.run_txns(&mut gen, BATCH_TXNS);
    }
    let logs = handles.harvest();
    let records = logs
        .shards
        .iter()
        .map(|image| pushtap_wal::scan(image).records.len())
        .min()
        .unwrap_or(0);
    let (checkpoint, report) = counted(|| service.checkpoint());
    // Every shard's effect log plus the decision log.
    let log_count = report.per_shard.len() as u64 + 1;

    let logs = handles.harvest();
    let (build, fresh) = counted(|| ShardedHtap::new(config()));
    drop(fresh.expect("the small config lays out"));
    let (recover, recovered) = counted(|| ShardedHtap::recover(config(), &logs));
    let (_, recovery) = recovered.expect("the logs recover");
    let replay = recover.saturating_sub(build);
    let replayed = recovery.replayed();

    let checkpoint_budget =
        CHECKPOINT_PER_EFFECT_LOG * u64::from(SHARDS) + CHECKPOINT_PER_DECISION_LOG + PER_CALL;
    let replay_budget = REPLAY_PER_EFFECT_LOG * u64::from(SHARDS) + PER_CALL;
    println!("build: {build} allocations for {SHARDS} shards");
    println!("recover: {recover} allocations (build and replay)");
    println!(
        "checkpoint: {checkpoint} allocations over {log_count} logs \
         (at least {records} records per effect log)"
    );
    println!("replay: {replay} allocations over {replayed} replayed records");
    assert!(records >= 2_000, "only {records} records per log");
    assert!(
        checkpoint <= checkpoint_budget,
        "{checkpoint} allocations over {log_count} logs, budget {checkpoint_budget}"
    );
    assert!(
        replay <= replay_budget,
        "{replay} allocations to replay {replayed} records from {log_count} logs, budget \
         {replay_budget}"
    );
    assert!(
        build <= BUILD_BUDGET,
        "{build} allocations to build {SHARDS} shards, budget {BUILD_BUDGET}"
    );
    let recover_budget = BUILD_BUDGET + replay_budget;
    assert!(
        recover <= recover_budget,
        "{recover} allocations to recover {SHARDS} shards, budget {recover_budget}"
    );
}
