//! The allocation budget of the durability path: a checkpoint, a
//! recovery's replay and a deployment's build cost a bounded number of
//! heap allocations per log, not per record. A checkpoint scans each
//! durable image once, decodes every record into one effect list and
//! writes the survivors into one buffer; replay shares the scan and the
//! list, and applies the records to tables whose storage was sized when
//! they were built. Building an engine allocates per table, not per
//! column, part, device or arena: each table's schema is built once, its
//! layout's parts and fragments are flat, and its device bytes and free
//! lists are one buffer each.
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
/// Allocations allowed to build the 2 shards: 896 measured, the same in
/// dev and release builds, plus one.
const BUILD_BUDGET: u64 = 897;
/// Allocations allowed to recover the 2 shards, build and replay
/// together — what a recovery costs its caller: 972 measured (896 to
/// build, 76 to replay), the same in dev and release builds, plus the
/// replay's six of slack (below).
const RECOVER_BUDGET: u64 = 978;
/// Replayed records per allocation allowed in recovery's replay: 76
/// measured over 4 148 records (one per 54.6) — the scan's, the
/// decoder's and the replay's lists growing to a log's size — budget
/// one per 50 (82 allocations): six of slack for a log that grows one of
/// them once more.
const RECORDS_PER_REPLAY_ALLOC: u64 = 50;

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

    println!("build: {build} allocations for {SHARDS} shards");
    println!("recover: {recover} allocations (build and replay)");
    println!(
        "checkpoint: {checkpoint} allocations over {log_count} logs \
         (at least {records} records per effect log)"
    );
    println!("replay: {replay} allocations over {replayed} replayed records");
    assert!(records >= 2_000, "only {records} records per log");
    assert!(
        checkpoint <= 100 * log_count,
        "{checkpoint} allocations over {log_count} logs: {:.1} per log, budget 100",
        checkpoint as f64 / log_count as f64
    );
    assert!(
        RECORDS_PER_REPLAY_ALLOC * replay <= replayed,
        "{replay} allocations over {replayed} replayed records: {:.3} per record, budget {:.3}",
        replay as f64 / replayed as f64,
        1.0 / RECORDS_PER_REPLAY_ALLOC as f64
    );
    assert!(
        build <= BUILD_BUDGET,
        "{build} allocations to build {SHARDS} shards, budget {BUILD_BUDGET}"
    );
    assert!(
        recover <= RECOVER_BUDGET,
        "{recover} allocations to recover {SHARDS} shards, budget {RECOVER_BUDGET}"
    );
}
