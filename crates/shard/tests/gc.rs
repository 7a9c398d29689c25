//! Garbage-collection acceptance for the sharded service: version
//! reclamation is *invisible* to committed bytes and to pinned readers.
//!
//! 1. **Byte identity**: a deployment that garbage-collects aggressively
//!    mid-batch (tiny maintenance period, so the GC-first policy fires
//!    constantly) commits byte-identical state to an untouched
//!    unpartitioned reference that never collected — at 1/2/4 shards,
//!    under every remote mix.
//! 2. **Pinned snapshots**: a long-lived snapshot pin keeps its cut
//!    readable across arbitrarily many GC passes — the historical
//!    answer is exactly the answer the cut gave when it was fresh — and
//!    releasing the pin lets the eligible floor advance again.

mod common;

use proptest::prelude::*;
use pushtap_chbench::{RemoteMix, ALL_TABLES};
use pushtap_mvcc::Ts;
use pushtap_olap::Query;
use pushtap_shard::{ShardConfig, ShardedHtap};

const SEED: u64 = 2025;
const TXNS: u64 = 96;

/// Ample arenas, but a maintenance period so short the GC-first policy
/// runs throughout the batch.
fn collecting(shards: u32) -> ShardConfig {
    let mut cfg = ShardConfig::small(shards);
    cfg.base.defrag_period = 25;
    cfg
}

/// Runs one batch on a collecting deployment and proves byte identity
/// against the never-collecting unpartitioned reference.
fn collect_and_compare(
    cfg: ShardConfig,
    mix: RemoteMix,
    seed: u64,
    txns: u64,
    require_collect: bool,
    label: &str,
) {
    let mut service = ShardedHtap::new(cfg).expect("build shards");
    let san = common::sanitize(&mut service);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(seed)
        .with_remote_mix(mix, warehouses);
    let report = service.run_txns(&mut gen, txns);
    assert_eq!(report.committed(), txns, "{label}: everything commits");
    let gc = report.gc();
    if require_collect {
        assert!(gc.passes > 0, "{label}: the short period must collect");
        assert!(
            gc.slots_recycled > 0 && gc.log_trimmed > 0,
            "{label}: collection must actually reclaim"
        );
    }
    common::assert_sanitized_clean(&san, label);
    service.defragment_all();
    // The reference executes the same committed stream and never
    // garbage-collects (default period, one batch, no pressure).
    let committed: Vec<Ts> = (1..=txns).map(Ts).collect();
    let reference = common::reference_holding(service.cfg(), mix, seed, txns, &committed);
    for (i, shard) in service.shards().iter().enumerate() {
        for table in ALL_TABLES {
            common::assert_table_bytes_match(
                shard,
                &reference,
                table,
                &format!("{label}: shard {i}"),
            );
        }
    }
}

#[test]
fn collected_batches_stay_byte_identical() {
    for shards in [1u32, 2, 4] {
        for (mix, mix_name) in [
            (RemoteMix::LOCAL, "local"),
            (RemoteMix::TPCC, "tpcc"),
            (RemoteMix::Uniform, "uniform"),
        ] {
            let label = format!("gc {mix_name} at {shards} shards");
            collect_and_compare(collecting(shards), mix, SEED, TXNS, true, &label);
        }
    }
}

#[test]
fn pinned_snapshot_reads_its_exact_cut_across_gc() {
    let mut service = ShardedHtap::new(collecting(2)).expect("build");
    let san = common::sanitize(&mut service);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    let first = service.run_txns(&mut gen, 48);
    assert_eq!(first.committed(), 48);
    let cut = service.ts_oracle().watermark();
    assert_eq!(cut, Ts(48));
    let fresh = service.run_query_at(Query::Q6, cut);

    // The long-lived reader: pin the cut, then keep committing and
    // collecting on top of it. The pin floors the eligible cut, so no
    // version the reader needs is ever folded away.
    let oracle = std::sync::Arc::clone(service.ts_oracle());
    let pin = oracle.pin_snapshot(cut);
    let mut passes = 0;
    for _ in 0..3 {
        let r = service.run_txns(&mut gen, 48);
        assert_eq!(r.committed(), 48);
        passes += r.gc().passes;
    }
    assert!(passes > 0, "traffic above the pin must still collect");
    assert_eq!(
        oracle.gc_eligible_before(),
        Ts(cut.0 - 1),
        "the pin floors the eligible cut"
    );
    let pinned = service.run_query_at(Query::Q6, cut);
    assert_eq!(
        pinned.result, fresh.result,
        "the pinned cut must answer exactly as it did when fresh"
    );
    // A current-cut query sees the new traffic (the revenue grew).
    let now = service.run_query(Query::Q6);
    assert!(now.cut > cut);
    assert_ne!(now.result, fresh.result, "new traffic must be visible");

    // Releasing the pin un-floors the eligible cut.
    drop(pin);
    assert_eq!(service.ts_oracle().active_pins(), 0);
    assert_eq!(
        oracle.gc_eligible_before(),
        oracle.watermark(),
        "no pin, no floor"
    );
    common::assert_sanitized_clean(&san, "pinned snapshot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary seed, mix, shard count, and maintenance period:
    /// the collected deployment's bytes always equal the
    /// never-collecting reference's.
    #[test]
    fn any_collected_batch_is_byte_identical(
        seed in 1u64..=1000,
        txns in 40u64..=80,
        period in 10u64..=40,
        shard_pick in 0u8..3,
        mix_pick in 0u8..3,
    ) {
        let shards = [1u32, 2, 4][shard_pick as usize];
        let mix = match mix_pick {
            0 => RemoteMix::LOCAL,
            1 => RemoteMix::TPCC,
            _ => RemoteMix::Uniform,
        };
        let mut cfg = ShardConfig::small(shards);
        cfg.base.defrag_period = period;
        let label = format!(
            "proptest gc at {shards} shards (seed {seed}, mix {mix_pick}, period {period})",
        );
        // Small draws at high shard counts may never trip the per-shard
        // period — identity must hold either way, so collection is not
        // required here.
        collect_and_compare(cfg, mix, seed, txns, false, &label);
    }
}
