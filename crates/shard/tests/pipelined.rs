//! The wave coordinator's acceptance property: conflict-aware wave
//! scheduling commits **byte-identical** state to the unpartitioned
//! reference — at every shard count, under every remote mix, with and
//! without delta pressure, including waves where participants abort on
//! `DeltaFull` mid-flight and re-enter as waves of one — while
//! overlapping the two-phase commits of non-conflicting transactions.
//!
//! Committed bytes are a pure function of the committed transaction
//! stream: the wave scheduler orders conflicting transactions by pinned
//! timestamp (so per-row commit order equals the reference's) and lets
//! everything else run concurrently, with multiple prepared undo scopes
//! coexisting per shard and resolving independently. These tests are
//! the proof obligation for that claim.

mod common;

use proptest::prelude::*;
use pushtap_chbench::RemoteMix;
use pushtap_core::Pushtap;
use pushtap_shard::{ShardConfig, ShardedHtap};

const SEED: u64 = 2025;
const TXNS: u64 = 120;

/// Runs one batch on a fresh deployment and returns the service with
/// all arenas defragmented (committed state folded into data regions).
fn run_batch(
    cfg: ShardConfig,
    mix: RemoteMix,
    seed: u64,
    txns: u64,
) -> (ShardedHtap, pushtap_shard::ShardOltpReport) {
    let mut service = ShardedHtap::new(cfg).expect("build shards");
    let san = common::sanitize(&mut service);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(seed)
        .with_remote_mix(mix, warehouses);
    let report = service.run_txns(&mut gen, txns);
    assert_eq!(report.committed(), txns);
    common::assert_sanitized_clean(&san, "wave-scheduled batch");
    for (i, shard) in service.shards().iter().enumerate() {
        assert_eq!(shard.db().prepared_scopes(), 0, "shard {i} holds a scope");
        assert_eq!(shard.db().prepared_versions(), 0, "shard {i} prepared");
    }
    service.defragment_all();
    for (i, shard) in service.shards().iter().enumerate() {
        assert_eq!(shard.db().live_delta_rows(), 0, "shard {i} leaked slots");
    }
    (service, report)
}

fn reference(pressured: bool, mix: RemoteMix, seed: u64, txns: u64) -> Pushtap {
    let cfg = if pressured {
        common::squeezed(1)
    } else {
        ShardConfig::small(1)
    };
    let mut reference = Pushtap::new(cfg.base).expect("build reference");
    let warehouses = reference.db().warehouses_global();
    let mut gen = reference.txn_gen(seed).with_remote_mix(mix, warehouses);
    let r = reference.run_txns(&mut gen, txns);
    assert_eq!(
        r.aborts > 0,
        pressured,
        "reference pressure mismatch ({} mix)",
        common::mix_name(mix)
    );
    reference.defragment_all();
    reference
}

/// The tentpole invariant under delta pressure: at 2, 4, and 8 shards,
/// under all three remote mixes, the committed bytes equal the
/// unpartitioned reference's — with undersized arenas forcing aborts
/// everywhere, including participants voting no mid-wave and every
/// casualty retrying as a wave of one.
#[test]
fn waves_match_reference_under_pressure() {
    for mix in [RemoteMix::LOCAL, RemoteMix::TPCC, RemoteMix::Uniform] {
        let reference = reference(true, mix, SEED, TXNS);
        for shards in [2u32, 4, 8] {
            let label = format!("{} mix at {shards} shards", common::mix_name(mix));
            let (service, report) = run_batch(common::squeezed(shards), mix, SEED, TXNS);
            let total = report.merged();
            assert!(total.aborts > 0, "{label}: must feel the pressure");
            assert!(
                total.retried_txns > 0 && total.retried_txns <= total.aborts,
                "{label}: every casualty is retried, and counted once"
            );
            // The uniform mix at several shards forwards constantly:
            // participants must have aborted prepared scopes mid-wave.
            if mix == RemoteMix::Uniform {
                assert!(
                    total.participant_aborts > 0,
                    "{label}: squeezed uniform waves must abort participants"
                );
            }
            common::assert_shards_match_reference(&service, &reference, &label);
        }
    }
}

/// The same identity without delta pressure (ample arenas, no aborts
/// anywhere): waves overlap cleanly and still commit the reference's
/// exact bytes.
#[test]
fn waves_match_reference_ample() {
    for mix in [RemoteMix::TPCC, RemoteMix::Uniform] {
        let reference = reference(false, mix, SEED, TXNS);
        for shards in [4u32, 8] {
            let label = format!("ample {} mix at {shards} shards", common::mix_name(mix));
            let (service, report) = run_batch(ShardConfig::small(shards), mix, SEED, TXNS);
            let total = report.merged();
            assert_eq!(total.aborts, 0, "{label}: ample arenas abort-free");
            assert_eq!(total.retried_txns, 0, "{label}: nothing to retry");
            common::assert_shards_match_reference(&service, &reference, &label);
        }
    }
}

/// The scheduling claims: under cross-shard-heavy mixes at ≥ 4 shards
/// the stream is cut into fewer waves than transactions, a positive
/// fraction of the 2PCs overlap, and the message rounds' share of busy
/// time stays a share.
#[test]
fn waves_overlap_two_pcs() {
    for mix in [RemoteMix::TPCC, RemoteMix::Uniform] {
        for shards in [4u32, 8] {
            let label = format!("{} mix at {shards} shards", common::mix_name(mix));
            let (_, r) = run_batch(ShardConfig::small(shards), mix, SEED, TXNS);
            assert!(r.remote.cross_shard_txns > 0, "{label}: stream must cross");
            assert!(r.coord.waves > 0, "{label}: no waves scheduled");
            assert!(
                r.coord.waves < TXNS,
                "{label}: the schedule must beat fully-serial"
            );
            assert!(r.coord.max_wave > 1, "{label}: no wave held >1 txn");
            assert!(r.overlap_ratio() > 0.0, "{label}: zero 2PC overlap");
            assert!(r.merged().two_pc_stall.count() > 0, "{label}");
            assert!(r.two_pc_time_share() > 0.0 && r.two_pc_time_share() <= 1.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Byte identity over arbitrary arena sizes, stream lengths, seeds,
    /// and remote mixes: wherever `DeltaFull` strikes — a local wave
    /// item, the home half, or a forwarded participant mid-wave — the
    /// deployment ends byte-identical to an unpartitioned reference
    /// under the same pressure, with zero prepared versions and zero
    /// leaked delta slots after every batch.
    #[test]
    fn waves_commit_reference_bytes_under_any_pressure(
        frac in 0.02f64..0.03,
        min_delta in 2u64..=3,
        txns in 40u64..=80,
        seed in 1u64..=1000,
        mix_pick in 0u8..3,
        shard_pick in 0u8..2,
    ) {
        let mix = match mix_pick {
            0 => RemoteMix::LOCAL,
            1 => RemoteMix::TPCC,
            _ => RemoteMix::Uniform,
        };
        let shards = if shard_pick == 0 { 2 } else { 4 };
        let min_rows = min_delta * 8;
        let mut cfg = ShardConfig::small(shards);
        cfg.base.db.delta_frac = frac;
        cfg.base.db.min_delta_rows = min_rows;

        let mut reference = {
            let mut cfg = ShardConfig::small(1);
            cfg.base.db.delta_frac = frac;
            cfg.base.db.min_delta_rows = min_rows;
            Pushtap::new(cfg.base).expect("build reference")
        };
        let warehouses = reference.db().warehouses_global();
        let mut rgen = reference.txn_gen(seed).with_remote_mix(mix, warehouses);
        reference.run_txns(&mut rgen, txns);
        reference.defragment_all();

        let (service, report) = run_batch(cfg, mix, seed, txns);
        prop_assert!(report.merged().aborts > 0, "arenas this small must abort");
        common::assert_shards_match_reference(&service, &reference, "proptest");
    }
}
