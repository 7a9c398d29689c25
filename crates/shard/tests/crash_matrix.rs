//! The durability acceptance property: kill the deployment at *any*
//! point of the commit protocol, recover from nothing but the forced
//! log bytes, and the recovered committed state is **byte-identical**
//! to an untouched reference that executed exactly the recovered
//! committed transactions — at every shard count, with and without
//! delta pressure.
//!
//! The deterministic matrix enumerates every [`CrashSite`]; the
//! proptest then draws arbitrary kill points (site × event × seed × mix
//! × shards × pressure) and re-proves the identity. Both also check the recovery hygiene obligations: no
//! prepared scope, no prepared versions, no leaked delta slots, a
//! watermark past every durable timestamp, and a recovered deployment
//! that keeps accepting batches.

mod common;

use proptest::prelude::*;
use pushtap_chbench::RemoteMix;
use pushtap_shard::{
    CheckpointError, CrashPoint, CrashSite, RecoverError, RecoveryReport, ShardConfig, ShardedHtap,
    WalBytes,
};
use pushtap_wal::Wal;

const SEED: u64 = 2025;
const TXNS: u64 = 64;

/// Arena knobs from `tests/delta_pressure.rs`: every transaction class
/// aborts at least once, so crash points land amid `DeltaFull` retries.
fn squeezed(shards: u32) -> ShardConfig {
    let mut cfg = ShardConfig::small(shards);
    cfg.base.db.delta_frac = 0.06;
    cfg.base.db.min_delta_rows = 8;
    cfg
}

/// Runs one armed batch to its crash (or completion), kills the
/// service, recovers a fresh deployment from the harvested bytes, and
/// proves the full obligation set: scan hygiene (every valid record
/// either replays or is presumed-abort skipped — never half-applied),
/// no prepared scopes / versions / leaked slots, byte identity of all
/// tables on all shards against an unpartitioned reference holding
/// exactly the recovered committed set, a watermark past every
/// committed timestamp, and a post-recovery batch that commits.
///
/// Returns the recovery report and whether the armed crash fired (an
/// `event` past the batch's last wave never fires — the batch
/// just completes, and recovery must then reproduce *all* of it).
fn crash_and_recover(
    cfg: ShardConfig,
    mix: RemoteMix,
    seed: u64,
    txns: u64,
    point: CrashPoint,
    label: &str,
) -> (RecoveryReport, bool) {
    let mut service = ShardedHtap::new(cfg.clone()).expect("build shards");
    // A crashed batch legitimately leaves prepared scopes behind (the
    // batch-end check is skipped), so an armed tracker must still be
    // violation-free across every kill point.
    let san = common::sanitize(&mut service);
    let handles = service.enable_wal();
    service.arm_crash(point);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(seed)
        .with_remote_mix(mix, warehouses);
    let report = service.run_txns(&mut gen, txns);
    common::assert_sanitized_clean(&san, label);
    let crashed = service.crashed();
    assert_eq!(
        report.coord.crashed, crashed,
        "{label}: the batch report must agree with the service"
    );
    if !crashed {
        assert_eq!(
            report.committed(),
            txns,
            "{label}: an unfired crash point must not lose transactions"
        );
    }
    // The kill: drop the service. Only what the force barriers made
    // durable survives — exactly what a disk would hold.
    let image = handles.harvest();
    drop(service);

    let (mut recovered, rec) = ShardedHtap::recover(cfg, &image).expect("recover");
    assert!(!recovered.crashed(), "{label}: recovery starts fresh");
    for (i, s) in rec.per_shard.iter().enumerate() {
        assert_eq!(
            s.replayed + s.skipped + s.duplicates,
            s.records,
            "{label}: shard {i} scan handed out a partial record"
        );
    }
    if !crashed {
        assert_eq!(
            rec.committed.len() as u64,
            txns,
            "{label}: a completed batch must recover in full"
        );
    }
    for (i, shard) in recovered.shards().iter().enumerate() {
        assert_eq!(
            shard.db().prepared_scopes(),
            0,
            "{label}: shard {i} holds a scope after recovery"
        );
        assert_eq!(
            shard.db().prepared_versions(),
            0,
            "{label}: shard {i} leaked prepared versions"
        );
    }
    recovered.defragment_all();
    for (i, shard) in recovered.shards().iter().enumerate() {
        assert_eq!(
            shard.db().live_delta_rows(),
            0,
            "{label}: shard {i} leaked delta slots"
        );
    }
    if let Some(&max) = rec.committed.last() {
        assert!(
            rec.watermark >= max,
            "{label}: watermark must clear every committed timestamp"
        );
    }

    // The identity: the recovered bytes equal an untouched reference
    // executing exactly the recovered committed stream.
    let reference = common::reference_holding(recovered.cfg(), mix, seed, txns, &rec.committed);
    common::assert_shards_match_reference(&recovered, &reference, label);

    // Liveness: the recovered deployment accepts fresh batches with
    // fresh timestamps (the advanced watermark makes the pins unique).
    let post_san = common::sanitize(&mut recovered);
    let mut gen = recovered
        .global_txn_gen(seed ^ 0x5eed)
        .with_remote_mix(mix, warehouses);
    let post = recovered.run_txns(&mut gen, 16);
    assert_eq!(
        post.committed(),
        16,
        "{label}: the recovered deployment must keep committing"
    );
    common::assert_sanitized_clean(&post_san, label);
    (rec, crashed)
}

/// The deterministic kill-point matrix: every [`CrashSite`], killed at
/// the second wave of a cross-heavy batch. Every cell crashes, every
/// cell recovers byte-identically — and the decision-log shape each
/// site must leave behind is pinned (presumed abort before the
/// decision is durable, commit after).
#[test]
fn every_site_recovers_byte_identically() {
    // What an uncrashed prefix of exactly one wave leaves in the
    // decision log: the baseline the per-site shapes are read against.
    let (first_wave, _) = crash_and_recover(
        ShardConfig::small(4),
        RemoteMix::Uniform,
        SEED,
        TXNS,
        CrashPoint {
            site: CrashSite::BeforePrepare,
            event: 2,
        },
        "BeforePrepare baseline",
    );
    assert!(
        first_wave.decisions > 0,
        "wave 1 of a uniform batch crosses"
    );
    for site in CrashSite::ALL {
        let label = format!("{site:?}");
        let point = CrashPoint { site, event: 2 };
        let (rec, crashed) = crash_and_recover(
            ShardConfig::small(4),
            RemoteMix::Uniform,
            SEED,
            TXNS,
            point,
            &label,
        );
        assert!(crashed, "{label}: a uniform batch has a second wave");
        // Ample arenas make every vote yes, so each site's durable
        // image is fully pinned by how far wave 2 got.
        match site {
            CrashSite::BeforePrepare | CrashSite::AfterPrepare => {
                assert_eq!(rec.decisions, first_wave.decisions, "{label}");
                assert_eq!(rec.skipped(), 0, "{label}: wave 2 left no records");
                assert_eq!(rec.committed, first_wave.committed, "{label}");
            }
            CrashSite::MidEffectFlush => {
                assert_eq!(rec.decisions, first_wave.decisions, "{label}");
                assert!(
                    rec.per_shard.iter().any(|s| s.torn),
                    "{label}: the last involved shard's force must tear"
                );
            }
            CrashSite::BetweenVoteAndDecision => {
                assert_eq!(
                    rec.decisions, first_wave.decisions,
                    "{label}: only the first wave decided"
                );
                assert!(
                    rec.skipped() >= 2,
                    "{label}: the undecided prepares must be presumed abort"
                );
            }
            CrashSite::MidDecisionLogWrite => {
                assert!(
                    rec.decisions >= first_wave.decisions,
                    "{label}: wave 1's decisions precede the tear"
                );
                assert!(
                    rec.skipped() >= 2,
                    "{label}: a torn decision is no decision"
                );
            }
            CrashSite::AfterDecision => {
                assert!(
                    rec.decisions > first_wave.decisions,
                    "{label}: both waves' decisions durable"
                );
                assert_eq!(
                    rec.skipped(),
                    0,
                    "{label}: every durable prepare was decided"
                );
                assert!(rec.committed.len() > first_wave.committed.len(), "{label}");
            }
        }
    }
}

/// A mid-flush kill at every shard count under delta pressure: the torn
/// log truncates to whole records, replay reclaims and retries on a
/// full arena as live execution did, and the bytes still match. Retried casualties of wave 1 consume no event number, so the
/// kill still lands in wave 2.
#[test]
fn mid_flush_recovers_at_every_shard_count_under_pressure() {
    for shards in [1u32, 2, 4, 8] {
        let label = format!("squeezed at {shards} shards");
        let point = CrashPoint {
            site: CrashSite::MidEffectFlush,
            event: 2,
        };
        let (_, crashed) =
            crash_and_recover(squeezed(shards), RemoteMix::TPCC, SEED, TXNS, point, &label);
        assert!(crashed, "{label}: a {TXNS}-txn batch has a second wave");
    }
}

/// An `event` past the batch's last wave never fires: the batch
/// completes, the service stays alive, and the durable image recovers
/// the *entire* committed stream.
#[test]
fn crash_past_the_batch_never_fires_and_recovers_everything() {
    let label = "past-the-end";
    let point = CrashPoint {
        site: CrashSite::AfterDecision,
        event: 1_000_000,
    };
    let (rec, crashed) = crash_and_recover(
        ShardConfig::small(4),
        RemoteMix::Uniform,
        SEED,
        TXNS,
        point,
        label,
    );
    assert!(!crashed, "{label}: the crash must never fire");
    assert_eq!(rec.committed.len() as u64, TXNS, "{label}");
    assert_eq!(rec.skipped(), 0, "{label}: everything was decided");
}

/// The checkpoint obligation: after a completed batch, compacting the
/// logs ([`ShardedHtap::checkpoint`]) must (1) actually reclaim bytes,
/// (2) leave a durable image that *alone* recovers the full committed
/// stream byte-identically (the compacted records replay through the
/// unchanged pipeline), and (3) keep the crash guarantee alive: a kill
/// in the *next* batch recovers from compacted-batch-1 + torn-batch-2
/// bytes to the same state as an untouched reference executing the
/// recovered committed stream across both batches. Two shard counts.
#[test]
fn checkpoint_then_crash_recovers_byte_identically() {
    for shards in [2u32, 4] {
        let label = format!("checkpoint at {shards} shards");
        let cfg = ShardConfig::small(shards);
        let mut service = ShardedHtap::new(cfg.clone()).expect("build shards");
        let san = common::sanitize(&mut service);
        let handles = service.enable_wal();
        let warehouses = service.map().warehouses();
        let mut gen = service
            .global_txn_gen(SEED)
            .with_remote_mix(RemoteMix::Uniform, warehouses);
        let first = service.run_txns(&mut gen, TXNS);
        assert_eq!(first.committed(), TXNS, "{label}: batch 1 completes");

        let full = handles.harvest();
        let ckpt = service.checkpoint();
        assert_eq!(ckpt.cut.0, TXNS, "{label}: the cut is the watermark");
        assert!(
            ckpt.bytes_reclaimed() > 0,
            "{label}: a checkpoint over {TXNS} txns must reclaim bytes"
        );
        assert_eq!(
            ckpt.decisions.records_kept, 0,
            "{label}: compacted records need no decisions — the log empties"
        );
        let compacted = handles.harvest();
        let size = |img: &pushtap_shard::WalBytes| {
            img.decisions.len() + img.shards.iter().map(Vec::len).sum::<usize>()
        };
        assert!(
            size(&compacted) < size(&full),
            "{label}: the durable image must shrink"
        );

        // Obligation (2): the compacted image alone replays batch 1
        // in full, byte-identically, with nothing presumed-abort.
        let (mut ck, ckrec) =
            ShardedHtap::recover(cfg.clone(), &compacted).expect("recover from checkpoint");
        assert_eq!(
            ckrec.committed.len() as u64,
            TXNS,
            "{label}: every committed txn survives compaction"
        );
        assert_eq!(
            ckrec.skipped(),
            0,
            "{label}: compacted records are decision-free"
        );
        ck.defragment_all();
        let reference =
            common::reference_holding(ck.cfg(), RemoteMix::Uniform, SEED, TXNS, &ckrec.committed);
        common::assert_shards_match_reference(&ck, &reference, &format!("{label}: compacted-only"));
        drop(ck);

        // Obligation (3): crash mid-batch-2 and recover from the
        // compacted prefix plus the torn second-batch records.
        service.arm_crash(CrashPoint {
            site: CrashSite::MidEffectFlush,
            event: 2,
        });
        let second = service.run_txns(&mut gen, TXNS);
        assert!(service.crashed(), "{label}: batch 2 must hit the kill");
        assert!(second.coord.crashed, "{label}: report agrees");
        common::assert_sanitized_clean(&san, &label);
        let image = handles.harvest();
        drop(service);

        let (mut recovered, rec) = ShardedHtap::recover(cfg, &image).expect("recover");
        for (i, s) in rec.per_shard.iter().enumerate() {
            assert_eq!(
                s.replayed + s.skipped + s.duplicates,
                s.records,
                "{label}: shard {i} scan handed out a partial record"
            );
        }
        assert!(
            rec.committed.len() as u64 >= TXNS,
            "{label}: the checkpointed batch must recover whole"
        );
        recovered.defragment_all();
        for (i, shard) in recovered.shards().iter().enumerate() {
            assert_eq!(
                shard.db().live_delta_rows(),
                0,
                "{label}: shard {i} leaked delta slots"
            );
        }
        // Batches 1 and 2 drew from one continuous generator, so the
        // untouched reference replays the concatenated stream.
        let reference = common::reference_holding(
            recovered.cfg(),
            RemoteMix::Uniform,
            SEED,
            2 * TXNS,
            &rec.committed,
        );
        common::assert_shards_match_reference(&recovered, &reference, &label);
        // Liveness after the full cycle.
        let mut gen = recovered
            .global_txn_gen(SEED ^ 0x5eed)
            .with_remote_mix(RemoteMix::Uniform, warehouses);
        let post = recovered.run_txns(&mut gen, 16);
        assert_eq!(post.committed(), 16, "{label}: recovered and live");
    }
}

/// A frame whose checksum holds but whose payload is not a record this
/// version wrote: the scan cannot truncate it away (the bytes are
/// intact), so recovery must refuse it — as a typed error naming the
/// log and the record, not a panic. Same for a log set of the wrong
/// shard count.
#[test]
fn foreign_log_bytes_are_typed_errors_not_panics() {
    let framed = |payload: &[u8]| {
        let (mut wal, log) = Wal::in_memory();
        wal.append(payload);
        wal.force();
        log.bytes()
    };
    let cfg = ShardConfig::small(2);
    let garbage = framed(b"\xffnot an effect record");
    let err = ShardedHtap::recover(
        cfg.clone(),
        &WalBytes {
            shards: vec![Vec::new(), garbage],
            decisions: Vec::new(),
        },
    )
    .expect_err("an undecodable effect record must fail recovery");
    assert!(
        matches!(
            err,
            RecoverError::Undecodable {
                shard: Some(1),
                record: 0,
                ..
            }
        ),
        "{err}"
    );
    let err = ShardedHtap::recover(
        cfg.clone(),
        &WalBytes {
            shards: vec![Vec::new(), Vec::new()],
            decisions: framed(&[1, 2, 3]),
        },
    )
    .expect_err("a 3-byte decision entry must fail recovery");
    assert!(
        matches!(
            err,
            RecoverError::Undecodable {
                shard: None,
                record: 0,
                ..
            }
        ),
        "{err}"
    );
    let err = ShardedHtap::recover(
        cfg,
        &WalBytes {
            shards: vec![Vec::new(); 3],
            decisions: Vec::new(),
        },
    )
    .expect_err("three log images cannot recover a two-shard deployment");
    assert_eq!(
        err,
        RecoverError::ShardCount {
            expected: 2,
            found: 3
        }
    );
}

/// The same foreign record met by a checkpoint of a live, file-backed
/// deployment: `try_checkpoint` reports it instead of panicking.
#[test]
fn checkpoint_over_a_foreign_record_is_a_typed_error() {
    use std::io::Write as _;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("foreign-record-checkpoint");
    std::fs::create_dir_all(&dir).expect("create log dir");
    let cfg = ShardConfig::small(2);
    let mut service = ShardedHtap::new(cfg.clone()).expect("build shards");
    service.enable_wal_files(&dir).expect("open log files");
    let mut gen = service.global_txn_gen(SEED);
    assert_eq!(service.run_txns(&mut gen, 16).committed(), 16);
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("shard-1.wal"))
        .and_then(|mut f| f.write_all(&pushtap_wal::frame(b"\xffnot an effect record")))
        .expect("append a foreign frame");
    let err = service
        .try_checkpoint()
        .expect_err("the foreign record must fail the checkpoint");
    let CheckpointError::Log(err) = err else {
        panic!("expected a log error, got {err}")
    };
    assert!(
        matches!(err, RecoverError::Undecodable { shard: Some(1), .. }),
        "{err}"
    );
    // Recovery sees the same bytes and refuses them the same way.
    let image = WalBytes::read_dir(&dir, 2).expect("read log files");
    assert_eq!(ShardedHtap::recover(cfg, &image).map(|_| ()), Err(err));
}

/// A file-backed log whose durable image ends mid-frame: `try_checkpoint`
/// refuses with a typed error *before* rewriting any log — it used to
/// panic inside `Wal::truncate_before` with the earlier shards' logs
/// already compacted — and recovery cuts the torn tail as ever.
#[test]
fn checkpoint_over_a_torn_log_is_a_typed_error_and_rewrites_nothing() {
    use std::io::Write as _;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("torn-log-checkpoint");
    std::fs::create_dir_all(&dir).expect("create log dir");
    let cfg = ShardConfig::small(2);
    let mut service = ShardedHtap::new(cfg.clone()).expect("build shards");
    service.enable_wal_files(&dir).expect("open log files");
    let mut gen = service.global_txn_gen(SEED);
    assert_eq!(service.run_txns(&mut gen, 16).committed(), 16);
    let frame = pushtap_wal::frame(b"half of this frame never lands");
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("shard-1.wal"))
        .and_then(|mut f| f.write_all(&frame[..frame.len() / 2]))
        .expect("append half a frame");
    let before = WalBytes::read_dir(&dir, 2).expect("read log files");
    assert_eq!(
        service.try_checkpoint().map(|_| ()),
        Err(CheckpointError::Log(RecoverError::TornLog {
            shard: Some(1)
        }))
    );
    let after = WalBytes::read_dir(&dir, 2).expect("read log files");
    assert_eq!(before.shards, after.shards, "no effect log may change");
    assert_eq!(before.decisions, after.decisions);
    let (_, report) = ShardedHtap::recover(cfg, &after).expect("recovery cuts the torn tail");
    assert!(report.per_shard[1].torn);
    assert_eq!(report.committed.len(), 16);
}

/// A crashed service is dead: it refuses further batches, exactly like
/// the process it simulates.
#[test]
#[should_panic(expected = "service crashed")]
fn crashed_service_refuses_batches() {
    let mut service = ShardedHtap::new(ShardConfig::small(2)).expect("build shards");
    let _handles = service.enable_wal();
    service.arm_crash(CrashPoint {
        site: CrashSite::BeforePrepare,
        event: 1,
    });
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    service.run_txns(&mut gen, 16);
    assert!(service.crashed());
    service.run_txns(&mut gen, 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: kill the deployment at an *arbitrary*
    /// protocol point — any site, any event, any seed, any remote mix,
    /// 1/2/4/8 shards, with or without delta pressure — recover from
    /// the forced bytes alone, and the
    /// committed state is byte-identical to the untouched reference,
    /// with zero leaked slots and zero prepared versions.
    #[test]
    fn any_crash_point_recovers_byte_identically(
        seed in 1u64..=1000,
        txns in 40u64..=72,
        site_pick in 0u8..6,
        event in 1u64..=5,
        shard_pick in 0u8..4,
        mix_pick in 0u8..3,
        pressured in 0u8..2,
    ) {
        let site = CrashSite::ALL[site_pick as usize];
        let shards = [1u32, 2, 4, 8][shard_pick as usize];
        let mix = match mix_pick {
            0 => RemoteMix::LOCAL,
            1 => RemoteMix::TPCC,
            _ => RemoteMix::Uniform,
        };
        let cfg = if pressured == 1 {
            squeezed(shards)
        } else {
            ShardConfig::small(shards)
        };
        let label = format!(
            "proptest {site:?} event {event} at {shards} shards (seed {seed}, mix {mix_pick}, pressure {pressured})",
        );
        crash_and_recover(cfg, mix, seed, txns, CrashPoint { site, event }, &label);
    }
}
