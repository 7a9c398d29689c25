//! The composition the one-path driver unlocks: open-loop arrivals
//! through a bounded inbox (some rejected), the WAL and group commit on,
//! maintenance every 200 transactions per shard, a `checkpoint()`
//! between two open-loop runs, and a kill at any of the six crash sites
//! of an early, a middle and the last wave of the second run. Whatever
//! the kill leaves durable recovers **byte-identically** to an
//! unpartitioned reference holding exactly the recovered committed set.
//!
//! None of this has mechanism of its own: `run_open_loop` and `run_txns`
//! are two configurations of one driver, so an open-loop run logs,
//! group-commits, checkpoints and crashes because a closed-loop run
//! does. The last test holds the two against each other directly: the
//! same stream, open loop and closed loop, commits identical bytes and
//! identical WAL record sets.

mod common;

use std::collections::BTreeSet;

use pushtap_chbench::{RemoteMix, ALL_TABLES};
use pushtap_format::RowSlot;
use pushtap_pim::Ps;
use pushtap_shard::{
    ArrivalConfig, ArrivalGen, CrashPoint, CrashSite, OpenLoopConfig, ShardConfig, ShardedHtap,
    WalBytes,
};

const SEED: u64 = 2025;
const ARRIVAL_SEED: u64 = 7;
const MIX: RemoteMix = RemoteMix::Uniform;
/// Arrivals offered per shard before the checkpoint, and again after
/// it: enough that every shard crosses its maintenance period.
const ARRIVALS_PER_SHARD: u64 = 160;
/// Offered load per shard, simulated transactions per second: past
/// what a shard serves under this mix, so the inboxes back up and turn
/// some arrivals away while most are still admitted.
const RATE_PER_SHARD_TPS: f64 = 120_000.0;
const OPEN: OpenLoopConfig = OpenLoopConfig {
    inbox_depth: 12,
    window: 8,
};

fn config(shards: u32) -> ShardConfig {
    let mut cfg = ShardConfig::small(shards);
    cfg.base.defrag_period = 200;
    // Every scenario builds three databases (the deployment, its
    // recovery, the reference), and the matrix has 76 scenarios: a
    // smaller population keeps it affordable in a debug build.
    cfg.base.db.scale = 0.0002;
    cfg
}

fn arrivals_per_run(shards: u32) -> u64 {
    ARRIVALS_PER_SHARD * u64::from(shards)
}

#[derive(Debug, Clone, Copy)]
enum Arrivals {
    Poisson,
    Bursty,
}

impl Arrivals {
    fn generator(self, shards: u32) -> ArrivalGen {
        let rate = RATE_PER_SHARD_TPS * f64::from(shards);
        let cfg = match self {
            Arrivals::Poisson => ArrivalConfig::poisson(rate),
            Arrivals::Bursty => ArrivalConfig::bursty(rate, 0.8, Ps::from_us(50.0)),
        };
        ArrivalGen::new(ARRIVAL_SEED, cfg)
    }
}

/// What one scenario observed, for the matrix to steer by.
struct Outcome {
    /// Waves the second (post-checkpoint) run dispatched.
    second_waves: u64,
    /// Arrivals turned away across both runs.
    rejected: u64,
    /// Reclaiming GC passes across both runs.
    gc_passes: u64,
    /// Whether the armed crash fired.
    crashed: bool,
}

/// One end-to-end scenario: two open-loop runs off one transaction
/// stream and one arrival clock, a checkpoint between them, `crash`
/// armed for the second; then the kill (drop), recovery from the
/// harvested bytes alone, and the full obligation set — scan hygiene,
/// no prepared scope, no leaked slot, the checkpointed run recovered
/// whole, every table of every shard byte-identical to the reference
/// holding exactly the recovered committed set, and a recovered
/// deployment that keeps serving open-loop.
fn scenario(shards: u32, arrivals: Arrivals, crash: Option<CrashPoint>, label: &str) -> Outcome {
    let cfg = config(shards);
    let mut service = ShardedHtap::new(cfg.clone()).expect("build shards");
    let san = common::sanitize(&mut service);
    let handles = service.enable_wal();
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(MIX, warehouses);
    let mut clock = arrivals.generator(shards);
    let n = arrivals_per_run(shards);

    let first = service.run_open_loop(&mut gen, &mut clock, n, &OPEN);
    assert_eq!(
        first.exec.committed(),
        first.admitted(),
        "{label}: run 1 commits everything it admits"
    );
    assert!(
        first.exec.merged().wal_appends >= first.admitted(),
        "{label}: run 1 logs"
    );
    assert!(
        first.exec.fsync_per_txn() < 1.0,
        "{label}: waves group-commit open loop too ({:.3} syncs/txn)",
        first.exec.fsync_per_txn()
    );
    let ckpt = service.checkpoint();
    assert_eq!(
        ckpt.cut.0,
        first.admitted(),
        "{label}: the cut is the watermark"
    );
    assert!(
        ckpt.bytes_reclaimed() > 0,
        "{label}: the checkpoint reclaims"
    );

    if let Some(point) = crash {
        service.arm_crash(point);
    }
    let second = service.run_open_loop(&mut gen, &mut clock, n, &OPEN);
    let crashed = service.crashed();
    assert_eq!(second.exec.coord.crashed, crashed, "{label}: report agrees");
    if !crashed {
        assert_eq!(second.exec.committed(), second.admitted(), "{label}: run 2");
    }
    common::assert_sanitized_clean(&san, label);
    // The kill: only what the force barriers made durable survives.
    let image = handles.harvest();
    drop(service);

    // Position in the generated stream of the transaction pinned at each
    // timestamp, across both runs (timestamps are contiguous from 1).
    let admitted: Vec<u64> = first
        .admitted_index
        .iter()
        .copied()
        .chain(second.admitted_index.iter().map(|i| n + i))
        .collect();

    let (mut recovered, rec) = ShardedHtap::recover(cfg, &image).expect("recover");
    for (i, s) in rec.per_shard.iter().enumerate() {
        assert_eq!(
            s.replayed + s.skipped + s.duplicates,
            s.records,
            "{label}: shard {i} scan handed out a partial record"
        );
    }
    assert!(
        rec.committed.len() as u64 >= first.admitted(),
        "{label}: the checkpointed run must recover whole"
    );
    if !crashed {
        assert_eq!(rec.committed.len(), admitted.len(), "{label}: nothing lost");
        assert_eq!(rec.skipped(), 0, "{label}: everything was decided");
    }
    for (i, shard) in recovered.shards().iter().enumerate() {
        assert_eq!(shard.db().prepared_scopes(), 0, "{label}: shard {i} scope");
        assert_eq!(shard.db().prepared_versions(), 0, "{label}: shard {i}");
    }
    recovered.defragment_all();
    for (i, shard) in recovered.shards().iter().enumerate() {
        assert_eq!(shard.db().live_delta_rows(), 0, "{label}: shard {i} leaked");
    }
    let reference =
        common::reference_holding_admitted(recovered.cfg(), MIX, SEED, &admitted, &rec.committed);
    common::assert_shards_match_reference(&recovered, &reference, label);

    // Liveness: the recovered deployment takes open-loop traffic again.
    let post_san = common::sanitize(&mut recovered);
    let mut gen = recovered
        .global_txn_gen(SEED ^ 0x5eed)
        .with_remote_mix(MIX, warehouses);
    let post = recovered.run_open_loop(&mut gen, &mut arrivals.generator(shards), 24, &OPEN);
    assert!(post.admitted() > 0, "{label}: recovered and serving");
    assert_eq!(
        post.exec.committed(),
        post.admitted(),
        "{label}: post-recovery"
    );
    common::assert_sanitized_clean(&post_san, label);

    Outcome {
        second_waves: second.exec.coord.waves,
        rejected: first.rejected() + second.rejected(),
        gc_passes: first.exec.gc().passes + second.exec.gc().passes,
        crashed,
    }
}

/// One (shard count, arrival process) cell of the matrix: the uncrashed
/// run first — it must reject, collect garbage, and tells how many
/// waves run 2 has — then every crash site at wave 1, the middle wave
/// and the last.
fn crash_matrix(shards: u32, arrivals: Arrivals) {
    let base = format!("{arrivals:?} at {shards} shards");
    let clean = scenario(shards, arrivals, None, &format!("{base}, no crash"));
    assert!(!clean.crashed);
    assert!(clean.rejected > 0, "{base}: the bounded inbox must reject");
    assert!(clean.gc_passes > 0, "{base}: maintenance must collect");
    let last = clean.second_waves;
    assert!(
        last >= 3,
        "{base}: run 2 needs an early, a middle and a last wave"
    );
    for site in CrashSite::ALL {
        for event in [1, last / 2, last] {
            let label = format!("{base}, {site:?} at wave {event} of {last}");
            let out = scenario(shards, arrivals, Some(CrashPoint { site, event }), &label);
            assert!(out.crashed, "{label}: the armed crash must fire");
        }
    }
}

#[test]
fn poisson_arrivals_recover_from_every_site_at_2_shards() {
    crash_matrix(2, Arrivals::Poisson);
}

#[test]
fn bursty_arrivals_recover_from_every_site_at_2_shards() {
    crash_matrix(2, Arrivals::Bursty);
}

#[test]
fn poisson_arrivals_recover_from_every_site_at_4_shards() {
    crash_matrix(4, Arrivals::Poisson);
}

#[test]
fn bursty_arrivals_recover_from_every_site_at_4_shards() {
    crash_matrix(4, Arrivals::Bursty);
}

/// The record payloads of one durable log image, as a set.
fn record_set(image: &[u8]) -> BTreeSet<Vec<u8>> {
    let scanned = pushtap_wal::scan(image);
    assert!(!scanned.torn, "an uncrashed log has no torn tail");
    scanned.records.into_iter().map(<[u8]>::to_vec).collect()
}

fn record_sets(image: &WalBytes) -> (Vec<BTreeSet<Vec<u8>>>, BTreeSet<Vec<u8>>) {
    (
        image.shards.iter().map(|s| record_set(s)).collect(),
        record_set(&image.decisions),
    )
}

/// Closed loop is open loop with every arrival at time zero and no
/// bounds: given the same stream (an unbounded inbox admits every
/// arrival), `run_txns` and `run_open_loop` commit identical bytes and
/// leave identical WAL record sets — the window only changes which
/// waves the records were forced in, never which records exist.
#[test]
fn closed_loop_and_open_loop_commit_identical_bytes_and_records() {
    for shards in [2u32, 4] {
        let label = format!("{shards} shards");
        let n = arrivals_per_run(shards);
        let run = |open_loop: bool| {
            let mut service = ShardedHtap::new(config(shards)).expect("build shards");
            let san = common::sanitize(&mut service);
            let handles = service.enable_wal();
            let warehouses = service.map().warehouses();
            let mut gen = service
                .global_txn_gen(SEED)
                .with_remote_mix(MIX, warehouses);
            let report = if open_loop {
                let open = OpenLoopConfig::new(usize::MAX, OPEN.window);
                let mut clock = Arrivals::Poisson.generator(shards);
                let r = service.run_open_loop(&mut gen, &mut clock, n, &open);
                assert_eq!(r.rejected(), 0, "{label}: unbounded inbox rejected");
                r.exec
            } else {
                service.run_txns(&mut gen, n)
            };
            assert_eq!(report.committed(), n, "{label}");
            assert_eq!(
                report.merged().aborts,
                0,
                "{label}: ample arenas, no duplicates"
            );
            common::assert_sanitized_clean(&san, &label);
            service.defragment_all();
            (service, handles.harvest(), report)
        };
        let (open, open_image, open_report) = run(true);
        let (closed, closed_image, closed_report) = run(false);
        assert!(
            open_report.coord.waves > closed_report.coord.waves,
            "{label}: a bounded window must cut the stream finer"
        );
        assert_eq!(
            record_sets(&open_image),
            record_sets(&closed_image),
            "{label}: WAL record sets"
        );
        for i in 0..shards {
            let (a, b) = (open.shard(i).db(), closed.shard(i).db());
            assert_eq!(a.last_ts(), b.last_ts(), "{label}: shard {i} watermark");
            for table in ALL_TABLES {
                let (ta, tb) = (a.table(table), b.table(table));
                assert_eq!(ta.n_rows(), tb.n_rows());
                for row in 0..ta.n_rows() {
                    assert_eq!(
                        ta.store().read_row(RowSlot::Data { row }),
                        tb.store().read_row(RowSlot::Data { row }),
                        "{label}: shard {i} {table:?} row {row} diverged"
                    );
                }
            }
        }
    }
}
