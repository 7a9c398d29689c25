//! Observability acceptance: tracing is a *read-only* lens. A traced
//! run commits byte-identical state to an untraced one (closed loop and
//! open loop alike), and the emitted spans and histograms reconcile
//! exactly with the coordinator's own counters — span counts are not
//! decorative, they are the same events the reports count, seen from
//! the timeline side.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use pushtap_chbench::RemoteMix;
use pushtap_shard::{
    ArrivalConfig, ArrivalGen, CrashPoint, CrashSite, OpenLoopConfig, OpenLoopReport,
    RecoveryReport, ShardConfig, ShardOltpReport, ShardedHtap, WalHandles,
};
use pushtap_trace::{two_pc_overlap_peak, MemSink, Phase, Span};

mod common;

const SEED: u64 = 2025;
const TXNS: u64 = 120;
const SHARDS: u32 = 4;

/// Arenas squeezed as in `tests/delta_pressure.rs`, so the abort and
/// retry span paths are exercised, not just the happy path.
fn squeezed() -> ShardConfig {
    let mut cfg = ShardConfig::small(SHARDS);
    cfg.base.db.delta_frac = 0.06;
    cfg.base.db.min_delta_rows = 8;
    cfg
}

/// Runs one uniform-mix batch, optionally traced, and defragments so
/// committed bytes are comparable.
fn run(traced: bool) -> (ShardedHtap, ShardOltpReport, Vec<Span>) {
    let mut service = ShardedHtap::new(squeezed()).expect("build shards");
    let san = common::sanitize(&mut service);
    let sink = Arc::new(MemSink::default());
    if traced {
        service.set_trace_sink(sink.clone());
    }
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    let report = service.run_txns(&mut gen, TXNS);
    assert_eq!(report.committed(), TXNS);
    common::assert_sanitized_clean(&san, "traced batch");
    service.defragment_all();
    (service, report, sink.take())
}

/// [`run`] with the effect WAL enabled (always traced): every prepare
/// appends a record and every wave ends in one group-commit force
/// barrier, charged at `ShardConfig::small`'s force latency.
fn run_wal() -> (ShardedHtap, ShardOltpReport, Vec<Span>, WalHandles) {
    let mut service = ShardedHtap::new(squeezed()).expect("build shards");
    let san = common::sanitize(&mut service);
    let handles = service.enable_wal();
    let sink = Arc::new(MemSink::default());
    service.set_trace_sink(sink.clone());
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    let report = service.run_txns(&mut gen, TXNS);
    assert_eq!(report.committed(), TXNS);
    common::assert_sanitized_clean(&san, "walled traced batch");
    service.defragment_all();
    (service, report, sink.take(), handles)
}

/// One overloaded open-loop rung: arrivals far outpace service through a
/// shallow inbox, so both the rejection and the queue-wait paths fire.
fn open_loop_run(traced: bool) -> (ShardedHtap, OpenLoopReport, Vec<Span>) {
    let mut service = ShardedHtap::new(ShardConfig::small(SHARDS)).expect("build shards");
    let san = common::sanitize(&mut service);
    let sink = Arc::new(MemSink::default());
    if traced {
        service.set_trace_sink(sink.clone());
    }
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::TPCC, warehouses);
    let mut arr = ArrivalGen::new(7, ArrivalConfig::poisson(160_000_000.0));
    let report = service.run_open_loop(&mut gen, &mut arr, TXNS, &OpenLoopConfig::new(4, 8));
    common::assert_sanitized_clean(&san, "open loop");
    service.defragment_all();
    (service, report, sink.take())
}

/// Crashes a logged batch after wave 3's decision and recovers it with
/// a sink installed: the replay's spans.
fn recovered() -> (ShardedHtap, RecoveryReport, Vec<Span>) {
    let cfg = squeezed();
    let mut service = ShardedHtap::new(cfg.clone()).expect("build shards");
    let handles = service.enable_wal();
    service.arm_crash(CrashPoint {
        site: CrashSite::AfterDecision,
        event: 3,
    });
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    let _ = service.run_txns(&mut gen, TXNS);
    assert!(service.crashed(), "the armed crash must fire mid-batch");
    let image = handles.harvest();
    drop(service);
    let sink = Arc::new(MemSink::default());
    let (recovered, rec) = ShardedHtap::recover_traced(cfg, &image, sink.clone()).expect("recover");
    (recovered, rec, sink.take())
}

/// The length of a span sequence and an FNV-1a hash over every field of
/// every span, in emission order.
fn fingerprint(spans: &[Span]) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for s in spans {
        for word in [
            u64::from(s.track),
            s.phase as u64,
            s.txn,
            s.wave,
            s.start,
            s.end,
        ] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (spans.len(), hash)
}

/// Goldens for the span sequences of [`run_wal`], [`open_loop_run`] and
/// [`recovered`], and for what an armed tracker counts over the walled
/// batch (checked accesses, scopes). They were captured before spans
/// and sanitizer hooks went through one probe per engine, and pin that
/// every hook still fires where and when it did: these numbers never
/// change unless the model does.
const WAL_SPANS: (usize, u64) = (4622, 12_435_508_784_024_421_492);
const OPEN_LOOP_SPANS: (usize, u64) = (211, 6_365_753_603_888_089_113);
const RECOVERY_SPANS: (usize, u64) = (206, 1_477_399_566_232_176_069);
const ARMED_COUNTS: (u64, u64) = (5150, 662);

fn count(spans: &[Span], phase: Phase) -> u64 {
    spans.iter().filter(|s| s.phase == phase).count() as u64
}

/// The latency the timeline shows rolled back: every failed prepare's
/// `PrepareAbort` span, plus each `Prepare` span whose scope a later
/// `Abort` instant of the same transaction on the same track took back.
fn rolled_back_time(spans: &[Span]) -> u128 {
    let mut prepared: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut total = 0u128;
    for s in spans {
        match s.phase {
            Phase::PrepareAbort => total += u128::from(s.dur()),
            Phase::Prepare => {
                prepared.insert((s.track, s.txn), s.dur());
            }
            Phase::Abort => {
                let taken_back = prepared.remove(&(s.track, s.txn));
                total += u128::from(taken_back.expect("an abort takes back a prepare"));
            }
            _ => {}
        }
    }
    total
}

/// The histogram/counter invariants of a closed-loop batch, WAL on or
/// off.
fn assert_report_reconciles(report: &ShardOltpReport, spans: &[Span], label: &str) {
    let total = report.merged();
    // One commit-latency sample per committed transaction.
    assert_eq!(
        total.commit_latency.count(),
        report.committed(),
        "{label}: commit-latency samples"
    );
    // Message rounds (one 2PC-stall sample each) and group-commit force
    // barriers are the *only* two charges to the critical path, so the
    // stall sum plus the force time reproduce it exactly (the force
    // term is zero whenever the WAL is off).
    assert_eq!(
        total.two_pc_stall.sum() + u128::from(total.wal_force_time.ps()),
        u128::from(total.critical_path_time.ps()),
        "{label}: stall sum + force time vs critical path"
    );
    // Garbage collection reconciles on both axes. One GcPass interval
    // per *reclaiming* pass (empty passes cost nothing and emit
    // nothing), and the gc-stall histogram's total is exactly the GC
    // time the reports charged — a sample covers every pass one
    // execute call absorbed, so its count bounds the pass count from
    // below without ever exceeding it.
    let gc = total.gc;
    assert!(
        gc.passes > 0,
        "{label}: squeezed arenas must garbage-collect"
    );
    assert_eq!(
        count(spans, Phase::GcPass),
        gc.passes,
        "{label}: gc pass intervals"
    );
    let gc_stall = &total.gc_stall;
    assert!(gc_stall.count() > 0 && gc_stall.count() <= gc.passes);
    assert_eq!(
        gc_stall.sum(),
        u128::from(total.gc_time.ps()),
        "{label}: gc stall sum vs charged gc time"
    );
    for s in spans.iter().filter(|s| s.phase == Phase::GcPass) {
        assert!(s.track < SHARDS, "{label}: gc runs on a shard track");
        assert!(s.end > s.start, "{label}: a reclaiming pass takes time");
        assert_eq!(s.wave, 0, "{label}: gc runs outside wave execution");
    }
    // Every abort the report counts appears on the timeline: a failed
    // prepare (PrepareAbort span) or a coordinator abort decision
    // (Abort instant).
    assert!(total.aborts > 0, "{label}: squeezed arenas must abort");
    assert_eq!(
        count(spans, Phase::PrepareAbort) + count(spans, Phase::Abort),
        total.aborts,
        "{label}: abort events"
    );
    // And the time they wasted is the time the timeline rolled back: a
    // failed prepare's whole span, and each prepare a coordinator abort
    // took back — the `Prepare` span of the same transaction on the
    // same shard just before its `Abort` instant.
    assert!(
        count(spans, Phase::Abort) > 0,
        "{label}: coordinator aborts"
    );
    assert_eq!(
        rolled_back_time(spans),
        u128::from(total.wasted_retry_time.ps()),
        "{label}: wasted retry time vs rolled-back spans"
    );
    // Every routed transaction was marked at ingestion, and every
    // commit decision (home and participant halves) left an instant.
    assert_eq!(count(spans, Phase::Routed), TXNS, "{label}: routed markers");
    assert!(count(spans, Phase::Commit) >= report.committed());
    // A retry instant only ever follows an abort of the *same*
    // transaction (pinned timestamps make the identity exact), and the
    // squeezed arenas guarantee the retry path ran at all.
    let aborted_ts: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::PrepareAbort || s.phase == Phase::Abort)
        .map(|s| s.txn)
        .collect();
    let committed_ts: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::Commit)
        .map(|s| s.txn)
        .collect();
    let retried_ts: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::Retry)
        .map(|s| s.txn)
        .collect();
    for ts in &retried_ts {
        assert!(
            aborted_ts.contains(ts),
            "{label}: retry of {ts} without an abort"
        );
        assert!(
            committed_ts.contains(ts),
            "{label}: retry of {ts} never committed"
        );
    }
    // Vote-barrier waits belong to cross-shard two-phase commits only,
    // and every routed cross-shard transaction crossed the barrier at
    // least once (its final, committing attempt).
    assert!(
        report.remote.cross_shard_txns > 0,
        "{label}: mix routes remotes"
    );
    let two_pc_ts: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::TwoPc)
        .map(|s| s.txn)
        .collect();
    for s in spans.iter().filter(|s| s.phase == Phase::VoteBarrier) {
        assert!(
            two_pc_ts.contains(&s.txn),
            "{label}: vote barrier on non-2PC txn {}",
            s.txn
        );
    }
    assert!(
        count(spans, Phase::VoteBarrier) >= report.remote.cross_shard_txns,
        "{label}: every cross-shard txn waits out a vote round-trip"
    );
    // One defrag-stall interval per mid-batch pass (one defrag-stall
    // sample each), plus the one pass per shard the harness runs after
    // the batch to make committed bytes comparable.
    assert_eq!(
        count(spans, Phase::DefragStall),
        total.defrag_stall.count() + u64::from(SHARDS),
        "{label}: defrag stall intervals"
    );
}

#[test]
fn closed_loop_trace_reconciles_with_counters() {
    let (_, report, spans) = run(true);
    assert_report_reconciles(&report, &spans, "closed loop");
    // Every scheduled wave shows up: the distinct wave ids on the
    // phase-interval spans are exactly 1..=waves (a casualty's retry
    // runs alone, outside any wave: id 0).
    let wave_ids: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::WavePrepare && s.wave > 0)
        .map(|s| s.wave)
        .collect();
    assert_eq!(wave_ids.len() as u64, report.coord.waves);
    assert_eq!(wave_ids.iter().copied().max(), Some(report.coord.waves));
    // A shard's decision pass over a wave follows its prepare pass over
    // the same wave (the vote barrier sits between them).
    let prepared: BTreeMap<(u32, u64), u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::WavePrepare && s.wave > 0)
        .map(|s| ((s.track, s.wave), s.end))
        .collect();
    assert!(count(&spans, Phase::WaveDecide) > 0);
    for s in spans
        .iter()
        .filter(|s| s.phase == Phase::WaveDecide && s.wave > 0)
    {
        assert!(
            prepared
                .get(&(s.track, s.wave))
                .is_some_and(|&end| end <= s.start),
            "shard {} decided wave {} before preparing it",
            s.track,
            s.wave
        );
    }
    // The overlap statistic recomputed from the timeline: a wave with
    // k ≥ 2 distinct cross-shard 2PCs contributes all k.
    let mut per_wave: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.phase == Phase::TwoPc && s.wave > 0)
    {
        per_wave.entry(s.wave).or_default().insert(s.txn);
    }
    let overlapped: u64 = per_wave
        .values()
        .map(|txns| txns.len() as u64)
        .filter(|&k| k >= 2)
        .sum();
    assert_eq!(overlapped, report.coord.overlapped_two_pcs);
    // And the spans genuinely overlap in time: the busiest wave holds
    // at least two 2PCs open concurrently (the pipelining claim, read
    // off the timeline rather than the counters).
    let (wave, peak) = two_pc_overlap_peak(&spans);
    assert!(wave > 0);
    assert!(peak >= 2, "peak concurrent 2PCs {peak} in wave {wave}");
    // The whole batch is offered at once, so every transaction waits
    // out the earlier waves of its own batch on its home shard: one
    // queue-wait sample each.
    let total = report.merged();
    assert_eq!(total.queue_wait.count(), TXNS);
    // Queued intervals are the nonzero waits of that histogram: at most
    // one per transaction, every one strictly positive, and their
    // durations sum to exactly the histogram's total — zero-wait
    // transactions (each shard's first wave) contribute zero on both
    // sides.
    assert!(
        count(&spans, Phase::Queued) < TXNS,
        "first waves never wait"
    );
    assert!(
        count(&spans, Phase::Queued) > 0,
        "later waves queue behind earlier ones"
    );
    let queued: u128 = spans
        .iter()
        .filter(|s| s.phase == Phase::Queued)
        .map(|s| {
            assert!(s.end > s.start, "a queued interval is never empty");
            assert!(s.wave > 1, "wave 1 dispatches at the run's start");
            u128::from(s.end - s.start)
        })
        .sum();
    assert_eq!(queued, total.queue_wait.sum(), "queued time vs histogram");
    // A closed-loop run turns nothing away.
    assert_eq!(count(&spans, Phase::Rejected), 0);
    // Every retry instant is a casualty re-entering as a wave of one:
    // at least one per retried transaction (more if it aborts again).
    assert!(total.retried_txns > 0, "squeezed arenas must retry");
    assert!(count(&spans, Phase::Retry) >= total.retried_txns);
    let retried: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::Retry)
        .map(|s| s.txn)
        .collect();
    assert_eq!(retried.len() as u64, total.retried_txns);
}

#[test]
fn wal_trace_reconciles_with_durability_counters() {
    let label = "wal";
    let (walled, wr, spans, handles) = run_wal();
    // The shared invariants hold with the WAL's force time now a
    // nonzero term of the critical-path identity.
    assert_report_reconciles(&wr, &spans, label);
    let total = wr.merged();
    assert!(total.wal_force_time.ps() > 0, "{label}: forces charged");
    // Every effect-record append left a WalAppend instant, and
    // every group-commit barrier a GroupCommit interval whose
    // duration is exactly the force latency it charged.
    assert!(total.wal_appends >= wr.committed(), "{label}: appends");
    assert_eq!(
        count(&spans, Phase::WalAppend),
        total.wal_appends,
        "{label}: append instants"
    );
    assert!(total.wal_forces > 0, "{label}: forces");
    assert_eq!(
        count(&spans, Phase::GroupCommit),
        total.wal_forces,
        "{label}: force intervals"
    );
    let forced: u128 = spans
        .iter()
        .filter(|s| s.phase == Phase::GroupCommit)
        .map(|s| u128::from(s.end - s.start))
        .sum();
    assert_eq!(
        forced,
        u128::from(total.wal_force_time.ps()),
        "{label}: force interval durations vs charged force time"
    );
    // The coordinator durably decided every cross-shard commit
    // (presumed abort: no decision record, no commit), syncing the
    // decision log at least once but at most once per decision.
    assert!(wr.coord.decision_appends > 0, "{label}: decisions");
    assert!(wr.coord.decision_forces > 0, "{label}: decision syncs");
    assert!(
        wr.coord.decision_forces <= wr.coord.decision_appends,
        "{label}: decision syncs amortize, never multiply"
    );
    // Logging changes *time* (the barriers are on the critical
    // path) but never a committed byte: state, commits, aborts all
    // match the unlogged run, and the logs themselves are nonempty.
    let (plain, pr, _) = run(false);
    common::assert_services_match(&walled, &plain, label);
    assert_eq!(wr.committed(), pr.committed(), "{label}: commits");
    assert_eq!(total.aborts, pr.merged().aborts, "{label}: aborts");
    assert!(
        wr.makespan() > pr.makespan(),
        "{label}: force barriers cost simulated time"
    );
    let image = handles.harvest();
    assert!(image.shards.iter().any(|s| !s.is_empty()));
    assert!(!image.decisions.is_empty());
    // Group commit's acceptance number, measured on ample arenas (the
    // squeezed config's delta-pressure retries pay per-retry barriers,
    // drowning the amortization): one barrier amortized across a whole
    // wave keeps durable syncs per committed transaction below one.
    let mut service = ShardedHtap::new(ShardConfig::small(SHARDS)).expect("build shards");
    let _handles = service.enable_wal();
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    let report = service.run_txns(&mut gen, TXNS);
    assert_eq!(report.committed(), TXNS);
    let fsync = report.fsync_per_txn();
    assert!(fsync < 1.0, "fsync/txn {fsync:.3} must stay below 1");
}

#[test]
fn recovery_spans_land_on_replaying_shards() {
    // Crash a logged batch mid-flight, recover with a sink
    // installed, and check the replay shows up on the timeline: one
    // Recovery interval per shard that actually replayed records, on
    // that shard's own track.
    let (_, rec, spans) = recovered();
    assert_eq!(fingerprint(&spans), RECOVERY_SPANS, "recovery span golden");
    let replaying = rec.per_shard.iter().filter(|s| s.replayed > 0).count() as u64;
    assert!(replaying > 0, "a crash after 3 waves leaves work to replay");
    assert_eq!(
        count(&spans, Phase::Recovery),
        replaying,
        "one recovery interval per replaying shard"
    );
    let tracks: BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.phase == Phase::Recovery)
        .map(|s| s.track)
        .collect();
    assert_eq!(tracks.len() as u64, replaying, "distinct per-shard tracks");
    for s in spans.iter().filter(|s| s.phase == Phase::Recovery) {
        assert!(s.track < SHARDS);
        assert!(s.end >= s.start);
        assert_eq!(s.txn, 0, "recovery spans are not tied to one txn");
        assert_eq!(s.wave, 0, "recovery runs outside wave execution");
    }
}

/// The open-loop front-end's timeline reconciles with its queueing
/// counters: one `Rejected` instant per counted rejection, `Routed`
/// instants mark admissions only, and the `Queued` intervals are
/// exactly the nonzero samples of the queue-wait histogram — while the
/// vote-barrier stall identities survive the laggard decision model.
#[test]
fn open_loop_trace_reconciles_with_queue_counters() {
    let (service, report, spans) = open_loop_run(true);
    assert_eq!(
        fingerprint(&spans),
        OPEN_LOOP_SPANS,
        "open-loop span golden"
    );
    assert!(report.rejected() > 0, "overload must reject");
    assert!(report.admitted() > 0, "overload must still admit");
    // Every rejection left a counted instant on its home shard's track;
    // a rejected arrival never drew a timestamp.
    assert_eq!(count(&spans, Phase::Rejected), report.rejected());
    for s in spans.iter().filter(|s| s.phase == Phase::Rejected) {
        assert!(s.track < SHARDS, "rejections land on shard tracks");
        assert_eq!(s.end, s.start, "rejections are instants");
        assert_eq!(s.txn, 0, "a rejected arrival has no timestamp");
    }
    // Ingestion markers belong to admitted transactions only.
    assert_eq!(count(&spans, Phase::Routed), report.admitted());
    // One queue-wait sample per admitted transaction; the Queued
    // intervals are that histogram's nonzero waits and their durations
    // sum to exactly its total.
    let qw = report.exec.queue_wait();
    assert_eq!(qw.count(), report.admitted(), "queue-wait samples");
    assert!(count(&spans, Phase::Queued) > 0, "overload must queue");
    assert!(count(&spans, Phase::Queued) <= report.admitted());
    let queued: u128 = spans
        .iter()
        .filter(|s| s.phase == Phase::Queued)
        .map(|s| {
            assert!(s.end > s.start, "a queued interval is never empty");
            u128::from(s.end - s.start)
        })
        .sum();
    assert_eq!(queued, qw.sum(), "queued time vs histogram");
    // Sojourn covers every admitted transaction and dominates its own
    // queueing component.
    assert_eq!(report.sojourn.count(), report.admitted());
    assert!(report.sojourn.sum() >= qw.sum());
    // The critical-path identity survives the laggard vote-barrier
    // model: stalls plus force barriers (zero here — no WAL) reproduce
    // the critical path exactly.
    let total = report.exec.merged();
    assert_eq!(
        total.two_pc_stall.sum() + u128::from(total.wal_force_time.ps()),
        u128::from(total.critical_path_time.ps()),
        "stall sum + force time vs critical path"
    );
    // Tracing stays a read-only lens on the open loop too.
    let (untraced, ur, none) = open_loop_run(false);
    assert!(none.is_empty(), "disabled sink must stay empty");
    assert_eq!(report.first_ts, ur.first_ts);
    assert_eq!(report.admitted_index, ur.admitted_index);
    assert_eq!(report.rejected_per_shard, ur.rejected_per_shard);
    common::assert_services_match(&service, &untraced, "open loop traced vs untraced");
}

/// The simulator runs on one host thread, so two runs of one seed emit
/// the same spans in the same *order* — no sorting — and an armed
/// shadow tracker observes the same counts. (With a host thread per
/// shard the shards' emissions interleaved by scheduling luck.)
#[test]
fn same_seed_emits_identical_unsorted_sequences() {
    let (_, _, first, _) = run_wal();
    let (_, _, second, _) = run_wal();
    assert!(!first.is_empty());
    assert_eq!(first, second, "span emission order must repeat exactly");
    assert_eq!(fingerprint(&first), WAL_SPANS, "walled batch span golden");
    // Together the pinned sequences hold every hook the committed
    // 8-shard trace never shows: aborts, retries, reclamation, the WAL,
    // the open-loop front-end and recovery.
    let (_, _, open) = open_loop_run(true);
    let (_, _, replay) = recovered();
    let seen: BTreeSet<Phase> = first
        .iter()
        .chain(&open)
        .chain(&replay)
        .map(|s| s.phase)
        .collect();
    for phase in [
        Phase::PrepareAbort,
        Phase::Abort,
        Phase::Retry,
        Phase::WalAppend,
        Phase::GroupCommit,
        Phase::Queued,
        Phase::Rejected,
        Phase::Recovery,
    ] {
        assert!(seen.contains(&phase), "no {phase:?} span is pinned");
    }
    assert!(seen.contains(&Phase::GcPass) || seen.contains(&Phase::DefragStall));

    let armed = || {
        let mut service = ShardedHtap::new(squeezed()).expect("build shards");
        let san = common::sanitize(&mut service);
        let _handles = service.enable_wal();
        let warehouses = service.map().warehouses();
        let mut gen = service
            .global_txn_gen(SEED)
            .with_remote_mix(RemoteMix::Uniform, warehouses);
        assert_eq!(service.run_txns(&mut gen, TXNS).committed(), TXNS);
        san.assert_clean("armed determinism run");
        (san.checked_accesses(), san.scopes_tracked())
    };
    let observed = armed();
    assert!(observed.0 > 0 && observed.1 > 0, "tracker saw nothing");
    assert_eq!(observed, armed(), "sanitizer observation counts");
    assert_eq!(observed, ARMED_COUNTS, "armed tracker golden");
}

#[test]
fn tracing_changes_no_committed_byte() {
    // The sink sees every lifecycle event, yet committed state and the
    // report counters are identical to an untraced run, under delta
    // pressure.
    let (traced, tr, spans) = run(true);
    let (untraced, ur, none) = run(false);
    assert!(!spans.is_empty());
    assert!(none.is_empty(), "disabled sink must stay empty");
    common::assert_services_match(&traced, &untraced, "traced vs untraced");
    let (t, u) = (tr.merged(), ur.merged());
    assert_eq!(tr.committed(), ur.committed());
    assert_eq!(t.aborts, u.aborts);
    assert_eq!(t.two_pc_stall.count(), u.two_pc_stall.count());
    assert_eq!(tr.makespan(), ur.makespan());
    assert_eq!(
        t.commit_latency.stats(),
        u.commit_latency.stats(),
        "histograms are recorded unconditionally — sink on or off"
    );
}
