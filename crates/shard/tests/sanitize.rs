//! Sanitizer acceptance: an armed keyset-soundness tracker watches
//! whole sharded batches — happy path and `DeltaFull` pressure, wave
//! casualties retrying as waves of one — and reports **zero**
//! violations, while the
//! armed deployment's committed bytes stay identical to an unarmed
//! twin's (the hooks charge no simulated time, so arming is a pure
//! lens). The injection tests then prove the detector is live end to
//! end: a deliberate protocol breach through the installed tracker
//! fires the matching [`ViolationKind`].

use std::sync::Arc;

use pushtap_chbench::RemoteMix;
use pushtap_sanitizer::{Access, AccessKind, ShadowSanitizer, ViolationKind};
use pushtap_shard::{ShardOltpReport, ShardedHtap};

mod common;

const SEED: u64 = 7_341;
const TXNS: u64 = 120;
/// Shards of every deployment here, built with squeezed arenas
/// ([`common::squeezed`]) so the tracker also watches `DeltaFull`
/// aborts, pinned-timestamp retries and wave casualties — the paths
/// where scope discipline is easiest to break.
const SHARDS: u32 = 4;

/// Runs one uniform-mix batch, optionally armed, and returns the
/// service, the tracker (present only when armed) and the batch's
/// report.
fn run(armed: bool) -> (ShardedHtap, Option<Arc<ShadowSanitizer>>, ShardOltpReport) {
    let mut service = ShardedHtap::new(common::squeezed(SHARDS)).expect("build shards");
    let san = armed.then(|| common::sanitize(&mut service));
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    let report = service.run_txns(&mut gen, TXNS);
    assert_eq!(report.committed(), TXNS);
    service.defragment_all();
    (service, san, report)
}

#[test]
fn armed_batches_are_violation_free_and_byte_neutral() {
    let label = "squeezed uniform batch";
    let (armed, san, armed_report) = run(true);
    let san = san.expect("armed run returns its tracker");
    // The tracker genuinely watched the batch: every transaction
    // opened at least one scope, and row traffic was checked.
    assert!(
        san.scopes_tracked() >= TXNS,
        "{label}: {} scopes for {TXNS} txns — hooks disconnected?",
        san.scopes_tracked()
    );
    assert!(
        san.checked_accesses() > TXNS,
        "{label}: too few checked accesses ({})",
        san.checked_accesses()
    );
    san.assert_clean(label);
    // And arming changed nothing a byte or a clock can see: the hooks
    // charge zero simulated time, so the armed deployment commits the
    // exact state an unarmed twin does, on the exact same clocks.
    let (unarmed, _, unarmed_report) = run(false);
    common::assert_services_match(&armed, &unarmed, &format!("{label} under the sanitizer"));
    for (i, (a, u)) in armed_report
        .per_shard
        .iter()
        .zip(&unarmed_report.per_shard)
        .enumerate()
    {
        assert_eq!(a.elapsed, u.elapsed, "{label}: shard {i} elapsed moved");
    }
    assert_eq!(
        armed_report.makespan(),
        unarmed_report.makespan(),
        "{label}: makespan moved"
    );
    assert_eq!(
        armed_report.merged().commit_latency.stats(),
        unarmed_report.merged().commit_latency.stats(),
        "{label}: commit latency moved"
    );
}

#[test]
fn default_deployment_stays_unarmed() {
    let service = ShardedHtap::new(common::squeezed(SHARDS)).expect("build shards");
    for shard in service.shards() {
        assert!(
            shard.db().probe().sanitizer().is_none(),
            "a fresh deployment must hold no sanitizer"
        );
    }
}

/// Drives a deliberate breach through a tracker installed on a real
/// deployment: an access recorded outside any scope at a timestamp the
/// batch already resolved. The detector must still be live after the
/// batch (it is the same `Arc` the engines hold) and must classify the
/// breach correctly.
#[test]
fn injected_stray_access_fires_end_to_end() {
    let (_service, san, _) = run(true);
    let san = san.expect("armed");
    san.assert_clean("before injection");
    san.record_access(
        0,
        1,
        Access {
            kind: AccessKind::Write,
            table: 0,
            key: 42,
        },
    );
    san.batch_end(0);
    let violations = san.take_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::AccessOutsideScope),
        "stray write must be flagged, got {violations:?}"
    );
}

/// An undeclared access inside a declared scope: the scope promises a
/// keyset and touches a row outside it — the exact scheduler-
/// unsoundness the tracker exists to catch, driven through the same
/// installed tracker a real deployment holds.
#[test]
fn injected_undeclared_access_fires_end_to_end() {
    let (_service, san, _) = run(true);
    let san = san.expect("armed");
    san.assert_clean("before injection");
    let next_ts = 1_000_000;
    san.begin_scope(0, next_ts, &[], &[]);
    san.record_access(
        0,
        next_ts,
        Access {
            kind: AccessKind::Read,
            table: 3,
            key: 7,
        },
    );
    san.prepare_scope(0, next_ts);
    san.commit_scope(0, next_ts);
    san.batch_end(0);
    let violations = san.take_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::UndeclaredAccess),
        "undeclared read must be flagged, got {violations:?}"
    );
}

/// Two same-wave scopes writing the same key: the wave scheduler's
/// core promise broken by hand, caught by the lockset check.
#[test]
fn injected_wave_conflict_fires_end_to_end() {
    let (_service, san, _) = run(true);
    let san = san.expect("armed");
    san.assert_clean("before injection");
    let (a, b) = (2_000_000, 2_000_001);
    let key = pushtap_sanitizer::SanKey::Row(0, 9);
    san.assign_wave(a, 77);
    san.assign_wave(b, 77);
    for ts in [a, b] {
        san.begin_scope(0, ts, &[], &[key]);
        san.record_access(
            0,
            ts,
            Access {
                kind: AccessKind::Write,
                table: 0,
                key: 9,
            },
        );
        san.prepare_scope(0, ts);
        san.commit_scope(0, ts);
    }
    san.batch_end(0);
    let violations = san.take_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::WaveConflict),
        "same-wave overlapping writers must be flagged, got {violations:?}"
    );
}

/// The GC-vs-reader race, broken by hand: a reader pins a cut through
/// the deployment's oracle (as [`ShardedHtap::run_query`] does for the
/// scatter's duration) and a version at the pinned cut is reclaimed
/// anyway. Handed the oracle's oldest pin, as every engine's garbage
/// collection hands it, the tracker must flag the reclaim, and must go
/// silent again once the pin is dropped.
#[test]
fn injected_reclaim_under_pin_fires_end_to_end() {
    let (service, san, _) = run(true);
    let san = san.expect("armed");
    san.assert_clean("before injection");
    let oracle = service.ts_oracle();
    let oldest_pin = || oracle.oldest_pin().map(|pin| pin.0);
    let cut = oracle.watermark();
    let pin = oracle.pin_snapshot(cut);
    san.reclaim_version(0, 2, 11, cut.0 - 1, oldest_pin()); // strictly below: legal
    san.reclaim_version(1, 2, 11, cut.0, oldest_pin()); // at the pin: a pinned reader's version
    san.batch_end(0);
    let violations = san.take_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::ReclaimedPinnedVersion),
        "reclaiming a pinned version must be flagged, got {violations:?}"
    );
    // Dropped pin: the same reclaim is clean.
    drop(pin);
    san.reclaim_version(1, 2, 11, cut.0, oldest_pin());
    san.batch_end(0);
    san.assert_clean("after release");
}

/// The batch-boundary discipline: a scope left prepared-but-undecided
/// (and lingering prepared versions) at batch end is exactly what a
/// coordinator bug would leave behind.
#[test]
fn injected_unbalanced_prepare_fires_end_to_end() {
    let (_service, san, _) = run(true);
    let san = san.expect("armed");
    san.assert_clean("before injection");
    let ts = 3_000_000;
    san.begin_scope(0, ts, &[], &[]);
    san.prepare_scope(0, ts);
    // No decision ever arrives; the batch ends with versions pending.
    san.batch_end(5);
    let violations = san.take_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::UnbalancedPrepare),
        "undecided scope must be flagged, got {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::PreparedAtBatchEnd),
        "lingering prepared versions must be flagged, got {violations:?}"
    );
}
