//! The open-loop front-end's acceptance properties:
//!
//! * **Open loop == closed loop**: [`ShardedHtap::run_open_loop`]
//!   with a bounded [`WaveScheduler`] window commits **byte-identical**
//!   state to a closed-loop `run_txns` over the same stream and to the
//!   unpartitioned reference — at every swept window size, shard count
//!   and remote mix. Committed bytes are a pure function of the
//!   admitted stream; when the window closes early the scheduler may
//!   split what an unbounded window would co-schedule, but conflicting
//!   transactions still dispatch in timestamp order, so per-row commit
//!   order is unchanged.
//! * **Admission control**: a bounded inbox rejects (counted, never
//!   silently dropped) exactly when occupancy is at the bound; the
//!   admitted substream commits byte-identically to a reference
//!   replaying only the admitted arrivals at their pinned timestamps.
//!
//! [`WaveScheduler`]: pushtap_shard::ShardedHtap
//! [`ShardedHtap::run_open_loop`]: pushtap_shard::ShardedHtap::run_open_loop

mod common;

use proptest::prelude::*;
use pushtap_chbench::RemoteMix;
use pushtap_mvcc::Ts;
use pushtap_pim::Ps;
use pushtap_shard::{
    ArrivalConfig, ArrivalGen, OpenLoopConfig, OpenLoopReport, ShardConfig, ShardedHtap,
};

const SEED: u64 = 2025;
const ARRIVAL_SEED: u64 = 7;
const TXNS: u64 = 120;
/// Fast enough that inboxes back up under a bounded depth, slow enough
/// that the generator's simulated horizon stays sane.
const RATE_TPS: f64 = 40_000_000.0;

/// The admitted transactions' timestamps, in admission order (every
/// one committed).
fn admitted_ts(report: &OpenLoopReport) -> Vec<Ts> {
    (0..report.admitted())
        .map(|k| Ts(report.first_ts.0 + k))
        .collect()
}

/// Runs `txns` Poisson arrivals open-loop on a fresh deployment and
/// returns it defragmented (committed state folded into data regions).
fn run_open(
    cfg: ShardConfig,
    mix: RemoteMix,
    seed: u64,
    txns: u64,
    arrivals: ArrivalConfig,
    open: OpenLoopConfig,
    label: &str,
) -> (ShardedHtap, OpenLoopReport) {
    let mut service = ShardedHtap::new(cfg).expect("build shards");
    let san = common::sanitize(&mut service);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(seed)
        .with_remote_mix(mix, warehouses);
    let mut arr = ArrivalGen::new(ARRIVAL_SEED, arrivals);
    let report = service.run_open_loop(&mut gen, &mut arr, txns, &open);
    assert_eq!(
        report.admitted() + report.rejected(),
        txns,
        "{label}: every arrival is admitted or counted rejected"
    );
    // Rejected arrivals draw no timestamp: the admitted stream's
    // timestamps are contiguous from Ts(1) in admission order.
    assert_eq!(report.first_ts, Ts(1), "{label}: first admitted ts");
    assert_eq!(
        service.ts_oracle().watermark(),
        Ts(report.admitted()),
        "{label}: admitted ts not contiguous"
    );
    assert_eq!(
        report.exec.committed(),
        report.admitted(),
        "{label}: every admitted transaction commits"
    );
    assert_eq!(
        report.sojourn.count(),
        report.admitted(),
        "{label}: one sojourn sample per admitted transaction"
    );
    common::assert_sanitized_clean(&san, label);
    service.defragment_all();
    (service, report)
}

/// The headline identity: with an unbounded inbox every arrival is
/// admitted, so the open-loop run must commit byte-identical state to
/// a closed-loop run over the same stream — and to the unpartitioned
/// reference — at every window × shard count × mix.
#[test]
fn incremental_waves_match_batch_and_reference() {
    for mix in [RemoteMix::LOCAL, RemoteMix::TPCC, RemoteMix::Uniform] {
        for shards in [1u32, 2, 4, 8] {
            // One batch service + one unpartitioned reference per
            // (mix, shards), shared across the window sweep.
            let cfg = ShardConfig::small(shards);
            let mut batch_service = ShardedHtap::new(cfg.clone()).expect("build shards");
            let warehouses = batch_service.map().warehouses();
            let mut gen = batch_service
                .global_txn_gen(SEED)
                .with_remote_mix(mix, warehouses);
            let batch_report = batch_service.run_txns(&mut gen, TXNS);
            assert_eq!(batch_report.committed(), TXNS);
            batch_service.defragment_all();
            let reference = common::reference_holding(
                &cfg,
                mix,
                SEED,
                TXNS,
                &(1..=TXNS).map(pushtap_mvcc::Ts).collect::<Vec<_>>(),
            );
            for window in [1usize, 4, 32] {
                let label = format!("{} {shards} shards window {window}", common::mix_name(mix));
                let (open_service, report) = run_open(
                    cfg.clone(),
                    mix,
                    SEED,
                    TXNS,
                    ArrivalConfig::poisson(RATE_TPS),
                    OpenLoopConfig::new(usize::MAX, window),
                    &label,
                );
                assert_eq!(report.rejected(), 0, "{label}: unbounded inbox rejected");
                assert_eq!(report.admitted(), TXNS);
                common::assert_services_match(&open_service, &batch_service, &label);
                common::assert_shards_match_reference(
                    &open_service,
                    &reference,
                    &format!("{label} vs reference"),
                );
            }
        }
    }
}

/// Admission control under overload: a shallow inbox must reject some
/// arrivals (backpressure, counted per shard) while the admitted
/// substream still commits byte-identically to a reference replaying
/// exactly the admitted arrivals.
#[test]
fn bounded_inbox_rejects_and_admitted_stream_stays_identical() {
    let cfg = ShardConfig::small(4);
    // 4x the identity rate: arrivals land far faster than service.
    let arrivals = ArrivalConfig::poisson(4.0 * RATE_TPS);
    let open = OpenLoopConfig::new(4, 8);
    let (service, report) = run_open(
        cfg,
        RemoteMix::TPCC,
        SEED,
        TXNS,
        arrivals,
        open,
        "bounded inbox",
    );
    assert!(
        report.rejected() > 0,
        "overload must trip admission control"
    );
    assert!(
        report.admitted() > 0,
        "admission control rejected everything"
    );
    assert!(
        report.inbox_depth.max() <= 4,
        "inbox depth {} exceeded its bound",
        report.inbox_depth.max()
    );
    // The reference replays exactly the admitted arrivals at their
    // pinned timestamps.
    let reference = common::reference_holding_admitted(
        service.cfg(),
        RemoteMix::TPCC,
        SEED,
        &report.admitted_index,
        &admitted_ts(&report),
    );
    common::assert_shards_match_reference(&service, &reference, "bounded inbox");
}

/// The same seeds replay the same run, bit for bit: admissions,
/// rejections, timestamps and every latency sample.
#[test]
fn open_loop_is_deterministic_per_seed() {
    let run = || {
        run_open(
            ShardConfig::small(2),
            RemoteMix::TPCC,
            SEED,
            TXNS,
            ArrivalConfig::bursty(2.0 * RATE_TPS, 0.8, Ps::from_us(2.0)),
            OpenLoopConfig::new(8, 4),
            "determinism",
        )
        .1
    };
    let a = run();
    let b = run();
    assert_eq!(a.first_ts, b.first_ts);
    assert_eq!(a.admitted_index, b.admitted_index);
    assert_eq!(a.rejected_per_shard, b.rejected_per_shard);
    assert_eq!(a.horizon, b.horizon);
    assert_eq!(a.sojourn.sum(), b.sojourn.sum());
    assert_eq!(a.inbox_depth.max(), b.inbox_depth.max());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Identity holds at arbitrary load: any rate × burstiness × seed ×
    /// inbox bound × window admits some prefix-respecting substream and
    /// commits it byte-identically to the unpartitioned reference.
    #[test]
    fn admitted_stream_matches_reference(
        seed in 1u64..1000,
        rate_scale in 1u64..=8,
        burstiness in 0u64..=10,
        inbox in 2usize..=64,
        window in 1usize..=32,
        shards_pick in 0usize..=1,
    ) {
        let shards = [2u32, 4][shards_pick];
        let txns = 60;
        let burst = burstiness as f64 / 10.0;
        let rate = RATE_TPS * rate_scale as f64;
        let arrivals = if burst == 0.0 {
            ArrivalConfig::poisson(rate)
        } else {
            ArrivalConfig::bursty(rate, burst, Ps::from_us(2.0))
        };
        let cfg = ShardConfig::small(shards);
        let label = format!(
            "proptest seed {seed} rate x{rate_scale} burst {burst} inbox {inbox} window {window} {shards} shards"
        );
        let (service, report) = run_open(
            cfg,
            RemoteMix::TPCC,
            seed,
            txns,
            arrivals,
            OpenLoopConfig::new(inbox, window),
            &label,
        );
        prop_assert!(report.inbox_depth.max() <= inbox as u64);
        let reference = common::reference_holding_admitted(
            service.cfg(),
            RemoteMix::TPCC,
            seed,
            &report.admitted_index,
            &admitted_ts(&report),
        );
        common::assert_shards_match_reference(&service, &reference, &label);
    }
}
