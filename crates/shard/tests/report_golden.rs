//! Golden per-shard reports: every counter, time and histogram
//! `(count, sum)` of each shard, pinned as literals for two runs of one
//! deployment — 2 shards, the Uniform remote mix, the WAL on, delta
//! arenas squeezed, a short maintenance period and a reader pinning a
//! mid-batch cut, so that garbage collection (below the pin),
//! defragmentation (once collection has nothing left to fold),
//! participant aborts and retries all fire.
//!
//! The committed `BENCH_*.json` sweeps pin only aggregates; these hold
//! what each shard's report says, so a change to how the report layer
//! stores or folds a fact cannot move a number unnoticed.

use std::sync::Arc;

use pushtap_chbench::{RemoteMix, TxnGen};
use pushtap_mvcc::{SnapshotPin, Ts};
use pushtap_pim::Ps;
use pushtap_shard::{
    ArrivalConfig, ArrivalGen, OpenLoopConfig, ShardConfig, ShardLoad, ShardOltpReport, ShardedHtap,
};

const SEED: u64 = 2025;
const TXNS: u64 = 120;
/// The pinned reader's cut: collection folds versions below it, and
/// once those are gone a full arena falls back to defragmentation.
const PIN: Ts = Ts(40);

/// The deployment, its Uniform stream and the reader's pin (held for
/// the run).
fn deployment() -> (ShardedHtap, TxnGen, SnapshotPin) {
    let mut cfg = ShardConfig::small(2);
    cfg.base.db.delta_frac = 0.06;
    cfg.base.db.min_delta_rows = 8;
    cfg.base.defrag_period = 25;
    let mut service = ShardedHtap::new(cfg).expect("build shards");
    service.enable_wal();
    let warehouses = service.map().warehouses();
    let gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    let pin = Arc::clone(service.ts_oracle()).pin_snapshot(PIN);
    (service, gen, pin)
}

/// One shard's counters and times: `committed`, `aborts`,
/// `retried_txns`, `participant_aborts`, `prepared_txns`,
/// `forwarded_effects`, `two_pc_time`, `critical_path_time`,
/// `wal_appends`, `wal_forces`, `wal_bytes`, `wal_force_time`,
/// `defrag_time`, `gc_time`, `wasted_retry_time` and `elapsed` (times
/// in picoseconds).
type Counters = [u64; 16];

/// `(count, sum)` of `commit_latency`, `queue_wait`, `two_pc_stall`,
/// `defrag_stall` and `gc_stall`.
type Stalls = [(u64, u128); 5];

fn counters(load: &ShardLoad) -> Counters {
    let r = &load.report;
    [
        r.committed,
        r.aborts,
        r.retried_txns,
        r.participant_aborts,
        r.prepared_txns,
        r.forwarded_effects,
        r.two_pc_time.ps(),
        r.critical_path_time.ps(),
        r.wal_appends,
        r.wal_forces,
        r.wal_bytes,
        r.wal_force_time.ps(),
        r.defrag_time.ps(),
        r.gc_time.ps(),
        r.wasted_retry_time.ps(),
        load.elapsed.ps(),
    ]
}

fn stalls(load: &ShardLoad) -> Stalls {
    let r = &load.report;
    [
        &r.commit_latency,
        &r.queue_wait,
        &r.two_pc_stall,
        &r.defrag_stall,
        &r.gc_stall,
    ]
    .map(|h| (h.count(), h.sum()))
}

fn facts(per_shard: &[ShardLoad]) -> Vec<(Counters, Stalls)> {
    per_shard.iter().map(|l| (counters(l), stalls(l))).collect()
}

/// [`ShardOltpReport::merged`] folds the pinned per-shard facts: each
/// of its counters, times and histogram `(count, sum)` pairs is their
/// sum (`elapsed`, the shard's clock, is no report field).
fn assert_merged_sums(report: &ShardOltpReport, golden: &[(Counters, Stalls)]) {
    let merged = ShardLoad {
        report: report.merged(),
        elapsed: Ps::ZERO,
    };
    let mut want: (Counters, Stalls) = ([0; 16], [(0, 0); 5]);
    for (counters, stalls) in golden {
        for (w, c) in want.0.iter_mut().zip(&counters[..15]) {
            *w += c;
        }
        for (w, s) in want.1.iter_mut().zip(stalls) {
            *w = (w.0 + s.0, w.1 + s.1);
        }
    }
    assert_eq!((counters(&merged), stalls(&merged)), want);
}

/// The closed-loop batch, per shard.
#[rustfmt::skip]
const CLOSED_LOOP: [(Counters, Stalls); 2] = [
    (
        [
            60, 105, 59, 44,
            139, 353, 139_000_000, 1_555_605_749,
            149, 114, 88_519, 228_000_000,
            4_205_179_996, 192_115_501, 126_323_307, 6_614_510_960,
        ],
        [
            (60, 1_835_858_366),
            (60, 149_715_726_554),
            (278, 1_327_605_749),
            (42, 4_205_179_996),
            (19, 192_115_501),
        ],
    ),
    (
        [
            60, 112, 59, 51,
            146, 386, 146_000_000, 1_339_290_388,
            161, 124, 92_033, 248_000_000,
            3_704_388_550, 243_244_144, 134_179_567, 5_976_640_025,
        ],
        [
            (60, 1_588_971_055),
            (60, 117_134_877_588),
            (292, 1_091_290_388),
            (37, 3_704_388_550),
            (24, 243_244_144),
        ],
    ),
];

/// The open-loop rung, per shard: 55 of 120 arrivals admitted.
#[rustfmt::skip]
const OPEN_LOOP: [(Counters, Stalls); 2] = [
    (
        [
            27, 47, 26, 21,
            66, 177, 66_000_000, 730_820_826,
            70, 57, 34_805, 114_000_000,
            700_793_877, 192_006_876, 60_708_341, 1_906_245_961,
        ],
        [
            (27, 794_532_435),
            (27, 7_295_534_988),
            (132, 616_820_826),
            (7, 700_793_877),
            (19, 192_006_876),
        ],
    ),
    (
        [
            28, 49, 27, 22,
            67, 129, 67_000_000, 254_010_018,
            73, 60, 43_662, 120_000_000,
            700_919_580, 202_657_581, 46_522_574, 1_491_879_162,
        ],
        [
            (28, 388_348_766),
            (28, 5_965_540_816),
            (134, 134_010_018),
            (7, 700_919_580),
            (20, 202_657_581),
        ],
    ),
];

#[test]
fn closed_loop_batch_reports_pinned_per_shard_facts() {
    let (mut service, mut gen, _pin) = deployment();
    let report = service.run_txns(&mut gen, TXNS);
    assert_eq!(facts(&report.per_shard), CLOSED_LOOP);
    assert_merged_sums(&report, &CLOSED_LOOP);
}

#[test]
fn open_loop_rung_reports_pinned_per_shard_facts() {
    let (mut service, mut gen, _pin) = deployment();
    let mut clock = ArrivalGen::new(7, ArrivalConfig::poisson(240_000.0));
    let open = OpenLoopConfig {
        inbox_depth: 12,
        window: 8,
    };
    let report = service.run_open_loop(&mut gen, &mut clock, TXNS, &open);
    assert_eq!((report.admitted(), report.rejected()), (55, 65));
    assert_eq!(facts(&report.exec.per_shard), OPEN_LOOP);
    assert_merged_sums(&report.exec, &OPEN_LOOP);
}
