//! Golden durability path: a `shard_durable`-shaped run — 2 shards,
//! maintenance every 200 transactions, seed 42 — logs ten batches of
//! 250 transactions, checkpoints, logs ten more, checkpoints again, and
//! recovers a fresh deployment from the harvested images.
//!
//! Every number a checkpoint or a recovery reports, and the length and
//! FNV-1a of every durable image after each checkpoint, is pinned as a
//! literal. How the logs are scanned, decoded, compacted or replayed
//! may change; what they hold and what recovery makes of them may not.

use pushtap_shard::{RecoveryReport, ShardConfig, ShardRecovery, ShardedHtap};
use pushtap_wal::WalTrim;

const SEED: u64 = 42;
const BATCHES: u64 = 10;
const BATCH_TXNS: u64 = 250;

fn config() -> ShardConfig {
    let mut cfg = ShardConfig::small(2);
    cfg.base.defrag_period = 200;
    cfg
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(records_kept, records_dropped, bytes_before, bytes_after)`.
fn trim(t: &WalTrim) -> (u64, u64, u64, u64) {
    (
        t.records_kept,
        t.records_dropped,
        t.bytes_before,
        t.bytes_after,
    )
}

/// `(records, replayed, skipped, duplicates, effects, truncated_bytes,
/// torn, defrag_retries)`.
type Recovered = (u64, u64, u64, u64, u64, u64, bool, u64);

fn shard(r: &ShardRecovery) -> Recovered {
    (
        r.records,
        r.replayed,
        r.skipped,
        r.duplicates,
        r.effects,
        r.truncated_bytes,
        r.torn,
        r.defrag_retries,
    )
}

/// Per checkpoint: the two effect-log trims and the decision-log trim.
const TRIMS: [[(u64, u64, u64, u64); 3]; 2] = [
    [
        (2059, 112, 1_610_442, 1_235_663),
        (2089, 116, 1_580_657, 1_206_719),
        (0, 1876, 30_016, 0),
    ],
    [
        (3855, 421, 2_803_954, 2_263_164),
        (3849, 425, 2_770_096, 2_229_099),
        (0, 1902, 30_432, 0),
    ],
];

/// Per checkpoint: `(len, fnv)` of shard 0's log, shard 1's log and the
/// decision log, after the rewrite.
const IMAGES: [[(usize, u64); 3]; 2] = [
    [
        (1_235_663, 0x354d_8b9c_ea27_a436),
        (1_206_719, 0x4451_5ba5_43f1_c690),
        (0, 0xcbf2_9ce4_8422_2325),
    ],
    [
        (2_263_164, 0x7204_b1c0_c125_0ec5),
        (2_229_099, 0xcd4c_0d8a_947b_d776),
        (0, 0xcbf2_9ce4_8422_2325),
    ],
];

/// The recovery's per-shard outcomes.
const RECOVERED: [Recovered; 2] = [
    (3855, 3855, 0, 0, 22_060, 0, false, 1),
    (3849, 3849, 0, 0, 21_764, 0, false, 1),
];

/// `(committed.len(), fnv of the committed timestamps, watermark,
/// decisions, decision_truncated)`.
const COMMITTED: (usize, u64, u64, u64, u64) = (5000, 0xa0fa_5079_2546_333c, 5000, 0, 0);

fn committed(report: &RecoveryReport) -> (usize, u64, u64, u64, u64) {
    let bytes: Vec<u8> = report
        .committed
        .iter()
        .flat_map(|ts| ts.0.to_le_bytes())
        .collect();
    (
        report.committed.len(),
        fnv(&bytes),
        report.watermark.0,
        report.decisions,
        report.decision_truncated,
    )
}

#[test]
fn checkpoints_and_recovery_are_pinned() {
    let mut service = ShardedHtap::new(config()).expect("two shards lay out");
    let handles = service.enable_wal();
    let mut gen = service.global_txn_gen(SEED);
    let mut trims = Vec::new();
    let mut images = Vec::new();
    for _ in 0..2 {
        for _ in 0..BATCHES {
            service.run_txns(&mut gen, BATCH_TXNS);
        }
        let report = service.checkpoint();
        trims.push([
            trim(&report.per_shard[0]),
            trim(&report.per_shard[1]),
            trim(&report.decisions),
        ]);
        let logs = handles.harvest();
        images.push([&logs.shards[0], &logs.shards[1], &logs.decisions].map(|b| (b.len(), fnv(b))));
    }
    let (_, report) = ShardedHtap::recover(config(), &handles.harvest()).expect("the logs recover");
    let recovered = [shard(&report.per_shard[0]), shard(&report.per_shard[1])];
    assert_eq!(trims, TRIMS, "checkpoint trims");
    assert_eq!(images, IMAGES, "durable images after each checkpoint");
    assert_eq!(recovered, RECOVERED, "per-shard recovery");
    assert_eq!(committed(&report), COMMITTED, "committed stream");
}
