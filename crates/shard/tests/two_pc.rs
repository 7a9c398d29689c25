//! Participant-abort coverage for the two-phase commit path: when a
//! *remote* participant's delta arena fills while it prepares a
//! forwarded effect set, the coordinator must abort the transaction on
//! every involved shard, defragment the voter, and retry under the same
//! pinned timestamp — leaving zero leaked delta slots, zero
//! prepared-but-uncommitted versions, and committed bytes identical to
//! the unpartitioned reference on every shard.

mod common;

use proptest::prelude::*;
use pushtap_chbench::ALL_TABLES;
use pushtap_core::Pushtap;
use pushtap_format::RowSlot;
use pushtap_pim::Ps;
use pushtap_shard::{ShardConfig, ShardedHtap};

const SEED: u64 = 9;
const TXNS: u64 = 120;

/// Arenas squeezed so every transaction class keeps hitting `DeltaFull`
/// (same calibration as `tests/delta_pressure.rs`).
fn squeezed_cfg(shards: u32, delta_frac: f64, min_delta_rows: u64) -> ShardConfig {
    let mut cfg = ShardConfig::small(shards);
    cfg.base.db.delta_frac = delta_frac;
    cfg.base.db.min_delta_rows = min_delta_rows;
    cfg
}

/// FNV-1a over every shard's, every table's `newest_slot(row)`
/// sequence: which delta slot each row's newest version sits in. An
/// abort decision returns slots to the arenas' free lists, so the order
/// it releases them in decides where every later version lands.
fn slot_identity(service: &ShardedHtap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for shard in service.shards() {
        for table in ALL_TABLES {
            let t = shard.db().table(table);
            for row in 0..t.n_rows() {
                match t.chains().newest_slot(row) {
                    RowSlot::Data { row } => {
                        eat(0);
                        eat(row);
                    }
                    RowSlot::Delta { rotation, idx } => {
                        eat(1 + u64::from(rotation));
                        eat(idx);
                    }
                }
            }
        }
    }
    h
}

/// The deterministic participant-abort scenario: the uniform mix at 4
/// shards forwards ~3/4 of customer/stock writes, and the arena sizing
/// (two-slot hot arenas, so home transactions defragment *less* often
/// and forwarded writes accumulate in the customer/stock arenas)
/// guarantees some forwarded prepares hit `DeltaFull` on the
/// participant — a coordinator-side global abort and retry. After the
/// batch: clean state everywhere, byte-identical to the reference.
#[test]
fn participant_delta_full_aborts_globally_and_retries_clean() {
    let mut reference = Pushtap::new(squeezed_cfg(1, 0.02, 16).base).expect("build reference");
    let mut rgen = reference.txn_gen(SEED);
    reference.run_txns(&mut rgen, TXNS);
    reference.defragment_all();

    let mut service = ShardedHtap::new(squeezed_cfg(4, 0.02, 16)).expect("build shards");
    let san = common::sanitize(&mut service);
    let mut gen = service.global_txn_gen(SEED);
    let report = service.run_txns(&mut gen, TXNS);
    assert_eq!(report.committed(), TXNS);
    common::assert_sanitized_clean(&san, "participant aborts");
    let total = report.merged();
    assert!(
        total.participant_aborts > 0,
        "squeezed arenas under the uniform mix must abort prepared scopes"
    );
    assert!(total.aborts > total.participant_aborts);
    // The report captures every wasted attempt, the latency of the
    // prepared scopes the coordinator aborted included; that it is the
    // time the timeline shows rolled back is `trace_reconcile`'s check.
    assert!(total.wasted_retry_time > Ps::ZERO);

    // The coordinator-abort path, pinned: every shard's simulated
    // clock, the abort counts, the time the rolled-back prepares
    // consumed and which slot every row's newest version ended in. No
    // committed bench file contains an abort, so these goldens are what
    // holds the abort decision's slot-release order and simulated cost.
    let clocks: Vec<u64> = service.shards().iter().map(|s| s.now().ps()).collect();
    assert_eq!(clocks, [660_326_275, 704_571_747, 653_393_453, 703_922_770]);
    assert_eq!(
        (
            total.aborts,
            total.participant_aborts,
            total.wasted_retry_time.ps(),
            slot_identity(&service),
        ),
        (172, 99, 186_321_112, 818_977_218_761_713_068),
    );

    // No prepared scope or undecided version survives the batch…
    for (i, shard) in service.shards().iter().enumerate() {
        assert_eq!(shard.db().prepared_scopes(), 0, "shard {i} holds a scope");
        assert_eq!(shard.db().prepared_versions(), 0, "shard {i} prepared");
    }
    // …defragmentation reclaims every slot (aborted prepares leaked
    // nothing)…
    service.defragment_all();
    for (i, shard) in service.shards().iter().enumerate() {
        assert_eq!(shard.db().live_delta_rows(), 0, "shard {i} leaked slots");
    }
    // …and the committed bytes equal the unpartitioned reference's.
    common::assert_shards_match_reference(&service, &reference, "deterministic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Coordinator-side retry invariance over arbitrary arena sizes and
    /// streams: wherever `DeltaFull` strikes — home shard mid-prepare,
    /// remote participant mid-prepare, or a local transaction — the
    /// retried deployment ends with zero leaked delta slots, zero
    /// prepared-but-uncommitted versions, and state byte-identical to
    /// an unpartitioned reference under the *same* delta pressure.
    #[test]
    fn retry_leaves_clean_identical_state(
        frac in 0.02f64..0.03,
        min_delta in 2u64..=3,
        txns in 40u64..=90,
        seed in 1u64..=1000,
    ) {
        let min_rows = min_delta * 8;
        let mut reference =
            Pushtap::new(squeezed_cfg(1, frac, min_rows).base).expect("build reference");
        let mut rgen = reference.txn_gen(seed);
        reference.run_txns(&mut rgen, txns);
        reference.defragment_all();

        let mut service = ShardedHtap::new(squeezed_cfg(2, frac, min_rows)).expect("build");
        let san = common::sanitize(&mut service);
        let mut gen = service.global_txn_gen(seed);
        let report = service.run_txns(&mut gen, txns);
        prop_assert_eq!(report.committed(), txns);
        common::assert_sanitized_clean(&san, "retry proptest");
        prop_assert!(report.merged().aborts > 0, "arenas this small must abort");

        for (i, shard) in service.shards().iter().enumerate() {
            prop_assert_eq!(shard.db().prepared_scopes(), 0, "shard {} holds a scope", i);
            prop_assert_eq!(shard.db().prepared_versions(), 0, "shard {} prepared", i);
        }
        service.defragment_all();
        for (i, shard) in service.shards().iter().enumerate() {
            prop_assert_eq!(shard.db().live_delta_rows(), 0, "shard {} leaked", i);
        }
        common::assert_shards_match_reference(&service, &reference, "proptest");
    }
}
