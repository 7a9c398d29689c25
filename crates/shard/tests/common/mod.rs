//! Shared helpers for the shard integration tests.

use std::sync::Arc;

use pushtap_chbench::{Partitioning, Table};
use pushtap_core::Pushtap;
use pushtap_format::RowSlot;
use pushtap_oltp::stripe_start;
use pushtap_sanitizer::ShadowSanitizer;

/// Arms a keyset-soundness shadow tracker on `service` and returns it.
/// Pair with [`assert_sanitized_clean`] once the batch under test has
/// run.
#[allow(dead_code)]
pub fn sanitize(service: &mut pushtap_shard::ShardedHtap) -> Arc<ShadowSanitizer> {
    let san = Arc::new(ShadowSanitizer::new());
    service.set_sanitizer(san.clone());
    san
}

/// Panics (listing every violation) if the tracker saw the scheduler
/// break keyset soundness, wave isolation or prepared-scope discipline;
/// also asserts the tracker genuinely watched the run.
#[allow(dead_code)]
pub fn assert_sanitized_clean(san: &ShadowSanitizer, label: &str) {
    assert!(
        san.scopes_tracked() > 0,
        "{label}: armed tracker saw no scopes — hooks disconnected?"
    );
    san.assert_clean(label);
}

/// Builds an unpartitioned reference holding *exactly* the `committed`
/// subset of an admitted stream — the byte-identity oracle for crash
/// recovery. `admitted[k]` is the position, in the stream the seeded
/// generator produces, of the transaction pinned at timestamp `k + 1`
/// (admission stamps contiguous timestamps; a rejected arrival still
/// consumes a generator draw). Each committed timestamp selects its
/// transaction from the regenerated stream and executes at the
/// original pin; everything a crash lost is simply never run.
#[allow(dead_code)]
pub fn reference_holding_admitted(
    cfg: &pushtap_shard::ShardConfig,
    mix: pushtap_chbench::RemoteMix,
    seed: u64,
    admitted: &[u64],
    committed: &[pushtap_mvcc::Ts],
) -> Pushtap {
    let mut reference = Pushtap::new(cfg.base.clone()).expect("build reference");
    let warehouses = reference.db().warehouses_global();
    let mut gen = reference.txn_gen(seed).with_remote_mix(mix, warehouses);
    let drawn = admitted.iter().max().map_or(0, |&last| last as usize + 1);
    let stream = gen.batch(drawn);
    for &ts in committed {
        let k = usize::try_from(ts.0).expect("ts fits usize") - 1;
        reference.execute_txn_at(&stream[admitted[k] as usize], ts);
    }
    reference.defragment_all();
    reference
}

/// [`reference_holding_admitted`] for a closed-loop batch of `txns`
/// transactions, where nothing is rejected: the i-th generated
/// transaction carries pinned timestamp `i + 1`.
#[allow(dead_code)]
pub fn reference_holding(
    cfg: &pushtap_shard::ShardConfig,
    mix: pushtap_chbench::RemoteMix,
    seed: u64,
    txns: u64,
    committed: &[pushtap_mvcc::Ts],
) -> Pushtap {
    let admitted: Vec<u64> = (0..txns).collect();
    reference_holding_admitted(cfg, mix, seed, &admitted, committed)
}

/// Compares one table's committed bytes (data region — the caller
/// defragments both sides first so every committed version is folded
/// in) between a shard and the rows of the unpartitioned reference that
/// shard holds, timestamp-encoded columns included.
#[allow(dead_code)]
pub fn assert_table_bytes_match(shard: &Pushtap, reference: &Pushtap, table: Table, label: &str) {
    let db = shard.db();
    let rdb = reference.db();
    let global = rdb.global_rows_of(table);
    let row_base = match table.partitioning() {
        Partitioning::Replicated => 0,
        Partitioning::ByWarehouse => {
            stripe_start(db.warehouse_range().start, global, db.warehouses_global())
        }
    };
    let t = db.table(table);
    let rt = rdb.table(table);
    for row in 0..t.n_rows() {
        assert_eq!(
            t.store().read_row(RowSlot::Data { row }),
            rt.store().read_row(RowSlot::Data {
                row: row_base + row
            }),
            "{label}: {table:?} local row {row} (global {}) diverged from the reference",
            row_base + row
        );
    }
}
