//! Shared helpers for the shard integration tests.

use std::sync::Arc;

use pushtap_chbench::{RemoteMix, Table, ALL_TABLES};
use pushtap_core::Pushtap;
use pushtap_format::RowSlot;
use pushtap_sanitizer::ShadowSanitizer;
use pushtap_shard::{ShardConfig, ShardedHtap};

/// The small deployment of `shards` shards with its delta arenas
/// squeezed proportionally: the single-row hot tables (WAREHOUSE,
/// DISTRICT) get one-slot arenas — the second transaction of any class
/// since the last defragmentation aborts — while the burst tables keep
/// just enough room that one transaction always fits after
/// defragmentation. The fraction is calibrated to the *smallest*
/// partitioned slice (STOCK at 4 shards is 2500 rows → 18-slot arenas ≥
/// the 15 worst-case stock updates of one NewOrder); any tighter and a
/// single transaction could exceed an empty arena and retry forever.
#[allow(dead_code)]
pub fn squeezed(shards: u32) -> ShardConfig {
    let mut cfg = ShardConfig::small(shards);
    cfg.base.db.delta_frac = 0.06;
    cfg.base.db.min_delta_rows = 8;
    cfg
}

/// A remote mix's name in test labels.
#[allow(dead_code)]
pub fn mix_name(mix: RemoteMix) -> &'static str {
    match mix {
        RemoteMix::LOCAL => "local",
        RemoteMix::TPCC => "tpcc",
        _ => "uniform",
    }
}

/// Arms a keyset-soundness shadow tracker on `service` and returns it.
/// Pair with [`assert_sanitized_clean`] once the batch under test has
/// run.
#[allow(dead_code)]
pub fn sanitize(service: &mut ShardedHtap) -> Arc<ShadowSanitizer> {
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
    let row_base = db.row_base(table);
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

/// Byte-compares every table of every shard of `service` against the
/// rows of the unpartitioned `reference` that the shard holds (both
/// sides defragmented by the caller).
#[allow(dead_code)]
pub fn assert_shards_match_reference(service: &ShardedHtap, reference: &Pushtap, label: &str) {
    for (i, shard) in service.shards().iter().enumerate() {
        for table in ALL_TABLES {
            assert_table_bytes_match(shard, reference, table, &format!("{label}: shard {i}"));
        }
    }
}

/// Byte-compares two deployments of the same shard count: every
/// shard's watermark and every table's data region, row by row.
#[allow(dead_code)]
pub fn assert_services_match(a: &ShardedHtap, b: &ShardedHtap, label: &str) {
    assert_eq!(a.shard_count(), b.shard_count());
    for i in 0..a.shard_count() {
        let da = a.shard(i).db();
        let db = b.shard(i).db();
        assert_eq!(da.last_ts(), db.last_ts(), "{label}: shard {i} watermark");
        for table in ALL_TABLES {
            let ta = da.table(table);
            let tb = db.table(table);
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
