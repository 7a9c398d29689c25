//! Scan ≡ oracle under everything that moves versions.
//!
//! The production queries read columns under the snapshot bitmaps
//! (`HtapTable::scan_snapshot`); the reference executor
//! (`pushtap_olap::ref_q1/6/9`) reads row by row through the version
//! chains. Here every shard's *partial* must equal the reference on that
//! shard's own database at the cut the partial observed — on one shard
//! and on both shards of a partitioned build (`row_base ≠ 0` on the
//! second) — while squeezed delta arenas force `DeltaFull`
//! abort-and-retry and participant aborts, GC-first maintenance runs
//! every 25 transactions, one explicit full defragmentation resets the
//! bitmaps, and a final query asks for a cut the snapshots have already
//! passed.

mod common;

use pushtap_chbench::RemoteMix;
use pushtap_mvcc::Ts;
use pushtap_olap::{ref_q1, ref_q6, ref_q9, Query};
use pushtap_shard::{ShardConfig, ShardQueryReport, ShardedHtap};

const SEED: u64 = 2025;
const BURSTS: u64 = 4;
const BURST_TXNS: u64 = 60;

/// Squeezed delta arenas ([`common::squeezed`]) and a maintenance
/// period short enough that the GC-first policy fires within every
/// burst.
fn pressured_and_collecting(shards: u32) -> ShardConfig {
    let mut cfg = common::squeezed(shards);
    cfg.base.defrag_period = 25;
    cfg
}

/// Every shard's partial equals the chain-resolving reference on that
/// shard's database at the cut the partial observed.
fn assert_partials_match(
    service: &ShardedHtap,
    query: Query,
    report: &ShardQueryReport,
    label: &str,
) {
    assert_eq!(report.per_shard.len(), service.shards().len());
    for (i, (partial, shard)) in report.per_shard.iter().zip(service.shards()).enumerate() {
        let expect = match query {
            Query::Q1 => ref_q1(shard.db(), partial.cut),
            Query::Q6 => ref_q6(shard.db(), partial.cut),
            Query::Q9 => ref_q9(shard.db(), partial.cut),
        };
        assert_eq!(
            partial.result,
            expect,
            "{label}: {} on shard {i} at cut {:?} diverged from the reference",
            query.name(),
            partial.cut
        );
    }
}

fn check_all(service: &mut ShardedHtap, label: &str) {
    for q in Query::ALL {
        let report = service.run_query(q);
        assert_eq!(
            report.global_cut(),
            Some(report.cut),
            "{label}: one global cut"
        );
        assert_partials_match(service, q, &report, label);
    }
}

fn scans_match_the_oracle(shards: u32) {
    let mut service = ShardedHtap::new(pressured_and_collecting(shards)).expect("build shards");
    let san = common::sanitize(&mut service);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    check_all(&mut service, &format!("{shards} shards, freshly loaded"));

    let (mut aborts, mut participant_aborts, mut gc_passes) = (0, 0, 0);
    for burst in 1..=BURSTS {
        let report = service.run_txns(&mut gen, BURST_TXNS);
        assert_eq!(
            report.committed(),
            BURST_TXNS,
            "{shards} shards, burst {burst}"
        );
        let total = report.merged();
        aborts += total.aborts;
        participant_aborts += total.participant_aborts;
        gc_passes += total.gc.passes;
        check_all(
            &mut service,
            &format!("{shards} shards after burst {burst}"),
        );
        if burst == 2 {
            // A full defragmentation resets every bitmap and chain.
            service.defragment_all();
            check_all(
                &mut service,
                &format!("{shards} shards after defragment_all"),
            );
        }
    }
    common::assert_sanitized_clean(&san, "scan oracle");
    assert!(
        aborts > 0,
        "{shards} shards: squeezed arenas must force DeltaFull retries"
    );
    assert!(
        gc_passes > 0,
        "{shards} shards: the short period must collect"
    );
    if shards > 1 {
        assert!(
            participant_aborts > 0,
            "{shards} shards: a uniform remote mix under pressure must abort participants"
        );
    }

    // A stale requested cut: the snapshots are forward-only, so the
    // partials observe the position they already hold and say so.
    let watermark = service.ts_oracle().watermark();
    assert_eq!(watermark, Ts(BURSTS * BURST_TXNS));
    let stale = Ts(watermark.0 - BURST_TXNS / 2);
    for q in Query::ALL {
        let report = service.run_query_at(q, stale);
        assert!(
            report.per_shard.iter().all(|p| p.cut == watermark),
            "{shards} shards: a stale cut observes the snapshots' position"
        );
        assert_partials_match(&service, q, &report, &format!("{shards} shards, stale cut"));
    }
}

#[test]
fn one_shard_scans_match_the_oracle() {
    scans_match_the_oracle(1);
}

#[test]
fn both_partitioned_shards_scan_like_the_oracle() {
    scans_match_the_oracle(2);
}
