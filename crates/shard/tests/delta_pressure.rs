//! The upgraded shard acceptance property: scatter-gather results stay
//! *exactly equal* to the unpartitioned reference even when delta arenas
//! are deliberately undersized, so that every shard keeps hitting
//! `DeltaFull` and retrying transactions mid-batch.
//!
//! PR 1 proved value identity for arenas sized to the stream; the
//! transaction-level undo log extends it to arbitrary delta pressure:
//! an aborted transaction rolls back completely (slots, chains, bytes,
//! index, stripe cursors, timestamp), so *when* a deployment's arenas
//! fill up can no longer influence *what* it commits.
//!
//! The shared timestamp oracle extends the invariant once more, from
//! values to *bytes*: every shard commits under the globally-stream-
//! ordered timestamps the coordinator stamps from the one `TsOracle`, so
//! the timestamp-encoded columns now match the unpartitioned instance's
//! too. And the coordinator's simulated two-phase commit closes the last
//! gap: a transaction's remote-owned CUSTOMER/STOCK effects are
//! *forwarded* to the owning shard and committed there at the pinned
//! timestamp (aborting everywhere and retrying when any participant's
//! arena fills mid-prepare), so byte identity shard-vs-reference holds
//! for **every table under every remote mix** — uniform worst case,
//! TPC-C's specified remote rates, and the fully local mix — with and
//! without delta pressure. Scattered queries are asserted to observe one
//! agreed global cut timestamp.

mod common;

use common::assert_table_bytes_match;
use pushtap_chbench::{RemoteMix, Table};
use pushtap_core::Pushtap;
use pushtap_format::RowSlot;
use pushtap_mvcc::Ts;
use pushtap_olap::{ref_q1, ref_q6, ref_q9, Query, QueryResult};
use pushtap_pim::Ps;
use pushtap_shard::{ShardConfig, ShardedHtap};

const SEED: u64 = 2025;
const TXNS: u64 = 120;

/// Insert-bearing fact tables whose stripe rings the identity proof
/// tracks.
const RING_TABLES: [Table; 4] = [
    Table::History,
    Table::Order,
    Table::NewOrder,
    Table::OrderLine,
];

/// Reference answers from an unpartitioned engine under the *same*
/// delta pressure, plus its per-warehouse stripe cursors.
fn reference(seed: u64, txns: u64) -> (Pushtap, Vec<(Query, QueryResult)>) {
    let mut reference = Pushtap::new(common::squeezed(1).base).expect("build reference");
    let mut gen = reference.txn_gen(seed);
    let report = reference.run_txns(&mut gen, txns);
    assert!(
        report.aborts > 0,
        "the reference must feel the delta pressure too"
    );
    let ts = reference.db().last_ts();
    let answers = Query::ALL
        .iter()
        .map(|&q| {
            let expect = match q {
                Query::Q1 => ref_q1(reference.db(), ts),
                Query::Q6 => ref_q6(reference.db(), ts),
                Query::Q9 => ref_q9(reference.db(), ts),
            };
            (q, expect)
        })
        .collect();
    (reference, answers)
}

#[test]
fn pressured_shards_match_pressured_reference_at_1_2_4_shards() {
    let (reference, expected) = reference(SEED, TXNS);
    for shards in [1u32, 2, 4] {
        let mut service = ShardedHtap::new(common::squeezed(shards)).expect("build shards");
        let san = common::sanitize(&mut service);
        let mut gen = service.global_txn_gen(SEED);
        let oltp = service.run_txns(&mut gen, TXNS);
        assert_eq!(oltp.committed(), TXNS, "{shards} shards");
        common::assert_sanitized_clean(&san, "pressured uniform mix");
        let total = oltp.merged();
        assert!(
            total.aborts > 0,
            "{shards} shards: undersized arenas must force retries"
        );
        assert!(total.retried_txns > 0 && total.retried_txns <= total.aborts);

        // Merged analytical answers equal the unpartitioned reference.
        for (q, expect) in &expected {
            let report = service.run_query(*q);
            assert_eq!(
                &report.result,
                expect,
                "{} diverged from the reference at {shards} shards under pressure",
                q.name()
            );
        }

        // The insert rings stayed aligned: every warehouse's stripe
        // cursor matches the reference on the shard that owns it.
        for w in 0..reference.db().warehouses_global() {
            let owner = service
                .shards()
                .iter()
                .find(|s| s.db().warehouse_range().contains(&w))
                .expect("every warehouse has an owner");
            for table in RING_TABLES {
                assert_eq!(
                    owner.db().insert_cursor(table, w),
                    reference.db().insert_cursor(table, w),
                    "{table:?} stripe cursor of warehouse {w} at {shards} shards"
                );
            }
        }

        // No leaked stripe slots: defragmentation reclaims everything —
        // aborted attempts left no versions behind.
        let pause = service.defragment_all();
        assert!(pause >= Ps::ZERO);
        for (i, s) in service.shards().iter().enumerate() {
            assert_eq!(
                s.db().live_delta_rows(),
                0,
                "shard {i} of {shards} leaked delta slots"
            );
        }
    }
}

/// The tentpole acceptance property: with one deployment-wide timestamp
/// oracle stamping transactions in global stream order and two-phase
/// commit forwarding remote-owned writes to their owning shards, a
/// sharded deployment's committed bytes — including the
/// timestamp-encoded columns and the insert rings — equal the
/// unpartitioned reference's for **all tables** (CUSTOMER and STOCK no
/// longer excluded), at 1, 2, and 4 shards, *under delta pressure*.
///
/// The uniform mix is the cross-shard worst case: ~(k−1)/k of customer
/// and stock touches are remote at k shards, so this stream exercises
/// the forwarding path constantly, including participant aborts when
/// undersized arenas fill mid-prepare.
#[test]
fn committed_state_is_byte_identical_shard_vs_reference() {
    let mut reference = Pushtap::new(common::squeezed(1).base).expect("build reference");
    let mut rgen = reference.txn_gen(SEED);
    let r = reference.run_txns(&mut rgen, TXNS);
    assert!(r.aborts > 0, "the reference must feel the pressure");
    reference.defragment_all();
    assert_eq!(reference.db().last_ts(), Ts(TXNS));

    for shards in [1u32, 2, 4] {
        let mut service = ShardedHtap::new(common::squeezed(shards)).expect("build shards");
        let san = common::sanitize(&mut service);
        let mut gen = service.global_txn_gen(SEED);
        let oltp = service.run_txns(&mut gen, TXNS);
        common::assert_sanitized_clean(&san, "pressured forwarding mix");
        let total = oltp.merged();
        assert!(total.aborts > 0, "{shards} shards: pressure expected");
        if shards > 1 {
            assert!(
                total.forwarded_effects > 0,
                "{shards} shards: the uniform mix must forward effects"
            );
        }
        service.defragment_all();
        // Every shard saw the deployment watermark — the last stamped
        // timestamp — and it equals the reference's final timestamp.
        assert_eq!(service.ts_oracle().watermark(), Ts(TXNS));
        for (i, shard) in service.shards().iter().enumerate() {
            assert_eq!(shard.db().last_ts(), Ts(TXNS), "shard {i} watermark");
            assert_eq!(shard.db().prepared_versions(), 0, "shard {i} prepared");
            for table in pushtap_chbench::ALL_TABLES {
                assert_table_bytes_match(
                    shard,
                    &reference,
                    table,
                    &format!("uniform stream at {shards} shards"),
                );
            }
        }
    }
}

/// The acceptance-criteria mix: under `RemoteMix::TPCC` (1 % remote
/// NewOrder supply warehouses, 15 % remote Payment customers) committed
/// bytes for all nine TPC-C tables equal the unpartitioned reference at
/// 1/2/4 shards — both *without* delta pressure (ample arenas, no
/// aborts anywhere) and *with* it (squeezed arenas, participants
/// aborting mid-prepare).
#[test]
fn all_tables_byte_identical_under_tpcc_mix() {
    for pressured in [false, true] {
        let cfg = |shards: u32| {
            if pressured {
                common::squeezed(shards)
            } else {
                ShardConfig::small(shards)
            }
        };
        let label = if pressured {
            "TPC-C mix, pressured"
        } else {
            "TPC-C mix, ample"
        };
        let mut reference = Pushtap::new(cfg(1).base).expect("build reference");
        let warehouses = reference.db().warehouses_global();
        let mut rgen = reference
            .txn_gen(SEED)
            .with_remote_mix(RemoteMix::TPCC, warehouses);
        let r = reference.run_txns(&mut rgen, TXNS);
        assert_eq!(r.aborts > 0, pressured, "{label}: reference pressure");
        reference.defragment_all();

        for shards in [1u32, 2, 4] {
            let mut service = ShardedHtap::new(cfg(shards)).expect("build shards");
            let san = common::sanitize(&mut service);
            let mut gen = service
                .global_txn_gen(SEED)
                .with_remote_mix(RemoteMix::TPCC, warehouses);
            let oltp = service.run_txns(&mut gen, TXNS);
            assert_eq!(oltp.committed(), TXNS, "{label} at {shards} shards");
            common::assert_sanitized_clean(&san, label);
            let total = oltp.merged();
            assert_eq!(
                total.aborts > 0,
                pressured,
                "{label} at {shards} shards: aborts"
            );
            if shards > 1 {
                assert!(
                    oltp.remote.cross_shard_txns > 0,
                    "{label}: the TPC-C mix must cross shards"
                );
                assert!(
                    total.forwarded_effects >= oltp.remote.remote_touches,
                    "{label}: every remote touch is a forwarded effect"
                );
            }
            service.defragment_all();
            for shard in service.shards() {
                assert_eq!(shard.db().prepared_versions(), 0, "{label}: prepared");
                for table in pushtap_chbench::ALL_TABLES {
                    assert_table_bytes_match(
                        shard,
                        &reference,
                        table,
                        &format!("{label} at {shards} shards"),
                    );
                }
            }
        }
    }
}

/// Under a fully warehouse-local TPC-C mix (the 1 %/15 % remote knob
/// turned to 0 %), every row a transaction touches is owned by its home
/// shard — the two-phase commit path never fires — and every table must
/// be byte-identical to the unpartitioned reference, still under delta
/// pressure.
#[test]
fn all_tables_byte_identical_under_local_tpcc_mix() {
    let mut reference = Pushtap::new(common::squeezed(1).base).expect("build reference");
    let warehouses = reference.db().warehouses_global();
    let mut rgen = reference
        .txn_gen(SEED)
        .with_remote_mix(RemoteMix::LOCAL, warehouses);
    let r = reference.run_txns(&mut rgen, TXNS);
    assert!(r.aborts > 0, "the reference must feel the pressure");
    reference.defragment_all();

    for shards in [1u32, 2, 4] {
        let mut service = ShardedHtap::new(common::squeezed(shards)).expect("build shards");
        let san = common::sanitize(&mut service);
        let mut gen = service
            .global_txn_gen(SEED)
            .with_remote_mix(RemoteMix::LOCAL, warehouses);
        let oltp = service.run_txns(&mut gen, TXNS);
        common::assert_sanitized_clean(&san, "pressured local mix");
        assert!(
            oltp.merged().aborts > 0,
            "{shards} shards: pressure expected"
        );
        assert_eq!(
            oltp.remote.remote_touches, 0,
            "a local mix must never cross shards"
        );
        service.defragment_all();
        for shard in service.shards() {
            for table in pushtap_chbench::ALL_TABLES {
                assert_table_bytes_match(
                    shard,
                    &reference,
                    table,
                    &format!("local mix at {shards} shards"),
                );
            }
        }
    }
}

/// A query scattered mid-stream observes one agreed global cut: every
/// shard snapshots at the same oracle watermark, and the merged answer
/// equals the unpartitioned reference's answer *as of that cut* — not
/// whatever each shard's own clock would have given it.
#[test]
fn scattered_query_reflects_one_global_cut() {
    const MID: u64 = 70;
    const REST: u64 = 50;
    // Ample arenas: the reference must keep its version chains (no
    // defragmentation) so as-of-cut answers stay computable.
    let mut reference = Pushtap::new(ShardConfig::small(1).base).expect("build reference");
    let mut rgen = reference.txn_gen(SEED);
    reference.run_txns(&mut rgen, MID + REST);

    for shards in [2u32, 4] {
        let mut service = ShardedHtap::new(ShardConfig::small(shards)).expect("build shards");
        let san = common::sanitize(&mut service);
        let mut gen = service.global_txn_gen(SEED);
        service.run_txns(&mut gen, MID);
        common::assert_sanitized_clean(&san, "mid-stream cut batch");
        let mid_q6 = service.run_query(Query::Q6);
        let mid_q1 = service.run_query(Query::Q1);
        // The coordinator recorded the agreed cut at the stream position
        // of the scatter, and every shard observed exactly it.
        assert_eq!(mid_q6.cut, Ts(MID));
        assert_eq!(mid_q6.global_cut(), Some(Ts(MID)), "{shards} shards");
        assert!(
            mid_q6.per_shard.iter().all(|p| p.cut == Ts(MID)),
            "every shard snapshot at the agreed cut"
        );

        service.run_txns(&mut gen, REST);
        let late_q6 = service.run_query(Query::Q6);
        assert_eq!(late_q6.global_cut(), Some(Ts(MID + REST)));

        // The mid-stream answers equal the reference *as of the cut*,
        // the late answers as of the final timestamp.
        assert_eq!(
            mid_q6.result,
            ref_q6(reference.db(), Ts(MID)),
            "{shards} shards: Q6 at the mid-stream cut"
        );
        assert_eq!(mid_q1.result, ref_q1(reference.db(), Ts(MID)));
        assert_eq!(
            late_q6.result,
            ref_q6(reference.db(), Ts(MID + REST)),
            "{shards} shards: Q6 at the final cut"
        );
    }
}

/// Within one topology, delta pressure must not change a single byte:
/// each pressured shard's tables (data regions after defragmentation,
/// i.e. the full committed state including the insert rings) equal the
/// ample-arena deployment's, at every shard count.
#[test]
fn pressure_leaves_ring_contents_byte_identical_per_topology() {
    for shards in [1u32, 2, 4] {
        let mut squeezed = ShardedHtap::new(common::squeezed(shards)).expect("build");
        let mut roomy = ShardedHtap::new(ShardConfig::small(shards)).expect("build");
        let san_a = common::sanitize(&mut squeezed);
        let san_b = common::sanitize(&mut roomy);
        let mut gen_a = squeezed.global_txn_gen(SEED);
        let mut gen_b = roomy.global_txn_gen(SEED);
        let a = squeezed.run_txns(&mut gen_a, TXNS);
        let b = roomy.run_txns(&mut gen_b, TXNS);
        common::assert_sanitized_clean(&san_a, "squeezed ring topology");
        common::assert_sanitized_clean(&san_b, "roomy ring topology");
        assert!(a.merged().aborts > 0, "{shards} shards: pressure expected");
        assert_eq!(
            b.merged().aborts,
            0,
            "{shards} shards: ample arenas abort-free"
        );

        squeezed.defragment_all();
        roomy.defragment_all();
        for i in 0..shards {
            let da = squeezed.shard(i).db();
            let db = roomy.shard(i).db();
            assert_eq!(da.last_ts(), db.last_ts(), "shard {i} timestamps");
            for table in pushtap_chbench::ALL_TABLES {
                let ta = da.table(table);
                let tb = db.table(table);
                assert_eq!(ta.n_rows(), tb.n_rows());
                for row in 0..ta.n_rows() {
                    assert_eq!(
                        ta.store().read_row(RowSlot::Data { row }),
                        tb.store().read_row(RowSlot::Data { row }),
                        "shard {i}/{shards}: {table:?} row {row} diverged under pressure"
                    );
                }
            }
        }
    }
}
