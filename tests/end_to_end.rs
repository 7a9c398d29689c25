//! Cross-crate integration tests: the whole system driven through the
//! public facade, checking the paper's three HTAP design goals
//! (workload-specific optimization, performance isolation, data
//! freshness) *and* value correctness end to end.

use pushtap::core::{MultiInstance, Pushtap, PushtapConfig};
use pushtap::olap::{ref_q1, ref_q6, ref_q9, Query, QueryResult};
use pushtap::oltp::{DbConfig, DbFormat};
use pushtap::pim::{ControlArch, Ps, SystemConfig};

fn small_system() -> Pushtap {
    Pushtap::new(PushtapConfig::small()).expect("build")
}

/// Goal 3 (data freshness): a query issued after a transaction burst and
/// snapshot reflects every committed change, byte-for-byte equal to the
/// reference executor at the same timestamp.
#[test]
fn freshness_with_value_correctness() {
    let mut sys = small_system();
    let mut gen = sys.txn_gen(2024);
    sys.run_txns(&mut gen, 150);
    for q in Query::ALL {
        let report = sys.run_query(q);
        let ts = sys.db().last_ts();
        let expect = match q {
            Query::Q1 => ref_q1(sys.db(), ts),
            Query::Q6 => ref_q6(sys.db(), ts),
            Query::Q9 => ref_q9(sys.db(), ts),
        };
        assert_eq!(
            report.result,
            expect,
            "{} diverged from reference",
            q.name()
        );
    }
}

/// Correctness survives the full lifecycle: transactions → snapshot →
/// defragmentation → more transactions → snapshot, repeatedly.
#[test]
fn lifecycle_with_defragmentation() {
    let mut sys = small_system();
    let mut gen = sys.txn_gen(7);
    let mut last_revenue = None;
    for round in 0..4 {
        sys.run_txns(&mut gen, 80);
        if round % 2 == 1 {
            let (pass, _) = sys.defragment_all();
            assert!(pass.slots_recycled > 0, "round {round} reclaimed nothing");
        }
        let report = sys.run_query(Query::Q6);
        let ts = sys.db().last_ts();
        assert_eq!(report.result, ref_q6(sys.db(), ts));
        let QueryResult::Q6 { revenue } = report.result else {
            panic!("wrong kind")
        };
        if let Some(prev) = last_revenue {
            // NewOrder keeps inserting order lines: revenue keeps moving.
            assert_ne!(revenue, prev, "round {round} saw stale data");
        }
        last_revenue = Some(revenue);
    }
}

/// Goal 1 (workload-specific optimization): the unified format's OLTP cost
/// is close to the row-store ideal while its OLAP runs on the PIM side at
/// high effective bandwidth.
#[test]
fn workload_specific_optimization() {
    let mut unified = small_system();
    let mut rs_cfg = PushtapConfig::small();
    rs_cfg.db.format = DbFormat::RowStore;
    let mut rs = Pushtap::new(rs_cfg).expect("build");

    let mut gen_u = unified.txn_gen(5);
    let mut gen_r = rs.txn_gen(5);
    let u = unified.run_txns(&mut gen_u, 250);
    let r = rs.run_txns(&mut gen_r, 250);
    let overhead = u.txn_time.ps() as f64 / r.txn_time.ps() as f64 - 1.0;
    assert!(overhead < 0.20, "unified OLTP overhead vs RS: {overhead}");

    unified.mem();
    let _ = unified.run_query(Query::Q6);
    assert!(
        unified.mem().stats().pim_effective() > 0.8,
        "PIM effective bandwidth {}",
        unified.mem().stats().pim_effective()
    );
}

/// Goal 2 (performance isolation): a CPU transaction issued while a scan
/// is in flight is delayed only by the current load phase, not the whole
/// offload; the single-instance design needs no rebuild.
#[test]
fn performance_isolation_vs_multi_instance() {
    // PUSHtap: consistency is snapshot + defrag, cheap and bounded.
    let mut push = small_system();
    let mut gen = push.txn_gen(11);
    push.run_txns(&mut gen, 400);
    let push_report = push.run_query(Query::Q6);

    // MI: the same stream forces a rebuild proportional to staleness.
    let mut mi = MultiInstance::new(
        DbConfig {
            format: DbFormat::RowStore,
            ..DbConfig::small()
        },
        SystemConfig::dimm(),
    )
    .expect("build");
    let mut gen = mi.row_db.txn_gen(11);
    for txn in gen.batch(400) {
        mi.execute_txn(&txn);
    }
    let (_, rebuild) = mi.run_query(Query::Q6);
    assert!(
        rebuild > push_report.consistency / 4,
        "MI rebuild {rebuild} vs PUSHtap consistency {}",
        push_report.consistency
    );
}

/// The HBM configuration runs the whole stack too (§7.3's comparison).
#[test]
fn hbm_system_end_to_end() {
    let mut cfg = PushtapConfig::small();
    cfg.system = SystemConfig::hbm();
    let mut sys = Pushtap::new(cfg).expect("build");
    let mut gen = sys.txn_gen(3);
    sys.run_txns(&mut gen, 60);
    let report = sys.run_query(Query::Q1);
    let ts = sys.db().last_ts();
    assert_eq!(report.result, ref_q1(sys.db(), ts));
}

/// The original-PIM control architecture is functionally identical (only
/// slower) — Fig. 12(b)'s two systems answer the same queries.
#[test]
fn original_architecture_same_answers() {
    let mut push_cfg = PushtapConfig::small();
    push_cfg.arch = ControlArch::Pushtap;
    let mut orig_cfg = PushtapConfig::small();
    orig_cfg.arch = ControlArch::Original;

    let mut a = Pushtap::new(push_cfg).expect("build");
    let mut b = Pushtap::new(orig_cfg).expect("build");
    let mut gen_a = a.txn_gen(21);
    let mut gen_b = b.txn_gen(21);
    a.run_txns(&mut gen_a, 100);
    b.run_txns(&mut gen_b, 100);
    let ra = a.run_query(Query::Q6);
    let rb = b.run_query(Query::Q6);
    assert_eq!(ra.result, rb.result);
    // But the original pays far more control overhead.
    assert!(rb.timing.control > ra.timing.control * 5);
}

/// Deterministic replay: identical seeds produce identical results and
/// identical simulated times (the simulator is fully deterministic).
#[test]
fn deterministic_replay() {
    let run = || {
        let mut sys = small_system();
        let mut gen = sys.txn_gen(123);
        sys.run_txns(&mut gen, 120);
        let r = sys.run_query(Query::Q9);
        (r.result, r.timing.end, sys.now())
    };
    let (res1, t1, now1) = run();
    let (res2, t2, now2) = run();
    assert_eq!(res1, res2);
    assert_eq!(t1, t2);
    assert_eq!(now1, now2);
}

/// Simulated time only moves forward, across every kind of operation.
#[test]
fn monotonic_simulated_time() {
    let mut sys = small_system();
    let mut gen = sys.txn_gen(1);
    let mut last = Ps::ZERO;
    for _ in 0..5 {
        sys.run_txns(&mut gen, 30);
        assert!(sys.now() >= last);
        last = sys.now();
        sys.run_query(Query::Q6);
        assert!(sys.now() >= last);
        last = sys.now();
        sys.defragment_all();
        assert!(sys.now() >= last);
        last = sys.now();
    }
}
