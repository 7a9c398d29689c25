//! A query's timing decomposes exactly: every picosecond between its
//! start and its end is charged to one of PIM load, PIM compute, control
//! or CPU compute. `cpu_blocked` is not a part — it overlaps the PIM
//! phases.

use pushtap_olap::{run_all_queries, Query, QueryTiming, ScanEngine};
use pushtap_oltp::{DbConfig, TpccDb};
use pushtap_pim::{ControlArch, MemSystem, Ps, SystemConfig};

fn build(system: SystemConfig) -> (TpccDb, MemSystem, ScanEngine) {
    let mem = MemSystem::new(system);
    let db = TpccDb::build(&DbConfig::small(), &mem).expect("build");
    let engine = ScanEngine::new(ControlArch::Pushtap, &system);
    (db, mem, engine)
}

fn parts(t: &QueryTiming) -> Ps {
    t.pim_load + t.pim_compute + t.control + t.cpu_compute
}

#[test]
fn evaluation_query_parts_sum_to_its_end() {
    for (name, system) in [("dimm", SystemConfig::dimm()), ("hbm", SystemConfig::hbm())] {
        let (db, mut mem, engine) = build(system);
        // A nonzero start, and each query after the last one's end, so
        // the banks are warm and the end is an absolute time.
        let mut at = Ps::from_us(1.0);
        for q in Query::ALL {
            let (_, t) = q.execute(&db, &engine, &mut mem, at);
            assert_eq!(t.end - at, parts(&t), "{} on {name}: {t:?}", q.name());
            at = t.end;
        }
    }
}

#[test]
fn footprint_query_parts_sum_to_its_end() {
    for (name, system) in [("dimm", SystemConfig::dimm()), ("hbm", SystemConfig::hbm())] {
        let (db, mut mem, engine) = build(system);
        let reports = run_all_queries(&db, &engine, &mut mem, Ps::from_us(1.0));
        assert_eq!(reports.len(), 22);
        for r in &reports {
            // A footprint report's `end` is already relative to its start.
            let t = &r.timing;
            assert_eq!(t.end, parts(t), "Q{} on {name}: {t:?}", r.query);
        }
    }
}
