//! A query's timing decomposes exactly: every picosecond between its
//! start and its end is charged to one of PIM load, PIM compute, control
//! or CPU compute. `cpu_blocked` is not a part — it overlaps the PIM
//! phases. The last test pins every timing to the picosecond.

use pushtap_olap::{Query, QueryTiming, ScanEngine};
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

/// Spreading §6.3's bucket partition over the host cores changes only
/// its span: on one core Q9's CPU time is the one-core loop it was
/// before the split (96 631 650 ps on DIMM at the small scale, captured
/// before the partition learnt about cores) plus the histogram pass, and
/// with every core the query ends strictly sooner.
#[test]
fn q9_partition_splits_over_the_cores_and_nothing_else() {
    let mut one_core = SystemConfig::dimm();
    one_core.cpu.cores = 1;
    let q9 = |system: SystemConfig| {
        let (db, mut mem, engine) = build(system);
        let (_, t) = Query::Q9.execute(&db, &engine, &mut mem, Ps::ZERO);
        (t, engine.units())
    };
    let (serial, units) = q9(one_core);
    let histogram = one_core.cpu.cycles(units);
    assert_eq!(serial.cpu_compute - histogram, Ps::new(96_631_650));
    let (parallel, _) = q9(SystemConfig::dimm());
    assert!(
        parallel.end < serial.end,
        "16 cores {:?} vs 1 core {:?}",
        parallel.end,
        serial.end
    );
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every priced step of every query, pinned: on DIMM and HBM, under both
/// control architectures, the `Debug` text of each Q1/Q6/Q9 timing and
/// the memory system's traffic after them, as `(entries, FNV-1a)`.
/// Captured when the 22-query footprint executor was deleted, on the code
/// before the deletion with only its queries left out of this test: the
/// Q1/Q6/Q9 timings and their traffic did not move.
#[test]
fn query_timings_are_pinned() {
    let mut pinned = Vec::new();
    for system in [SystemConfig::dimm(), SystemConfig::hbm()] {
        for arch in [ControlArch::Pushtap, ControlArch::Original] {
            let mut mem = MemSystem::new(system);
            let db = TpccDb::build(&DbConfig::small(), &mem).expect("build");
            let engine = ScanEngine::new(arch, &system);
            let mut text = Vec::new();
            let mut at = Ps::from_us(1.0);
            for q in Query::ALL {
                let (_, t) = q.execute(&db, &engine, &mut mem, at);
                text.push(format!("{t:?}"));
                at = t.end;
            }
            text.push(format!("{:?}", mem.stats()));
            pinned.push((text.len(), fnv(text.concat().as_bytes())));
        }
    }
    assert_eq!(
        pinned,
        [
            (4, 0xfb91_e47d_538a_4729),
            (4, 0xcdf6_120a_9e23_9839),
            (4, 0xb1a1_1e3c_055a_2eab),
            (4, 0x0aa3_9d7f_e846_6464),
        ]
    );
}
