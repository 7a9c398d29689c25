//! Footprint-driven execution of the full CH-benCHmark query set.
//!
//! Q1/Q6/Q9 have full value-correct implementations ([`crate::Query`]).
//! The remaining nineteen queries are executed as their column-footprint
//! scan schedules — §6.3's execution model: "columns are scanned
//! serially, with PIM parallelism fully utilized during each scan" — plus
//! CPU coordination per join edge (hash fetch, bucket partition,
//! transfer back). This is what drives whole-workload throughput numbers
//! (QphH spans all 22 queries) and the §7.1 scheduling mix.

use std::collections::BTreeMap;

use pushtap_chbench::{query_footprints, Table};
use pushtap_oltp::TpccDb;
use pushtap_pim::{MemSystem, PimOpKind, Ps};

use crate::exec::ScanEngine;
use crate::query::{QuerySteps, QueryTiming};

/// Timing report for one footprint-executed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintReport {
    /// Query number (1..=22).
    pub query: u8,
    /// Columns scanned on the PIM units.
    pub pim_columns: u32,
    /// Columns scanned through the CPU fallback (normal columns).
    pub cpu_columns: u32,
    /// Tables joined.
    pub tables: u32,
    /// Decomposed timing.
    pub timing: QueryTiming,
}

/// Executes query `q` (1..=22) as its footprint schedule against the
/// database's current snapshots.
///
/// # Panics
///
/// Panics if `q` is outside `1..=22`.
pub fn run_footprint_query(
    db: &TpccDb,
    engine: &ScanEngine,
    mem: &mut MemSystem,
    q: u8,
    at: Ps,
) -> FootprintReport {
    assert!((1..=22).contains(&q), "query Q{q} out of range");
    let fp = &query_footprints()[(q - 1) as usize];
    let mut steps = QuerySteps::new(engine, mem, db.meter().cpu, at);
    let mut pim_columns = 0u32;
    let mut cpu_columns = 0u32;

    // Group the footprint by table, preserving order.
    let mut by_table: BTreeMap<Table, Vec<&'static str>> = BTreeMap::new();
    for &col in fp.columns {
        let table = Table::of_column(col).expect("footprint column exists");
        by_table.entry(table).or_default().push(col);
    }

    for (table, cols) in &by_table {
        let t = db.table(*table);
        for (i, col) in cols.iter().enumerate() {
            let Some(c) = t.layout().schema().index_of(col) else {
                continue;
            };
            // First column of a table filters; later ones aggregate-style.
            let op = if i == 0 {
                PimOpKind::Filter
            } else {
                PimOpKind::Aggregate
            };
            if steps.scan(t, c, op) {
                pim_columns += 1;
            } else {
                cpu_columns += 1;
            }
        }
    }

    // Join coordination: per join edge, the hash values of the smaller
    // side are partitioned into per-unit buckets (§6.3) and the PIM units
    // probe.
    let tables: Vec<&Table> = by_table.keys().collect();
    for w in tables.windows(2) {
        let small = db.table(*w[0]).n_rows().min(db.table(*w[1]).n_rows());
        steps.partition(small);
        steps.bucket_join(small);
    }

    let mut timing = steps.finish();
    timing.end = timing.end.saturating_sub(at);
    FootprintReport {
        query: q,
        pim_columns,
        cpu_columns,
        tables: by_table.len() as u32,
        timing,
    }
}

/// Executes all 22 queries back to back, returning per-query reports.
pub fn run_all_queries(
    db: &TpccDb,
    engine: &ScanEngine,
    mem: &mut MemSystem,
    at: Ps,
) -> Vec<FootprintReport> {
    let mut now = at;
    (1..=22u8)
        .map(|q| {
            let r = run_footprint_query(db, engine, mem, q, now);
            now += r.timing.end;
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_oltp::DbConfig;
    use pushtap_pim::{ControlArch, SystemConfig};

    fn setup() -> (TpccDb, MemSystem, ScanEngine) {
        let mem = MemSystem::dimm();
        let db = TpccDb::build(&DbConfig::small(), &mem).unwrap();
        let engine = ScanEngine::new(ControlArch::Pushtap, &SystemConfig::dimm());
        (db, mem, engine)
    }

    #[test]
    fn all_22_queries_execute() {
        let (db, mut mem, engine) = setup();
        let reports = run_all_queries(&db, &engine, &mut mem, Ps::ZERO);
        assert_eq!(reports.len(), 22);
        for r in &reports {
            assert!(r.timing.end > Ps::ZERO, "Q{} took no time", r.query);
            assert!(
                r.pim_columns + r.cpu_columns > 0,
                "Q{} scanned nothing",
                r.query
            );
        }
    }

    /// Q1 scans one table; Q5 joins six — more tables cost more time.
    #[test]
    fn join_heavy_queries_cost_more() {
        let (db, mut mem, engine) = setup();
        let q1 = run_footprint_query(&db, &engine, &mut mem, 1, Ps::ZERO);
        let q5 = run_footprint_query(&db, &engine, &mut mem, 5, Ps::ZERO);
        assert_eq!(q1.tables, 1);
        assert!(q5.tables >= 5, "Q5 spans {} tables", q5.tables);
        assert!(q5.timing.end > q1.timing.end);
    }

    /// Key columns go to the PIM units; the paper's default key set keeps
    /// the CPU fallback rare.
    #[test]
    fn most_columns_scan_on_pim() {
        let (db, mut mem, engine) = setup();
        let reports = run_all_queries(&db, &engine, &mut mem, Ps::ZERO);
        let pim: u32 = reports.iter().map(|r| r.pim_columns).sum();
        let cpu: u32 = reports.iter().map(|r| r.cpu_columns).sum();
        assert!(pim > cpu * 5, "pim {pim} vs cpu {cpu}");
    }

    /// On the original architecture every PIM phase holds the banks, so
    /// a query's blocked CPU time is all of its PIM time — the join
    /// edges' load and compute phases included.
    #[test]
    fn join_phases_block_the_cpu() {
        let (db, mut mem, _) = setup();
        let engine = ScanEngine::new(ControlArch::Original, &SystemConfig::dimm());
        let q5 = run_footprint_query(&db, &engine, &mut mem, 5, Ps::ZERO);
        assert!(q5.tables >= 2, "Q5 joins");
        let t = q5.timing;
        assert_eq!(t.cpu_blocked, t.pim_load + t.pim_compute + t.control);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_zero_panics() {
        let (db, mut mem, engine) = setup();
        run_footprint_query(&db, &engine, &mut mem, 0, Ps::ZERO);
    }
}
