//! Figure 9: (a) OLTP execution time under RS / CS / PUSHtap formats
//! (DIMM and HBM); (b) analytical-query time with consistency work for
//! ideal / MI / PUSHtap (DIMM and HBM) across pre-query transaction
//! counts.

use pushtap_core::{IdealModel, MultiInstance, Pushtap, PushtapConfig};
use pushtap_olap::Query;
use pushtap_oltp::{DbConfig, DbFormat};
use pushtap_pim::{ControlArch, MemSystem, Ps, SystemConfig};

/// One Fig. 9(a) series point.
#[derive(Debug, Clone, PartialEq)]
pub struct OltpPoint {
    /// System/format label.
    pub label: String,
    /// Transactions executed.
    pub txns: u64,
    /// Total transaction time.
    pub time: Ps,
}

fn db_config(scale: f64, format: DbFormat) -> DbConfig {
    DbConfig {
        scale,
        format,
        ..DbConfig::small()
    }
}

/// Fig. 9(a): run the same transaction stream under each format and
/// record cumulative time at each checkpoint.
pub fn oltp_formats(scale: f64, checkpoints: &[u64]) -> Vec<OltpPoint> {
    let max = *checkpoints.iter().max().expect("checkpoints");
    let mut out = Vec::new();
    let systems: Vec<(String, SystemConfig, DbFormat)> = vec![
        (
            "RS (ideal)".into(),
            SystemConfig::dimm(),
            DbFormat::RowStore,
        ),
        ("CS".into(), SystemConfig::dimm(), DbFormat::ColumnStore),
        (
            "PUSHtap".into(),
            SystemConfig::dimm(),
            DbFormat::Unified { th: 0.6 },
        ),
        (
            "PUSHtap (HBM)".into(),
            SystemConfig::hbm(),
            DbFormat::Unified { th: 0.6 },
        ),
    ];
    for (label, system, format) in systems {
        let cfg = PushtapConfig {
            db: db_config(scale, format),
            system,
            arch: ControlArch::Pushtap,
            defrag_period: 10_000,
        };
        let mut p = Pushtap::new(cfg).expect("build");
        let mut gen = p.txn_gen(99);
        let mut done = 0u64;
        let start = p.now();
        for &cp in checkpoints {
            let n = cp.min(max) - done;
            p.run_txns(&mut gen, n);
            done = cp;
            out.push(OltpPoint {
                label: label.clone(),
                txns: cp,
                time: p.now() - start,
            });
        }
    }
    out
}

/// One Fig. 9(b) series point.
#[derive(Debug, Clone, PartialEq)]
pub struct OlapPoint {
    /// System label.
    pub label: String,
    /// Transactions applied before the query.
    pub txns: u64,
    /// Scan + CPU-coordination time.
    pub scan: Ps,
    /// Consistency time (snapshot + defragmentation, or rebuild).
    pub consistency: Ps,
}

impl OlapPoint {
    /// Total query latency.
    pub fn total(&self) -> Ps {
        self.scan + self.consistency
    }
}

/// Fig. 9(b): query time after `txns` updates for each system.
pub fn olap_consistency(scale: f64, checkpoints: &[u64], query: Query) -> Vec<OlapPoint> {
    let max = *checkpoints.iter().max().expect("checkpoints");
    let mut out = Vec::new();

    // Ideal: compact columns, no consistency — constant in txns.
    {
        let cfg = SystemConfig::dimm();
        let ideal = IdealModel::new(ControlArch::Pushtap, &cfg);
        let mut mem = MemSystem::new(cfg);
        let t = ideal.query_time(query, scale, &mut mem, Ps::ZERO);
        for &cp in checkpoints {
            out.push(OlapPoint {
                label: "ideal".into(),
                txns: cp,
                scan: t,
                consistency: Ps::ZERO,
            });
        }
    }

    // PUSHtap on DIMM and HBM: defragmentation deferred to query time so
    // the consistency cost is visible per the paper's accounting.
    for (label, system) in [
        ("PUSHtap".to_string(), SystemConfig::dimm()),
        ("PUSHtap (HBM)".to_string(), SystemConfig::hbm()),
    ] {
        let mut db = db_config(scale, DbFormat::Unified { th: 0.6 });
        db.min_delta_rows = 2 * max + 4096;
        let cfg = PushtapConfig {
            db,
            system,
            arch: ControlArch::Pushtap,
            defrag_period: 0,
        };
        let mut p = Pushtap::new(cfg).expect("build");
        let mut gen = p.txn_gen(99);
        for &cp in checkpoints {
            p.run_txns(&mut gen, cp);
            // Defragmentation deferred to query time (paper's accounting:
            // "consistency time includes ... snapshot & defragmentation").
            let (_, defrag) = p.defragment_all();
            let report = p.run_query(query);
            out.push(OlapPoint {
                label: label.clone(),
                txns: cp,
                scan: report.timing.end.saturating_sub(report.consistency),
                consistency: report.consistency + defrag,
            });
        }
    }

    // MI on DIMM and HBM (the HBM variant carries the dedicated rebuild
    // accelerator, estimated at 4.1× per §7.3).
    for (label, system, speedup) in [
        ("MI".to_string(), SystemConfig::dimm(), 1.0),
        ("MI (HBM)".to_string(), SystemConfig::hbm(), 4.1),
    ] {
        let mut db = db_config(scale, DbFormat::RowStore);
        db.min_delta_rows = 2 * max + 4096;
        let mut mi = MultiInstance::new(db, system, speedup).expect("build");
        let mut gen = pushtap_chbench::TxnGen::new(
            99,
            mi.row_db.table(pushtap_chbench::Table::Warehouse).n_rows(),
            mi.row_db.table(pushtap_chbench::Table::Customer).n_rows(),
            mi.row_db.table(pushtap_chbench::Table::Item).n_rows(),
            mi.row_db.table(pushtap_chbench::Table::Stock).n_rows(),
        );
        for &cp in checkpoints {
            for txn in gen.batch(cp as usize) {
                mi.execute_txn(&txn);
            }
            let (total, rebuild) = mi.run_query(query);
            out.push(OlapPoint {
                label: label.clone(),
                txns: cp,
                scan: total - rebuild,
                consistency: rebuild,
            });
        }
    }
    out
}

/// Prints both panels.
pub fn print_all(scale: f64) {
    println!("== Fig. 9(a): OLTP time by storage format ==");
    let checkpoints = [200u64, 500, 1000];
    let pts = oltp_formats(scale, &checkpoints);
    println!("{:<15} {:>8} {:>14}", "format", "txns", "time");
    for p in &pts {
        println!("{:<15} {:>8} {:>14}", p.label, p.txns, p.time.to_string());
    }
    // Overheads vs RS at the largest checkpoint.
    let at = |label: &str| {
        pts.iter()
            .find(|p| p.label == label && p.txns == 1000)
            .map(|p| p.time)
            .expect("series")
    };
    let rs = at("RS (ideal)");
    for label in ["CS", "PUSHtap", "PUSHtap (HBM)"] {
        let t = at(label);
        println!(
            "  {label}: {:+.1}% vs RS",
            (t.ps() as f64 / rs.ps() as f64 - 1.0) * 100.0
        );
    }

    println!("\n== Fig. 9(b): analytical query time vs pre-query txns (Q1) ==");
    let checkpoints = [400u64, 1_000, 4_000, 10_000];
    let pts = olap_consistency(scale, &checkpoints, Query::Q1);
    println!(
        "{:<15} {:>8} {:>14} {:>14} {:>14}",
        "system", "txns", "scan", "consistency", "total"
    );
    for p in &pts {
        println!(
            "{:<15} {:>8} {:>14} {:>14} {:>14}",
            p.label,
            p.txns,
            p.scan.to_string(),
            p.consistency.to_string(),
            p.total().to_string()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 9(a) ordering at every checkpoint: RS ≤ PUSHtap < CS, with
    /// PUSHtap within a modest margin of RS (paper: +3.5 %, CS +28.1 %).
    #[test]
    fn format_ordering() {
        let pts = oltp_formats(0.0005, &[300]);
        let get = |l: &str| pts.iter().find(|p| p.label == l).unwrap().time;
        let rs = get("RS (ideal)");
        let cs = get("CS");
        let uni = get("PUSHtap");
        assert!(rs <= uni);
        assert!(uni < cs);
        assert!((uni.ps() as f64 / rs.ps() as f64) < 1.25);
        assert!((cs.ps() as f64 / rs.ps() as f64) > 1.10);
    }

    /// Fig. 9(b) shape: MI's consistency grows with staleness and
    /// dominates PUSHtap's snapshot+defrag by a widening factor; ideal is
    /// constant.
    #[test]
    fn consistency_scaling() {
        let pts = olap_consistency(0.0005, &[200, 2000], Query::Q6);
        let series = |l: &str| -> Vec<&OlapPoint> { pts.iter().filter(|p| p.label == l).collect() };
        let ideal = series("ideal");
        assert_eq!(ideal[0].total(), ideal[1].total());
        let mi = series("MI");
        let push = series("PUSHtap");
        assert!(mi[1].consistency > mi[0].consistency);
        // Consistency *growth* with staleness: MI ships whole rows over
        // the bus, PUSHtap only folds bitmaps and copies locally, so MI's
        // marginal cost per transaction is a multiple of PUSHtap's.
        // (Comparing growth cancels PUSHtap's fixed defrag overhead, which
        // dominates at this reduced scale but amortises at the paper's.)
        let mi_growth = mi[1].consistency.saturating_sub(mi[0].consistency);
        let push_growth = push[1].consistency.saturating_sub(push[0].consistency);
        assert!(
            mi_growth > push_growth * 2,
            "MI growth {mi_growth} vs PUSHtap growth {push_growth}"
        );
        // PUSHtap total stays near ideal (paper: within ~12.6 % at 8 M;
        // generous x4 bound at this scale).
        assert!(push[0].scan < ideal[0].scan * 4);
    }
}
