//! Figure 10: the OLTP/OLAP throughput frontier for MI and PUSHtap.
//!
//! Model parameters are *measured* on small instances (per-transaction
//! time, per-query time, per-transaction consistency cost, bus traffic),
//! then the closed-form frontier of [`pushtap_core::FrontierParams`] is
//! swept.

use pushtap_core::{FrontierParams, MultiInstance, Pushtap, PushtapConfig};
use pushtap_olap::Query;
use pushtap_oltp::{DbConfig, DbFormat};
use pushtap_pim::calib::FRONTIER_BUS_SHARE;
use pushtap_pim::{Ps, SystemConfig};

/// Measured frontier inputs for both systems.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredParams {
    /// PUSHtap's frontier inputs.
    pub pushtap: FrontierParams,
    /// MI's frontier inputs.
    pub mi: FrontierParams,
}

/// Measures the model inputs at `scale`.
pub fn measure(scale: f64) -> MeasuredParams {
    let system = SystemConfig::dimm();
    let cores = system.cpu.cores;
    let bus = system.cpu_peak_bw() * FRONTIER_BUS_SHARE;

    // --- PUSHtap ---
    let mut db = DbConfig::small();
    db.scale = scale;
    // Arenas sized so no emergency defragmentation pollutes the
    // measurement (the paper defragments every 10 k transactions).
    db.min_delta_rows = 65_536;
    let cfg = PushtapConfig {
        db: db.clone(),
        system,
        arch: pushtap_pim::ControlArch::Pushtap,
        defrag_period: 10_000, // the paper's period
    };
    let mut p = Pushtap::new(cfg).expect("build");
    let mut gen = p.txn_gen(17);
    let fetched0 = p.mem().stats().cpu_fetched;
    let report = p.run_txns(&mut gen, 2_000);
    let txn_bus_bytes = (p.mem().stats().cpu_fetched - fetched0) as f64 / 2_000.0;
    let txn_time = report.txn_time / 2_000;
    // Consistency per txn: snapshotting plus the amortised per-period
    // defragmentation pause (estimated at the paper's 10 k period).
    let snap = p.run_query(Query::Q6).consistency;
    let defrag_amortised = p.estimate_defrag_pause(pushtap_mvcc::DefragStrategy::Hybrid) / 10_000;
    let per_txn_consistency = report.defrag_time / 2_000 + snap / 2_000 + defrag_amortised;
    // Query time: mean of the three queries, scan only.
    let fetched1 = p.mem().stats().cpu_fetched;
    let mut q_total = Ps::ZERO;
    for q in Query::ALL {
        let r = p.run_query(q);
        q_total += r.timing.end.saturating_sub(r.consistency);
    }
    let query_time = q_total / 3;
    let query_bus_bytes = ((p.mem().stats().cpu_fetched - fetched1) as f64 / 3.0).max(1.0);

    let pushtap = FrontierParams {
        txn_time,
        query_time,
        per_txn_consistency,
        cores,
        bus_bytes_per_sec: bus,
        txn_bus_bytes,
        query_bus_bytes,
    };

    // --- MI ---
    let mut mi = MultiInstance::new(
        DbConfig {
            scale,
            format: DbFormat::RowStore,
            min_delta_rows: 65_536,
            ..DbConfig::small()
        },
        system,
    )
    .expect("build");
    let mut gen = mi.row_db.txn_gen(17);
    let t0 = mi.now();
    for txn in gen.batch(1_000) {
        mi.execute_txn(&txn);
    }
    let mi_txn_time = (mi.now() - t0) / 1_000;
    // Rebuild cost per transaction of staleness.
    let rebuild_per_txn = mi.rebuild_time() / 1_000;
    // Query time: mean of the three queries, rebuild excluded (same
    // accounting as the PUSHtap measurement above).
    let mut mi_q_total = Ps::ZERO;
    for q in Query::ALL {
        let (total, rebuild) = mi.run_query(q);
        mi_q_total += total.saturating_sub(rebuild);
    }
    let mi_query_time = mi_q_total / 3;

    let mi_params = FrontierParams {
        txn_time: mi_txn_time,
        query_time: mi_query_time,
        per_txn_consistency: rebuild_per_txn,
        cores,
        bus_bytes_per_sec: bus,
        // MI's row instance lives in host memory; its queries also pull
        // rebuild traffic over the bus (folded into σ), so the explicit
        // per-query bus share is the scan-result collection only.
        txn_bus_bytes,
        query_bus_bytes,
    };

    MeasuredParams {
        pushtap,
        mi: mi_params,
    }
}

/// Prints the figure.
pub fn print_all(scale: f64) {
    let m = measure(scale);
    println!("== Fig. 10: throughput frontier ==");
    println!(
        "measured: PUSHtap txn {} query {} σ {}",
        m.pushtap.txn_time, m.pushtap.query_time, m.pushtap.per_txn_consistency
    );
    println!(
        "measured: MI      txn {} query {} σ {}",
        m.mi.txn_time, m.mi.query_time, m.mi.per_txn_consistency
    );
    println!(
        "\n{:<24} {:>16} {:>16}",
        "system", "peak tpmC(M)", "peak QphH(k)"
    );
    for (label, f) in [("PUSHtap", &m.pushtap), ("MI", &m.mi)] {
        println!(
            "{:<24} {:>16.1} {:>16.1}",
            label,
            f.peak_tpmc() * m.pushtap.cores as f64 / 1e6,
            f.peak_qphh() / 1e3
        );
    }
    println!("\nfrontier points (tpmC_M, QphH_k):");
    for (label, pts) in [("PUSHtap", m.pushtap.sweep(12)), ("MI", m.mi.sweep(12))] {
        let s: Vec<String> = pts
            .iter()
            .map(|p| {
                format!(
                    "({:.1},{:.1})",
                    p.tpmc * m.pushtap.cores as f64 / 1e6,
                    p.qphh / 1e3
                )
            })
            .collect();
        println!("  {label}: {}", s.join(" "));
    }
    // The paper's headline ratios.
    let ratio_oltp = m.pushtap.peak_tpmc() / m.mi.peak_tpmc().max(1e-9);
    let mi_peak_x = m.mi.peak_txn_rate();
    let ratio_olap_at_mi_peak =
        m.pushtap.max_query_rate(mi_peak_x) / m.mi.max_query_rate(mi_peak_x * 0.999).max(1e-9);
    println!(
        "\npeak-OLTP ratio (paper 3.4x): {ratio_oltp:.1}x; OLAP at MI's peak OLTP (paper 4.4x): {ratio_olap_at_mi_peak:.1}x"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 10 shape: PUSHtap's frontier dominates MI's — flat OLAP
    /// retention and a larger frontier area.
    #[test]
    fn pushtap_frontier_dominates() {
        let m = measure(0.0005);
        let (push, mi) = (m.pushtap.sweep(8), m.mi.sweep(8));
        assert_eq!(push.len(), 8);
        // Peak OLAP with OLTP idle is comparable (both scan compact-ish
        // columns)…
        let p0 = push[0].qphh;
        let m0 = mi[0].qphh;
        assert!(p0 > 0.0 && m0 > 0.0);
        // …but at mid frontier PUSHtap retains much more OLAP throughput.
        let p_mid = push[4].qphh / p0;
        let m_mid = mi[4].qphh / m0;
        assert!(p_mid > m_mid, "PUSHtap retention {p_mid} vs MI {m_mid}");
    }

    #[test]
    fn measured_params_are_sane() {
        let m = measure(0.0005);
        assert!(m.pushtap.txn_time > pushtap_pim::Ps::ZERO);
        assert!(m.mi.per_txn_consistency > m.pushtap.per_txn_consistency);
        assert!(m.pushtap.query_time > m.pushtap.txn_time);
    }
}
