//! Figure 12: (a) defragmentation strategy comparison (CPU-only vs
//! PIM-only vs Hybrid); (b) Q6 execution time across WRAM sizes for the
//! original PIM architecture vs PUSHtap's memory-controller extension.

use pushtap_core::{Pushtap, PushtapConfig};
use pushtap_mvcc::DefragStrategy;
use pushtap_olap::{Query, ScanEngine};
use pushtap_pim::{ControlArch, MemSystem, Ps, SystemConfig};

/// One Fig. 12(a) point: estimated defragmentation time per strategy on
/// an identical delta-region state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyPoint {
    /// Transactions before the pass.
    pub txns: u64,
    /// CPU-only strategy.
    pub cpu: Ps,
    /// PIM-only strategy.
    pub pim: Ps,
    /// Hybrid (per-part choice by Eq. 3).
    pub hybrid: Ps,
}

/// Fig. 12(a): sweep transaction counts; the three strategies are
/// evaluated non-destructively on the same state.
pub fn defrag_strategies(scale: f64, checkpoints: &[u64]) -> Vec<StrategyPoint> {
    let max = *checkpoints.iter().max().expect("checkpoints");
    let mut cfg = PushtapConfig::small();
    cfg.db.scale = scale;
    cfg.db.min_delta_rows = 4 * max;
    cfg.defrag_period = 0;
    let mut p = Pushtap::new(cfg).expect("build");
    let mut gen = p.txn_gen(13);
    let mut out = Vec::new();
    let mut done = 0u64;
    for &cp in checkpoints {
        p.run_txns(&mut gen, cp - done);
        done = cp;
        out.push(StrategyPoint {
            txns: cp,
            cpu: p.estimate_defrag_pause(DefragStrategy::Cpu),
            pim: p.estimate_defrag_pause(DefragStrategy::Pim),
            hybrid: p.estimate_defrag_pause(DefragStrategy::Hybrid),
        });
    }
    out
}

/// One Fig. 12(b) point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WramPoint {
    /// WRAM size in kB.
    pub wram_kb: u32,
    /// Q6 time under PUSHtap's scheduler/polling extension.
    pub pushtap: Ps,
    /// Q6 time under the original per-unit control architecture.
    pub original: Ps,
}

/// Fig. 12(b): Q6 across WRAM sizes, both control architectures.
pub fn wram_sweep(scale: f64, wram_kbs: &[u32]) -> Vec<WramPoint> {
    wram_kbs
        .iter()
        .map(|&kb| {
            let sys = SystemConfig::dimm().with_wram(kb * 1024);
            let mut times = [Ps::ZERO; 2];
            for (i, arch) in [ControlArch::Pushtap, ControlArch::Original]
                .into_iter()
                .enumerate()
            {
                let engine = ScanEngine::new(arch, &sys);
                let mut mem = MemSystem::new(sys);
                let timing = Query::Q6.execute_compact(scale, &engine, &mut mem, Ps::ZERO);
                times[i] = timing.end;
            }
            WramPoint {
                wram_kb: kb,
                pushtap: times[0],
                original: times[1],
            }
        })
        .collect()
}

/// Prints the whole figure.
pub fn print_all(scale: f64) {
    println!("== Fig. 12(a): defragmentation strategies ==");
    let pts = defrag_strategies(scale, &[500, 2_000, 8_000]);
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "txns", "Only CPU", "Only PIM", "Hybrid"
    );
    for p in &pts {
        println!(
            "{:>8} {:>14} {:>14} {:>14}",
            p.txns,
            p.cpu.to_string(),
            p.pim.to_string(),
            p.hybrid.to_string()
        );
    }

    println!("\n== Fig. 12(b): Q6 time vs WRAM size ==");
    // Full-scale rows: the WRAM size only matters when a scan needs many
    // load phases, and this sweep is purely analytic (no population).
    let pts = wram_sweep(scale.max(1.0), &[16, 32, 64, 128, 256]);
    println!(
        "{:>9} {:>14} {:>14} {:>9}",
        "WRAM(kB)", "PUSHtap", "Original", "speedup"
    );
    for p in &pts {
        println!(
            "{:>9} {:>14} {:>14} {:>8.2}x",
            p.wram_kb,
            p.pushtap.to_string(),
            p.original.to_string(),
            p.original.ps() as f64 / p.pushtap.ps() as f64
        );
    }
    let first = pts.first().expect("points");
    let last = pts.last().expect("points");
    println!(
        "\noriginal improves {:.1}x from 16→256 kB (paper: 6.4x); PUSHtap speedup at 64 kB (paper: 3.0x)",
        first.original.ps() as f64 / last.original.ps() as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 12(a): Hybrid is never worse than either pure strategy.
    #[test]
    fn hybrid_wins() {
        let pts = defrag_strategies(0.0005, &[500, 2_000]);
        for p in &pts {
            assert!(p.hybrid <= p.cpu, "{:?}", p);
            assert!(p.hybrid <= p.pim, "{:?}", p);
        }
        // Costs grow with accumulated versions.
        assert!(pts[1].hybrid >= pts[0].hybrid);
    }

    /// Fig. 12(b) shape: the original architecture improves strongly with
    /// WRAM (fewer mode switches) while PUSHtap is nearly flat; PUSHtap
    /// wins by a multiple at the default 64 kB.
    #[test]
    fn wram_sweep_shape() {
        let pts = wram_sweep(1.0, &[16, 64, 256]);
        let p16 = &pts[0];
        let p64 = &pts[1];
        let p256 = &pts[2];
        // Original improves markedly 16 → 256 kB.
        assert!(
            p16.original.ps() as f64 / p256.original.ps() as f64 > 2.0,
            "original {} → {}",
            p16.original,
            p256.original
        );
        // PUSHtap is much less sensitive.
        let push_gain = p16.pushtap.ps() as f64 / p256.pushtap.ps() as f64;
        assert!(push_gain < 1.5, "pushtap gain {push_gain}");
        // PUSHtap beats the original at 64 kB by a multiple (paper 3.0×).
        let speedup = p64.original.ps() as f64 / p64.pushtap.ps() as f64;
        assert!(speedup > 1.5, "speedup {speedup}");
    }
}
