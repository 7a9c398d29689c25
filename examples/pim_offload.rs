//! PIM offload anatomy: drive the two-phase execution model directly and
//! compare PUSHtap's memory-controller extension against the original
//! general-purpose PIM architecture across WRAM sizes — the mechanism
//! behind Figure 12(b). A launch (Fig. 7(b)'s disguised 64-byte write) is
//! modelled by its cost, `ControlModel::launch`.
//!
//! Run with: `cargo run --release --example pim_offload`

use pushtap::olap::ScanEngine;
use pushtap::pim::{ControlArch, ControlModel, MemSystem, PimOpKind, Ps, SystemConfig};

fn main() {
    // 1. Control-path cost: one disguised access vs per-unit messaging.
    let cfg = SystemConfig::dimm();
    for arch in [ControlArch::Pushtap, ControlArch::Original] {
        let m = ControlModel::new(arch, &cfg);
        println!(
            "{arch:?}: launch(LS) {}, launch(Filter) {}, poll {}",
            m.launch(PimOpKind::Ls),
            m.launch(PimOpKind::Filter),
            m.poll()
        );
    }

    // 2. Whole-scan effect across WRAM sizes (Fig. 12(b) mechanism):
    //    8 B-wide column over 6 M rows.
    println!("\nWRAM(kB)  PUSHtap       Original      speedup");
    for wram_kb in [16u32, 32, 64, 128, 256] {
        let sys = SystemConfig::dimm().with_wram(wram_kb * 1024);
        let mut times = Vec::new();
        for arch in [ControlArch::Pushtap, ControlArch::Original] {
            let engine = ScanEngine::new(arch, &sys);
            let mut mem = MemSystem::new(sys);
            let rows = 6_000_000u64;
            let per_unit = (rows * 8).div_ceil(engine.units());
            let out = engine.timed_phases(
                PimOpKind::Filter,
                per_unit,
                rows * 8,
                1.0,
                &mut mem,
                Ps::ZERO,
            );
            times.push(out.end);
        }
        println!(
            "{wram_kb:>7}   {:>12}  {:>12}  {:.2}x",
            times[0].to_string(),
            times[1].to_string(),
            times[1].ps() as f64 / times[0].ps() as f64
        );
    }
}
