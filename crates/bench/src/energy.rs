//! Energy extension: the paper motivates PIM with ~10× lower access
//! energy (ref. \[11\], §1). This experiment scans the same column once through
//! the PIM units and once over the CPU bus and compares the energy
//! accounting — an extension beyond the paper's figures, enabled by the
//! simulator's energy counters.

use pushtap_chbench::{key_columns_upto, schema_with_keys, Table};
use pushtap_format::compact_layout;
use pushtap_olap::ScanEngine;
use pushtap_oltp::{DbFormat, HtapTable, TableConfig};
use pushtap_pim::{ControlArch, Geometry, MemSystem, PimOpKind, Ps, Side, SystemConfig};

/// Energy for one full-column scan, joules, via both paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyComparison {
    /// Rows scanned.
    pub rows: u64,
    /// Energy via PIM-local DMA, millijoules.
    pub pim_mj: f64,
    /// Energy via CPU bus streaming, millijoules.
    pub cpu_mj: f64,
}

impl EnergyComparison {
    /// CPU-to-PIM energy ratio.
    pub fn ratio(&self) -> f64 {
        self.cpu_mj / self.pim_mj.max(1e-12)
    }
}

fn table(rows: u64) -> HtapTable {
    let keys = key_columns_upto(22);
    let schema = schema_with_keys(Table::OrderLine, &keys[&Table::OrderLine]);
    let layout = compact_layout(&schema, 8, 0.6).expect("layout");
    let g = Geometry::dimm();
    HtapTable::new(
        layout,
        TableConfig {
            n_rows: rows,
            delta_rows: 64,
            block_rows: 1024,
            shards: g.bank_addrs().collect(),
            base_dram_row: 0,
            model: DbFormat::Unified,
            side: Side::Pim,
            geometry: g,
        },
    )
}

/// Scans `ol_amount` over `rows` rows via PIM and via the CPU and
/// compares energy.
pub fn compare(rows: u64) -> EnergyComparison {
    let cfg = SystemConfig::dimm();
    let engine = ScanEngine::new(ControlArch::Pushtap, &cfg);
    let t = table(rows);
    let col = t
        .layout()
        .schema()
        .index_of("ol_amount")
        .expect("ol_amount");

    let mut pim_mem = MemSystem::new(cfg);
    engine.scan_column(&t, col, PimOpKind::Filter, &mut pim_mem, Ps::ZERO);
    let pim_mj = pim_mem.stats().energy.total_mj();

    let mut cpu_mem = MemSystem::new(cfg);
    engine.cpu_scan_column(&t, col, &mut cpu_mem, Ps::ZERO);
    let cpu_mj = cpu_mem.stats().energy.total_mj();

    EnergyComparison {
        rows,
        pim_mj,
        cpu_mj,
    }
}

/// Prints the comparison across scan sizes.
pub fn print_all() {
    println!("== Energy extension: column scan via PIM vs CPU ==");
    println!(
        "{:>12} {:>12} {:>12} {:>8}",
        "rows", "PIM (mJ)", "CPU (mJ)", "ratio"
    );
    for rows in [100_000u64, 1_000_000, 10_000_000] {
        let c = compare(rows);
        println!(
            "{:>12} {:>12.4} {:>12.4} {:>7.1}x",
            c.rows,
            c.pim_mj,
            c.cpu_mj,
            c.ratio()
        );
    }
    println!(
        "(the ratio compounds [11]'s ~10x per-byte saving with the CPU \
         path's 8x line-granularity overfetch of an 8 B-wide part)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline claim: PIM-local scanning saves close to the 10×
    /// per-byte factor (the exact ratio also reflects line-granularity
    /// overfetch on the CPU path).
    #[test]
    fn pim_saves_energy() {
        let c = compare(500_000);
        assert!(c.ratio() > 5.0, "ratio {}", c.ratio());
        assert!(c.pim_mj > 0.0 && c.cpu_mj > 0.0);
    }

    #[test]
    fn energy_scales_with_rows() {
        let a = compare(100_000);
        let b = compare(1_000_000);
        assert!(b.pim_mj > a.pim_mj * 5.0);
        assert!(b.cpu_mj > a.cpu_mj * 5.0);
    }
}
