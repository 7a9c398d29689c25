//! Whole-system configuration (Table 1).

use crate::geometry::Geometry;
use crate::time::Ps;
use crate::timing::TimingParams;

/// Which memory technology backs the PIM side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// DDR5 DIMM-based PIM (the paper's default system).
    Dimm,
    /// HBM3-based PIM (the paper's comparison system, §7.3).
    Hbm,
}

impl MemKind {
    /// Short human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            MemKind::Dimm => "DIMM",
            MemKind::Hbm => "HBM",
        }
    }
}

/// UPMEM-like PIM unit parameters (Table 1, "PIM Units").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimUnitSpec {
    /// Core frequency in Hz (500 MHz).
    pub freq_hz: u64,
    /// Hardware threads; ≥11 tasklets saturate the pipeline on UPMEM.
    pub tasklets: u32,
    /// Working RAM (operand scratchpad) in bytes; the paper uses half of it
    /// as the load-phase data buffer (§6.2).
    pub wram_bytes: u32,
    /// Instruction RAM in bytes.
    pub iram_bytes: u32,
    /// DRAM↔WRAM DMA bandwidth in bytes/second (1 GB/s per unit, \[11\]).
    pub dma_bytes_per_sec: u64,
    /// Width of the PIM-to-DRAM data wire in bytes (64-bit in \[11\]); also
    /// the minimum access granularity of a PIM unit.
    pub wire_bytes: u32,
}

impl PimUnitSpec {
    /// The commercial general-purpose PIM unit of Table 1.
    pub fn upmem_like() -> PimUnitSpec {
        PimUnitSpec {
            freq_hz: 500_000_000,
            tasklets: 16,
            wram_bytes: 64 * 1024,
            iram_bytes: 24 * 1024,
            dma_bytes_per_sec: 1_000_000_000,
            wire_bytes: 8,
        }
    }

    /// Returns a copy with a different WRAM size (Fig. 12(b) sweep).
    pub fn with_wram(mut self, wram_bytes: u32) -> PimUnitSpec {
        self.wram_bytes = wram_bytes;
        self
    }

    /// The usable load-phase data buffer: half of WRAM (§6.2).
    pub fn data_buffer_bytes(&self) -> u32 {
        self.wram_bytes / 2
    }

    /// Time for this unit to DMA `bytes` between its DRAM bank and WRAM.
    pub fn dma_time(&self, bytes: u64) -> Ps {
        // 1 GB/s ⇒ 1000 ps per byte; computed generically from the spec.
        Ps::new(bytes * 1_000_000_000_000 / self.dma_bytes_per_sec)
    }

    /// Duration of `cycles` PIM cycles.
    pub fn cycles(&self, cycles: u64) -> Ps {
        Ps::new(cycles * 1_000_000_000_000 / self.freq_hz)
    }
}

/// Host CPU parameters (Table 1, "Host CPU").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSpec {
    /// Out-of-order cores.
    pub cores: u32,
    /// Core frequency in Hz.
    pub freq_hz: u64,
    /// Cache line size in bytes.
    pub cache_line: u32,
}

impl CpuSpec {
    /// 16 O3 cores at 3.2 GHz, 64 B lines.
    pub fn xeon_like() -> CpuSpec {
        CpuSpec {
            cores: 16,
            freq_hz: 3_200_000_000,
            cache_line: 64,
        }
    }

    /// Duration of `cycles` CPU cycles.
    pub fn cycles(&self, cycles: u64) -> Ps {
        Ps::new(cycles * 1_000_000_000_000 / self.freq_hz)
    }
}

/// Complete system configuration: host CPU, PIM memory, and the CPU-side
/// conventional memory (Table 1 "System Configuration": 4 channels × 4 ranks
/// normal DRAM + 4 channels × 4 ranks with PIM units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Memory technology of the PIM side.
    pub kind: MemKind,
    /// Geometry of the PIM-attached memory.
    pub pim_geometry: Geometry,
    /// Timing of the PIM-attached memory.
    pub pim_timing: TimingParams,
    /// Geometry of the CPU-side conventional memory.
    pub cpu_geometry: Geometry,
    /// Timing of the CPU-side conventional memory.
    pub cpu_timing: TimingParams,
    /// PIM unit parameters.
    pub pim_unit: PimUnitSpec,
    /// Host CPU parameters.
    pub cpu: CpuSpec,
    /// Latency of handing over bank access control between CPU and PIM,
    /// per rank (0.2 µs, measured on a real UPMEM server — §7.1).
    pub mode_switch: Ps,
}

impl SystemConfig {
    /// The paper's default DIMM-based system.
    pub fn dimm() -> SystemConfig {
        SystemConfig {
            kind: MemKind::Dimm,
            pim_geometry: Geometry::dimm(),
            pim_timing: TimingParams::ddr5_3200(),
            cpu_geometry: Geometry::dimm(),
            cpu_timing: TimingParams::ddr5_3200(),
            pim_unit: PimUnitSpec::upmem_like(),
            cpu: CpuSpec::xeon_like(),
            mode_switch: Ps::from_us(0.2),
        }
    }

    /// The paper's HBM-based comparison system: PIM DRAM replaced with HBM;
    /// "The PIM units and CPU-side configuration are kept the same" (§7.1).
    pub fn hbm() -> SystemConfig {
        SystemConfig {
            kind: MemKind::Hbm,
            pim_geometry: Geometry::hbm(),
            pim_timing: TimingParams::hbm3_2gbps(),
            ..SystemConfig::dimm()
        }
    }

    /// Returns a copy with a different PIM WRAM size (Fig. 12(b)).
    pub fn with_wram(mut self, wram_bytes: u32) -> SystemConfig {
        self.pim_unit = self.pim_unit.with_wram(wram_bytes);
        self
    }

    /// Peak CPU-visible bus bandwidth of the PIM memory, bytes/second.
    pub fn cpu_peak_bw(&self) -> f64 {
        let line = self.pim_geometry.cpu_line_bytes() as f64;
        let per_line = self.pim_timing.t_burst.as_secs();
        self.pim_geometry.channels as f64 * line / per_line
    }

    /// Aggregate internal PIM bandwidth, bytes/second (units × DMA rate).
    pub fn pim_peak_bw(&self) -> f64 {
        self.pim_geometry.pim_units() as f64 * self.pim_unit.dma_bytes_per_sec as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_pim_unit() {
        let p = PimUnitSpec::upmem_like();
        assert_eq!(p.freq_hz, 500_000_000);
        assert_eq!(p.tasklets, 16);
        assert_eq!(p.wram_bytes, 64 * 1024);
        assert_eq!(p.dma_bytes_per_sec, 1_000_000_000);
        assert_eq!(p.data_buffer_bytes(), 32 * 1024);
    }

    #[test]
    fn dma_time_is_1000ps_per_byte() {
        let p = PimUnitSpec::upmem_like();
        assert_eq!(p.dma_time(1), Ps::new(1000));
        // 32 kB load-phase buffer loads in ~32.8 µs.
        let t = p.dma_time(p.data_buffer_bytes() as u64);
        assert!((t.as_us() - 32.768).abs() < 1e-9);
    }

    #[test]
    fn pim_cycles_at_500mhz() {
        let p = PimUnitSpec::upmem_like();
        assert_eq!(p.cycles(1), Ps::new(2000)); // 2 ns per cycle
    }

    #[test]
    fn cpu_cycles_at_3_2ghz() {
        let c = CpuSpec::xeon_like();
        assert_eq!(c.cycles(16), Ps::new(5000)); // 16 cycles = 5 ns
    }

    #[test]
    fn mode_switch_is_200ns() {
        assert_eq!(SystemConfig::dimm().mode_switch, Ps::from_us(0.2));
    }

    /// The PIM-internal : CPU-bus bandwidth ratio motivates PIM offload;
    /// the paper cites >3.3× for the commercial architecture. With Table 1
    /// numbers the aggregate ratio is far larger; assert the sign and
    /// magnitude ordering rather than an exact value.
    #[test]
    fn pim_bandwidth_exceeds_cpu_bus() {
        let cfg = SystemConfig::dimm();
        assert!(cfg.pim_peak_bw() > 3.3 * cfg.cpu_peak_bw());
    }

    #[test]
    fn hbm_config_swaps_memory_only() {
        let d = SystemConfig::dimm();
        let h = SystemConfig::hbm();
        assert_eq!(h.pim_unit, d.pim_unit);
        assert_eq!(h.cpu, d.cpu);
        assert_eq!(h.cpu_geometry, d.cpu_geometry);
        assert_ne!(h.pim_geometry, d.pim_geometry);
        assert_eq!(h.kind.label(), "HBM");
    }
}
