//! Defragmentation strategies and the communication-cost model of §5.3
//! (Equations 1–3).
//!
//! Periodically, the newest versions in the delta region are copied back
//! over their origin rows and the delta space is reclaimed. The copy can
//! be driven by the CPU (reads + writes over the memory bus) or by the
//! PIM units (bus-broadcast of metadata, then local copies at internal
//! bandwidth). Equation 3 gives the row-width crossover above which the
//! PIM strategy wins; the *hybrid* strategy picks per part.

/// Who moves the data during defragmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefragStrategy {
    /// CPU reads metadata and copies rows over the memory bus.
    Cpu,
    /// CPU broadcasts metadata; PIM units copy locally.
    Pim,
    /// Per-part choice by Equation 3 (§7.4's best performer).
    Hybrid,
}

impl DefragStrategy {
    /// Display label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            DefragStrategy::Cpu => "Only CPU",
            DefragStrategy::Pim => "Only PIM",
            DefragStrategy::Hybrid => "Hybrid",
        }
    }
}

/// The §5.3 communication-cost model.
///
/// All bandwidths in bytes/second; `meta_bytes` is the per-row metadata
/// size `m` (16 B in the paper's example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefragCostModel {
    /// Per-row metadata bytes (`m`).
    pub meta_bytes: f64,
    /// CPU memory-bus bandwidth (`bdw_CPU`).
    pub cpu_bw: f64,
    /// Aggregate PIM-internal bandwidth (`bdw_PIM`).
    pub pim_bw: f64,
}

impl DefragCostModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(meta_bytes: f64, cpu_bw: f64, pim_bw: f64) -> DefragCostModel {
        assert!(
            meta_bytes > 0.0 && cpu_bw > 0.0 && pim_bw > 0.0,
            "model parameters must be positive"
        );
        DefragCostModel {
            meta_bytes,
            cpu_bw,
            pim_bw,
        }
    }

    /// Equation 1: CPU-strategy communication time (seconds) for a delta
    /// region of `n` rows of which fraction `p` are newest versions, on a
    /// table part with `d` devices of row width `w` bytes.
    pub fn comm_cpu(&self, n: u64, p: f64, d: u32, w: u32) -> f64 {
        let (m, n) = (self.meta_bytes, n as f64);
        (m * n + 2.0 * n * p * d as f64 * w as f64) / self.cpu_bw
    }

    /// Equation 2: PIM-strategy communication time (seconds): CPU reads
    /// the metadata, broadcasts it to `d` devices, then PIM units read it
    /// and move the rows at internal bandwidth.
    pub fn comm_pim(&self, n: u64, p: f64, d: u32, w: u32) -> f64 {
        let (m, n, d) = (self.meta_bytes, n as f64, d as f64);
        (m * n + d * m * n) / self.cpu_bw + (d * m * n + 2.0 * n * p * d * w as f64) / self.pim_bw
    }

    /// Equation 3: the row width above which the PIM strategy beats the
    /// CPU strategy. Returns `None` when PIM bandwidth does not exceed CPU
    /// bandwidth (PIM never wins then).
    pub fn crossover_width(&self, p: f64) -> Option<f64> {
        if self.pim_bw <= self.cpu_bw {
            return None;
        }
        Some(
            (self.pim_bw + self.cpu_bw) / (2.0 * p * (self.pim_bw - self.cpu_bw)) * self.meta_bytes,
        )
    }

    /// The better of CPU/PIM for a part of width `w` (what Hybrid picks).
    pub fn pick(&self, p: f64, w: u32) -> DefragStrategy {
        match self.crossover_width(p) {
            Some(c) if (w as f64) > c => DefragStrategy::Pim,
            _ => DefragStrategy::Cpu,
        }
    }

    /// Communication time for a whole *table* whose layout has several
    /// parts: `w` is its per-device row width, the sum of the part
    /// widths, the metadata is read (and, for the PIM strategy,
    /// broadcast) once, and the Hybrid strategy resolves per table — "the
    /// hybrid selects different strategies depending on the tables' row
    /// widths" (§7.4) — so it equals `min(comm_cpu, comm_pim)` by
    /// Equation 3.
    pub fn comm_parts(&self, strategy: DefragStrategy, n: u64, p: f64, d: u32, w: u32) -> f64 {
        match strategy {
            DefragStrategy::Cpu => self.comm_cpu(n, p, d, w),
            DefragStrategy::Pim => self.comm_pim(n, p, d, w),
            DefragStrategy::Hybrid => self.comm_parts(self.pick(p, w), n, p, d, w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §5.3's worked example: m = 16, p ≈ 1, bdw_PIM : bdw_CPU = 3 : 1 ⇒
    /// PIM wins when w > 16.
    #[test]
    fn paper_crossover_example() {
        let m = DefragCostModel::new(16.0, 1e9, 3e9);
        let c = m.crossover_width(1.0).unwrap();
        assert!((c - 16.0).abs() < 1e-9, "crossover {c}");
        assert_eq!(m.pick(1.0, 17), DefragStrategy::Pim);
        assert_eq!(m.pick(1.0, 16), DefragStrategy::Cpu);
        assert_eq!(m.pick(1.0, 2), DefragStrategy::Cpu);
    }

    /// The analytic crossover matches the point where the two cost curves
    /// actually cross.
    #[test]
    fn crossover_consistent_with_costs() {
        let m = DefragCostModel::new(16.0, 1e9, 3e9);
        let n = 10_000;
        let d = 8;
        for (w, pim_better) in [(8u32, false), (16, false), (17, true), (64, true)] {
            let cpu = m.comm_cpu(n, 1.0, d, w);
            let pim = m.comm_pim(n, 1.0, d, w);
            assert_eq!(pim < cpu, pim_better, "w={w}: cpu={cpu} pim={pim}");
        }
    }

    #[test]
    fn hybrid_is_never_worse() {
        let m = DefragCostModel::new(16.0, 1e9, 10e9);
        for w in [2u32, 4, 8, 16, 20, 32, 64, 152] {
            let h = m.comm_parts(DefragStrategy::Hybrid, 5_000, 0.8, 8, w);
            let c = m.comm_parts(DefragStrategy::Cpu, 5_000, 0.8, 8, w);
            let p = m.comm_parts(DefragStrategy::Pim, 5_000, 0.8, 8, w);
            assert!(h <= c + 1e-12 && h <= p + 1e-12, "w={w}");
        }
    }

    #[test]
    fn no_crossover_when_pim_is_slower() {
        let m = DefragCostModel::new(16.0, 2e9, 1e9);
        assert_eq!(m.crossover_width(1.0), None);
        assert_eq!(m.pick(1.0, 10_000), DefragStrategy::Cpu);
    }

    #[test]
    fn costs_scale_linearly_in_rows() {
        let m = DefragCostModel::new(16.0, 1e9, 3e9);
        let a = m.comm_cpu(1000, 1.0, 8, 32);
        let b = m.comm_cpu(2000, 1.0, 8, 32);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn labels() {
        assert_eq!(DefragStrategy::Hybrid.label(), "Hybrid");
        assert_eq!(DefragStrategy::Cpu.label(), "Only CPU");
        assert_eq!(DefragStrategy::Pim.label(), "Only PIM");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_model_panics() {
        let _ = DefragCostModel::new(0.0, 1.0, 1.0);
    }
}
