//! Two-phase PIM scan execution (§6.2).
//!
//! An OLAP operation over a column alternates **load** phases (the bank is
//! handed to the PIM units, which DMA a 32 kB WRAM slice while CPU access
//! to those banks is blocked) and **compute** phases (PIM units work from
//! WRAM, the CPU accesses DRAM freely). PUSHtap's scheduler makes each
//! phase cost one disguised memory access; the original architecture pays
//! per-unit messaging and keeps the banks for the whole offload.

use pushtap_oltp::HtapTable;
use pushtap_pim::{ControlArch, ControlModel, MemSystem, PimOpKind, PimUnit, Ps, SystemConfig};

/// Timing outcome of one column scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Completion time.
    pub end: Ps,
    /// Number of load/compute phase pairs.
    pub phases: u64,
    /// Total PIM DMA (load) time.
    pub load_time: Ps,
    /// Total PIM compute time.
    pub compute_time: Ps,
    /// Total control-path overhead (launch + poll + handover).
    pub control_time: Ps,
    /// How long CPU access to the scanned banks was blocked.
    pub cpu_blocked: Ps,
    /// Bytes DMAed per PIM unit.
    pub bytes_per_unit: u64,
}

/// The scan engine: control architecture + PIM unit cost model.
#[derive(Debug, Clone)]
pub struct ScanEngine {
    control: ControlModel,
    unit: PimUnit,
    units: u64,
}

impl ScanEngine {
    /// Builds a scan engine for the system configuration.
    pub fn new(arch: ControlArch, cfg: &SystemConfig) -> ScanEngine {
        ScanEngine {
            control: ControlModel::new(arch, cfg),
            unit: PimUnit::new(cfg.pim_unit),
            units: cfg.pim_geometry.pim_units() as u64,
        }
    }

    /// Total PIM units participating in scans.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// The per-unit cost model.
    pub(crate) fn unit(&self) -> &PimUnit {
        &self.unit
    }

    /// Scans `col` of `table` with `op`, timing the two-phase execution.
    ///
    /// The scan streams the column's part across the data region plus the
    /// live delta rows — invisible versions still cost bandwidth because
    /// rows narrower than the 8 B wire cannot be skipped (§7.4, the
    /// fragmentation effect of Fig. 11(b)).
    ///
    /// # Panics
    ///
    /// Panics if `col` is not a device-local (key) column: only a key
    /// column lies whole on one device, where a PIM unit can read it
    /// (§4.1.2). Every column Q1, Q6 and Q9 scan is one.
    pub fn scan_column(
        &self,
        table: &HtapTable,
        col: u32,
        op: PimOpKind,
        mem: &mut MemSystem,
        at: Ps,
    ) -> ScanOutcome {
        let layout = table.layout();
        let (part, _) = layout
            .key_location(col)
            .expect("PIM scans require a device-local key column");
        let w = layout.parts()[part as usize].width() as u64;
        let cw = layout.schema().column(col).width as u64;
        let scanned_rows = table.n_rows() + table.live_delta_rows();
        let total_bytes = self.unit.round_to_wire(scanned_rows * w);
        let bytes_per_unit = total_bytes.div_ceil(self.units);
        self.timed_phases(
            op,
            bytes_per_unit,
            total_bytes,
            cw as f64 / w as f64,
            mem,
            at,
        )
    }

    /// The raw two-phase timing for `bytes_per_unit` of operand data per
    /// unit. `useful_frac` is the fraction of loaded bytes that carry the
    /// scanned column (effective-bandwidth accounting).
    pub fn timed_phases(
        &self,
        op: PimOpKind,
        bytes_per_unit: u64,
        total_bytes: u64,
        useful_frac: f64,
        mem: &mut MemSystem,
        at: Ps,
    ) -> ScanOutcome {
        assert!((0.0..=1.0).contains(&useful_frac), "bad useful fraction");
        let buffer = self.unit.spec().data_buffer_bytes() as u64;
        let phases = bytes_per_unit.div_ceil(buffer).max(1);
        let mut now = at;
        let mut out = ScanOutcome {
            phases,
            bytes_per_unit,
            ..ScanOutcome::default()
        };
        let mut remaining = bytes_per_unit;
        for _ in 0..phases {
            let chunk = remaining.min(buffer);
            remaining -= chunk;
            // Load phase: launch LS, banks handed over, DMA, poll.
            let launch = self.control.launch(PimOpKind::Ls);
            let load = self.unit.dma_time(chunk);
            let poll = self.control.poll();
            let release = self.control.release(PimOpKind::Ls);
            let load_end = now + launch + load + poll + release;
            if self.control.blocks_cpu(PimOpKind::Ls) {
                mem.lock_all_pim(load_end);
                out.cpu_blocked += load_end - now;
            }
            out.control_time += launch + poll + release;
            out.load_time += load;
            now = load_end;

            // Compute phase: CPU regains the banks under PUSHtap.
            let launch = self.control.launch(op);
            let compute = self.unit.compute_time(op, chunk / 8);
            let poll = self.control.poll();
            let release = self.control.release(op);
            let compute_end = now + launch + compute + poll + release;
            if self.control.blocks_cpu(op) {
                mem.lock_all_pim(compute_end);
                out.cpu_blocked += compute_end - now;
            }
            out.control_time += launch + poll + release;
            out.compute_time += compute;
            now = compute_end;
        }
        mem.charge_pim_dma(total_bytes, (total_bytes as f64 * useful_frac) as u64);
        out.end = now;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_format::compact_layout;
    use pushtap_oltp::{DbFormat, TableConfig};
    use pushtap_pim::{BankAddr, Geometry, Side};

    fn test_table(n_rows: u64) -> HtapTable {
        let layout = compact_layout(pushtap_format::paper_example_schema(), 8, 0.6).unwrap();
        let g = Geometry::dimm();
        HtapTable::new(
            layout,
            TableConfig {
                n_rows,
                delta_rows: 128,
                block_rows: 64,
                shards: g.bank_addrs().collect(),
                base_dram_row: 0,
                model: DbFormat::Unified,
                side: Side::Pim,
                geometry: g,
            },
        )
    }

    fn engines() -> (ScanEngine, ScanEngine, SystemConfig) {
        let cfg = SystemConfig::dimm();
        (
            ScanEngine::new(ControlArch::Pushtap, &cfg),
            ScanEngine::new(ControlArch::Original, &cfg),
            cfg,
        )
    }

    #[test]
    fn scan_times_scale_with_rows() {
        let (push, _, _) = engines();
        let schema = pushtap_format::paper_example_schema();
        let col = schema.index_of("w_id").unwrap();
        let mut mem = MemSystem::dimm();
        let small = push.scan_column(
            &test_table(100_000),
            col,
            PimOpKind::Filter,
            &mut mem,
            Ps::ZERO,
        );
        let mut mem2 = MemSystem::dimm();
        let large = push.scan_column(
            &test_table(10_000_000),
            col,
            PimOpKind::Filter,
            &mut mem2,
            Ps::ZERO,
        );
        assert!(large.end > small.end);
        assert!(large.phases >= small.phases);
    }

    /// Fig. 12(b)'s mechanism: the original architecture pays per-unit
    /// control on every phase, PUSHtap a single disguised access — the
    /// original is several times slower at the default 64 kB WRAM.
    #[test]
    fn pushtap_control_beats_original() {
        let (push, orig, _) = engines();
        let schema = pushtap_format::paper_example_schema();
        let col = schema.index_of("w_id").unwrap();
        let table = test_table(4_000_000);
        let mut mem = MemSystem::dimm();
        let p = push.scan_column(&table, col, PimOpKind::Filter, &mut mem, Ps::ZERO);
        let mut mem2 = MemSystem::dimm();
        let o = orig.scan_column(&table, col, PimOpKind::Filter, &mut mem2, Ps::ZERO);
        assert!(o.end > p.end, "original {} vs pushtap {}", o.end, p.end);
        assert!(o.control_time > p.control_time * 10);
        // Original blocks the CPU for the entire offload.
        assert!(o.cpu_blocked > p.cpu_blocked);
    }

    #[test]
    fn fragmentation_increases_scan_time() {
        let (push, _, _) = engines();
        let schema = pushtap_format::paper_example_schema();
        let col = schema.index_of("w_id").unwrap();
        // The same table, but with live delta rows (fragmentation).
        let clean = test_table(500_000);
        let mut fragged = test_table(500_000);
        let mut mem = MemSystem::dimm();
        let meter = pushtap_oltp::Meter::new(pushtap_pim::CpuSpec::xeon_like());
        for i in 0..100u64 {
            let row = i * 64; // distinct rows in distinct blocks
            let (mut b, mut now) = (pushtap_oltp::Breakdown::default(), Ps::ZERO);
            let fetch = fragged.fetch(&mut mem, &meter, row, None, &mut b, &mut now);
            fragged
                .timed_update(
                    &meter,
                    row,
                    fetch,
                    pushtap_mvcc::Ts(i + 1),
                    &[(0, pushtap_oltp::ColumnWrite::set(0x0101, 2))],
                    now,
                )
                .unwrap();
        }
        // Fragmentation only matters at scale; compare scanned bytes.
        let mut m1 = MemSystem::dimm();
        let mut m2 = MemSystem::dimm();
        let a = push.scan_column(&clean, col, PimOpKind::Filter, &mut m1, Ps::ZERO);
        let b = push.scan_column(&fragged, col, PimOpKind::Filter, &mut m2, Ps::ZERO);
        assert!(b.bytes_per_unit >= a.bytes_per_unit);
        assert!(m2.stats().pim_loaded > m1.stats().pim_loaded);
    }

    #[test]
    fn load_phase_blocks_cpu_banks() {
        let (push, _, _) = engines();
        let schema = pushtap_format::paper_example_schema();
        let col = schema.index_of("w_id").unwrap();
        let table = test_table(2_000_000);
        let mut mem = MemSystem::dimm();
        let out = push.scan_column(&table, col, PimOpKind::Filter, &mut mem, Ps::ZERO);
        assert!(out.cpu_blocked > Ps::ZERO);
        // But not for the whole scan: compute phases leave the CPU free.
        assert!(out.cpu_blocked < out.end);
        // A CPU access issued during the scan completes before its end
        // (it only waits for the current load phase).
        let r = mem.access(
            Side::Pim,
            BankAddr::new(0, 0, 0),
            0,
            pushtap_pim::Op::Read,
            64,
            Ps::ZERO,
        );
        assert!(r.done < out.end);
    }

    #[test]
    fn effective_bandwidth_reflects_column_width() {
        let (push, _, _) = engines();
        let schema = pushtap_format::paper_example_schema();
        // w_id is 4 bytes in a 4-byte part at th=0.6 → fully effective.
        let col = schema.index_of("w_id").unwrap();
        let table = test_table(100_000);
        let mut mem = MemSystem::dimm();
        push.scan_column(&table, col, PimOpKind::Filter, &mut mem, Ps::ZERO);
        assert!(mem.stats().pim_effective() > 0.99);
    }

    #[test]
    #[should_panic(expected = "device-local")]
    fn pim_scan_rejects_normal_columns() {
        let (push, _, _) = engines();
        let schema = pushtap_format::paper_example_schema();
        let zip = schema.index_of("zip").unwrap();
        let table = test_table(1000);
        let mut mem = MemSystem::dimm();
        push.scan_column(&table, zip, PimOpKind::Filter, &mut mem, Ps::ZERO);
    }
}
