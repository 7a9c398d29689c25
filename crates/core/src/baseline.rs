//! Baselines of §7.3: the *ideal* scan model and the *multi-instance*
//! (MI, Polynesia-like) PIM HTAP design.
//!
//! **Ideal** assumes every scanned column is already perfectly compact on
//! the PIM side and charges only scan time — the lower bound in Fig. 9(b).
//!
//! **MI** keeps a row-store instance in host memory for OLTP and a
//! column-store instance in PIM memory for OLAP. Before a query it must
//! *rebuild* the column instance from the transaction log: all
//! new-versioned rows plus their metadata cross the memory bus, then the
//! PIM units merge them (§7.3's adaptation of [6] to the DIMM system).

use pushtap_chbench::Table;
use pushtap_olap::{Query, ScanEngine};
use pushtap_oltp::{DbConfig, DbFormat, TpccDb};
use pushtap_pim::{MemSystem, PimOpKind, Ps, Side, SystemConfig};

/// Ideal query-time model: compact columns, no consistency work, but the
/// same §6.3 CPU coordination (group-index shuffles, hash partitioning,
/// partial-result collection) that every PIM query execution pays.
#[derive(Debug, Clone)]
pub struct IdealModel {
    engine: ScanEngine,
    cpu: pushtap_pim::CpuSpec,
}

impl IdealModel {
    /// Builds the model for a system configuration and control
    /// architecture matching the compared systems.
    pub fn new(arch: pushtap_pim::ControlArch, cfg: &SystemConfig) -> IdealModel {
        IdealModel {
            engine: ScanEngine::new(arch, cfg),
            cpu: cfg.cpu,
        }
    }

    /// CPU-mediated inter-bank transfer of `bytes` (read + write streams).
    fn transfer(&self, mem: &mut MemSystem, bytes: u64, at: Ps) -> Ps {
        if bytes == 0 {
            return at;
        }
        let bursts = bytes.div_ceil(64);
        let mid = mem.stream_sampled(
            Side::Pim,
            pushtap_pim::BankAddr::new(0, 0, 0),
            0,
            bursts,
            16,
            pushtap_pim::Op::Read,
            64,
            at,
        );
        mem.stream_sampled(
            Side::Pim,
            pushtap_pim::BankAddr::new(1, 0, 1),
            0,
            bursts,
            16,
            pushtap_pim::Op::Write,
            64,
            mid,
        )
    }

    /// The underlying scan engine.
    pub fn engine(&self) -> &ScanEngine {
        &self.engine
    }

    /// Time to scan a perfectly-compact column of `rows` × `width` bytes.
    pub fn column_scan(
        &self,
        rows: u64,
        width: u32,
        op: PimOpKind,
        mem: &mut MemSystem,
        at: Ps,
    ) -> Ps {
        let total = self.engine.unit().round_to_wire(rows * width as u64);
        let per_unit = total.div_ceil(self.engine.units());
        self.engine
            .timed_phases(op, per_unit.max(8), total.max(8), 1.0, mem, at)
            .end
    }

    /// Ideal execution time of one of the three evaluation queries over a
    /// population scaled by `scale` (columns compact, CPU coordination
    /// identical to the real engine's task division).
    pub fn query_time(&self, query: Query, scale: f64, mem: &mut MemSystem, at: Ps) -> Ps {
        let ol = Table::OrderLine.rows_at_scale(scale);
        let it = Table::Item.rows_at_scale(scale);
        let units = self.engine.units();
        match query {
            Query::Q6 => {
                let mut t = self.column_scan(ol, 8, PimOpKind::Filter, mem, at);
                t = self.column_scan(ol, 2, PimOpKind::Filter, mem, t);
                t = self.column_scan(ol, 8, PimOpKind::Aggregate, mem, t);
                self.transfer(mem, units * 8, t) + self.cpu.cycles(units * 4)
            }
            Query::Q1 => {
                let mut t = self.column_scan(ol, 8, PimOpKind::Filter, mem, at);
                t = self.column_scan(ol, 1, PimOpKind::Group, mem, t);
                // Group-index shuffle: one index byte per row (§6.3).
                t = self.transfer(mem, ol, t);
                t = self.column_scan(ol, 2, PimOpKind::Aggregate, mem, t);
                t = self.column_scan(ol, 8, PimOpKind::Aggregate, mem, t);
                self.transfer(mem, units * 16 * 3, t) + self.cpu.cycles(units * 16 * 4)
            }
            Query::Q9 => {
                let mut t = self.column_scan(it, 4, PimOpKind::Hash, mem, at);
                t = self.column_scan(ol, 4, PimOpKind::Hash, mem, t);
                // Hash fetch + bucket partition + transfer back (§6.3).
                t = self.transfer(mem, 2 * (it + ol) * 4, t);
                t += self.cpu.cycles((it + ol) * 6);
                t = self.column_scan(it + ol, 4, PimOpKind::Join, mem, t);
                t = self.column_scan(ol, 8, PimOpKind::Aggregate, mem, t);
                self.transfer(mem, units * 7 * 8, t) + self.cpu.cycles(units * 7 * 4)
            }
        }
    }
}

/// The multi-instance baseline.
#[derive(Debug)]
pub struct MultiInstance {
    /// The OLTP row-store instance, resident in host memory.
    pub row_db: TpccDb,
    mem: MemSystem,
    ideal: IdealModel,
    scale: f64,
    /// Transactions committed since the last rebuild.
    staleness: u64,
    /// Version bytes whose chains were garbage-collected internally since
    /// the last rebuild (still owed to the column instance).
    pending_bytes: f64,
    now: Ps,
    /// Rebuild throughput modifier: 1.0 for the DIMM software path; the
    /// HBM variant's dedicated rebuild accelerator divides the rebuild
    /// cost (estimated from [6]'s relative numbers, §7.3).
    rebuild_speedup: f64,
}

impl MultiInstance {
    /// Builds the MI system: row instance in host memory (row-store
    /// format), column instance modelled as ideal compact columns.
    ///
    /// # Errors
    ///
    /// Propagates layout errors from the row instance build.
    pub fn new(
        mut db_cfg: DbConfig,
        system: SystemConfig,
        rebuild_speedup: f64,
    ) -> Result<MultiInstance, pushtap_format::LayoutError> {
        db_cfg.side = Side::Host;
        db_cfg.format = DbFormat::RowStore;
        let mem = MemSystem::new(system);
        let row_db = TpccDb::build(&db_cfg, &mem)?;
        Ok(MultiInstance {
            ideal: IdealModel::new(pushtap_pim::ControlArch::Pushtap, &system),
            scale: db_cfg.scale,
            row_db,
            mem,
            staleness: 0,
            pending_bytes: 0.0,
            now: Ps::ZERO,
            rebuild_speedup,
        })
    }

    /// The simulated clock.
    pub fn now(&self) -> Ps {
        self.now
    }

    fn live_version_bytes(&self) -> f64 {
        pushtap_chbench::ALL_TABLES
            .into_iter()
            .map(|t| {
                let table = self.row_db.table(t);
                table.live_delta_rows() as f64 * (table.layout().schema().row_width() as f64 + 16.0)
            })
            .sum()
    }

    /// Executes one transaction on the row instance.
    pub fn execute_txn(&mut self, txn: &pushtap_chbench::Txn) -> Ps {
        // The row instance periodically garbage-collects its own chains;
        // model by clearing when arenas fill. GC-ed versions are still
        // owed to the column instance, so their bytes stay pending.
        let ts = self.row_db.ts_oracle().allocate();
        match self.row_db.execute_at(txn, ts, &mut self.mem, self.now) {
            Ok(r) => {
                self.now = r.end;
            }
            Err(_) => {
                self.pending_bytes += self.live_version_bytes();
                let upto = self.row_db.last_ts();
                for t in pushtap_chbench::ALL_TABLES {
                    let model = pushtap_mvcc::DefragCostModel::new(16.0, 1e9, 3e9);
                    self.row_db.table_mut(t).defragment(
                        &model,
                        pushtap_mvcc::DefragStrategy::Cpu,
                        upto,
                    );
                }
                let r = self
                    .row_db
                    .execute_at(txn, ts, &mut self.mem, self.now)
                    .expect("retry after GC");
                self.now = r.end;
            }
        }
        self.staleness += 1;
        self.now
    }

    /// Rebuild cost for the current staleness: ship every new-versioned
    /// row plus metadata over the bus, then merge on the PIM units
    /// (§7.3: "CPUs transfer all the new-versioned rows and corresponding
    /// metadata to DRAM banks, after which PIM units merge the metadata
    /// and copy the new-versioned data"). Computed from the row
    /// instance's actual delta state.
    pub fn rebuild_time(&self) -> Ps {
        let cfg = self.mem.cfg();
        let bytes = self.pending_bytes + self.live_version_bytes();
        // Log shipping plus row writes are scattered-row transfers; same
        // effective-bandwidth derating as defragmentation.
        let bus = cfg.cpu_peak_bw() * 0.35;
        let pim = cfg.pim_peak_bw() * 0.25;
        let seconds = 2.0 * bytes / bus + bytes / pim;
        Ps::new((seconds * 1e12 / self.rebuild_speedup).round() as u64) + Ps::from_us(30.0)
    }

    /// Runs a query: rebuild first (data freshness), then ideal scans on
    /// the column instance. Returns (total, rebuild) durations. The
    /// rebuild consumes the row instance's log: its chains merge into the
    /// main storage.
    pub fn run_query(&mut self, query: Query) -> (Ps, Ps) {
        let rebuild = self.rebuild_time();
        self.staleness = 0;
        self.pending_bytes = 0.0;
        let ts = self.row_db.last_ts();
        let gc = pushtap_mvcc::DefragCostModel::new(16.0, 1e9, 3e9);
        for t in pushtap_chbench::ALL_TABLES {
            if self.row_db.table(t).chains().updated_row_count() > 0 {
                self.row_db
                    .table_mut(t)
                    .defragment(&gc, pushtap_mvcc::DefragStrategy::Cpu, ts);
            }
        }
        let start = self.now + rebuild;
        let end = self
            .ideal
            .query_time(query, self.scale, &mut self.mem, start);
        self.now = end;
        (end.saturating_sub(start) + rebuild, rebuild)
    }

    /// Transactions committed since the last rebuild.
    pub fn staleness(&self) -> u64 {
        self.staleness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_pim::ControlArch;

    #[test]
    fn ideal_scales_with_rows_and_query_weight() {
        let cfg = SystemConfig::dimm();
        let ideal = IdealModel::new(ControlArch::Pushtap, &cfg);
        let mut mem = MemSystem::new(cfg);
        let q6_small = ideal.query_time(Query::Q6, 0.001, &mut mem, Ps::ZERO);
        let mut mem2 = MemSystem::new(cfg);
        let q6_big = ideal.query_time(Query::Q6, 0.01, &mut mem2, Ps::ZERO);
        assert!(q6_big > q6_small);
        // Q9 (join-heavy) costs more than Q6 (selection-heavy).
        let mut mem3 = MemSystem::new(cfg);
        let q9 = ideal.query_time(Query::Q9, 0.001, &mut mem3, Ps::ZERO);
        assert!(q9 > q6_small);
    }

    /// Version bytes `txns` transactions leave owed to the column
    /// instance, at the mix average (≈15 versions × ≈150 B each).
    fn owed_bytes(txns: u64) -> f64 {
        txns as f64 * 15.0 * 150.0
    }

    #[test]
    fn rebuild_grows_with_staleness() {
        let mut mi = MultiInstance::new(DbConfig::small(), SystemConfig::dimm(), 1.0).unwrap();
        let r0 = mi.rebuild_time();
        mi.pending_bytes += owed_bytes(100_000);
        let r1 = mi.rebuild_time();
        assert!(r1 > r0 * 10);
        // Rebuild settles what was owed.
        let (_, rebuild) = mi.run_query(Query::Q6);
        assert_eq!(rebuild, r1);
        assert_eq!(mi.staleness(), 0);
        assert_eq!(mi.rebuild_time(), r0);
    }

    #[test]
    fn hbm_accelerator_cuts_rebuild() {
        let mut slow = MultiInstance::new(DbConfig::small(), SystemConfig::dimm(), 1.0).unwrap();
        let mut fast = MultiInstance::new(DbConfig::small(), SystemConfig::hbm(), 4.1).unwrap();
        slow.pending_bytes += owed_bytes(1_000_000);
        fast.pending_bytes += owed_bytes(1_000_000);
        assert!(fast.rebuild_time() < slow.rebuild_time());
    }

    #[test]
    fn mi_transactions_run_on_host_side() {
        let mut mi = MultiInstance::new(DbConfig::small(), SystemConfig::dimm(), 1.0).unwrap();
        let mut gen = pushtap_chbench::TxnGen::new(
            2,
            mi.row_db.table(Table::Warehouse).n_rows(),
            mi.row_db.table(Table::Customer).n_rows(),
            mi.row_db.table(Table::Item).n_rows(),
            mi.row_db.table(Table::Stock).n_rows(),
        );
        let t0 = mi.now();
        for txn in gen.batch(20) {
            mi.execute_txn(&txn);
        }
        assert!(mi.now() > t0);
        assert_eq!(mi.staleness(), 20);
    }
}
