//! The *multi-instance* (MI, Polynesia-like) PIM HTAP baseline of §7.3.
//! (§7.3's other baseline, the *ideal* scan model, is
//! `Query::execute_compact` in `pushtap-olap`.)
//!
//! **MI** keeps a row-store instance in host memory for OLTP and a
//! column-store instance in PIM memory for OLAP. Before a query it must
//! *rebuild* the column instance from the transaction log: all
//! new-versioned rows plus their metadata cross the memory bus, then the
//! PIM units merge them (§7.3's adaptation of \[6\] to the DIMM system).

use pushtap_olap::{Query, ScanEngine};
use pushtap_oltp::{DbConfig, DbFormat, TpccDb};
use pushtap_pim::calib::{MI_HBM_REBUILD_SPEEDUP, MI_REBUILD_FIXED_OVERHEAD, VERSION_META_BYTES};
use pushtap_pim::{ControlArch, MemKind, MemSystem, Ps, Side, SystemConfig};

use crate::system::scattered_copy_model;

/// The multi-instance baseline.
#[derive(Debug)]
pub struct MultiInstance {
    /// The OLTP row-store instance, resident in host memory.
    pub row_db: TpccDb,
    mem: MemSystem,
    /// Scans the column instance's compact columns.
    engine: ScanEngine,
    scale: f64,
    /// Transactions committed since the last rebuild.
    staleness: u64,
    /// Version bytes whose chains were garbage-collected internally since
    /// the last rebuild (still owed to the column instance).
    pending_bytes: f64,
    now: Ps,
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
    ) -> Result<MultiInstance, pushtap_format::LayoutError> {
        db_cfg.side = Side::Host;
        db_cfg.format = DbFormat::RowStore;
        let mem = MemSystem::new(system);
        let row_db = TpccDb::build(&db_cfg, &mem)?;
        Ok(MultiInstance {
            engine: ScanEngine::new(ControlArch::Pushtap, &system),
            scale: db_cfg.scale,
            row_db,
            mem,
            staleness: 0,
            pending_bytes: 0.0,
            now: Ps::ZERO,
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
                let version = table.layout().schema().row_width() as f64 + VERSION_META_BYTES;
                table.live_delta_rows() as f64 * version
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
                self.fold_row_chains();
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
    /// instance's actual delta state. The HBM system's dedicated rebuild
    /// accelerator divides the cost by [`MI_HBM_REBUILD_SPEEDUP`].
    pub fn rebuild_time(&self) -> Ps {
        let cfg = self.mem.cfg();
        let bytes = self.pending_bytes + self.live_version_bytes();
        // Log shipping plus row writes are scattered-row transfers, priced
        // at defragmentation's derated bandwidths.
        let copy = scattered_copy_model(cfg);
        let seconds = 2.0 * bytes / copy.cpu_bw + bytes / copy.pim_bw;
        let speedup = match cfg.kind {
            MemKind::Dimm => 1.0,
            MemKind::Hbm => MI_HBM_REBUILD_SPEEDUP,
        };
        Ps::new((seconds * 1e12 / speedup).round() as u64) + MI_REBUILD_FIXED_OVERHEAD
    }

    /// Runs a query: rebuild first (data freshness), then ideal scans on
    /// the column instance. Returns (total, rebuild) durations. The
    /// rebuild consumes the row instance's log: its chains merge into the
    /// main storage.
    pub fn run_query(&mut self, query: Query) -> (Ps, Ps) {
        let rebuild = self.rebuild_time();
        self.staleness = 0;
        self.pending_bytes = 0.0;
        self.fold_row_chains();
        let start = self.now + rebuild;
        let end = query
            .execute_compact(self.scale, &self.engine, &mut self.mem, start)
            .end;
        self.now = end;
        (end.saturating_sub(start) + rebuild, rebuild)
    }

    /// Folds the row instance's version chains into its main storage
    /// (unpriced: the rebuild prices the column side).
    fn fold_row_chains(&mut self) {
        self.row_db.defragment();
    }

    /// Transactions committed since the last rebuild.
    pub fn staleness(&self) -> u64 {
        self.staleness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ideal (compact-column) time of `query` at `scale`, from zero
    /// on a fresh memory system.
    fn ideal(query: Query, scale: f64, cfg: SystemConfig) -> Ps {
        let engine = ScanEngine::new(ControlArch::Pushtap, &cfg);
        let mut mem = MemSystem::new(cfg);
        query
            .execute_compact(scale, &engine, &mut mem, Ps::ZERO)
            .end
    }

    #[test]
    fn ideal_scales_with_rows_and_query_weight() {
        let cfg = SystemConfig::dimm();
        let q6_small = ideal(Query::Q6, 0.001, cfg);
        let q6_big = ideal(Query::Q6, 0.01, cfg);
        assert!(q6_big > q6_small);
        // Q9 (join-heavy) costs more than Q6 (selection-heavy).
        let q9 = ideal(Query::Q9, 0.001, cfg);
        assert!(q9 > q6_small);
    }

    /// Ideal Q1/Q6/Q9 end times, back to back from zero, on DIMM and
    /// HBM at two scales, pinned to the picosecond. Recaptured when the
    /// Q9 join took the engine's rounding (each unit's share of the
    /// hash values rounded to the wire, not the total): the four Q9
    /// entries moved and nothing else.
    #[test]
    fn ideal_query_times_are_pinned() {
        let mut ends = Vec::new();
        for cfg in [SystemConfig::dimm(), SystemConfig::hbm()] {
            let engine = ScanEngine::new(ControlArch::Pushtap, &cfg);
            for scale in [0.001, 0.01] {
                let mut mem = MemSystem::new(cfg);
                let mut at = Ps::ZERO;
                for q in Query::ALL {
                    at = q.execute_compact(scale, &engine, &mut mem, at).end;
                    ends.push(at);
                }
            }
        }
        let pinned: [u64; 12] = [
            // DIMM, scale 0.001 then 0.01: Q1, Q6, Q9.
            29_894_450,
            36_149_200,
            85_065_650,
            73_369_650,
            103_372_400,
            466_364_400,
            // HBM.
            26_368_000,
            32_406_000,
            59_812_000,
            53_271_000,
            83_057_000,
            247_200_500,
        ];
        assert_eq!(ends, pinned.map(Ps::new));
    }

    /// Version bytes `txns` transactions leave owed to the column
    /// instance, at the mix average (≈15 versions × ≈150 B each).
    fn owed_bytes(txns: u64) -> f64 {
        txns as f64 * 15.0 * 150.0
    }

    #[test]
    fn rebuild_grows_with_staleness() {
        let mut mi = MultiInstance::new(DbConfig::small(), SystemConfig::dimm()).unwrap();
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
        let mut slow = MultiInstance::new(DbConfig::small(), SystemConfig::dimm()).unwrap();
        let mut fast = MultiInstance::new(DbConfig::small(), SystemConfig::hbm()).unwrap();
        slow.pending_bytes += owed_bytes(1_000_000);
        fast.pending_bytes += owed_bytes(1_000_000);
        assert!(fast.rebuild_time() < slow.rebuild_time());
    }

    #[test]
    fn mi_transactions_run_on_host_side() {
        let mut mi = MultiInstance::new(DbConfig::small(), SystemConfig::dimm()).unwrap();
        let mut gen = mi.row_db.txn_gen(2);
        let t0 = mi.now();
        for txn in gen.batch(20) {
            mi.execute_txn(&txn);
        }
        assert!(mi.now() > t0);
        assert_eq!(mi.staleness(), 20);
    }
}
