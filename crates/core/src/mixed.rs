//! Mixed HTAP workload driver (§7.1): transactions and analytical
//! queries interleaved on one simulated timeline, the measurement setup
//! behind the throughput-frontier experiment (Fig. 10).
//!
//! The driver admits transactions in bursts between queries at a
//! configurable ratio, runs the configured defragmentation policy, and
//! reports both throughputs plus isolation diagnostics (how long CPU
//! access was blocked by load phases, how much consistency work queries
//! paid).

use pushtap_chbench::TxnGen;
use pushtap_olap::Query;
use pushtap_pim::Ps;

use crate::metrics::{qphh, tpmc};
use crate::system::Pushtap;

/// Configuration of a mixed run.
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Transactions admitted between consecutive analytical queries.
    pub txns_per_query: u64,
    /// Number of analytical queries to run (cycling Q1 → Q6 → Q9).
    pub queries: u64,
    /// Seed for the transaction stream.
    pub seed: u64,
}

impl Default for MixConfig {
    fn default() -> MixConfig {
        MixConfig {
            txns_per_query: 200,
            queries: 6,
            seed: 42,
        }
    }
}

/// Outcome of a mixed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixReport {
    /// Transactions committed.
    pub txns: u64,
    /// Queries answered.
    pub queries: u64,
    /// Total simulated wall-clock.
    pub elapsed: Ps,
    /// Time inside transactions (excluding defrag pauses).
    pub txn_time: Ps,
    /// Time inside queries (scan + coordination).
    pub query_time: Ps,
    /// Consistency work (snapshots) paid by queries.
    pub consistency_time: Ps,
    /// Defragmentation pauses.
    pub defrag_time: Ps,
    /// CPU-blocked time during PIM load phases.
    pub cpu_blocked: Ps,
    /// Transaction attempts rolled back on delta pressure (`DeltaFull`),
    /// each re-executed atomically after defragmentation.
    pub aborts: u64,
    /// Distinct transactions that needed at least one retry.
    pub retried_txns: u64,
    /// Latency consumed by the rolled-back attempts — included in
    /// [`MixReport::txn_time`] (a retry charges its failed attempt to the
    /// transaction's completion time).
    pub wasted_retry_time: Ps,
}

impl MixReport {
    /// OLTP throughput over the whole run.
    pub fn tpmc(&self, cores: u32) -> f64 {
        tpmc(self.txns, self.elapsed, cores)
    }

    /// OLAP throughput over the whole run.
    pub fn qphh(&self) -> f64 {
        qphh(self.queries, self.elapsed)
    }

    /// Share of wall-clock spent on consistency (freshness tax).
    pub fn consistency_share(&self) -> f64 {
        if self.elapsed == Ps::ZERO {
            0.0
        } else {
            (self.consistency_time + self.defrag_time).ps() as f64 / self.elapsed.ps() as f64
        }
    }
}

/// Runs the mixed workload on `system`.
pub fn run_mixed(system: &mut Pushtap, cfg: MixConfig) -> MixReport {
    let mut gen: TxnGen = system.txn_gen(cfg.seed);
    let mut report = MixReport::default();
    let start = system.now();
    for i in 0..cfg.queries {
        let oltp = system.run_txns(&mut gen, cfg.txns_per_query);
        report.txns += oltp.committed;
        report.txn_time += oltp.txn_time;
        report.defrag_time += oltp.defrag_time;
        report.aborts += oltp.aborts;
        report.retried_txns += oltp.retried_txns;
        report.wasted_retry_time += oltp.wasted_retry_time;

        let query = Query::ALL[(i % 3) as usize];
        let q = system.run_query(query);
        report.queries += 1;
        report.query_time += q.timing.end.saturating_sub(q.consistency);
        report.consistency_time += q.consistency;
        report.cpu_blocked += q.timing.cpu_blocked;
    }
    report.elapsed = system.now() - start;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::PushtapConfig;

    #[test]
    fn mixed_run_accounts_every_component() {
        let mut sys = Pushtap::new(PushtapConfig::small()).unwrap();
        let r = run_mixed(&mut sys, MixConfig::default());
        assert_eq!(r.txns, 1200);
        assert_eq!(r.queries, 6);
        assert!(r.elapsed > Ps::ZERO);
        // Components are all populated and bounded by the total.
        assert!(r.txn_time > Ps::ZERO);
        assert!(r.query_time > Ps::ZERO);
        assert!(r.consistency_time > Ps::ZERO);
        let parts = r.txn_time + r.query_time + r.consistency_time + r.defrag_time;
        assert!(parts <= r.elapsed.scale(1.01), "{parts} > {}", r.elapsed);
        assert!(r.tpmc(16) > 0.0);
        assert!(r.qphh() > 0.0);
        assert!(r.consistency_share() < 0.9);
    }

    /// More transactions per query shift the mix: OLTP throughput holds
    /// while per-query consistency grows (the isolation story of Fig. 10).
    #[test]
    fn heavier_oltp_mix_raises_consistency_per_query() {
        let mut light = Pushtap::new(PushtapConfig::small()).unwrap();
        let mut heavy = Pushtap::new(PushtapConfig::small()).unwrap();
        let l = run_mixed(
            &mut light,
            MixConfig {
                txns_per_query: 50,
                queries: 4,
                seed: 9,
            },
        );
        let h = run_mixed(
            &mut heavy,
            MixConfig {
                txns_per_query: 500,
                queries: 4,
                seed: 9,
            },
        );
        let per_query = |r: &MixReport| r.consistency_time / r.queries;
        assert!(per_query(&h) > per_query(&l));
        // OLTP throughput is not destroyed by queries in either mix.
        assert!(h.tpmc(16) > l.tpmc(16) * 0.5);
    }

    /// Determinism across the whole mixed pipeline.
    #[test]
    fn mixed_run_is_deterministic() {
        let run = || {
            let mut sys = Pushtap::new(PushtapConfig::small()).unwrap();
            let r = run_mixed(&mut sys, MixConfig::default());
            (r.elapsed, r.txn_time, r.consistency_time)
        };
        assert_eq!(run(), run());
    }
}
