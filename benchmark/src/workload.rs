//! What one repetition of a workload produces: host times of its
//! timed segments, and a [`Tally`] of everything the public reports
//! said — from which the simulated end-to-end metrics and the
//! per-layer counts are derived, the same way for every workload (a
//! layer a workload bypasses simply tallies nothing and reads 0).

use std::sync::Arc;

use pushtap_core::{OltpReport, Pushtap, QueryReport};
use pushtap_olap::{Query, QueryResult, QueryTiming};
use pushtap_pim::Ps;
use pushtap_shard::{OpenLoopReport, ShardOltpReport, ShardQueryReport, ShardedHtap};
use pushtap_trace::MemSink;

use crate::metrics::Workload;
use crate::spans::{Recorder, Timed};
use crate::stats;

/// What a timed segment did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Transactions (ops = transactions committed).
    Txn,
    /// Analytical queries (ops = queries answered).
    Query,
    /// Checkpoint or recovery (ops = 1).
    Maint,
}

/// One timed segment of a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub kind: SegKind,
    pub ops: u64,
    pub timed: Timed,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub passed: bool,
}

/// One rung of the open-loop ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate_tps: f64,
    pub arrivals: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub sojourn_p50: u64,
    pub sojourn_p99: u64,
    pub goodput_tps: f64,
    pub depth_mean: u64,
    pub depth_max: u64,
    pub queue_wait_p99: u64,
}

impl Rung {
    /// The service-level objective of the ladder: p99 sojourn within
    /// the limit and not one arrival turned away.
    pub fn meets_slo(&self) -> bool {
        self.rejected == 0 && self.sojourn_p99 <= SLO_SOJOURN_P99.ps()
    }
}

/// p99 sojourn a rung may show and still meet the objective.
pub const SLO_SOJOURN_P99: Ps = Ps::new(250_000_000); // 250 µs simulated

/// Everything the public reports of one repetition said.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Transactions submitted (closed loop) or arrivals offered (open).
    pub offered: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Every engine report of the repetition merged (shards and
    /// segments alike).
    pub oltp: OltpReport,
    /// Simulated time the transaction segments took: engine total time,
    /// or the slowest shard's for a sharded batch.
    pub sim_txn_time: Ps,
    /// Engine clocks summed over engines when the timed part ended.
    pub sim_clock_sum: Ps,
    /// The slowest engine clock of each deployment, summed over the
    /// deployments a repetition used.
    pub sim_run: Ps,
    /// Garbage gauges after the last transaction segment.
    pub live_versions: u64,
    pub commit_log_len: u64,
    /// Simulated total of each query answered, in order.
    pub query_totals: Vec<u64>,
    /// Query timing parts summed over queries (and shards).
    pub query_timing: QueryTiming,
    pub query_consistency: Ps,
    /// Per-engine query totals summed: the denominator of the shares.
    pub query_engine_time: Ps,
    /// Queries whose result failed its check.
    pub queries_failed: u64,
    /// Memory-system counters summed over engines.
    pub cpu_fetched: u64,
    pub cpu_useful: u64,
    pub pim_loaded: u64,
    pub pim_useful: u64,
    pub row_hits: u64,
    pub row_accesses: u64,
    /// Sharded batches only.
    pub routed: u64,
    pub cross_shard_txns: u64,
    pub waves: u64,
    pub max_wave: u64,
    pub overlapped_two_pcs: u64,
    pub decision_forces: u64,
    pub shard_busy: Ps,
    pub shard_makespan: Ps,
    pub checkpoint_bytes_reclaimed: u64,
    /// Open loop only.
    pub rungs: Vec<Rung>,
    /// Q6 revenue of the final state: the repetition's fingerprint.
    pub final_q6: u64,
}

/// `num / den`, or 0 when nothing was measured.
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ps_share(num: Ps, den: Ps) -> f64 {
    share(num.ps() as f64, den.ps() as f64)
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

impl Tally {
    /// Folds one single-engine transaction segment in.
    pub fn absorb_engine_txns(&mut self, offered: u64, report: &OltpReport) {
        self.offered += offered;
        self.committed += report.committed;
        self.sim_txn_time += report.total_time();
        self.live_versions = report.gc.live_versions;
        self.commit_log_len = report.gc.commit_log_len;
        self.oltp.merge(report);
    }

    /// Folds one sharded batch in.
    pub fn absorb_shard_txns(&mut self, offered: u64, report: &ShardOltpReport) {
        self.offered += offered;
        self.committed += report.committed();
        self.sim_txn_time += report.makespan();
        self.shard_makespan += report.makespan();
        let gc = report.gc();
        self.live_versions = gc.live_versions;
        self.commit_log_len = gc.commit_log_len;
        for load in &report.per_shard {
            self.oltp.merge(&load.report);
            self.shard_busy += load.elapsed;
        }
        self.routed += report.remote.routed;
        self.cross_shard_txns += report.remote.cross_shard_txns;
        self.waves += report.coord.waves;
        self.max_wave = self.max_wave.max(report.coord.max_wave);
        self.overlapped_two_pcs += report.coord.overlapped_two_pcs;
        self.decision_forces += report.coord.decision_forces;
    }

    /// Folds one rung of the open-loop ladder in.
    pub fn absorb_rung(&mut self, rate_tps: f64, report: &OpenLoopReport) {
        self.absorb_shard_txns(report.arrivals, &report.exec);
        self.rungs.push(Rung {
            rate_tps,
            arrivals: report.arrivals,
            admitted: report.admitted(),
            rejected: report.rejected(),
            sojourn_p50: report.sojourn_quantile(0.50),
            sojourn_p99: report.sojourn_quantile(0.99),
            goodput_tps: report.throughput_tps(),
            depth_mean: report.inbox_depth.mean(),
            depth_max: report.inbox_depth.max(),
            queue_wait_p99: report.exec.queue_wait().quantile(0.99),
        });
    }

    fn absorb_query_parts(&mut self, part: &QueryReport) {
        self.query_timing.pim_load += part.timing.pim_load;
        self.query_timing.pim_compute += part.timing.pim_compute;
        self.query_timing.cpu_compute += part.timing.cpu_compute;
        self.query_timing.control += part.timing.control;
        self.query_timing.cpu_blocked += part.timing.cpu_blocked;
        self.query_consistency += part.consistency;
        self.query_engine_time += part.total();
    }

    /// Folds one single-engine query in.
    pub fn absorb_engine_query(&mut self, report: &QueryReport) {
        self.query_totals.push(report.total().ps());
        self.absorb_query_parts(report);
    }

    /// Folds one scatter-gather query in.
    pub fn absorb_shard_query(&mut self, report: &ShardQueryReport) {
        self.query_totals.push(report.total().ps());
        for part in &report.per_shard {
            self.absorb_query_parts(part);
        }
    }

    /// Samples one engine's clock and memory-system counters when the
    /// timed part of its deployment ends.
    pub fn absorb_engine_end(&mut self, engine: &Pushtap) {
        self.sim_clock_sum += engine.now();
        let mem = engine.mem();
        let s = mem.stats();
        self.cpu_fetched += s.cpu_fetched;
        self.cpu_useful += s.cpu_useful;
        self.pim_loaded += s.pim_loaded;
        self.pim_useful += s.pim_useful;
        for ch in 0..mem.cfg().pim_geometry.channels {
            let c = mem.pim_channel_stats(ch);
            self.row_hits += c.hits;
            self.row_accesses += c.accesses();
        }
    }

    /// Samples a whole deployment when its timed part ends.
    pub fn absorb_deployment_end(&mut self, service: &ShardedHtap) {
        for shard in service.shards() {
            self.absorb_engine_end(shard);
        }
        self.sim_run += slowest_clock(service);
    }

    /// Arrivals turned away on any rung.
    pub fn rejected(&self) -> u64 {
        self.rungs.iter().map(|r| r.rejected).sum()
    }

    /// The rung every workload-level sojourn figure is quoted at.
    pub fn reference_rung(&self) -> Option<&Rung> {
        self.rungs.iter().find(|r| r.rate_tps == REFERENCE_RATE_TPS)
    }

    /// Highest ladder rate meeting the objective with every lower rung
    /// meeting it too (0 if the lowest rung already misses).
    pub fn max_rate_tps(&self) -> f64 {
        self.rungs
            .iter()
            .take_while(|r| r.meets_slo())
            .last()
            .map_or(0.0, |r| r.rate_tps)
    }

    /// Operations attempted and operations failed, for `failed_share`:
    /// transactions not committed, arrivals turned away on any rung,
    /// queries and checks that failed.
    pub fn attempted_failed(&self, checks: &[Check]) -> (u64, u64) {
        let attempted = self.offered + self.query_totals.len() as u64 + checks.len() as u64;
        let failed = self.offered.saturating_sub(self.committed)
            + self.queries_failed
            + checks.iter().filter(|c| !c.passed).count() as u64;
        (attempted, failed)
    }

    /// Arrivals turned away on rungs above the reference rate: the
    /// overload the ladder offers on purpose, where refusing arrivals
    /// is the measurement (the rung misses its objective), not a
    /// failed operation.
    pub fn overload_rejections(&self) -> u64 {
        self.rungs
            .iter()
            .filter(|r| r.rate_tps > REFERENCE_RATE_TPS)
            .map(|r| r.rejected)
            .sum()
    }

    /// The simulated (and counted) end-to-end metrics, by name. The
    /// caller keeps those the workload declares.
    pub fn end_to_end(&self, checks: &[Check]) -> Vec<(&'static str, f64)> {
        let mut sorted = self.query_totals.clone();
        sorted.sort_unstable();
        let (attempted, failed) = self.attempted_failed(checks);
        let sim_txn_per_s = match self.rungs.last() {
            // Open loop: goodput under the heaviest offered load, i.e.
            // the capacity.
            Some(top) => top.goodput_tps,
            None => share(self.committed as f64, self.sim_txn_time.as_secs()),
        };
        let rung = self.reference_rung();
        vec![
            ("sim_txn_per_s", sim_txn_per_s),
            ("sim_commit_mean_us", us(self.oltp.commit_latency.mean())),
            (
                "sim_commit_p50_us",
                us(self.oltp.commit_latency.quantile(0.50)),
            ),
            (
                "sim_commit_p99_us",
                us(self.oltp.commit_latency.quantile(0.99)),
            ),
            ("sim_run_ms", self.sim_run.as_ms()),
            ("sim_query_p50_us", us(stats::percentile(&sorted, 500))),
            ("sim_query_p90_us", us(stats::percentile(&sorted, 900))),
            (
                "sim_cpu_blocked_share",
                ps_share(self.query_timing.cpu_blocked, self.sim_clock_sum),
            ),
            (
                "sim_sojourn_p50_us",
                rung.map_or(0.0, |r| us(r.sojourn_p50)),
            ),
            (
                "sim_sojourn_p99_us",
                rung.map_or(0.0, |r| us(r.sojourn_p99)),
            ),
            ("sim_max_rate_tps", self.max_rate_tps()),
            ("failed_share", share(failed as f64, attempted as f64)),
        ]
    }

    /// The per-layer counts and shares the reports give, by name.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let o = &self.oltp;
        let committed = self.committed as f64;
        let queries = self.query_totals.len() as f64;
        // Everything that landed on an engine clock during transaction
        // segments: transaction time, maintenance pauses, 2PC rounds
        // and log forces.
        let engine_time = o.total_time() + o.critical_path_time;
        let breakdown = o.breakdown.total();
        let q = &self.query_timing;
        let qt = self.query_engine_time;
        let rung = self.reference_rung();
        let mut sorted = self.query_totals.clone();
        sorted.sort_unstable();
        vec![
            (
                "pim.cpu_effective_bw",
                share(self.cpu_useful as f64, self.cpu_fetched as f64),
            ),
            (
                "pim.pim_effective_bw",
                share(self.pim_useful as f64, self.pim_loaded as f64),
            ),
            (
                "pim.row_hit_rate",
                share(self.row_hits as f64, self.row_accesses as f64),
            ),
            ("mvcc.live_versions", self.live_versions as f64),
            ("mvcc.commit_log_len", self.commit_log_len as f64),
            ("mvcc.gc.versions_reclaimed", o.gc.versions_reclaimed as f64),
            ("mvcc.gc.sim_share", ps_share(o.gc_time, engine_time)),
            (
                "mvcc.defrag.sim_share",
                ps_share(o.defrag_time, engine_time),
            ),
            ("mvcc.aborts", o.aborts as f64),
            (
                "mvcc.wasted_retry.sim_share",
                ps_share(o.wasted_retry_time, engine_time),
            ),
            (
                "oltp.sim_share.memory",
                ps_share(o.breakdown.memory, breakdown),
            ),
            (
                "oltp.sim_share.indexing",
                ps_share(o.breakdown.indexing, breakdown),
            ),
            (
                "oltp.sim_share.alloc",
                ps_share(o.breakdown.alloc, breakdown),
            ),
            (
                "oltp.sim_share.compute",
                ps_share(o.breakdown.compute, breakdown),
            ),
            (
                "oltp.sim_share.chain",
                ps_share(o.breakdown.chain, breakdown),
            ),
            ("olap.pim_load.sim_share", ps_share(q.pim_load, qt)),
            ("olap.pim_compute.sim_share", ps_share(q.pim_compute, qt)),
            ("olap.cpu_compute.sim_share", ps_share(q.cpu_compute, qt)),
            ("olap.control.sim_share", ps_share(q.control, qt)),
            (
                "olap.consistency.sim_share",
                ps_share(self.query_consistency, qt),
            ),
            (
                "olap.cpu_blocked.sim_us_per_query",
                share(q.cpu_blocked.as_us(), queries),
            ),
            (
                "olap.cpu_blocked.sim_share",
                ps_share(q.cpu_blocked, self.sim_clock_sum),
            ),
            ("olap.query.sim_p50_us", us(stats::percentile(&sorted, 500))),
            ("olap.query.sim_p90_us", us(stats::percentile(&sorted, 900))),
            // What the Breakdown does not attribute of the time the
            // engines report: the baseline for a per-layer ledger.
            (
                "core.sim_unattributed_share",
                share(
                    o.total_time().ps() as f64
                        - (breakdown + o.defrag_time + o.gc_time).ps() as f64,
                    o.total_time().ps() as f64,
                ),
            ),
            (
                "wal.appends_per_txn",
                share(o.wal_appends as f64, committed),
            ),
            ("wal.bytes_per_txn", share(o.wal_bytes as f64, committed)),
            (
                "wal.fsync_per_txn",
                share((o.wal_forces + self.decision_forces) as f64, committed),
            ),
            (
                "wal.force.sim_share",
                ps_share(o.wal_force_time, engine_time),
            ),
            (
                "wal.checkpoint.bytes_reclaimed",
                self.checkpoint_bytes_reclaimed as f64,
            ),
            ("shard.coordinator.waves", self.waves as f64),
            (
                "shard.coordinator.txns_per_wave",
                share(self.routed as f64, self.waves as f64),
            ),
            ("shard.coordinator.max_wave", self.max_wave as f64),
            (
                "shard.coordinator.overlap_ratio",
                share(self.overlapped_two_pcs as f64, self.cross_shard_txns as f64),
            ),
            (
                "shard.coordinator.two_pc.sim_share",
                ps_share(
                    o.critical_path_time.saturating_sub(o.wal_force_time),
                    self.shard_busy,
                ),
            ),
            (
                "shard.coordinator.cross_shard_fraction",
                share(self.cross_shard_txns as f64, self.routed as f64),
            ),
            (
                "shard.coordinator.participant_aborts",
                o.participant_aborts as f64,
            ),
            (
                "shard.coordinator.parallel_efficiency",
                ps_share(self.shard_busy, self.shard_makespan),
            ),
            (
                "shard.open.queue_depth_mean",
                rung.map_or(0.0, |r| r.depth_mean as f64),
            ),
            (
                "shard.open.queue_depth_max",
                rung.map_or(0.0, |r| r.depth_max as f64),
            ),
            (
                "shard.open.queue_wait_p99_us",
                rung.map_or(0.0, |r| us(r.queue_wait_p99)),
            ),
            ("shard.open.rejected", self.rejected() as f64),
            (
                "shard.open.sojourn_p50_us",
                rung.map_or(0.0, |r| us(r.sojourn_p50)),
            ),
            (
                "shard.open.sojourn_p99_us",
                rung.map_or(0.0, |r| us(r.sojourn_p99)),
            ),
            ("shard.open.max_rate_tps", self.max_rate_tps()),
        ]
    }
}

/// How far a deployment's simulated time has come: its slowest shard's
/// clock.
pub fn slowest_clock(service: &ShardedHtap) -> Ps {
    service
        .shards()
        .iter()
        .map(Pushtap::now)
        .max()
        .unwrap_or(Ps::ZERO)
}

/// The rate the open-loop sojourn and queue figures are quoted at.
pub const REFERENCE_RATE_TPS: f64 = 140_000.0;

/// One repetition: fresh deployment, bit-identical work.
#[derive(Debug, Clone, Default)]
pub struct Repetition {
    /// Host time to build the deployment(s) and load the database, in
    /// reference nanoseconds.
    pub setup_ns: f64,
    pub segments: Vec<Segment>,
    pub tally: Tally,
    /// `VmHWM` of this process when the timed part ended, before any
    /// check built a reference deployment. (The high-water mark never
    /// falls, so only the first repetition's reading is a repetition's
    /// own peak.)
    pub rss_hwm_kb: u64,
    /// Output checks (only when the repetition was asked to check).
    pub checks: Vec<Check>,
}

/// How a repetition is to be run.
#[derive(Debug, Clone)]
pub struct RepConfig {
    pub seed: u64,
    /// One-tenth sizes, for smoke use.
    pub quick: bool,
    /// Run the output checks after the timed part.
    pub check: bool,
    /// Attach this sink to every deployment (the traced repetition).
    pub sink: Option<Arc<MemSink>>,
}

impl RepConfig {
    /// A full size, or a tenth of it when quick.
    pub fn size(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// Q6's revenue, the fingerprint every repetition reports.
pub fn q6_revenue(result: &QueryResult) -> u64 {
    match result {
        QueryResult::Q6 { revenue } => *revenue,
        other => panic!("Q6 answered with {other:?}"),
    }
}

/// The query round `k` of a workload asks: Q1, Q6, Q9 in turn.
pub fn query_of_round(k: u64) -> Query {
    Query::ALL[(k % 3) as usize]
}

/// `VmHWM` (peak resident set) of this process in kB, 0 where
/// `/proc/self/status` has no such line.
pub fn rss_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs one repetition of `workload`.
pub fn run(workload: Workload, cfg: &RepConfig, rec: &mut Recorder<'_>) -> Repetition {
    match workload {
        Workload::EngineOltp => crate::workloads::engine_oltp(cfg, rec),
        Workload::EngineHtap => crate::workloads::engine_htap(cfg, rec),
        Workload::ShardDurable => crate::workloads::shard_durable(cfg, rec),
        Workload::ShardOpen => crate::workloads::shard_open(cfg, rec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate_tps: f64, rejected: u64, p99_us: u64) -> Rung {
        Rung {
            rate_tps,
            arrivals: 100,
            admitted: 100 - rejected,
            rejected,
            sojourn_p50: 1,
            sojourn_p99: p99_us * 1_000_000,
            goodput_tps: rate_tps,
            depth_mean: 1,
            depth_max: 2,
            queue_wait_p99: 3,
        }
    }

    #[test]
    fn max_rate_needs_every_lower_rung_to_meet_the_objective() {
        let mut t = Tally {
            rungs: vec![rung(60e3, 0, 10), rung(100e3, 0, 300), rung(120e3, 0, 20)],
            ..Tally::default()
        };
        // 120k meets the limit, but 100k below it does not.
        assert_eq!(t.max_rate_tps(), 60e3);
        t.rungs[1] = rung(100e3, 0, 250);
        assert_eq!(t.max_rate_tps(), 120e3);
        t.rungs[0] = rung(60e3, 1, 10);
        assert_eq!(t.max_rate_tps(), 0.0, "a rejection misses the objective");
    }

    /// A deliberately wrong query result must show up in `failed_share`
    /// rather than abort the run.
    #[test]
    fn a_wrong_query_result_raises_failed_share() {
        let mut t = Tally {
            offered: 90,
            committed: 90,
            query_totals: vec![1; 9],
            ..Tally::default()
        };
        let failed_share = |t: &Tally, checks: &[Check]| {
            t.end_to_end(checks)
                .into_iter()
                .find(|(n, _)| *n == "failed_share")
                .map(|(_, v)| v)
                .expect("emitted")
        };
        let good = Check {
            what: "final Q6 equals ref_q6".into(),
            passed: true,
        };
        assert_eq!(failed_share(&t, std::slice::from_ref(&good)), 0.0);
        let live = QueryResult::Q6 { revenue: 41 };
        let reference = QueryResult::Q6 { revenue: 42 };
        let bad = Check {
            what: "final Q6 equals ref_q6".into(),
            passed: live == reference,
        };
        assert_eq!(failed_share(&t, &[bad]), 1.0 / 100.0);
        t.queries_failed = 2;
        t.committed = 89;
        assert_eq!(failed_share(&t, &[good]), 3.0 / 100.0);
    }

    #[test]
    fn bypassed_layers_read_zero() {
        let layers = Tally::default().per_layer();
        for (name, v) in layers {
            assert_eq!(v, 0.0, "{name} with nothing tallied");
        }
    }
}
