//! Per-shard and aggregate accounting of the sharded service.

use pushtap_core::{tpmc, OltpReport, QueryReport};
use pushtap_mvcc::Ts;
use pushtap_olap::QueryResult;
use pushtap_pim::Ps;
use pushtap_trace::Histogram;

use crate::router::RoutedTxn;

/// Aggregate cross-shard accounting of one routed batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteTouches {
    /// Transactions routed.
    pub routed: u64,
    /// Transactions that touched at least one remote-owned row.
    pub cross_shard_txns: u64,
    /// Individual remote row touches (NewOrder stock lines + Payment
    /// customers owned by other shards).
    pub remote_touches: u64,
}

impl RemoteTouches {
    /// Counts one routed transaction.
    pub(crate) fn add(&mut self, routed: &RoutedTxn) {
        self.routed += 1;
        if routed.remote > 0 {
            self.cross_shard_txns += 1;
            self.remote_touches += routed.remote;
        }
    }

    /// Fraction of transactions that crossed a shard boundary.
    pub fn cross_shard_fraction(&self) -> f64 {
        if self.routed == 0 {
            0.0
        } else {
            self.cross_shard_txns as f64 / self.routed as f64
        }
    }
}

/// One shard's outcome for one batch.
#[derive(Debug, Clone, Default)]
pub struct ShardLoad {
    /// The engine-level OLTP report. Its `committed` counts the
    /// transactions *homed* at this shard (participant work for
    /// transactions homed elsewhere shows up in
    /// [`OltpReport::forwarded_effects`]); its txn time excludes the 2PC
    /// message rounds, whose clock stalls are the
    /// [`OltpReport::two_pc_stall`] samples.
    pub report: OltpReport,
    /// This shard's wall-clock for the batch (txns + defrag + hops).
    pub elapsed: Ps,
}

/// Coordinator-level scheduling statistics of one run: how the stream
/// was cut into waves and how much two-phase-commit overlap the
/// schedule extracted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Waves dispatched.
    pub waves: u64,
    /// Transactions in the largest wave.
    pub max_wave: u64,
    /// Cross-shard two-phase commits that ran concurrently with at
    /// least one other 2PC of the same wave: a wave holding `k ≥ 2` of
    /// them contributes all `k` (each overlapped the others; a wave
    /// casualty retried alone still overlapped on its wave attempt).
    pub overlapped_two_pcs: u64,
    /// `Commit(ts)` entries appended to the coordinator decision log
    /// (one per committed cross-shard transaction; zero with the WAL
    /// off).
    pub decision_appends: u64,
    /// Decision-log force barriers (one per wave, or retry, holding a
    /// committed cross-shard transaction). Charged to no engine clock:
    /// the decision log is coordinator-side state, forced while the
    /// decision round-trip is already in flight.
    pub decision_forces: u64,
    /// Whether an armed crash point fired during the run (the stream
    /// stopped dead at the crash site).
    pub crashed: bool,
}

/// The outcome of one batch across all shards.
#[derive(Debug, Clone)]
pub struct ShardOltpReport {
    /// Per-shard loads, indexed by shard.
    pub per_shard: Vec<ShardLoad>,
    /// Aggregate routing/remote accounting.
    pub remote: RemoteTouches,
    /// Coordinator scheduling statistics (waves, overlap, decision
    /// log).
    pub coord: CoordStats,
}

impl ShardOltpReport {
    /// Every shard's report folded into one by [`OltpReport::merge`],
    /// in shard order: the deployment-wide counters, times and
    /// histograms of the batch. Bind it once and read its fields; each
    /// fact lives in one place, on the shard that produced it.
    pub fn merged(&self) -> OltpReport {
        let mut total = OltpReport::default();
        for s in &self.per_shard {
            total.merge(&s.report);
        }
        total
    }

    /// Transactions committed across all shards (`merged().committed`;
    /// kept because the benchmark calls it, to go with its next change).
    pub fn committed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.report.committed).sum()
    }

    /// The batch's simulated wall-clock: the slowest shard's elapsed
    /// clock (shards run concurrently in simulated time only).
    pub fn makespan(&self) -> Ps {
        self.per_shard
            .iter()
            .map(|s| s.elapsed)
            .max()
            .unwrap_or(Ps::ZERO)
    }

    /// Aggregate transactions-per-minute over the batch makespan,
    /// `cores` driving threads per shard.
    pub fn tpmc(&self, cores: u32) -> f64 {
        tpmc(self.committed(), self.makespan(), cores)
    }

    /// Ratio of the summed per-shard busy time to the makespan — the
    /// parallel speedup actually realised by this batch (≤ shard count;
    /// lower when routing skews load). An empty batch (zero makespan)
    /// realised no speedup and reports 0.0, consistent with how
    /// [`ShardOltpReport::tpmc`] and the time-share accessors degrade on
    /// empty input — it previously claimed a perfect 1.0.
    pub fn parallel_efficiency(&self) -> f64 {
        let makespan = self.makespan();
        if makespan == Ps::ZERO {
            return 0.0;
        }
        let busy: u64 = self.per_shard.iter().map(|s| s.elapsed.ps()).sum();
        busy as f64 / makespan.ps() as f64
    }

    /// Deployment-wide garbage-collection stats: pass counters sum over
    /// every shard's passes; the `live_versions` / `commit_log_len`
    /// gauges sum each shard's end-of-batch sample — the figures the
    /// soak benchmark proves plateau under sustained traffic
    /// (`merged().gc`; kept because the benchmark calls it, to go with
    /// its next change).
    pub fn gc(&self) -> pushtap_core::GcStats {
        let mut total = pushtap_core::GcStats::default();
        for s in &self.per_shard {
            total.merge(&s.report.gc);
        }
        total
    }

    /// Share of the deployment's summed busy time spent on 2PC message
    /// rounds — the commit-round time share of the batch. Computed from
    /// each shard's [`OltpReport::critical_path_time`] (what actually
    /// landed on the clocks) minus the group-commit force time it
    /// includes — forces are durability, not messaging, so a logged but
    /// fully warehouse-local batch reports zero here. The share can
    /// never exceed 1.0 even when the coordinator overlaps many
    /// 2PCs — dividing the sequential ledger by busy time could.
    pub fn two_pc_time_share(&self) -> f64 {
        let busy: u64 = self.per_shard.iter().map(|s| s.elapsed.ps()).sum();
        let rounds: Ps = self
            .per_shard
            .iter()
            .map(|s| {
                s.report
                    .critical_path_time
                    .saturating_sub(s.report.wal_force_time)
            })
            .sum();
        if busy == 0 {
            0.0
        } else {
            rounds.ps() as f64 / busy as f64
        }
    }

    /// Durable syncs per committed transaction: every effect-log force
    /// plus every decision-log force, over the batch's commits. Group
    /// commit's whole point is to push this **below 1.0** — one barrier
    /// amortized across a wave — where naive per-transaction durability
    /// would pay ≥ 1.
    pub fn fsync_per_txn(&self) -> f64 {
        let committed = self.committed();
        let forces: u64 = self.per_shard.iter().map(|s| s.report.wal_forces).sum();
        if committed == 0 {
            0.0
        } else {
            (forces + self.coord.decision_forces) as f64 / committed as f64
        }
    }

    /// Fraction of this batch's cross-shard two-phase commits that ran
    /// concurrently with another 2PC of their wave: the overlap the
    /// wave scheduler extracted (zero when nothing crossed shards).
    pub fn overlap_ratio(&self) -> f64 {
        if self.remote.cross_shard_txns == 0 {
            0.0
        } else {
            self.coord.overlapped_two_pcs as f64 / self.remote.cross_shard_txns as f64
        }
    }

    /// Coordinator-queue wait merged across all shards, one sample per
    /// admitted transaction: how long it sat in its home inbox before
    /// its wave dispatched. Open loop, that is arrival → dispatch;
    /// closed loop, where the whole batch is offered at once, it is the
    /// wait behind the earlier waves of the same batch on the home
    /// shard (measured from the run's start, not the deployment's age).
    /// `merged().queue_wait`; kept because the benchmark calls it, to
    /// go with its next change.
    pub fn queue_wait(&self) -> Histogram {
        let mut h = Histogram::default();
        for s in &self.per_shard {
            h.merge(&s.report.queue_wait);
        }
        h
    }
}

/// The outcome of one scatter-gather analytical query.
#[derive(Debug, Clone)]
pub struct ShardQueryReport {
    /// The merged (global) result — value-identical to a single-instance
    /// execution over the unpartitioned database.
    pub result: QueryResult,
    /// Per-shard partial reports (scatter phase), indexed by shard.
    pub per_shard: Vec<QueryReport>,
    /// Scatter wall-clock: the slowest shard's snapshot + scan.
    pub scatter_latency: Ps,
    /// Coordinator-side gather + merge time.
    pub merge_time: Ps,
    /// The snapshot cut the coordinator agreed on (the shared oracle's
    /// watermark) before scattering: every shard snapshot its slice at
    /// this timestamp. The cut each shard *actually* observed is
    /// recorded per shard in [`QueryReport::cut`] (`per_shard[i].cut`);
    /// [`ShardQueryReport::global_cut`] cross-checks the two.
    pub cut: Ts,
}

impl ShardQueryReport {
    /// End-to-end query latency: scatter (parallel) then merge.
    pub fn total(&self) -> Ps {
        self.scatter_latency + self.merge_time
    }

    /// The single global cut timestamp this query observed, if the cut
    /// every shard actually snapshot at ([`QueryReport::cut`] in
    /// `per_shard`) equals the coordinator's agreed cut — always true
    /// for queries issued through `ShardedHtap::run_query`. `None` if
    /// any shard disagrees (e.g. its forward-only snapshot sat past the
    /// requested cut), so a consumer can never mistake coordinator
    /// *intent* for what the shards observed.
    pub fn global_cut(&self) -> Option<Ts> {
        self.per_shard
            .iter()
            .all(|p| p.cut == self.cut)
            .then_some(self.cut)
    }

    /// Total consistency (snapshotting) time paid across shards.
    pub fn consistency(&self) -> Ps {
        self.per_shard.iter().map(|p| p.consistency).sum()
    }

    /// Partial result rows gathered from the shards.
    pub fn gathered_rows(&self) -> u64 {
        self.per_shard.iter().map(|p| p.result.rows()).sum()
    }
}

/// The outcome of one open-loop run
/// ([`crate::ShardedHtap::run_open_loop`]): the admitted stream's
/// execution report wrapped with the front-end's arrival, admission,
/// and sojourn accounting. Backpressure is first-class here — rejected
/// arrivals are counted per home shard, never silently dropped.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Execution report over the *admitted* stream: per-shard loads,
    /// remote accounting (admitted transactions only), and the
    /// incremental scheduler's wave stats.
    pub exec: ShardOltpReport,
    /// Arrivals offered (admitted + rejected).
    pub arrivals: u64,
    /// Arrivals turned away at a full home-shard inbox, per shard.
    pub rejected_per_shard: Vec<u64>,
    /// Sojourn times — arrival (or the run's start on the home clock,
    /// if later) to home-shard wave completion — one sample per
    /// admitted transaction: the open-loop latency the queueing
    /// front-end exists to measure.
    pub sojourn: Histogram,
    /// Inbox depth sampled after every admission (merged over shards);
    /// its max is the deepest backlog any inbox held.
    pub inbox_depth: Histogram,
    /// The commit timestamp of the first admitted transaction: the
    /// `k`-th admitted one holds `first_ts + k`. Admitted timestamps are
    /// contiguous because rejected arrivals never draw one, which is
    /// what lets a closed-loop reference re-execute exactly the
    /// admitted stream for byte-identity checks.
    pub first_ts: Ts,
    /// Arrival index (position in the generated arrival stream,
    /// rejected arrivals included) of each admitted transaction, in
    /// admission order. Rejected arrivals still consume a generator
    /// draw, so a byte-identity reference must replay
    /// `batch[admitted_index[k]]` at `first_ts + k` — not
    /// `batch[ts - 1]`.
    pub admitted_index: Vec<u64>,
    /// The last arrival's timestamp: the offered-load horizon.
    pub horizon: Ps,
}

impl OpenLoopReport {
    /// Arrivals admitted past the inbox bound.
    pub fn admitted(&self) -> u64 {
        self.admitted_index.len() as u64
    }

    /// Arrivals rejected across all shards.
    pub fn rejected(&self) -> u64 {
        self.rejected_per_shard.iter().sum()
    }

    /// Fraction of offered arrivals rejected — the backpressure signal
    /// (0.0 for an empty run).
    pub fn rejection_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.rejected() as f64 / self.arrivals as f64
        }
    }

    /// The offered arrival rate actually generated, in transactions
    /// per simulated second (0.0 for an empty horizon).
    pub fn offered_rate_tps(&self) -> f64 {
        let secs = self.horizon.as_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.arrivals as f64 / secs
        }
    }

    /// Committed throughput over the run's makespan, transactions per
    /// simulated second (0.0 for an empty run).
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.exec.makespan().as_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.exec.committed() as f64 / secs
        }
    }

    /// Sojourn quantile in picoseconds (see [`Histogram::quantile`]).
    pub fn sojourn_quantile(&self, q: f64) -> u64 {
        self.sojourn.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(loads: Vec<ShardLoad>) -> ShardOltpReport {
        ShardOltpReport {
            per_shard: loads,
            remote: RemoteTouches::default(),
            coord: CoordStats::default(),
        }
    }

    #[test]
    fn parallel_efficiency_is_zero_on_empty_batch() {
        // A batch that ran nothing realised no speedup: 0.0, never the
        // old perfect-score 1.0 (and never NaN from 0/0).
        let empty = report_with(vec![ShardLoad::default(), ShardLoad::default()]);
        assert_eq!(empty.makespan(), Ps::ZERO);
        assert_eq!(empty.parallel_efficiency(), 0.0);
        assert_eq!(report_with(Vec::new()).parallel_efficiency(), 0.0);
    }

    #[test]
    fn parallel_efficiency_on_balanced_load() {
        let a = ShardLoad {
            elapsed: Ps::new(1_000),
            ..Default::default()
        };
        let b = ShardLoad {
            elapsed: Ps::new(1_000),
            ..Default::default()
        };
        let r = report_with(vec![a, b]);
        assert!((r.parallel_efficiency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_accessors_merge_across_shards() {
        let mut a = ShardLoad::default();
        a.report.commit_latency.record(100);
        a.report.two_pc_stall.record(10);
        let mut b = ShardLoad::default();
        b.report.commit_latency.record(300);
        let r = report_with(vec![a, b]);
        let total = r.merged();
        let commit = total.commit_latency.stats();
        assert_eq!(commit.count, 2);
        assert!(commit.max >= 300);
        assert_eq!(total.two_pc_stall.count(), 1);
        assert_eq!(r.queue_wait().count(), 0);
    }
}
