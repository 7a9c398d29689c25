//! The PUSHtap system: single-instance HTAP over the unified format.
//!
//! Ties together the OLTP executor, the OLAP scan engine, MVCC
//! snapshotting, and periodic defragmentation on one simulated memory
//! system. This is the object the experiments drive.

use std::sync::Arc;

use pushtap_chbench::{Txn, TxnGen};
use pushtap_format::LayoutError;
use pushtap_mvcc::{DefragCostModel, DefragStrategy, DeltaFull, Ts, TsOracle};
use pushtap_olap::{Query, QueryResult, QueryTiming, ScanEngine};
use pushtap_oltp::{
    Breakdown, DbConfig, Partition, Probe, TableGcPass, TaggedEffect, TpccDb, TxnResult, TxnRole,
};
use pushtap_pim::calib::{
    DEFRAG_CPU_BW_DERATING, DEFRAG_FIXED_OVERHEAD, DEFRAG_PIM_BW_DERATING, GC_FIXED_OVERHEAD,
    VERSION_META_BYTES,
};
use pushtap_pim::{ControlArch, MemSystem, Ps, SystemConfig};
use pushtap_trace::{Histogram, Phase, TraceSink};

/// The §5.3 cost model of copying scattered row versions on `system`: its
/// peak bandwidths derated to what short, per-row transfers achieve (short
/// bursts on the bus, DMA setup per row on the PIM side). It prices
/// PUSHtap's reclamation and the multi-instance baseline's rebuild alike.
pub(crate) fn scattered_copy_model(system: &SystemConfig) -> DefragCostModel {
    DefragCostModel::new(
        VERSION_META_BYTES,
        system.cpu_peak_bw() * DEFRAG_CPU_BW_DERATING,
        system.pim_peak_bw() * DEFRAG_PIM_BW_DERATING,
    )
}

/// Aggregate garbage-collection statistics of a run. Counters sum over
/// every pass (and, in a deployment, over every shard); the two gauges
/// are sampled when the tally is drained at batch end and sum across
/// shards into the deployment-wide figure the soak benchmark proves
/// plateaus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Garbage-collection passes that reclaimed something (empty passes
    /// cost nothing and are not counted).
    pub passes: u64,
    /// Versions reclaimed: rows whose newest committed version at or
    /// below the eligible cut was folded back into the data region.
    pub versions_reclaimed: u64,
    /// Delta slots recycled to the arena free-lists without a
    /// defragmentation barrier.
    pub slots_recycled: u64,
    /// Commit-log entries trimmed below the eligible cut.
    pub log_trimmed: u64,
    /// Chain hops walked planning the passes.
    pub chain_steps: u64,
    /// Bytes moved by the GC copy-backs.
    pub bytes_copied: u64,
    /// Live delta versions at batch end (gauge).
    pub live_versions: u64,
    /// Commit-log entries awaiting snapshot consumption at batch end
    /// (gauge).
    pub commit_log_len: u64,
}

impl GcStats {
    /// Folds one engine pass into the tally.
    pub fn absorb_pass(&mut self, pass: &TableGcPass) {
        self.passes += 1;
        self.versions_reclaimed += pass.rows_folded;
        self.slots_recycled += pass.slots_recycled;
        self.log_trimmed += pass.log_trimmed;
        self.chain_steps += pass.chain_steps;
        self.bytes_copied += pass.bytes_copied;
    }

    /// Merges another shard's GC stats taken at the same instant:
    /// counters and gauges both sum, each shard contributing its own
    /// end-of-batch gauge once. Slices of one run over time are not
    /// shards: summing their gauges counts the same live versions once
    /// per slice.
    pub fn merge(&mut self, other: &GcStats) {
        self.passes += other.passes;
        self.versions_reclaimed += other.versions_reclaimed;
        self.slots_recycled += other.slots_recycled;
        self.log_trimmed += other.log_trimmed;
        self.chain_steps += other.chain_steps;
        self.bytes_copied += other.bytes_copied;
        self.live_versions += other.live_versions;
        self.commit_log_len += other.commit_log_len;
    }
}

/// Configuration of a complete PUSHtap instance.
#[derive(Debug, Clone)]
pub struct PushtapConfig {
    /// Database build parameters (scale, format, delta sizing).
    pub db: DbConfig,
    /// Hardware configuration (DIMM or HBM system).
    pub system: SystemConfig,
    /// Control architecture (PUSHtap scheduler vs original PIM).
    pub arch: ControlArch,
    /// Transactions between defragmentation passes (0 = only on demand).
    /// The paper settles on 10 k (§7.4).
    pub defrag_period: u64,
}

/// The defragmentation strategy every pass runs (§5.3): Hybrid is the
/// paper's choice. [`Pushtap::estimate_defrag_pause`] prices the others.
const DEFRAG_STRATEGY: DefragStrategy = DefragStrategy::Hybrid;

impl PushtapConfig {
    /// A small DIMM-based instance for tests and examples.
    pub fn small() -> PushtapConfig {
        PushtapConfig {
            db: DbConfig::small(),
            system: SystemConfig::dimm(),
            arch: ControlArch::Pushtap,
            defrag_period: 10_000,
        }
    }
}

/// Aggregate OLTP statistics from a run.
#[derive(Debug, Clone, Default)]
pub struct OltpReport {
    /// Transactions committed.
    pub committed: u64,
    /// Pure transaction time (excludes defragmentation pauses; includes
    /// the latency of rolled-back attempts — see
    /// [`OltpReport::wasted_retry_time`]).
    pub txn_time: Ps,
    /// Time spent in defragmentation pauses (OLTP is paused, §5.3).
    pub defrag_time: Ps,
    /// Time spent in incremental garbage-collection pauses (far cheaper
    /// than defragmentation — no stop-the-world barrier).
    pub gc_time: Ps,
    /// Garbage-collection pass counters and end-of-batch gauges.
    pub gc: GcStats,
    /// Transaction attempts rolled back on a full delta arena (each is
    /// re-executed after an on-demand reclamation — a GC pass, or the
    /// defragmentation barrier if GC freed nothing — so this is also the
    /// number of retries).
    pub aborts: u64,
    /// Distinct transactions that needed at least one retry before
    /// committing.
    pub retried_txns: u64,
    /// Latency consumed by rolled-back attempts (statements executed
    /// before a mid-transaction [`DeltaFull`],
    /// plus prepared work a two-phase-commit coordinator aborted).
    /// Their memory traffic hits the simulated memory system, so their
    /// time is charged to the transaction's completion latency too: this
    /// is the share of [`OltpReport::txn_time`] that retries wasted.
    pub wasted_retry_time: Ps,
    /// Two-phase commit: transactions on this engine that went through a
    /// prepare phase — as coordinator of a cross-shard transaction or as
    /// a remote participant holding a forwarded effect set. Zero on a
    /// single-instance run (one-phase commit pays no prepare round).
    pub prepared_txns: u64,
    /// Prepared scopes this engine rolled back on a coordinator's abort
    /// decision (some participant of the transaction hit
    /// [`DeltaFull`] and the whole transaction
    /// aborted everywhere before its retry).
    pub participant_aborts: u64,
    /// Effects this engine applied on behalf of transactions *homed on
    /// other shards* (forwarded remote-owned writes and reads).
    pub forwarded_effects: u64,
    /// Latency of the two-phase-commit message rounds charged to this
    /// engine's clock (prepare deliveries, commit/abort deliveries, and
    /// — on the coordinator — the decision round-trip; one round per
    /// [`OltpReport::two_pc_stall`] sample) under *sequential*
    /// delivery — the ledger sum of every hop's latency, one entry per
    /// round (not included in [`OltpReport::txn_time`],
    /// mirroring how the shard layer separates coordination time from
    /// engine time). Under a pipelined coordinator, deliveries of one
    /// wave overlap in flight, so the latency that actually lands on
    /// the engine's clock is [`OltpReport::critical_path_time`] ≤ this
    /// sum.
    pub two_pc_time: Ps,
    /// Two-phase-commit message latency on this engine's *critical
    /// path*: the clock advance the rounds actually caused. The shard
    /// coordinator dispatches a whole wave's messages together, and a
    /// delivery that arrives while the engine is still busy with
    /// earlier wave work stalls it for less than a full hop (possibly
    /// not at all), so this is at most [`OltpReport::two_pc_time`]
    /// unless a laggard vote stretches the barrier. Time-share
    /// metrics must divide by busy time using *this* figure — the
    /// sequential ledger can exceed the clock under overlap.
    pub critical_path_time: Ps,
    /// Write-ahead-log records this engine appended (one per logged
    /// transaction effect-set; zero with durability off).
    pub wal_appends: u64,
    /// Group-commit force barriers this engine's effect log paid — the
    /// fsync count. Group commit amortizes one force across a whole
    /// wave, so under a pipelined coordinator this stays well below the
    /// committed-transaction count.
    pub wal_forces: u64,
    /// Framed bytes appended to this engine's effect log.
    pub wal_bytes: u64,
    /// Clock time the force barriers cost this engine (`wal_forces ×`
    /// `calib::WAL_FORCE_LATENCY`). Charged to
    /// [`OltpReport::critical_path_time`] as well — durability is a
    /// commit-path cost — so trace reconciliation with durability on is
    /// `two_pc_stall sum + wal_force_time == critical_path_time`.
    pub wal_force_time: Ps,
    /// Component breakdown across all transactions.
    pub breakdown: Breakdown,
    /// End-to-end commit latency per committed transaction (picoseconds):
    /// everything the submitter waits for — retried attempts, defrag
    /// pauses folded into the transaction, and (under a sharded
    /// coordinator) the two-phase-commit rounds. One sample per commit,
    /// so `commit_latency.stats().count == committed`.
    pub commit_latency: Histogram,
    /// Time transactions spent parked in a coordinator queue before
    /// execution began (picoseconds). Empty on a single-instance run;
    /// the shard driver records one sample per transaction: the wait
    /// between entering its home shard's inbox and its wave's dispatch.
    pub queue_wait: Histogram,
    /// Duration of each defragmentation pause that landed on this
    /// engine's clock (picoseconds), one sample per pass: its count is
    /// the number of defragmentation passes.
    pub defrag_stall: Histogram,
    /// Duration of each garbage-collection pause that landed on this
    /// engine's clock (picoseconds), one sample per GC pause; the sample
    /// sum equals [`OltpReport::gc_time`].
    pub gc_stall: Histogram,
    /// Stall of each two-phase-commit message round charged to this
    /// engine (picoseconds), one sample per round: its count is the
    /// number of message rounds, and the sample sum plus
    /// [`OltpReport::wal_force_time`] equals
    /// [`OltpReport::critical_path_time`].
    pub two_pc_stall: Histogram,
}

impl OltpReport {
    /// Wall-clock time including maintenance pauses.
    pub fn total_time(&self) -> Ps {
        self.txn_time + self.defrag_time + self.gc_time
    }

    /// Share of this engine's wall-clock (transactions + pauses + 2PC
    /// rounds) spent on two-phase-commit messaging — the scale-out
    /// analogue of the paper's single-instance consistency costs.
    /// Computed from [`OltpReport::critical_path_time`] (the latency
    /// that actually landed on the clock) minus the group-commit force
    /// time it includes — forces are durability, not messaging — so the
    /// share stays ≤ 1.0 even when a pipelined coordinator overlaps the
    /// message rounds of concurrent transactions, and stays zero for a
    /// logged but fully warehouse-local batch; the sequential-delivery
    /// ledger [`OltpReport::two_pc_time`] could exceed the clock under
    /// overlap.
    pub fn two_pc_time_share(&self) -> f64 {
        let total = self.total_time() + self.critical_path_time;
        let rounds = self.critical_path_time.saturating_sub(self.wal_force_time);
        if total == Ps::ZERO {
            0.0
        } else {
            rounds.ps() as f64 / total.ps() as f64
        }
    }

    /// Accumulates `other` into this report (all counters and times sum;
    /// breakdowns merge). Used by the shard coordinator to fold
    /// per-flush partial reports into each shard's batch report.
    pub fn merge(&mut self, other: &OltpReport) {
        self.committed += other.committed;
        self.txn_time += other.txn_time;
        self.defrag_time += other.defrag_time;
        self.gc_time += other.gc_time;
        self.gc.merge(&other.gc);
        self.aborts += other.aborts;
        self.retried_txns += other.retried_txns;
        self.wasted_retry_time += other.wasted_retry_time;
        self.prepared_txns += other.prepared_txns;
        self.participant_aborts += other.participant_aborts;
        self.forwarded_effects += other.forwarded_effects;
        self.two_pc_time += other.two_pc_time;
        self.critical_path_time += other.critical_path_time;
        self.wal_appends += other.wal_appends;
        self.wal_forces += other.wal_forces;
        self.wal_bytes += other.wal_bytes;
        self.wal_force_time += other.wal_force_time;
        self.breakdown.merge(&other.breakdown);
        self.commit_latency.merge(&other.commit_latency);
        self.queue_wait.merge(&other.queue_wait);
        self.defrag_stall.merge(&other.defrag_stall);
        self.gc_stall.merge(&other.gc_stall);
        self.two_pc_stall.merge(&other.two_pc_stall);
    }
}

/// One analytical query's report.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The value result.
    pub result: QueryResult,
    /// Scan/compute/control timing.
    pub timing: QueryTiming,
    /// Consistency time paid before the scan (snapshotting; plus any
    /// defragmentation folded into this query).
    pub consistency: Ps,
    /// The snapshot cut: the query observes exactly the versions with
    /// commit timestamp `<= cut`. A standalone instance cuts at its own
    /// watermark; a sharded deployment hands every shard one agreed
    /// global cut (see `ShardedHtap::run_query` in `pushtap-shard`).
    pub cut: Ts,
}

impl QueryReport {
    /// Total query latency (scan + CPU coordination + consistency); the
    /// report's `timing.end` is normalised to this duration.
    pub fn total(&self) -> Ps {
        self.timing.end
    }
}

/// A complete PUSHtap instance.
#[derive(Debug)]
pub struct Pushtap {
    cfg: PushtapConfig,
    mem: MemSystem,
    db: TpccDb,
    engine: ScanEngine,
    defrag_cost: DefragCostModel,
    now: Ps,
    txns_since_defrag: u64,
    /// What only the engine knows of its own work since the last
    /// [`Pushtap::take_report`]: transaction and wasted time, aborts,
    /// maintenance pauses and GC passes.
    tally: OltpReport,
}

impl Pushtap {
    /// Builds and populates an instance.
    ///
    /// # Errors
    ///
    /// Propagates layout-generation errors.
    pub fn new(cfg: PushtapConfig) -> Result<Pushtap, LayoutError> {
        Pushtap::new_partitioned(cfg, Partition::single())
    }

    /// Builds one shard of a warehouse-partitioned deployment: an
    /// otherwise complete PUSHtap instance (own memory system, scan
    /// engine, clock) whose fact tables hold `partition`'s slice of the
    /// global population. See [`pushtap_oltp::TpccDb::build_partitioned`].
    ///
    /// # Errors
    ///
    /// Propagates layout-generation errors.
    pub fn new_partitioned(
        cfg: PushtapConfig,
        partition: Partition,
    ) -> Result<Pushtap, LayoutError> {
        let mem = MemSystem::new(cfg.system);
        let db = TpccDb::build_partitioned(&cfg.db, &mem, partition)?;
        let engine = ScanEngine::new(cfg.arch, &cfg.system);
        let defrag_cost = scattered_copy_model(&cfg.system);
        Ok(Pushtap {
            cfg,
            mem,
            db,
            engine,
            defrag_cost,
            now: Ps::ZERO,
            txns_since_defrag: 0,
            tally: OltpReport::default(),
        })
    }

    /// Routes lifecycle spans from this instance to `sink`, tagging
    /// every span with `track` — the shard layer assigns one track per
    /// shard so a merged trace keeps the shards on separate rows. See
    /// [`Pushtap::probe_mut`] for the sanitizer.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>, track: u32) {
        self.db.probe_mut().set_trace_sink(sink, track);
    }

    /// The engine's one instrumentation seam
    /// ([`TpccDb::probe`](pushtap_oltp::TpccDb::probe)), to arm a
    /// sanitizer on. The instance's own spans (maintenance pauses,
    /// commit and abort decisions) and a caller's (a shard
    /// coordinator's protocol phases) go through it too.
    pub fn probe_mut(&mut self) -> &mut Probe {
        self.db.probe_mut()
    }

    /// The simulated clock.
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Advances the simulated clock by `d` — externally imposed latency
    /// (e.g. a shard layer charging cross-shard coordination hops).
    pub fn advance(&mut self, d: Ps) {
        self.now += d;
    }

    /// Which slice of the global population this instance holds
    /// ([`Partition::single`] for a standalone instance).
    pub fn partition(&self) -> Partition {
        self.db.partition()
    }

    /// Swaps the instance's own timestamp oracle for a shared
    /// deployment-wide [`TsOracle`] (see
    /// [`TpccDb::share_timestamps`](pushtap_oltp::TpccDb::share_timestamps)).
    /// Must be called before any transaction executes; `ShardedHtap::new`
    /// hands every shard the same oracle.
    ///
    /// # Panics
    ///
    /// Panics if transactions have already committed on this instance.
    pub fn share_timestamps(&mut self, oracle: Arc<TsOracle>) {
        self.db.share_timestamps(oracle);
    }

    /// The database.
    pub fn db(&self) -> &TpccDb {
        &self.db
    }

    /// The memory system.
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// The scan engine.
    pub fn engine(&self) -> &ScanEngine {
        &self.engine
    }

    /// The configuration.
    pub fn cfg(&self) -> &PushtapConfig {
        &self.cfg
    }

    /// The §5.3 defragmentation cost model in effect.
    pub fn defrag_cost(&self) -> &DefragCostModel {
        &self.defrag_cost
    }

    /// This instance's transaction generator, [`TpccDb::txn_gen`]: its
    /// own warehouses' load over the global populations.
    pub fn txn_gen(&self, seed: u64) -> TxnGen {
        self.db.txn_gen(seed)
    }

    /// Executes one transaction under the next timestamp of this
    /// instance's oracle, drawn once: see [`Pushtap::execute_txn_at`].
    pub fn execute_txn(&mut self, txn: &Txn) -> TxnResult {
        let ts = self.db.ts_oracle().allocate();
        self.execute_txn_at(txn, ts)
    }

    /// Executes one transaction under its commit timestamp `ts` (see
    /// [`TpccDb::execute_at`](pushtap_oltp::TpccDb::execute_at)); reclaims
    /// (GC first, defragmentation as the fallback) and retries on a full
    /// delta arena. The attempts' time, the aborts and the maintenance
    /// pauses go to the engine's tally ([`Pushtap::take_report`]).
    ///
    /// The retry is *atomic*: the engine rolls back all partial effects
    /// of the failed attempt before returning the error, and the
    /// post-reclamation re-execution runs under the *same* timestamp, so
    /// it commits exactly what a pressure-free run would have committed.
    /// This is also how a sharded coordinator drives each shard:
    /// timestamps are drawn from the shared [`TsOracle`] in global stream
    /// order, so concurrent shards commit exactly the timestamps a
    /// single-instance reference would.
    pub fn execute_txn_at(&mut self, txn: &Txn, ts: Ts) -> TxnResult {
        self.defrag_if_due();
        loop {
            match self.attempt(|db, mem, at| db.execute_at(txn, ts, mem, at)) {
                Ok(r) => {
                    self.txns_since_defrag += 1;
                    return r;
                }
                Err(_full) => self.reclaim_now(),
            }
        }
    }

    /// Runs one transaction attempt at the clock and tallies it. The
    /// clock moves to the attempt's end whichever way it ends, and the
    /// advance is transaction time. A failed attempt was rolled back,
    /// but its statements consumed real time up to the rollback's end
    /// (their memory traffic is charged to the simulated memory system):
    /// that latency is wasted, and the attempt counts as an abort.
    fn attempt(
        &mut self,
        apply: impl FnOnce(&mut TpccDb, &mut MemSystem, Ps) -> Result<TxnResult, (DeltaFull, Ps)>,
    ) -> Result<TxnResult, DeltaFull> {
        let start = self.now;
        let r = apply(&mut self.db, &mut self.mem, start);
        self.now = match &r {
            Ok(r) => r.end,
            Err((_, end)) => *end,
        };
        let spent = self.now.saturating_sub(start);
        self.tally.txn_time += spent;
        r.map_err(|(full, _)| {
            self.tally.wasted_retry_time += spent;
            self.tally.aborts += 1;
            full
        })
    }

    /// Runs the periodic maintenance check: if the configured period has
    /// elapsed since the last reclamation, runs an incremental
    /// garbage-collection pass below the eligible cut — and only if that
    /// pass reclaims nothing (every surviving version is above the cut
    /// or pinned) falls back to the full defragmentation barrier. Does
    /// nothing when the period has not elapsed.
    /// [`Pushtap::execute_txn`] runs this automatically; the shard
    /// coordinator calls it explicitly, once per involved shard at the
    /// start of each wave's prepare pass, because reclamation must never
    /// run while a transaction scope is open.
    ///
    /// Under a **standing snapshot pin** the defragmentation fallback is
    /// suppressed: defragmentation folds each row's *newest* version and
    /// frees the whole chain, which would steal the exact versions a
    /// pinned historical reader still needs. Proactive maintenance
    /// simply re-arms and waits for the release; only genuine delta
    /// pressure ([`Pushtap::reclaim_now`] from the `DeltaFull` retry
    /// loop) may still defragment, trading the pinned cut for forward
    /// progress.
    pub fn defrag_if_due(&mut self) {
        if self.cfg.defrag_period == 0 || self.txns_since_defrag < self.cfg.defrag_period {
            return;
        }
        let may_defragment = !self.db.snapshot_pinned();
        self.reclaim(may_defragment);
    }

    /// On-demand reclamation (the pressure policy): an incremental GC
    /// pass first — recycling committed versions below the eligible cut
    /// without a barrier — then, only if GC freed nothing, the full
    /// defragmentation barrier, pinned snapshot or not. Used by the
    /// `DeltaFull` retry loop; after one GC pass drained everything
    /// below the cut, a retry that still overflows finds the next GC
    /// pass empty and lands on the defragmentation fallback, so the
    /// loop terminates exactly as it did before GC existed.
    pub fn reclaim_now(&mut self) {
        self.reclaim(true);
    }

    /// The GC-first policy both reclamation paths share: a GC pass, and
    /// only if it freed nothing the defragmentation barrier — when
    /// `may_defragment`; otherwise the period simply re-arms. Each pause
    /// is one stall sample in the tally: the only pause time it records.
    fn reclaim(&mut self, may_defragment: bool) {
        self.txns_since_defrag = 0;
        let gc = self.gc_pass();
        if gc > Ps::ZERO {
            self.tally.gc_time += gc;
            self.tally.gc_stall.record(gc.ps());
        } else if may_defragment {
            let (_, defrag) = self.defragment_all();
            self.tally.defrag_time += defrag;
            self.tally.defrag_stall.record(defrag.ps());
        }
    }

    /// Runs one incremental garbage-collection pass at this engine's
    /// eligible cut ([`TpccDb::gc_eligible_before`]: the oracle's
    /// pin-floored watermark). Returns the pause charged (zero for an
    /// empty pass).
    pub fn gc_pass(&mut self) -> Ps {
        self.gc_at(self.db.gc_eligible_before())
    }

    /// Runs one incremental garbage-collection pass below `before`
    /// (inclusive): folds each row's newest committed version at or
    /// below the cut into the data region, recycles the superseded
    /// delta slots, and trims the consumed commit-log entries (see
    /// [`TpccDb::gc`]). Charges the copy-back and traverse time to the
    /// clock, counts the pass in the tally's [`OltpReport::gc`] and emits
    /// a [`Phase::GcPass`] span. An empty pass (nothing eligible) costs
    /// nothing, is not counted, and emits no span.
    ///
    /// # Panics
    ///
    /// Panics while a prepared transaction scope awaits its
    /// coordinator's decision: its writes may still be taken back.
    pub fn gc_at(&mut self, before: Ts) -> Ps {
        self.assert_decided("garbage collection");
        let model = self.defrag_cost;
        let (pass, seconds) = self.db.gc(&model, DEFRAG_STRATEGY, before);
        if !pass.reclaimed_any() {
            return Ps::ZERO;
        }
        let pause = self.pause(GC_FIXED_OVERHEAD, seconds, pass.chain_steps);
        let start = self.now;
        self.now += pause;
        self.tally.gc.absorb_pass(&pass);
        self.db
            .probe()
            .span(Phase::GcPass, before.0, 0, start, self.now);
        pause
    }

    /// Drains the engine's tally accumulated since the last drain,
    /// stamping the end-of-batch gauges (live delta versions, commit-log
    /// entries). It holds what only the engine knows: the clock advance
    /// of its transaction attempts, prepares and aborts (failed attempts
    /// included), the aborts and the time they wasted, every GC pass,
    /// and the pause of each reclamation a transaction path ran. Explicit
    /// [`Pushtap::gc_pass`] / [`Pushtap::gc_at`] calls add their pass
    /// counters but no pause time. The driver's fields (commits, retried
    /// transactions, breakdown, latencies, 2PC and WAL) stay zero.
    /// [`Pushtap::run_txns`] drains into its report; the shard
    /// coordinator drains each shard into its per-shard load after a
    /// batch.
    pub fn take_report(&mut self) -> OltpReport {
        let mut report = std::mem::take(&mut self.tally);
        report.gc.live_versions = self.db.live_delta_rows();
        report.gc.commit_log_len = self.db.commit_log_entries();
        report
    }

    /// Applies an effect set at pinned timestamp `ts` and parks the
    /// engine's scope *prepared* (see
    /// [`TpccDb::prepare_effects`](pushtap_oltp::TpccDb::prepare_effects)),
    /// advancing this engine's clock by the prepare's latency. On
    /// [`DeltaFull`] the partial effects are already rolled back and the
    /// clock advances by the failed attempt's latency (its memory
    /// traffic hit the simulated memory system), tallied as an abort;
    /// the caller — the shard coordinator — decides where to defragment
    /// and when to retry.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaFull`] when a delta arena filled mid-prepare: this
    /// engine votes "no" holding no state.
    pub fn prepare_effects_at(
        &mut self,
        effects: &[TaggedEffect],
        ts: Ts,
    ) -> Result<TxnResult, DeltaFull> {
        self.attempt(|db, mem, at| db.prepare_effects(effects, ts, mem, at))
    }

    /// Delivers the coordinator's commit decision for the prepared scope
    /// (see [`TpccDb::commit_prepared`](pushtap_oltp::TpccDb::commit_prepared)).
    /// The prepare already flushed the write set, so the decision is
    /// metadata-only and costs no engine time; message-round latency is
    /// charged separately by the coordinator.
    pub fn commit_prepared(&mut self, ts: Ts, role: TxnRole) {
        self.db.commit_prepared(ts, role);
        if role == TxnRole::Coordinator {
            self.txns_since_defrag += 1;
        }
        self.db
            .probe()
            .span(Phase::Commit, ts.0, 0, self.now, self.now);
    }

    /// Delivers the coordinator's abort decision for the scope prepared
    /// at `ts`: its pinned effects roll back and the prepare's latency,
    /// which the engine returns, is charged to wasted retry time (the
    /// clock already covered it — the work really happened before it was
    /// thrown away), tallied as an abort. Other scopes prepared on this
    /// engine are untouched.
    pub fn abort_prepared(&mut self, ts: Ts) {
        self.tally.wasted_retry_time += self.db.abort_prepared(ts);
        self.tally.aborts += 1;
        self.db
            .probe()
            .span(Phase::Abort, ts.0, 0, self.now, self.now);
    }

    /// Runs `n` transactions from `gen`, defragmenting per the configured
    /// period. The report is the engine's drained tally
    /// ([`Pushtap::take_report`]) plus the commits, retried transactions,
    /// breakdown and commit latencies of the run.
    pub fn run_txns(&mut self, gen: &mut TxnGen, n: u64) -> OltpReport {
        let mut breakdown = Breakdown::default();
        let mut commit_latency = Histogram::default();
        let mut retried_txns = 0;
        for _ in 0..n {
            let txn = gen.next_txn();
            let (start, aborts) = (self.now, self.tally.aborts);
            let r = self.execute_txn(&txn);
            retried_txns += u64::from(self.tally.aborts > aborts);
            breakdown.merge(&r.breakdown);
            // Submitter-perceived latency: retries and folded-in
            // maintenance pauses included, one sample per commit.
            commit_latency.record(self.now.saturating_sub(start).ps());
        }
        OltpReport {
            committed: n,
            retried_txns,
            breakdown,
            commit_latency,
            ..self.take_report()
        }
    }

    /// Defragments every table (OLTP paused): the garbage-collection fold
    /// at the watermark ([`TpccDb::defragment`]) behind the stop-the-world
    /// barrier, priced by [`Pushtap::estimate_defrag_pause`] taken just
    /// before it. Returns the pass's stats and the pause duration, and
    /// advances the clock.
    ///
    /// # Panics
    ///
    /// Panics while a prepared transaction scope awaits its
    /// coordinator's decision: its writes may still be taken back.
    pub fn defragment_all(&mut self) -> (TableGcPass, Ps) {
        self.assert_decided("defragmentation");
        let upto = self.db.last_ts();
        let pause = self.estimate_defrag_pause(DEFRAG_STRATEGY);
        let pass = self.db.defragment();
        let start = self.now;
        self.now += pause;
        self.txns_since_defrag = 0;
        self.db
            .probe()
            .span(Phase::DefragStall, upto.0, 0, start, self.now);
        (pass, pause)
    }

    /// Estimates the pause one defragmentation pass would cost *right
    /// now* under `strategy`, without executing it: each table holding
    /// a delta version is priced by the copy-back function GC charges
    /// ([`HtapTable::copy_back_seconds`]), over all its versions and
    /// rows — exactly the counts a full fold folds, frees and walks. The
    /// fold itself is unpriced, so under Hybrid (the strategy every pass
    /// runs) this is the one price of [`Pushtap::defragment_all`]. The
    /// Fig. 11(b) and Fig. 12(a) sweeps use it to compare strategies on
    /// identical delta-region states.
    ///
    /// [`HtapTable::copy_back_seconds`]: pushtap_oltp::HtapTable::copy_back_seconds
    pub fn estimate_defrag_pause(&self, strategy: DefragStrategy) -> Ps {
        let mut seconds = 0.0;
        let mut chain_steps = 0u64;
        for table in pushtap_chbench::ALL_TABLES {
            let t = self.db.table(table);
            let rows = t.chains().updated_row_count() as u64;
            if rows == 0 {
                continue;
            }
            let slots = t.live_delta_rows();
            chain_steps += slots;
            seconds += t.copy_back_seconds(&self.defrag_cost, strategy, rows, slots);
        }
        self.pause(DEFRAG_FIXED_OVERHEAD, seconds, chain_steps)
    }

    /// The pause of one reclamation pass: its `fixed` overhead, the
    /// modelled copy time (`seconds`), and the CPU's walk over
    /// `chain_steps` version-chain hops.
    fn pause(&self, fixed: Ps, seconds: f64, chain_steps: u64) -> Ps {
        let traverse = self.db.meter().chain(chain_steps);
        fixed + Ps::new((seconds * 1e12).round() as u64) + traverse
    }

    /// Snapshots the tables a query touches (the §5.2 consistency step)
    /// at this instance's own watermark. Returns the snapshotting
    /// duration.
    pub fn snapshot_for(&mut self, query: Query) -> Ps {
        let upto = self.db.last_ts();
        self.snapshot_for_at(query, upto)
    }

    /// Snapshots the tables `query` touches at the *given* cut: the
    /// visibility bitmaps advance to cover exactly the versions with
    /// commit timestamp `<= upto`. A sharded coordinator passes one
    /// agreed global cut to every shard so the scattered query observes a
    /// single consistent snapshot. Cuts must be non-decreasing across
    /// calls — snapshots advance monotonically (§5.2), so a cut below a
    /// previous one leaves the fresher snapshot in place. Returns the
    /// snapshotting duration.
    ///
    /// # Panics
    ///
    /// Panics while a prepared transaction scope awaits its
    /// coordinator's decision: its writes may still be taken back.
    pub fn snapshot_for_at(&mut self, query: Query, upto: Ts) -> Ps {
        self.assert_decided("a snapshot");
        let start = self.now;
        let meter = *self.db.meter();
        for t in query.tables() {
            let (_, end) =
                self.db
                    .table_mut(t)
                    .timed_snapshot_update(&mut self.mem, &meter, upto, self.now);
            self.now = self.now.max(end);
        }
        self.now - start
    }

    /// Reclamation and snapshots run only while no transaction scope is
    /// open: a prepared scope's writes sit on the chains undecided, and
    /// only the undo log knows them. Garbage collection or
    /// defragmentation would fold them into the data region, and a
    /// snapshot would publish them, before the coordinator decides.
    fn assert_decided(&self, what: &str) {
        let scopes = self.db.prepared_scopes();
        assert!(
            scopes == 0,
            "{what} with {scopes} prepared-but-uncommitted transaction scope(s)"
        );
    }

    /// Runs one analytical query with fresh data: snapshot at this
    /// instance's own watermark, then scan.
    pub fn run_query(&mut self, query: Query) -> QueryReport {
        let cut = self.db.last_ts();
        self.run_query_at(query, cut)
    }

    /// Runs one analytical query snapshotted at the given `cut`
    /// timestamp: the scan observes exactly the committed versions with
    /// timestamp `<= cut`. This is the per-shard half of the global-cut
    /// scatter protocol (`ShardedHtap::run_query` in `pushtap-shard`
    /// agrees on one cut and passes it to every shard).
    ///
    /// Snapshots are forward-only, so if a touched table's snapshot
    /// already sits *past* `cut` (an earlier query cut fresher), the
    /// scan observes that fresher position; the returned
    /// [`QueryReport::cut`] reports the cut the query actually observed,
    /// never a stale request.
    pub fn run_query_at(&mut self, query: Query, cut: Ts) -> QueryReport {
        let consistency = self.snapshot_for_at(query, cut);
        // The effective cut: what the forward-only snapshots now hold.
        let cut = query
            .tables()
            .fold(cut, |c, t| c.max(self.db.table(t).snapshot().ts()));
        let start = self.now;
        let (result, mut timing) = query.execute(&self.db, &self.engine, &mut self.mem, start);
        self.now = timing.end.max(start);
        timing.end = self.now - start + consistency;
        QueryReport {
            result,
            timing,
            consistency,
            cut,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Pushtap {
        Pushtap::new(PushtapConfig::small()).unwrap()
    }

    #[test]
    fn txns_then_query_sees_fresh_data() {
        let mut p = small();
        let mut gen = p.txn_gen(11);
        let before = p.run_query(Query::Q6);
        p.run_txns(&mut gen, 80);
        let after = p.run_query(Query::Q6);
        // The snapshot makes the query see committed inserts: Q6 revenue
        // changes (ORDERLINE grew).
        assert_ne!(before.result, after.result, "query must see fresh data");
        assert!(after.consistency > Ps::ZERO);
    }

    #[test]
    fn stale_cut_reports_the_effective_snapshot_position() {
        let mut p = small();
        let mut gen = p.txn_gen(3);
        p.run_txns(&mut gen, 40);
        let fresh = p.run_query_at(Query::Q6, Ts(40));
        assert_eq!(fresh.cut, Ts(40));
        p.run_txns(&mut gen, 20);
        // Request an older cut: the forward-only snapshot stays at T40,
        // and the report must say so rather than echo the stale request.
        let stale = p.run_query_at(Query::Q6, Ts(10));
        assert_eq!(stale.cut, Ts(40), "report the observed cut");
        assert_eq!(stale.result, fresh.result);
    }

    #[test]
    fn period_triggers_gc_first_and_is_small_overhead() {
        let mut cfg = PushtapConfig::small();
        cfg.defrag_period = 50;
        let mut p = Pushtap::new(cfg).unwrap();
        let mut gen = p.txn_gen(3);
        let report = p.run_txns(&mut gen, 200);
        // The GC-first policy: a standalone engine's eligible cut is its
        // own watermark, so every periodic check finds reclaimable
        // versions and the defragmentation barrier never fires.
        assert!(report.gc.passes >= 2, "period must trigger GC");
        assert!(report.gc_time > Ps::ZERO);
        assert!(report.gc.slots_recycled > 0);
        assert!(report.gc.log_trimmed > 0);
        assert_eq!(
            report.defrag_stall.count(),
            0,
            "GC reclaimed, so defrag must not fire"
        );
        assert_eq!(
            report.gc_stall.sum(),
            u128::from(report.gc_time.ps()),
            "gc_stall samples must sum to gc_time"
        );
        // Incremental GC costs OLTP even less than the Fig. 11(a)
        // defragmentation budget.
        let overhead = report.gc_time.ps() as f64 / report.total_time().ps() as f64;
        assert!(overhead < 0.25, "gc overhead {overhead}");
    }

    #[test]
    fn gc_pass_reclaims_and_preserves_query_answers() {
        let mut p = small();
        let mut gen = p.txn_gen(9);
        p.run_txns(&mut gen, 60);
        let live_before = p.db().live_delta_rows();
        let log_before = p.db().commit_log_entries();
        assert!(live_before > 0);
        let before = p.run_query(Query::Q6);
        let pause = p.gc_pass();
        assert!(pause >= GC_FIXED_OVERHEAD);
        assert!(
            p.db().live_delta_rows() < live_before,
            "GC must recycle delta slots"
        );
        assert!(
            p.db().commit_log_entries() < log_before,
            "GC must trim the commit log"
        );
        let after = p.run_query(Query::Q6);
        assert_eq!(before.result, after.result, "GC must not change answers");
        let stats = p.take_report().gc;
        assert_eq!(stats.passes, 1);
        assert!(stats.versions_reclaimed > 0);
        assert_eq!(stats.live_versions, p.db().live_delta_rows());
        assert_eq!(stats.commit_log_len, p.db().commit_log_entries());
        // The tally drains: a second take reports only fresh gauges.
        assert_eq!(p.take_report().gc.passes, 0);
    }

    #[test]
    fn empty_gc_pass_costs_nothing() {
        let mut p = small();
        let mut gen = p.txn_gen(2);
        p.run_txns(&mut gen, 30);
        assert!(p.gc_pass() > Ps::ZERO, "first pass reclaims");
        let now = p.now();
        assert_eq!(p.gc_pass(), Ps::ZERO, "nothing left below the cut");
        assert_eq!(p.now(), now, "an empty pass must not advance the clock");
        assert_eq!(p.take_report().gc.passes, 1, "empty passes are not counted");
    }

    /// The sanitizer reads snapshot pins off the engine's oracle,
    /// whoever took them: under a reader pinned at T20 the eligible pass
    /// folds below the pin and stays clean, while a pass forced up to
    /// the pin frees T20's versions and is flagged.
    #[test]
    fn gc_at_a_pinned_cut_is_flagged_whoever_pinned_it() {
        use pushtap_sanitizer::{ShadowSanitizer, ViolationKind};
        let mut p = small();
        let san = Arc::new(ShadowSanitizer::new());
        p.probe_mut().set_sanitizer(san.clone());
        let mut gen = p.txn_gen(5);
        p.run_txns(&mut gen, 40);
        let pin = p.db().ts_oracle().pin_snapshot(Ts(20));
        assert!(p.gc_pass() > Ps::ZERO, "the eligible pass reclaims");
        san.assert_clean("eligible pass under a pin");
        assert!(p.gc_at(Ts(20)) > Ps::ZERO, "T20 wrote versions");
        let violations = san.take_violations();
        assert!(!violations.is_empty());
        for v in &violations {
            assert_eq!((v.kind, v.ts), (ViolationKind::ReclaimedPinnedVersion, 20));
        }
        drop(pin);
        assert!(p.gc_pass() > Ps::ZERO, "the floor lifts with the pin");
        san.assert_clean("after the pin drops");
    }

    /// Defragmentation is the GC fold at the watermark, and the
    /// sanitizer sees its folds the same way: under a reader pinned at
    /// T20 it frees versions at and above the pin and is flagged;
    /// without a pin it stays clean.
    #[test]
    fn defragmentation_across_a_pin_is_flagged() {
        use pushtap_sanitizer::{ShadowSanitizer, ViolationKind};
        let mut p = small();
        let san = Arc::new(ShadowSanitizer::new());
        p.probe_mut().set_sanitizer(san.clone());
        let mut gen = p.txn_gen(5);
        p.run_txns(&mut gen, 40);
        let pin = p.db().ts_oracle().pin_snapshot(Ts(20));
        assert!(p.defragment_all().0.rows_folded > 0);
        let violations = san.take_violations();
        assert!(!violations.is_empty(), "a fold across the pin is flagged");
        for v in &violations {
            assert_eq!(v.kind, ViolationKind::ReclaimedPinnedVersion);
            assert!(v.ts >= 20, "T{} is below the pin", v.ts);
        }
        drop(pin);
        p.run_txns(&mut gen, 40);
        assert!(p.defragment_all().0.rows_folded > 0);
        san.assert_clean("defragmentation without a pin");
    }

    #[test]
    fn defragment_all_clears_versions() {
        let mut p = small();
        let mut gen = p.txn_gen(5);
        p.run_txns(&mut gen, 60);
        assert!(p.db().live_delta_rows() > 0);
        let (pass, pause) = p.defragment_all();
        assert!(pass.rows_folded > 0);
        assert!(pause >= DEFRAG_FIXED_OVERHEAD);
        assert_eq!(p.db().live_delta_rows(), 0);
        // Queries still answer correctly after defragmentation.
        let r = p.run_query(Query::Q1);
        let QueryResult::Q1(rows) = r.result else {
            panic!("wrong result kind")
        };
        assert!(!rows.is_empty());
    }

    /// Golden: the counts and pause of a full defragmentation, and the
    /// estimates Fig. 11(b) and Fig. 12(a) are built from, at a fixed
    /// seed — on a fresh engine, after a GC pass at a low cut left
    /// re-anchored chains behind, and with no delta version at all. On
    /// every state the Hybrid estimate is the pause the next pass
    /// charges.
    #[test]
    fn defragmentation_golden() {
        let mut p = small();
        let mut gen = p.txn_gen(13);
        // Per state: [rows copied back, slots reclaimed, chain steps,
        // bytes copied], the pause, and the Cpu/Pim/Hybrid estimates.
        let golden: [([u64; 4], u64, [u64; 3]); 3] = [
            (
                [934, 1054, 1054, 186_688],
                108_932_366,
                [114_182_143, 109_514_071, 108_932_366],
            ),
            (
                [516, 587, 587, 102_496],
                104_935_045,
                [107_816_071, 105_287_107, 104_935_045],
            ),
            ([0; 4], 100_000_000, [100_000_000; 3]),
        ];
        for (round, want) in golden.iter().enumerate() {
            match round {
                0 => {
                    p.run_txns(&mut gen, 80);
                }
                1 => {
                    p.run_txns(&mut gen, 60);
                    let cut = Ts(p.db().last_ts().0 - 30);
                    assert!(p.gc_at(cut) > Ps::ZERO);
                    p.run_txns(&mut gen, 20);
                }
                _ => {}
            }
            let estimates = [
                DefragStrategy::Cpu,
                DefragStrategy::Pim,
                DefragStrategy::Hybrid,
            ]
            .map(|s| p.estimate_defrag_pause(s).ps());
            let (pass, pause) = p.defragment_all();
            assert_eq!(estimates[2], pause.ps(), "round {round}: estimate vs pause");
            let counts = [
                pass.rows_folded,
                pass.slots_recycled,
                pass.chain_steps,
                pass.bytes_copied,
            ];
            assert_eq!(&(counts, pause.ps(), estimates), want, "round {round}");
        }
    }

    #[test]
    fn query_after_defrag_equals_query_before() {
        // Defragmentation must not change query answers (it only moves
        // the newest versions into the data region).
        let mut p = small();
        let mut gen = p.txn_gen(7);
        p.run_txns(&mut gen, 60);
        let before = p.run_query(Query::Q6);
        p.defragment_all();
        let after = p.run_query(Query::Q6);
        assert_eq!(before.result, after.result);
    }

    /// An engine holding one prepared transaction whose coordinator has
    /// not decided, on top of committed versions reclamation could fold.
    fn with_a_prepared_scope() -> (Pushtap, Ts) {
        let mut p = small();
        let mut gen = p.txn_gen(4);
        p.run_txns(&mut gen, 10);
        let txn = gen.next_txn();
        let ts = p.db().ts_oracle().allocate();
        let effects = p.db().decompose(&txn, ts);
        p.prepare_effects_at(&effects, ts).expect("room");
        assert_eq!(p.db().prepared_scopes(), 1);
        (p, ts)
    }

    #[test]
    #[should_panic(expected = "prepared-but-uncommitted")]
    fn gc_refuses_rows_with_prepared_versions() {
        let (mut p, _) = with_a_prepared_scope();
        p.gc_at(Ts(5));
    }

    #[test]
    #[should_panic(expected = "prepared-but-uncommitted")]
    fn defrag_with_prepared_versions_panics() {
        let (mut p, _) = with_a_prepared_scope();
        p.defragment_all();
    }

    #[test]
    #[should_panic(expected = "prepared-but-uncommitted")]
    fn snapshot_with_prepared_versions_panics() {
        let (mut p, ts) = with_a_prepared_scope();
        p.snapshot_for_at(Query::Q6, ts);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut p = small();
        let mut gen = p.txn_gen(1);
        let t0 = p.now();
        p.run_txns(&mut gen, 10);
        let t1 = p.now();
        assert!(t1 > t0);
        p.run_query(Query::Q6);
        assert!(p.now() > t1);
    }
}
