//! The sharded HTAP service: N PUSHtap engines behind one router, one
//! transaction driver (admission, wave scheduling, and — through
//! [`crate::coordinator`] — wave execution with two-phase commit for
//! cross-shard writes), and one scatter-gather query coordinator.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

use pushtap_chbench::{Table, Txn, TxnGen};
use pushtap_core::{Pushtap, QueryReport};
use pushtap_format::LayoutError;
use pushtap_mvcc::{Ts, TsOracle};
use pushtap_olap::{gather_partials, Query};
use pushtap_oltp::{
    codec, ColumnWrite, DecodedRecord, Effect, EffectRecord, KeySet, Partition, TaggedEffect,
    TxnRole, Writes,
};
use pushtap_pim::calib::MERGE_CYCLES_PER_ROW;
use pushtap_pim::Ps;
use pushtap_sanitizer::ShadowSanitizer;
use pushtap_trace::{Histogram, Phase, TraceSink};
use pushtap_wal::{scan, MemLog, ScanOutcome, Wal, WalTrim};

use crate::arrival::ArrivalGen;
use crate::config::{OpenLoopConfig, ShardConfig};
use crate::coordinator::schedule::WaveScheduler;
use crate::coordinator::WaveLists;
use crate::durability::{
    decode_decision, CheckpointError, CheckpointReport, CrashPoint, Decided, Durability,
    RecoverError, RecoveryReport, ShardRecovery, WalBytes,
};
use crate::partition::WarehouseMap;
use crate::report::{
    CoordStats, OpenLoopReport, RemoteTouches, ShardLoad, ShardOltpReport, ShardQueryReport,
};
use crate::router::{RoutedTxn, TxnRouter};

/// Harvest handles onto an in-memory WAL deployment's durable bytes
/// ([`ShardedHtap::enable_wal`]): they outlive the service, so a test
/// can "kill" it (drop it at its armed crash point) and still read what
/// a disk would hold.
#[derive(Debug, Clone)]
pub struct WalHandles {
    /// Per-shard effect-log handles, indexed by shard.
    pub shards: Vec<MemLog>,
    /// The coordinator decision-log handle.
    pub decisions: MemLog,
}

impl WalHandles {
    /// Snapshots every log's durable bytes — the input
    /// [`ShardedHtap::recover`] takes.
    #[must_use]
    pub fn harvest(&self) -> WalBytes {
        WalBytes {
            shards: self.shards.iter().map(MemLog::bytes).collect(),
            decisions: self.decisions.bytes(),
        }
    }
}

/// A warehouse-partitioned deployment of PUSHtap engines.
///
/// Each shard is a complete [`Pushtap`] instance — its own simulated
/// memory system, PIM scan engine, MVCC state, and clock — holding the
/// shard's slice of the fact tables and a full replica of the dimension
/// tables. Transactions route by home warehouse and execute in waves
/// of mutually non-conflicting transactions, conflicting ones in global
/// stream order; cross-shard ones commit by a coordinator-driven
/// two-phase commit that forwards remote-owned effects to their owning
/// shards ([`crate::coordinator`]). Analytical queries scatter to every
/// shard (each runs its snapshot + two-phase PIM scan on its own
/// simulated clock) and gather by merging distributive partials.
///
/// Shard concurrency is *simulated*: every engine advances its own
/// clock and the coordinator couples them at barriers, while the host
/// executes the shards of a phase one after another on the caller's
/// thread. Every run is therefore deterministic down to the order
/// spans and sanitizer observations are emitted in.
///
/// All shards share one [`TsOracle`]: the coordinator stamps every
/// routed transaction with a timestamp drawn in global stream order, so
/// the deployment commits the *exact* timestamp sequence a single
/// unpartitioned instance would — and, timestamps being encoded into
/// stored rows, holds byte-identical committed state. Analytical queries
/// agree on the oracle's watermark as a global snapshot cut before
/// scattering, so a cross-shard answer reflects one consistent cut
/// rather than per-shard clocks.
#[derive(Debug)]
pub struct ShardedHtap {
    pub(crate) cfg: ShardConfig,
    pub(crate) router: TxnRouter,
    pub(crate) shards: Vec<Pushtap>,
    oracle: Arc<TsOracle>,
    pub(crate) durability: Option<Durability>,
    /// The wave scheduler, kept from run to run with its storage.
    sched: WaveScheduler,
    /// The admission keyset's decomposition, refilled per admission.
    admission: Vec<TaggedEffect>,
    /// Idle wave lists, kept from run to run: a wave takes one and hands
    /// it back, and a retry, which runs while its wave's lists are in
    /// use, takes another.
    pub(crate) wave_lists: Vec<WaveLists>,
    // The state of the current (or last) run of `drive`, reset when the
    // next one starts.
    /// Each shard's clock when the run began.
    starts: Vec<Ps>,
    /// Inbox occupancy per shard = `waiting` (admitted, not yet
    /// dispatched) + `in_flight` (dispatched; the completion clocks of
    /// the home transactions, sorted, drained lazily as later arrivals
    /// pass them). A slot stays occupied until its wave *completes* on
    /// the home clock, the way a bounded queue counts its in-service
    /// customers.
    waiting: Vec<u64>,
    in_flight: Vec<VecDeque<Ps>>,
    /// Whether arrivals remain to be admitted. Only admission reads
    /// `in_flight`, so the waves dispatched after the last arrival (a
    /// closed-loop batch's every wave) queue no completion clock.
    admitting: bool,
    /// What the run's waves account to, per shard.
    pub(crate) loads: Vec<ShardLoad>,
    stats: CoordStats,
    front: FrontEnd,
}

/// What the admission front end records over a run besides the
/// execution report: the open-loop half of an [`OpenLoopReport`]. It is
/// kept from run to run and cleared with its storage kept, so a
/// closed-loop batch, which reports none of it, allocates none of it;
/// [`ShardedHtap::run_open_loop`] takes the lists out into its report.
#[derive(Debug, Default)]
struct FrontEnd {
    /// Whether the run hands the front end out (an open-loop run): only
    /// then are the inbox depths and sojourns recorded.
    reported: bool,
    /// Arrivals turned away per shard.
    rejected: Vec<u64>,
    /// Inbox depth after every admission.
    inbox_depth: Histogram,
    /// Arrival (or run start) to home-shard wave completion, per
    /// admitted transaction.
    sojourn: Histogram,
    /// The arrival index of every admitted transaction.
    admitted_index: Vec<u64>,
    /// The first admitted transaction's timestamp.
    first_ts: Ts,
    /// The last arrival drawn.
    horizon: Ps,
}

impl ShardedHtap {
    /// Builds and populates all shards.
    ///
    /// # Errors
    ///
    /// Propagates layout-generation errors from any shard build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards or fewer warehouses
    /// than shards.
    pub fn new(cfg: ShardConfig) -> Result<ShardedHtap, LayoutError> {
        assert!(cfg.shards > 0, "need at least one shard");
        let map = WarehouseMap::new(&cfg.base.db, cfg.shards);
        let oracle = Arc::new(TsOracle::new());
        let shards = (0..cfg.shards)
            .map(|i| {
                let mut shard =
                    Pushtap::new_partitioned(cfg.base.clone(), Partition::of(i, cfg.shards))?;
                // One timestamp sequence for the whole deployment: the
                // precondition for byte identity with the single-instance
                // reference and for global-cut snapshots.
                shard.share_timestamps(Arc::clone(&oracle));
                Ok(shard)
            })
            .collect::<Result<Vec<_>, LayoutError>>()?;
        Ok(ShardedHtap {
            router: TxnRouter::new(map),
            cfg,
            starts: vec![Ps::ZERO; shards.len()],
            waiting: vec![0; shards.len()],
            in_flight: vec![VecDeque::new(); shards.len()],
            admitting: false,
            loads: Vec::new(),
            shards,
            oracle,
            durability: None,
            sched: WaveScheduler::new(usize::MAX),
            admission: Vec::new(),
            wave_lists: Vec::new(),
            stats: CoordStats::default(),
            front: FrontEnd::default(),
        })
    }

    /// Turns on write-ahead logging over in-memory stores: one effect
    /// log per shard plus the coordinator decision log. Returns harvest
    /// handles that outlive the service, so a crash-point test can kill
    /// the deployment and still read the durable bytes. Forces charge
    /// [`pushtap_pim::calib::WAL_FORCE_LATENCY`] to the forcing shard's
    /// clock (group commit amortizes one force across a wave).
    pub fn enable_wal(&mut self) -> WalHandles {
        let (logs, handles): (Vec<Wal>, Vec<MemLog>) =
            (0..self.shards.len()).map(|_| Wal::in_memory()).unzip();
        let (decision_log, decisions) = Wal::in_memory();
        self.durability = Some(Durability {
            logs,
            decision_log,
            armed: None,
            crashed: false,
        });
        WalHandles {
            shards: handles,
            decisions,
        }
    }

    /// Turns on write-ahead logging over real files under `dir`:
    /// `shard-<i>.wal` per shard plus `decisions.wal`, the layout
    /// [`WalBytes::read_dir`] reads back. Used by the CI crash-recovery
    /// smoke; tests prefer [`ShardedHtap::enable_wal`].
    ///
    /// # Errors
    ///
    /// Propagates log-file creation errors.
    pub fn enable_wal_files(&mut self, dir: &Path) -> std::io::Result<()> {
        let logs = (0..self.shards.len())
            .map(|i| Wal::to_file(&dir.join(format!("shard-{i}.wal"))))
            .collect::<std::io::Result<Vec<_>>>()?;
        let decision_log = Wal::to_file(&dir.join("decisions.wal"))?;
        self.durability = Some(Durability {
            logs,
            decision_log,
            armed: None,
            crashed: false,
        });
        Ok(())
    }

    /// Arms a simulated kill at `point`: the next run — closed loop or
    /// open loop — stops dead when it reaches the site, leaving only
    /// forced bytes behind. The service then refuses further runs
    /// ([`ShardedHtap::crashed`]);
    /// harvest the logs and [`ShardedHtap::recover`] into a fresh
    /// deployment.
    ///
    /// # Panics
    ///
    /// Panics if the WAL is not enabled — a crash without durable logs
    /// has nothing to prove.
    pub fn arm_crash(&mut self, point: CrashPoint) {
        let Some(d) = self.durability.as_mut() else {
            panic!("arm_crash requires an enabled WAL");
        };
        d.armed = Some(point);
    }

    /// Whether an armed crash has fired. A crashed service is dead: it
    /// refuses further batches, queries and defragmentation, exactly like
    /// the process it simulates.
    pub fn crashed(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.crashed)
    }

    /// Refuses to touch a crashed service: its engines are left as the
    /// kill found them, prepared scopes included.
    fn assert_alive(&self) {
        assert!(
            !self.crashed(),
            "service crashed at its armed crash point; harvest the logs and \
             recover into a fresh deployment"
        );
    }

    /// Rebuilds a deployment from the durable log bytes a crash left
    /// behind: builds the seed database fresh (deterministic), replays
    /// each shard's longest valid log prefix through the ordinary
    /// `prepare`/`commit` pipeline at the original pinned timestamps —
    /// committing warehouse-local records outright and cross-shard
    /// records only if the decision log vouches for them (presumed
    /// abort) — and advances the shared oracle past every durable
    /// timestamp. The recovered service has no WAL enabled (call
    /// [`ShardedHtap::enable_wal`] again to keep logging).
    ///
    /// Replay defragments and retries on `DeltaFull` exactly like live
    /// execution, so recovery succeeds under delta pressure and — by
    /// retry-stability of the effect decomposition — reconstructs
    /// byte-identical committed state.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Layout`] if the fresh build fails,
    /// [`RecoverError::ShardCount`] if `logs` has a different shard
    /// count than `cfg`, and [`RecoverError::Undecodable`] if a
    /// checksummed record fails to decode (log format version skew —
    /// torn or corrupt records are *truncated* by the scan, never
    /// decoded).
    pub fn recover(
        cfg: ShardConfig,
        logs: &WalBytes,
    ) -> Result<(ShardedHtap, RecoveryReport), RecoverError> {
        let mut service = ShardedHtap::new(cfg)?;
        let report = service.replay(logs)?;
        Ok((service, report))
    }

    /// [`ShardedHtap::recover`] with a trace sink installed first, so
    /// the replay emits per-shard [`Phase::Recovery`] spans into the
    /// same timeline as the post-recovery batches.
    ///
    /// # Errors
    ///
    /// As [`ShardedHtap::recover`].
    pub fn recover_traced(
        cfg: ShardConfig,
        logs: &WalBytes,
        sink: Arc<dyn TraceSink>,
    ) -> Result<(ShardedHtap, RecoveryReport), RecoverError> {
        let mut service = ShardedHtap::new(cfg)?;
        service.set_trace_sink(sink);
        let report = service.replay(logs)?;
        Ok((service, report))
    }

    /// Replays harvested log bytes into this (freshly built) deployment.
    fn replay(&mut self, logs: &WalBytes) -> Result<RecoveryReport, RecoverError> {
        if logs.shards.len() != self.shards.len() {
            return Err(RecoverError::ShardCount {
                expected: self.shards.len(),
                found: logs.shards.len(),
            });
        }
        let dscan = scan(&logs.decisions);
        let decided = Decided::of(&dscan.records)?;
        let results = self
            .shards
            .iter_mut()
            .zip(&logs.shards)
            .enumerate()
            .map(|(i, (shard, bytes))| replay_shard(i, shard, bytes, &decided))
            .collect::<Result<Vec<_>, _>>()?;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut committed: Vec<Ts> = Vec::with_capacity(results.iter().map(|r| r.1.len()).sum());
        let mut watermark = 0u64;
        for (rec, c, max_ts) in results {
            per_shard.push(rec);
            committed.extend(c);
            watermark = watermark.max(max_ts);
        }
        committed.sort_unstable();
        // Past every timestamp any durable record mentioned — skipped
        // (presumed-abort) records included, their timestamps were
        // allocated — so post-recovery batches draw fresh ones.
        self.oracle.advance_to(Ts(watermark));
        Ok(RecoveryReport {
            per_shard,
            committed,
            decisions: dscan.records.len() as u64,
            decision_truncated: dscan.truncated_bytes,
            watermark: Ts(watermark),
        })
    }

    /// The deployment-wide timestamp oracle all shards draw from.
    pub fn ts_oracle(&self) -> &Arc<TsOracle> {
        &self.oracle
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The partitioning map.
    pub fn map(&self) -> &WarehouseMap {
        self.router.map()
    }

    /// The router.
    pub fn router(&self) -> &TxnRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard engines.
    pub fn shards(&self) -> &[Pushtap] {
        &self.shards
    }

    /// One shard engine.
    pub fn shard(&self, i: u32) -> &Pushtap {
        &self.shards[i as usize]
    }

    /// Routes every engine's and the coordinator's lifecycle spans to
    /// `sink`. Shard `i`'s spans carry track `i`, so a merged trace
    /// renders one row per shard (see `pushtap_trace::chrome`). The
    /// default [`pushtap_trace::NullSink`] is disabled and keeps the hot
    /// path span-free; install a [`pushtap_trace::MemSink`] before a
    /// batch to collect its timeline.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.set_trace_sink(Arc::clone(&sink), i as u32);
        }
    }

    /// Arms a keyset-soundness shadow tracker on every engine's
    /// [`pushtap_oltp::Probe`]. Shard `i`'s recorded accesses and scopes
    /// carry track `i`, its partition index; the wave
    /// coordinator additionally reports each wave's membership, so the
    /// tracker can cross-check declared keysets, wave isolation and
    /// prepared-scope discipline across the whole deployment. Install a
    /// [`ShadowSanitizer`] before a batch and assert
    /// [`ShadowSanitizer::assert_clean`] after; an unarmed deployment
    /// holds none and pays one `Option` check per hook. Hooks charge
    /// zero simulated time, so arming never perturbs committed bytes.
    pub fn set_sanitizer(&mut self, san: Arc<ShadowSanitizer>) {
        for shard in &mut self.shards {
            shard.probe_mut().set_sanitizer(Arc::clone(&san));
        }
    }

    /// A transaction generator over the *global* population (home
    /// warehouses across every shard) — the stream a front-end would
    /// hand the router.
    pub fn global_txn_gen(&self, seed: u64) -> TxnGen {
        let m = self.map();
        TxnGen::new(seed, m.warehouses(), m.customers(), m.items(), m.stocks())
    }

    /// Per-shard generators whose home warehouses stay inside each
    /// shard's range *and* whose customer/stock rows come from the home
    /// warehouse's stripe ([`pushtap_chbench::RemoteMix::LOCAL`]) — the
    /// perfectly-partitionable load used to measure peak scale-out
    /// throughput. No row a generated transaction touches is owned by
    /// another shard, so no two-phase commit ever fires on this load.
    pub fn local_txn_gens(&self, seed: u64) -> Vec<TxnGen> {
        let m = *self.map();
        (0..self.shard_count())
            .map(|i| {
                TxnGen::with_warehouse_range(
                    seed.wrapping_add(i as u64),
                    m.warehouse_range(i),
                    m.customers(),
                    m.items(),
                    m.stocks(),
                )
                .with_remote_mix(pushtap_chbench::RemoteMix::LOCAL, m.warehouses())
            })
            .collect()
    }

    /// Routes `n` transactions from a global stream and executes them
    /// closed-loop: the whole batch is offered at once, scheduled into
    /// conflict-free waves, and every wave runs across the shards
    /// concurrently on their simulated clocks (in shard order on the
    /// host) with cross-shard members committing by two-phase commit
    /// (effects forwarded to their owning shards — see
    /// [`crate::coordinator`]). Every transaction is stamped with its
    /// stream-order timestamp from the shared oracle at admission, so
    /// the deployment commits exactly the timestamps a single
    /// unpartitioned instance executing the same stream would.
    ///
    /// # Panics
    ///
    /// Panics if the service crashed at an armed crash point.
    pub fn run_txns(&mut self, gen: &mut TxnGen, n: u64) -> ShardOltpReport {
        self.drive(n, || (gen.next_txn(), Ps::ZERO), None)
    }

    /// Executes `per_shard` transactions on every shard from that
    /// shard's own warehouse-local stream, closed-loop (no transaction
    /// crosses a shard, so no two-phase commit fires).
    ///
    /// # Panics
    ///
    /// Panics if the service crashed at an armed crash point.
    pub fn run_local_txns(&mut self, seed: u64, per_shard: u64) -> ShardOltpReport {
        // Each generator's home warehouses lie inside its own shard's
        // range, so the concatenated streams route back to exactly the
        // per-shard streams (order preserved within each shard).
        let mut gens = self.local_txn_gens(seed);
        let total = per_shard * gens.len() as u64;
        let mut drawn = 0u64;
        let next = || {
            let gen = &mut gens[(drawn / per_shard) as usize];
            drawn += 1;
            (gen.next_txn(), Ps::ZERO)
        };
        let report = self.drive(total, next, None);
        debug_assert_eq!(
            report.remote.remote_touches, 0,
            "warehouse-local streams must never cross shards"
        );
        report
    }

    /// Drives the deployment **open-loop**: `n` transactions arrive on
    /// the simulated clock of `arrivals` (not back-to-back), pass
    /// admission control at their home shard's bounded inbox, and are
    /// scheduled incrementally by a sliding-window [`WaveScheduler`]
    /// whose frontier waves dispatch whenever every engine would
    /// otherwise sit idle (work conservation) or the window fills.
    ///
    /// Rejected arrivals draw **no** timestamp, so the admitted stream
    /// carries contiguous oracle timestamps and commits byte-identical
    /// state to a closed-loop run of the same admitted transactions.
    /// This is the same driver [`ShardedHtap::run_txns`] uses, so an
    /// enabled WAL logs, group-commits and honors an armed crash point
    /// here exactly as it does there.
    ///
    /// # Panics
    ///
    /// Panics if the service crashed at an armed crash point, or if
    /// `open` has a zero inbox depth or window.
    pub fn run_open_loop(
        &mut self,
        gen: &mut TxnGen,
        arrivals: &mut ArrivalGen,
        n: u64,
        open: &OpenLoopConfig,
    ) -> OpenLoopReport {
        let exec = self.drive(n, || (gen.next_txn(), arrivals.next_arrival()), Some(open));
        let front = &mut self.front;
        OpenLoopReport {
            exec,
            arrivals: n,
            rejected_per_shard: std::mem::take(&mut front.rejected),
            sojourn: std::mem::take(&mut front.sojourn),
            inbox_depth: std::mem::take(&mut front.inbox_depth),
            first_ts: front.first_ts,
            admitted_index: std::mem::take(&mut front.admitted_index),
            horizon: front.horizon,
        }
    }

    /// The one path from a generated transaction to a committed byte.
    ///
    /// Draws `n` `(transaction, arrival)` pairs from `next`, in order.
    /// Each passes admission control at its home shard's inbox, is
    /// routed, stamped with the next oracle timestamp and its conflict
    /// keyset, and admitted to the [`WaveScheduler`]. The frontier wave
    /// dispatches — clock-gated to its members' arrivals, then through
    /// [`ShardedHtap::run_wave`] — while the window is full, while every
    /// engine would otherwise idle before the next arrival, and once
    /// the source is exhausted. A closed-loop batch is this loop with
    /// every arrival at time zero and no bound on inbox or window
    /// (`open` is `None`, read as [`CLOSED_LOOP`]): nothing dispatches
    /// until the whole batch is admitted, so it is scheduled with the
    /// full stream in view, and the front end, which it does not report,
    /// records no inbox depths or sojourns.
    ///
    /// With the WAL enabled the run logs through the deployment's
    /// [`Durability`]; an armed crash that fires stops the loop dead
    /// (admitted work not yet dispatched dies with the process) and
    /// marks the service crashed.
    ///
    /// Returns the execution report; what the front end recorded stays
    /// in [`FrontEnd`] until the next run.
    fn drive(
        &mut self,
        n: u64,
        mut next: impl FnMut() -> (Txn, Ps),
        open: Option<&OpenLoopConfig>,
    ) -> ShardOltpReport {
        self.assert_alive();
        self.front.reported = open.is_some();
        let open = open.unwrap_or(&CLOSED_LOOP);
        assert!(open.inbox_depth > 0, "inbox depth must be positive");
        self.start_run(open, n);
        let decisions_before = self.durability.as_ref().map(|d| d.decision_log.stats());
        let mut remote = RemoteTouches::default();
        for arrival_idx in 0..n {
            let (txn, at) = next();
            self.front.horizon = at;
            // Work conservation: while every engine would sit idle
            // before this arrival lands, flush pending frontier waves
            // into the gap instead of holding admitted work hostage to
            // a window that may never fill.
            self.dispatch_while(|s| s.busy_until() < at);
            if self.stats.crashed {
                break;
            }
            let mut routed = self.router.route(txn);
            let home = routed.shard as usize;
            // Free the slots of home transactions whose waves completed
            // before this arrival landed.
            let in_flight = &mut self.in_flight[home];
            while in_flight.front().is_some_and(|&done| done <= at) {
                in_flight.pop_front();
            }
            let depth = self.waiting[home] + in_flight.len() as u64;
            if depth >= open.inbox_depth as u64 {
                // Admission control: a full home inbox turns the
                // arrival away *before* it draws a timestamp, keeping
                // the admitted stream's timestamps contiguous. The
                // rejection is counted and traced, never silent.
                self.front.rejected[home] += 1;
                let probe = self.shards[home].db().probe();
                probe.span(Phase::Rejected, 0, 0, at, at);
                continue;
            }
            routed.ts = self.oracle.allocate();
            let db = self.shards[home].db();
            db.decompose_into(&routed.txn, routed.ts, &mut self.admission);
            routed.keys = KeySet::from_effects(&self.admission);
            routed.arrival = at;
            debug_assert_eq!(
                routed.ts.0,
                self.front.first_ts.0 + self.front.admitted_index.len() as u64
            );
            remote.add(&routed);
            self.waiting[home] += 1;
            if self.front.reported {
                self.front.inbox_depth.record(depth + 1);
            }
            let probe = self.shards[home].db().probe();
            if let Some((san, track)) = probe.sanitizer() {
                san.note_arrival(routed.ts.0, at.ps());
                san.inbox_admit(track, depth + 1, open.inbox_depth as u64);
            }
            // Ingestion marker: the instant this transaction entered its
            // home shard's pipeline.
            let entered = self.entered(&routed);
            probe.span(Phase::Routed, routed.ts.0, 0, entered, entered);
            self.front.admitted_index.push(arrival_idx);
            self.sched.admit(routed);
            self.dispatch_while(|s| s.sched.window_full());
        }
        // The source is exhausted; drain everything still queued.
        self.admitting = false;
        self.sched.close();
        self.dispatch_while(|_| true);

        let mut stats = self.stats;
        if let (Some(d), Some(before)) = (self.durability.as_mut(), decisions_before) {
            let after = d.decision_log.stats();
            stats.decision_appends = after.appends - before.appends;
            stats.decision_forces = after.forces - before.forces;
            // Only an enabled WAL can arm a crash; the service is dead
            // from here on.
            d.crashed = stats.crashed;
        }
        if !stats.crashed {
            debug_assert!(
                self.waiting.iter().all(|&d| d == 0),
                "drained inboxes must be empty"
            );
            // Batch boundary for the shadow tracker: every scope must
            // be decided and zero prepared versions may linger. (A
            // crashed run legitimately leaves prepared scopes behind —
            // recovery resolves them by presumed abort — so it skips
            // the check.)
            if let Some((san, _)) = self.shards[0].db().probe().sanitizer() {
                let pending: u64 = self.shards.iter().map(|s| s.db().prepared_versions()).sum();
                san.batch_end(pending);
            }
        }
        ShardOltpReport {
            per_shard: self.take_loads(),
            remote,
            coord: stats,
        }
    }

    /// Readies the per-run state for a new run of
    /// [`ShardedHtap::drive`] over `n` arrivals under `open`: each
    /// shard's start clock, empty inboxes, fresh loads and counters, and
    /// a cleared front end whose lists keep their storage. A bounded
    /// inbox holds at most its depth in flight, so its in-flight deques
    /// are reserved to that once.
    fn start_run(&mut self, open: &OpenLoopConfig, n: u64) {
        self.sched.reset(open.window, n);
        for (start, shard) in self.starts.iter_mut().zip(&self.shards) {
            *start = shard.now();
        }
        self.waiting.fill(0);
        self.in_flight.iter_mut().for_each(VecDeque::clear);
        if open.inbox_depth != usize::MAX {
            let most = usize::try_from(n).map_or(open.inbox_depth, |n| n.min(open.inbox_depth));
            self.in_flight.iter_mut().for_each(|q| q.reserve(most));
        }
        self.admitting = true;
        self.loads = self.shards.iter().map(|_| ShardLoad::default()).collect();
        self.stats = CoordStats::default();
        let front = &mut self.front;
        front.rejected.clear();
        front.rejected.resize(self.shards.len(), 0);
        front.inbox_depth.clear();
        front.sojourn.clear();
        front.admitted_index.clear();
        front.admitted_index.reserve(n as usize);
        front.first_ts = Ts(self.oracle.watermark().0 + 1);
        front.horizon = Ps::ZERO;
    }

    /// The run's per-shard loads, each with its elapsed time and its
    /// engine's own tally (transaction time, aborts, pauses and GC
    /// passes, plus end-of-run live-version / commit-log gauges) drained
    /// into it. The engine's stall histograms move in rather than merge,
    /// so a batch does not allocate their buckets twice.
    fn take_loads(&mut self) -> Vec<ShardLoad> {
        let mut loads = std::mem::take(&mut self.loads);
        for ((load, shard), start) in loads.iter_mut().zip(&mut self.shards).zip(&self.starts) {
            load.elapsed = shard.now().saturating_sub(*start);
            let mut engine = shard.take_report();
            std::mem::swap(&mut load.report.gc_stall, &mut engine.gc_stall);
            std::mem::swap(&mut load.report.defrag_stall, &mut engine.defrag_stall);
            load.report.merge(&engine);
        }
        loads
    }

    /// The instant every engine has gone idle.
    fn busy_until(&self) -> Ps {
        self.shards
            .iter()
            .map(Pushtap::now)
            .max()
            .unwrap_or(Ps::ZERO)
    }

    /// When `routed` entered the system for latency accounting: its
    /// arrival, or the run's start on its home clock if that is later.
    /// A closed-loop batch on a warm deployment thus reports the wait
    /// behind its own earlier waves, not the deployment's age. (The
    /// dispatch gate uses the raw arrival, so time-zero arrivals never
    /// couple shard clocks.)
    fn entered(&self, routed: &RoutedTxn) -> Ps {
        routed.arrival.max(self.starts[routed.shard as usize])
    }

    /// Dispatches the scheduler's frontier waves while `more` holds,
    /// work is pending and no armed crash has fired.
    fn dispatch_while(&mut self, more: impl Fn(&Self) -> bool) {
        while !self.stats.crashed && more(self) {
            let Some(wave) = self.sched.pop_wave() else {
                break;
            };
            self.dispatch(&wave);
            self.sched.recycle(wave);
        }
    }

    /// Executes one wave the scheduler released. Every shard's clock
    /// is first gated to the wave's latest member arrival — a wave
    /// cannot close before all its members exist, and gating *all*
    /// engines keeps participants and retries on the same timeline (the
    /// sanitizer's no-execution-before-arrival invariant).
    ///
    /// Each member's inbox wait lands in its home shard's queue-wait
    /// histogram and, when positive, a [`Phase::Queued`] span; after
    /// the wave, its sojourn is recorded if the run reports it and,
    /// while arrivals remain to be admitted, its inbox slot is held
    /// until the wave's completion on the home clock.
    fn dispatch(&mut self, wave: &[RoutedTxn]) {
        self.stats.waves += 1;
        self.stats.max_wave = self.stats.max_wave.max(wave.len() as u64);
        // Every cross-shard 2PC of a wave with at least two of them
        // runs concurrently with another.
        let cross = wave.iter().filter(|t| !t.participants.is_empty()).count() as u64;
        if cross >= 2 {
            self.stats.overlapped_two_pcs += cross;
        }
        // Wave ids are 1-based within the run; they are also the crash
        // points' event numbers.
        let wave_id = self.stats.waves;
        let gate = wave.iter().map(|t| t.arrival).max().unwrap_or(Ps::ZERO);
        for shard in &mut self.shards {
            let wait = gate.saturating_sub(shard.now());
            if wait > Ps::ZERO {
                shard.advance(wait);
            }
        }
        for routed in wave {
            let home = routed.shard as usize;
            self.waiting[home] -= 1;
            let entered = self.entered(routed);
            let s = &self.shards[home];
            let wait = s.now().saturating_sub(entered);
            self.loads[home].report.queue_wait.record(wait.ps());
            if wait > Ps::ZERO {
                let probe = s.db().probe();
                probe.span(Phase::Queued, routed.ts.0, wave_id, entered, s.now());
            }
        }
        let crash = self.durability.as_ref().and_then(|d| d.armed_at(wave_id));
        self.stats.crashed = self.run_wave(wave, wave_id, crash);
        if self.stats.crashed {
            return;
        }
        for routed in wave {
            let home = routed.shard as usize;
            // Shard clocks are monotone and waves execute in dispatch
            // order, so each in-flight queue stays sorted.
            let done = self.shards[home].now();
            if self.front.reported {
                let sojourn = done.saturating_sub(self.entered(routed));
                self.front.sojourn.record(sojourn.ps());
            }
            if self.admitting {
                self.in_flight[home].push_back(done);
            }
        }
    }

    /// Defragments every shard, each on its own simulated clock (each
    /// pauses its own OLTP, §5.3). Returns the deployment-wide pause:
    /// the slowest shard's.
    ///
    /// # Panics
    ///
    /// Panics if the service crashed at an armed crash point.
    pub fn defragment_all(&mut self) -> Ps {
        self.assert_alive();
        self.shards
            .iter_mut()
            .map(|shard| shard.defragment_all().1)
            .max()
            .unwrap_or(Ps::ZERO)
    }

    /// Checkpoints the write-ahead logs: compacts every shard's effect
    /// log below the oracle watermark and drops every covered decision
    /// entry, bounding log growth the way garbage collection bounds
    /// version-chain growth.
    ///
    /// A naive "drop records below the cut" breaks crash recovery's
    /// byte identity: replay reconstructs committed state *from the
    /// log*, so a record may only disappear if the state it built is
    /// re-derivable. The compaction therefore keeps **one record per
    /// committed transaction** — preserving its pinned timestamp and
    /// role, which downstream identity checks reconstruct the committed
    /// stream from — and shrinks its payload to the part that still
    /// matters:
    ///
    /// - presumed-abort casualties (cross-shard records the decision
    ///   log never vouched for) are dropped outright;
    /// - `Read` effects are dropped (they move no bytes);
    /// - `Update` writes survive only on the row+column's **last**
    ///   committed writer, with read-modify-write [`ColumnWrite::Add`]s
    ///   folded into [`ColumnWrite::Set`]s of the newest committed
    ///   bytes ([`pushtap_oltp::TpccDb::committed_column`]) — a row's
    ///   replayed version timestamp still matches, because the row's
    ///   last writer is always some column's last writer;
    /// - `Insert` effects are kept in order (replay rebuilds stripe-
    ///   ring cursors and indexes by re-running them);
    /// - survivors are rewritten with `cross = false`: their commit
    ///   decision is baked into survival itself, so the decision log
    ///   truncates to nothing below the cut.
    ///
    /// Recovery code is untouched — a compacted log replays through the
    /// exact pipeline a full log does, to byte-identical state.
    ///
    /// # Panics
    ///
    /// Panics with the [`CheckpointError`] that
    /// [`ShardedHtap::try_checkpoint`] returns — use that where the
    /// caller's timing or the log files' contents are not the caller's
    /// own.
    pub fn checkpoint(&mut self) -> CheckpointReport {
        match self.try_checkpoint() {
            Ok(report) => report,
            Err(e) => panic!("checkpoint failed: {e}"),
        }
    }

    /// [`ShardedHtap::checkpoint`], reporting instead of panicking what
    /// depends on the caller's timing or on log bytes. Every
    /// precondition — on the service and on every log — is checked
    /// before the first log is rewritten, so an unmet one leaves every
    /// durable image as it was. On [`CheckpointError::Log`] with an
    /// undecodable record the logs still recover to the same state:
    /// each effect log compacts on its own, and the decision log is
    /// trimmed only after all of them have.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::WalDisabled`]; [`CheckpointError::Crashed`];
    /// [`CheckpointError::SnapshotPinned`] (a pinned reader's cut must
    /// stay reconstructible); [`CheckpointError::PendingBytes`] if any
    /// log holds unforced bytes (a checkpoint runs on a quiesced
    /// deployment between batches); [`CheckpointError::Log`] with
    /// [`RecoverError::TornLog`] if any log's durable image ends in a
    /// torn frame (a file-backed log cut mid-write), or with
    /// [`RecoverError::Undecodable`] if a checksummed record of any log
    /// fails to decode (a file-backed log another format version wrote
    /// into).
    pub fn try_checkpoint(&mut self) -> Result<CheckpointReport, CheckpointError> {
        if self.crashed() {
            return Err(CheckpointError::Crashed);
        }
        let pins = self.oracle.active_pins();
        if pins > 0 {
            return Err(CheckpointError::SnapshotPinned { pins });
        }
        let cut = self.oracle.watermark();
        let ShardedHtap {
            shards, durability, ..
        } = self;
        let d = durability.as_mut().ok_or(CheckpointError::WalDisabled)?;
        // `Wal::truncate_before` asserts a log has nothing pending; find
        // out here, on every log, before the first one is rewritten.
        let pending_effects = d.logs.iter().position(Wal::has_pending).map(Some);
        if let Some(shard) = pending_effects.or(d.decision_log.has_pending().then_some(None)) {
            return Err(CheckpointError::PendingBytes { shard });
        }
        // Scan every log once, before the first rewrite: a torn tail on
        // any log fails the checkpoint with every log file untouched.
        let images = WalBytes {
            shards: d.logs.iter().map(Wal::durable_image).collect(),
            decisions: d.decision_log.durable_image(),
        };
        let scans: Vec<ScanOutcome<'_>> = images.shards.iter().map(|image| scan(image)).collect();
        let dscan = scan(&images.decisions);
        let torn_effects = scans.iter().position(|s| s.torn).map(Some);
        if let Some(shard) = torn_effects.or(dscan.torn.then_some(None)) {
            return Err(RecoverError::TornLog { shard }.into());
        }
        let decided = Decided::of(&dscan.records)?;
        let per_shard = shards
            .iter()
            .zip(d.logs.iter_mut())
            .zip(&scans)
            .enumerate()
            .map(|(i, ((shard, log), scanned))| compact_shard_log(i, shard, log, scanned, &decided))
            .collect::<Result<Vec<_>, RecoverError>>()?;
        // Every entry decoded a moment ago, into `decided`.
        let decisions = d.decision_log.rewrite(&dscan, |i, out| {
            out.extend_from_slice(dscan.records[i]);
            decode_decision(dscan.records[i]).is_ok_and(|ts| ts.0 > cut.0)
        });
        Ok(CheckpointReport {
            cut,
            per_shard,
            decisions,
        })
    }

    /// Answers `query` by global-cut scatter-gather: the coordinator
    /// first agrees on the snapshot cut — the shared oracle's current
    /// watermark — then every shard snapshots *at that cut* and runs its
    /// partial on its own simulated clock (two-phase PIM scan over its
    /// slice; the scatter's latency is the slowest shard's), and the
    /// coordinator merges the distributive partials.
    ///
    /// Because every shard cuts at the same timestamp, the merged answer
    /// reflects one consistent global snapshot (every transaction with a
    /// timestamp at or below the cut, nothing newer) rather than each
    /// shard's own clock, and is value-identical to running the query on
    /// a single unpartitioned instance that executed the same committed
    /// transaction stream up to the cut. The agreed cut is recorded in
    /// [`ShardQueryReport::cut`].
    ///
    /// # Panics
    ///
    /// Panics if the service crashed at an armed crash point.
    pub fn run_query(&mut self, query: Query) -> ShardQueryReport {
        // Agree on the cut before scattering: the oracle's watermark
        // bounds every committed timestamp on every shard.
        let cut = self.oracle.watermark();
        self.run_query_at(query, cut)
    }

    /// [`ShardedHtap::run_query`] at an explicit snapshot cut — a
    /// historical query. The caller is responsible for the cut's
    /// *reconstructibility*: garbage collection may already have folded
    /// versions a cut below its eligible floor needed, so a long-lived
    /// historical cut must be kept readable with a standing
    /// [`TsOracle::pin_snapshot`] taken while the cut was still at or
    /// above the floor.
    ///
    /// # Panics
    ///
    /// Panics if the service crashed at an armed crash point.
    pub fn run_query_at(&mut self, query: Query, cut: Ts) -> ShardQueryReport {
        self.assert_alive();
        // Pin the cut for the scatter's duration: garbage collection on
        // any shard may reclaim only strictly below it, so every
        // partial reads its exact as-of-cut versions even if GC runs
        // mid-scatter. An armed sanitizer reads the pin off the oracle
        // and fires if a reclaimed version violates it.
        let _pin = self.oracle.pin_snapshot(cut);
        let partials: Vec<QueryReport> = self
            .shards
            .iter_mut()
            .map(|shard| shard.run_query_at(query, cut))
            .collect();
        let scatter_latency = partials.iter().map(|p| p.total()).max().unwrap_or(Ps::ZERO);
        let gathered: u64 = partials.iter().map(|p| p.result.rows()).sum();
        let merge_time = self.shards[0]
            .db()
            .meter()
            .cpu
            .cycles(gathered * MERGE_CYCLES_PER_ROW);
        let result = gather_partials(partials.iter().map(|p| &p.result))
            .unwrap_or_else(|| panic!("scatter-gather over zero shards"));
        ShardQueryReport {
            result,
            per_shard: partials,
            scatter_latency,
            merge_time,
            cut,
        }
    }
}

/// A closed-loop batch, expressed as front-end bounds: no inbox bound
/// (nothing is ever rejected) and no window bound (nothing dispatches
/// before the whole batch is admitted).
const CLOSED_LOOP: OpenLoopConfig = OpenLoopConfig {
    inbox_depth: usize::MAX,
    window: usize::MAX,
};

/// A shard effect log's records, decoded into one effect list.
struct DecodedLog {
    /// Every record's effects, one record after another.
    effects: Vec<TaggedEffect>,
    /// The records in log order, each with its range of `effects`.
    records: Vec<DecodedRecord>,
}

/// Where the appends of one timestamp sit in a [`DecodedLog`]: a wave
/// casualty's forced record and its retry's share a timestamp.
struct Appends {
    /// The position of the timestamp's first append.
    first: usize,
    /// The position of its last append — the one replay keeps.
    last: usize,
}

impl DecodedLog {
    /// Decodes the scanned records of shard `shard`'s effect log. The
    /// scan already truncated any torn or bit-flipped tail; a record
    /// whose checksum holds but whose payload does not decode is an
    /// error — the bytes are intact, they are just not ours. The effect
    /// list is reserved once, to the records' declared effect counts,
    /// each capped by what its payload can hold.
    fn decode(shard: usize, scanned: &[&[u8]]) -> Result<DecodedLog, RecoverError> {
        let effects = scanned
            .iter()
            .map(|payload| codec::effect_count(payload))
            .sum();
        let mut log = DecodedLog {
            effects: Vec::with_capacity(effects),
            records: Vec::with_capacity(scanned.len()),
        };
        for (record, payload) in scanned.iter().enumerate() {
            let decoded =
                EffectRecord::decode_into(payload, &mut log.effects).map_err(|error| {
                    RecoverError::Undecodable {
                        shard: Some(shard),
                        record,
                        error,
                    }
                })?;
            log.records.push(decoded);
        }
        Ok(log)
    }

    /// The effects of `record`, in application order.
    fn effects_of(&self, record: &DecodedRecord) -> &[TaggedEffect] {
        &self.effects[record.effects.clone()]
    }

    /// Every timestamp of the log once, ascending, with the positions of
    /// its first and last append. Duplicate appends — a wave casualty
    /// and its retry — are byte-identical by retry-stability, so keeping
    /// the last is harmless.
    fn appends_by_ts(&self) -> Vec<Appends> {
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_unstable_by_key(|&i| (self.records[i].ts, i));
        let mut appends: Vec<Appends> = Vec::with_capacity(order.len());
        for i in order {
            match appends.last_mut() {
                Some(a) if self.records[a.last].ts == self.records[i].ts => a.last = i,
                _ => appends.push(Appends { first: i, last: i }),
            }
        }
        appends
    }
}

/// Compacts one shard's effect log under a checkpoint (see
/// [`ShardedHtap::checkpoint`] for the invariants) from `scanned`, the
/// checkpoint's one scan of the log's durable image: decodes it, finds
/// each row+column's last committed writer, and rewrites the log
/// ([`Wal::rewrite`]) with each surviving record encoded straight into
/// the output buffer.
fn compact_shard_log(
    index: usize,
    shard: &Pushtap,
    log: &mut Wal,
    scanned: &ScanOutcome<'_>,
    decided: &Decided,
) -> Result<WalTrim, RecoverError> {
    let decoded = DecodedLog::decode(index, &scanned.records)?;
    let mut appends = decoded.appends_by_ts();
    let committed = |r: &DecodedRecord| !r.cross || decided.contains(r.ts);
    // Last committed writer per (table, row, column): every committed
    // update write, sorted by key and newest first, then one per key —
    // the only update writes worth replaying. A counting pass sizes the
    // list.
    let committed_writes = || {
        appends
            .iter()
            .map(|a| &decoded.records[a.last])
            .filter(|r| committed(r))
            .flat_map(|r| {
                decoded
                    .effects_of(r)
                    .iter()
                    .map(move |te| (&te.effect, r.ts))
            })
            .filter_map(|(effect, ts)| match effect {
                Effect::Update { table, row, writes } => Some((*table, *row, writes, ts)),
                _ => None,
            })
            .flat_map(|(table, row, writes, ts)| {
                writes.iter().map(move |(col, _)| ((table, row, *col), ts))
            })
    };
    let mut last_writer: Vec<((Table, u64, u32), Ts)> =
        Vec::with_capacity(committed_writes().count());
    last_writer.extend(committed_writes());
    last_writer.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    last_writer.dedup_by_key(|w| w.0);
    let last_writes = |key: (Table, u64, u32), ts: Ts| {
        last_writer
            .binary_search_by(|w| w.0.cmp(&key))
            .is_ok_and(|i| last_writer[i].1 == ts)
    };
    // Emit each surviving timestamp once, at its first append, with its
    // last append's effects (duplicates are byte-identical, so
    // first-vs-last is immaterial). The rewrite walks the log in order.
    appends.sort_unstable_by_key(|a| a.first);
    let mut emit = appends.iter().peekable();
    let db = shard.db();
    let largest = decoded.records.iter().map(|r| r.effects.len()).max();
    let mut kept: Vec<TaggedEffect> = Vec::with_capacity(largest.unwrap_or(0));
    Ok(log.rewrite(scanned, |i, out| {
        let Some(a) = emit.next_if(|a| a.first == i) else {
            return false; // a later append of an emitted timestamp
        };
        let r = &decoded.records[a.last];
        if !committed(r) {
            return false; // presumed abort, now permanent
        }
        kept.clear();
        for te in decoded.effects_of(r) {
            match &te.effect {
                Effect::Read { .. } => {} // moves no bytes
                Effect::Insert { .. } => kept.push(*te),
                Effect::Update { table, row, writes } => {
                    let writes: Writes = writes
                        .iter()
                        .filter(|(col, _)| last_writes((*table, *row, *col), r.ts))
                        .map(|(col, write)| {
                            let (ColumnWrite::Set { width, .. } | ColumnWrite::Add { width, .. }) =
                                *write;
                            let committed = db.committed_column(*table, *row, *col);
                            (*col, ColumnWrite::set(committed, width))
                        })
                        .collect();
                    if !writes.is_empty() {
                        kept.push(TaggedEffect {
                            effect: Effect::Update {
                                table: *table,
                                row: *row,
                                writes,
                            },
                            warehouse: te.warehouse,
                        });
                    }
                }
            }
        }
        // A participant record with nothing left to apply is pure
        // noise; a coordinator record must survive even empty — the
        // committed-stream reconstruction reads home-side roles.
        if kept.is_empty() && r.role == TxnRole::Participant {
            return false;
        }
        codec::encode_parts_into(out, r.ts, r.role, false, &kept);
        true
    }))
}

/// Replays shard `index`'s log image: scans the longest valid record
/// prefix, decodes it (nothing is applied unless all of it decodes),
/// dedupes by timestamp keeping the last append (a wave attempt and its
/// retry log byte-identical records — decomposition is retry-stable —
/// so last-wins is harmless), and re-commits every record that is
/// warehouse-local or decision-log-vouched through the ordinary
/// prepare/commit pipeline at its pinned timestamp. Returns the shard's
/// outcome, the home-side (coordinator-role) timestamps it committed,
/// and the highest timestamp any durable record mentioned.
fn replay_shard(
    index: usize,
    shard: &mut Pushtap,
    bytes: &[u8],
    decided: &Decided,
) -> Result<(ShardRecovery, Vec<Ts>, u64), RecoverError> {
    let log = scan(bytes);
    let decoded = DecodedLog::decode(index, &log.records)?;
    let appends = decoded.appends_by_ts();
    let mut rec = ShardRecovery {
        records: log.records.len() as u64,
        duplicates: (log.records.len() - appends.len()) as u64,
        truncated_bytes: log.truncated_bytes,
        torn: log.torn,
        ..ShardRecovery::default()
    };
    let mut committed: Vec<Ts> = Vec::with_capacity(appends.len());
    let mut max_ts = 0u64;
    let start = shard.now();
    // Ascending timestamp order: per-row commit timestamps must land
    // monotonically, exactly as the live coordinator applied them.
    for a in &appends {
        let r = &decoded.records[a.last];
        let ts = r.ts;
        max_ts = max_ts.max(ts.0);
        // Presumed abort: a cross-shard record commits only if the
        // decision log vouches for its timestamp. (The force ordering —
        // effect logs before the decision log — guarantees the converse:
        // a durable decision implies durable effect records everywhere.)
        if r.cross && !decided.contains(ts) {
            rec.skipped += 1;
            continue;
        }
        let effects = decoded.effects_of(r);
        loop {
            match shard.prepare_effects_at(effects, ts) {
                Ok(_) => break,
                Err(_full) => {
                    // Reclaim and retry, as live execution does. Live
                    // execution reclaims GC-first; replay defragments,
                    // which the recovery span golden in
                    // `trace_reconcile.rs` pins. Retry-stability keeps
                    // the committed bytes identical either way, however
                    // often replay has to reclaim arenas.
                    rec.defrag_retries += 1;
                    shard.defragment_all();
                }
            }
        }
        shard.commit_prepared(ts, r.role);
        rec.replayed += 1;
        rec.effects += effects.len() as u64;
        if r.role == TxnRole::Coordinator {
            committed.push(ts);
        }
    }
    if rec.replayed > 0 {
        shard
            .db()
            .probe()
            .span(Phase::Recovery, 0, 0, start, shard.now());
    }
    // Replay is not a batch: the recovered deployment's first batch
    // reports only itself.
    shard.take_report();
    Ok((rec, committed, max_ts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_olap::QueryResult;

    fn service(shards: u32) -> ShardedHtap {
        ShardedHtap::new(ShardConfig::small(shards)).expect("build")
    }

    /// A log decodes into one effect list reserved once, exactly; a
    /// record whose effect count its payload cannot back is a typed
    /// error naming the record, not a reservation that size.
    #[test]
    fn a_decoded_log_reserves_its_effects_once() {
        let read = |row| TaggedEffect {
            effect: Effect::Read {
                table: Table::Stock,
                row,
            },
            warehouse: 1,
        };
        let record = |ts, effects: Vec<TaggedEffect>| {
            EffectRecord {
                ts: Ts(ts),
                role: TxnRole::Coordinator,
                cross: false,
                effects,
            }
            .encode()
        };
        let (first, second) = (record(1, vec![read(3), read(4)]), record(2, vec![read(5)]));
        let decoded = DecodedLog::decode(0, &[&first, &second]).expect("the records decode");
        assert_eq!(decoded.effects.len(), 3);
        assert_eq!(decoded.effects.capacity(), 3);
        let mut lying = second.clone();
        lying[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(codec::effect_count(&lying), 1, "capped by the payload");
        assert_eq!(
            DecodedLog::decode(3, &[&first, &lying]).map(|log| log.records.len()),
            Err(RecoverError::Undecodable {
                shard: Some(3),
                record: 1,
                error: pushtap_oltp::CodecError::Truncated,
            })
        );
    }

    #[test]
    fn build_partitions_fact_tables_and_replicates_dimensions() {
        use pushtap_chbench::Table;
        let s = service(4);
        let ol_total: u64 = (0..4)
            .map(|i| s.shard(i).db().table(Table::OrderLine).n_rows())
            .sum();
        let single = service(1);
        assert_eq!(
            ol_total,
            single.shard(0).db().table(Table::OrderLine).n_rows(),
            "ORDERLINE must partition without loss"
        );
        for i in 0..4 {
            assert_eq!(
                s.shard(i).db().table(Table::Item).n_rows(),
                single.shard(0).db().table(Table::Item).n_rows(),
                "ITEM must be replicated"
            );
        }
    }

    /// A two-shard deployment with an in-memory WAL and a forced batch
    /// behind it.
    fn durable_service() -> ShardedHtap {
        let mut s = service(2);
        let _handles = s.enable_wal();
        let mut gen = s.global_txn_gen(5);
        assert_eq!(s.run_txns(&mut gen, 24).committed(), 24);
        s
    }

    /// The durable image of every effect log, then the decision log's.
    fn durable_images(s: &ShardedHtap) -> Vec<Vec<u8>> {
        let d = s.durability.as_ref().expect("wal enabled");
        d.logs
            .iter()
            .chain([&d.decision_log])
            .map(Wal::durable_image)
            .collect()
    }

    #[test]
    fn checkpoint_without_a_wal_is_a_typed_error() {
        let mut s = service(2);
        assert_eq!(s.try_checkpoint().err(), Some(CheckpointError::WalDisabled));
    }

    #[test]
    fn checkpoint_of_a_crashed_service_is_a_typed_error() {
        let mut s = service(2);
        let _handles = s.enable_wal();
        s.arm_crash(CrashPoint {
            site: crate::durability::CrashSite::BeforePrepare,
            event: 1,
        });
        let warehouses = s.map().warehouses();
        let mut gen = s
            .global_txn_gen(5)
            .with_remote_mix(pushtap_chbench::RemoteMix::Uniform, warehouses);
        s.run_txns(&mut gen, 24);
        assert!(s.crashed());
        let before = durable_images(&s);
        assert_eq!(s.try_checkpoint().err(), Some(CheckpointError::Crashed));
        assert_eq!(durable_images(&s), before);
    }

    /// A two-shard deployment killed just after a participant prepared:
    /// its engines still hold prepared scopes.
    fn crashed_after_prepare() -> ShardedHtap {
        let mut s = service(2);
        let _handles = s.enable_wal();
        s.arm_crash(CrashPoint {
            site: crate::durability::CrashSite::AfterPrepare,
            event: 2,
        });
        let warehouses = s.map().warehouses();
        let mut gen = s
            .global_txn_gen(5)
            .with_remote_mix(pushtap_chbench::RemoteMix::Uniform, warehouses);
        s.run_txns(&mut gen, 60);
        assert!(s.crashed());
        assert!(s.shards().iter().any(|sh| sh.db().prepared_scopes() > 0));
        s
    }

    #[test]
    #[should_panic(expected = "service crashed")]
    fn a_crashed_service_refuses_queries() {
        crashed_after_prepare().run_query(Query::Q6);
    }

    #[test]
    #[should_panic(expected = "service crashed")]
    fn a_crashed_service_refuses_defragmentation() {
        crashed_after_prepare().defragment_all();
    }

    #[test]
    fn checkpoint_under_a_snapshot_pin_is_a_typed_error() {
        let mut s = durable_service();
        let before = durable_images(&s);
        let pin = s.ts_oracle().pin_snapshot(Ts(10));
        assert_eq!(
            s.try_checkpoint().err(),
            Some(CheckpointError::SnapshotPinned { pins: 1 })
        );
        assert_eq!(durable_images(&s), before);
        // Released, the same deployment checkpoints.
        drop(pin);
        assert_eq!(s.try_checkpoint().expect("unpinned").cut, Ts(24));
    }

    /// Unforced bytes in a *later* log used to trip the assert inside
    /// `Wal::truncate_before` after the earlier shards' logs had been
    /// rewritten; now no durable image changes.
    #[test]
    fn checkpoint_over_unforced_bytes_is_a_typed_error_and_rewrites_nothing() {
        let mut s = durable_service();
        let before = durable_images(&s);
        let d = s.durability.as_mut().expect("wal enabled");
        d.decision_log.append(b"unforced");
        assert_eq!(
            s.try_checkpoint().err(),
            Some(CheckpointError::PendingBytes { shard: None })
        );
        assert_eq!(durable_images(&s), before);
        let d = s.durability.as_mut().expect("wal enabled");
        d.logs[1].append(b"unforced");
        assert_eq!(
            s.try_checkpoint().err(),
            Some(CheckpointError::PendingBytes { shard: Some(1) })
        );
        assert_eq!(
            durable_images(&s),
            before,
            "shard 0's log must not be rewritten"
        );
    }

    #[test]
    #[should_panic(expected = "checkpoint failed: checkpoint requires an enabled WAL")]
    fn checkpoint_panics_with_the_typed_message() {
        service(1).checkpoint();
    }

    #[test]
    fn routed_batch_commits_everything() {
        let mut s = service(2);
        let mut gen = s.global_txn_gen(3);
        let report = s.run_txns(&mut gen, 120);
        assert_eq!(report.committed(), 120);
        assert_eq!(report.remote.routed, 120);
        assert!(report.makespan() > Ps::ZERO);
    }

    #[test]
    fn local_load_scales_across_shards() {
        let mut s = service(4);
        let report = s.run_local_txns(9, 40);
        assert_eq!(report.committed(), 160);
        // Four engines running concurrently: the makespan must sit well
        // below the summed busy time.
        assert!(report.parallel_efficiency() > 2.0);
    }

    /// A uniform stream pays the two-phase commit's hops at the
    /// calibrated latencies; a warehouse-local batch sends no message.
    #[test]
    fn two_pc_rounds_cost_time() {
        let mut s = service(4);
        let mut gen = s.global_txn_gen(7);
        let routed = s.run_txns(&mut gen, 100);
        let local = s.run_local_txns(9, 25);
        let (routed_total, local_total) = (routed.merged(), local.merged());
        assert!(routed.remote.remote_touches > 0);
        assert!(routed_total.two_pc_time > Ps::ZERO);
        assert!(routed_total.two_pc_stall.count() > 0);
        assert!(routed.two_pc_time_share() > 0.0);
        assert_eq!(local_total.two_pc_time, Ps::ZERO, "local batch paid hops");
        assert_eq!(local_total.two_pc_stall.count(), 0);
        assert_eq!(local.two_pc_time_share(), 0.0);
    }

    /// Cross-shard transactions go through the full 2PC pipeline: the
    /// home shard prepares, participants receive forwarded effects, and
    /// everything commits — the metrics must say so.
    #[test]
    fn cross_shard_txns_prepare_and_forward_effects() {
        let mut s = service(4);
        let mut gen = s.global_txn_gen(7);
        let report = s.run_txns(&mut gen, 100);
        assert_eq!(report.committed(), 100);
        assert!(report.remote.cross_shard_txns > 0);
        // Every cross-shard transaction prepares at home and on each
        // participant at least once.
        let total = report.merged();
        assert!(total.prepared_txns > report.remote.cross_shard_txns);
        assert!(total.forwarded_effects >= report.remote.remote_touches);
        assert!(total.two_pc_stall.count() > 0);
        assert!(total.two_pc_time > Ps::ZERO);
        // No prepared scope survives the batch.
        for shard in s.shards() {
            assert_eq!(shard.db().prepared_scopes(), 0);
            assert_eq!(shard.db().prepared_versions(), 0);
        }
    }

    /// One wave through [`ShardedHtap::run_wave`] where the order of a
    /// shard's items matters: the wave lists a later transaction (homed
    /// at shard 0) ahead of an earlier one whose forwarded customer
    /// update also lands on shard 0, so shard 0 must prepare the
    /// forwarded item first — and that item finds its arena full, so the
    /// earlier transaction's participant votes no while its home voted
    /// yes. The clocks, counters and slots are golden values.
    #[test]
    fn a_wave_prepares_each_shards_items_in_timestamp_order_and_retries_the_no_vote() {
        use pushtap_chbench::{Payment, ALL_TABLES};
        use pushtap_format::RowSlot;
        let mut cfg = ShardConfig::small(3);
        // Two slots per rotation arena, on every table.
        cfg.base.db.delta_frac = 0.0;
        cfg.base.db.min_delta_rows = 16;
        let mut s = ShardedHtap::new(cfg).expect("build");
        let customers = s.shards[0].db().global_rows_of(Table::Customer);
        let payment = |w_id, c_row| {
            Txn::Payment(Payment {
                w_id,
                d_id: 1,
                c_row,
                amount: 100,
            })
        };
        // Shard 0 owns warehouses 0..2, shard 1 2..5, shard 2 5..8.
        // Customers 0, 1 and 2 share shard 0's first arena; the last
        // customer of warehouse 1's stripe uses another.
        let local = pushtap_chbench::stripe(1, customers, 8).end - 1;
        let route = |txn| {
            let mut routed = s.router.route(txn);
            routed.ts = s.oracle.allocate();
            routed
        };
        let fill = [route(payment(5, 0)), route(payment(6, 1))];
        let earlier = route(payment(2, 2));
        let later = route(payment(0, local));
        assert_eq!((earlier.shard, &earlier.participants[..]), (1, &[0][..]));
        assert_eq!((later.shard, later.participants.len()), (0, 0));
        assert!(earlier.ts < later.ts);

        let run = |s: &mut ShardedHtap, wave: &[RoutedTxn]| {
            s.start_run(&CLOSED_LOOP, wave.len() as u64);
            assert!(!s.run_wave(wave, 1, None));
            s.take_loads()
        };
        // Two payments homed at shard 2 fill the arena on shard 0.
        let loads = run(&mut s, &fill);
        assert_eq!(loads[2].report.committed, 2);
        assert_eq!(loads.iter().map(|l| l.report.aborts).sum::<u64>(), 0);

        let loads = run(&mut s, &[later, earlier]);
        let per_shard = |f: fn(&ShardLoad) -> u64| loads.iter().map(f).collect::<Vec<u64>>();
        // The later transaction commits in the wave; the earlier one
        // after its retry, at home on shard 1.
        assert_eq!(per_shard(|l| l.report.committed), [1, 1, 0]);
        // Shard 0 votes no (one abort); shard 1 rolls back the home half
        // it had prepared (one abort, by the coordinator's decision).
        assert_eq!(per_shard(|l| l.report.aborts), [1, 1, 0]);
        assert_eq!(per_shard(|l| l.report.participant_aborts), [0, 1, 0]);
        assert_eq!(per_shard(|l| l.report.retried_txns), [0, 1, 0]);
        // Only the no-voter reclaims, and a GC pass is enough.
        assert_eq!(per_shard(|l| l.report.gc_stall.count()), [1, 0, 0]);
        assert_eq!(per_shard(|l| l.report.defrag_stall.count()), [0, 0, 0]);
        assert_eq!(per_shard(|l| l.report.gc_time.ps()), [10_054_223, 0, 0]);
        // Shard 0's no-vote wasted the probe its fetch pass ran before
        // the update hit the full arena.
        assert_eq!(
            per_shard(|l| l.report.wasted_retry_time.ps()),
            [62_500, 1_366_250, 0]
        );
        let clocks: Vec<u64> = s.shards.iter().map(|p| p.now().ps()).collect();
        assert_eq!(clocks, [16_671_873, 17_209_544, 3_715_000]);
        // Where every version ended up: (table, local row, rotation,
        // slot) of each row with a delta version, per shard.
        let slots: Vec<Vec<(Table, u64, u32, u64)>> = s
            .shards
            .iter()
            .map(|p| {
                let mut out = Vec::new();
                for table in ALL_TABLES {
                    let chains = p.db().table(table).chains();
                    for row in chains.updated_rows() {
                        if let RowSlot::Delta { rotation, idx } = chains.newest_slot(row) {
                            out.push((table, row, rotation, idx));
                        }
                    }
                }
                out
            })
            .collect();
        use Table::{Customer, District, History, Warehouse};
        assert_eq!(
            slots,
            [
                vec![(Customer, 2, 0, 1)],
                vec![
                    (Warehouse, 0, 0, 0),
                    (District, 1, 0, 0),
                    (History, 0, 0, 0)
                ],
                vec![
                    (Warehouse, 0, 0, 0),
                    (Warehouse, 1, 0, 1),
                    (District, 1, 0, 0),
                    (District, 11, 0, 1),
                    (History, 0, 0, 0),
                    (History, 375, 5, 0),
                ],
            ]
        );
        for shard in s.shards() {
            assert_eq!(shard.db().prepared_scopes(), 0);
            assert_eq!(shard.db().prepared_versions(), 0);
        }
    }

    #[test]
    fn scatter_gather_merges_all_shards() {
        let mut s = service(2);
        let mut gen = s.global_txn_gen(5);
        s.run_txns(&mut gen, 80);
        let q6 = s.run_query(Query::Q6);
        assert_eq!(q6.per_shard.len(), 2);
        let QueryResult::Q6 { revenue } = q6.result else {
            panic!("wrong kind")
        };
        let partials: u64 = q6
            .per_shard
            .iter()
            .map(|p| {
                let QueryResult::Q6 { revenue } = p.result else {
                    panic!("wrong kind")
                };
                revenue
            })
            .sum();
        assert_eq!(revenue, partials);
        assert!(q6.merge_time > Ps::ZERO);
        assert!(q6.total() >= q6.scatter_latency);
    }

    #[test]
    fn one_oracle_drives_all_shards_and_queries_record_the_cut() {
        let mut s = service(4);
        let mut gen = s.global_txn_gen(13);
        s.run_txns(&mut gen, 96);
        // Stream-order stamping: the oracle handed out exactly one
        // timestamp per routed transaction, and every shard sees the
        // deployment watermark.
        assert_eq!(s.ts_oracle().watermark().0, 96);
        for shard in s.shards() {
            assert_eq!(shard.db().last_ts().0, 96);
        }
        // The scattered query agrees on one cut and records it.
        let q = s.run_query(Query::Q6);
        assert_eq!(q.cut, pushtap_mvcc::Ts(96));
        assert_eq!(q.global_cut(), Some(pushtap_mvcc::Ts(96)));
        for p in &q.per_shard {
            assert_eq!(p.cut.0, 96, "every shard snapshot at the agreed cut");
        }
    }

    #[test]
    fn queries_see_fresh_cross_shard_data() {
        let mut s = service(2);
        let before = s.run_query(Query::Q9);
        let mut gen = s.global_txn_gen(21);
        s.run_txns(&mut gen, 100);
        let after = s.run_query(Query::Q9);
        assert_ne!(before.result, after.result, "Q9 must see new order lines");
    }
}
