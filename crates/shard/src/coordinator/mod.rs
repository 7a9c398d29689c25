//! The transaction coordinator: one wave at a time over the shard
//! engines, with a simulated two-phase commit for transactions whose
//! effects span shards. There is one execution path — `run_wave` — and
//! every committed byte of the sharded service goes through it:
//! closed-loop batches, open-loop arrivals, logged and unlogged runs,
//! and the retries of its own casualties (a retry is a wave of one).
//!
//! # Wave execution
//!
//! [`TpccDb::decompose`](pushtap_oltp::TpccDb::decompose) is read-only
//! and retry-stable, so every transaction's keyset — rows read, rows
//! written, insert rings consumed — is known *before* execution
//! ([`pushtap_oltp::KeySet`]). The [`schedule`] module cuts the
//! timestamp-ordered stream into **waves** of mutually non-conflicting
//! transactions; conflicting pairs always land in timestamp order
//! across waves, so per-row commit order (and therefore every committed
//! byte) matches the unpartitioned reference. One wave executes as:
//!
//! 1. **One item list** — every wave member is decomposed at its home
//!    engine onto the wave's one effect list, each member's effects
//!    ordered home-first then by owning shard (read-only; wave members
//!    touch disjoint rings, so the result is independent of intra-wave
//!    order). Each `(transaction, involved shard)` pair becomes one item
//!    holding a range of that list, and the wave is the items sorted by
//!    `(shard, timestamp)`: a shard's share is one contiguous run, and
//!    an item carries its own vote and prepare clocks.
//! 2. **Prepare pass** — all shards concurrently *on their simulated
//!    clocks*, executed one after another in shard order on the
//!    caller's thread: each shard prepares its wave items in
//!    timestamp order, holding one prepared scope per transaction (a
//!    range of the engine's undo log in `pushtap-mvcc`). Forwarded
//!    effect sets pay their prepare-hop *delivery*: a wave's messages
//!    are all in flight together, so a delivery only stalls the engine
//!    until its arrival time — overlapped, not summed. With a WAL,
//!    every prepared record is appended and the shard ends its pass
//!    with one group-commit force.
//! 3. **Vote barrier and decision log** — a transaction commits iff
//!    every involved shard prepared it; any `DeltaFull` vote aborts it
//!    everywhere. With a WAL, the commit decisions of cross-shard
//!    members are logged and forced here, before any is delivered.
//! 4. **Decide pass** — all shards, again concurrent only on their
//!    simulated clocks, deliver commit/abort decisions in timestamp
//!    order (again overlapped deliveries); committed scopes resolve,
//!    aborted scopes take their writes back newest-first.
//! 5. **Retries** — each aborted transaction reclaims its no-voting
//!    shards' arenas and re-enters `run_wave` alone, at the *same*
//!    pinned timestamp, until it commits, before the next wave starts.
//!    Committed bytes therefore never depend on where or when arenas
//!    filled up.
//!
//! # Timing
//!
//! Message rounds are charged per [`CommitConfig`]. The *ledger*
//! (`two_pc_time` and the `two_pc_stall` count) counts one full hop per
//! delivered message; the clock advance the overlapped deliveries actually cause
//! is recorded as `critical_path_time` (see [`OltpReport`]).
//!
//! Decision latency uses the **laggard vote-barrier model**: the
//! coordinator cannot act before the *slowest* participant's vote
//! arrives. A participant's vote leaves its shard the instant that
//! *transaction's* prepare finished on its clock (early vote — the
//! wave's group-commit force overlaps the decision round; the decision
//! *apply* still lands after the force because the participant's clock
//! crossed it at the phase barrier), travels one `prepare_hop`, and is
//! delayed by a deterministic per-(participant, transaction) skew drawn
//! from `[0, vote_jitter]` ([`CommitConfig::vote_jitter`]). The home's
//! own `phase clock + prepare_hop` floors the wait, so coupling clocks
//! never makes a decision *cheaper* than an uncoupled round-trip; the
//! extra stall lands on `critical_path_time` (and the vote-barrier
//! stall histogram) while the `two_pc_time` hop ledger — one hop per
//! delivered message — is unchanged, which is why the stall can exceed
//! the ledger under a slow participant.
//!
//! [`OltpReport`]: pushtap_core::OltpReport
//! [`CommitConfig`]: crate::CommitConfig
//! [`CommitConfig::vote_jitter`]: crate::CommitConfig::vote_jitter

pub mod schedule;

use std::ops::Range;

use pushtap_core::Pushtap;
use pushtap_mvcc::Ts;
use pushtap_oltp::{codec, TaggedEffect, TxnResult, TxnRole};
use pushtap_pim::Ps;
use pushtap_trace::Phase;
use pushtap_wal::Wal;

use crate::durability::{encode_decision, CrashSite};
use crate::report::ShardLoad;
use crate::router::RoutedTxn;
use crate::ShardedHtap;

/// Appends one prepared item's effect set to a shard's effect log
/// (volatile until the next force barrier) and accounts it.
fn wal_append(
    wal: &mut Wal,
    load: &mut ShardLoad,
    shard: &Pushtap,
    item: &WaveItem,
    effects: &[TaggedEffect],
    wave: u64,
) {
    let framed = wal
        .append_with(|out| codec::encode_parts_into(out, item.ts, item.role, item.cross, effects));
    load.report.wal_appends += 1;
    load.report.wal_bytes += framed as u64;
    trace_span(shard, Phase::WalAppend, item.ts.0, shard.now(), wave);
}

/// Records the span of `phase` for `txn` (0: the shard's own) that began
/// at `start` and ends at the shard's clock now, if the shard is traced.
fn trace_span(shard: &Pushtap, phase: Phase, txn: u64, start: Ps, wave: u64) {
    shard
        .db()
        .probe()
        .span(phase, txn, wave, start, shard.now());
}

/// The group-commit force barrier: pushes a shard's pending records to
/// durable media, charging the configured force latency to the shard's
/// clock and critical path once for everything pending. A no-op (free)
/// when nothing is pending.
fn wal_force(wal: &mut Wal, load: &mut ShardLoad, shard: &mut Pushtap, latency: Ps, wave: u64) {
    if !wal.has_pending() {
        return;
    }
    let start = shard.now();
    if latency > Ps::ZERO {
        shard.advance(latency);
    }
    wal.force();
    load.report.wal_forces += 1;
    load.report.wal_force_time += latency;
    load.report.critical_path_time += latency;
    trace_span(shard, Phase::GroupCommit, 0, start, wave);
}

/// Charges one *overlapped* 2PC message delivery: the message was
/// dispatched together with the rest of its wave, so the engine stalls
/// only until the arrival time (zero if it is still busy with earlier
/// wave work). The ledger (`two_pc_time` and the `two_pc_stall` count)
/// counts the full hop; the clock, `critical_path_time` and the
/// `two_pc_stall` sample record only the stall actually caused.
fn deliver(load: &mut ShardLoad, shard: &mut Pushtap, hop: Ps, arrive_at: Ps) {
    let wait = arrive_at.saturating_sub(shard.now());
    if wait > Ps::ZERO {
        shard.advance(wait);
    }
    load.report.two_pc_time += hop;
    load.report.critical_path_time += wait;
    load.report.two_pc_stall.record(wait.ps());
}

/// The deterministic per-(participant, transaction) vote-processing
/// skew of the laggard vote-barrier model: uniform over `[0, bound]`,
/// derived by a splitmix64-style bit mix of the timestamp and the
/// participant id so every replay of the stream sees the same laggard.
/// [`Ps::ZERO`] bound short-circuits to zero skew.
fn vote_skew(bound: Ps, participant: u32, ts: Ts) -> Ps {
    if bound == Ps::ZERO {
        return Ps::ZERO;
    }
    let mut x = ts.0 ^ ((u64::from(participant) + 1) << 32);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    Ps::new(x % (bound.ps() + 1))
}

/// One shard's share of one wave member: a range of the wave's effect
/// list to prepare at a pinned timestamp, as the transaction's home
/// half or a forwarded participant — and, once prepared, how it went.
#[derive(Debug)]
struct WaveItem {
    /// The shard that owns the effects.
    shard: usize,
    /// Index of the owning transaction within the wave.
    txn: usize,
    /// The pinned commit timestamp.
    ts: Ts,
    /// Home half or forwarded participant.
    role: TxnRole,
    /// Whether the owning transaction crosses shards (its home pays the
    /// decision round-trip).
    cross: bool,
    /// The effects this shard owns, in the wave's effect list.
    effects: Range<usize>,
    /// The shard's clock when the item's turn came — the start of the
    /// commit latency the decide pass attributes.
    start: Ps,
    /// The shard's clock right after the prepare: the instant its vote
    /// for the item leaves (laggard model).
    end: Ps,
    /// The prepare's result; `None` until prepared, and for a no vote.
    vote: Option<TxnResult>,
}

/// The lists a wave executes from, kept from one wave to the next (and
/// by the service from one run to the next), so a warm run builds every
/// wave without allocating.
#[derive(Debug, Default)]
pub(crate) struct WaveLists {
    /// Each wave member's verdict at the vote barrier: every involved
    /// shard prepared it.
    committed: Vec<bool>,
    /// The wave's items, sorted by `(shard, timestamp)`.
    items: Vec<WaveItem>,
    /// The wave's one effect list, which the items hold ranges of.
    effects: Vec<TaggedEffect>,
    /// One member's decomposition, before it joins `effects`.
    one: Vec<TaggedEffect>,
}

impl ShardedHtap {
    /// Executes one conflict-free wave (see the module docs for the
    /// steps). With a durability context, every shard appends its
    /// prepared records during the prepare pass and forces once — the
    /// wave's group commit — before returning its votes; committed
    /// cross-shard transactions land in the decision log (forced)
    /// between the vote barrier and the decide pass.
    ///
    /// `wave_id` is the wave's 1-based number within the run — or 0 for
    /// a casualty's retry, which runs alone: its spans carry wave 0 like
    /// everything outside wave execution, so overlap analysis never
    /// counts it. `crash` is the armed crash site this wave dies at,
    /// resolved by the caller from the wave's number; a retry has no
    /// number of its own, so it neither consumes a crash-point event
    /// nor fires one. Returns `true` if the crash fired (the caller
    /// must stop the stream dead).
    pub(crate) fn run_wave(
        &mut self,
        wave: &[RoutedTxn],
        wave_id: u64,
        crash: Option<CrashSite>,
    ) -> bool {
        if crash == Some(CrashSite::BeforePrepare) {
            // The kill lands before the wave starts: nothing of it was
            // logged or applied.
            return true;
        }
        // Report the wave's membership to the shadow tracker (every
        // engine shares one sanitizer): members of the same wave
        // overlap, so the tracker can lockset-check that the scheduler
        // really kept their key footprints disjoint. A retry stays a
        // member of the wave that scheduled it.
        if wave_id > 0 {
            if let Some((san, _)) = self.shards[0].db().probe().sanitizer() {
                for routed in wave {
                    san.assign_wave(routed.ts.0, wave_id);
                }
            }
        }
        let mut lists = self.wave_lists.pop().unwrap_or_default();
        let crashed = self.execute_wave(wave, wave_id, crash, &mut lists);
        self.wave_lists.push(lists);
        crashed
    }

    /// Steps 1 to 5 of [`ShardedHtap::run_wave`], on `lists`.
    fn execute_wave(
        &mut self,
        wave: &[RoutedTxn],
        wave_id: u64,
        crash: Option<CrashSite>,
        lists: &mut WaveLists,
    ) -> bool {
        self.wave_items(wave, lists);
        self.prepare_pass(&lists.effects, &mut lists.items, wave_id, crash);
        // The kill at (or during) the wave's group commit: the prepare
        // pass ran, but the wave's records are lost (AfterPrepare) or
        // durable only up to one shard's torn force (MidEffectFlush).
        if matches!(
            crash,
            Some(CrashSite::AfterPrepare | CrashSite::MidEffectFlush)
        ) {
            return true;
        }
        // The vote barrier: a transaction commits iff every involved
        // shard prepared it.
        for item in &lists.items {
            lists.committed[item.txn] &= item.vote.is_some();
        }
        if self.log_decisions(wave, &lists.committed, crash) {
            return true;
        }
        self.decide_pass(wave, &lists.committed, &lists.items, wave_id);
        self.retry_aborted(wave, &lists.committed, &lists.items, wave_id);
        false
    }

    /// Step 1: refills `lists` with the wave's verdicts (all yes until
    /// the vote barrier), its one item list, sorted by `(shard,
    /// timestamp)`, and its one effect list, which the items hold
    /// ranges of. Wave members touch disjoint rows and rings, so the
    /// order they are decomposed in is irrelevant.
    fn wave_items(&self, wave: &[RoutedTxn], lists: &mut WaveLists) {
        lists.committed.clear();
        lists.committed.resize(wave.len(), true);
        lists.items.clear();
        lists.effects.clear();
        for (txn, routed) in wave.iter().enumerate() {
            self.decompose_split(txn, routed, lists);
        }
        // A shard's share becomes one contiguous run, in the timestamp
        // order its prepares must apply in: a forwarded item can land
        // behind a later transaction's home item.
        lists.items.sort_unstable_by_key(|it| (it.shard, it.ts));
    }

    /// Decomposes `routed`, wave member `txn`, at its home engine (into
    /// `lists.one`), copies the effects to the end of the wave's list
    /// `lists.effects` — the home's own effects first, then each
    /// participant's — and cuts one item per involved shard, each a
    /// range of the wave's list. Decomposition is read-only (cursors and
    /// chains untouched), so a retry builds the identical effects.
    fn decompose_split(&self, txn: usize, routed: &RoutedTxn, lists: &mut WaveLists) {
        let WaveLists {
            one,
            effects,
            items,
            ..
        } = lists;
        let map = self.router.map();
        let owner = |e: &TaggedEffect| map.shard_of_warehouse(e.warehouse) as usize;
        let home = routed.shard as usize;
        self.shards[home]
            .db()
            .decompose_into(&routed.txn, routed.ts, one);
        let first = items.len();
        let cross = !routed.participants.is_empty();
        // The home's effects first, then each participant's in shard
        // order, every shard's in statement order.
        let involved = routed.participants.iter().map(|&p| p as usize);
        for shard in std::iter::once(home).chain(involved) {
            let start = effects.len();
            effects.extend(one.iter().filter(|e| owner(e) == shard));
            debug_assert!(
                effects.len() > start,
                "participant {shard} of {:?} owns no effect",
                routed.ts
            );
            items.push(WaveItem {
                shard,
                txn,
                ts: routed.ts,
                role: if shard == home {
                    TxnRole::Coordinator
                } else {
                    TxnRole::Participant
                },
                cross,
                effects: start..effects.len(),
                start: Ps::ZERO,
                end: Ps::ZERO,
                vote: None,
            });
        }
        debug_assert_eq!(
            items[first..]
                .iter()
                .map(|it| it.effects.len())
                .sum::<usize>(),
            one.len(),
            "router participant set must match effect ownership"
        );
    }

    /// Step 2: the prepare pass — every involved shard on its own
    /// simulated clock, executed in shard order. Each shard prepares
    /// its items in timestamp order (appending each prepared record to
    /// its effect log) and ends with its group-commit force barrier —
    /// one force for the whole wave, before its votes return; forwarded
    /// sets pay their (overlapped) prepare-hop delivery.
    fn prepare_pass(
        &mut self,
        effects: &[TaggedEffect],
        items: &mut [WaveItem],
        wave_id: u64,
        crash: Option<CrashSite>,
    ) {
        let commit = self.cfg.commit;
        let last_involved = items.last().map(|it| it.shard);
        for list in items.chunk_by_mut(|a, b| a.shard == b.shard) {
            let i = list[0].shard;
            let (shard, load) = (&mut self.shards[i], &mut self.loads[i]);
            let mut wal = self.durability.as_mut().map(|d| &mut d.logs[i]);
            // Periodic maintenance between waves — no scope is open on
            // this shard here.
            shard.defrag_if_due();
            let phase_start = shard.now();
            for item in list {
                item.start = shard.now();
                if item.role == TxnRole::Participant {
                    deliver(
                        load,
                        shard,
                        commit.prepare_hop,
                        phase_start + commit.prepare_hop,
                    );
                }
                if let Some((san, track)) = shard.db().probe().sanitizer() {
                    san.begin_execution(track, item.ts.0, shard.now().ps());
                }
                let own = &effects[item.effects.clone()];
                if let Ok(r) = shard.prepare_effects_at(own, item.ts) {
                    // `prepared_txns` keeps its 2PC-only semantics:
                    // a warehouse-local wave item rides the same
                    // prepare machinery but is a one-phase commit,
                    // not a 2PC prepare.
                    if item.cross {
                        load.report.prepared_txns += 1;
                    }
                    if item.role == TxnRole::Participant {
                        load.report.forwarded_effects += own.len() as u64;
                    }
                    if let Some(w) = wal.as_deref_mut() {
                        wal_append(w, load, shard, item, own, wave_id);
                    }
                    item.vote = Some(r);
                }
                if item.cross {
                    trace_span(shard, Phase::TwoPc, item.ts.0, item.start, wave_id);
                }
                item.end = shard.now();
            }
            // The wave's group commit: one force barrier covers every
            // record this shard appended for the wave. An armed crash
            // skips it (AfterPrepare: pending records die with the
            // process) or tears the last involved shard's force halfway
            // through its pending bytes, every earlier shard forcing in
            // full (MidEffectFlush).
            if let Some(w) = wal {
                match crash {
                    Some(CrashSite::AfterPrepare) => {}
                    Some(CrashSite::MidEffectFlush) if last_involved == Some(i) => {
                        let half = w.pending_len() / 2;
                        w.force_torn(half);
                    }
                    _ => wal_force(w, load, shard, commit.force_latency, wave_id),
                }
            }
            if shard.now() > phase_start {
                trace_span(shard, Phase::WavePrepare, 0, phase_start, wave_id);
            }
        }
    }

    /// Step 3: between the vote barrier and the decide pass, the commit
    /// decisions become durable: one `Commit(ts)` entry per committed
    /// cross-shard transaction, forced before any decision is
    /// delivered. Recovery presumes abort for cross-shard scopes the
    /// decision log does not vouch for. Returns `true` if an armed
    /// crash fired.
    fn log_decisions(
        &mut self,
        wave: &[RoutedTxn],
        committed: &[bool],
        crash: Option<CrashSite>,
    ) -> bool {
        let Some(d) = self.durability.as_mut() else {
            return false;
        };
        if crash == Some(CrashSite::BetweenVoteAndDecision) {
            return true;
        }
        for (routed, &committed) in wave.iter().zip(committed) {
            if committed && !routed.participants.is_empty() {
                d.decision_log.append(&encode_decision(routed.ts));
            }
        }
        if crash == Some(CrashSite::MidDecisionLogWrite) {
            let half = d.decision_log.pending_len() / 2;
            d.decision_log.force_torn(half);
            return true;
        }
        d.decision_log.force();
        crash == Some(CrashSite::AfterDecision)
    }

    /// Step 4: the decide pass — again every involved shard on its own
    /// clock, in shard order: decisions delivered in timestamp order
    /// with overlapped hops. Commits resolve scopes (metadata-only);
    /// aborts take the scope's writes back.
    ///
    /// Laggard vote clocks: participant `p`'s vote for a wave member
    /// leaves at the `end` of `p`'s item for it — `p`'s clock right
    /// after the member's prepare applied (early vote; the group-commit
    /// force overlaps the decision round, and the decision *apply* on
    /// `p` still lands after the force because `p`'s clock crossed it
    /// at the phase barrier).
    fn decide_pass(
        &mut self,
        wave: &[RoutedTxn],
        committed: &[bool],
        items: &[WaveItem],
        wave_id: u64,
    ) {
        let commit = self.cfg.commit;
        for list in items.chunk_by(|a, b| a.shard == b.shard) {
            let i = list[0].shard;
            let (shard, load) = (&mut self.shards[i], &mut self.loads[i]);
            let phase_start = shard.now();
            for item in list {
                let Some(result) = &item.vote else {
                    // This shard voted no: nothing is held here (the
                    // failed prepare already rolled back and charged
                    // its wasted latency).
                    continue;
                };
                let routed = &wave[item.txn];
                let item_start = shard.now();
                match item.role {
                    TxnRole::Participant => deliver(
                        load,
                        shard,
                        commit.commit_hop,
                        phase_start + commit.commit_hop,
                    ),
                    // The home half pays the decision round-trip for a
                    // cross-shard transaction, gated by the laggard vote
                    // barrier: the last vote arrives from the slowest
                    // participant — its prepare end plus one prepare-hop
                    // and its deterministic skew, floored by the home's
                    // own round-trip — and the decision goes out one
                    // commit-hop later, overlapped with the rest of the
                    // wave's rounds.
                    TxnRole::Coordinator if item.cross => {
                        let mut vote_at = phase_start + commit.prepare_hop;
                        for &p in routed.participants.iter() {
                            let key = (p as usize, item.ts);
                            let Ok(at) = items.binary_search_by_key(&key, |it| (it.shard, it.ts))
                            else {
                                panic!("participant {p} holds no item of {:?}", item.ts);
                            };
                            vote_at = vote_at.max(
                                items[at].end
                                    + commit.prepare_hop
                                    + vote_skew(commit.vote_jitter, p, item.ts),
                            );
                        }
                        deliver(load, shard, commit.prepare_hop, vote_at);
                        deliver(load, shard, commit.commit_hop, vote_at + commit.commit_hop);
                        trace_span(shard, Phase::VoteBarrier, item.ts.0, item_start, wave_id);
                    }
                    TxnRole::Coordinator => {}
                }
                if committed[item.txn] {
                    shard.commit_prepared(item.ts, item.role);
                    load.report.breakdown.merge(&result.breakdown);
                    if item.role == TxnRole::Coordinator {
                        load.report.committed += 1;
                        load.report
                            .commit_latency
                            .record(shard.now().saturating_sub(item.start).ps());
                    }
                } else {
                    shard.abort_prepared(item.ts);
                    load.report.participant_aborts += 1;
                }
                if item.cross {
                    trace_span(shard, Phase::TwoPc, item.ts.0, item_start, wave_id);
                }
            }
            if shard.now() > phase_start {
                trace_span(shard, Phase::WaveDecide, 0, phase_start, wave_id);
            }
        }
    }

    /// Step 5: retries — each aborted transaction re-enters
    /// [`ShardedHtap::run_wave`] as a wave of one, at its pinned timestamp,
    /// before the next wave starts. Every scope of this wave is
    /// resolved by now, so reclaiming the no-voting shards' arenas (GC
    /// first, defragmentation as the fallback) is safe; the retry
    /// conflicts with nothing still in flight (its wave was
    /// conflict-free and later waves have not started). A retry that
    /// aborts again recurses the same way, so the loop ends when the
    /// transaction commits. Its records force alone — there is no wave
    /// to amortize the barrier over — and replay dedupes the casualty's
    /// duplicate appends keep-last (decomposition is retry-stable, so
    /// they are byte-identical).
    fn retry_aborted(
        &mut self,
        wave: &[RoutedTxn],
        committed: &[bool],
        items: &[WaveItem],
        wave_id: u64,
    ) {
        for (txn, routed) in wave.iter().enumerate() {
            if committed[txn] {
                continue;
            }
            for it in items.iter().filter(|it| it.txn == txn && it.vote.is_none()) {
                self.shards[it.shard].reclaim_now();
            }
            let home = routed.shard as usize;
            if wave_id > 0 {
                self.loads[home].report.retried_txns += 1;
            }
            let s = &self.shards[home];
            trace_span(s, Phase::Retry, routed.ts.0, s.now(), 0);
            let crashed = self.run_wave(std::slice::from_ref(routed), 0, None);
            debug_assert!(!crashed, "an unarmed wave cannot crash");
        }
    }
}
