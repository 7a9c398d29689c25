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
//! 1. **Decompose** every wave member at its home engine and split the
//!    effects by owning shard (read-only; wave members touch disjoint
//!    rings, so the split is independent of intra-wave order).
//! 2. **Prepare phase** — all shards concurrently *on their simulated
//!    clocks*, executed one after another in shard order on the
//!    caller's thread: each shard prepares its wave items in
//!    timestamp order, holding one prepared undo scope per transaction
//!    (the multi-scope machinery in `pushtap-mvcc`). Forwarded effect
//!    sets pay their prepare-hop *delivery*: a wave's messages are all
//!    in flight together, so a delivery only stalls the engine until
//!    its arrival time — overlapped, not summed. With a WAL, every
//!    prepared record is appended and the shard ends its pass with one
//!    group-commit force.
//! 3. **Vote barrier** — a transaction commits iff every involved shard
//!    prepared it; any `DeltaFull` vote aborts it everywhere. With a
//!    WAL, the commit decisions of cross-shard members are logged and
//!    forced here, before any is delivered.
//! 4. **Decision phase** — all shards, again concurrent only on their
//!    simulated clocks, deliver commit/abort decisions in timestamp
//!    order (again overlapped deliveries);
//!    committed scopes resolve, aborted scopes replay their pinned undo
//!    records in reverse.
//! 5. **Retries** — each aborted transaction reclaims its no-voting
//!    shards' arenas and re-enters `run_wave` alone, at the *same*
//!    pinned timestamp, until it commits, before the next wave starts.
//!    Committed bytes therefore never depend on where or when arenas
//!    filled up.
//!
//! # Timing
//!
//! Message rounds are charged per [`CommitConfig`]. The *ledger*
//! (`two_pc_time`, `commit_rounds`) counts one full hop per delivered
//! message; the clock advance the overlapped deliveries actually cause
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

pub mod schedule;

use std::collections::BTreeMap;

use pushtap_core::{MaintPause, Pushtap};
use pushtap_mvcc::Ts;
use pushtap_oltp::{codec, TaggedEffect, TxnResult, TxnRole};
use pushtap_pim::Ps;
use pushtap_trace::{Phase, Span};
use pushtap_wal::{Wal, HEADER_LEN};

use crate::config::CommitConfig;
use crate::durability::{encode_decision, CrashSite, DurabilityCtx};
use crate::partition::WarehouseMap;
use crate::report::ShardLoad;
use crate::router::RoutedTxn;

/// Appends one prepared effect set to a shard's effect log (volatile
/// until the next force barrier) and accounts it.
#[allow(clippy::too_many_arguments)]
fn wal_append(
    wal: &mut Wal,
    load: &mut ShardLoad,
    shard: &Pushtap,
    ts: Ts,
    role: TxnRole,
    cross: bool,
    effects: &[TaggedEffect],
    wave: u64,
) {
    let payload = codec::encode_parts(ts, role, cross, effects);
    wal.append(&payload);
    load.report.wal_appends += 1;
    load.report.wal_bytes += (payload.len() + HEADER_LEN) as u64;
    if shard.trace_enabled() {
        shard.trace_record(
            Span::instant(
                shard.trace_track(),
                Phase::WalAppend,
                ts.0,
                shard.now().ps(),
            )
            .in_wave(wave),
        );
    }
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
    if shard.trace_enabled() {
        shard.trace_record(
            Span::new(
                shard.trace_track(),
                Phase::GroupCommit,
                0,
                start.ps(),
                shard.now().ps(),
            )
            .in_wave(wave),
        );
    }
}

/// Charges one *overlapped* 2PC message delivery: the message was
/// dispatched together with the rest of its wave, so the engine stalls
/// only until the arrival time (zero if it is still busy with earlier
/// wave work). The ledger (`two_pc_time`, `commit_rounds`) counts the
/// full hop; the clock and `critical_path_time` record only the stall
/// actually caused.
fn deliver(load: &mut ShardLoad, shard: &mut Pushtap, hop: Ps, arrive_at: Ps) {
    let wait = arrive_at.saturating_sub(shard.now());
    if wait > Ps::ZERO {
        shard.advance(wait);
    }
    load.remote_time += wait;
    load.report.two_pc_time += hop;
    load.report.critical_path_time += wait;
    load.report.commit_rounds += 1;
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

/// Records a defragmentation pause in a shard's load accounting.
fn charge_defrag(load: &mut ShardLoad, pause: Ps) {
    if pause > Ps::ZERO {
        load.report.defrag_passes += 1;
        load.report.defrag_time += pause;
        load.report.defrag_stall.record(pause.ps());
    }
}

/// Records an execute call's maintenance pauses in a shard's load
/// accounting, split by mechanism: the defragmentation share keeps its
/// historical counters, the GC share lands in `gc_time`/`gc_stall`
/// (pass counts come from the engine's drained
/// [`pushtap_core::GcStats`] tally at batch end).
fn charge_maintenance(load: &mut ShardLoad, pauses: MaintPause) {
    charge_defrag(load, pauses.defrag);
    if pauses.gc > Ps::ZERO {
        load.report.gc_time += pauses.gc;
        load.report.gc_stall.record(pauses.gc.ps());
    }
}

/// Runs one engine call under delta-capture accounting: any clock
/// movement lands in the shard's transaction time, and any wasted-time
/// accrual (a failed prepare, a coordinator-aborted prepared scope) in
/// its wasted-retry counter — keeping the report reconciled with the
/// engine's own counters at every call site.
fn charge_engine<T>(
    load: &mut ShardLoad,
    shard: &mut Pushtap,
    f: impl FnOnce(&mut Pushtap) -> T,
) -> T {
    let before = shard.now();
    let wasted_before = shard.db().wasted_retry_time();
    let r = f(shard);
    load.report.txn_time += shard.now().saturating_sub(before);
    load.report.wasted_retry_time += shard.db().wasted_retry_time().saturating_sub(wasted_before);
    r
}

/// Decomposes `routed` at its home engine and splits the effect set by
/// owning shard: the home's own effects plus one forwarded subset per
/// participant. Decomposition is read-only (cursors and chains
/// untouched), so retries reuse the identical effect set.
fn decompose_split(
    shards: &[Pushtap],
    map: &WarehouseMap,
    routed: &RoutedTxn,
) -> (Vec<TaggedEffect>, BTreeMap<usize, Vec<TaggedEffect>>) {
    let home = routed.shard as usize;
    let effects = shards[home].db().decompose(&routed.txn, routed.ts);
    let mut local: Vec<TaggedEffect> = Vec::new();
    let mut forwarded: BTreeMap<usize, Vec<TaggedEffect>> = BTreeMap::new();
    for e in effects {
        let owner = map.shard_of_warehouse(e.warehouse) as usize;
        if owner == home {
            local.push(e);
        } else {
            forwarded.entry(owner).or_default().push(e);
        }
    }
    debug_assert_eq!(
        forwarded.keys().map(|&s| s as u32).collect::<Vec<_>>(),
        routed.participants,
        "router participant set must match effect ownership"
    );
    (local, forwarded)
}

/// One shard's share of a wave: an effect set to prepare at a pinned
/// timestamp, as the transaction's home half or a forwarded
/// participant.
struct WaveItem {
    /// Index of the owning transaction within the wave.
    txn: usize,
    /// The pinned commit timestamp.
    ts: Ts,
    /// Home half or forwarded participant.
    role: TxnRole,
    /// Whether the owning transaction crosses shards (its home pays the
    /// decision round-trip).
    cross: bool,
    /// The effects this shard owns.
    effects: Vec<TaggedEffect>,
}

/// Executes one conflict-free wave (see the module docs for the five
/// steps). With a durability context, every shard appends its prepared
/// records during the prepare phase and forces once — the wave's group
/// commit — before returning its votes; committed cross-shard
/// transactions land in the decision log (forced) between the vote
/// barrier and the decision phase.
///
/// `wave_id` is the wave's 1-based number within the run — or 0 for a
/// casualty's retry, which runs alone: its spans carry wave 0 like
/// everything outside wave execution, so overlap analysis never counts
/// it. `crash` is the armed crash site this wave dies at, resolved by
/// the caller from the wave's number; a retry has no number of its own,
/// so it neither consumes a crash-point event nor fires one. Returns
/// `true` if the crash fired (the caller must stop the stream dead).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_wave(
    shards: &mut [Pushtap],
    map: &WarehouseMap,
    wave: &[RoutedTxn],
    commit: CommitConfig,
    loads: &mut [ShardLoad],
    wave_id: u64,
    mut dur: Option<&mut DurabilityCtx>,
    crash: Option<CrashSite>,
) -> bool {
    if crash == Some(CrashSite::BeforePrepare) {
        // The kill lands before the wave starts: nothing of it was
        // logged or applied.
        return true;
    }
    // Report the wave's membership to the shadow tracker (every engine
    // shares one sanitizer): members of the same wave overlap, so the
    // tracker can lockset-check that the scheduler really kept their
    // key footprints disjoint. A retry stays a member of the wave that
    // scheduled it.
    if wave_id > 0 {
        let san = shards[0].db().sanitizer();
        if san.enabled() {
            for routed in wave {
                san.assign_wave(routed.ts.0, wave_id);
            }
        }
    }
    // Step 1: decompose every member at its home engine and build each
    // shard's timestamp-ordered item list. Wave members touch disjoint
    // rows and rings, so decomposition order is irrelevant.
    let mut items: Vec<Vec<WaveItem>> = (0..shards.len()).map(|_| Vec::new()).collect();
    for (i, routed) in wave.iter().enumerate() {
        let (local, forwarded) = decompose_split(shards, map, routed);
        let cross = !routed.participants.is_empty();
        items[routed.shard as usize].push(WaveItem {
            txn: i,
            ts: routed.ts,
            role: TxnRole::Coordinator,
            cross,
            effects: local,
        });
        for (p, effects) in forwarded {
            items[p].push(WaveItem {
                txn: i,
                ts: routed.ts,
                role: TxnRole::Participant,
                cross,
                effects,
            });
        }
    }
    // Wave members arrive in stream order, but a forwarded subset can
    // land behind a later transaction's home item: restore timestamp
    // order per shard (prepares must apply in pinned-timestamp order).
    for list in &mut items {
        list.sort_by_key(|it| it.ts);
    }

    // Step 2: the prepare phase — every involved shard on its own
    // simulated clock, executed in shard order. Each shard prepares its
    // items in timestamp order (appending each prepared record to its
    // effect log) and ends with its group-commit force barrier — one
    // force for the whole wave, before its votes return; forwarded sets
    // pay their (overlapped) prepare-hop delivery.
    let last_involved = items.iter().rposition(|list| !list.is_empty());
    let mut votes: Vec<Vec<Option<TxnResult>>> = (0..shards.len()).map(|_| Vec::new()).collect();
    // Per-item prepare-start clocks, kept for the decision phase's
    // commit-latency attribution.
    let mut starts: Vec<Vec<Ps>> = (0..shards.len()).map(|_| Vec::new()).collect();
    // Per-item prepare-end clocks: the instant the shard's vote for the
    // item leaves (laggard model).
    let mut ends: Vec<Vec<Ps>> = (0..shards.len()).map(|_| Vec::new()).collect();
    for (i, (shard, list)) in shards.iter_mut().zip(&items).enumerate() {
        if list.is_empty() {
            continue;
        }
        let load = &mut loads[i];
        let mut wal = dur.as_deref_mut().map(|d| &mut d.logs[i]);
        // Periodic maintenance between waves — no scope is open on this
        // shard here.
        charge_maintenance(load, shard.defrag_if_due());
        let phase_start = shard.now();
        for item in list {
            let item_start = shard.now();
            starts[i].push(item_start);
            if item.role == TxnRole::Participant {
                deliver(
                    load,
                    shard,
                    commit.prepare_hop,
                    phase_start + commit.prepare_hop,
                );
            }
            {
                let san = shard.db().sanitizer();
                if san.enabled() {
                    san.begin_execution(i as u32, item.ts.0, shard.now().ps());
                }
            }
            let r = charge_engine(load, shard, |s| {
                s.prepare_effects_at(&item.effects, item.ts)
            });
            match r {
                Ok(r) => {
                    // `prepared_txns` keeps its 2PC-only semantics: a
                    // warehouse-local wave item rides the same prepare
                    // machinery but is a one-phase commit, not a 2PC
                    // prepare.
                    if item.cross {
                        load.report.prepared_txns += 1;
                    }
                    if item.role == TxnRole::Participant {
                        load.report.forwarded_effects += item.effects.len() as u64;
                    }
                    if let Some(w) = wal.as_deref_mut() {
                        wal_append(
                            w,
                            load,
                            shard,
                            item.ts,
                            item.role,
                            item.cross,
                            &item.effects,
                            wave_id,
                        );
                    }
                    votes[i].push(Some(r));
                }
                Err(_full) => {
                    load.report.aborts += 1;
                    votes[i].push(None);
                }
            }
            if item.cross && shard.trace_enabled() {
                shard.trace_record(
                    Span::new(
                        shard.trace_track(),
                        Phase::TwoPc,
                        item.ts.0,
                        item_start.ps(),
                        shard.now().ps(),
                    )
                    .in_wave(wave_id),
                );
            }
            ends[i].push(shard.now());
        }
        // The wave's group commit: one force barrier covers every
        // record this shard appended for the wave. An armed crash skips
        // it (AfterPrepare: pending records die with the process) or
        // tears the last involved shard's force halfway through its
        // pending bytes, every earlier shard forcing in full
        // (MidEffectFlush).
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
        if shard.trace_enabled() && shard.now() > phase_start {
            shard.trace_record(
                Span::new(
                    shard.trace_track(),
                    Phase::WavePrepare,
                    0,
                    phase_start.ps(),
                    shard.now().ps(),
                )
                .in_wave(wave_id),
            );
        }
    }

    // The kill at (or during) the wave's group commit: the prepare
    // phase ran, but the wave's records are lost (AfterPrepare) or
    // durable only up to one shard's torn force (MidEffectFlush).
    if matches!(
        crash,
        Some(CrashSite::AfterPrepare | CrashSite::MidEffectFlush)
    ) {
        return true;
    }

    // Step 3: the vote barrier — a transaction commits iff every
    // involved shard prepared it; record who voted no for the retry
    // pass's defragmentation.
    let mut committed = vec![true; wave.len()];
    let mut no_voters: Vec<Vec<usize>> = vec![Vec::new(); wave.len()];
    for (i, shard_votes) in votes.iter().enumerate() {
        for (item, vote) in items[i].iter().zip(shard_votes) {
            if vote.is_none() {
                committed[item.txn] = false;
                no_voters[item.txn].push(i);
            }
        }
    }

    // Between the vote barrier and the decision phase, the commit
    // decisions become durable: one `Commit(ts)` entry per committed
    // cross-shard transaction, forced before any decision is delivered.
    // Recovery presumes abort for cross-shard scopes the decision log
    // does not vouch for.
    if let Some(d) = dur.as_deref_mut() {
        if crash == Some(CrashSite::BetweenVoteAndDecision) {
            return true;
        }
        for (i, routed) in wave.iter().enumerate() {
            if committed[i] && !routed.participants.is_empty() {
                d.decision_log.append(&encode_decision(routed.ts));
            }
        }
        if crash == Some(CrashSite::MidDecisionLogWrite) {
            let half = d.decision_log.pending_len() / 2;
            d.decision_log.force_torn(half);
            return true;
        }
        d.decision_log.force();
        if crash == Some(CrashSite::AfterDecision) {
            return true;
        }
    }

    // Step 4: the decision phase — again every involved shard on its
    // own clock, in shard order: decisions delivered in timestamp order
    // with overlapped hops. Commits resolve scopes (metadata-only);
    // aborts replay pinned undo records.
    //
    // Laggard vote clocks: participant `p`'s vote for wave member `t`
    // leaves at `vote_ready[p][t.txn]` — `p`'s clock right after `t`'s
    // prepare applied (early vote; the group-commit force overlaps the
    // decision round, and the decision *apply* on `p` still lands after
    // the force because `p`'s clock crossed it at the phase barrier).
    // A shard with no item for `t` (never happens for a real
    // participant) falls back to its prepare-pass end.
    let prepare_done: Vec<Ps> = shards.iter().map(Pushtap::now).collect();
    let mut vote_ready: Vec<Vec<Ps>> = prepare_done.iter().map(|&d| vec![d; wave.len()]).collect();
    for (i, (list, shard_ends)) in items.iter().zip(&ends).enumerate() {
        for (item, &end) in list.iter().zip(shard_ends) {
            vote_ready[i][item.txn] = end;
        }
    }
    for (i, (shard, list)) in shards.iter_mut().zip(&items).enumerate() {
        let load = &mut loads[i];
        let phase_start = shard.now();
        for ((item, vote), &prepare_start) in list.iter().zip(&votes[i]).zip(&starts[i]) {
            let Some(result) = vote else {
                // This shard voted no: nothing is held here (the failed
                // prepare already rolled back and charged its wasted
                // latency).
                continue;
            };
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
                // and its deterministic skew, floored by the home's own
                // round-trip — and the decision goes out one commit-hop
                // later, overlapped with the rest of the wave's rounds.
                TxnRole::Coordinator if item.cross => {
                    let mut vote_at = phase_start + commit.prepare_hop;
                    for &p in &wave[item.txn].participants {
                        vote_at = vote_at.max(
                            vote_ready[p as usize][item.txn]
                                + commit.prepare_hop
                                + vote_skew(commit.vote_jitter, p, item.ts),
                        );
                    }
                    deliver(load, shard, commit.prepare_hop, vote_at);
                    deliver(load, shard, commit.commit_hop, vote_at + commit.commit_hop);
                    if shard.trace_enabled() {
                        shard.trace_record(
                            Span::new(
                                shard.trace_track(),
                                Phase::VoteBarrier,
                                item.ts.0,
                                item_start.ps(),
                                shard.now().ps(),
                            )
                            .in_wave(wave_id),
                        );
                    }
                }
                TxnRole::Coordinator => {}
            }
            if committed[item.txn] {
                shard.commit_prepared(item.ts, item.role);
                load.report.breakdown.merge(&result.breakdown);
                if item.role == TxnRole::Coordinator {
                    load.routed += 1;
                    load.report.committed += 1;
                    load.remote_touches += wave[item.txn].remote;
                    load.report
                        .commit_latency
                        .record(shard.now().saturating_sub(prepare_start).ps());
                }
            } else {
                charge_engine(load, shard, |s| s.abort_prepared(item.ts));
                load.report.aborts += 1;
                load.report.participant_aborts += 1;
            }
            if item.cross && shard.trace_enabled() {
                shard.trace_record(
                    Span::new(
                        shard.trace_track(),
                        Phase::TwoPc,
                        item.ts.0,
                        item_start.ps(),
                        shard.now().ps(),
                    )
                    .in_wave(wave_id),
                );
            }
        }
        if shard.trace_enabled() && shard.now() > phase_start {
            shard.trace_record(
                Span::new(
                    shard.trace_track(),
                    Phase::WaveDecide,
                    0,
                    phase_start.ps(),
                    shard.now().ps(),
                )
                .in_wave(wave_id),
            );
        }
    }

    // Step 5: retries — each aborted transaction re-enters this
    // function as a wave of one, at its pinned timestamp, before the
    // next wave starts. Every scope of this wave is resolved by now, so
    // reclaiming the no-voting shards' arenas (GC first,
    // defragmentation as the fallback) is safe; the retry conflicts
    // with nothing still in flight (its wave was conflict-free and
    // later waves have not started). A retry that aborts again recurses
    // the same way, so the loop ends when the transaction commits. Its
    // records force alone — there is no wave to amortize the barrier
    // over — and replay dedupes the casualty's duplicate appends
    // keep-last (decomposition is retry-stable, so they are
    // byte-identical).
    for (i, routed) in wave.iter().enumerate() {
        if committed[i] {
            continue;
        }
        for &v in &no_voters[i] {
            charge_maintenance(&mut loads[v], shards[v].reclaim_now());
        }
        let home = routed.shard as usize;
        if wave_id > 0 {
            loads[home].report.retried_txns += 1;
        }
        if shards[home].trace_enabled() {
            let s = &shards[home];
            s.trace_record(Span::instant(
                s.trace_track(),
                Phase::Retry,
                routed.ts.0,
                s.now().ps(),
            ));
        }
        let crashed = run_wave(
            shards,
            map,
            std::slice::from_ref(routed),
            commit,
            loads,
            0,
            dur.as_deref_mut(),
            None,
        );
        debug_assert!(!crashed, "an unarmed wave cannot crash");
    }
    false
}
