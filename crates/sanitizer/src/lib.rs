//! Keyset-soundness race detector for PUSHtap's wave scheduler
//! (`pushtap-sanitizer`).
//!
//! Every byte-identity proof in the workspace rests on one unchecked
//! assumption: the conflict keyset a transaction *declares* before
//! execution ([`pushtap_oltp::KeySet`]) is a sound over-approximation
//! of the rows and insert rings it actually touches *during*
//! execution. If decompose and execute ever disagree, the wave
//! scheduler silently overlaps conflicting two-phase commits and the
//! only symptom is a byte divergence far downstream.
//!
//! This crate closes that gap in the style of ThreadSanitizer: a
//! shadow tracker ([`AccessSink`]) that the engine feeds with every
//! physical row read, row write, chain growth, and insert-ring cursor
//! advance — each stamped with its owning transaction timestamp — and
//! that checks five families of invariants:
//!
//! * **declared-footprint soundness** — every physical access of a
//!   prepared scope must be covered by the keyset it declared
//!   ([`ViolationKind::UndeclaredAccess`]);
//! * **wave isolation** — no two transactions the coordinator
//!   overlapped in one wave may touch conflicting keys, a
//!   lockset-style check keyed by the wave id the coordinator assigns
//!   ([`ViolationKind::WaveConflict`]);
//! * **prepared-scope discipline** — no access outside an open scope,
//!   every prepare balanced by exactly one commit or abort decision,
//!   zero prepared versions left at a batch boundary
//!   ([`ViolationKind::AccessOutsideScope`],
//!   [`ViolationKind::UnbalancedPrepare`],
//!   [`ViolationKind::PreparedAtBatchEnd`]);
//! * **front-end causality** — under the open-loop front-end, no
//!   transaction begins execution before its stamped arrival time, and
//!   no home-shard inbox ever exceeds its configured admission bound
//!   ([`ViolationKind::ExecutedBeforeArrival`],
//!   [`ViolationKind::InboxOverflow`]);
//! * **pinned reclamation** — garbage collection never frees a version
//!   the engine oracle's oldest snapshot pin could still read, whoever
//!   took the pin ([`ViolationKind::ReclaimedPinnedVersion`]). The
//!   engine passes the oracle's pin with each reclaim; the tracker
//!   keeps no copy of the pin registry.
//!
//! The crate is dependency-free (like `pushtap-trace` and
//! `pushtap-wal`) and mirrors the trace sink's cost model: the default
//! [`NullSanitizer`] reports itself disabled, so every instrumented
//! hot path pays exactly one predictable branch and constructs
//! nothing. Each engine reaches its sink through its one
//! instrumentation seam, `pushtap_oltp::Probe`, which hands the sink
//! out only while it is armed. Arming means installing a
//! [`ShadowSanitizer`] there — see
//! `pushtap_shard::ShardedHtap::set_sanitizer`. The shadow state is
//! pure observer: it charges no simulated time and touches no engine
//! state, so an armed run is byte-identical to an unarmed one by
//! construction (and the shard suite asserts it).
//!
//! The engine's own key model (`pushtap_oltp::Key`) cannot be imported
//! here — this crate sits *below* the executor in the dependency
//! order — so keys are mirrored structurally: a table identifier
//! (`u32`, the executor's table enum discriminant) plus either a
//! global row index ([`SanKey::Row`]) or a home-warehouse ring
//! ([`SanKey::Ring`]).
//!
//! [`pushtap_oltp::KeySet`]: ../pushtap_oltp/struct.KeySet.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// A conflict key in the sanitizer's mirrored model: the unit at which
/// two transactions can collide. Structurally identical to the
/// executor's `Key`, with the table enum flattened to its `u32`
/// discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SanKey {
    /// A data row: (table discriminant, *global* row index).
    Row(u32, u64),
    /// A warehouse's stripe insert ring: (table discriminant, home
    /// warehouse).
    Ring(u32, u64),
}

impl SanKey {
    /// The table discriminant the key lives in.
    pub fn table(&self) -> u32 {
        match self {
            SanKey::Row(t, _) | SanKey::Ring(t, _) => *t,
        }
    }
}

/// What kind of physical access the engine performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A timed MVCC read of the version visible at the scope's ts.
    Read,
    /// A new version written for an updated row.
    Write,
    /// A version chained onto a row's chain (updates grow chains).
    ChainGrow,
    /// A new row version written by a stripe-ring insert. The physical
    /// row is picked by the runtime ring cursor, which the declared
    /// keyset cannot know — coverage accepts any declared ring of the
    /// same table.
    InsertWrite,
    /// A stripe-ring cursor advance (the conflict unit two inserting
    /// transactions order each other by).
    RingAdvance,
}

impl AccessKind {
    /// Whether the access mutates state (everything but [`Read`]).
    ///
    /// [`Read`]: AccessKind::Read
    pub fn is_write(&self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// One physical access, as recorded by the engine's instrumented
/// paths: for [`AccessKind::RingAdvance`] the key is the home
/// warehouse of the ring; for everything else it is the *global* row
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// What happened.
    pub kind: AccessKind,
    /// Table discriminant.
    pub table: u32,
    /// Global row index, or home warehouse for ring advances.
    pub key: u64,
}

impl Access {
    /// The conflict key this access occupies, and whether it occupies
    /// it as a writer.
    fn conflict_key(&self) -> (SanKey, bool) {
        match self.kind {
            AccessKind::RingAdvance => (SanKey::Ring(self.table, self.key), true),
            kind => (SanKey::Row(self.table, self.key), kind.is_write()),
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AccessKind::RingAdvance => {
                write!(
                    f,
                    "ring-advance table {} warehouse {}",
                    self.table, self.key
                )
            }
            kind => write!(f, "{kind:?} table {} global row {}", self.table, self.key),
        }
    }
}

/// The invariant a [`ViolationReport`] records a breach of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A physical access not covered by the scope's declared keyset —
    /// the wave scheduler ordered this transaction by a footprint that
    /// undershot reality (scheduler unsoundness).
    UndeclaredAccess,
    /// Two transactions the coordinator overlapped in one wave touched
    /// conflicting keys (at least one as a writer).
    WaveConflict,
    /// A physical access with no open transaction scope at its
    /// timestamp on that engine.
    AccessOutsideScope,
    /// Scope-lifecycle breakage: a prepare/commit/abort without its
    /// counterpart, a scope begun while one was already open at the
    /// same timestamp, or scopes still open at a batch boundary.
    UnbalancedPrepare,
    /// Prepared-but-undecided versions survived a batch boundary on
    /// the engine itself.
    PreparedAtBatchEnd,
    /// Garbage collection freed a delta slot holding a version at or
    /// above the engine oracle's oldest snapshot pin — a pinned reader
    /// could still visit that version, so its reclamation is a
    /// use-after-free in the making. The GC cut must stay strictly
    /// below every pin (`TsOracle::gc_eligible_before` guarantees it;
    /// this check catches an engine bypassing the oracle).
    ReclaimedPinnedVersion,
    /// A transaction began execution before its stamped open-loop
    /// arrival time — the front-end dispatched work that had not
    /// arrived yet, breaking the simulated timeline (causality).
    ExecutedBeforeArrival,
    /// A home-shard inbox held more admitted-but-undispatched
    /// transactions than its configured bound — admission control let
    /// an arrival through that backpressure should have rejected.
    InboxOverflow,
}

/// One detected violation, with enough context to locate the access:
/// which engine (track = shard index), which transaction (ts), which
/// wave (0 = unwaved), which access, and a human-readable trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationReport {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The engine (shard index) the access ran on.
    pub track: u32,
    /// The owning transaction's pinned commit timestamp.
    pub ts: u64,
    /// The coordinator wave the transaction ran in (0 = none).
    pub wave: u64,
    /// The offending access, when one exists.
    pub access: Option<Access>,
    /// Human-readable context (declared keyset summary, scope state,
    /// the conflicting partner — the "backtrace" of the violation).
    pub context: String,
}

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}: track {} ts {} wave {}",
            self.kind, self.track, self.ts, self.wave
        )?;
        if let Some(a) = &self.access {
            write!(f, " [{a}]")?;
        }
        write!(f, " — {}", self.context)
    }
}

/// The shadow-tracker interface the engine records into. Mirrors
/// `pushtap_trace::TraceSink`: implementations are shared behind an
/// `Arc`, and the default [`NullSanitizer`] reports itself disabled so
/// instrumented paths skip everything after one branch.
///
/// Scopes are identified by `(track, ts)` — a cross-shard transaction
/// prepares one scope per participating engine, all at the same pinned
/// timestamp. Wave assignment is per-transaction (by ts alone): the
/// coordinator announces it once, before the wave's prepares fan out.
pub trait AccessSink: fmt::Debug + Send + Sync {
    /// Whether the sink wants records at all. Instrumented paths check
    /// this before constructing anything.
    fn enabled(&self) -> bool {
        true
    }

    /// A transaction scope opened on engine `track` at pinned `ts`,
    /// declaring the keyset the scheduler ordered it by.
    fn begin_scope(&self, track: u32, ts: u64, reads: &[SanKey], writes: &[SanKey]);

    /// A physical access inside (what should be) the scope at
    /// `(track, ts)`.
    fn record_access(&self, track: u32, ts: u64, access: Access);

    /// The scope's effects are fully applied and the engine parked it
    /// prepared (two-phase-commit vote "yes"). Declared-footprint and
    /// wave-isolation checks run here.
    fn prepare_scope(&self, track: u32, ts: u64);

    /// Coordinator commit decision for the prepared scope.
    fn commit_scope(&self, track: u32, ts: u64);

    /// Coordinator abort decision for the prepared scope.
    fn abort_scope(&self, track: u32, ts: u64);

    /// Mid-apply rollback of a scope that never reached prepare (a
    /// `DeltaFull` strike). The declared-footprint check still runs —
    /// the partial attempt's accesses must have been declared too.
    fn abort_active(&self, track: u32, ts: u64);

    /// The coordinator assigned transaction `ts` to overlapped `wave`
    /// (1-based; transactions never announced stay wave 0 = solo).
    fn assign_wave(&self, ts: u64, wave: u64);

    /// A batch boundary: no scope may still be open anywhere, and the
    /// engines report `prepared_versions` prepared-but-undecided
    /// versions (must be zero). Resets wave bookkeeping.
    fn batch_end(&self, prepared_versions: u64);

    /// Garbage collection on engine `track` folded `row` of `table`
    /// and freed its version at `version_ts` (the newest timestamp the
    /// fold releases — every other freed version is older), while the
    /// engine oracle's oldest snapshot pin stood at `oldest_pin`. Fires
    /// [`ViolationKind::ReclaimedPinnedVersion`] if that pinned reader
    /// could still read the version. Default: ignored.
    fn reclaim_version(
        &self,
        _track: u32,
        _table: u32,
        _row: u64,
        _version_ts: u64,
        _oldest_pin: Option<u64>,
    ) {
    }

    /// The open-loop front-end admitted transaction `ts` with stamped
    /// arrival time `arrival_ps` (simulated picoseconds). Arms the
    /// no-execution-before-arrival check for this transaction until
    /// the next batch boundary. Default: ignored.
    fn note_arrival(&self, _ts: u64, _arrival_ps: u64) {}

    /// Engine `track` is about to start executing transaction `ts`
    /// with its clock at `now_ps`. Fires
    /// [`ViolationKind::ExecutedBeforeArrival`] if the transaction has
    /// a noted arrival later than `now_ps`. Default: ignored.
    fn begin_execution(&self, _track: u32, _ts: u64, _now_ps: u64) {}

    /// Shard `track`'s inbox holds `depth` admitted-but-undispatched
    /// transactions against configured `bound`. Fires
    /// [`ViolationKind::InboxOverflow`] when `depth > bound`.
    /// Default: ignored.
    fn inbox_admit(&self, _track: u32, _depth: u64, _bound: u64) {}
}

/// The default sink: disabled, records nothing, costs one branch.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSanitizer;

impl AccessSink for NullSanitizer {
    fn enabled(&self) -> bool {
        false
    }
    fn begin_scope(&self, _: u32, _: u64, _: &[SanKey], _: &[SanKey]) {}
    fn record_access(&self, _: u32, _: u64, _: Access) {}
    fn prepare_scope(&self, _: u32, _: u64) {}
    fn commit_scope(&self, _: u32, _: u64) {}
    fn abort_scope(&self, _: u32, _: u64) {}
    fn abort_active(&self, _: u32, _: u64) {}
    fn assign_wave(&self, _: u64, _: u64) {}
    fn batch_end(&self, _: u64) {}
}

/// One open scope's shadow state.
#[derive(Debug, Clone)]
struct Scope {
    /// Declared read keys, sorted.
    reads: Vec<SanKey>,
    /// Declared write keys (rows and rings), sorted.
    writes: Vec<SanKey>,
    /// Physical accesses recorded so far, in order.
    accesses: Vec<Access>,
    /// Whether the engine parked the scope prepared.
    prepared: bool,
}

impl Scope {
    /// Whether `access` is covered by the declared keyset.
    fn covers(&self, access: &Access) -> bool {
        let row = SanKey::Row(access.table, access.key);
        match access.kind {
            AccessKind::Read => {
                self.reads.binary_search(&row).is_ok() || self.writes.binary_search(&row).is_ok()
            }
            AccessKind::Write | AccessKind::ChainGrow => self.writes.binary_search(&row).is_ok(),
            // The physical insert row is picked by the runtime ring
            // cursor; any declared ring of the same table vouches for
            // it (the ring *is* the conflict unit for inserts).
            AccessKind::InsertWrite => {
                self.writes.binary_search(&row).is_ok()
                    || self
                        .writes
                        .iter()
                        .any(|k| matches!(k, SanKey::Ring(t, _) if *t == access.table))
            }
            AccessKind::RingAdvance => self
                .writes
                .binary_search(&SanKey::Ring(access.table, access.key))
                .is_ok(),
        }
    }

    fn declared_summary(&self) -> String {
        format!(
            "declared {} read keys / {} write keys",
            self.reads.len(),
            self.writes.len()
        )
    }
}

/// The armed tracker's interior state (behind the sink's mutex).
#[derive(Debug, Default)]
struct Shadow {
    /// Open scopes by (track, ts).
    scopes: BTreeMap<(u32, u64), Scope>,
    /// Wave assignment by ts (absent = solo / serial).
    waves: BTreeMap<u64, u64>,
    /// Lockset-style wave occupancy: which transactions touched which
    /// conflict key inside which wave, and whether as a writer.
    wave_keys: BTreeMap<(u64, SanKey), Vec<(u64, bool)>>,
    /// Open-loop arrival stamps by ts: no execution of the transaction
    /// may start before its arrival. Cleared at batch boundaries.
    arrivals: BTreeMap<u64, u64>,
    /// Everything detected so far.
    violations: Vec<ViolationReport>,
    /// Physical accesses checked (coverage statistic).
    checked: u64,
    /// Scopes opened (coverage statistic).
    scopes_seen: u64,
}

impl Shadow {
    fn violate(
        &mut self,
        kind: ViolationKind,
        track: u32,
        ts: u64,
        access: Option<Access>,
        context: String,
    ) {
        let wave = self.waves.get(&ts).copied().unwrap_or(0);
        self.violations.push(ViolationReport {
            kind,
            track,
            ts,
            wave,
            access,
            context,
        });
    }

    /// Declared-footprint check over everything the scope touched.
    fn check_coverage(&mut self, track: u32, ts: u64, scope: &Scope) {
        for access in &scope.accesses {
            self.checked += 1;
            if !scope.covers(access) {
                self.violate(
                    ViolationKind::UndeclaredAccess,
                    track,
                    ts,
                    Some(*access),
                    format!(
                        "physical access outside the declared keyset ({}) — \
                         decompose and execute disagree",
                        scope.declared_summary()
                    ),
                );
            }
        }
    }

    /// Wave-isolation check: fold the scope's touched keys into its
    /// wave's occupancy map, flagging any key already occupied by a
    /// *different* transaction when either side writes.
    fn check_wave(&mut self, track: u32, ts: u64, scope: &Scope) {
        let Some(&wave) = self.waves.get(&ts) else {
            return;
        };
        let mut touched: BTreeMap<SanKey, bool> = BTreeMap::new();
        for access in &scope.accesses {
            let (key, write) = access.conflict_key();
            *touched.entry(key).or_insert(false) |= write;
        }
        for (key, write) in touched {
            let occupants = self.wave_keys.entry((wave, key)).or_default();
            let clash = occupants
                .iter()
                .find(|(other, other_write)| *other != ts && (write || *other_write))
                .copied();
            if let Some((other, _)) = clash {
                self.violations.push(ViolationReport {
                    kind: ViolationKind::WaveConflict,
                    track,
                    ts,
                    wave,
                    access: None,
                    context: format!(
                        "wave {wave} overlaps ts {ts} and ts {other} on conflicting \
                         key {key:?} — the scheduler's conflict predicate missed it"
                    ),
                });
            }
            match occupants.iter_mut().find(|(t, _)| *t == ts) {
                Some(slot) => slot.1 |= write,
                None => occupants.push((ts, write)),
            }
        }
    }

    fn close_scope(&mut self, track: u32, ts: u64, decision: &str) -> Option<Scope> {
        match self.scopes.remove(&(track, ts)) {
            Some(scope) if scope.prepared => Some(scope),
            Some(scope) => {
                self.violate(
                    ViolationKind::UnbalancedPrepare,
                    track,
                    ts,
                    None,
                    format!("{decision} decision for a scope that never prepared"),
                );
                Some(scope)
            }
            None => {
                self.violate(
                    ViolationKind::UnbalancedPrepare,
                    track,
                    ts,
                    None,
                    format!("{decision} decision with no open scope"),
                );
                None
            }
        }
    }
}

/// The armed tracker: shadow scope/wave state behind a mutex,
/// violations accumulated for the caller to drain. Install one shared
/// instance across all engines of a deployment
/// (`ShardedHtap::set_sanitizer`) so cross-shard scopes of one
/// transaction and wave occupancy land in one place.
#[derive(Debug, Default)]
pub struct ShadowSanitizer {
    state: Mutex<Shadow>,
}

impl ShadowSanitizer {
    /// A fresh armed tracker with no recorded state.
    pub fn new() -> ShadowSanitizer {
        ShadowSanitizer::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, Shadow> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// All violations detected so far (cloned; the tracker keeps them).
    pub fn violations(&self) -> Vec<ViolationReport> {
        self.state().violations.clone()
    }

    /// Drains and returns the detected violations.
    pub fn take_violations(&self) -> Vec<ViolationReport> {
        std::mem::take(&mut self.state().violations)
    }

    /// Physical accesses put through the declared-footprint check.
    pub fn checked_accesses(&self) -> u64 {
        self.state().checked
    }

    /// Transaction scopes opened on any engine.
    pub fn scopes_tracked(&self) -> u64 {
        self.state().scopes_seen
    }

    /// Panics with a readable report if any violation was detected —
    /// the assertion armed test suites run after a batch.
    ///
    /// # Panics
    ///
    /// Panics when violations exist, listing every report.
    pub fn assert_clean(&self, label: &str) {
        let violations = self.violations();
        if violations.is_empty() {
            return;
        }
        let mut msg = format!(
            "{label}: sanitizer detected {} violation(s):",
            violations.len()
        );
        for v in &violations {
            msg.push_str("\n  ");
            msg.push_str(&v.to_string());
        }
        panic!("{msg}");
    }
}

impl AccessSink for ShadowSanitizer {
    fn begin_scope(&self, track: u32, ts: u64, reads: &[SanKey], writes: &[SanKey]) {
        let mut s = self.state();
        s.scopes_seen += 1;
        let mut reads = reads.to_vec();
        let mut writes = writes.to_vec();
        reads.sort_unstable();
        writes.sort_unstable();
        let prior = s.scopes.insert(
            (track, ts),
            Scope {
                reads,
                writes,
                accesses: Vec::new(),
                prepared: false,
            },
        );
        if prior.is_some() {
            s.violate(
                ViolationKind::UnbalancedPrepare,
                track,
                ts,
                None,
                "scope begun while one was already open at the same ts".to_string(),
            );
        }
    }

    fn record_access(&self, track: u32, ts: u64, access: Access) {
        let mut s = self.state();
        match s.scopes.get_mut(&(track, ts)) {
            Some(scope) => scope.accesses.push(access),
            None => s.violate(
                ViolationKind::AccessOutsideScope,
                track,
                ts,
                Some(access),
                "physical access with no open transaction scope".to_string(),
            ),
        }
    }

    fn prepare_scope(&self, track: u32, ts: u64) {
        let mut s = self.state();
        let Some(mut scope) = s.scopes.remove(&(track, ts)) else {
            s.violate(
                ViolationKind::UnbalancedPrepare,
                track,
                ts,
                None,
                "prepare with no open scope".to_string(),
            );
            return;
        };
        if scope.prepared {
            s.violate(
                ViolationKind::UnbalancedPrepare,
                track,
                ts,
                None,
                "scope prepared twice".to_string(),
            );
        }
        scope.prepared = true;
        s.check_coverage(track, ts, &scope);
        s.check_wave(track, ts, &scope);
        s.scopes.insert((track, ts), scope);
    }

    fn commit_scope(&self, track: u32, ts: u64) {
        self.state().close_scope(track, ts, "commit");
    }

    fn abort_scope(&self, track: u32, ts: u64) {
        self.state().close_scope(track, ts, "abort");
    }

    fn abort_active(&self, track: u32, ts: u64) {
        let mut s = self.state();
        match s.scopes.remove(&(track, ts)) {
            // A mid-apply rollback never prepared; its partial accesses
            // must still have been declared (decompose is retry-stable).
            Some(scope) if !scope.prepared => s.check_coverage(track, ts, &scope),
            Some(_) => s.violate(
                ViolationKind::UnbalancedPrepare,
                track,
                ts,
                None,
                "active-abort of a scope already parked prepared".to_string(),
            ),
            None => s.violate(
                ViolationKind::UnbalancedPrepare,
                track,
                ts,
                None,
                "active-abort with no open scope".to_string(),
            ),
        }
    }

    fn assign_wave(&self, ts: u64, wave: u64) {
        self.state().waves.insert(ts, wave);
    }

    fn batch_end(&self, prepared_versions: u64) {
        let mut s = self.state();
        let open: Vec<(u32, u64)> = s.scopes.keys().copied().collect();
        for (track, ts) in open {
            let prepared = s.scopes[&(track, ts)].prepared;
            s.violate(
                ViolationKind::UnbalancedPrepare,
                track,
                ts,
                None,
                format!(
                    "scope still open at batch end (state: {})",
                    if prepared {
                        "prepared, undecided"
                    } else {
                        "active"
                    }
                ),
            );
        }
        if prepared_versions != 0 {
            s.violate(
                ViolationKind::PreparedAtBatchEnd,
                0,
                0,
                None,
                format!("{prepared_versions} prepared version(s) survived the batch boundary"),
            );
        }
        s.scopes.clear();
        s.waves.clear();
        s.wave_keys.clear();
        s.arrivals.clear();
    }

    fn reclaim_version(
        &self,
        track: u32,
        table: u32,
        row: u64,
        version_ts: u64,
        oldest_pin: Option<u64>,
    ) {
        if let Some(oldest) = oldest_pin.filter(|&pin| version_ts >= pin) {
            self.state().violate(
                ViolationKind::ReclaimedPinnedVersion,
                track,
                version_ts,
                Some(Access {
                    kind: AccessKind::Write,
                    table,
                    key: row,
                }),
                format!(
                    "gc freed a version at ts {version_ts} while a snapshot is \
                     pinned at cut {oldest} — the pinned reader could still \
                     visit it"
                ),
            );
        }
    }

    fn note_arrival(&self, ts: u64, arrival_ps: u64) {
        self.state().arrivals.insert(ts, arrival_ps);
    }

    fn begin_execution(&self, track: u32, ts: u64, now_ps: u64) {
        let mut s = self.state();
        let Some(&arrival) = s.arrivals.get(&ts) else {
            // No stamped arrival (a closed-loop batch): nothing to hold
            // execution against.
            return;
        };
        if now_ps < arrival {
            s.violate(
                ViolationKind::ExecutedBeforeArrival,
                track,
                ts,
                None,
                format!(
                    "execution started at {now_ps} ps but the transaction \
                     arrives at {arrival} ps — the schedule ran work from \
                     the future"
                ),
            );
        }
    }

    fn inbox_admit(&self, track: u32, depth: u64, bound: u64) {
        if depth > bound {
            self.state().violate(
                ViolationKind::InboxOverflow,
                track,
                0,
                None,
                format!(
                    "inbox depth {depth} exceeds its configured bound {bound} \
                     — admission control failed to reject"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(table: u32, key: u64) -> Access {
        Access {
            kind: AccessKind::Read,
            table,
            key,
        }
    }

    fn write(table: u32, key: u64) -> Access {
        Access {
            kind: AccessKind::Write,
            table,
            key,
        }
    }

    /// A healthy lifecycle — declared accesses, balanced decisions,
    /// clean batch end — stays silent.
    #[test]
    fn clean_lifecycle_reports_nothing() {
        let san = ShadowSanitizer::new();
        san.begin_scope(0, 1, &[SanKey::Row(2, 7)], &[SanKey::Row(0, 0)]);
        san.record_access(0, 1, read(2, 7));
        san.record_access(0, 1, write(0, 0));
        san.record_access(
            0,
            1,
            Access {
                kind: AccessKind::ChainGrow,
                table: 0,
                key: 0,
            },
        );
        san.prepare_scope(0, 1);
        san.commit_scope(0, 1);
        san.batch_end(0);
        san.assert_clean("clean lifecycle");
        assert_eq!(san.checked_accesses(), 3);
        assert_eq!(san.scopes_tracked(), 1);
    }

    /// Inserts are covered by any declared ring of the same table:
    /// the physical row is the runtime cursor's pick.
    #[test]
    fn insert_rows_covered_by_declared_ring() {
        let san = ShadowSanitizer::new();
        san.begin_scope(0, 1, &[], &[SanKey::Ring(3, 2)]);
        san.record_access(
            0,
            1,
            Access {
                kind: AccessKind::InsertWrite,
                table: 3,
                key: 4711,
            },
        );
        san.record_access(
            0,
            1,
            Access {
                kind: AccessKind::RingAdvance,
                table: 3,
                key: 2,
            },
        );
        san.prepare_scope(0, 1);
        san.commit_scope(0, 1);
        san.batch_end(0);
        san.assert_clean("insert under ring");
    }

    /// Injected violation: a row write the scope never declared fires
    /// `UndeclaredAccess` with the offending access attached.
    #[test]
    fn undeclared_row_write_fires() {
        let san = ShadowSanitizer::new();
        san.begin_scope(1, 9, &[SanKey::Row(0, 1)], &[SanKey::Row(0, 2)]);
        san.record_access(1, 9, read(0, 1));
        san.record_access(1, 9, write(0, 3)); // never declared
        san.prepare_scope(1, 9);
        let v = san.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::UndeclaredAccess);
        assert_eq!(v[0].track, 1);
        assert_eq!(v[0].ts, 9);
        assert_eq!(v[0].access, Some(write(0, 3)));
    }

    /// A read is covered by a declared *write* of the same row (the
    /// scheduler's writes dominate reads), but a write is never covered
    /// by a declared read.
    #[test]
    fn write_key_covers_read_but_not_conversely() {
        let san = ShadowSanitizer::new();
        san.begin_scope(0, 1, &[], &[SanKey::Row(0, 5)]);
        san.record_access(0, 1, read(0, 5));
        san.prepare_scope(0, 1);
        san.commit_scope(0, 1);
        assert!(san.violations().is_empty());

        san.begin_scope(0, 2, &[SanKey::Row(0, 6)], &[]);
        san.record_access(0, 2, write(0, 6));
        san.prepare_scope(0, 2);
        let v = san.take_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::UndeclaredAccess);
    }

    /// Injected violation: an access with no open scope fires
    /// `AccessOutsideScope`.
    #[test]
    fn access_outside_scope_fires() {
        let san = ShadowSanitizer::new();
        san.record_access(2, 4, write(1, 0));
        let v = san.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::AccessOutsideScope);
        assert_eq!(v[0].track, 2);
    }

    /// Injected violation: a prepare left undecided at the batch
    /// boundary fires `UnbalancedPrepare`; surviving prepared versions
    /// fire `PreparedAtBatchEnd`.
    #[test]
    fn unbalanced_prepare_fires_at_batch_end() {
        let san = ShadowSanitizer::new();
        san.begin_scope(0, 3, &[], &[SanKey::Row(0, 1)]);
        san.record_access(0, 3, write(0, 1));
        san.prepare_scope(0, 3);
        // No decision ever arrives.
        san.batch_end(2);
        let v = san.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::UnbalancedPrepare);
        assert!(v[0].context.contains("prepared, undecided"));
        assert_eq!(v[1].kind, ViolationKind::PreparedAtBatchEnd);
    }

    /// Injected violation: decisions without a prepare fire
    /// `UnbalancedPrepare` in both directions (commit and abort).
    #[test]
    fn decision_without_prepare_fires() {
        let san = ShadowSanitizer::new();
        san.commit_scope(0, 7);
        san.begin_scope(0, 8, &[], &[]);
        san.abort_scope(0, 8); // abort decision, but the scope never prepared
        let v = san.violations();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|r| r.kind == ViolationKind::UnbalancedPrepare));
    }

    /// Injected violation: two transactions assigned to the same wave
    /// touching the same key with a writer involved fire
    /// `WaveConflict`; read/read sharing stays silent.
    #[test]
    fn cross_two_pc_same_wave_conflict_fires() {
        let san = ShadowSanitizer::new();
        san.assign_wave(10, 3);
        san.assign_wave(11, 3);
        san.begin_scope(0, 10, &[], &[SanKey::Row(0, 5)]);
        san.record_access(0, 10, write(0, 5));
        san.prepare_scope(0, 10);
        san.begin_scope(1, 11, &[SanKey::Row(0, 5)], &[]);
        san.record_access(1, 11, read(0, 5));
        san.prepare_scope(1, 11);
        let v = san.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::WaveConflict);
        assert_eq!(v[0].wave, 3);
        assert!(v[0].context.contains("ts 10"));
    }

    /// Read/read sharing inside a wave (the replicated ITEM pattern)
    /// never conflicts, and different waves never interact.
    #[test]
    fn wave_check_ignores_read_sharing_and_other_waves() {
        let san = ShadowSanitizer::new();
        for (ts, wave) in [(20, 1), (21, 1), (22, 2)] {
            san.assign_wave(ts, wave);
            san.begin_scope(0, ts, &[SanKey::Row(7, 0)], &[SanKey::Row(0, ts)]);
            san.record_access(0, ts, read(7, 0));
            san.record_access(0, ts, write(0, ts));
            san.prepare_scope(0, ts);
            san.commit_scope(0, ts);
        }
        san.batch_end(0);
        san.assert_clean("read sharing");
    }

    /// The same transaction preparing on two engines (a cross-shard
    /// 2PC) never conflicts with itself, and a retry at the same ts
    /// after an abort re-occupies its keys without self-conflict.
    #[test]
    fn same_ts_scopes_and_retries_do_not_self_conflict() {
        let san = ShadowSanitizer::new();
        san.assign_wave(5, 1);
        san.begin_scope(0, 5, &[], &[SanKey::Row(0, 1)]);
        san.record_access(0, 5, write(0, 1));
        san.prepare_scope(0, 5);
        san.begin_scope(1, 5, &[], &[SanKey::Row(0, 9)]);
        san.record_access(1, 5, write(0, 9));
        san.prepare_scope(1, 5);
        // Participant voted no: both scopes abort, then the home shard
        // retries the whole thing at the same pinned ts.
        san.abort_scope(0, 5);
        san.abort_scope(1, 5);
        san.begin_scope(0, 5, &[], &[SanKey::Row(0, 1)]);
        san.record_access(0, 5, write(0, 1));
        san.prepare_scope(0, 5);
        san.commit_scope(0, 5);
        san.batch_end(0);
        san.assert_clean("retry at pinned ts");
    }

    /// GC reclamation strictly below the oldest pin stays silent; at or
    /// above it fires `ReclaimedPinnedVersion`.
    #[test]
    fn reclaimed_pinned_version_fires() {
        let san = ShadowSanitizer::new();
        san.reclaim_version(0, 1, 7, 9, Some(10)); // below the pin: fine
        assert!(san.violations().is_empty());
        san.reclaim_version(2, 1, 7, 10, Some(10)); // at the pin: a pinned reader could see it
        let v = san.take_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::ReclaimedPinnedVersion);
        assert_eq!(v[0].track, 2);
        assert_eq!(v[0].ts, 10);
        assert!(
            v[0].context.contains("pinned at cut 10"),
            "{}",
            v[0].context
        );
        // No pin, no floor.
        san.reclaim_version(0, 1, 7, 10, None);
        san.assert_clean("after release");
    }

    /// `NullSanitizer` is disabled — the hot path's single branch.
    #[test]
    fn null_sanitizer_is_disabled() {
        assert!(!NullSanitizer.enabled());
        let shadow = ShadowSanitizer::new();
        assert!(AccessSink::enabled(&shadow));
    }

    /// Violation reports render their context for humans.
    #[test]
    fn reports_render() {
        let san = ShadowSanitizer::new();
        san.record_access(3, 12, write(1, 44));
        let v = san.violations();
        let text = v[0].to_string();
        assert!(text.contains("AccessOutsideScope"), "{text}");
        assert!(text.contains("track 3"), "{text}");
        assert!(text.contains("global row 44"), "{text}");
    }

    /// Front-end causality, clean side: execution at or after the noted
    /// arrival passes, and a transaction with no noted arrival (a
    /// closed-loop batch) is never held against one.
    #[test]
    fn execution_at_or_after_arrival_is_clean() {
        let san = ShadowSanitizer::new();
        san.note_arrival(7, 1_000);
        san.begin_execution(0, 7, 1_000); // exactly at arrival
        san.begin_execution(1, 7, 5_000); // later, another shard
        san.begin_execution(0, 8, 0); // no arrival noted: exempt
        san.assert_clean("on-time execution");
    }

    /// Injected violation: execution before the stamped arrival fires
    /// `ExecutedBeforeArrival` with the offending clocks in context.
    #[test]
    fn executed_before_arrival_fires() {
        let san = ShadowSanitizer::new();
        san.note_arrival(9, 2_000);
        san.begin_execution(2, 9, 1_999);
        let v = san.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, ViolationKind::ExecutedBeforeArrival);
        assert_eq!(v[0].track, 2);
        assert_eq!(v[0].ts, 9);
        assert!(v[0].context.contains("arrives at 2000"), "{}", v[0].context);
    }

    /// Arrival stamps are batch-scoped: after `batch_end` the same ts
    /// may execute at any clock (a fresh batch reuses timestamps).
    #[test]
    fn arrivals_clear_at_batch_end() {
        let san = ShadowSanitizer::new();
        san.note_arrival(4, 10_000);
        san.batch_end(0);
        san.begin_execution(0, 4, 0);
        san.assert_clean("arrival cleared at batch boundary");
    }

    /// Inbox admission at or below the bound is clean; one past it
    /// fires `InboxOverflow` naming the shard.
    #[test]
    fn inbox_overflow_fires_past_bound() {
        let san = ShadowSanitizer::new();
        san.inbox_admit(0, 1, 4);
        san.inbox_admit(0, 4, 4); // exactly at the bound: admissible
        san.assert_clean("inbox within bound");
        san.inbox_admit(3, 5, 4);
        let v = san.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::InboxOverflow);
        assert_eq!(v[0].track, 3);
        assert!(v[0].context.contains("bound 4"), "{}", v[0].context);
    }
}
