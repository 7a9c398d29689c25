//! Lifecycle spans and the sink trait the engines emit them through.
//!
//! A [`Span`] is one timestamped interval (or instant) in a routed
//! transaction's life, stamped with the shard (`track`) it happened on,
//! the lifecycle [`Phase`], the transaction's pinned commit timestamp,
//! and the 1-based wave it ran in.
//! Times are raw simulated picoseconds (the engine crates' `Ps` values
//! via `.ps()`), keeping this crate zero-dependency.
//!
//! Emission goes through the [`TraceSink`] trait: the engines hold an
//! `Arc<dyn TraceSink>` that defaults to [`NullSink`], whose
//! [`TraceSink::enabled`] returns `false` so every hot-path emission
//! site is one branch and no allocation. Benches and tests install a
//! [`MemSink`] to collect spans for export or reconciliation.

use std::fmt;
use std::sync::Mutex;

/// A phase of a routed transaction's lifecycle (the span taxonomy).
///
/// Interval phases have `start < end` in general; the decision/queue
/// phases can legally be zero-length (a delivery that arrived while the
/// engine was still busy stalls it for nothing). Instant phases always
/// have `start == end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Instant: the router stamped the transaction and assigned its
    /// home shard.
    Routed,
    /// Interval: time spent in the home shard's inbox before the
    /// transaction's wave dispatched — from its arrival open loop, from
    /// the run's start (behind the batch's earlier waves) closed loop.
    Queued,
    /// Instant: an open-loop arrival turned away at a full home-shard
    /// inbox (admission control; counted backpressure, never a silent
    /// drop).
    Rejected,
    /// Interval: one engine-level prepare attempt that succeeded
    /// (applies to one-phase local commits too — they ride the same
    /// prepare machinery).
    Prepare,
    /// Interval: one engine-level prepare attempt that hit `DeltaFull`
    /// and rolled back (this engine voted "no").
    PrepareAbort,
    /// Interval: a shard's whole prepare pass over one wave.
    WavePrepare,
    /// Interval: the home shard's wait for the vote round-trip of one
    /// cross-shard transaction (possibly zero under overlap).
    VoteBarrier,
    /// Interval: a shard's whole decision pass over one wave.
    WaveDecide,
    /// Interval: one participant's wait for a decision delivery
    /// (possibly zero under overlap).
    Decide,
    /// Interval: one transaction's two-phase-commit participation on
    /// one shard (home or participant side; covers the prepare
    /// attempt).
    TwoPc,
    /// Instant: a commit decision applied (scope resolved).
    Commit,
    /// Instant: an abort decision applied (pinned undo replayed).
    Abort,
    /// Instant: an aborted transaction re-entered the coordinator as a
    /// wave of one.
    Retry,
    /// Interval: a defragmentation pause (OLTP stalled on this shard).
    DefragStall,
    /// Interval: an incremental garbage-collection pass (version-chain
    /// compaction, delta-slot recycling, commit-log trimming below the
    /// oracle's eligible cut) — much shorter than a full defrag stall.
    GcPass,
    /// Instant: one effect record appended to the shard's write-ahead
    /// log (volatile until the next group-commit force).
    WalAppend,
    /// Interval: one group-commit force barrier — the shard's pending
    /// log bytes pushed to durable media, paying the configured force
    /// latency once for the whole wave.
    GroupCommit,
    /// Interval: the shard's crash-recovery replay (scanning its effect
    /// log and re-committing decided records at their pinned
    /// timestamps).
    Recovery,
}

impl Phase {
    /// The span's display name (the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Routed => "routed",
            Phase::Queued => "queued",
            Phase::Rejected => "rejected",
            Phase::Prepare => "prepare",
            Phase::PrepareAbort => "prepare_abort",
            Phase::WavePrepare => "wave_prepare",
            Phase::VoteBarrier => "vote_barrier",
            Phase::WaveDecide => "wave_decide",
            Phase::Decide => "decide",
            Phase::TwoPc => "2pc",
            Phase::Commit => "commit",
            Phase::Abort => "abort",
            Phase::Retry => "retry",
            Phase::DefragStall => "defrag_stall",
            Phase::GcPass => "gc_pass",
            Phase::WalAppend => "wal_append",
            Phase::GroupCommit => "group_commit",
            Phase::Recovery => "recovery",
        }
    }

    /// Whether this phase is a zero-length instant.
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            Phase::Routed
                | Phase::Rejected
                | Phase::Commit
                | Phase::Abort
                | Phase::Retry
                | Phase::WalAppend
        )
    }

    /// The per-shard lane (Chrome-trace `tid`) the phase renders on:
    /// engine work (0), coordinator protocol (1), defragmentation (2),
    /// queueing (3), durability (4). Queue spans overlap freely (many
    /// transactions wait at once), so the export renders them as async
    /// events on their own lane rather than as nested slices.
    pub fn lane(self) -> u32 {
        match self {
            Phase::Prepare | Phase::PrepareAbort => 0,
            Phase::Routed
            | Phase::WavePrepare
            | Phase::VoteBarrier
            | Phase::WaveDecide
            | Phase::Decide
            | Phase::TwoPc
            | Phase::Commit
            | Phase::Abort
            | Phase::Retry => 1,
            Phase::DefragStall | Phase::GcPass => 2,
            Phase::Queued | Phase::Rejected => 3,
            Phase::WalAppend | Phase::GroupCommit | Phase::Recovery => 4,
        }
    }
}

/// One recorded lifecycle event (see [`Phase`] for the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The shard the event happened on (Chrome-trace `pid`).
    pub track: u32,
    /// Lifecycle phase.
    pub phase: Phase,
    /// The transaction's pinned commit timestamp (`Ts.0`); 0 for
    /// events not tied to one transaction (e.g. defrag stalls).
    pub txn: u64,
    /// 1-based wave the event belonged to; 0 outside wave execution.
    pub wave: u64,
    /// Start time, simulated picoseconds on the shard's clock.
    pub start: u64,
    /// End time (`== start` for instants).
    pub end: u64,
}

impl Span {
    /// An interval span.
    pub fn new(track: u32, phase: Phase, txn: u64, start: u64, end: u64) -> Span {
        Span {
            track,
            phase,
            txn,
            wave: 0,
            start,
            end,
        }
    }

    /// An instant span (`end == start`).
    pub fn instant(track: u32, phase: Phase, txn: u64, at: u64) -> Span {
        Span::new(track, phase, txn, at, at)
    }

    /// The same span tagged with a 1-based wave id.
    pub fn in_wave(mut self, wave: u64) -> Span {
        self.wave = wave;
        self
    }

    /// Duration in picoseconds (0 for instants).
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Where lifecycle spans go.
///
/// The default implementation of [`TraceSink::enabled`] returns `true`;
/// emission sites guard with it so a disabled sink ([`NullSink`]) costs
/// one branch and zero allocation on the hot path.
///
/// # Examples
///
/// A sink that only counts — the no-op default of `enabled` means
/// emitters will still call `record`:
///
/// ```
/// use pushtap_trace::{Phase, Span, TraceSink};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// #[derive(Debug, Default)]
/// struct Counter(AtomicU64);
///
/// impl TraceSink for Counter {
///     // `enabled` defaults to true: no override needed.
///     fn record(&self, _span: Span) {
///         self.0.fetch_add(1, Ordering::Relaxed);
///     }
/// }
///
/// let sink = Counter::default();
/// assert!(sink.enabled());
/// sink.record(Span::instant(0, Phase::Commit, 1, 42));
/// assert_eq!(sink.0.load(Ordering::Relaxed), 1);
/// ```
pub trait TraceSink: fmt::Debug + Send + Sync {
    /// Whether emission sites should bother building spans. Defaults to
    /// `true`; [`NullSink`] overrides it to `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one span. The simulator emits from one thread, in a
    /// deterministic order; a caller may still share one sink across
    /// its own threads, so implementations must synchronise internally.
    fn record(&self, span: Span);
}

/// The default sink: drops everything and reports itself disabled, so
/// instrumented hot paths skip span construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _span: Span) {}
}

/// An in-memory sink for benches and tests: collects every span, in
/// emission order, behind a mutex (the simulator emits from one thread;
/// the lock lets a caller share the sink across its own).
#[derive(Debug, Default)]
pub struct MemSink {
    spans: Mutex<Vec<Span>>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// Takes every span recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("sink poisoned"))
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("sink poisoned").clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("sink poisoned").len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemSink {
    fn record(&self, span: Span) {
        self.spans.lock().expect("sink poisoned").push(span);
    }
}

/// The peak number of *distinct transactions* with a [`Phase::TwoPc`]
/// span open at the same moment within one wave, maximised over waves.
/// Returns `(wave, peak)` for the best wave (`(0, 0)` if no 2PC span
/// was recorded). This is the "≥ 2 concurrently open 2PC spans in one
/// wave" overlap check the bench and the reconciliation test assert.
///
/// A transaction's home and participant spans are merged into one
/// interval per (wave, txn) before the sweep, so a single cross-shard
/// transaction never counts as overlapping itself.
pub fn two_pc_overlap_peak(spans: &[Span]) -> (u64, usize) {
    use std::collections::BTreeMap;
    // (wave, txn) -> merged interval.
    let mut merged: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    for s in spans {
        if s.phase != Phase::TwoPc || s.wave == 0 {
            continue;
        }
        let e = merged.entry((s.wave, s.txn)).or_insert((s.start, s.end));
        e.0 = e.0.min(s.start);
        e.1 = e.1.max(s.end);
    }
    let mut best = (0u64, 0usize);
    let mut wave_events: BTreeMap<u64, Vec<(u64, i64)>> = BTreeMap::new();
    for (&(wave, _), &(start, end)) in &merged {
        let ev = wave_events.entry(wave).or_default();
        ev.push((start, 1));
        // Close strictly after the end so touching intervals (end ==
        // next start) still count as concurrent at the boundary point.
        ev.push((end.saturating_add(1), -1));
    }
    for (wave, mut events) in wave_events {
        events.sort_unstable();
        let mut open = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            open += d;
            peak = peak.max(open);
        }
        if peak as usize > best.1 {
            best = (wave, peak as usize);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(Span::instant(0, Phase::Commit, 1, 0)); // no-op
    }

    #[test]
    fn mem_sink_collects_and_takes() {
        let s = MemSink::new();
        assert!(s.enabled());
        assert!(s.is_empty());
        s.record(Span::new(1, Phase::Prepare, 7, 10, 20));
        s.record(Span::instant(1, Phase::Commit, 7, 20));
        assert_eq!(s.len(), 2);
        let spans = s.take();
        assert!(s.is_empty());
        assert_eq!(spans[0].dur(), 10);
        assert_eq!(spans[1].dur(), 0);
        assert!(spans[1].phase.is_instant());
    }

    #[test]
    fn overlap_peak_counts_distinct_txns_per_wave() {
        let spans = [
            // Wave 1: txn 1 on two shards (merged — must not self-count),
            // overlapping txn 2.
            Span::new(0, Phase::TwoPc, 1, 0, 100).in_wave(1),
            Span::new(1, Phase::TwoPc, 1, 40, 90).in_wave(1),
            Span::new(2, Phase::TwoPc, 2, 50, 150).in_wave(1),
            // Wave 2: two disjoint txns — no overlap.
            Span::new(0, Phase::TwoPc, 3, 200, 210).in_wave(2),
            Span::new(1, Phase::TwoPc, 4, 220, 230).in_wave(2),
            // A retry's 2PC runs alone (wave 0) and is excluded.
            Span::new(0, Phase::TwoPc, 5, 0, 1_000),
        ];
        assert_eq!(two_pc_overlap_peak(&spans), (1, 2));
        assert_eq!(two_pc_overlap_peak(&spans[3..5]), (2, 1));
        assert_eq!(two_pc_overlap_peak(&[]), (0, 0));
    }
}
