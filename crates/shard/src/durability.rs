//! Durability for the sharded service: per-shard effect WALs, the
//! coordinator decision log, crash-point fault injection, and the
//! recovery report types.
//!
//! # The logging protocol
//!
//! Every engine owns one effect log ([`pushtap_wal::Wal`]). When a
//! prepare succeeds, the coordinator appends the transaction's effect
//! subset on that shard as an [`EffectRecord`](pushtap_oltp::EffectRecord)
//! — volatile until the
//! next **group-commit force**. The force barrier runs once per wave
//! per involved shard (a retried casualty is a wave of one), *before*
//! the shard's votes reach the coordinator: a shard never votes yes on
//! records a crash could still lose.
//!
//! Cross-shard transactions additionally need the coordinator's
//! **decision log**: after the vote barrier, the coordinator appends
//! one `Commit(ts)` entry per committed cross-shard transaction and
//! forces the decision log *before* any commit decision is delivered.
//! Recovery then resolves prepared-but-undecided scopes by **presumed
//! abort**: a cross-shard record replays only if the decision log holds
//! its timestamp; a warehouse-local record replays iff it is durable
//! (its own force was its commit point).
//!
//! The ordering gives the durable image a crucial shape: it is always
//! the records of some prefix of complete waves plus a possibly-torn
//! final wave — and a wave's members are mutually conflict-free, so
//! *any* durable subset of the torn wave replays to the same bytes the
//! untouched reference commits for those transactions.
//!
//! # Crash points
//!
//! A [`CrashPoint`] arms an in-process simulated kill at one of six
//! [`CrashSite`]s of the `event`-th wave the next run dispatches —
//! closed loop or open loop, there is one driver. Retries of a wave's
//! casualties belong to that wave: they consume no event number and
//! never fire a crash. The coordinator stops dead at the site —
//! pending log bytes evaporate, forced bytes survive — and the service
//! refuses further runs; a test then harvests the durable bytes and
//! recovers them into a fresh deployment
//! ([`ShardedHtap::recover`](crate::ShardedHtap::recover)).

use std::fmt;

use pushtap_format::LayoutError;
use pushtap_mvcc::Ts;
use pushtap_oltp::CodecError;
use pushtap_wal::{Wal, WalTrim};

/// Where in the commit protocol an armed crash kills the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Before the target wave starts: nothing of it is logged or
    /// applied.
    BeforePrepare,
    /// After every prepare (and its log append) of the target, before
    /// any force barrier: the target's records are pending and die with
    /// the process.
    AfterPrepare,
    /// Mid effect-log flush: the force barriers are underway — earlier
    /// shards' logs are fully forced, the last involved shard's force
    /// tears mid-record, later bytes are lost.
    MidEffectFlush,
    /// Between the vote barrier and the decision-log write: every
    /// effect record is durable, but no decision is — recovery must
    /// presume abort for the target's cross-shard transactions.
    BetweenVoteAndDecision,
    /// Mid decision-log write: the decision entries are appended and
    /// the force tears them mid-record.
    MidDecisionLogWrite,
    /// After the decision log is durable, before any commit decision is
    /// applied to an engine: recovery must *commit* the decided scopes.
    AfterDecision,
}

impl CrashSite {
    /// Every site, in protocol order — the deterministic kill-point
    /// matrix enumerates this.
    pub const ALL: [CrashSite; 6] = [
        CrashSite::BeforePrepare,
        CrashSite::AfterPrepare,
        CrashSite::MidEffectFlush,
        CrashSite::BetweenVoteAndDecision,
        CrashSite::MidDecisionLogWrite,
        CrashSite::AfterDecision,
    ];
}

/// An armed in-process kill: die at `site` of the `event`-th wave
/// (1-based) of the next run. If the run dispatches fewer waves the
/// crash never fires and the run completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The protocol point to die at.
    pub site: CrashSite,
    /// Which wave to die in (1-based).
    pub event: u64,
}

/// The durable bytes a crashed deployment leaves behind: one effect-log
/// image per shard plus the coordinator decision log. This is what a
/// disk would hold after the kill — the only input
/// [`ShardedHtap::recover`](crate::ShardedHtap::recover) gets.
#[derive(Debug, Clone)]
pub struct WalBytes {
    /// Per-shard effect-log images, indexed by shard.
    pub shards: Vec<Vec<u8>>,
    /// The coordinator decision-log image.
    pub decisions: Vec<u8>,
}

impl WalBytes {
    /// Reads the log images a file-backed deployment
    /// ([`crate::ShardedHtap::enable_wal_files`]) wrote under `dir`:
    /// `shard-<i>.wal` for each of `shards` shards plus
    /// `decisions.wal`.
    ///
    /// # Errors
    ///
    /// Propagates the file read errors.
    pub fn read_dir(dir: &std::path::Path, shards: u32) -> std::io::Result<WalBytes> {
        let shards = (0..shards)
            .map(|i| std::fs::read(dir.join(format!("shard-{i}.wal"))))
            .collect::<std::io::Result<Vec<_>>>()?;
        let decisions = std::fs::read(dir.join("decisions.wal"))?;
        Ok(WalBytes { shards, decisions })
    }
}

/// One shard's recovery outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRecovery {
    /// Valid records recovered from the log's longest valid prefix.
    pub records: u64,
    /// Records replayed and committed (decided cross-shard records plus
    /// every durable warehouse-local record).
    pub replayed: u64,
    /// Durable records *skipped* by presumed abort: prepared cross-shard
    /// scopes whose commit decision never became durable.
    pub skipped: u64,
    /// Durable records superseded by a later append at the same
    /// timestamp: a wave casualty's forced record and its retry's log
    /// byte-identical payloads (decomposition is
    /// retry-stable), and replay keeps the last. Always
    /// `replayed + skipped + duplicates == records`.
    pub duplicates: u64,
    /// Row-level effects applied during replay.
    pub effects: u64,
    /// Bytes discarded past the log's longest valid prefix (torn tail).
    pub truncated_bytes: u64,
    /// Whether the log had a torn tail.
    pub torn: bool,
    /// `DeltaFull` retries during replay (replay reclaims arenas by
    /// defragmenting, where live execution tries a GC pass first; byte
    /// identity is unaffected — that is the invariant the crash-point
    /// suite proves).
    pub defrag_retries: u64,
}

/// What [`ShardedHtap::recover`](crate::ShardedHtap::recover) did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Per-shard replay outcomes, indexed by shard.
    pub per_shard: Vec<ShardRecovery>,
    /// Every transaction recovery committed (home-side records),
    /// ascending by timestamp — the exact committed stream the
    /// recovered deployment now holds.
    pub committed: Vec<Ts>,
    /// Commit decisions recovered from the decision log.
    pub decisions: u64,
    /// Bytes discarded past the decision log's longest valid prefix.
    pub decision_truncated: u64,
    /// The timestamp watermark after recovery: past every timestamp any
    /// durable record mentioned, so post-recovery batches allocate
    /// fresh timestamps.
    pub watermark: Ts,
}

impl RecoveryReport {
    /// Total records replayed and committed across shards.
    pub fn replayed(&self) -> u64 {
        self.per_shard.iter().map(|s| s.replayed).sum()
    }

    /// Total durable records presumed-abort skipped across shards.
    pub fn skipped(&self) -> u64 {
        self.per_shard.iter().map(|s| s.skipped).sum()
    }
}

/// What [`ShardedHtap::checkpoint`](crate::ShardedHtap::checkpoint)
/// reclaimed: per-log truncation stats under the snapshot cut the
/// checkpoint compacted below.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// The cut the checkpoint compacted below — the oracle watermark at
    /// checkpoint time; every durable record sat at or under it.
    pub cut: Ts,
    /// Per-shard effect-log truncation stats, indexed by shard.
    pub per_shard: Vec<WalTrim>,
    /// Decision-log truncation stats. Compacted effect records carry
    /// `cross = false` (their commit decision is baked in), so every
    /// decision entry at or below the cut is dropped outright.
    pub decisions: WalTrim,
}

impl CheckpointReport {
    /// Total bytes reclaimed across every log.
    pub fn bytes_reclaimed(&self) -> u64 {
        self.decisions.bytes_reclaimed()
            + self
                .per_shard
                .iter()
                .map(WalTrim::bytes_reclaimed)
                .sum::<u64>()
    }

    /// Total records dropped across every log.
    pub fn records_dropped(&self) -> u64 {
        self.decisions.records_dropped
            + self
                .per_shard
                .iter()
                .map(|t| t.records_dropped)
                .sum::<u64>()
    }
}

/// The decision-log payload for `Commit(ts)`: the timestamp, little
/// endian. Presumed abort needs no abort entries.
pub(crate) fn encode_decision(ts: Ts) -> [u8; 8] {
    ts.0.to_le_bytes()
}

/// Decodes a decision-log payload. The frame checksum vouches for the
/// bytes, not for their meaning: a payload of any other length is a
/// record this version did not write.
pub(crate) fn decode_decision(payload: &[u8]) -> Result<Ts, CodecError> {
    match <[u8; 8]>::try_from(payload) {
        Ok(bytes) => Ok(Ts(u64::from_le_bytes(bytes))),
        Err(_) if payload.len() < 8 => Err(CodecError::Truncated),
        Err(_) => Err(CodecError::TrailingBytes),
    }
}

/// Why log bytes could not be replayed or compacted. Replay never
/// meets a torn or bit-flipped record — the scan truncates the log at
/// the first bad checksum — so apart from [`RecoverError::TornLog`]
/// (a checkpoint will not rewrite a log it would have to cut) these
/// are logs that are intact but not this deployment's: the wrong shard
/// count, or records another format version wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// Building the fresh deployment failed.
    Layout(LayoutError),
    /// The log images cover a different number of shards than the
    /// configuration.
    ShardCount {
        /// Shards in the configuration.
        expected: usize,
        /// Effect-log images supplied.
        found: usize,
    },
    /// A record with a valid checksum failed to decode.
    Undecodable {
        /// The shard whose effect log holds the record; `None` for the
        /// coordinator decision log.
        shard: Option<usize>,
        /// Position of the record within the log's valid prefix.
        record: usize,
        /// What the decoder rejected.
        error: CodecError,
    },
    /// A checkpoint met a log whose durable image ends in a torn or
    /// corrupt frame; no log was rewritten. Recovery cuts such a tail.
    TornLog {
        /// The shard whose effect log is torn; `None` for the
        /// coordinator decision log.
        shard: Option<usize>,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Layout(e) => write!(f, "cannot build the deployment: {e}"),
            RecoverError::ShardCount { expected, found } => write!(
                f,
                "log images cover {found} shard(s), the configuration has {expected}"
            ),
            RecoverError::Undecodable {
                shard: Some(shard),
                record,
                error,
            } => write!(
                f,
                "record {record} of shard {shard}'s effect log is checksummed but undecodable: {error}"
            ),
            RecoverError::Undecodable {
                shard: None,
                record,
                error,
            } => write!(
                f,
                "record {record} of the decision log is checksummed but undecodable: {error}"
            ),
            RecoverError::TornLog { shard: Some(shard) } => write!(
                f,
                "checkpoint over a torn log (shard {shard}'s effect log) — recover it first"
            ),
            RecoverError::TornLog { shard: None } => write!(
                f,
                "checkpoint over a torn log (the decision log) — recover it first"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<LayoutError> for RecoverError {
    fn from(e: LayoutError) -> RecoverError {
        RecoverError::Layout(e)
    }
}

/// Why a checkpoint did not run ([`crate::ShardedHtap::try_checkpoint`]).
/// Every variant but [`CheckpointError::Log`] is an unmet precondition,
/// found before any log was rewritten.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The deployment never enabled its write-ahead log.
    WalDisabled,
    /// An armed crash point has fired: the service is dead and must be
    /// recovered, not checkpointed.
    Crashed,
    /// Snapshot pins are registered: compaction would drop the history a
    /// pinned reader's cut is reconstructed from.
    SnapshotPinned {
        /// Live pins.
        pins: usize,
    },
    /// A log holds appended-but-unforced bytes: a checkpoint rewrites
    /// durable images only, so it runs between forced batches.
    PendingBytes {
        /// The shard whose effect log holds them; `None` for the
        /// coordinator decision log.
        shard: Option<usize>,
    },
    /// A log's durable image is torn, or holds a record this version
    /// cannot decode.
    Log(RecoverError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::WalDisabled => write!(f, "checkpoint requires an enabled WAL"),
            CheckpointError::Crashed => {
                write!(f, "checkpoint on a crashed service — recover it instead")
            }
            CheckpointError::SnapshotPinned { pins } => {
                write!(f, "checkpoint under {pins} active snapshot pin(s)")
            }
            CheckpointError::PendingBytes { shard: Some(shard) } => write!(
                f,
                "checkpoint with pending bytes in shard {shard}'s effect log — force them first"
            ),
            CheckpointError::PendingBytes { shard: None } => write!(
                f,
                "checkpoint with pending bytes in the decision log — force them first"
            ),
            CheckpointError::Log(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<RecoverError> for CheckpointError {
    fn from(e: RecoverError) -> CheckpointError {
        CheckpointError::Log(e)
    }
}

/// Decodes every record of a scanned decision log into the set of
/// decided timestamps.
pub(crate) fn decided_set(
    records: &[Vec<u8>],
) -> Result<std::collections::BTreeSet<u64>, RecoverError> {
    records
        .iter()
        .enumerate()
        .map(|(record, payload)| match decode_decision(payload) {
            Ok(ts) => Ok(ts.0),
            Err(error) => Err(RecoverError::Undecodable {
                shard: None,
                record,
                error,
            }),
        })
        .collect()
}

/// The durability state a deployment owns once its WAL is enabled.
pub(crate) struct Durability {
    /// One effect log per shard.
    pub logs: Vec<Wal>,
    /// The coordinator decision log.
    pub decision_log: Wal,
    /// An armed crash point (cleared only by recovery into a fresh
    /// deployment — a crashed service stays dead).
    pub armed: Option<CrashPoint>,
    /// Whether an armed crash has fired.
    pub crashed: bool,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("logs", &self.logs.len())
            .field("armed", &self.armed)
            .field("crashed", &self.crashed)
            .finish()
    }
}

impl Durability {
    /// The armed crash site if it targets the run's `event`-th wave
    /// (1-based). The driver stops dispatching once a crash fires, so
    /// a fired crash is never asked about again.
    pub fn armed_at(&self, event: u64) -> Option<CrashSite> {
        self.armed.filter(|p| p.event == event).map(|p| p.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_entries_round_trip() {
        for ts in [0u64, 1, 42, u64::MAX] {
            assert_eq!(decode_decision(&encode_decision(Ts(ts))), Ok(Ts(ts)));
        }
        assert_eq!(decode_decision(&[1, 2, 3]), Err(CodecError::Truncated));
        assert_eq!(decode_decision(&[0; 9]), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn crash_sites_enumerate_in_protocol_order() {
        assert_eq!(CrashSite::ALL.len(), 6);
        assert_eq!(CrashSite::ALL[0], CrashSite::BeforePrepare);
        assert_eq!(CrashSite::ALL[5], CrashSite::AfterDecision);
    }

    #[test]
    fn armed_ctx_matches_only_its_event() {
        let (log, _) = Wal::in_memory();
        let (decision_log, _) = Wal::in_memory();
        let durability = Durability {
            logs: vec![log],
            decision_log,
            armed: Some(CrashPoint {
                site: CrashSite::AfterPrepare,
                event: 3,
            }),
            crashed: false,
        };
        assert_eq!(durability.armed_at(2), None);
        assert_eq!(durability.armed_at(3), Some(CrashSite::AfterPrepare));
    }
}
