//! Configuration of the sharded service.

use pushtap_core::PushtapConfig;
use pushtap_pim::Ps;

/// Message-round latencies of the simulated two-phase commit.
///
/// A cross-shard transaction pays one prepare round (the coordinator
/// forwards each participant its owned effect set) and one decision
/// round (commit or abort). Each hop is charged to the clock of the
/// engine receiving the message; the coordinator additionally waits out
/// one `prepare_hop + commit_hop` round-trip per attempt — including
/// attempts that end in a participant's "no" vote — before it can act
/// on the decision.
#[derive(Debug, Clone, Copy)]
pub struct CommitConfig {
    /// Latency of delivering a prepare request (with its forwarded
    /// effect set) to a participant shard.
    pub prepare_hop: Ps,
    /// Latency of delivering the commit/abort decision to a participant
    /// shard.
    pub commit_hop: Ps,
    /// Latency of one write-ahead-log force barrier (the group-commit
    /// fsync, extending the §6.3 force-barrier model to durable media).
    /// Charged to the forcing shard's clock and `critical_path_time`
    /// once per *force*, not per transaction — a wave amortizes one
    /// force across every record it appended.
    /// Inert unless the deployment enables its WAL
    /// (`ShardedHtap::enable_wal`).
    pub force_latency: Ps,
    /// Upper bound of the per-participant vote-processing skew in the
    /// laggard vote-barrier model. A participant's "yes" vote leaves
    /// its shard the instant *that transaction's* prepare finished on
    /// its clock (an early vote: later items of the same wave and the
    /// wave's group-commit force do not hold it back), travels one
    /// `prepare_hop`, and is additionally delayed by a deterministic
    /// per-(participant, transaction) skew drawn uniformly from
    /// `[0, vote_jitter]` — so the coordinator's decision stall
    /// reflects the *slowest* participant, not a free round-trip.
    /// [`Ps::ZERO`] disables the jitter term but not the laggard
    /// coupling itself.
    pub vote_jitter: Ps,
}

impl CommitConfig {
    /// All rounds, forces, and vote skews free — isolates pure engine
    /// time in experiments.
    pub const FREE: CommitConfig = CommitConfig {
        prepare_hop: Ps::ZERO,
        commit_hop: Ps::ZERO,
        force_latency: Ps::ZERO,
        vote_jitter: Ps::ZERO,
    };
}

/// Configuration of a [`crate::ShardedHtap`] deployment.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (each a full PUSHtap instance).
    pub shards: u32,
    /// Per-shard engine configuration. The warehouse population
    /// (`base.db.min_warehouses` combined with the scale) must be at
    /// least `shards` so every shard owns a non-empty warehouse range.
    pub base: PushtapConfig,
    /// Two-phase-commit message-round latencies charged when a
    /// transaction's effects span shards (remote-owned CUSTOMER/STOCK
    /// rows are *forwarded* to their owning shard and committed there
    /// under the coordinator's pinned timestamp).
    pub commit: CommitConfig,
}

impl ShardConfig {
    /// A small test/example deployment: the engine's small instance with
    /// the warehouse floor raised to 8, so shard counts 1–8 all partition
    /// the *same* global population (results stay comparable across
    /// shard counts), and 500 ns prepare/commit hops.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds the 8-warehouse floor.
    pub fn small(shards: u32) -> ShardConfig {
        assert!(
            (1..=8).contains(&shards),
            "small config supports 1..=8 shards, got {shards}"
        );
        let mut base = PushtapConfig::small();
        base.db.min_warehouses = 8;
        ShardConfig {
            shards,
            base,
            commit: CommitConfig {
                prepare_hop: Ps::from_ns(500.0),
                commit_hop: Ps::from_ns(500.0),
                force_latency: Ps::from_us(2.0),
                vote_jitter: Ps::from_ns(200.0),
            },
        }
    }
}

/// Configuration of the open-loop front-end
/// ([`crate::ShardedHtap::run_open_loop`]): admission control and the
/// incremental scheduler's sliding window. The arrival process itself
/// lives in [`crate::ArrivalConfig`] / [`crate::ArrivalGen`].
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Per-shard inbox bound: an arrival finding this many of its home
    /// shard's transactions still in the system — admitted and waiting
    /// for dispatch, or dispatched in a wave that has not yet completed
    /// on the home clock at the arrival instant — is *rejected*:
    /// counted, reported as backpressure, never silently dropped. Must
    /// be positive.
    pub inbox_depth: usize,
    /// Sliding-window size of the incremental wave scheduler: the
    /// frontier wave is dispatched whenever this many admitted
    /// transactions are pending (the window closes), or earlier if the
    /// engines would otherwise idle. Must be positive.
    pub window: usize,
}

impl OpenLoopConfig {
    /// A front-end with the given inbox bound and scheduling window.
    pub fn new(inbox_depth: usize, window: usize) -> OpenLoopConfig {
        OpenLoopConfig {
            inbox_depth,
            window,
        }
    }
}
