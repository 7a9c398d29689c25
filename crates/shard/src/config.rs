//! Configuration of the sharded service.

use pushtap_core::PushtapConfig;

/// Configuration of a [`crate::ShardedHtap`] deployment.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (each a full PUSHtap instance).
    pub shards: u32,
    /// Per-shard engine configuration. The warehouse population
    /// (`base.db.min_warehouses` combined with the scale) must be at
    /// least `shards` so every shard owns a non-empty warehouse range.
    pub base: PushtapConfig,
}

impl ShardConfig {
    /// A small test/example deployment: the engine's small instance with
    /// the warehouse floor raised to 8, so shard counts 1–8 all partition
    /// the *same* global population (results stay comparable across
    /// shard counts).
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
        ShardConfig { shards, base }
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
