//! Sharded HTAP service layer over PUSHtap (`pushtap-shard`).
//!
//! The paper's engine is a *single-instance* HTAP system: one unified
//! format store, one PIM memory, one clock. This crate scales it out the
//! way the ROADMAP's production north star (and the HTAP scale-out
//! literature — Polynesia's isolated islands, the survey's partitioned
//! fresh-analytics challenge) demands, while keeping the property that
//! makes PUSHtap special: *per-shard analytics over the unified format
//! are cheap and fresh*, so cross-shard analytics reduce to
//! scatter-gather over distributive partials.
//!
//! The pieces:
//!
//! * [`ShardConfig`] — shard count + the per-shard PUSHtap
//!   configuration; the two-phase commit's message hop, log force and
//!   vote skew are constants of [`pushtap_pim::calib`];
//! * [`WarehouseMap`] — the contiguous warehouse-range partitioning and
//!   its ownership queries (home shard of a warehouse, of a customer
//!   row, of a stock row), all through the one floor split
//!   [`pushtap_chbench::stripe`] and its inverse;
//! * [`TxnRouter`] — routes CH-benCHmark transactions to their home
//!   shard, computes each transaction's *participant set* (the shards
//!   owning its remote-touched rows — NewOrder stock lines and Payment
//!   customers that live elsewhere), and stamps every transaction's
//!   commit timestamp from the deployment's shared
//!   [`pushtap_mvcc::TsOracle`] in *global stream order*;
//! * [`coordinator`] — the one execution path. Every transaction's
//!   keyset ([`pushtap_oltp::KeySet`]) is derived from the read-only
//!   decomposition before it runs; the
//!   [`coordinator::schedule::WaveScheduler`] assigns each admission to
//!   the earliest conflict-free wave; and each wave — warehouse-local
//!   and cross-shard transactions alike — executes concurrently across
//!   the shards with all two-phase-commit prepare/vote/decide rounds
//!   overlapped. The home shard decomposes the transaction into
//!   owner-tagged effects ([`pushtap_oltp::TpccDb::decompose`]),
//!   prepares its own, forwards the rest, collects votes, and commits
//!   everywhere — or aborts everywhere and re-enters alone, as a wave
//!   of one, at the same pinned timestamp;
//! * [`ArrivalGen`] / [`OpenLoopConfig`] — the front-end the one driver
//!   runs behind: a deterministic seeded arrival process (Poisson plus
//!   an on/off burstiness knob) feeds bounded per-shard inboxes with
//!   admission control, and the scheduler's sliding window dispatches
//!   frontier waves as it fills or as the engines go idle
//!   ([`ShardedHtap::run_open_loop`], [`OpenLoopReport`]). A
//!   closed-loop batch ([`ShardedHtap::run_txns`]) is the same driver
//!   with every arrival at time zero and no bound on inbox or window —
//!   so both commit byte-identical state over the same admitted
//!   stream, and both log, group-commit, checkpoint and crash the same
//!   way when the WAL ([`durability`]) is on;
//! * [`ShardedHtap`] — the service: N independent [`pushtap_core::Pushtap`]
//!   engines (fact tables warehouse-partitioned, dimension tables
//!   replicated, all drawing timestamps from one oracle), OLTP driven
//!   through the coordinator, and Q1/Q6/Q9 answered by global-cut
//!   scatter-gather with [`pushtap_olap::merge_partials`];
//! * [`ShardOltpReport`] / [`ShardQueryReport`] — per-shard and
//!   aggregate accounting (routed counts, remote touches, makespan,
//!   scatter latency, merge cost, wasted retry latency, the agreed
//!   snapshot cut, the 2PC metrics — prepared transactions,
//!   participant aborts, forwarded effects, commit rounds, the
//!   sequential 2PC-time ledger and the critical-path time that
//!   actually landed on clocks — plus the coordinator's scheduling
//!   stats in [`CoordStats`]: waves, overlap, decision log).
//!
//! # Byte identity
//!
//! The load-time invariant (shards hold byte-identical slices of the
//! global fact rows, full replicas of dimension rows — see
//! [`pushtap_oltp::TpccDb::build_partitioned`]) plus the distributivity
//! of the Q1/Q6/Q9 aggregates make the gathered result *exactly equal*
//! to what a single unpartitioned instance would answer after the same
//! transaction stream. The integration tests assert byte equality
//! against [`pushtap_olap::ref_q1`]/[`ref_q6`](pushtap_olap::ref_q6)/
//! [`ref_q9`](pushtap_olap::ref_q9) at 1, 2, and 4 shards.
//!
//! The identity holds under *delta pressure* too: each engine's
//! transactions are atomic (the engine's `pushtap_mvcc::UndoLog` takes
//! back the writes so far when a delta arena fills mid-transaction), so
//! insert rings stay aligned across deployments however often shards
//! abort and retry — `tests/delta_pressure.rs` squeezes every arena
//! until all transaction classes abort and re-asserts the equality, and
//! the shard reports surface the retry/abort counts
//! (`aborts` in [`ShardOltpReport::merged`]).
//!
//! The shared timestamp oracle lifts the invariant from values to raw
//! bytes, and write forwarding extends it to **every table**: commit
//! timestamps are encoded into stored rows, every shard commits under
//! the globally-stream-ordered timestamps the router stamped, and a
//! transaction's remote-owned CUSTOMER/STOCK effects are forwarded to
//! the owning shard and committed there — under the coordinator's
//! pinned timestamp — by the simulated two-phase commit. A shard's
//! committed table bytes (timestamp columns included) therefore equal
//! the corresponding rows of the unpartitioned reference for all
//! tables, under any remote mix, even when participants abort
//! mid-prepare. Scattered queries first agree on one cut — the
//! oracle's watermark — and every shard snapshots at it, so a
//! cross-shard answer reflects a single global snapshot
//! ([`ShardQueryReport::global_cut`]) rather than per-shard clocks.
//!
//! # Examples
//!
//! ```
//! use pushtap_shard::{ShardConfig, ShardedHtap};
//! use pushtap_olap::Query;
//!
//! let mut service = ShardedHtap::new(ShardConfig::small(2))?;
//! let mut gen = service.global_txn_gen(7);
//! let oltp = service.run_txns(&mut gen, 64);
//! assert_eq!(oltp.committed(), 64);
//! let q6 = service.run_query(Query::Q6);
//! assert!(q6.total() > pushtap_pim::Ps::ZERO);
//! # Ok::<(), pushtap_format::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrival;
mod config;
pub mod coordinator;
pub mod durability;
mod partition;
mod report;
mod router;
mod service;

pub use arrival::{ArrivalConfig, ArrivalGen};
pub use config::{OpenLoopConfig, ShardConfig};
pub use durability::{
    CheckpointError, CheckpointReport, CrashPoint, CrashSite, RecoverError, RecoveryReport,
    ShardRecovery, WalBytes,
};
pub use partition::WarehouseMap;
pub use report::{
    CoordStats, OpenLoopReport, RemoteTouches, ShardLoad, ShardOltpReport, ShardQueryReport,
};
pub use router::{Participants, RoutedTxn, TxnRouter};
pub use service::{ShardedHtap, WalHandles};
