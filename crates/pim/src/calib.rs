//! The model's hand-set constants: every cost the simulator charges that
//! the paper's Table 1 does not give.
//!
//! Table 1's parameters stay with the presets they configure
//! ([`TimingParams`](crate::TimingParams), [`Geometry`](crate::Geometry),
//! [`SystemConfig`](crate::SystemConfig)). Everything else the reproduced
//! figures depend on is one constant here, with its unit and its source:
//! a quoted section of the paper, "fit to" the figure it was calibrated
//! against, or "assumed" where the paper gives no value. A gap between a
//! reproduced and a published number is owned by the constants it reads.
//!
//! The `one-calibration-table` lint row keeps numeric `Ps` literals and
//! literal cycle counts out of the other model code.

use crate::time::Ps;

// ---- Reclamation (§5.3, §7.4) ----

/// Fixed overhead of one defragmentation pass, 100 µs: worker-thread
/// creation and PIM-unit activation. Source: §7.4 ("the fixed overhead,
/// including thread creation and PIM units activation, is amortized when
/// the number of transactions is large"); the value is assumed.
pub const DEFRAG_FIXED_OVERHEAD: Ps = Ps::new(100_000_000);

/// Fixed overhead of one incremental garbage-collection pass, 10 µs. GC
/// walks only the chains below the eligible cut and recycles slots in
/// place (no worker fan-out, no PIM-unit activation barrier), so it is
/// set an order of magnitude below [`DEFRAG_FIXED_OVERHEAD`]. Source:
/// assumed.
pub const GC_FIXED_OVERHEAD: Ps = Ps::new(10_000_000);

/// Share of the CPU's peak bus bandwidth a scattered row-version copy
/// achieves (short transfers on the bus), a ratio. Prices both
/// defragmentation and the multi-instance rebuild. Source: assumed.
pub const DEFRAG_CPU_BW_DERATING: f64 = 0.35;

/// Share of the PIM units' peak internal bandwidth a scattered
/// row-version copy achieves (DMA setup per row), a ratio. Prices both
/// defragmentation and the multi-instance rebuild. Source: assumed.
pub const DEFRAG_PIM_BW_DERATING: f64 = 0.25;

/// Metadata bytes per row version (`m` of Equations 1–3), in bytes: what
/// a snapshot update reads per commit-log entry and a rebuild ships per
/// version. Source: §5.3's example.
pub const VERSION_META_BYTES: f64 = 16.0;

// ---- Multi-instance baseline (§7.3) ----

/// Fixed overhead of one multi-instance rebuild, 30 µs. Source: assumed.
pub const MI_REBUILD_FIXED_OVERHEAD: Ps = Ps::new(30_000_000);

/// How much faster the HBM system's dedicated rebuild accelerator runs a
/// multi-instance rebuild than the DIMM software path, a ratio. Source:
/// §7.3, estimated from Polynesia's relative numbers.
pub const MI_HBM_REBUILD_SPEEDUP: f64 = 4.1;

// ---- Transaction CPU costs (Fig. 11(c)) ----
//
// The Payment/NewOrder mix (≈21 index operations, ≈15 allocations, ≈37
// row operations per average transaction) reproduces the paper's shares
// with these: computation 36.63 %, allocation 44.20 %, indexing 19.18 %
// (paper: 36.65 / 44.10 / 19.25 %).

/// CPU cycles of one hash-index probe or insert. The reproduction keys
/// every row by its position, so it performs no probe: this constant is
/// the whole price of the one the paper's executor makes. Source: fit to
/// Fig. 11(c).
pub const INDEX_CYCLES: u64 = 200;

/// CPU cycles of allocating (and version-chaining) one delta slot or
/// insert row. Source: fit to Fig. 11(c).
pub const ALLOC_CYCLES: u64 = 650;

/// CPU cycles of fixed computation per row operation (validation,
/// dispatch). Source: fit to Fig. 11(c).
pub const OP_BASE_CYCLES: u64 = 150;

/// CPU cycles of computation per column value read or written. Source:
/// fit to Fig. 11(c).
pub const PER_VALUE_CYCLES: u64 = 33;

/// CPU cycles of one version-chain hop. Source: fit to Fig. 11(c)'s
/// chain traversal share (< 0.1 %).
pub const CHAIN_STEP_CYCLES: u64 = 10;

/// CPU cycles of the commit-time memory barrier after the clflush train
/// (§6.3), one per transaction. Source: fit to Fig. 11(c).
pub const COMMIT_BARRIER_CYCLES: u64 = 80;

/// CPU cycles of issue and re-layout per cache line touched (load issue,
/// line-fill stall shadow, byte re-layout into the row buffer). Charged
/// to the memory component, so formats needing more lines per row pay
/// for them (Fig. 9(a)) and the Fig. 11(c) CPU shares do not move.
/// Source: assumed.
pub const PER_LINE_CYCLES: u64 = 40;

// ---- Analytical CPU costs (§5.2, §6.3) ----

/// CPU cycles per commit-log entry a snapshot update applies: read the
/// metadata fields and flip two bits in a tight loop. Source: assumed.
pub const SNAPSHOT_ENTRY_CYCLES: u64 = 12;

/// CPU cycles to reduce one gathered per-unit partial value. Source:
/// assumed.
pub const GATHER_CYCLES_PER_VALUE: u64 = 4;

/// CPU cycles to route one hash value into its bucket when partitioning
/// a join's tuples (§6.3). Source: assumed.
pub const PARTITION_CYCLES_PER_TUPLE: u64 = 6;

/// CPU cycles per gathered partial row the coordinator spends merging
/// scatter-gather results. Source: assumed.
pub const MERGE_CYCLES_PER_ROW: u64 = 8;

// ---- PIM control path (§6.1) ----

/// One CPU→PIM-unit control message on the original architecture, 60 ns
/// (one small bus transaction per unit, serialised per channel). It puts
/// an offload at tens of microseconds for a server-scale unit count, as
/// §2.1 says. Source: assumed.
pub const PER_UNIT_MESSAGE: Ps = Ps::new(60_000);

/// The PUSHtap scheduler's fixed decode latency when it recognises a
/// disguised launch or poll request, 50 ns. Source: assumed.
pub const SCHED_DECODE: Ps = Ps::new(50_000);

/// The polling module's latency to forward the aggregated finish signal
/// to the CPU through the DRAM read protocol, 100 ns. Source: assumed.
pub const POLL_RETURN: Ps = Ps::new(100_000);

// ---- Storage format (§7.2) ----

/// The unified format's bin-packing threshold `th`, a ratio. Source:
/// §7.2, the paper's operating point.
pub const UNIFIED_TH: f64 = 0.6;

// ---- Fig. 10's throughput frontier ----

/// Share of the CPU's peak bus bandwidth that Fig. 10's frontier grants
/// as the memory-bus budget transactions and queries share (both
/// systems), a ratio. Source: assumed.
pub const FRONTIER_BUS_SHARE: f64 = 0.6;

// ---- The sharded deployment's two-phase commit and log (`pushtap-shard`) ----

/// One two-phase-commit message hop between shards, prepare or decision,
/// 500 ns. Source: assumed.
pub const TWO_PC_HOP: Ps = Ps::new(500_000);

/// One write-ahead-log force barrier (the group-commit fsync), 2 µs.
/// Source: assumed.
pub const WAL_FORCE_LATENCY: Ps = Ps::new(2_000_000);

/// Upper bound of a participant's vote-processing skew, 200 ns. Source:
/// assumed.
pub const VOTE_JITTER: Ps = Ps::new(200_000);
