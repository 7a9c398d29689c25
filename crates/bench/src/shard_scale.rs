//! Shard-scaling experiment: aggregate OLTP throughput (tpmC),
//! two-phase-commit cost, wave scheduling, and scatter-gather query
//! latency as the deployment grows from 1 to N warehouse-partitioned
//! shards over one fixed global population.
//!
//! Per point, a routed global stream runs through the wave-scheduling
//! coordinator: non-conflicting transactions (local *and* cross-shard)
//! execute concurrently and a wave's 2PC message rounds overlap in
//! flight. A perfectly-partitionable **local** load bounds the
//! no-coordination upper limit; the gap between the two is the price
//! of cross-shard atomic commitment, and the wave stats (count, width,
//! overlap ratio) say how much of it the schedule claws back. The
//! sweep covers three [`RemoteMix`]es: fully local (0 % remote — 2PC
//! never fires), TPC-C's specified 1 %/15 % remote probabilities, and
//! the uniform draw (≈ (k−1)/k of touches remote at k shards — a worst
//! case).
//!
//! Every routed batch runs with the per-shard effect WAL enabled
//! ([`pushtap_shard::ShardedHtap::enable_wal`]), so each point also
//! reports the durability cost: effect-log appends/forces/bytes, the
//! coordinator decision log's appends/syncs, and **fsync-per-txn** —
//! group commit's acceptance number, which one barrier per wave keeps
//! below 1.0.
//!
//! `--json` (on the `shard_scale` and `all_figures` binaries) writes
//! the full sweep to `BENCH_shard_scale.json` so the perf trajectory is
//! machine-readable across PRs.

use std::fmt::Write as _;
use std::sync::Arc;

use pushtap_chbench::RemoteMix;
use pushtap_olap::Query;
use pushtap_pim::Ps;
use pushtap_shard::{ShardConfig, ShardedHtap};
use pushtap_trace::{chrome, fmt_ps, two_pc_overlap_peak, LatencyStats, MemSink};

/// The routed stream's outcome at one point.
#[derive(Debug, Clone, Copy)]
pub struct RoutedPoint {
    /// Aggregate tpmC of the routed global stream.
    pub routed_tpmc: f64,
    /// Share of deployment busy time spent on 2PC message rounds
    /// (critical-path based — never exceeds 1.0 under overlap).
    pub two_pc_time_share: f64,
    /// Sequential-delivery ledger of 2PC message latency.
    pub two_pc_time: Ps,
    /// Coordinator latency that actually landed on the shards' clocks:
    /// 2PC message stalls (what is left of the ledger after a wave's
    /// deliveries overlap, plus laggard-vote waits) and group-commit
    /// force barriers ([`RoutedPoint::wal_force_time`]).
    pub critical_path_time: Ps,
    /// Waves dispatched.
    pub waves: u64,
    /// Transactions in the largest wave.
    pub max_wave: u64,
    /// Fraction of cross-shard 2PCs overlapped with another of their
    /// wave.
    pub overlap_ratio: f64,
    /// Prepared scopes aborted by coordinator decisions (participant
    /// `DeltaFull` votes).
    pub participant_aborts: u64,
    /// Realised parallel speedup of the routed batch (≤ shards).
    pub parallel_efficiency: f64,
    /// End-to-end commit-latency distribution of the routed batch
    /// (p50/p90/p99/p999/max/mean in picoseconds), merged across shards.
    pub commit_latency: LatencyStats,
    /// Effect records appended to the per-shard WALs.
    pub wal_appends: u64,
    /// Group-commit force barriers across the per-shard effect logs.
    pub wal_forces: u64,
    /// Framed bytes appended to the per-shard effect logs.
    pub wal_bytes: u64,
    /// Force-barrier latency charged to the shards' critical paths.
    pub wal_force_time: Ps,
    /// Commit decisions appended to the coordinator decision log.
    pub decision_appends: u64,
    /// Decision-log syncs (≤ appends — waves amortize).
    pub decision_forces: u64,
    /// Durable syncs per committed transaction (effect-log forces plus
    /// decision syncs over commits) — group commit drives this below
    /// 1.0 under waves.
    pub fsync_per_txn: f64,
}

/// One row of the shard-scaling table: the routed stream, the local
/// upper bound and the query latencies.
#[derive(Debug, Clone, Copy)]
pub struct ShardPoint {
    /// Shard count.
    pub shards: u32,
    /// Transactions committed (the routed batch + the local streams).
    pub committed: u64,
    /// Aggregate tpmC of perfectly-partitioned local streams.
    pub local_tpmc: f64,
    /// Fraction of routed transactions touching a remote shard (each
    /// runs as a two-phase commit).
    pub cross_shard_fraction: f64,
    /// Effects applied on non-home shards during the routed batch.
    pub forwarded_effects: u64,
    /// Two-phase-commit message rounds charged during the routed batch
    /// (the merged `two_pc_stall` count).
    pub commit_rounds: u64,
    /// The routed batch's outcome (the `"pipelined"` object of the JSON
    /// report — a key kept so the file stays diffable across PRs).
    pub routed: RoutedPoint,
    /// End-to-end scatter-gather Q1 latency.
    pub q1_latency: Ps,
    /// End-to-end scatter-gather Q6 latency.
    pub q6_latency: Ps,
    /// End-to-end scatter-gather Q9 latency.
    pub q9_latency: Ps,
}

fn run_routed(
    shards: u32,
    txns: u64,
    cores: u32,
    mix: RemoteMix,
) -> (ShardedHtap, pushtap_shard::ShardOltpReport, RoutedPoint) {
    let mut service = ShardedHtap::new(ShardConfig::small(shards)).expect("build shards");
    let _wal = service.enable_wal();
    let warehouses = service.map().warehouses();
    let mut gen = service.global_txn_gen(42).with_remote_mix(mix, warehouses);
    let routed = service.run_txns(&mut gen, txns);
    let total = routed.merged();
    let point = RoutedPoint {
        routed_tpmc: routed.tpmc(cores),
        two_pc_time_share: routed.two_pc_time_share(),
        two_pc_time: total.two_pc_time,
        critical_path_time: total.critical_path_time,
        waves: routed.coord.waves,
        max_wave: routed.coord.max_wave,
        overlap_ratio: routed.overlap_ratio(),
        participant_aborts: total.participant_aborts,
        parallel_efficiency: routed.parallel_efficiency(),
        commit_latency: total.commit_latency.stats(),
        wal_appends: total.wal_appends,
        wal_forces: total.wal_forces,
        wal_bytes: total.wal_bytes,
        wal_force_time: total.wal_force_time,
        decision_appends: routed.coord.decision_appends,
        decision_forces: routed.coord.decision_forces,
        fsync_per_txn: routed.fsync_per_txn(),
    };
    (service, routed, point)
}

/// Runs the sweep under the given remote-warehouse mix: `txns` routed
/// transactions (and the same count again as local streams) per shard
/// count, then one scatter-gather pass of each query.
pub fn sweep(shard_counts: &[u32], txns: u64, cores: u32, mix: RemoteMix) -> Vec<ShardPoint> {
    shard_counts
        .iter()
        .map(|&shards| {
            let (mut service, report, routed) = run_routed(shards, txns, cores, mix);
            let local = service.run_local_txns(43, txns / shards as u64);
            let q1 = service.run_query(Query::Q1);
            let q6 = service.run_query(Query::Q6);
            let q9 = service.run_query(Query::Q9);
            let total = report.merged();
            ShardPoint {
                shards,
                committed: report.committed() + local.committed(),
                local_tpmc: local.tpmc(cores),
                cross_shard_fraction: report.remote.cross_shard_fraction(),
                forwarded_effects: total.forwarded_effects,
                commit_rounds: total.two_pc_stall.count(),
                routed,
                q1_latency: q1.total(),
                q6_latency: q6.total(),
                q9_latency: q9.total(),
            }
        })
        .collect()
}

const MIXES: [(RemoteMix, &str, &str); 3] = [
    (
        RemoteMix::LOCAL,
        "local",
        "warehouse-local (0% remote, no 2PC)",
    ),
    (RemoteMix::TPCC, "tpcc", "TPC-C 1% NewOrder / 15% Payment"),
    (RemoteMix::Uniform, "uniform", "uniform (worst case)"),
];

fn print_table(label: &str, points: &[ShardPoint]) {
    println!("-- remote-warehouse mix: {label} --");
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>6} {:>5} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10}",
        "shards",
        "routed tpmC",
        "local tpmC",
        "x-shard",
        "waves",
        "maxw",
        "overlap",
        "2pc",
        "fsync/txn",
        "p50",
        "p99",
        "Q1",
        "Q6",
        "Q9"
    );
    for p in points {
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>7.1}% {:>6} {:>5} {:>7.1}% {:>8.2}% {:>9.3} {:>9} {:>9} {:>10} {:>10} {:>10}",
            p.shards,
            p.routed.routed_tpmc,
            p.local_tpmc,
            p.cross_shard_fraction * 100.0,
            p.routed.waves,
            p.routed.max_wave,
            p.routed.overlap_ratio * 100.0,
            p.routed.two_pc_time_share * 100.0,
            p.routed.fsync_per_txn,
            fmt_ps(p.routed.commit_latency.p50),
            fmt_ps(p.routed.commit_latency.p99),
            p.q1_latency,
            p.q6_latency,
            p.q9_latency,
        );
    }
}

/// Runs the full sweep once: every mix × the given shard counts. One
/// entry per mix: (json key, table label, points).
fn sweep_all(
    shard_counts: &[u32],
    txns: u64,
    cores: u32,
) -> Vec<(&'static str, &'static str, Vec<ShardPoint>)> {
    MIXES
        .iter()
        .map(|&(mix, key, label)| (key, label, sweep(shard_counts, txns, cores, mix)))
        .collect()
}

fn print_header() {
    println!("== Shard scaling: tpmC, 2PC cost, waves, scatter-gather latency ==");
    println!("(small population, 8 warehouses, 400 routed txns per point)");
}

/// Prints the shard-scaling tables, one per remote-warehouse mix.
pub fn print_all() {
    print_header();
    for (_, label, points) in sweep_all(&[1, 2, 4, 8], 400, 16) {
        print_table(label, &points);
    }
}

/// Prints the shard-scaling tables *and* writes `BENCH_shard_scale.json`
/// from the same single sweep (the sweep is the expensive part — it
/// must not run twice).
pub fn print_and_write_json() -> std::io::Result<()> {
    print_header();
    let all = sweep_all(&[1, 2, 4, 8], 400, 16);
    for (_, label, points) in &all {
        print_table(label, points);
    }
    let path = "BENCH_shard_scale.json";
    std::fs::write(path, render_json(&all))?;
    println!("wrote {path}");
    Ok(())
}

fn json_routed(out: &mut String, point: &RoutedPoint) {
    let _ = write!(
        out,
        "{{\"routed_tpmc\":{:.1},\"two_pc_time_share\":{:.6},\"two_pc_time_ps\":{},\
         \"critical_path_time_ps\":{},\"waves\":{},\"max_wave\":{},\
         \"overlap_ratio\":{:.6},\"participant_aborts\":{},\"parallel_efficiency\":{:.4},\
         \"commit_p50_ps\":{},\"commit_p99_ps\":{},\"commit_p999_ps\":{},\
         \"commit_mean_ps\":{},\"commit_max_ps\":{},\
         \"wal_appends\":{},\"wal_forces\":{},\"wal_bytes\":{},\"wal_force_time_ps\":{},\
         \"decision_appends\":{},\"decision_forces\":{},\"fsync_per_txn\":{:.6}}}",
        point.routed_tpmc,
        point.two_pc_time_share,
        point.two_pc_time.ps(),
        point.critical_path_time.ps(),
        point.waves,
        point.max_wave,
        point.overlap_ratio,
        point.participant_aborts,
        point.parallel_efficiency,
        point.commit_latency.p50,
        point.commit_latency.p99,
        point.commit_latency.p999,
        point.commit_latency.mean,
        point.commit_latency.max,
        point.wal_appends,
        point.wal_forces,
        point.wal_bytes,
        point.wal_force_time.ps(),
        point.decision_appends,
        point.decision_forces,
        point.fsync_per_txn,
    );
}

/// Renders a completed sweep (all mixes × shard counts) as a JSON
/// document.
fn render_json(all: &[(&'static str, &'static str, Vec<ShardPoint>)]) -> String {
    let mut out = String::from("{\n  \"bench\": \"shard_scale\",\n  \"points\": [\n");
    let mut first = true;
    for (mix_key, _, points) in all {
        for p in points {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "    {{\"mix\":\"{mix_key}\",\"shards\":{},\"committed\":{},\
                 \"local_tpmc\":{:.1},\"cross_shard_fraction\":{:.6},\
                 \"forwarded_effects\":{},\"commit_rounds\":{},\
                 \"q1_ps\":{},\"q6_ps\":{},\"q9_ps\":{},\"pipelined\":",
                p.shards,
                p.committed,
                p.local_tpmc,
                p.cross_shard_fraction,
                p.forwarded_effects,
                p.commit_rounds,
                p.q1_latency.ps(),
                p.q6_latency.ps(),
                p.q9_latency.ps(),
            );
            json_routed(&mut out, &p.routed);
            out.push('}');
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Collects one traced run (uniform remote mix — the
/// 2PC-heaviest load) and renders it as a Chrome-trace JSON document:
/// one process per shard, lanes for engine work, coordinator protocol
/// phases, defragmentation stalls, and queue waits. The document is
/// self-validated before it is returned (well-formed JSON, monotone
/// timestamps per track, matched async pairs), so a caller can write it
/// straight to disk and load it in Perfetto / `chrome://tracing`.
///
/// Returns the rendered document plus the peak number of two-phase
/// commits open concurrently in the busiest wave.
///
/// # Panics
///
/// Panics if the rendered document fails its own validator — that is a
/// bug in the span emission, never an input-dependent condition.
pub fn render_trace(shards: u32, txns: u64) -> (String, u64, usize) {
    let mut service = ShardedHtap::new(ShardConfig::small(shards)).expect("build shards");
    let sink = Arc::new(MemSink::default());
    service.set_trace_sink(sink.clone());
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(42)
        .with_remote_mix(RemoteMix::Uniform, warehouses);
    service.run_txns(&mut gen, txns);
    let spans = sink.take();
    let (wave, peak) = two_pc_overlap_peak(&spans);
    let doc = chrome::render(&spans);
    if let Err(e) = chrome::validate(&doc) {
        panic!("rendered trace failed validation: {e}");
    }
    (doc, wave, peak)
}

/// Runs a traced batch and writes the Chrome-trace document
/// to `path` (see [`render_trace`]).
///
/// # Errors
///
/// Propagates the file write error.
pub fn write_trace(path: &str, shards: u32, txns: u64) -> std::io::Result<()> {
    let (doc, wave, peak) = render_trace(shards, txns);
    std::fs::write(path, &doc)?;
    println!(
        "wrote {path} ({} bytes): {shards}-shard uniform-mix timeline, \
         peak {peak} concurrent 2PCs in wave {wave}",
        doc.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_throughput_scales_with_shards() {
        let points = sweep(&[1, 4], 120, 16, RemoteMix::Uniform);
        assert_eq!(points.len(), 2);
        let (one, four) = (points[0], points[1]);
        assert_eq!(one.shards, 1);
        assert!(one.committed > 0 && four.committed > 0);
        // Perfectly-partitioned load on 4 engines must beat 1 engine by
        // a clear margin (4× minus skew; accept > 2×).
        assert!(
            four.local_tpmc > one.local_tpmc * 2.0,
            "local tpmC {} vs {}",
            four.local_tpmc,
            one.local_tpmc
        );
        // A single shard sees no cross-shard traffic and runs no 2PC;
        // four shards must do both.
        assert_eq!(one.cross_shard_fraction, 0.0);
        assert_eq!(one.forwarded_effects, 0);
        assert_eq!(one.commit_rounds, 0);
        assert!(four.cross_shard_fraction > 0.5);
        assert!(four.forwarded_effects > 0);
        assert!(four.commit_rounds > 0);
        assert!(four.routed.two_pc_time_share > 0.0);
    }

    /// The TPC-C remote rates cut cross-shard coordination by an order
    /// of magnitude against the uniform worst case, and the fully local
    /// mix never fires 2PC at all.
    #[test]
    fn remote_mixes_order_two_pc_cost() {
        let local = sweep(&[4], 150, 16, RemoteMix::LOCAL);
        let tpcc = sweep(&[4], 150, 16, RemoteMix::TPCC);
        let uniform = sweep(&[4], 150, 16, RemoteMix::Uniform);
        assert_eq!(local[0].cross_shard_fraction, 0.0);
        assert_eq!(local[0].forwarded_effects, 0);
        assert_eq!(local[0].routed.two_pc_time_share, 0.0);
        assert!(
            tpcc[0].cross_shard_fraction < uniform[0].cross_shard_fraction * 0.5,
            "TPC-C {} vs uniform {}",
            tpcc[0].cross_shard_fraction,
            uniform[0].cross_shard_fraction
        );
        // ~48.9% of txns are Payments at 15% remote, plus NewOrders with
        // ≥5 lines at 1%: expect a low-but-nonzero cross-shard rate.
        assert!(tpcc[0].cross_shard_fraction > 0.0);
        assert!(tpcc[0].cross_shard_fraction < 0.35);
        assert!(tpcc[0].forwarded_effects > 0);
        assert!(tpcc[0].forwarded_effects < uniform[0].forwarded_effects);
        assert!(tpcc[0].commit_rounds < uniform[0].commit_rounds);
    }

    /// At ≥ 4 shards under the cross-shard-heavy mixes the schedule
    /// overlaps 2PCs.
    #[test]
    fn waves_overlap_two_pcs() {
        for mix in [RemoteMix::TPCC, RemoteMix::Uniform] {
            for p in sweep(&[4, 8], 150, 16, mix) {
                let r = p.routed;
                assert!(r.overlap_ratio > 0.0, "{} shards", p.shards);
                assert!(r.waves > 0 && r.max_wave > 1);
                assert!(r.two_pc_time_share <= 1.0);
            }
        }
    }

    /// The JSON report covers every mix × shard count with parsable
    /// numbers.
    #[test]
    fn json_report_lists_every_point() {
        let json = render_json(&sweep_all(&[1, 2], 60, 16));
        assert!(json.contains("\"bench\": \"shard_scale\""));
        for mix in ["local", "tpcc", "uniform"] {
            assert!(
                json.contains(&format!("\"mix\":\"{mix}\"")),
                "{mix} missing"
            );
        }
        assert_eq!(json.matches("\"pipelined\":").count(), 6);
        assert_eq!(json.matches("\"waves\":").count(), 6);
        // Every point carries its commit-latency percentiles.
        assert_eq!(json.matches("\"commit_p50_ps\":").count(), 6);
        assert_eq!(json.matches("\"commit_p99_ps\":").count(), 6);
        assert_eq!(json.matches("\"commit_p999_ps\":").count(), 6);
        // ... and its durability columns.
        assert_eq!(json.matches("\"wal_forces\":").count(), 6);
        assert_eq!(json.matches("\"decision_forces\":").count(), 6);
        assert_eq!(json.matches("\"fsync_per_txn\":").count(), 6);
        // Balanced braces — cheap well-formedness check without a
        // JSON parser in the dependency-free build.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// The durability acceptance number: every sweep runs with the
    /// effect WAL on, and group commit keeps durable syncs per
    /// committed transaction below one at scale — one force barrier
    /// amortized across each wave. A fully warehouse-local mix never
    /// touches the decision log.
    #[test]
    fn group_commit_amortizes_under_waves() {
        for p in sweep(&[4, 8], 150, 16, RemoteMix::Uniform) {
            let r = p.routed;
            assert!(r.wal_appends > 0 && r.wal_forces > 0 && r.wal_bytes > 0);
            assert!(
                r.fsync_per_txn < 1.0,
                "{} shards: fsync/txn {:.3} must stay below 1",
                p.shards,
                r.fsync_per_txn
            );
            // Presumed abort: one durable decision per cross-shard
            // commit, synced at most once per decision.
            assert!(r.decision_appends > 0);
            assert!(r.decision_forces <= r.decision_appends);
            assert!(r.wal_force_time > Ps::ZERO);
        }
        let local = sweep(&[4], 100, 16, RemoteMix::LOCAL);
        assert_eq!(local[0].routed.decision_appends, 0);
        assert!(local[0].routed.wal_appends > 0);
    }

    /// Commit-latency percentiles are populated and ordered on a routed
    /// sweep point.
    #[test]
    fn sweep_reports_ordered_commit_percentiles() {
        let points = sweep(&[2], 80, 16, RemoteMix::Uniform);
        let s = points[0].routed.commit_latency;
        assert_eq!(s.count, 80, "one sample per committed txn");
        assert!(s.p50 > 0);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert!(s.p999 <= s.max);
        assert!(s.mean > 0);
    }

    /// The rendered Chrome trace validates and shows genuinely
    /// overlapping two-phase commits.
    #[test]
    fn trace_renders_and_overlaps() {
        let (doc, _wave, peak) = render_trace(4, 120);
        let stats = chrome::validate(&doc).expect("trace must validate");
        assert!(stats.events > 0 && stats.complete > 0 && stats.instants > 0);
        assert!(stats.tracks >= 4, "one track per shard at minimum");
        assert!(
            peak >= 2,
            "uniform mix at 4 shards must overlap 2PCs (peak {peak})"
        );
    }

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The 8-shard uniform-mix timeline `shard_scale -- --trace <path>`
    /// writes, pinned by its byte length and FNV-1a hash: any change to
    /// a span, its timestamps or the renderer moves one of them.
    #[test]
    fn eight_shard_trace_is_pinned() {
        let (doc, wave, peak) = render_trace(8, 240);
        assert_eq!(
            (doc.len(), fnv(doc.as_bytes())),
            (633_842, 0xea8b_d972_d36d_dca4)
        );
        assert_eq!((wave, peak), (2, 15));
    }
}
