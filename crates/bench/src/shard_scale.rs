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
use pushtap_core::OltpReport;
use pushtap_olap::Query;
use pushtap_pim::Ps;
use pushtap_shard::{ShardConfig, ShardOltpReport, ShardedHtap};
use pushtap_trace::{chrome, fmt_ps, two_pc_overlap_peak, MemSink};

/// Driving threads per shard for the tpmC conversion.
const CORES: u32 = 16;

/// One row of the shard-scaling table: the routed batch's and the local
/// streams' reports, and the query latencies.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Shard count.
    pub shards: u32,
    /// The routed global stream's batch, effect WAL on (the
    /// `"pipelined"` object of the JSON report — a key kept so the file
    /// stays diffable across PRs).
    pub routed: ShardOltpReport,
    /// Perfectly-partitioned local streams: the no-coordination upper
    /// bound.
    pub local: ShardOltpReport,
    /// End-to-end scatter-gather Q1 latency.
    pub q1_latency: Ps,
    /// End-to-end scatter-gather Q6 latency.
    pub q6_latency: Ps,
    /// End-to-end scatter-gather Q9 latency.
    pub q9_latency: Ps,
}

/// Runs the sweep under the given remote-warehouse mix: `txns` routed
/// transactions (and the same count again as local streams) per shard
/// count, then one scatter-gather pass of each query.
pub fn sweep(shard_counts: &[u32], txns: u64, mix: RemoteMix) -> Vec<ShardPoint> {
    shard_counts
        .iter()
        .map(|&shards| {
            let mut service = ShardedHtap::new(ShardConfig::small(shards)).expect("build shards");
            let _wal = service.enable_wal();
            let warehouses = service.map().warehouses();
            let mut gen = service.global_txn_gen(42).with_remote_mix(mix, warehouses);
            let routed = service.run_txns(&mut gen, txns);
            let local = service.run_local_txns(43, txns / shards as u64);
            ShardPoint {
                shards,
                routed,
                local,
                q1_latency: service.run_query(Query::Q1).total(),
                q6_latency: service.run_query(Query::Q6).total(),
                q9_latency: service.run_query(Query::Q9).total(),
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
        let r = &p.routed;
        let latency = r.merged().commit_latency.stats();
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>7.1}% {:>6} {:>5} {:>7.1}% {:>8.2}% {:>9.3} {:>9} {:>9} {:>10} {:>10} {:>10}",
            p.shards,
            r.tpmc(CORES),
            p.local.tpmc(CORES),
            r.remote.cross_shard_fraction() * 100.0,
            r.coord.waves,
            r.coord.max_wave,
            r.overlap_ratio() * 100.0,
            r.two_pc_time_share() * 100.0,
            r.fsync_per_txn(),
            fmt_ps(latency.p50),
            fmt_ps(latency.p99),
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
) -> Vec<(&'static str, &'static str, Vec<ShardPoint>)> {
    MIXES
        .iter()
        .map(|&(mix, key, label)| (key, label, sweep(shard_counts, txns, mix)))
        .collect()
}

fn print_header() {
    println!("== Shard scaling: tpmC, 2PC cost, waves, scatter-gather latency ==");
    println!("(small population, 8 warehouses, 400 routed txns per point)");
}

/// Prints the shard-scaling tables, one per remote-warehouse mix.
pub fn print_all() {
    print_header();
    for (_, label, points) in sweep_all(&[1, 2, 4, 8], 400) {
        print_table(label, &points);
    }
}

/// Prints the shard-scaling tables *and* writes `BENCH_shard_scale.json`
/// from the same single sweep (the sweep is the expensive part — it
/// must not run twice).
pub fn print_and_write_json() -> std::io::Result<()> {
    print_header();
    let all = sweep_all(&[1, 2, 4, 8], 400);
    for (_, label, points) in &all {
        print_table(label, points);
    }
    let path = "BENCH_shard_scale.json";
    std::fs::write(path, render_json(&all))?;
    println!("wrote {path}");
    Ok(())
}

/// Writes the routed batch's `"pipelined"` object; `total` is its
/// [`ShardOltpReport::merged`].
fn json_routed(out: &mut String, routed: &ShardOltpReport, total: &OltpReport) {
    let latency = total.commit_latency.stats();
    let _ = write!(
        out,
        "{{\"routed_tpmc\":{:.1},\"two_pc_time_share\":{:.6},\"two_pc_time_ps\":{},\
         \"critical_path_time_ps\":{},\"waves\":{},\"max_wave\":{},\
         \"overlap_ratio\":{:.6},\"participant_aborts\":{},\"parallel_efficiency\":{:.4},\
         \"commit_p50_ps\":{},\"commit_p99_ps\":{},\"commit_p999_ps\":{},\
         \"commit_mean_ps\":{},\"commit_max_ps\":{},\
         \"wal_appends\":{},\"wal_forces\":{},\"wal_bytes\":{},\"wal_force_time_ps\":{},\
         \"decision_appends\":{},\"decision_forces\":{},\"fsync_per_txn\":{:.6}}}",
        routed.tpmc(CORES),
        routed.two_pc_time_share(),
        total.two_pc_time.ps(),
        total.critical_path_time.ps(),
        routed.coord.waves,
        routed.coord.max_wave,
        routed.overlap_ratio(),
        total.participant_aborts,
        routed.parallel_efficiency(),
        latency.p50,
        latency.p99,
        latency.p999,
        latency.mean,
        latency.max,
        total.wal_appends,
        total.wal_forces,
        total.wal_bytes,
        total.wal_force_time.ps(),
        routed.coord.decision_appends,
        routed.coord.decision_forces,
        routed.fsync_per_txn(),
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
            let total = p.routed.merged();
            let _ = write!(
                out,
                "    {{\"mix\":\"{mix_key}\",\"shards\":{},\"committed\":{},\
                 \"local_tpmc\":{:.1},\"cross_shard_fraction\":{:.6},\
                 \"forwarded_effects\":{},\"commit_rounds\":{},\
                 \"q1_ps\":{},\"q6_ps\":{},\"q9_ps\":{},\"pipelined\":",
                p.shards,
                p.routed.committed() + p.local.committed(),
                p.local.tpmc(CORES),
                p.routed.remote.cross_shard_fraction(),
                total.forwarded_effects,
                total.two_pc_stall.count(),
                p.q1_latency.ps(),
                p.q6_latency.ps(),
                p.q9_latency.ps(),
            );
            json_routed(&mut out, &p.routed, &total);
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
        let points = sweep(&[1, 4], 120, RemoteMix::Uniform);
        assert_eq!(points.len(), 2);
        let (one, four) = (&points[0], &points[1]);
        assert_eq!(one.shards, 1);
        let committed = |p: &ShardPoint| p.routed.committed() + p.local.committed();
        assert!(committed(one) > 0 && committed(four) > 0);
        // Perfectly-partitioned load on 4 engines must beat 1 engine by
        // a clear margin (4× minus skew; accept > 2×).
        let (one_local, four_local) = (one.local.tpmc(CORES), four.local.tpmc(CORES));
        assert!(
            four_local > one_local * 2.0,
            "local tpmC {four_local} vs {one_local}"
        );
        // A single shard sees no cross-shard traffic and runs no 2PC;
        // four shards must do both.
        let (one_total, four_total) = (one.routed.merged(), four.routed.merged());
        assert_eq!(one.routed.remote.cross_shard_fraction(), 0.0);
        assert_eq!(one_total.forwarded_effects, 0);
        assert_eq!(one_total.two_pc_stall.count(), 0);
        assert!(four.routed.remote.cross_shard_fraction() > 0.5);
        assert!(four_total.forwarded_effects > 0);
        assert!(four_total.two_pc_stall.count() > 0);
        assert!(four.routed.two_pc_time_share() > 0.0);
    }

    /// The TPC-C remote rates cut cross-shard coordination by an order
    /// of magnitude against the uniform worst case, and the fully local
    /// mix never fires 2PC at all.
    #[test]
    fn remote_mixes_order_two_pc_cost() {
        let [local, tpcc, uniform] = [RemoteMix::LOCAL, RemoteMix::TPCC, RemoteMix::Uniform]
            .map(|mix| sweep(&[4], 150, mix).remove(0).routed);
        let cross = |r: &ShardOltpReport| r.remote.cross_shard_fraction();
        let (local_total, tpcc_total, uniform_total) =
            (local.merged(), tpcc.merged(), uniform.merged());
        assert_eq!(cross(&local), 0.0);
        assert_eq!(local_total.forwarded_effects, 0);
        assert_eq!(local.two_pc_time_share(), 0.0);
        assert!(
            cross(&tpcc) < cross(&uniform) * 0.5,
            "TPC-C {} vs uniform {}",
            cross(&tpcc),
            cross(&uniform)
        );
        // ~48.9% of txns are Payments at 15% remote, plus NewOrders with
        // ≥5 lines at 1%: expect a low-but-nonzero cross-shard rate.
        assert!(cross(&tpcc) > 0.0);
        assert!(cross(&tpcc) < 0.35);
        assert!(tpcc_total.forwarded_effects > 0);
        assert!(tpcc_total.forwarded_effects < uniform_total.forwarded_effects);
        assert!(tpcc_total.two_pc_stall.count() < uniform_total.two_pc_stall.count());
    }

    /// At ≥ 4 shards under the cross-shard-heavy mixes the schedule
    /// overlaps 2PCs.
    #[test]
    fn waves_overlap_two_pcs() {
        for mix in [RemoteMix::TPCC, RemoteMix::Uniform] {
            for p in sweep(&[4, 8], 150, mix) {
                let r = &p.routed;
                assert!(r.overlap_ratio() > 0.0, "{} shards", p.shards);
                assert!(r.coord.waves > 0 && r.coord.max_wave > 1);
                assert!(r.two_pc_time_share() <= 1.0);
            }
        }
    }

    /// The JSON report covers every mix × shard count with parsable
    /// numbers.
    #[test]
    fn json_report_lists_every_point() {
        let json = render_json(&sweep_all(&[1, 2], 60));
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
        // The exact bytes, so a format drift fails here and not only in
        // a diff of the committed file.
        assert_eq!(
            (json.len(), crate::fnv(json.as_bytes())),
            (4_212, 0xf537_d7f3_cae8_0a8b)
        );
    }

    /// The durability acceptance number: every sweep runs with the
    /// effect WAL on, and group commit keeps durable syncs per
    /// committed transaction below one at scale — one force barrier
    /// amortized across each wave. A fully warehouse-local mix never
    /// touches the decision log.
    #[test]
    fn group_commit_amortizes_under_waves() {
        for p in sweep(&[4, 8], 150, RemoteMix::Uniform) {
            let (r, total) = (&p.routed, p.routed.merged());
            assert!(total.wal_appends > 0 && total.wal_forces > 0 && total.wal_bytes > 0);
            assert!(
                r.fsync_per_txn() < 1.0,
                "{} shards: fsync/txn {:.3} must stay below 1",
                p.shards,
                r.fsync_per_txn()
            );
            // Presumed abort: one durable decision per cross-shard
            // commit, synced at most once per decision.
            assert!(r.coord.decision_appends > 0);
            assert!(r.coord.decision_forces <= r.coord.decision_appends);
            assert!(total.wal_force_time > Ps::ZERO);
        }
        let local = &sweep(&[4], 100, RemoteMix::LOCAL)[0].routed;
        assert_eq!(local.coord.decision_appends, 0);
        assert!(local.merged().wal_appends > 0);
    }

    /// Commit-latency percentiles are populated and ordered on a routed
    /// sweep point.
    #[test]
    fn sweep_reports_ordered_commit_percentiles() {
        let points = sweep(&[2], 80, RemoteMix::Uniform);
        let s = points[0].routed.merged().commit_latency.stats();
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

    /// The 8-shard uniform-mix timeline `shard_scale -- --trace <path>`
    /// writes, pinned by its byte length and FNV-1a hash: any change to
    /// a span, its timestamps or the renderer moves one of them.
    #[test]
    fn eight_shard_trace_is_pinned() {
        let (doc, wave, peak) = render_trace(8, 240);
        assert_eq!(
            (doc.len(), crate::fnv(doc.as_bytes())),
            (633_842, 0xea8b_d972_d36d_dca4)
        );
        assert_eq!((wave, peak), (2, 15));
    }
}
