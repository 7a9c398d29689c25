//! Open-loop queueing experiment: the saturation knee of the sharded
//! deployment under a Poisson arrival process.
//!
//! Closed-loop benches (every other module here) measure *capacity* —
//! the next transaction departs the moment the previous one commits,
//! so queueing never shows. This sweep instead offers load at a fixed
//! arrival rate through [`pushtap_shard::ShardedHtap::run_open_loop`]:
//! per shard count it first measures closed-loop capacity, then drives
//! the same deployment at fixed fractions of it ([`FRACTIONS`]) and
//! reports what a latency SLO actually buys —
//!
//! * **sojourn time** (arrival → wave completion) p50/p99/p999: flat
//!   and hop-dominated below the knee, rising super-linearly past it;
//! * **queue depth**: the inbox backlog admissions see;
//! * **rejection rate**: admission-control backpressure — zero below
//!   the knee, positive once the inbox bound absorbs the overload.
//!
//! `BENCH_open_loop.json` holds the whole sweep so the knee's position
//! is machine-checkable across PRs.

use std::fmt::Write as _;

use pushtap_chbench::RemoteMix;
use pushtap_shard::{
    ArrivalConfig, ArrivalGen, OpenLoopConfig, OpenLoopReport, ShardConfig, ShardedHtap,
};

/// Offered-load fractions of measured closed-loop capacity: three
/// points below the knee, two past it.
pub const FRACTIONS: [f64; 5] = [0.3, 0.6, 0.9, 1.3, 2.0];

/// Per-shard inbox bound for the sweep: deep enough that sub-knee
/// traffic never rejects, shallow enough that overload does.
pub const INBOX_DEPTH: usize = 128;

/// Sliding scheduling window (transactions) of the incremental wave
/// scheduler.
pub const WINDOW: usize = 32;

/// One point of the sweep: one shard count at one offered-load
/// fraction.
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Shard count.
    pub shards: u32,
    /// Offered load as a fraction of measured closed-loop capacity.
    pub fraction: f64,
    /// Measured closed-loop capacity (transactions per simulated
    /// second) this point's rate was derived from.
    pub capacity_tps: f64,
    /// The run's report: arrivals, admissions and rejections, sojourn
    /// and inbox-depth histograms, and the admitted stream's execution.
    pub report: OpenLoopReport,
}

fn deployment(shards: u32) -> ShardedHtap {
    ShardedHtap::new(ShardConfig::small(shards)).expect("build shards")
}

/// Measures the deployment's closed-loop capacity: `txns` back-to-back
/// transactions, committed over makespan.
pub fn capacity_tps(shards: u32, txns: u64) -> f64 {
    let mut service = deployment(shards);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(42)
        .with_remote_mix(RemoteMix::TPCC, warehouses);
    let r = service.run_txns(&mut gen, txns);
    r.committed() as f64 / r.makespan().as_secs()
}

/// Runs one open-loop point: `txns` Poisson arrivals at `rate_tps`
/// against a fresh deployment of `shards` shards.
pub fn run_point(shards: u32, capacity: f64, fraction: f64, txns: u64) -> OpenLoopPoint {
    let rate_tps = capacity * fraction;
    let mut service = deployment(shards);
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(42)
        .with_remote_mix(RemoteMix::TPCC, warehouses);
    let mut arrivals = ArrivalGen::new(7, ArrivalConfig::poisson(rate_tps));
    let open = OpenLoopConfig::new(INBOX_DEPTH, WINDOW);
    OpenLoopPoint {
        shards,
        fraction,
        capacity_tps: capacity,
        report: service.run_open_loop(&mut gen, &mut arrivals, txns, &open),
    }
}

/// The full sweep: every shard count × every offered-load fraction.
pub fn sweep(shard_counts: &[u32], txns: u64) -> Vec<OpenLoopPoint> {
    let mut points = Vec::new();
    for &shards in shard_counts {
        let capacity = capacity_tps(shards, txns);
        for &fraction in &FRACTIONS {
            points.push(run_point(shards, capacity, fraction, txns));
        }
    }
    points
}

fn print_table(points: &[OpenLoopPoint]) {
    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>9} {:>9} {:>8} {:>12} {:>12} {:>12} {:>7} {:>7} {:>7}",
        "shards",
        "fraction",
        "offered/s",
        "committed/s",
        "admitted",
        "rejected",
        "rej%",
        "p50(ns)",
        "p99(ns)",
        "p999(ns)",
        "qmean",
        "qmax",
        "waves"
    );
    for p in points {
        let r = &p.report;
        println!(
            "{:>6} {:>9.2} {:>12.0} {:>12.0} {:>9} {:>9} {:>7.2}% {:>12.1} {:>12.1} {:>12.1} {:>7} {:>7} {:>7}",
            p.shards,
            p.fraction,
            r.offered_rate_tps(),
            r.throughput_tps(),
            r.admitted(),
            r.rejected(),
            r.rejection_rate() * 100.0,
            r.sojourn_quantile(0.50) as f64 / 1e3,
            r.sojourn_quantile(0.99) as f64 / 1e3,
            r.sojourn_quantile(0.999) as f64 / 1e3,
            r.inbox_depth.mean(),
            r.inbox_depth.max(),
            r.exec.coord.waves,
        );
    }
}

/// Renders the sweep as the JSON document `BENCH_open_loop.json` holds.
pub fn render_json(txns: u64, points: &[OpenLoopPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"open_loop\",");
    let _ = writeln!(out, "  \"mix\": \"tpcc\",");
    let _ = writeln!(out, "  \"txns\": {txns},");
    let _ = writeln!(out, "  \"burstiness\": 0.0,");
    let _ = writeln!(out, "  \"inbox_depth\": {INBOX_DEPTH},");
    let _ = writeln!(out, "  \"window\": {WINDOW},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let r = &p.report;
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"shards\": {},", p.shards);
        let _ = writeln!(out, "      \"fraction\": {:.2},", p.fraction);
        let _ = writeln!(out, "      \"capacity_tps\": {:.1},", p.capacity_tps);
        let _ = writeln!(out, "      \"offered_tps\": {:.1},", r.offered_rate_tps());
        let _ = writeln!(out, "      \"throughput_tps\": {:.1},", r.throughput_tps());
        let _ = writeln!(out, "      \"admitted\": {},", r.admitted());
        let _ = writeln!(out, "      \"rejected\": {},", r.rejected());
        let _ = writeln!(out, "      \"rejection_rate\": {:.4},", r.rejection_rate());
        let _ = writeln!(
            out,
            "      \"sojourn_p50_ps\": {},",
            r.sojourn_quantile(0.50)
        );
        let _ = writeln!(
            out,
            "      \"sojourn_p99_ps\": {},",
            r.sojourn_quantile(0.99)
        );
        let _ = writeln!(
            out,
            "      \"sojourn_p999_ps\": {},",
            r.sojourn_quantile(0.999)
        );
        let _ = writeln!(out, "      \"queue_depth_mean\": {},", r.inbox_depth.mean());
        let _ = writeln!(out, "      \"queue_depth_max\": {},", r.inbox_depth.max());
        let _ = writeln!(out, "      \"waves\": {}", r.exec.coord.waves);
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// Runs the sweep, prints the table, and writes `BENCH_open_loop.json`.
pub fn print_and_write_json(shard_counts: &[u32], txns: u64) -> std::io::Result<()> {
    println!(
        "-- open_loop: {txns} arrivals/point, Poisson, TPC-C mix, \
         inbox {INBOX_DEPTH}, window {WINDOW} --"
    );
    let points = sweep(shard_counts, txns);
    print_table(&points);
    let path = "BENCH_open_loop.json";
    std::fs::write(path, render_json(txns, &points))?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The knee in miniature: sub-saturation traffic rejects nothing
    /// and keeps p99 near the service floor; 2× overload rejects and
    /// inflates p99 super-linearly relative to the offered-rate step.
    #[test]
    fn knee_behavior_at_two_shards() {
        let txns = 1200;
        let capacity = capacity_tps(2, txns);
        assert!(capacity > 0.0);
        let low = run_point(2, capacity, 0.3, txns).report;
        let high = run_point(2, capacity, 2.0, txns).report;
        assert_eq!(low.rejected(), 0, "sub-knee traffic must not reject");
        assert!(
            high.rejected() > 0,
            "2x overload must trip admission control"
        );
        assert!(high.rejection_rate() > 0.0 && high.rejection_rate() < 1.0);
        // Past the knee the p99 sojourn must grow much faster than the
        // 6.7x offered-rate step — queueing, not service time.
        let (high_p99, low_p99) = (high.sojourn_quantile(0.99), low.sojourn_quantile(0.99));
        assert!(
            high_p99 > 8 * low_p99.max(1),
            "p99 must blow up past the knee ({high_p99} vs {low_p99})"
        );
        assert_eq!(low.admitted(), txns);
        assert_eq!(high.admitted() + high.rejected(), txns);
    }

    /// The JSON document carries every contract key the CI smoke greps.
    #[test]
    fn json_carries_contract_keys() {
        let points = [run_point(1, 50_000_000.0, 0.5, 40)];
        let json = render_json(40, &points);
        for key in [
            "\"bench\": \"open_loop\"",
            "\"inbox_depth\"",
            "\"window\"",
            "\"shards\"",
            "\"offered_tps\"",
            "\"throughput_tps\"",
            "\"rejection_rate\"",
            "\"sojourn_p99_ps\"",
            "\"queue_depth_max\"",
            "\"waves\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // The exact bytes, so a format drift fails here and not only in
        // a diff of the committed file.
        assert_eq!(
            (json.len(), crate::fnv(json.as_bytes())),
            (548, 0xcef3_cb23_4164_f303)
        );
    }
}
