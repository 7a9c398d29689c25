//! Soak experiment: does oracle-driven garbage collection keep MVCC
//! memory **bounded** under sustained OLTP traffic — and what does it
//! cost?
//!
//! One sharded deployment runs a long uniform-mix stream in slices,
//! sampling the two garbage gauges at every slice boundary: **live
//! delta versions** (chained versions not yet folded back) and
//! **commit-log entries** (awaiting snapshot consumption). Two
//! configurations run the same stream:
//!
//! * **`gc`** — periodic maintenance on (a short period), so the
//!   GC-first policy folds, recycles, and trims throughout the run. The
//!   gauges must *plateau*: the final sample stays within 2× of the
//!   steady-state median ([`SoakRun::bounded`]).
//! * **`no_gc`** — periodic maintenance off and arenas oversized so
//!   pressure-driven reclamation never fires either. The gauges grow
//!   without bound — the control that shows what GC is buying.
//!
//! Each run also reports throughput (tpmC), the commit-latency
//! distribution, and the GC cost counters (passes, reclaimed versions,
//! recycled slots, trimmed log entries, time share), so the bound is
//! priced, not just asserted. `BENCH_soak.json` holds the whole
//! comparison for CI to grep.

use std::fmt::Write as _;

use pushtap_chbench::RemoteMix;
use pushtap_core::{tpmc, OltpReport};
use pushtap_pim::Ps;
use pushtap_shard::{ShardConfig, ShardedHtap};
use pushtap_trace::fmt_ps;

/// Shards in the soak deployment.
const SHARDS: u32 = 2;
/// Slices the stream is cut into (one gauge sample per slice).
const SLICES: u64 = 20;
/// Driving threads per shard for the tpmC conversion.
const CORES: u32 = 16;
/// Maintenance period of the `gc` configuration.
const GC_PERIOD: u64 = 200;

/// One slice-boundary sample of the garbage gauges.
#[derive(Debug, Clone, Copy)]
pub struct SoakSample {
    /// Cumulative transactions committed when the sample was taken.
    pub txns: u64,
    /// Live delta versions across all shards and tables.
    pub live_versions: u64,
    /// Commit-log entries across all shards and tables.
    pub commit_log_len: u64,
}

/// One configuration's full soak outcome.
#[derive(Debug, Clone)]
pub struct SoakRun {
    /// Configuration key: `"gc"` or `"no_gc"`.
    pub label: &'static str,
    /// Gauge samples, one per slice boundary.
    pub samples: Vec<SoakSample>,
    /// Every slice's report folded into one by [`OltpReport::merge`]:
    /// commits (the whole stream, every time), `DeltaFull` aborts (must
    /// stay 0 — the arenas are sized so neither configuration ever
    /// reclaims under pressure), GC counters (zero everywhere for
    /// `no_gc`), busy and GC time, and the commit-latency distribution.
    /// Its GC gauges are the last slice's; [`SoakRun::samples`] holds
    /// every slice's.
    pub report: OltpReport,
    /// Aggregate throughput over the summed slice makespans.
    pub tpmc: f64,
    /// Median live-version gauge over the steady-state (second) half of
    /// the run.
    pub median_live: u64,
    /// Median live-version gauge over the warm-up (first) half — the
    /// yardstick that tells a plateau from steady linear growth.
    pub early_median_live: u64,
}

impl SoakRun {
    /// Final live-version gauge.
    pub fn final_live(&self) -> u64 {
        self.report.gc.live_versions
    }

    /// GC time as a share of total busy time.
    pub fn gc_time_share(&self) -> f64 {
        let busy = self.report.total_time();
        if busy == Ps::ZERO {
            0.0
        } else {
            self.report.gc_time.ps() as f64 / busy.ps() as f64
        }
    }

    /// The boundedness acceptance: the final gauge within 2× of the
    /// steady-state median, *and* the steady-state median within 2× of
    /// the warm-up median. A GC plateau satisfies both; steady linear
    /// growth fails the second (its second-half median sits ~2.8× above
    /// its first-half median) even though its final-over-median ratio
    /// alone would look tame.
    pub fn bounded(&self) -> bool {
        self.final_live() <= 2 * self.median_live.max(1)
            && self.median_live <= 2 * self.early_median_live.max(1)
    }

    /// Steady-state-over-warm-up growth ratio of the live-version
    /// gauge: ~1 for a plateau, ~2.8 for linear growth.
    pub fn growth_ratio(&self) -> f64 {
        self.median_live as f64 / self.early_median_live.max(1) as f64
    }
}

/// Builds the soak configuration. Both runs share ample arenas (sized
/// for the *unbounded* run's high-water mark, so `DeltaFull` pressure
/// never reclaims behind the experiment's back); only the maintenance
/// period differs.
fn soak_cfg(total_txns: u64, gc: bool) -> ShardConfig {
    let mut cfg = ShardConfig::small(SHARDS);
    // Delta capacity comfortably above the whole stream's version
    // count (~13 versions per transaction deployment-wide, measured):
    // the no-GC control must *grow*, not abort-and-reclaim. The
    // allocator is a bump pointer over simulated device addresses, so
    // an oversized arena costs nothing until written.
    cfg.base.db.min_delta_rows = (total_txns * 8).max(4096);
    cfg.base.defrag_period = if gc { GC_PERIOD } else { 0 };
    cfg
}

/// Runs one configuration over `total_txns` transactions in 20 slices,
/// sampling the gauges at each boundary.
pub fn run_soak(total_txns: u64, gc: bool) -> SoakRun {
    let cfg = soak_cfg(total_txns, gc);
    let mut service = ShardedHtap::new(cfg).expect("build soak deployment");
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(2025)
        .with_remote_mix(RemoteMix::TPCC, warehouses);
    let slice = (total_txns / SLICES).max(1);
    let mut samples = Vec::with_capacity(SLICES as usize);
    let mut report = OltpReport::default();
    let mut makespan = Ps::ZERO;
    while report.committed < total_txns {
        let n = slice.min(total_txns - report.committed);
        let batch = service.run_txns(&mut gen, n);
        assert_eq!(batch.committed(), n, "soak batches must commit whole");
        makespan += batch.makespan();
        let total = batch.merged();
        report.merge(&total);
        // Gauges read the deployment now; summing them over slices would
        // count the same versions once per slice.
        report.gc.live_versions = total.gc.live_versions;
        report.gc.commit_log_len = total.gc.commit_log_len;
        samples.push(SoakSample {
            txns: report.committed,
            live_versions: total.gc.live_versions,
            commit_log_len: total.gc.commit_log_len,
        });
    }
    let median = |window: &[SoakSample]| {
        let mut lives: Vec<u64> = window.iter().map(|s| s.live_versions).collect();
        lives.sort_unstable();
        lives[lives.len() / 2]
    };
    SoakRun {
        label: if gc { "gc" } else { "no_gc" },
        median_live: median(&samples[samples.len() / 2..]),
        early_median_live: median(&samples[..(samples.len() / 2).max(1)]),
        samples,
        tpmc: tpmc(report.committed, makespan, CORES),
        report,
    }
}

/// Runs both configurations over the same stream.
pub fn run_both(total_txns: u64) -> (SoakRun, SoakRun) {
    (run_soak(total_txns, true), run_soak(total_txns, false))
}

fn print_run(run: &SoakRun) {
    let latency = run.report.commit_latency.stats();
    let gc = &run.report.gc;
    println!(
        "{:>6}: tpmC {:>10.0}  p50 {:>9}  p99 {:>9}  gc passes {:>5}  reclaimed {:>7}  \
         trimmed {:>7}  gc share {:>6.3}%  live early/steady/final {:>7}/{:>7}/{:>7} \
         ({:.2}x, bounded: {})",
        run.label,
        run.tpmc,
        fmt_ps(latency.p50),
        fmt_ps(latency.p99),
        gc.passes,
        gc.versions_reclaimed,
        gc.log_trimmed,
        run.gc_time_share() * 100.0,
        run.early_median_live,
        run.median_live,
        run.final_live(),
        run.growth_ratio(),
        run.bounded(),
    );
}

fn json_run(out: &mut String, run: &SoakRun) {
    let latency = run.report.commit_latency.stats();
    let gc = &run.report.gc;
    let _ = write!(
        out,
        "{{\"label\":\"{}\",\"committed\":{},\"tpmc\":{:.1},\
         \"commit_p50_ps\":{},\"commit_p99_ps\":{},\"commit_p999_ps\":{},\
         \"gc_passes\":{},\"versions_reclaimed\":{},\"slots_recycled\":{},\
         \"log_trimmed\":{},\"chain_steps\":{},\"bytes_copied\":{},\
         \"gc_time_share\":{:.6},\"aborts\":{},\
         \"final_live_versions\":{},\"median_live_versions\":{},\
         \"early_median_live_versions\":{},\
         \"final_commit_log\":{},\"growth_ratio\":{:.3},\"bounded\":{},\
         \"samples\":[",
        run.label,
        run.report.committed,
        run.tpmc,
        latency.p50,
        latency.p99,
        latency.p999,
        gc.passes,
        gc.versions_reclaimed,
        gc.slots_recycled,
        gc.log_trimmed,
        gc.chain_steps,
        gc.bytes_copied,
        run.gc_time_share(),
        run.report.aborts,
        run.final_live(),
        run.median_live,
        run.early_median_live,
        gc.commit_log_len,
        run.growth_ratio(),
        run.bounded(),
    );
    for (i, s) in run.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"txns\":{},\"live_versions\":{},\"commit_log_len\":{}}}",
            s.txns, s.live_versions, s.commit_log_len
        );
    }
    out.push_str("]}");
}

/// Renders the comparison as the JSON document `BENCH_soak.json` holds.
pub fn render_json(gc: &SoakRun, no_gc: &SoakRun) -> String {
    let mut out = String::from("{\n  \"bench\": \"soak\",\n  \"gc\": ");
    json_run(&mut out, gc);
    out.push_str(",\n  \"no_gc\": ");
    json_run(&mut out, no_gc);
    out.push_str("\n}\n");
    out
}

/// Runs the soak at `total_txns`, prints both rows, asserts the
/// acceptance shape (GC bounded, control unbounded, nothing reclaimed
/// behind the experiment's back), and writes `BENCH_soak.json`.
///
/// # Errors
///
/// Propagates the file write error.
///
/// # Panics
///
/// Panics if the acceptance shape does not hold.
pub fn print_and_write_json(total_txns: u64) -> std::io::Result<()> {
    println!("-- soak: {total_txns} txns, {SHARDS} shards, TPC-C mix --");
    let (gc, no_gc) = run_both(total_txns);
    print_run(&gc);
    print_run(&no_gc);
    assert_eq!(
        gc.report.aborts, 0,
        "soak arenas must never reclaim under pressure"
    );
    assert_eq!(
        no_gc.report.aborts, 0,
        "control arenas must never reclaim at all"
    );
    assert!(gc.report.gc.passes > 0, "the gc run must collect");
    assert_eq!(no_gc.report.gc.passes, 0, "the control must not collect");
    assert!(
        gc.bounded(),
        "gc live versions must plateau (early/steady/final {}/{}/{})",
        gc.early_median_live,
        gc.median_live,
        gc.final_live()
    );
    assert!(
        !no_gc.bounded(),
        "the control must grow unboundedly (early/steady/final {}/{}/{})",
        no_gc.early_median_live,
        no_gc.median_live,
        no_gc.final_live()
    );
    assert!(
        no_gc.final_live() > 2 * gc.final_live().max(1),
        "the control must grow past the collected run"
    );
    let path = "BENCH_soak.json";
    std::fs::write(path, render_json(&gc, &no_gc))?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_bounds_gc_and_not_control() {
        let (gc, no_gc) = run_both(2_000);
        assert_eq!(gc.report.committed, 2_000);
        assert!(gc.report.gc.passes > 0, "gc run must collect");
        assert_eq!(no_gc.report.gc.passes, 0, "control must not collect");
        assert_eq!(
            gc.report.aborts + no_gc.report.aborts,
            0,
            "no pressure reclamation"
        );
        assert!(gc.bounded(), "gc gauge must plateau");
        assert!(!no_gc.bounded(), "control gauge must keep growing");
        assert!(
            no_gc.final_live() > gc.final_live(),
            "control must hold more garbage"
        );
        let json = render_json(&gc, &no_gc);
        assert!(json.contains("\"bench\": \"soak\""));
        assert!(json.contains("\"bounded\":true"));
        assert!(json.contains("\"label\":\"no_gc\""));
        // The exact bytes, so a format drift fails here and not only in
        // a diff of the committed file.
        assert_eq!(
            (json.len(), crate::fnv(json.as_bytes())),
            (3_222, 0xa438_0965_5851_24f9)
        );
    }

    /// The merged report's gauges read the deployment at the end of the
    /// run, not the sum of every slice's reading.
    #[test]
    fn merged_gauges_are_the_last_sample() {
        let run = run_soak(400, false);
        let last = run.samples.last().expect("one sample per slice");
        assert_eq!(
            (run.report.gc.live_versions, run.report.gc.commit_log_len),
            (last.live_versions, last.commit_log_len)
        );
        assert!(last.live_versions > 0, "the control must hold versions");
    }
}
