//! The four workloads. Each function runs one repetition: builds a
//! fresh deployment (timed as set-up), drives it through public
//! functions only, times every call as its own segment, and tallies
//! the public reports. The seed is the only input; sizes are constants
//! so that two commits face the same work.

use std::sync::Arc;

use pushtap_chbench::{RemoteMix, TxnGen};
use pushtap_core::{Pushtap, PushtapConfig};
use pushtap_mvcc::Ts;
use pushtap_olap::{ref_q1, ref_q6, ref_q9, Query, QueryResult};
use pushtap_shard::{ArrivalConfig, ArrivalGen, OpenLoopConfig, ShardConfig, ShardedHtap};
use pushtap_trace::TraceSink;

use crate::spans::{Recorder, Timed};
use crate::workload::{
    q6_revenue, query_of_round, rss_hwm_kb, slowest_clock, Check, RepConfig, Repetition, SegKind,
    Segment,
};

/// Times one call into the system under a host span.
fn timed<T>(
    rec: &mut Recorder<'_>,
    name: &'static str,
    index: u64,
    call: impl FnOnce() -> T,
) -> (T, Timed) {
    let open = rec.open(name, index as u32);
    let out = call();
    let t = rec.close(open);
    (out, t)
}

/// Builds one unpartitioned engine and its transaction generator.
fn engine_and_gen(cfg: &RepConfig, config: PushtapConfig) -> (Pushtap, TxnGen) {
    let mut engine = Pushtap::new(config).expect("the configuration lays out");
    if let Some(sink) = &cfg.sink {
        engine.set_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>, 0);
    }
    let gen = engine.txn_gen(cfg.seed);
    (engine, gen)
}

fn segment(kind: SegKind, ops: u64, timed: Timed) -> Segment {
    Segment { kind, ops, timed }
}

fn check(what: impl Into<String>, passed: bool) -> Check {
    Check {
        what: what.into(),
        passed,
    }
}

/// Shards of the two sharded workloads: fixed at the sandbox's two
/// cores, so that the per-shard worker threads fit them and the load
/// generator is the single main thread. More shards than cores would
/// measure the operating system's scheduler.
pub const SHARDS: u32 = 2;

// ---------------------------------------------------------------------
// engine_oltp
// ---------------------------------------------------------------------

/// Transaction segments of `engine_oltp` and transactions in each. The
/// segments are short (25 ms) so that the speed readings around each
/// are close to it.
pub const OLTP_SEGMENTS: u64 = 100;
pub const OLTP_SEGMENT_TXNS: u64 = 200;
/// Maintenance period of `engine_oltp`: three cycles complete within
/// the 20 000 transactions of a repetition.
const OLTP_DEFRAG_PERIOD: u64 = 5000;

/// Closed loop, one client, one unpartitioned engine, default
/// Payment/NewOrder mix through `Pushtap::run_txns`.
pub fn engine_oltp(cfg: &RepConfig, rec: &mut Recorder<'_>) -> Repetition {
    let mut rep = Repetition::default();
    let n = cfg.size(OLTP_SEGMENT_TXNS);
    let ((mut engine, mut gen), setup) = timed(rec, "setup", 0, || {
        let mut c = PushtapConfig::small();
        c.defrag_period = cfg.size(OLTP_DEFRAG_PERIOD);
        engine_and_gen(cfg, c)
    });
    rep.setup_ns = setup.reference_ns();
    for k in 0..OLTP_SEGMENTS {
        let (report, t) = timed(rec, "run_txns", k, || engine.run_txns(&mut gen, n));
        rep.segments.push(segment(SegKind::Txn, n, t));
        rep.tally.absorb_engine_txns(n, &report);
    }
    rep.tally.absorb_engine_end(&engine);
    rep.tally.sim_run += engine.now();
    rep.rss_hwm_kb = rss_hwm_kb();
    // The fingerprint query runs after the timed part and is not
    // tallied: this workload answers no query.
    rep.tally.final_q6 = q6_revenue(&engine.run_query(Query::Q6).result);
    rep
}

// ---------------------------------------------------------------------
// engine_htap
// ---------------------------------------------------------------------

/// Rounds of `engine_htap`: each a write burst, then one query. 102
/// queries leave 11 samples beyond p90.
pub const HTAP_ROUNDS: u64 = 102;
pub const HTAP_BURST_TXNS: u64 = 50;
/// Population scale of `engine_htap`: four times the small default, so
/// that column scans outgrow the host's L2 cache.
const HTAP_SCALE: f64 = 0.002;

/// Closed loop, one engine, rounds of [write burst, one query cycling
/// Q1 → Q6 → Q9]; bursts and queries are separate segments.
pub fn engine_htap(cfg: &RepConfig, rec: &mut Recorder<'_>) -> Repetition {
    let mut rep = Repetition::default();
    let ((mut engine, mut gen), setup) = timed(rec, "setup", 0, || {
        let mut c = PushtapConfig::small();
        c.db.scale = HTAP_SCALE;
        engine_and_gen(cfg, c)
    });
    rep.setup_ns = setup.reference_ns();
    for k in 0..cfg.size(HTAP_ROUNDS) {
        let round = rec.open_group("round", k as u32);
        let (report, t) = timed(rec, "run_txns", k, || {
            engine.run_txns(&mut gen, HTAP_BURST_TXNS)
        });
        rep.segments.push(segment(SegKind::Txn, HTAP_BURST_TXNS, t));
        rep.tally.absorb_engine_txns(HTAP_BURST_TXNS, &report);
        let (report, t) = timed(rec, "run_query", k, || engine.run_query(query_of_round(k)));
        rep.segments.push(segment(SegKind::Query, 1, t));
        rep.tally.absorb_engine_query(&report);
        rec.close(round);
    }
    rep.tally.absorb_engine_end(&engine);
    rep.tally.sim_run += engine.now();
    rep.rss_hwm_kb = rss_hwm_kb();
    // Final answers, untimed: all three at one cut, so that the
    // reference executor can be asked the same question.
    let finals: Vec<(Query, QueryResult)> = Query::ALL
        .iter()
        .map(|&q| (q, engine.run_query(q).result))
        .collect();
    rep.tally.final_q6 = q6_revenue(&finals[1].1);
    if cfg.check {
        let cut = engine.db().last_ts();
        for (q, live) in &finals {
            let reference = match q {
                Query::Q1 => ref_q1(engine.db(), cut),
                Query::Q6 => ref_q6(engine.db(), cut),
                Query::Q9 => ref_q9(engine.db(), cut),
            };
            rep.checks.push(check(
                format!("final {} equals the reference executor at {cut}", q.name()),
                *live == reference,
            ));
        }
    }
    rep
}

// ---------------------------------------------------------------------
// shard_durable
// ---------------------------------------------------------------------

/// Transaction segments of `shard_durable` and transactions in each;
/// a query follows every second segment and a checkpoint every tenth.
pub const DURABLE_SEGMENTS: u64 = 20;
pub const DURABLE_SEGMENT_TXNS: u64 = 250;
const DURABLE_QUERY_EVERY: u64 = 2;
const DURABLE_CHECKPOINT_EVERY: u64 = 10;
/// GC-first maintenance every 200 transactions per shard.
const DURABLE_DEFRAG_PERIOD: u64 = 200;

fn durable_config() -> ShardConfig {
    // Pipelined coordinator (the default mode); flush policy is the
    // simulated 2 µs `force_latency` over an in-memory store — no real
    // fsync is ever issued.
    let mut c = ShardConfig::small(SHARDS);
    c.base.defrag_period = DURABLE_DEFRAG_PERIOD;
    c
}

/// Closed loop, 2 shards, uniform remote mix (2PC on most
/// transactions), WAL on, GC-first maintenance; 20 batches of 250
/// transactions, one scatter-gather query after every 500
/// transactions, a checkpoint after 2 500 and 5 000, then harvest +
/// recovery as one timed segment.
pub fn shard_durable(cfg: &RepConfig, rec: &mut Recorder<'_>) -> Repetition {
    let mut rep = Repetition::default();
    let n = cfg.size(DURABLE_SEGMENT_TXNS);
    let ((mut service, handles, mut gen), setup) = timed(rec, "setup", 0, || {
        let mut service = ShardedHtap::new(durable_config()).expect("two shards lay out");
        let handles = service.enable_wal();
        if let Some(sink) = &cfg.sink {
            service.set_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>);
        }
        let gen = service.global_txn_gen(cfg.seed);
        (service, handles, gen)
    });
    rep.setup_ns = setup.reference_ns();
    let mut answers: Vec<QueryResult> = Vec::new();
    for k in 0..DURABLE_SEGMENTS {
        let round = rec.open_group("round", k as u32);
        let (report, t) = timed(rec, "run_txns", k, || service.run_txns(&mut gen, n));
        rep.segments.push(segment(SegKind::Txn, n, t));
        rep.tally.absorb_shard_txns(n, &report);
        if (k + 1) % DURABLE_QUERY_EVERY == 0 {
            let q = query_of_round(k / DURABLE_QUERY_EVERY);
            let (report, t) = timed(rec, "run_query", k, || service.run_query(q));
            rep.segments.push(segment(SegKind::Query, 1, t));
            rep.tally.absorb_shard_query(&report);
            answers.push(report.result);
        }
        if (k + 1) % DURABLE_CHECKPOINT_EVERY == 0 {
            let (report, t) = timed(rec, "checkpoint", k, || service.checkpoint());
            rep.segments.push(segment(SegKind::Maint, 1, t));
            rep.tally.checkpoint_bytes_reclaimed += report.bytes_reclaimed();
        }
        rec.close(round);
    }
    let ((mut recovered, recovery), t) = timed(rec, "recover", 0, || {
        ShardedHtap::recover(durable_config(), &handles.harvest()).expect("two shards lay out")
    });
    rep.segments.push(segment(SegKind::Maint, 1, t));
    rep.tally.absorb_deployment_end(&service);
    rep.tally.sim_run += slowest_clock(&recovered);
    rep.rss_hwm_kb = rss_hwm_kb();
    let live_q6 = service.run_query(Query::Q6).result;
    rep.tally.final_q6 = q6_revenue(&live_q6);
    if cfg.check {
        rep.checks.push(check(
            "the recovered deployment answers Q6 like the live one",
            recovered.run_query(Query::Q6).result == live_q6,
        ));
        let last = service.ts_oracle().watermark();
        rep.checks.push(check(
            format!(
                "recovery watermark {} equals the last committed timestamp {last}",
                recovery.watermark
            ),
            recovery.watermark == last && last == Ts(n * DURABLE_SEGMENTS),
        ));
        // An unpartitioned engine replays the same stream once; every
        // scatter-gather answer must equal its answer at the same cut.
        let mut reference = Pushtap::new(durable_config().base).expect("the reference lays out");
        let mut gen = reference.txn_gen(cfg.seed);
        for (k, sharded) in answers.iter().enumerate() {
            reference.run_txns(&mut gen, n * DURABLE_QUERY_EVERY);
            if reference.run_query(query_of_round(k as u64)).result != *sharded {
                rep.tally.queries_failed += 1;
            }
        }
    }
    rep
}

// ---------------------------------------------------------------------
// shard_open
// ---------------------------------------------------------------------

/// The ladder of offered rates, transactions per simulated second.
/// Constants, never a fraction of measured capacity, so that two
/// commits face the same load.
pub const OPEN_RATES_TPS: [f64; 8] = [
    60_000.0, 100_000.0, 120_000.0, 140_000.0, 160_000.0, 180_000.0, 200_000.0, 240_000.0,
];
/// Poisson arrivals offered on each rung.
pub const OPEN_ARRIVALS: u64 = 1000;
const OPEN_INBOX_DEPTH: usize = 128;
const OPEN_WINDOW: usize = 32;

/// Open loop, 2 shards, TPC-C remote mix (few cross-shard
/// transactions), WAL off (`run_open_loop` requires it), one fresh
/// deployment per rung built outside the timed section. Arrivals are
/// stamped on the simulated clock, so the generator is never late.
pub fn shard_open(cfg: &RepConfig, rec: &mut Recorder<'_>) -> Repetition {
    let mut rep = Repetition::default();
    let n = cfg.size(OPEN_ARRIVALS);
    let open = OpenLoopConfig::new(OPEN_INBOX_DEPTH, OPEN_WINDOW);
    let mut last = None;
    for (k, &rate) in OPEN_RATES_TPS.iter().enumerate() {
        let k = k as u64;
        let round = rec.open_group("rung", k as u32);
        let ((mut service, mut gen, mut arrivals), setup) = timed(rec, "setup", k, || {
            let mut service =
                ShardedHtap::new(ShardConfig::small(SHARDS)).expect("two shards lay out");
            if let Some(sink) = &cfg.sink {
                service.set_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>);
            }
            let warehouses = service.map().warehouses();
            let gen = service
                .global_txn_gen(cfg.seed)
                .with_remote_mix(RemoteMix::TPCC, warehouses);
            let arrivals = ArrivalGen::new(cfg.seed ^ (k + 1), ArrivalConfig::poisson(rate));
            (service, gen, arrivals)
        });
        rep.setup_ns += setup.reference_ns();
        let (report, t) = timed(rec, "run_open_loop", k, || {
            service.run_open_loop(&mut gen, &mut arrivals, n, &open)
        });
        rep.segments
            .push(segment(SegKind::Txn, report.admitted(), t));
        rep.tally.absorb_rung(rate, &report);
        rep.tally.absorb_deployment_end(&service);
        rec.close(round);
        last = Some(service);
    }
    rep.rss_hwm_kb = rss_hwm_kb();
    if let Some(mut service) = last {
        rep.tally.final_q6 = q6_revenue(&service.run_query(Query::Q6).result);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::supports_permille;

    /// The sizes are constants chosen so that every percentile the
    /// benchmark quotes has at least ten samples beyond it.
    #[test]
    fn sizes_support_the_percentiles_quoted() {
        // p90 is the highest supported percentile of the query sample.
        assert!(supports_permille(HTAP_ROUNDS, 900) && !supports_permille(HTAP_ROUNDS, 950));
        assert!(
            supports_permille(OPEN_ARRIVALS, 990),
            "sojourn p99 at one rung"
        );
        for commits in [
            OLTP_SEGMENTS * OLTP_SEGMENT_TXNS,
            HTAP_ROUNDS * HTAP_BURST_TXNS,
            DURABLE_SEGMENTS * DURABLE_SEGMENT_TXNS,
        ] {
            assert!(supports_permille(commits, 990), "commit p99 of {commits}");
        }
        // Ten scatter-gather queries support the median only.
        assert!(!supports_permille(
            DURABLE_SEGMENTS / DURABLE_QUERY_EVERY,
            750
        ));
        assert!(OPEN_RATES_TPS.contains(&crate::workload::REFERENCE_RATE_TPS));
        assert!(OPEN_RATES_TPS.windows(2).all(|w| w[0] < w[1]));
    }
}
