//! Sharded HTAP: scale PUSHtap out to N warehouse-partitioned engines,
//! route a global TPC-C stream (timestamps drawn from one shared oracle
//! in stream order, cross-shard writes forwarded to their owning shards
//! under a simulated two-phase commit, so committed state is
//! byte-identical to a single-instance execution), and answer Q1/Q6/Q9
//! by global-cut scatter-gather.
//!
//! Run with:
//! `cargo run --release --example sharded_htap [shards] [mix] [trace.json]`
//! where `mix` is `uniform` (default), `tpcc`, or `local`, and an
//! optional third argument writes the batch's lifecycle spans as a
//! Chrome-trace JSON file (load it at <https://ui.perfetto.dev> or
//! `chrome://tracing`).
//!
//! Or run the crash-recovery demo:
//! `cargo run --release --example sharded_htap crash [dir] [open]`
//! — logs a routed batch to per-shard effect WALs on disk, kills the
//! deployment mid-decision-log write, recovers a fresh deployment from
//! the surviving log files alone, byte-diffs every recovered row
//! against an unpartitioned reference executing exactly the recovered
//! commits, and exits nonzero on any divergence. With `open` the batch
//! arrives open-loop (Poisson arrivals through a bounded inbox, some
//! rejected) instead of all at once — the same driver, the same logs.

use std::sync::Arc;

use pushtap::chbench::RemoteMix;
use pushtap::olap::{Query, QueryResult};
use pushtap::pim::Ps;
use pushtap::shard::{ShardConfig, ShardedHtap};
use pushtap::trace::{chrome, fmt_ps, two_pc_overlap_peak, MemSink};

/// The crash-recovery demo: write-ahead-log a batch to `dir`, crash
/// mid-protocol, recover from the files, prove byte identity. With
/// `open_loop` the batch arrives on a Poisson clock through a bounded
/// inbox instead of all at once.
fn crash_demo(dir: &std::path::Path, open_loop: bool) -> Result<(), Box<dyn std::error::Error>> {
    use pushtap::chbench::{Partitioning, ALL_TABLES};
    use pushtap::core::Pushtap;
    use pushtap::format::RowSlot;
    use pushtap::oltp::stripe_start;
    use pushtap::shard::{
        ArrivalConfig, ArrivalGen, CrashPoint, CrashSite, OpenLoopConfig, WalBytes,
    };

    const SHARDS: u32 = 4;
    const TXNS: u64 = 400;
    const SEED: u64 = 42;
    let mix = RemoteMix::Uniform;
    let cfg = ShardConfig::small(SHARDS);

    // Phase 1: a logged deployment that dies at an armed crash point —
    // here halfway through a decision-log write, the nastiest spot
    // (a torn record the recovery scan must truncate).
    std::fs::create_dir_all(dir)?;
    let mut service = ShardedHtap::new(cfg.clone())?;
    service.enable_wal_files(dir)?;
    service.arm_crash(CrashPoint {
        site: CrashSite::MidDecisionLogWrite,
        event: 5,
    });
    let warehouses = service.map().warehouses();
    let mut gen = service
        .global_txn_gen(SEED)
        .with_remote_mix(mix, warehouses);
    // `admitted[k]` is the stream position of the transaction pinned at
    // timestamp k+1: the identity closed-loop, the arrivals that got
    // past admission control open-loop (overload: ~4x what four shards
    // serve, through 8-deep inboxes).
    let (before, admitted) = if open_loop {
        let mut arrivals = ArrivalGen::new(7, ArrivalConfig::poisson(1_200_000.0));
        let report =
            service.run_open_loop(&mut gen, &mut arrivals, TXNS, &OpenLoopConfig::new(8, 16));
        println!(
            "open loop: {} arrivals admitted and {} rejected at a full inbox before the kill",
            report.admitted(),
            report.rejected(),
        );
        (report.exec, report.admitted_index)
    } else {
        (service.run_txns(&mut gen, TXNS), (0..TXNS).collect())
    };
    assert!(service.crashed(), "the armed crash point must fire");
    let total = before.merged();
    println!(
        "killed the deployment mid-decision-log write (5th wave): \
         {} of {} admitted txns had committed; {} effect records ({} bytes) and {} \
         decisions were durable in {}",
        before.committed(),
        admitted.len(),
        total.wal_appends,
        total.wal_bytes,
        before.coord.decision_appends,
        dir.display(),
    );
    drop(service); // the process is gone — only the log files survive

    // Phase 2: recover a fresh deployment from the files alone.
    let image = WalBytes::read_dir(dir, SHARDS)?;
    let (mut recovered, rec) = ShardedHtap::recover(cfg.clone(), &image)?;
    println!(
        "recovered: {} records scanned, {} replayed, {} skipped by presumed abort, \
         {} torn decision bytes truncated, oracle resumed past {}",
        rec.per_shard.iter().map(|s| s.records).sum::<u64>(),
        rec.replayed(),
        rec.skipped(),
        rec.decision_truncated,
        rec.watermark,
    );

    // Phase 3: byte-identity oracle — an unpartitioned reference
    // executing exactly the recovered committed set at the original
    // pinned timestamps.
    recovered.defragment_all();
    let mut reference = Pushtap::new(cfg.base.clone())?;
    let mut rgen = reference.txn_gen(SEED).with_remote_mix(mix, warehouses);
    let batch = rgen.batch(TXNS as usize);
    for &ts in &rec.committed {
        reference.execute_txn_at(&batch[admitted[ts.0 as usize - 1] as usize], ts);
    }
    reference.defragment_all();

    let mut mismatched = 0u64;
    let mut compared = 0u64;
    for i in 0..recovered.shard_count() {
        let db = recovered.shard(i).db();
        let rdb = reference.db();
        for table in ALL_TABLES {
            let global = rdb.global_rows_of(table);
            let row_base = match table.partitioning() {
                Partitioning::Replicated => 0,
                Partitioning::ByWarehouse => {
                    stripe_start(db.warehouse_range().start, global, db.warehouses_global())
                }
            };
            let t = db.table(table);
            let rt = rdb.table(table);
            for row in 0..t.n_rows() {
                compared += 1;
                let ours = t.store().read_row(RowSlot::Data { row });
                let theirs = rt.store().read_row(RowSlot::Data {
                    row: row_base + row,
                });
                if ours != theirs {
                    mismatched += 1;
                }
            }
        }
    }
    if mismatched > 0 {
        eprintln!("BYTE MISMATCH: {mismatched} of {compared} recovered rows diverged");
        std::process::exit(1);
    }
    println!(
        "byte identity: all {compared} rows across {} shards match the reference exactly",
        recovered.shard_count(),
    );

    // Phase 4: the recovered deployment keeps serving.
    let mut more = recovered
        .global_txn_gen(SEED ^ 0x5eed)
        .with_remote_mix(mix, warehouses);
    let after = recovered.run_txns(&mut more, 64);
    println!(
        "resumed service: {} further txns committed on the recovered deployment",
        after.committed(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().nth(1).as_deref() == Some("crash") {
        let dir = std::env::args()
            .nth(2)
            .unwrap_or_else(|| "pushtap-wal-demo".into());
        let open_loop = std::env::args().nth(3).as_deref() == Some("open");
        return crash_demo(std::path::Path::new(&dir), open_loop);
    }
    let shards: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let (mix, mix_name) = match std::env::args().nth(2).as_deref() {
        Some("tpcc") => (RemoteMix::TPCC, "TPC-C 1%/15% remote"),
        Some("local") => (RemoteMix::LOCAL, "warehouse-local"),
        _ => (RemoteMix::Uniform, "uniform"),
    };
    let trace_path = std::env::args().nth(3);
    let mut service = ShardedHtap::new(ShardConfig::small(shards))?;
    let sink = Arc::new(MemSink::default());
    if trace_path.is_some() {
        service.set_trace_sink(sink.clone());
    }
    println!(
        "built {} shards over {} warehouses ({} warehouses per shard, ITEM replicated), {mix_name} mix",
        service.shard_count(),
        service.map().warehouses(),
        service.map().warehouses() / service.shard_count() as u64,
    );

    // OLTP: a global Payment/NewOrder stream routed by home warehouse.
    // Conflict-free waves execute concurrently and cross-shard
    // two-phase commits overlap.
    let warehouses = service.map().warehouses();
    let mut gen = service.global_txn_gen(42).with_remote_mix(mix, warehouses);
    let oltp = service.run_txns(&mut gen, 600);
    let total = oltp.merged();
    println!(
        "\nrouted {} txns: makespan {}, aggregate tpmC {:.0}, parallel speedup {:.2}x",
        oltp.committed(),
        oltp.makespan(),
        oltp.tpmc(16),
        oltp.parallel_efficiency(),
    );
    println!(
        "global timestamp oracle at {} ({} delta-pressure retries, {} wasted attempt time)",
        service.ts_oracle().watermark(),
        total.aborts,
        total.wasted_retry_time,
    );
    let lat = total.commit_latency.stats();
    println!(
        "commit latency: p50 {} / p90 {} / p99 {} / p99.9 {} / max {} (mean {})",
        fmt_ps(lat.p50),
        fmt_ps(lat.p90),
        fmt_ps(lat.p99),
        fmt_ps(lat.p999),
        fmt_ps(lat.max),
        fmt_ps(lat.mean),
    );
    println!(
        "2PC: {:.1}% of txns crossed shards ({} remote touches, {} forwarded effects, \
         {} prepares, {} participant aborts, {} commit rounds, {:.2}% of busy time)",
        oltp.remote.cross_shard_fraction() * 100.0,
        oltp.remote.remote_touches,
        total.forwarded_effects,
        total.prepared_txns,
        total.participant_aborts,
        total.two_pc_stall.count(),
        oltp.two_pc_time_share() * 100.0,
    );
    println!(
        "schedule: {} waves (widest {}), {:.1}% of 2PCs overlapped, \
         round latency {} on the critical path vs {} sequential",
        oltp.coord.waves,
        oltp.coord.max_wave,
        oltp.overlap_ratio() * 100.0,
        total.critical_path_time,
        total.two_pc_time,
    );
    for (i, load) in oltp.per_shard.iter().enumerate() {
        println!(
            "  shard {i}: {:>4} txns in {} ({} forwarded effects applied, {} 2PC round time = {:.2}% of this engine's time)",
            load.report.committed,
            load.elapsed,
            load.report.forwarded_effects,
            Ps::new(u64::try_from(load.report.two_pc_stall.sum()).expect("stall fits in u64 ps")),
            load.report.two_pc_time_share() * 100.0,
        );
    }

    // OLAP: scatter-gather over every shard's two-phase PIM scan.
    println!();
    for q in Query::ALL {
        let report = service.run_query(q);
        let summary = match &report.result {
            QueryResult::Q1(rows) => format!("{} groups", rows.len()),
            QueryResult::Q6 { revenue } => format!("revenue {revenue}"),
            QueryResult::Q9(rows) => format!("{} join groups", rows.len()),
        };
        let cut = report.global_cut().expect("one agreed cut");
        println!(
            "{}: {:>12}  cut {cut}  scatter {} (slowest shard) + merge {} = {}  [{} partial rows gathered]",
            q.name(),
            summary,
            report.scatter_latency,
            report.merge_time,
            report.total(),
            report.gathered_rows(),
        );
    }

    // The perfectly-partitionable upper bound: warehouse-local streams.
    let local = service.run_local_txns(7, 600 / shards as u64);
    println!(
        "\nwarehouse-local load: {} txns, aggregate tpmC {:.0} (the no-coordination upper bound)",
        local.committed(),
        local.tpmc(16),
    );

    if let Some(path) = trace_path {
        let spans = sink.take();
        let (wave, peak) = two_pc_overlap_peak(&spans);
        let doc = chrome::render(&spans);
        chrome::validate(&doc).expect("rendered trace must validate");
        std::fs::write(&path, &doc)?;
        println!(
            "\nwrote {path} ({} spans, peak {peak} concurrent 2PCs in wave {wave}) — \
             load it at https://ui.perfetto.dev",
            spans.len(),
        );
    }
    Ok(())
}
