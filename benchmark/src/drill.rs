//! The layer drill: microbenchmarks of every layer's public functions
//! on scratch deployments, timed from outside. It also replays the
//! `ShardedHtap::run_txns` pipeline stage by stage with public
//! functions, so that the staged parts plus the coordinator residual
//! sum to the real call by construction.
//!
//! The noise protocol is the workloads': the whole drill runs in
//! several passes over identical work on fresh scratch state, every
//! metric is cut into batches, each batch reading is divided by the
//! machine's speed around it, and a batch's readings are combined
//! across passes with the largest dropped.
//!
//! Scratch deployments use the small population (`DbConfig::small`),
//! whichever workload's traced run hosts the drill: these are costs of
//! the code, not of a workload.

use std::hint::black_box;
use std::time::Instant;

use pushtap_chbench::{Table, Txn, TxnGen};
use pushtap_core::{Pushtap, PushtapConfig};
use pushtap_format::RowSlot;
use pushtap_mvcc::{DefragCostModel, DefragStrategy, Snapshot, Ts, TsOracle, VersionChains};
use pushtap_olap::{merge_partials, Query, ScanEngine};
use pushtap_oltp::{codec, EffectRecord, Partition, TpccDb, TxnRole};
use pushtap_pim::{BankAddr, MemSystem, Op, PimOpKind, Ps, Side};
use pushtap_shard::coordinator::schedule::{build_waves, incremental_waves};
use pushtap_shard::{ArrivalConfig, ArrivalGen, ShardConfig, ShardedHtap};
use pushtap_trace::Histogram;
use pushtap_wal::{scan, Wal};

use crate::calib::{Speedometer, NOMINAL_NS};
use crate::stats;
use crate::workload::query_of_round;
use crate::workloads::SHARDS;

/// Passes over the whole drill (fresh scratch state each).
const PASSES: usize = 3;
/// Batches a cheap operation is cut into; expensive ones (a
/// millisecond or more per call) use [`FEW`].
const MANY: usize = 20;
const FEW: usize = 10;

/// One pass's readings, in the order they were taken.
#[derive(Debug, Default)]
struct Pass {
    /// (metric, operations, reference ns) per batch.
    timed: Vec<(&'static str, u64, f64)>,
    /// Simulated values read from reports (must repeat exactly).
    values: Vec<(&'static str, f64)>,
}

/// Takes the readings of one pass.
#[derive(Debug)]
struct Laps<'s> {
    speed: &'s mut Speedometer,
    pass: Pass,
}

/// Runs `call` and returns its result with its wall nanoseconds.
fn clocked<T>(call: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = black_box(call());
    (out, started.elapsed().as_nanos() as u64)
}

impl Laps<'_> {
    /// Runs `work` and returns its result with the calibration kernel's
    /// time around it: the mean of a reading before and one after.
    fn around<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let before = self.speed.read();
        let out = work();
        (out, (before + self.speed.read()) as f64 / 2.0)
    }

    /// Times one batch whose operation count is read off its result.
    fn time_counted<T>(
        &mut self,
        name: &'static str,
        batch: impl FnOnce() -> T,
        ops: impl FnOnce(&T) -> u64,
    ) -> T {
        let ((out, ns), kernel_ns) = self.around(|| clocked(batch));
        self.add(name, ops(&out), ns, kernel_ns);
        out
    }

    /// Times one batch of `ops` operations.
    fn time<T>(&mut self, name: &'static str, ops: u64, batch: impl FnOnce() -> T) -> T {
        self.time_counted(name, batch, |_| ops)
    }

    /// Records a batch whose time the caller summed itself (operations
    /// interleaved in one loop), with the kernel's time around it.
    fn add(&mut self, name: &'static str, ops: u64, ns: u64, kernel_ns: f64) {
        self.pass
            .timed
            .push((name, ops, ns as f64 * NOMINAL_NS / kernel_ns));
    }
}

/// Host (reference) nanoseconds per operation of every timed metric:
/// each batch's readings combined across passes, summed, over the
/// operations.
fn filter(passes: &[Pass]) -> Vec<(&'static str, f64)> {
    let first = &passes[0];
    for pass in &passes[1..] {
        assert_eq!(
            pass.timed.len(),
            first.timed.len(),
            "passes took different laps"
        );
        for (lap, reference) in pass.timed.iter().zip(&first.timed) {
            assert_eq!(
                (lap.0, lap.1),
                (reference.0, reference.1),
                "passes diverged"
            );
        }
        assert_eq!(
            pass.values, first.values,
            "simulated values of the drill must repeat exactly"
        );
    }
    let times: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.timed.iter().map(|l| l.2).collect())
        .collect();
    let mut out: Vec<(&'static str, f64, u64)> = Vec::new();
    for ((name, ops, _), ns) in first.timed.iter().zip(stats::filter(&times)) {
        match out.iter_mut().find(|(n, ..)| n == name) {
            Some(e) => {
                e.1 += ns;
                e.2 += ops;
            }
            None => out.push((name, ns, *ops)),
        }
    }
    out.into_iter()
        .map(|(name, ns, ops)| (name, ns / ops.max(1) as f64))
        .collect()
}

/// Runs the drill and returns every metric by name, in its unit. Names
/// starting with `stage.` are the staged parts of `run_txns`, which
/// `layers.json` lists beside the metrics.
pub fn run(seed: u64, quick: bool, speed: &mut Speedometer) -> Vec<(&'static str, f64)> {
    let mut passes: Vec<Pass> = Vec::new();
    for _ in 0..if quick { 1 } else { PASSES } {
        let mut laps = Laps {
            speed: &mut *speed,
            pass: Pass::default(),
        };
        pass(seed, quick, &mut laps);
        passes.push(laps.pass);
    }
    let ns_per_op = filter(&passes);
    let ns = |name: &str| -> f64 {
        ns_per_op
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("the drill took no lap named {name}"))
    };
    // The unit is in the name: host_ns, host_us or host_ms.
    let mut out: Vec<(&'static str, f64)> = ns_per_op
        .iter()
        .map(|&(name, v)| {
            let scale = if name.contains(".host_ms") {
                1e6
            } else if name.contains(".host_us") {
                1e3
            } else {
                1.0
            };
            (name, v / scale)
        })
        .collect();
    // Mean simulated value of each query over its laps.
    for q in ["olap.q1.sim_us", "olap.q6.sim_us", "olap.q9.sim_us"] {
        let vals: Vec<f64> = passes[0]
            .values
            .iter()
            .filter(|(n, _)| *n == q)
            .map(|(_, v)| *v)
            .collect();
        out.push((q, vals.iter().sum::<f64>() / vals.len().max(1) as f64));
    }
    // What `run_txns` costs beyond its staged parts: threads, 2PC
    // bookkeeping, the second decomposition, WAL glue. Defined by
    // subtraction, so the parts sum to the whole.
    let staged: f64 = STAGES.iter().map(|s| ns(s)).sum();
    out.push((
        "shard.coordinator.residual.host_us_per_txn",
        (ns("shard.service.run_txns.host_us_per_txn") - staged) / 1e3,
    ));
    out.push((
        "shard.service.gather_overhead.host_ms",
        (ns("shard.service.run_query.host_ms") - ns("stage.own_query.host_ms")) / 1e6,
    ));
    out
}

/// The staged parts of `ShardedHtap::run_txns`, per transaction.
pub const STAGES: [&str; 5] = [
    "chbench.gen_batch.host_ns_per_txn",
    "shard.router.route_stream.host_ns_per_txn",
    "oltp.keyset.host_ns",
    "shard.schedule.build_waves.host_ns_per_txn",
    "stage.execute.host_ns_per_txn",
];

fn pass(seed: u64, quick: bool, laps: &mut Laps<'_>) {
    // At least three batches, so that every query of the cycle runs.
    let size = |full: usize| if quick { (full / 10).max(3) } else { full };
    substrate(size(MANY), laps);
    engine_layers(seed, size(MANY), laps);
    core_layer(seed, size(MANY), laps);
    shard_layers(seed, size(MANY), size(FEW), laps);
}

/// pim, mvcc, wal, trace, arrival: layers that need no database.
fn substrate(batches: usize, laps: &mut Laps<'_>) {
    // pim: dependent single accesses walking the rows of one bank, and
    // open-loop streams of one 1 kB row each.
    let mut mem = MemSystem::dimm();
    let line = mem.line_bytes(Side::Pim);
    let bank = BankAddr::new(0, 0, 0);
    let mut at = Ps::ZERO;
    for k in 0..batches as u32 {
        laps.time("pim.access.host_ns", 1000, || {
            for i in 0..1000u32 {
                at = mem
                    .access(Side::Pim, bank, k * 1000 + i, Op::Read, line, at)
                    .done;
            }
        });
        laps.time("pim.stream.host_ns_per_kb", 64, || {
            for i in 0..64u32 {
                at = mem.stream(
                    Side::Pim,
                    BankAddr::new(1, 0, 1),
                    k * 64 + i,
                    16,
                    16,
                    Op::Read,
                    line,
                    at,
                );
            }
        });
    }

    // mvcc: chains of three versions per row, a reader below them all,
    // one snapshot fold, one GC pass.
    let rows = 200u64;
    for k in 0..batches as u64 {
        let mut chains = VersionChains::new();
        let mut snapshot = Snapshot::new(rows, 4, rows);
        laps.time("mvcc.record_update.host_ns", 3 * rows, || {
            for v in 0..3u64 {
                for row in 0..rows {
                    let slot = RowSlot::Delta {
                        rotation: (row % 4) as u32,
                        idx: v * (rows / 4) + row / 4,
                    };
                    chains.record_update(row, slot, Ts(1 + v * rows + row));
                }
            }
        });
        laps.time("mvcc.visible_at.host_ns", rows, || {
            for row in 0..rows {
                black_box(chains.visible_at(row, Ts(k % 2)));
            }
        });
        let upto = Ts(3 * rows);
        let entries = laps.time("mvcc.snapshot_update.host_ns_per_entry", 3 * rows, || {
            snapshot.update(chains.log(), upto).entries_applied
        });
        assert_eq!(entries, 3 * rows);
        laps.time_counted(
            "mvcc.gc.host_ns_per_version",
            || chains.gc(upto),
            |outcome| outcome.slots_recycled() as u64,
        );
        let oracle = TsOracle::new();
        laps.time("mvcc.oracle_allocate.host_ns", 1000, || {
            for _ in 0..1000 {
                black_box(oracle.allocate());
            }
        });
    }

    // wal: 200-byte payloads, one force per hundred appends, then one
    // scan and one keep-everything rewrite of the whole log.
    let (mut wal, durable) = Wal::in_memory();
    let payload = [0xA5u8; 200];
    for _ in 0..batches {
        laps.time("wal.append.host_ns", 100, || {
            for _ in 0..100 {
                wal.append(&payload);
            }
        });
        laps.time("wal.force.host_ns", 1, || wal.force());
        let image = durable.bytes();
        laps.time_counted(
            "wal.scan.host_ns_per_record",
            || scan(&image),
            |outcome| outcome.records.len() as u64,
        );
        laps.time("wal.truncate_before.host_ms", 1, || {
            wal.truncate_before(|p| Some(p.to_vec()))
        });
    }

    // trace and arrival.
    let mut hist = Histogram::new();
    let mut arrivals = ArrivalGen::new(7, ArrivalConfig::poisson(140_000.0));
    for k in 0..batches as u64 {
        laps.time("trace.hist_record.host_ns", 1000, || {
            for i in 0..1000u64 {
                hist.record(90_000_000 + (i * 7919 + k) % 50_000_000);
            }
        });
        laps.time("shard.arrival.next.host_ns", 1000, || {
            for _ in 0..1000 {
                black_box(arrivals.next_arrival());
            }
        });
    }
}

/// format, oltp, olap on one database and memory system owned
/// directly (so that `TpccDb` calls can borrow both mutably).
fn engine_layers(seed: u64, batches: usize, laps: &mut Laps<'_>) {
    let cfg = PushtapConfig::small();
    let mut mem = MemSystem::new(cfg.system);
    let mut db = TpccDb::build(&cfg.db, &mem).expect("the small database lays out");
    let engine = ScanEngine::new(cfg.arch, &cfg.system);
    let orderline = db.table(Table::OrderLine);
    let n_rows = orderline.n_rows();

    // format: a private copy of ORDERLINE's store.
    let mut store = orderline.store().clone();
    let key_col = (0..orderline.layout().schema().len() as u32)
        .find(|c| orderline.layout().key_location(*c).is_some())
        .expect("ORDERLINE has key columns");
    for k in 0..batches as u64 {
        let rows = move |i: u64| RowSlot::Data {
            row: (k * 7919 + i * 31) % n_rows,
        };
        let values = laps.time("format.read_row.host_ns", 200, || {
            let mut last = Vec::new();
            for i in 0..200 {
                last = store.read_row(rows(i));
            }
            last
        });
        laps.time("format.write_row.host_ns", 200, || {
            for i in 0..200 {
                store.write_row(rows(i), &values);
            }
        });
        laps.time("format.read_value.host_ns", 1000, || {
            for i in 0..1000 {
                black_box(store.read_value(rows(i), key_col));
            }
        });
    }

    // oltp: the two transaction types through `execute_at`, then the
    // two-phase path (`prepare_effects` + `commit_prepared`), the codec
    // on the same effect sets, and the read-only decomposition.
    let mut gen = TxnGen::new(
        seed,
        db.warehouses_global(),
        db.global_rows_of(Table::Customer),
        db.global_rows_of(Table::Item),
        db.global_rows_of(Table::Stock),
    );
    let per_batch = 20usize;
    let mut payments: Vec<Txn> = Vec::new();
    let mut neworders: Vec<Txn> = Vec::new();
    while payments.len() < batches * per_batch || neworders.len() < 2 * batches * per_batch {
        match gen.next_txn() {
            t @ Txn::Payment(_) => payments.push(t),
            t @ Txn::NewOrder(_) => neworders.push(t),
        }
    }
    let mut ts = 0u64;
    let mut at = Ps::ZERO;
    // The hot single-row tables fill their 512-slot arenas within a few
    // batches; reclaim between batches, untimed, as the engine would.
    let reclaim = DefragCostModel::new(16.0, cfg.system.cpu_peak_bw(), cfg.system.pim_peak_bw());
    for k in 0..batches {
        let cut = db.gc_eligible_before();
        db.gc(&reclaim, DefragStrategy::Hybrid, cut);
        let range = k * per_batch..(k + 1) * per_batch;
        for (name, txns) in [
            ("oltp.payment.host_us", &payments[range.clone()]),
            ("oltp.neworder.host_us", &neworders[range.clone()]),
        ] {
            laps.time(name, per_batch as u64, || {
                for txn in txns {
                    ts += 1;
                    let r = db.execute_at(txn, Ts(ts), &mut mem, at);
                    at = r.expect("the scratch arenas have room").end;
                }
            });
        }
        // The second half of the NewOrders goes through 2PC's calls.
        let offset = batches * per_batch;
        let txns = &neworders[offset + range.start..offset + range.end];
        laps.time("oltp.decompose.host_ns", per_batch as u64, || {
            for txn in txns {
                black_box(db.decompose(txn, Ts(ts + 1)));
            }
        });
        // Four calls per transaction, interleaved: each call's time is
        // summed over the batch.
        let (sums, kernel_ns) = laps.around(|| {
            let mut sums = [0u64; 4];
            for txn in txns {
                ts += 1;
                let effects = db.decompose(txn, Ts(ts));
                let (r, prepare) = clocked(|| db.prepare_effects(&effects, Ts(ts), &mut mem, at));
                at = r.expect("the scratch arenas have room").end;
                let ((), commit) = clocked(|| db.commit_prepared(Ts(ts), TxnRole::Coordinator));
                let (bytes, encode) =
                    clocked(|| codec::encode_parts(Ts(ts), TxnRole::Coordinator, false, &effects));
                let (decoded, decode) = clocked(|| EffectRecord::decode(&bytes));
                decoded.expect("own encoding decodes");
                for (sum, ns) in sums.iter_mut().zip([prepare, commit, encode, decode]) {
                    *sum += ns;
                }
            }
            sums
        });
        for (name, ns) in [
            "oltp.prepare_effects.host_us",
            "oltp.commit_prepared.host_ns",
            "oltp.codec_encode.host_ns",
            "oltp.codec_decode.host_ns",
        ]
        .into_iter()
        .zip(sums)
        {
            laps.add(name, per_batch as u64, ns, kernel_ns);
        }
    }

    // olap: one PIM column scan, the three queries against the current
    // snapshots, and a two-way merge of Q1 partials.
    let orderline = db.table(Table::OrderLine);
    let mut q1_partial = None;
    for k in 0..batches as u64 {
        laps.time("olap.scan_column.host_us", 1, || {
            engine.scan_column(orderline, key_col, PimOpKind::Filter, &mut mem, at)
        });
        let q = query_of_round(k);
        let (host, sim) = match q {
            Query::Q1 => ("olap.q1.host_ms", "olap.q1.sim_us"),
            Query::Q6 => ("olap.q6.host_ms", "olap.q6.sim_us"),
            Query::Q9 => ("olap.q9.host_ms", "olap.q9.sim_us"),
        };
        let (result, timing) = laps.time(host, 1, || q.execute(&db, &engine, &mut mem, at));
        laps.pass
            .values
            .push((sim, timing.end.saturating_sub(at).as_us()));
        at = timing.end.max(at);
        if q == Query::Q1 {
            q1_partial = Some(result);
        }
        if let Some(part) = &q1_partial {
            let parts = [part.clone(), part.clone()];
            laps.time("olap.merge_partials.host_us", 1, || merge_partials(parts));
        }
    }
}

/// core: the assembled engine's own calls.
fn core_layer(seed: u64, batches: usize, laps: &mut Laps<'_>) {
    let mut engine = Pushtap::new(PushtapConfig::small()).expect("the small engine lays out");
    let mut gen = engine.txn_gen(seed);
    for k in 0..batches {
        let burst = gen.batch(50);
        laps.time("core.execute_txn.host_us", 50, || {
            for txn in &burst {
                engine.execute_txn(txn);
            }
        });
        laps.time("core.snapshot_for.host_us", 1, || {
            engine.snapshot_for(Query::Q9)
        });
        // Both reclaim what the last burst (or two) left behind.
        if k % 2 == 0 {
            laps.time("core.gc_pass.host_ms", 1, || engine.gc_pass());
        } else {
            laps.time("core.defragment_all.host_ms", 1, || engine.defragment_all());
        }
    }
}

/// shard.*: the service's public calls on a `shard_durable`-like
/// deployment, and `run_txns` replayed stage by stage.
fn shard_layers(seed: u64, batches: usize, few: usize, laps: &mut Laps<'_>) {
    let mut cfg = ShardConfig::small(SHARDS);
    cfg.base.defrag_period = 200;
    let mut service = ShardedHtap::new(cfg.clone()).expect("two shards lay out");
    let handles = service.enable_wal();

    // Scatter-gather against each shard's own query: standalone engines
    // hold the same (initial) slices, so the difference is the gather.
    let mut alone: Vec<Pushtap> = (0..SHARDS)
        .map(|i| {
            Pushtap::new_partitioned(cfg.base.clone(), Partition::of(i, SHARDS))
                .expect("a shard lays out")
        })
        .collect();
    for k in 0..few as u64 {
        let q = query_of_round(k);
        laps.time("shard.service.run_query.host_ms", 1, || {
            service.run_query(q)
        });
        let (slowest, kernel_ns) = laps.around(|| {
            alone
                .iter_mut()
                .map(|shard| clocked(|| shard.run_query(q)).1)
                .max()
                .unwrap_or(0)
        });
        laps.add("stage.own_query.host_ms", 1, slowest, kernel_ns);
    }
    drop(alone);

    // `run_txns` for real, and the same stream through its stages: the
    // generator, the router, the keyset, the two wave schedulers, and
    // an unpartitioned engine executing at the pinned timestamps.
    let n = 50u64;
    let mut live_gen = service.global_txn_gen(seed);
    let mut staged_gen = service.global_txn_gen(seed);
    let router = *service.router();
    let oracle = TsOracle::new();
    let mut reference = Pushtap::new(cfg.base.clone()).expect("the reference lays out");
    for k in 0..batches {
        let batch = laps.time("chbench.gen_batch.host_ns_per_txn", n, || {
            staged_gen.batch(n as usize)
        });
        let (mut stream, _) = laps.time("shard.router.route_stream.host_ns_per_txn", n, || {
            router.route_stream(batch, &oracle)
        });
        // The keysets the service is about to compute itself, from the
        // same state.
        laps.time("oltp.keyset.host_ns", n, || {
            for routed in &mut stream {
                routed.keys = service
                    .shard(routed.shard)
                    .db()
                    .keyset(&routed.txn, routed.ts);
            }
        });
        let copy = stream.clone();
        laps.time("shard.schedule.incremental.host_ns_per_txn", n, || {
            incremental_waves(copy, 32)
        });
        let in_order: Vec<(Txn, Ts)> = stream.iter().map(|r| (r.txn.clone(), r.ts)).collect();
        laps.time("shard.schedule.build_waves.host_ns_per_txn", n, || {
            build_waves(stream)
        });
        laps.time("stage.execute.host_ns_per_txn", n, || {
            for (txn, ts) in &in_order {
                reference.execute_txn_at(txn, *ts);
            }
        });
        let report = laps.time("shard.service.run_txns.host_us_per_txn", n, || {
            service.run_txns(&mut live_gen, n)
        });
        assert_eq!(report.committed(), n, "the drill's batches commit whole");
        if k % 2 == 1 {
            laps.time("shard.service.checkpoint.host_ms", 1, || {
                service.checkpoint()
            });
        }
    }
    for _ in 0..2 {
        laps.time("shard.service.recover.host_ms", 1, || {
            ShardedHtap::recover(cfg.clone(), &handles.harvest()).expect("two shards lay out")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Source, PER_LAYER};

    #[test]
    fn filter_combines_each_batch_across_passes() {
        let pass = |a: f64, b: f64| Pass {
            timed: vec![("x.host_ns", 10, a), ("x.host_ns", 10, b)],
            values: vec![("v", 1.0)],
        };
        // Three passes: each batch drops its largest reading and
        // averages the other two.
        let out = filter(&[pass(100.0, 900.0), pass(500.0, 300.0), pass(120.0, 320.0)]);
        assert_eq!(out, vec![("x.host_ns", (110.0 + 310.0) / 20.0)]);
    }

    /// The drill yields exactly the per-layer metrics the table sources
    /// from it, and its stages sum to `run_txns`.
    #[test]
    fn quick_drill_yields_every_drill_metric() {
        let out = run(42, true, &mut Speedometer::new());
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Drill) {
            let found = out.iter().filter(|(n, _)| *n == m.name).count();
            assert_eq!(found, 1, "{} from the drill", m.name);
        }
        for (name, v) in &out {
            assert!(
                name.starts_with("stage.") || PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a per-layer metric"
            );
            assert!(v.is_finite(), "{name} = {v}");
        }
        let get = |name: &str| out.iter().find(|(n, _)| *n == name).expect(name).1;
        let staged: f64 = STAGES.iter().map(|s| get(s)).sum();
        let residual = get("shard.coordinator.residual.host_us_per_txn") * 1e3;
        let whole = get("shard.service.run_txns.host_us_per_txn") * 1e3;
        assert!(
            (staged + residual - whole).abs() <= 1.0,
            "stages {staged} + residual {residual} must equal run_txns {whole} (ns)"
        );
    }
}
