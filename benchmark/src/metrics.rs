//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, by name. `BENCHMARK.json` at the repository root
//! must list exactly these (a self-test checks both directions).
//!
//! Every name says which clock it is on: `sim_*` is simulated
//! picoseconds of the modelled PIM hardware (deterministic — must
//! repeat bit for bit), `host_*` is the wall clock of this Rust
//! process in reference seconds (noisy — calibrated and filtered, see
//! `calib` and `stats::steady`), anything else is a count or a ratio.

use crate::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineOltp,
    EngineHtap,
    ShardDurable,
    ShardOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineOltp,
        Workload::EngineHtap,
        Workload::ShardDurable,
        Workload::ShardOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineOltp => "engine_oltp",
            Workload::EngineHtap => "engine_htap",
            Workload::ShardDurable => "shard_durable",
            Workload::ShardOpen => "shard_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `BENCHMARK.json` lists the workload, i.e. whether the
    /// driver that gates later changes runs it. `shard_open` is left
    /// out: a third of its host time is thread wake-ups (two scoped
    /// spawns per wave of under three transactions), and on the shared
    /// sandbox the cost of a wake-up has episodes, minutes long, of two
    /// to five times its usual 55 µs while plain computation runs as
    /// ever — so its host throughput spread 27–31 % over ten runs in
    /// two of four sweeps, beyond any bound the driver accepts (25 %).
    /// `run`, `trace` and `compare` cover it like the others; it
    /// belongs in the list once the coordinator stops spawning threads
    /// per wave.
    pub fn in_driver_list(self) -> bool {
        self != Workload::ShardOpen
    }

    /// Why the workload exists (one line, as `BENCHMARK.json` quotes it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::EngineOltp => {
                "closed loop, one unpartitioned engine, transactions only: the paper's OLTP \
                 path; shard, wal and olap do no work here"
            }
            Workload::EngineHtap => {
                "closed loop, one engine, write bursts between Q1/Q6/Q9 scans (Fig. 10): olap \
                 and snapshot update dominate both clocks"
            }
            Workload::ShardDurable => {
                "closed loop, 2 shards, uniform remote mix, WAL, GC, checkpoint and recovery: \
                 router, waves, 2PC and durability all on at once"
            }
            Workload::ShardOpen => {
                "open loop, 2 shards, Poisson arrivals on a fixed ladder of rates: queueing, \
                 admission and the incremental wave scheduler decide the result"
            }
        }
    }
}

const ALL_WORKLOADS: &[Workload] = &Workload::ALL;

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` calls it a regression.
    pub bound: f64,
    /// Repeats exactly on one commit (simulated or counted), so two
    /// commits compare exactly; host times do not.
    pub exact: bool,
    /// The workloads that emit it.
    pub workloads: &'static [Workload],
    /// Listed in `BENCHMARK.json` and carried by the driver's result
    /// line. The driver expects each listed metric from each workload,
    /// never 0, and never the same reading on every run — so only a
    /// metric every workload emits, that is positive when healthy and
    /// that is not quantised can be listed.
    pub driver: bool,
}

use Better::{Higher, Lower};
use Workload::{EngineHtap, ShardDurable, ShardOpen};

/// The set-up metric's name, which the driver's contract fixes.
pub const SETUP: &str = "setup_s";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: SETUP,
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "host_txn_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        exact: false,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "host_run_s",
        unit: "s",
        better: Lower,
        bound: 0.20,
        exact: false,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "host_query_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
        exact: false,
        workloads: &[EngineHtap, ShardDurable],
        driver: false,
    },
    EndToEnd {
        name: "host_allocs_per_op",
        unit: "count",
        better: Lower,
        bound: 0.05,
        exact: true,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        exact: false,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "sim_txn_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.08,
        exact: true,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "sim_commit_mean_us",
        unit: "us",
        better: Lower,
        bound: 0.10,
        exact: true,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "sim_commit_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.10,
        exact: true,
        workloads: ALL_WORKLOADS,
        driver: false,
    },
    EndToEnd {
        name: "sim_commit_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.10,
        exact: true,
        workloads: ALL_WORKLOADS,
        driver: false,
    },
    EndToEnd {
        name: "sim_run_ms",
        unit: "ms",
        better: Lower,
        bound: 0.08,
        exact: true,
        workloads: ALL_WORKLOADS,
        driver: true,
    },
    EndToEnd {
        name: "sim_query_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.02,
        exact: true,
        workloads: &[EngineHtap, ShardDurable],
        driver: false,
    },
    EndToEnd {
        name: "sim_query_p90_us",
        unit: "us",
        better: Lower,
        bound: 0.02,
        exact: true,
        workloads: &[EngineHtap],
        driver: false,
    },
    EndToEnd {
        name: "sim_cpu_blocked_share",
        unit: "ratio",
        better: Lower,
        bound: 0.02,
        exact: true,
        workloads: &[EngineHtap, ShardDurable],
        driver: false,
    },
    EndToEnd {
        name: "sim_sojourn_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.02,
        exact: true,
        workloads: &[ShardOpen],
        driver: false,
    },
    EndToEnd {
        name: "sim_sojourn_p99_us",
        unit: "us",
        better: Lower,
        bound: 0.02,
        exact: true,
        workloads: &[ShardOpen],
        driver: false,
    },
    EndToEnd {
        name: "sim_max_rate_tps",
        unit: "1/s",
        better: Higher,
        bound: 0.0,
        exact: true,
        workloads: &[ShardOpen],
        driver: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        exact: true,
        workloads: ALL_WORKLOADS,
        driver: false,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The end-to-end metrics `BENCHMARK.json` lists and the driver's
/// result line carries.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.driver)
}

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The layer drill: a microbenchmark on a scratch deployment, the
    /// same whichever workload's traced run hosts it.
    Drill,
    /// The workload's own public reports: a count or a share that reads
    /// 0 on a workload that bypasses the layer.
    Workload,
}

/// A metric of a single layer (crate or shard module). No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Listed in `BENCHMARK.json` and carried by the driver's traced
    /// result line.
    pub driver: bool,
}

const fn drill(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        source: Source::Drill,
        driver: true,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Workload,
        driver: true,
    }
}

/// A simulated time read from the workload's reports. On a workload
/// that bypasses the layer it reads 0 on every run, and the driver
/// rejects a time that reads the same on every run — so these stay in
/// `layers.json` and out of `BENCHMARK.json`.
const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        source: Source::Workload,
        driver: false,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // chbench
    drill("chbench.gen_batch.host_ns_per_txn", "ns/txn"),
    // pim
    drill("pim.access.host_ns", "ns"),
    drill("pim.stream.host_ns_per_kb", "ns/KB"),
    count("pim.cpu_effective_bw", "ratio", Higher),
    count("pim.pim_effective_bw", "ratio", Higher),
    count("pim.row_hit_rate", "ratio", Higher),
    // format
    drill("format.read_row.host_ns", "ns"),
    drill("format.write_row.host_ns", "ns"),
    drill("format.read_value.host_ns", "ns"),
    // mvcc
    drill("mvcc.record_update.host_ns", "ns"),
    drill("mvcc.visible_at.host_ns", "ns"),
    drill("mvcc.gc.host_ns_per_version", "ns/version"),
    drill("mvcc.snapshot_update.host_ns_per_entry", "ns/entry"),
    drill("mvcc.oracle_allocate.host_ns", "ns"),
    count("mvcc.live_versions", "count", Lower),
    count("mvcc.commit_log_len", "count", Lower),
    count("mvcc.gc.versions_reclaimed", "count", Higher),
    count("mvcc.gc.sim_share", "ratio", Lower),
    count("mvcc.defrag.sim_share", "ratio", Lower),
    count("mvcc.aborts", "count", Lower),
    count("mvcc.wasted_retry.sim_share", "ratio", Lower),
    // oltp
    drill("oltp.decompose.host_ns", "ns"),
    drill("oltp.keyset.host_ns", "ns"),
    drill("oltp.payment.host_us", "us"),
    drill("oltp.neworder.host_us", "us"),
    drill("oltp.prepare_effects.host_us", "us"),
    drill("oltp.commit_prepared.host_ns", "ns"),
    drill("oltp.codec_encode.host_ns", "ns"),
    drill("oltp.codec_decode.host_ns", "ns"),
    count("oltp.allocs_per_txn", "count", Lower),
    count("oltp.sim_share.memory", "ratio", Lower),
    count("oltp.sim_share.indexing", "ratio", Lower),
    count("oltp.sim_share.alloc", "ratio", Lower),
    count("oltp.sim_share.compute", "ratio", Lower),
    count("oltp.sim_share.chain", "ratio", Lower),
    // olap
    drill("olap.scan_column.host_us", "us"),
    drill("olap.q1.host_ms", "ms"),
    drill("olap.q6.host_ms", "ms"),
    drill("olap.q9.host_ms", "ms"),
    drill("olap.q1.sim_us", "us"),
    drill("olap.q6.sim_us", "us"),
    drill("olap.q9.sim_us", "us"),
    drill("olap.merge_partials.host_us", "us"),
    count("olap.allocs_per_query", "count", Lower),
    count("olap.pim_load.sim_share", "ratio", Lower),
    count("olap.pim_compute.sim_share", "ratio", Lower),
    count("olap.cpu_compute.sim_share", "ratio", Lower),
    count("olap.control.sim_share", "ratio", Lower),
    count("olap.consistency.sim_share", "ratio", Lower),
    time("olap.cpu_blocked.sim_us_per_query", "us/query"),
    count("olap.cpu_blocked.sim_share", "ratio", Lower),
    time("olap.query.sim_p50_us", "us"),
    time("olap.query.sim_p90_us", "us"),
    // core
    drill("core.execute_txn.host_us", "us"),
    drill("core.snapshot_for.host_us", "us"),
    drill("core.gc_pass.host_ms", "ms"),
    drill("core.defragment_all.host_ms", "ms"),
    count("core.sim_unattributed_share", "ratio", Lower),
    // wal
    drill("wal.append.host_ns", "ns"),
    drill("wal.force.host_ns", "ns"),
    drill("wal.scan.host_ns_per_record", "ns/record"),
    drill("wal.truncate_before.host_ms", "ms"),
    count("wal.appends_per_txn", "count", Lower),
    count("wal.bytes_per_txn", "B/txn", Lower),
    count("wal.fsync_per_txn", "count", Lower),
    count("wal.force.sim_share", "ratio", Lower),
    count("wal.checkpoint.bytes_reclaimed", "B", Higher),
    // shard.router / shard.schedule / shard.arrival
    drill("shard.router.route_stream.host_ns_per_txn", "ns/txn"),
    drill("shard.schedule.build_waves.host_ns_per_txn", "ns/txn"),
    drill("shard.schedule.incremental.host_ns_per_txn", "ns/txn"),
    drill("shard.arrival.next.host_ns", "ns"),
    // shard.coordinator
    drill("shard.coordinator.residual.host_us_per_txn", "us/txn"),
    count("shard.coordinator.waves", "count", Lower),
    count("shard.coordinator.txns_per_wave", "count", Higher),
    count("shard.coordinator.max_wave", "count", Higher),
    count("shard.coordinator.overlap_ratio", "ratio", Higher),
    count("shard.coordinator.two_pc.sim_share", "ratio", Lower),
    count("shard.coordinator.cross_shard_fraction", "ratio", Lower),
    count("shard.coordinator.participant_aborts", "count", Lower),
    count("shard.coordinator.parallel_efficiency", "ratio", Higher),
    // shard.service
    drill("shard.service.run_txns.host_us_per_txn", "us/txn"),
    drill("shard.service.run_query.host_ms", "ms"),
    drill("shard.service.gather_overhead.host_ms", "ms"),
    drill("shard.service.checkpoint.host_ms", "ms"),
    drill("shard.service.recover.host_ms", "ms"),
    count("shard.open.queue_depth_mean", "count", Lower),
    count("shard.open.queue_depth_max", "count", Lower),
    time("shard.open.queue_wait_p99_us", "us"),
    count("shard.open.rejected", "count", Lower),
    time("shard.open.sojourn_p50_us", "us"),
    time("shard.open.sojourn_p99_us", "us"),
    count("shard.open.max_rate_tps", "1/s", Higher),
    // trace
    drill("trace.hist_record.host_ns", "ns"),
    count("trace.sink_overhead_share", "ratio", Lower),
];

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// The content of `BENCHMARK.json`: the driver-facing definition of
/// this benchmark, generated from the tables above.
pub fn manifest() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .filter(|w| w.in_driver_list())
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                driver_end_to_end()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .filter(|m| m.driver)
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name:?} must match [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(unit_ok(unit), "unit {unit:?} of {name}");
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn clock_prefixes_match_exactness() {
        for m in END_TO_END {
            if m.name.starts_with("sim_") {
                assert!(m.exact, "{} is simulated, so it repeats exactly", m.name);
            }
            if m.name.starts_with("host_") && m.name != "host_allocs_per_op" {
                assert!(!m.exact, "{} is a wall-clock reading", m.name);
            }
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        assert_eq!(
            end_to_end(SETUP).map(|m| (m.unit, m.better)),
            Some(("s", Lower))
        );
    }

    /// `BENCHMARK.json` and the runner must not drift apart, in either
    /// direction: same workloads, same end-to-end metrics (with unit,
    /// direction and bound), same per-layer metrics, same command.
    #[test]
    fn benchmark_json_lists_exactly_what_the_runner_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(doc, manifest(), "regenerate it with `-- manifest`");
    }
}
