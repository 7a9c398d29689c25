//! Runs a workload under the noise protocol and turns its repetitions
//! into metrics.
//!
//! Host times are noisy on a shared two-core sandbox (whole-run totals
//! wander by a fifth, and so does the machine's speed from one minute
//! to the next). So the repetitions do bit-identical work on fresh
//! deployments, each cut into the same segments; every segment reading
//! is divided by the machine's speed around it (`calib`), the readings
//! of one segment are combined across repetitions with the burst
//! dropped (`stats::steady`), and a host metric is computed from the
//! sum over segments. Simulated values, allocation counts and the
//! final Q6 revenue must be the same in every repetition, or the run
//! is reported incorrect naming what differed.

use std::sync::Arc;
use std::time::Instant;

use pushtap_trace::{MemSink, Span};

use crate::calib::Speedometer;
use crate::drill;
use crate::json::Value;
use crate::metrics::{self, Source, Workload, END_TO_END, PER_LAYER};
use crate::spans::{HostSpan, Recorder};
use crate::stats;
use crate::workload::{self, share, RepConfig, Repetition, Rung, SegKind};

/// Repetitions a full run makes at least, however slow the machine.
const MIN_REPETITIONS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long to keep repeating, in host seconds.
    pub seconds: f64,
    /// One repetition at one-tenth sizes: a smoke run, not comparable.
    pub quick: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The value's own repetition spread, as a share of the value:
    /// leave-one-repetition-out for filtered host metrics, quartile
    /// spread for set-up; `None` for exact metrics and single
    /// repetitions.
    pub spread: Option<f64>,
}

/// The outcome of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: Workload,
    pub repetitions: usize,
    /// Everything wrong with the run: repetitions that disagreed,
    /// checks that failed. Empty on a correct run.
    pub problems: Vec<String>,
    pub attempted: u64,
    /// Numerator of `failed_share`.
    pub failed: u64,
    /// `failed` without the arrivals the ladder's overload rungs turned
    /// away on purpose: what the driver's result line reports.
    pub failed_unexpectedly: u64,
    /// End-to-end metrics (a plain run) or per-layer metrics (a traced
    /// run), in table order.
    pub metrics: Vec<Metric>,
    pub rungs: Vec<Rung>,
    /// How much slower than the reference machine this one ran, by the
    /// calibration kernel's median (host times are already divided by
    /// the speed around each call; this is for the record).
    pub machine_slowdown: f64,
    /// Raw wall seconds of the timed segments, mean over repetitions.
    pub wall_run_s: f64,
    /// Every segment reading taken, `[repetition][segment]`: raw wall
    /// nanoseconds and the calibration kernel's nanoseconds around it.
    pub readings: Vec<Vec<(u64, f64)>>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Allocation counts may differ between repetitions by this share:
/// whether a `HashMap` rehashes in place or grows depends on where its
/// randomly seeded hashes left tombstones, which moves a handful of
/// allocations in a million. Everything else must repeat exactly.
const ALLOC_TOLERANCE: f64 = 1e-3;

/// One value a repetition must reproduce: name, value, and the share
/// by which it may differ.
type Print = (String, f64, f64);

/// The values a repetition must reproduce, by name.
fn fingerprint(rep: &Repetition, with_allocs: bool) -> Vec<Print> {
    let mut out: Vec<Print> = rep
        .tally
        .end_to_end(&[])
        .into_iter()
        .chain(rep.tally.per_layer())
        .map(|(n, v)| (n.to_string(), v, 0.0))
        .collect();
    out.push(("final Q6 revenue".into(), rep.tally.final_q6 as f64, 0.0));
    for (k, s) in rep.segments.iter().enumerate() {
        out.push((format!("operations of segment {k}"), s.ops as f64, 0.0));
        if with_allocs {
            out.push((
                format!("allocations of segment {k}"),
                s.timed.allocs as f64,
                ALLOC_TOLERANCE,
            ));
        }
    }
    out
}

/// Names the first value in which `b` differs from `a`.
fn first_difference(a: &[Print], b: &[Print]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} values against {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|((_, x, tolerance), (_, y, _))| {
            x.to_bits() != y.to_bits() && (x - y).abs() > tolerance * x.abs()
        })
        .map(|((name, x, _), (_, y, _))| format!("{name}: {x} against {y}"))
}

/// Segment times in reference nanoseconds, `[repetition][segment]`.
fn times_of(reps: &[Repetition]) -> Vec<Vec<f64>> {
    reps.iter()
        .map(|r| r.segments.iter().map(|s| s.timed.reference_ns()).collect())
        .collect()
}

/// Filtered host (reference) seconds, operations and spread of the
/// segments of `kind` (all kinds when `None`).
fn filtered(reps: &[Repetition], kind: Option<SegKind>) -> (f64, u64, Option<f64>) {
    let segments = &reps[0].segments;
    let pick = |k: usize| kind.is_none_or(|want| segments[k].kind == want);
    let times = times_of(reps);
    let ns: f64 = stats::filter(&times)
        .iter()
        .enumerate()
        .filter(|(k, _)| pick(*k))
        .map(|(_, &t)| t)
        .sum();
    let ops = segments
        .iter()
        .enumerate()
        .filter(|(k, _)| pick(*k))
        .map(|(_, s)| s.ops)
        .sum();
    (ns / 1e9, ops, stats::leave_one_out_spread(&times, pick))
}

/// Runs repetitions until `seconds` have passed: another one starts
/// only while at least half of it is expected to fit. The output
/// checks ride on the last one, after its timed part, so that the
/// reference deployments they build never count toward peak memory.
fn repeat(workload: Workload, opts: &Options, speed: &mut Speedometer) -> Vec<Repetition> {
    let started = Instant::now();
    let mut reps: Vec<Repetition> = Vec::new();
    loop {
        let done = reps.len();
        let elapsed = started.elapsed().as_secs_f64();
        let mean = if done == 0 {
            0.0
        } else {
            elapsed / done as f64
        };
        let last =
            opts.quick || (done + 1 >= MIN_REPETITIONS && elapsed + 1.5 * mean >= opts.seconds);
        let cfg = RepConfig {
            seed: opts.seed,
            quick: opts.quick,
            check: last,
            sink: None,
        };
        reps.push(workload::run(
            workload,
            &cfg,
            &mut Recorder::new(false, speed),
        ));
        if last {
            return reps;
        }
    }
}

/// Compares every repetition with the first (allocation counts too, if
/// asked) and collects the checks that failed.
fn problems_of(reps: &[&Repetition], with_allocs: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(first) = reps.first() else {
        return problems;
    };
    let expected = fingerprint(first, with_allocs);
    for (r, rep) in reps.iter().enumerate().skip(1) {
        let got = fingerprint(rep, with_allocs);
        if let Some(diff) = first_difference(&expected, &got) {
            problems.push(format!(
                "repetition {r} differs from repetition 0 in {diff}"
            ));
        }
    }
    for rep in reps {
        for c in rep.checks.iter().filter(|c| !c.passed) {
            problems.push(format!("check failed: {}", c.what));
        }
        if rep.tally.queries_failed > 0 {
            problems.push(format!(
                "{} scatter-gather answers differ from the unpartitioned reference",
                rep.tally.queries_failed
            ));
        }
        let lost = rep
            .tally
            .offered
            .abs_diff(rep.tally.committed + rep.tally.rejected());
        if lost > 0 {
            problems.push(format!(
                "{lost} of {} transactions neither committed nor were turned away",
                rep.tally.offered
            ));
        }
    }
    problems
}

/// A plain run: tracing off, every end-to-end metric of the workload.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    let mut speed = Speedometer::new();
    let reps = repeat(workload, opts, &mut speed);
    let last = reps.last().expect("at least one repetition");
    let mut problems = problems_of(&reps.iter().collect::<Vec<_>>(), true);

    let (txn_s, txn_ops, txn_spread) = filtered(&reps, Some(SegKind::Txn));
    let (query_s, query_ops, query_spread) = filtered(&reps, Some(SegKind::Query));
    let (run_s, _, run_spread) = filtered(&reps, None);
    let allocs: Vec<f64> = reps
        .iter()
        .map(|r| r.segments.iter().map(|s| s.timed.allocs).sum::<u64>() as f64)
        .collect();
    let allocs_range = allocs.iter().fold(0.0f64, |m, &a| m.max(a))
        - allocs.iter().fold(f64::INFINITY, |m, &a| m.min(a));
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_ns / 1e9).collect();
    // After the first repetition: later ones add what the allocator
    // keeps, which would make the figure depend on how many fit.
    let rss_kb = reps[0].rss_hwm_kb;
    let mut values: Vec<(&str, f64, Option<f64>)> = vec![
        (
            metrics::SETUP,
            stats::median(&setups),
            stats::quartile_spread(&setups),
        ),
        ("host_txn_per_s", share(txn_ops as f64, txn_s), txn_spread),
        ("host_run_s", run_s, run_spread),
        (
            "host_query_per_s",
            share(query_ops as f64, query_s),
            query_spread,
        ),
        (
            "host_allocs_per_op",
            share(stats::median(&allocs), (txn_ops + query_ops) as f64),
            Some(share(allocs_range, stats::median(&allocs))),
        ),
        ("peak_rss_mb", rss_kb as f64 / 1024.0, None),
    ];
    // The simulated (and counted) ones repeat exactly: no spread.
    let sim = last.tally.end_to_end(&last.checks);
    values.extend(sim.into_iter().map(|(n, v)| (n, v, None)));
    let metrics = END_TO_END
        .iter()
        .filter(|m| m.workloads.contains(&workload))
        .map(|m| {
            let (_, value, spread) = values
                .iter()
                .find(|(n, ..)| *n == m.name)
                .unwrap_or_else(|| panic!("no value computed for {}", m.name));
            Metric {
                name: m.name,
                unit: m.unit,
                value: *value,
                spread: *spread,
            }
        })
        .collect();
    // A percentile is quoted only with at least ten samples beyond it.
    // The sizes are constants chosen to give them; a smoke run is
    // exempt (and stamped not comparable).
    for (name, samples, permille) in [
        (
            "sim_commit_p99_us",
            last.tally.oltp.commit_latency.count(),
            990,
        ),
        (
            "sim_query_p90_us",
            last.tally.query_totals.len() as u64,
            900,
        ),
        (
            "sim_sojourn_p99_us",
            last.tally.reference_rung().map_or(0, |r| r.admitted),
            990,
        ),
    ] {
        let declared = metrics::end_to_end(name).is_some_and(|m| m.workloads.contains(&workload));
        if declared && !opts.quick && !stats::supports_permille(samples, permille) {
            problems.push(format!(
                "{name} is quoted from {samples} samples, fewer than ten beyond it"
            ));
        }
    }
    outcome(workload, reps.len(), problems, metrics, last, &reps, &speed)
}

/// Assembles an outcome: counts and ladder from the repetition that
/// carried the checks, raw readings from the untraced repetitions.
fn outcome(
    workload: Workload,
    repetitions: usize,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    checked: &Repetition,
    untraced: &[Repetition],
    speed: &Speedometer,
) -> Outcome {
    let (attempted, failed) = checked.tally.attempted_failed(&checked.checks);
    let readings: Vec<Vec<(u64, f64)>> = untraced
        .iter()
        .map(|r| {
            r.segments
                .iter()
                .map(|s| (s.timed.ns, s.timed.kernel_ns))
                .collect()
        })
        .collect();
    let wall_ns: u64 = readings.iter().flatten().map(|(ns, _)| ns).sum();
    Outcome {
        workload,
        repetitions,
        problems,
        attempted,
        failed,
        failed_unexpectedly: failed - checked.tally.overload_rejections(),
        metrics,
        rungs: checked.tally.rungs.clone(),
        machine_slowdown: speed.slowdown(),
        wall_run_s: share(wall_ns as f64 / 1e9, untraced.len() as f64),
        readings,
    }
}

/// What a traced run leaves besides its metrics.
#[derive(Debug)]
pub struct Traced {
    pub outcome: Outcome,
    /// Host spans of the last traced repetition.
    pub host_spans: Vec<HostSpan>,
    /// Simulated-clock lifecycle spans of the same repetition.
    pub sim_spans: Vec<Span>,
    /// Everything the drill measured, the `stage.*` parts included.
    pub drilled: Vec<(&'static str, f64)>,
}

/// Share of a traced run's `--seconds` spent on repetitions.
const TRACING_SHARE: f64 = 0.5;

/// A traced run: pairs of one untraced and one traced repetition (the
/// traced one with the benchmark's host spans kept and a `MemSink`
/// attached through the public `set_trace_sink`), then the layer
/// drill. Yields every per-layer metric; end-to-end metrics are never
/// taken from here.
pub fn trace(workload: Workload, opts: &Options) -> Traced {
    let started = Instant::now();
    let mut speed = Speedometer::new();
    let mut plain: Vec<Repetition> = Vec::new();
    let mut traced: Vec<Repetition> = Vec::new();
    let (host_spans, sim_spans) = loop {
        let cfg = RepConfig {
            seed: opts.seed,
            quick: opts.quick,
            check: false,
            sink: None,
        };
        let before = started.elapsed().as_secs_f64();
        plain.push(workload::run(
            workload,
            &cfg,
            &mut Recorder::new(false, &mut speed),
        ));
        // Tracing gets about half of the time (the drill needs the
        // rest): this pair is the last unless half of another one fits.
        let now = started.elapsed().as_secs_f64();
        let last = opts.quick || now + 2.0 * (now - before) >= TRACING_SHARE * opts.seconds;
        let sink = Arc::new(MemSink::new());
        let cfg = RepConfig {
            check: last,
            sink: Some(Arc::clone(&sink)),
            ..cfg
        };
        let mut rec = Recorder::new(true, &mut speed);
        let repetition = rec.open_group("repetition", traced.len() as u32);
        traced.push(workload::run(workload, &cfg, &mut rec));
        rec.close(repetition);
        if last {
            break (rec.spans().to_vec(), sink.take());
        }
    };
    // Untraced repetitions must agree on allocations too; a traced one
    // allocates for its spans, so only its simulated values are held
    // against the first untraced repetition.
    let mut problems = problems_of(&plain.iter().collect::<Vec<_>>(), true);
    let against_first: Vec<&Repetition> = std::iter::once(&plain[0]).chain(&traced).collect();
    problems.extend(
        problems_of(&against_first, false)
            .into_iter()
            .map(|p| format!("traced run: {p}")),
    );

    let (plain_s, ..) = filtered(&plain, None);
    let (traced_s, ..) = filtered(&traced, None);
    let (_, txn_ops, _) = filtered(&plain, Some(SegKind::Txn));
    let (_, query_ops, _) = filtered(&plain, Some(SegKind::Query));
    let allocs_of = |kind: SegKind| -> u64 {
        plain[0]
            .segments
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.timed.allocs)
            .sum()
    };
    let last = traced.last().expect("at least one pair");
    let mut values: Vec<(&str, f64)> = last.tally.per_layer();
    values.push((
        "oltp.allocs_per_txn",
        share(allocs_of(SegKind::Txn) as f64, txn_ops as f64),
    ));
    values.push((
        "olap.allocs_per_query",
        share(allocs_of(SegKind::Query) as f64, query_ops as f64),
    ));
    values.push((
        "trace.sink_overhead_share",
        share(traced_s - plain_s, plain_s),
    ));
    let drilled = drill::run(opts.seed, opts.quick, &mut speed);
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.source {
                Source::Drill => drilled.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v),
                Source::Workload => values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value: value.unwrap_or_else(|| panic!("no value computed for {}", m.name)),
                spread: None,
            }
        })
        .collect();
    let repetitions = plain.len() + traced.len();
    Traced {
        outcome: outcome(
            workload,
            repetitions,
            problems,
            metrics,
            last,
            &plain,
            &speed,
        ),
        host_spans,
        sim_spans,
        drilled,
    }
}

impl Outcome {
    /// The one-line result the driver reads: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, the metrics being
    /// those `BENCHMARK.json` lists.
    pub fn driver_line(&self, traced: bool) -> String {
        let listed = |name: &str| {
            if traced {
                PER_LAYER.iter().any(|m| m.driver && m.name == name)
            } else {
                metrics::driver_end_to_end().any(|m| m.name == name)
            }
        };
        Value::obj([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed_unexpectedly)),
            (
                "metrics",
                Value::obj(self.metrics.iter().filter(|m| listed(m.name)).map(|m| {
                    (
                        m.name,
                        Value::obj([
                            ("value", Value::from(m.value)),
                            ("unit", Value::str(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .compact()
    }

    /// The full record `run.json` / `layers.json` keep of this
    /// workload.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("repetitions", Value::from(self.repetitions as u64)),
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("failed_unexpectedly", Value::from(self.failed_unexpectedly)),
            ("machine_slowdown", Value::from(self.machine_slowdown)),
            ("wall_run_s", Value::from(self.wall_run_s)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    let mut fields = vec![
                        ("value", Value::from(m.value)),
                        ("unit", Value::str(m.unit)),
                    ];
                    if let Some(s) = m.spread {
                        fields.push(("spread", Value::from(s)));
                    }
                    (m.name, Value::obj(fields))
                })),
            ),
            (
                "ladder",
                Value::Arr(
                    self.rungs
                        .iter()
                        .map(|r| {
                            Value::obj([
                                ("rate_tps", Value::from(r.rate_tps)),
                                ("arrivals", Value::from(r.arrivals)),
                                ("admitted", Value::from(r.admitted)),
                                ("rejected", Value::from(r.rejected)),
                                ("sojourn_p50_us", Value::from(r.sojourn_p50 as f64 / 1e6)),
                                ("sojourn_p99_us", Value::from(r.sojourn_p99 as f64 / 1e6)),
                                ("goodput_tps", Value::from(r.goodput_tps)),
                                ("meets_slo", Value::from(r.meets_slo())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "segment_readings_wall_ns_kernel_ns",
                Value::Arr(
                    self.readings
                        .iter()
                        .map(|rep| {
                            Value::Arr(
                                rep.iter()
                                    .map(|&(ns, kernel)| {
                                        Value::Arr(vec![Value::from(ns), Value::from(kernel)])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Every workload, at smoke size: the run is correct, every metric
    /// the table declares for the workload gets a value, and the
    /// driver's line carries exactly the keys and metrics its contract
    /// names.
    #[test]
    fn quick_runs_emit_every_declared_metric() {
        let opts = Options {
            seed: 7,
            seconds: 1.0,
            quick: true,
        };
        for w in Workload::ALL {
            let o = run(w, &opts);
            assert!(o.correct(), "{}: {:?}", w.name(), o.problems);
            assert_eq!(o.repetitions, 1);
            let declared: Vec<&str> = END_TO_END
                .iter()
                .filter(|m| m.workloads.contains(&w))
                .map(|m| m.name)
                .collect();
            let emitted: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
            assert_eq!(emitted, declared, "{}", w.name());
            assert!(o.metrics.iter().all(|m| m.value.is_finite()));

            let line = json::parse(&o.driver_line(false)).expect("the driver's line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let listed: Vec<&str> = line
                .get("metrics")
                .and_then(json::Value::as_obj)
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let expected: Vec<&str> = metrics::driver_end_to_end().map(|m| m.name).collect();
            assert_eq!(listed, expected, "{}", w.name());
            for (name, m) in line
                .get("metrics")
                .and_then(json::Value::as_obj)
                .unwrap_or(&[])
            {
                let v = m.get("value").and_then(json::Value::as_f64);
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{name} must never read 0: {v:?}"
                );
            }
            assert!(line.get("attempted").and_then(json::Value::as_f64) >= Some(1.0));
            assert_eq!(line.get("failed").and_then(json::Value::as_f64), Some(0.0));
        }
    }

    #[test]
    fn a_repetition_that_differs_is_named() {
        let rep = |q6: u64, allocs: u64| {
            let mut r = Repetition::default();
            r.tally.final_q6 = q6;
            r.segments.push(workload::Segment {
                kind: SegKind::Txn,
                ops: 10,
                timed: crate::spans::Timed {
                    ns: 1,
                    allocs,
                    kernel_ns: 1.0,
                },
            });
            r
        };
        let (a, same, jitter, other) = (
            rep(5, 1_000_000),
            rep(5, 1_000_000),
            rep(5, 1_000_003),
            rep(6, 1_000_000),
        );
        assert!(problems_of(&[&a, &same, &jitter], true).is_empty());
        let p = problems_of(&[&a, &same, &other], true);
        assert_eq!(p.len(), 1);
        assert!(
            p[0].contains("repetition 2") && p[0].contains("final Q6 revenue"),
            "{p:?}"
        );
        // A thousandth more allocations is beyond the hashing jitter.
        let p = problems_of(&[&a, &rep(5, 1_002_000)], true);
        assert!(p[0].contains("allocations of segment 0"), "{p:?}");
        assert!(problems_of(&[&a, &rep(5, 1_002_000)], false).is_empty());
    }
}
