//! The repository's benchmark: four HTAP workloads measured on two
//! clocks — simulated picoseconds of the modelled PIM hardware
//! (`sim_*`, deterministic) and the wall clock of this Rust process
//! (`host_*`, noise-filtered) — with a layer drill timed from outside.
//! See `README.md` beside this package.
//!
//! ```text
//! pushtap-benchmark run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! pushtap-benchmark trace   [--workload W] [--seed N] [--seconds S] [--quick]
//! pushtap-benchmark compare A.json B.json
//! pushtap-benchmark manifest
//! ```
//!
//! It links the engine crates as libraries and calls only their public
//! items; wall-clock reads and the counting allocator's `unsafe` live
//! here so that the simulation crates stay free of both.

mod alloc;
mod calib;
mod compare;
mod drill;
mod json;
mod metrics;
mod runner;
mod spans;
mod stats;
mod workload;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use metrics::Workload;
use runner::{Options, Outcome, Traced};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where result files go: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug)]
struct RunArgs {
    workload: Option<Workload>,
    options: Options,
    traced: bool,
}

fn parse_run_args(args: &[String], traced: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        options: Options {
            seed: 42,
            seconds: metrics::RUN_SECONDS as f64,
            quick: false,
        },
        traced,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                parsed.options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                parsed.options.seconds = s;
            }
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => parsed.options.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The document `run.json` / `layers.json` hold.
fn document(kind: &str, opts: &Options, workloads: Vec<(String, Value)>) -> Value {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("benchmark", Value::str("pushtap-benchmark")),
        ("kind", Value::str(kind)),
        // A quick run is a smoke run: one repetition, one-tenth sizes.
        ("comparable", Value::from(!opts.quick)),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("host_cpus", Value::from(cpus as u64)),
        ("workloads", Value::Obj(workloads)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_outcome(o: &Outcome, opts: &Options) {
    println!(
        "{}  seed {}  {} repetitions  {}",
        o.workload.name(),
        opts.seed,
        o.repetitions,
        if o.correct() { "correct" } else { "INCORRECT" }
    );
    for m in &o.metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!("  (own spread {:.1}%)", s * 100.0)
        });
        println!("  {:<46} {:>16.6} {:<10}{spread}", m.name, m.value, m.unit);
    }
    for r in &o.rungs {
        println!(
            "  rung {:>7.0}/s: admitted {:>5} rejected {:>4}  sojourn p50 {:>9.2} us  p99 {:>9.2} us  \
             goodput {:>7.0}/s  {}",
            r.rate_tps,
            r.admitted,
            r.rejected,
            r.sojourn_p50 as f64 / 1e6,
            r.sojourn_p99 as f64 / 1e6,
            r.goodput_tps,
            if r.meets_slo() { "meets SLO" } else { "misses SLO" }
        );
    }
    println!(
        "  attempted {}  failed {} ({} beyond the ladder's overload rejections)",
        o.attempted, o.failed, o.failed_unexpectedly
    );
    for p in &o.problems {
        println!("  PROBLEM: {p}");
    }
}

/// Simulated spans one Chrome trace holds at most (the earliest ones).
/// A repetition emits several per transaction, but
/// `pushtap_trace::chrome::validate` — which every trace written here
/// must pass — re-checks the rest of the document for each character
/// of each string, so its time grows with the square of the document:
/// 10 s for 10 000 spans. 2 000 spans validate in half a second.
const MAX_SIM_SPANS: usize = 2_000;

/// One Chrome-trace document: the host track spliced in front of the
/// simulated tracks `pushtap_trace::chrome::render` produced.
fn splice_host_track(host_events: &[String], rendered_sim: &str) -> String {
    let (head, tail) = rendered_sim
        .split_once("[\n")
        .expect("a rendered trace opens its event array");
    let sim_is_empty = tail.trim_start().starts_with(']');
    let mut doc = String::with_capacity(rendered_sim.len() + host_events.len() * 128);
    doc.push_str(head);
    doc.push_str("[\n");
    doc.push_str(&host_events.join(",\n"));
    if !sim_is_empty && !host_events.is_empty() {
        doc.push_str(",\n");
    }
    doc.push_str(tail);
    doc
}

/// Writes the traced run's files and returns its `layers.json` entry.
fn write_trace(t: &mut Traced) -> Result<Value, String> {
    let name = t.outcome.workload.name();
    t.sim_spans.sort_by_key(|s| (s.start, s.end));
    let kept = t.sim_spans.len().min(MAX_SIM_SPANS);
    let doc = splice_host_track(
        &spans::chrome_events(&t.host_spans),
        &pushtap_trace::chrome::render(&t.sim_spans[..kept]),
    );
    let file = format!("trace.{name}.json");
    write_file(&out_dir().join(&file), &doc)?;
    match pushtap_trace::chrome::validate(&doc) {
        Ok(stats) => println!(
            "  {file}: {} events on {} tracks validate",
            stats.events, stats.tracks
        ),
        Err(e) => t
            .outcome
            .problems
            .push(format!("{file} is not a valid Chrome trace: {e}")),
    }
    let Value::Obj(mut entry) = t.outcome.to_json() else {
        unreachable!("an outcome renders as an object");
    };
    let ms = |ns: u64| Value::from(ns as f64 / 1e6);
    entry.push((
        "host_spans".into(),
        Value::obj(
            spans::totals_by_name(&t.host_spans)
                .into_iter()
                .map(|(n, s)| {
                    (
                        n,
                        Value::obj([
                            ("calls", Value::from(s.calls)),
                            ("total_ms", ms(s.total_ns)),
                            ("self_ms", ms(s.self_ns)),
                        ]),
                    )
                }),
        ),
    ));
    entry.push((
        "run_txns_stages".into(),
        Value::obj(
            t.drilled
                .iter()
                .filter(|(n, _)| {
                    drill::STAGES.contains(n)
                        || *n == "shard.coordinator.residual.host_us_per_txn"
                        || *n == "shard.service.run_txns.host_us_per_txn"
                })
                .map(|(n, v)| (*n, Value::from(*v))),
        ),
    ));
    entry.push(("chrome_trace".into(), Value::str(file)));
    entry.push(("sim_spans".into(), Value::from(t.sim_spans.len() as u64)));
    entry.push(("sim_spans_in_trace".into(), Value::from(kept as u64)));
    Ok(Value::Obj(entry))
}

/// Runs one workload in this process and prints the driver's result
/// line last.
fn run_one(workload: Workload, args: &RunArgs) -> Result<bool, String> {
    let opts = &args.options;
    let (kind, outcome, entry) = if args.traced {
        let mut t = runner::trace(workload, opts);
        let entry = write_trace(&mut t)?;
        ("layers", t.outcome, entry)
    } else {
        let o = runner::run(workload, opts);
        let entry = o.to_json();
        ("run", o, entry)
    };
    print_outcome(&outcome, opts);
    let doc = document(kind, opts, vec![(workload.name().to_string(), entry)]);
    let path = out_dir().join(format!("{kind}.{}.json", workload.name()));
    write_file(&path, &doc.pretty())?;
    println!("  wrote {}", path.display());
    // The result line says whether the run was correct; the exit code
    // says a result was produced.
    println!("{}", outcome.driver_line(args.traced));
    Ok(true)
}

/// Runs every workload, each in a child process of its own (so that
/// peak memory and the allocator's state are the workload's alone),
/// and merges their files.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let opts = &args.options;
    let kind = if args.traced { "layers" } else { "run" };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut merged = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if opts.quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("the {} child ended with {status}", w.name()));
        }
        let path = out_dir().join(format!("{kind}.{}.json", w.name()));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let entry = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .ok_or_else(|| format!("{} holds no {} entry", path.display(), w.name()))?;
        all_correct &= entry.get("correct").and_then(Value::as_bool) == Some(true);
        merged.push((w.name().to_string(), entry.clone()));
    }
    let path = out_dir().join(format!("{kind}.json"));
    write_file(&path, &document(kind, opts, merged).pretty())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("expected a command: run, trace, compare or manifest")?;
    match command.as_str() {
        "run" | "trace" => {
            let parsed = parse_run_args(rest, command == "trace")?;
            match parsed.workload {
                Some(w) => run_one(w, &parsed),
                None => run_all(&parsed),
            }
        }
        "compare" => match rest {
            [a, b] => Ok(!compare::compare(&load(a)?, &load(b)?)?),
            _ => Err("compare takes two run.json files".into()),
        },
        "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pushtap-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_trace::{chrome, Phase, Span};

    #[test]
    fn host_track_splices_into_empty_and_populated_traces() {
        let mut speed = calib::Speedometer::new();
        let mut rec = spans::Recorder::new(true, &mut speed);
        let open = rec.open("run_txns", 0);
        rec.close(open);
        let host = spans::chrome_events(rec.spans());
        let sim = [
            Span::new(0, Phase::Prepare, 1, 0, 1_000_000),
            Span::instant(1, Phase::Commit, 1, 1_000_000),
        ];
        for spans in [&sim[..], &[]] {
            let doc = splice_host_track(&host, &chrome::render(spans));
            let stats = chrome::validate(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
            assert_eq!(stats.complete, 1 + spans.len() as u64 / 2);
        }
    }

    #[test]
    fn run_arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload shard_open --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_run_args(&args, false).expect("parses");
        assert_eq!(parsed.workload, Some(Workload::ShardOpen));
        assert_eq!((parsed.options.seed, parsed.options.seconds), (7, 3.0));
        assert!(parsed.traced && !parsed.options.quick);
        assert!(parse_run_args(&["--workload".into(), "nope".into()], false).is_err());
        assert!(parse_run_args(&["--seconds".into(), "-1".into()], false).is_err());
        assert!(parse_run_args(&["--seed".into()], false).is_err());
    }
}
