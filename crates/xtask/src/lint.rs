//! Repo-invariant lint (`cargo run -p xtask -- lint`).
//!
//! Every invariant the compiler cannot hold is one row of [`ROWS`]: the
//! paths it scans, whether code inside `#[cfg(test)]` items is exempt,
//! what breaks it, a sample line that does, and why it holds. The tests
//! plant each row's sample in a temporary tree and see the row fire.
//!
//! The pass is lexical and line-oriented, like `grep`. In `.rs` files,
//! string and char literals are blanked (offsets kept), so the table can
//! name its own patterns; comments still count. Other files are matched
//! as raw text.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One repo invariant.
struct Row {
    name: &'static str,
    /// Workspace-relative files or directories (scanned recursively).
    /// `*` stands for every subdirectory; a leading `!` excludes a prefix.
    paths: &'static [&'static str],
    /// Whether code inside `#[cfg(test)]` items is exempt. A non-test row
    /// scans `.rs` files only; a row over all code scans every file.
    non_test: bool,
    check: Check,
    /// A line that breaks the row; the tests plant it.
    #[cfg_attr(not(test), allow(dead_code))]
    sample: &'static str,
    /// The invariant the row holds.
    why: &'static str,
}

/// What breaks a row in one scanned file.
enum Check {
    /// Any of these literals.
    Any(&'static [&'static str]),
    /// Any of these literals, unless the predicate allows the hit at
    /// that offset.
    AnyUnless(&'static [&'static str], fn(&Scanned, usize, &str) -> bool),
    /// The offsets the predicate returns (given the workspace root).
    File(fn(&Path, &Scanned) -> Vec<usize>),
    /// The file's existence.
    Absent,
}

use Check::{Absent, Any, AnyUnless, File};

/// Simulation code: everything that runs on the `Ps` clocks.
const SIMULATION: &[&str] = &["src", "examples", "crates/*/src", "!crates/xtask"];

/// The workspace's repo invariants.
const ROWS: &[Row] = &[
    Row {
        name: "determinism",
        paths: SIMULATION,
        non_test: false,
        check: Any(&["Instant::now", "SystemTime::now"]),
        sample: "let t = std::time::Instant::now();",
        why: "Simulated time comes from `Ps` clocks only, so a wall-clock read \
              in a simulation crate is a reproducibility bug.",
    },
    Row {
        name: "no-unwrap-in-shard",
        paths: &["crates/shard/src"],
        non_test: true,
        check: Any(&[".unwrap()", ".expect("]),
        sample: "let x = Some(1).unwrap();",
        why: "The coordinator's failures are explicit: a panic carries typed \
              context, never a generic `Option`/`Result` blowup.",
    },
    Row {
        name: "forbid-unsafe",
        paths: &["src/lib.rs", "crates/*/src", "vendor/*/src"],
        non_test: false,
        check: File(lacks_forbid_unsafe),
        sample: "#![deny(unsafe_code)]",
        why: "Every crate root, vendored shims included, forbids `unsafe` code.",
    },
    Row {
        name: "no-host-threads",
        paths: SIMULATION,
        non_test: true,
        check: Any(&["thread::scope", "thread::spawn", "std::thread"]),
        sample: "std::thread::spawn(|| ());",
        why: "Shards are concurrent on their `Ps` clocks only, and one host \
              thread keeps a run deterministic down to its emission order.",
    },
    Row {
        name: "phase-coverage",
        paths: &["crates/trace/src/span.rs"],
        non_test: false,
        check: File(unreconciled_phases),
        sample: "pub enum Phase { Unreconciled }",
        why: "`crates/shard/tests/trace_reconcile.rs` names every `Phase` \
              variant, or a new phase ships unverified.",
    },
    Row {
        name: "undo-log-keeps-no-row",
        paths: &["crates/mvcc/src"],
        non_test: false,
        check: Any(&["Vec<Vec<u8>>"]),
        sample: "undo: Vec<Vec<u8>>,",
        why: "The write path materialises no row: the undo log keeps no row bytes.",
    },
    Row {
        name: "read-row-only-in-value-reads",
        paths: &[
            "crates/oltp/src",
            "crates/core/src",
            "crates/shard/src",
            "crates/olap/src",
        ],
        non_test: false,
        check: AnyUnless(&["read_row("], in_a_value_read),
        sample: "fn scan(t: &Table) { t.read_row(0); }",
        why: "The engine crates gather a whole row only in `HtapTable::timed_read` \
              and `HtapTable::snapshot_read`, the two functions whose caller \
              asked for the values.",
    },
    Row {
        name: "no-row-value-lists",
        paths: &[
            "crates/oltp/src/effects.rs",
            "crates/oltp/src/codec.rs",
            "crates/oltp/src/tpcc.rs",
            "crates/shard/src",
        ],
        non_test: true,
        check: AnyUnless(&["Vec<Vec<u8>>"], the_shards_image),
        sample: "pub rows: Vec<Vec<u8>>,",
        why: "An effect, its codec, the executor and the shard layer hold no \
              value list per row; `WalBytes::shards`, one log image per shard, \
              is not a row.",
    },
    Row {
        name: "no-per-process-seed",
        paths: &["crates/*/src"],
        non_test: true,
        check: Any(&["HashMap::new()", "RandomState"]),
        sample: "let seen = HashMap::new();",
        why: "A run repeats exactly: no map is seeded per process.",
    },
    Row {
        name: "chain-keeps-no-map",
        paths: &["crates/mvcc/src/chain.rs"],
        non_test: true,
        check: Any(&["HashMap", "HashSet", "BTreeMap"]),
        sample: "versions: HashMap<u64, u32>,",
        why: "Row metadata is arrays indexed by the integers the engine hands \
              out: the version chains keep no map or set.",
    },
    Row {
        name: "index-keeps-no-bucket-vec",
        paths: &["crates/oltp/src/index.rs"],
        non_test: true,
        check: Any(&["Vec<Vec<"]),
        sample: "buckets: Vec<Vec<u32>>,",
        why: "Row metadata is arrays indexed by the integers the engine hands \
              out: the hash index keeps no `Vec` per bucket.",
    },
    Row {
        name: "undo-and-coordinator-keep-no-map",
        paths: &["crates/mvcc/src/undo.rs", "crates/shard/src/coordinator/mod.rs"],
        non_test: true,
        check: Any(&["BTreeMap"]),
        sample: "held: BTreeMap<u64, u32>,",
        why: "What an undecided transaction holds is a range of one list: the \
              undo log and the wave coordinator keep no map.",
    },
    Row {
        name: "wave-keeps-no-list-per-shard",
        paths: &["crates/shard/src/coordinator/mod.rs"],
        non_test: true,
        check: Any(&["Vec<Vec<"]),
        sample: "per_shard: Vec<Vec<u32>>,",
        why: "What an undecided transaction holds is a range of one list: a \
              wave keeps no list per shard.",
    },
    Row {
        name: "table-knows-no-undo-log",
        paths: &["crates/oltp/src/table.rs"],
        non_test: true,
        check: Any(&["UndoLog", "begin_txn", "txn_cursor_log"]),
        sample: "undo: UndoLog,",
        why: "A table knows nothing of the undo log or of transaction scopes.",
    },
    Row {
        name: "coordinator-argument-limit",
        paths: &["crates/shard/src/coordinator"],
        non_test: true,
        check: Any(&["too_many_arguments"]),
        sample: "#[allow(clippy::too_many_arguments)]",
        why: "No coordinator function takes more arguments than clippy allows.",
    },
    Row {
        name: "one-timestamp-source",
        paths: &["crates/mvcc/src"],
        non_test: true,
        check: Any(&["TsAllocator", "fn rollback"]),
        sample: "pub struct TsAllocator;",
        why: "One timestamp source per engine, and no way to hand a timestamp back.",
    },
    Row {
        name: "chain-keeps-no-prepared-mark",
        paths: &["crates/mvcc/src/chain.rs"],
        non_test: true,
        check: Any(&["mark_prepared", "prepared_count", "pending:"]),
        sample: "pending: Vec<u32>,",
        why: "The version chains keep no prepared mark or pending list: the \
              engine's undo log alone knows an undecided write.",
    },
    Row {
        name: "table-keeps-no-prepared-mark",
        paths: &["crates/oltp/src/table.rs"],
        non_test: true,
        check: Any(&["mark_prepared", "prepared_versions"]),
        sample: "pub fn mark_prepared(&mut self) {}",
        why: "The table keeps no prepared mark: the engine's undo log alone \
              knows an undecided write.",
    },
    Row {
        name: "one-htap-driver",
        paths: &["crates/core/src/mixed.rs"],
        non_test: false,
        check: Absent,
        sample: "pub fn run_mixed() {}",
        why: "There is no second HTAP driver beside the engine.",
    },
    Row {
        name: "report-sums-only-in-merged",
        paths: &["crates/shard/src/report.rs"],
        non_test: true,
        check: Any(&[
            "pub fn aborts(",
            "pub fn wal_forces(",
            "pub fn two_pc_time(",
            "pub fn critical_path_time(",
            "pub fn commit_latency(",
            "pub fn two_pc_stall(",
        ]),
        sample: "pub fn aborts(&self) -> u64 { 0 }",
        why: "Each report fact is kept once: the sharded report has no summing \
              accessor beside `ShardOltpReport::merged`.",
    },
    Row {
        name: "no-per-shard-two-pc-stall",
        paths: &["crates/shard/src"],
        non_test: true,
        check: Any(&["remote_time"]),
        sample: "pub remote_time: u64,",
        why: "Each report fact is kept once: no per-shard copy of the 2PC stall.",
    },
    Row {
        name: "shard-load-two-fields",
        paths: &["crates/shard/src/report.rs"],
        non_test: false,
        check: File(shard_load_over_two_fields),
        sample: "pub struct ShardLoad {\n    pub report: u8,\n    pub elapsed: u8,\n    pub extra: u8,\n}",
        why: "Each report fact is kept once: a `ShardLoad` has two fields, \
              `report` and `elapsed`.",
    },
    Row {
        name: "engine-counts-itself",
        paths: &["crates/core/src", "crates/shard/src"],
        non_test: true,
        check: Any(&["wasted_retry_time()", ".aborts()", "MaintPause"]),
        sample: "let before = shard.db().wasted_retry_time();",
        why: "Each report fact is kept once: the executor reports what an \
              attempt or a rollback took, `Pushtap` tallies its own \
              transaction time, aborts, wasted time and pauses, and the \
              shard layer drains them with `Pushtap::take_report`; no layer \
              takes before/after deltas of a lower layer's counters.",
    },
    Row {
        name: "no-counter-restating-a-histogram",
        paths: &["crates/core/src", "crates/shard/src"],
        non_test: true,
        check: Any(&["defrag_passes", "commit_rounds"]),
        sample: "pub defrag_passes: u64,",
        why: "Each report fact is kept once: no counter restates a histogram.",
    },
    Row {
        name: "table-knows-no-sanitizer",
        paths: &["crates/oltp/src/table.rs"],
        non_test: true,
        check: Any(&["pushtap_sanitizer", "ShadowSanitizer"]),
        sample: "use pushtap_sanitizer::ShadowSanitizer;",
        why: "One instrumentation seam per engine, its `Probe`: the table knows \
              nothing of the sanitizer.",
    },
    Row {
        name: "core-has-no-probe-surface",
        paths: &["crates/core/src"],
        non_test: false,
        check: Any(&[
            "fn trace_enabled",
            "fn trace_track",
            "fn trace_record",
            "fn set_sanitizer",
        ]),
        sample: "pub fn trace_enabled(&self) -> bool { true }",
        why: "One instrumentation seam per engine, its `Probe`: core grows no \
              span or sanitizer surface of its own.",
    },
    Row {
        name: "no-restated-pins-or-durability",
        paths: &["crates/*/src"],
        non_test: false,
        check: Any(&["register_pin", "release_pin", "DurabilityCtx"]),
        sample: "pub fn register_pin(&mut self) {}",
        why: "One instrumentation seam per engine: nothing restates the \
              oracle's pins or the deployment's durability state.",
    },
    Row {
        name: "sanitizer-is-one-type",
        paths: &["crates", "src", "examples", "tests", ".github"],
        non_test: false,
        check: Any(&["AccessSink", "NullSanitizer", "PUSHTAP_SANITIZE"]),
        sample: "pub trait AccessSink {}",
        why: "The sanitizer is one type the tests always arm: no sink trait, \
              no null object, no environment switch.",
    },
    Row {
        name: "no-state-outliving-the-engine",
        paths: &[
            "crates/pim/src",
            "crates/format/src",
            "crates/mvcc/src",
            "crates/oltp/src",
            "crates/core/src",
            "crates/olap/src",
            "crates/wal/src",
            "crates/shard/src",
        ],
        non_test: true,
        check: AnyUnless(
            &["static", "thread_local!", "OnceLock", "LazyLock"],
            not_a_static_item,
        ),
        sample: "static COUNTER: u32 = 0;",
        why: "A run repeats exactly: nothing in a simulation crate outlives \
              the engine that built it.",
    },
    Row {
        name: "effect-writes-inline",
        paths: &["crates/oltp/src"],
        non_test: true,
        check: Any(&["writes: Vec<(u32", "image: Vec<u8>"]),
        sample: "writes: Vec<(u32, u64)>,",
        why: "A transaction is described without the allocator: an effect keeps \
              its update writes and its insert image inline.",
    },
    Row {
        name: "neworder-lines-inline",
        paths: &["crates/chbench/src/txgen.rs"],
        non_test: false,
        check: Any(&["items: Vec", "stock_rows: Vec"]),
        sample: "items: Vec<u32>,",
        why: "A transaction is described without the allocator: a NewOrder \
              keeps its lines inline.",
    },
    Row {
        name: "one-gc-fold",
        paths: &["crates/*/src", "src", "examples"],
        non_test: true,
        check: Any(&[
            "chain_slots",
            "clear_after_defrag",
            "reset_after_defrag",
            "DefragStats",
        ]),
        sample: "pub struct DefragStats;",
        why: "Defragmentation is the GC fold at the watermark: no second fold's \
              helpers or stats type.",
    },
    Row {
        name: "wal-keeps-no-record-buffer",
        paths: &["crates/wal/src"],
        non_test: true,
        check: Any(&["Vec<Vec<u8>>"]),
        sample: "records: Vec<Vec<u8>>,",
        why: "The durability path allocates per log, not per record: a scan \
              lends slices of the log's image.",
    },
    Row {
        name: "shard-encodes-into-the-log",
        paths: &["crates/shard/src"],
        non_test: true,
        check: Any(&["encode_parts("]),
        sample: "let payload = codec.encode_parts(&effect);",
        why: "The durability path allocates per log, not per record: the shard \
              layer encodes straight into the log's buffer \
              (`encode_parts_into`).",
    },
    Row {
        name: "service-decomposes-in-place",
        paths: &["crates/shard/src", "crates/core/src"],
        non_test: true,
        check: Any(&[".decompose(", ".keyset("]),
        sample: "routed.keys = db.keyset(&routed.txn, routed.ts);",
        why: "The sharded transaction path allocates at most once per \
              transaction: the service decomposes each admission into the \
              effect list it keeps (`decompose_into`) and derives the keyset \
              from it, never through the owned `TpccDb::decompose` or \
              `TpccDb::keyset`.",
    },
    Row {
        name: "one-striped-shuffle",
        paths: &[
            "crates/olap/src",
            "crates/core/src",
            "crates/shard/src",
            "crates/oltp/src",
        ],
        non_test: true,
        check: Any(&["BankAddr::new(", "shard_of(0)"]),
        sample: "let bank = BankAddr::new(0, 0);",
        why: "The CPU reaches memory through its interleaved address map: its \
              PIM-to-PIM traffic (§6.3) is one shuffle striped over every \
              channel, `MemSystem::pim_transfer`, and its other streams are \
              striped too, so no code names a fixed bank.",
    },
    Row {
        name: "one-commit-barrier",
        paths: &["crates/oltp/src/table.rs"],
        non_test: true,
        check: Any(&["commit_barrier("]),
        sample: "b.compute += meter.commit_barrier();",
        why: "A transaction's writes leave the CPU in one clflush train at its \
              force phase, behind one commit barrier (§6.3): a table operation \
              charges no barrier of its own.",
    },
    Row {
        name: "one-read-fetch",
        paths: &["crates/oltp/src/table.rs"],
        non_test: true,
        check: AnyUnless(&["Op::Read"], in_a_read_stream),
        sample: "let (end, n) = self.issue_lines(mem, slot, Op::Read, at);",
        why: "A transaction fetches its read set up front: a row version's \
              lines are read only by `HtapTable::fetch`, and the snapshot \
              update's metadata stream is the table's one other read.",
    },
    Row {
        name: "one-query-price",
        paths: &["crates/olap/src", "crates/core/src", "!crates/olap/src/query.rs"],
        non_test: true,
        check: Any(&["pim_transfer(", "hash_partition_time("]),
        sample: "let end = mem.pim_transfer(bytes, now);",
        why: "Every query runs on one step sequence, `QuerySteps` in \
              `olap/src/query.rs`: its shuffles, bucket partitions and gathers \
              (§6.3) are priced there once, and nowhere else.",
    },
    Row {
        name: "one-calibration-table",
        paths: &[
            "crates/core/src",
            "crates/format/src",
            "crates/mvcc/src",
            "crates/olap/src",
            "crates/oltp/src",
            "crates/pim/src",
            "crates/shard/src",
            "crates/wal/src",
            "!crates/pim/src/calib.rs",
            "!crates/pim/src/config.rs",
            "!crates/pim/src/geometry.rs",
            "!crates/pim/src/timing.rs",
        ],
        non_test: true,
        check: AnyUnless(
            &[
                "Ps::new(",
                "Ps::from_ns(",
                "Ps::from_us(",
                "Ps::from_ms(",
                ".cycles(",
            ],
            not_a_hand_set_constant,
        ),
        sample: "let pause = Ps::from_us(30.0);",
        why: "Every hand-set model constant is written once, with its unit and \
              source, in `pim/src/calib.rs`, and Table 1 stays in `timing.rs`, \
              `geometry.rs` and `config.rs`: no other model code passes a \
              number to a `Ps` constructor or a literal count to `.cycles(`. \
              Exempt are doc examples (comment lines) and unit conversions (a \
              `Ps` of computed picoseconds, or of whole seconds as a rate \
              window).",
    },
    Row {
        name: "dev-profile-keeps-checks",
        paths: &["Cargo.toml"],
        non_test: false,
        check: File(dev_checks_off),
        sample: "[profile.dev]\ndebug-assertions = false",
        why: "The test binaries build at `opt-level = 1` for speed, and only \
              for speed: the dev and test profiles keep debug assertions and \
              overflow checks on, so the suite checks what it checked \
              unoptimised.",
    },
];

/// `read_row` inside `timed_read` or `snapshot_read`: the nearest line at
/// or above the hit that declares a function names one of them.
fn in_a_value_read(file: &Scanned, offset: usize, _: &str) -> bool {
    in_fn(file, offset, &["fn timed_read(", "fn snapshot_read("])
}

/// A read issued by `HtapTable::fetch` or by the snapshot update's
/// metadata stream: the nearest line at or above the hit that declares a
/// function names one of them.
fn in_a_read_stream(file: &Scanned, offset: usize, _: &str) -> bool {
    in_fn(file, offset, &["fn fetch(", "fn timed_snapshot_update("])
}

/// Whether the nearest line at or above `offset` that declares a
/// function holds one of `heads`.
fn in_fn(file: &Scanned, offset: usize, heads: &[&str]) -> bool {
    let end = line_span(&file.text, offset).end;
    file.text[..end]
        .lines()
        .rev()
        .find(|line| declares_fn(line))
        .is_some_and(|line| heads.iter().any(|head| line.contains(head)))
}

/// Whether `line` holds `fn`, a space, a name of lowercase letters,
/// digits and `_`, then `(` or `<`.
fn declares_fn(line: &str) -> bool {
    find_token(line, "fn ").into_iter().any(|at| {
        let rest = &line.as_bytes()[at + 3..];
        let name = rest
            .iter()
            .take_while(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || **b == b'_')
            .count();
        name > 0 && matches!(rest.get(name), Some(b'(' | b'<'))
    })
}

/// A `Ps` constructor or `.cycles(` call that sets no model constant: on
/// a comment line (a doc example), a `.cycles(` whose argument holds no
/// number, or a `Ps` whose argument is not one number (a conversion of
/// computed picoseconds) or is a whole number of seconds (a rate window).
fn not_a_hand_set_constant(file: &Scanned, offset: usize, literal: &str) -> bool {
    let line = &file.text[line_span(&file.text, offset)];
    if line.trim_start().starts_with("//") {
        return true;
    }
    let arg = call_argument(&file.text, offset + literal.len()).trim();
    if literal == ".cycles(" {
        return !holds_a_number(arg);
    }
    let ps_per_unit = match literal {
        "Ps::from_ns(" => 1e3,
        "Ps::from_us(" => 1e6,
        "Ps::from_ms(" => 1e9,
        _ => 1.0,
    };
    match arg.replace('_', "").parse::<f64>() {
        Ok(value) => {
            let seconds = value * ps_per_unit / 1e12;
            seconds >= 1.0 && seconds.fract() == 0.0
        }
        Err(_) => !arg.starts_with(|c: char| c.is_ascii_digit()),
    }
}

/// The text from `start` up to the `)` that closes the call whose `(`
/// precedes it.
fn call_argument(text: &str, start: usize) -> &str {
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate().skip(start) {
        match b {
            b'(' => depth += 1,
            b')' if depth == 0 => return &text[start..i],
            b')' => depth -= 1,
            _ => {}
        }
    }
    &text[start..]
}

/// Whether `code` holds a number literal: a digit that does not continue
/// an identifier or follow a `.` (a tuple field).
fn holds_a_number(code: &str) -> bool {
    let bytes = code.as_bytes();
    bytes.iter().enumerate().any(|(i, b)| {
        b.is_ascii_digit()
            && (i == 0
                || !(bytes[i - 1].is_ascii_alphanumeric() || matches!(bytes[i - 1], b'_' | b'.')))
    })
}

/// `WalBytes::shards` in `durability.rs`, one log image per shard, is the
/// one list of byte vectors that is not a row.
fn the_shards_image(file: &Scanned, offset: usize, _: &str) -> bool {
    file.rel
        .file_name()
        .is_some_and(|name| name == "durability.rs")
        && file.text[line_span(&file.text, offset)].starts_with("    pub shards: Vec<Vec<u8>>,")
}

/// A hit that is no static item: on a line that opens with `//`, or the
/// word `static` as a lifetime, inside a name, or not followed by a space
/// or tab.
fn not_a_static_item(file: &Scanned, offset: usize, literal: &str) -> bool {
    let bytes = file.text.as_bytes();
    let line = &file.text[line_span(&file.text, offset)];
    line.trim_start_matches(' ').starts_with("//")
        || literal == "static"
            && (offset
                .checked_sub(1)
                .is_some_and(|i| matches!(bytes[i], b'\'' | b'a'..=b'z' | b'_'))
                || !matches!(bytes.get(offset + literal.len()), Some(b' ' | b'\t')))
}

/// A crate root (`src/lib.rs` or `src/main.rs`) that does not forbid
/// `unsafe` code.
fn lacks_forbid_unsafe(_: &Path, file: &Scanned) -> Vec<usize> {
    let crate_root = file.rel.parent().is_some_and(|dir| dir.ends_with("src"))
        && file
            .rel
            .file_name()
            .is_some_and(|name| name == "lib.rs" || name == "main.rs");
    if crate_root && !file.source.contains("#![forbid(unsafe_code)]") {
        vec![0]
    } else {
        Vec::new()
    }
}

/// Each `debug-assertions = false` or `overflow-checks = false` line
/// under a `[profile.dev]` or `[profile.test]` header.
fn dev_checks_off(_: &Path, file: &Scanned) -> Vec<usize> {
    let mut in_dev = false;
    let mut offsets = Vec::new();
    let mut at = 0;
    for line in file.source.split_inclusive('\n') {
        let setting: String = line
            .split('#')
            .next()
            .unwrap_or_default()
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if setting.starts_with('[') {
            in_dev = setting == "[profile.dev]" || setting == "[profile.test]";
        } else if in_dev
            && (setting == "debug-assertions=false" || setting == "overflow-checks=false")
        {
            offsets.push(at);
        }
        at += line.len();
    }
    offsets
}

/// Every `Phase` variant the reconciliation suite never names, or the
/// file's start when it declares no variant at all.
fn unreconciled_phases(root: &Path, file: &Scanned) -> Vec<usize> {
    let suite =
        fs::read_to_string(root.join("crates/shard/tests/trace_reconcile.rs")).unwrap_or_default();
    let code = blank_noncode(&file.source);
    let variants = phase_variants(&code);
    if variants.is_empty() {
        return vec![0];
    }
    variants
        .into_iter()
        .filter(|(_, variant)| !suite.contains(&format!("Phase::{variant}")))
        .map(|(at, _)| at)
        .collect()
}

/// The variants of `pub enum Phase { ... }` in blanked code, with their
/// offsets.
fn phase_variants(code: &str) -> Vec<(usize, &str)> {
    let Some(start) = code.find("pub enum Phase") else {
        return Vec::new();
    };
    let Some(open) = code[start..].find('{').map(|i| start + i) else {
        return Vec::new();
    };
    let Some(close) = matching_brace(code, open) else {
        return Vec::new();
    };
    // The variants are unit-like and carry no attributes: each is an
    // identifier before a comma at depth 0.
    let mut variants = Vec::new();
    let mut at = open + 1;
    for piece in code[open + 1..close].split(',') {
        if let Some(lead) = piece.find(|c: char| c.is_ascii_alphabetic()) {
            let ident = &piece[lead..];
            let len = ident
                .find(|c: char| !c.is_ascii_alphanumeric())
                .unwrap_or(ident.len());
            if ident.starts_with(|c: char| c.is_ascii_uppercase()) {
                variants.push((at + lead, &ident[..len]));
            }
        }
        at += piece.len() + 1;
    }
    variants
}

/// A `ShardLoad` struct with more than two `pub` fields.
fn shard_load_over_two_fields(_: &Path, file: &Scanned) -> Vec<usize> {
    let code = blank_noncode(&file.source);
    let head = "pub struct ShardLoad";
    let mut fields = 0;
    let mut first = None;
    for at in find_token(&code, head) {
        let rest = &code[at + head.len()..];
        let Some(body) = rest.trim_start().strip_prefix('{') else {
            continue;
        };
        let open = code.len() - body.len() - 1;
        let Some(close) = matching_brace(&code, open) else {
            continue;
        };
        fields += find_token(&code[open..close], "pub ")
            .into_iter()
            .filter(|&i| {
                let field = code[open + i + 4..]
                    .trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_');
                field.starts_with(':') && !field.starts_with("::")
            })
            .count();
        first.get_or_insert(at);
    }
    first.filter(|_| fields > 2).into_iter().collect()
}

/// One file as the rows see it.
struct Scanned {
    rel: PathBuf,
    source: String,
    /// `source` with string and char literals blanked in a `.rs` file.
    text: String,
    /// The byte ranges of `#[cfg(test)]` items in a `.rs` file.
    tests: Vec<Range<usize>>,
}

impl Scanned {
    fn load(root: &Path, rel: &Path) -> Self {
        let bytes = fs::read(root.join(rel)).unwrap_or_default();
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let (text, tests) = if rel.extension().is_some_and(|e| e == "rs") {
            (
                blank(&source, false),
                cfg_test_ranges(&blank_noncode(&source)),
            )
        } else {
            (source.clone(), Vec::new())
        };
        Scanned {
            rel: rel.to_path_buf(),
            source,
            text,
            tests,
        }
    }
}

/// One place that breaks a row: `line` 0 when a path matches no file.
struct Violation {
    row: &'static Row,
    file: PathBuf,
    line: usize,
}

/// Runs every row over the workspace at `root`; prints the violations
/// and returns whether there were none.
pub fn run(root: &Path) -> bool {
    let violations: Vec<Violation> = ROWS.iter().flat_map(|row| check(root, row)).collect();
    for v in &violations {
        let (name, file) = (v.row.name, v.file.display());
        if v.line == 0 {
            println!("{file}: [{name}] matches no file, so the row checks nothing");
        } else {
            println!("{file}:{}: [{name}] {}", v.line, v.row.why);
        }
    }
    if violations.is_empty() {
        println!("xtask lint: workspace clean ({} checks)", ROWS.len());
        true
    } else {
        println!("xtask lint: {} violation(s)", violations.len());
        false
    }
}

/// The places under `root` that break `row`.
fn check(root: &Path, row: &'static Row) -> Vec<Violation> {
    let excluded: Vec<&str> = row
        .paths
        .iter()
        .filter_map(|p| p.strip_prefix('!'))
        .collect();
    let mut violations = Vec::new();
    for pattern in row.paths.iter().filter(|p| !p.starts_with('!')) {
        let files: Vec<PathBuf> = expand(root, pattern, row.non_test)
            .into_iter()
            .filter_map(|path| path.strip_prefix(root).map(Path::to_path_buf).ok())
            .filter(|rel| !excluded.iter().any(|e| rel.starts_with(e)))
            .collect();
        if files.is_empty() && !matches!(row.check, Absent) {
            violations.push(Violation {
                row,
                file: PathBuf::from(pattern),
                line: 0,
            });
        }
        for rel in files {
            let file = Scanned::load(root, &rel);
            let offsets = match row.check {
                Any(literals) => hits(&file, literals).map(|(at, _)| at).collect(),
                AnyUnless(literals, allowed) => hits(&file, literals)
                    .filter(|&(at, literal)| !allowed(&file, at, literal))
                    .map(|(at, _)| at)
                    .collect(),
                File(predicate) => predicate(root, &file),
                Absent => vec![0],
            };
            let mut lines: Vec<usize> = offsets
                .into_iter()
                .filter(|at| !row.non_test || !file.tests.iter().any(|r| r.contains(at)))
                .map(|at| line_of(&file.source, at))
                .collect();
            lines.sort_unstable();
            lines.dedup();
            violations.extend(lines.into_iter().map(|line| Violation {
                row,
                file: rel.clone(),
                line,
            }));
        }
    }
    violations
}

/// Every offset in `file.text` where one of `literals` starts.
fn hits<'a>(
    file: &'a Scanned,
    literals: &'a [&'a str],
) -> impl Iterator<Item = (usize, &'a str)> + 'a {
    literals.iter().flat_map(move |literal| {
        find_token(&file.text, literal)
            .into_iter()
            .map(move |at| (at, *literal))
    })
}

/// The files a row path names under `root`: the file itself, or every
/// file below the directory (`.rs` files only when `rust_only`).
fn expand(root: &Path, pattern: &str, rust_only: bool) -> Vec<PathBuf> {
    let mut bases = vec![root.to_path_buf()];
    for part in pattern.split('/') {
        bases = if part == "*" {
            bases.iter().flat_map(|base| crate_dirs(base)).collect()
        } else {
            bases.into_iter().map(|base| base.join(part)).collect()
        };
    }
    let mut files = Vec::new();
    for base in bases {
        if base.is_file() {
            files.push(base);
        } else {
            collect(&base, rust_only, &mut files);
        }
    }
    files.sort();
    files
}

/// The byte range of the line around `offset`, without its newline.
fn line_span(text: &str, offset: usize) -> Range<usize> {
    let start = text[..offset].rfind('\n').map_or(0, |i| i + 1);
    let end = text[offset..].find('\n').map_or(text.len(), |i| offset + i);
    start..end
}

/// Byte ranges covered by `#[cfg(test)]`-gated items (the attribute's
/// following brace block).
pub(crate) fn cfg_test_ranges(cleaned: &str) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    for offset in find_token(cleaned, "#[cfg(test)]") {
        let Some(open) = cleaned[offset..].find('{').map(|i| offset + i) else {
            continue;
        };
        if let Some(close) = matching_brace(cleaned, open) {
            ranges.push(offset..close + 1);
        }
    }
    ranges
}

/// The offset of the `}` matching the `{` at `open`.
fn matching_brace(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte offsets of every occurrence of `token` in `text`.
fn find_token(text: &str, token: &str) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut from = 0;
    while let Some(i) = text[from..].find(token) {
        offsets.push(from + i);
        from += i + token.len();
    }
    offsets
}

/// 1-based line number of byte `offset` in `source`.
pub(crate) fn line_of(source: &str, offset: usize) -> usize {
    source[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// The workspace root (xtask lives at `<root>/crates/xtask`).
pub(crate) fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Immediate subdirectories of `dir` (the member crates).
pub(crate) fn crate_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Every `.rs` file under `base/<sub>` for each listed subdirectory,
/// recursively, sorted for deterministic output.
pub(crate) fn rust_files_under(base: &Path, subs: &[&str]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for sub in subs {
        collect(&base.join(sub), true, &mut files);
    }
    files.sort();
    files
}

/// Every file below `dir`, recursively (`.rs` files only when `rust_only`).
fn collect(dir: &Path, rust_only: bool, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, rust_only, out);
        } else if !rust_only || path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Blanks comments and string/char literals with spaces (newlines and
/// offsets preserved), so token scans only see real code.
pub(crate) fn blank_noncode(source: &str) -> String {
    blank(source, true)
}

/// Blanks string and char literals with spaces (newlines and offsets
/// preserved), and comments too when `comments` is set.
fn blank(source: &str, comments: bool) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if matches!(bytes.get(i + 1), Some(b'/' | b'*')) => {
                let end = if bytes[i + 1] == b'/' {
                    source[i..].find('\n').map_or(bytes.len(), |n| i + n)
                } else {
                    block_comment_end(bytes, i)
                };
                if comments {
                    for b in out[i..end].iter_mut().filter(|b| **b != b'\n') {
                        *b = b' ';
                    }
                }
                i = end;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                i = blank_raw_string(bytes, &mut out, i);
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                out[i] = b' ';
                i = blank_quoted(bytes, &mut out, i + 1);
            }
            b'"' => {
                i = blank_quoted(bytes, &mut out, i);
            }
            b'\'' => {
                // Char literal vs lifetime: a literal is '\...' or 'x'.
                if bytes.get(i + 1) == Some(&b'\\') {
                    out[i] = b' ';
                    i += 1;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        if bytes[i] == b'\\' {
                            out[i] = b' ';
                            i += 1;
                        }
                        if i < bytes.len() && bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                    if i < bytes.len() {
                        out[i] = b' ';
                        i += 1;
                    }
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    out[i + 2] = b' ';
                    i += 3;
                } else {
                    i += 1; // lifetime
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The offset past the (possibly nested) block comment opening at `i`.
fn block_comment_end(bytes: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
            if depth == 0 {
                break;
            }
        } else {
            i += 1;
        }
    }
    i
}

/// Whether `r`/`br` at `i` starts a raw string (`r"`, `r#"`, `br##"`…),
/// and not an identifier like `row` or a variable `b`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Blanks a raw string starting at `i`; returns the offset past it.
fn blank_raw_string(bytes: &[u8], out: &mut [u8], mut i: usize) -> usize {
    if bytes[i] == b'b' {
        out[i] = b' ';
        i += 1;
    }
    out[i] = b' '; // 'r'
    i += 1;
    let mut hashes = 0;
    while bytes.get(i) == Some(&b'#') {
        out[i] = b' ';
        hashes += 1;
        i += 1;
    }
    out[i] = b' '; // opening quote
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..].iter().take(hashes).all(|&b| b == b'#')
            && bytes[i + 1..].len() >= hashes
        {
            for k in 0..=hashes {
                out[i + k] = b' ';
            }
            return i + hashes + 1;
        }
        if bytes[i] != b'\n' {
            out[i] = b' ';
        }
        i += 1;
    }
    i
}

/// Blanks a `"…"` literal starting at `i`; returns the offset past it.
fn blank_quoted(bytes: &[u8], out: &mut [u8], mut i: usize) -> usize {
    out[i] = b' '; // opening quote
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                out[i] = b' ';
                if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                    out[i + 1] = b' ';
                }
                i += 2;
            }
            b'"' => {
                out[i] = b' ';
                return i + 1;
            }
            b'\n' => i += 1,
            _ => {
                out[i] = b' ';
                i += 1;
            }
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch tree under the system temp directory, removed on drop.
    struct Tree(PathBuf);

    impl Tree {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("xtask-lint-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Tree(dir)
        }

        fn plant(&self, rel: &Path, content: &str) {
            let path = self.0.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
        }
    }

    impl Drop for Tree {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// Where a row's sample goes: its first path, with `*` as `sample`
    /// and a directory given a `sample.rs`.
    fn sample_path(row: &Row) -> PathBuf {
        let path = PathBuf::from(row.paths[0].replace('*', "sample"));
        if path.extension().is_some() {
            path
        } else {
            path.join("sample.rs")
        }
    }

    /// Whether `row` fires on `content` planted at its sample path.
    fn fires(row: &'static Row, tree: &str, content: &str) -> bool {
        let tree = Tree::new(tree);
        let path = sample_path(row);
        tree.plant(&path, content);
        check(&tree.0, row)
            .iter()
            .any(|v| v.file == path && v.line > 0)
    }

    #[test]
    fn every_row_fires_on_its_sample_and_non_test_rows_spare_test_code() {
        for row in ROWS {
            assert!(
                fires(row, row.name, &format!("{}\n", row.sample)),
                "[{}] does not fire on its sample",
                row.name
            );
            if row.non_test {
                let gated = format!("#[cfg(test)]\nmod tests {{\n    {}\n}}\n", row.sample);
                assert!(
                    !fires(row, row.name, &gated),
                    "[{}] fires inside `#[cfg(test)]`",
                    row.name
                );
            }
        }
    }

    #[test]
    fn the_table_file_breaks_no_row_where_each_row_looks() {
        let own = include_str!("lint.rs");
        let fired: Vec<&str> = ROWS
            .iter()
            .filter(|&row| fires(row, &format!("self-{}", row.name), own))
            .map(|row| row.name)
            .collect();
        // The two rows about which file sits there: this file is no
        // `Phase` enum, and no file may be `crates/core/src/mixed.rs`.
        assert_eq!(fired, ["phase-coverage", "one-htap-driver"]);
    }

    #[test]
    fn row_names_are_unique() {
        let mut names: Vec<&str> = ROWS.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ROWS.len());
    }

    const BLANKING_SRC: &str = r##"
let a = x.unwrap(); // .expect( in a comment
let s = "Instant::now inside a string";
let r = r#"thread::spawn raw"#;
let c = 'x';
let esc = '\n';
let lt: &'static str = "y";
"##;

    #[test]
    fn blanking_strips_comments_strings_chars_but_keeps_code() {
        let src = BLANKING_SRC;
        let cleaned = blank_noncode(src);
        assert_eq!(cleaned.len(), src.len());
        assert!(cleaned.contains(".unwrap()"));
        assert!(!cleaned.contains("Instant::now"));
        assert!(!cleaned.contains("thread::spawn"));
        assert!(!cleaned.contains(".expect("));
        assert!(cleaned.contains("&'static str"));
    }

    #[test]
    fn literal_blanking_keeps_comments() {
        let src = BLANKING_SRC;
        let literals = blank(src, false);
        assert_eq!(literals.len(), src.len());
        assert!(literals.contains(".unwrap()"));
        assert!(literals.contains(".expect( in a comment"));
        assert!(!literals.contains("Instant::now"));
        assert!(!literals.contains("thread::spawn"));
        assert!(literals.contains("&'static str"));
    }

    #[test]
    fn host_threads_are_flagged_outside_strings_and_test_modules() {
        let src = "// thread::scope in a comment\n\
                   fn a() { let s = \"thread::spawn in a string\"; }\n\
                   fn b() { std::thread::scope(|_| ()); }\n\
                   #[cfg(test)]\nmod tests { fn c() { std::thread::scope(|_| ()); } }\n";
        let row = ROWS
            .iter()
            .find(|row| row.name == "no-host-threads")
            .unwrap();
        let tree = Tree::new("host-threads");
        let path = sample_path(row);
        tree.plant(&path, src);
        let lines: Vec<usize> = check(&tree.0, row)
            .iter()
            .filter(|v| v.file == path)
            .map(|v| v.line)
            .collect();
        // Comments count, as they do for `grep`.
        assert_eq!(lines, [1, 3]);
    }

    #[test]
    fn calibration_literals_fire_outside_the_calibration_table_only() {
        let src = "/// let t = Ps::from_us(2.0);\n\
                   fn a() -> Ps { Ps::new(100_000_000) }\n\
                   fn b(cpu: &CpuSpec, n: u64) -> Ps { cpu.cycles(n * 12) }\n\
                   fn c(s: f64) -> Ps { Ps::new((s * 1e12).round() as u64) }\n\
                   fn d(cpu: &CpuSpec, n: u64) -> Ps { cpu.cycles(n * ENTRY_CYCLES) }\n\
                   fn e() -> Ps { Ps::from_ms(60_000.0) }\n";
        let row = ROWS
            .iter()
            .find(|row| row.name == "one-calibration-table")
            .unwrap();
        let tree = Tree::new("calibration");
        let (model, table) = (
            PathBuf::from("crates/oltp/src/table.rs"),
            PathBuf::from("crates/pim/src/calib.rs"),
        );
        tree.plant(&model, src);
        tree.plant(&table, src);
        let violations = check(&tree.0, row);
        let lines = |path: &PathBuf| -> Vec<usize> {
            violations
                .iter()
                .filter(|v| &v.file == path)
                .map(|v| v.line)
                .collect()
        };
        // The numeric `Ps` literal and the literal cycle multiplier fire;
        // the doc example, the conversions, the named count and the same
        // lines in the table itself do not.
        assert_eq!(lines(&model), [2, 3]);
        assert_eq!(lines(&table), [0usize; 0]);
    }

    #[test]
    fn cfg_test_ranges_cover_gated_modules() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn b() { y.unwrap(); } }\n";
        let cleaned = blank_noncode(src);
        let ranges = cfg_test_ranges(&cleaned);
        assert_eq!(ranges.len(), 1);
        let offsets = find_token(&cleaned, ".unwrap()");
        assert_eq!(offsets.len(), 2);
        assert!(!ranges[0].contains(&offsets[0]));
        assert!(ranges[0].contains(&offsets[1]));
    }

    #[test]
    fn phase_variants_parse_the_real_enum() {
        let src =
            "pub enum Phase {\n    /// doc\n    Routed,\n    WavePrepare,\n    Recovery,\n}\n";
        let code = blank_noncode(src);
        let variants = phase_variants(&code);
        let names: Vec<&str> = variants.iter().map(|&(_, name)| name).collect();
        assert_eq!(names, ["Routed", "WavePrepare", "Recovery"]);
        assert_eq!(line_of(src, variants[1].0), 4);
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        assert!(
            run(&workspace_root()),
            "the workspace must pass its own lint"
        );
    }
}
