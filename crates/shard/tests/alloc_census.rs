//! The allocation census of the `shard_durable` shape: where its heap
//! allocations are made, per phase. Not a budget — the budgets are
//! `alloc_budget.rs` and `alloc_budget_txns.rs` — but the measurement a
//! budget cut starts from. Run it alone, in the dev profile, whose debug
//! info names every frame:
//!
//! ```text
//! cargo test --offline -p pushtap-shard --test alloc_census -- --ignored --nocapture
//! ```
//!
//! The global allocator below records a backtrace at every `alloc` and
//! `realloc` call made while a phase is open, and the report groups them
//! by site: the first two frames in workspace source (`crates/*/src`),
//! innermost first. Capturing and storing a backtrace allocates too;
//! those allocations are made with the recording switched off on the
//! calling thread, so they are neither recorded nor captured again.
//!
//! The shape is the benchmark's: two shards with maintenance every 200
//! transactions and the WAL on, 20 batches of 250 transactions, a query
//! (Q1, Q6, Q9 in turn) after every second batch, a checkpoint after
//! every tenth, then recovery from the harvested logs. The counts are
//! exact, so they match `alloc_budget.rs` phase for phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use pushtap_olap::Query;
use pushtap_shard::{ShardConfig, ShardedHtap};

/// The phases the census splits the run into.
const PHASES: [&str; 4] = ["transactions", "queries", "checkpoints", "recovery"];
/// No phase open: nothing is recorded.
const IDLE: usize = usize::MAX;
/// Sites printed per phase.
const TOP: usize = 12;

const SEGMENTS: u64 = 20;
const SEGMENT_TXNS: u64 = 250;
const QUERY_EVERY: u64 = 2;
const CHECKPOINT_EVERY: u64 = 10;

/// Forwards to the system allocator and records a backtrace per call
/// while a phase is open.
struct Census;

/// The open phase, an index into [`PHASES`], or [`IDLE`].
static PHASE: AtomicUsize = AtomicUsize::new(IDLE);
/// Every recorded call: its phase and its backtrace, resolved only when
/// the report is printed.
static TRACES: Mutex<Vec<(usize, Backtrace)>> = Mutex::new(Vec::new());

thread_local! {
    /// Whether this thread is inside [`record`], whose own allocations
    /// the census must not record.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// Records the calling allocation's backtrace, if a phase is open.
fn record() {
    let phase = PHASE.load(Ordering::Relaxed);
    if phase == IDLE {
        return;
    }
    // `try_with` fails only while the thread's locals are torn down.
    let _ = RECORDING.try_with(|recording| {
        if recording.replace(true) {
            return;
        }
        let trace = Backtrace::force_capture();
        // An allocator must not panic; a push leaves the list whole, so
        // a poisoned lock's list is still sound.
        TRACES
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((phase, trace));
        recording.set(false);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `record` touches no
// allocator state, and the allocations it makes itself re-enter this
// allocator with the recording switched off.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller guarantees `layout` is valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller guarantees `layout` is valid for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and this allocator only ever hands out
        // `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc` — `ptr` is a `System` block of `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Census = Census;

/// Runs `f` with phase `phase` open.
fn in_phase<T>(phase: usize, f: impl FnOnce() -> T) -> T {
    PHASE.store(phase, Ordering::Relaxed);
    let out = f();
    PHASE.store(IDLE, Ordering::Relaxed);
    out
}

/// A recorded call's site: its first two frames in workspace source,
/// innermost first, each as `crates/…/file.rs:line function`.
fn site(trace: &Backtrace) -> String {
    let text = trace.to_string();
    let mut frames = Vec::new();
    let mut function = "";
    for line in text.lines().map(str::trim) {
        if let Some(at) = line.strip_prefix("at ") {
            // This crate's own files are named relative to it.
            let at = match at.strip_prefix("./") {
                Some(own) => format!("crates/shard/{own}"),
                None => at.to_string(),
            };
            if let Some(start) = at.find("crates/").filter(|&i| at[i..].contains("/src/")) {
                let place = at[start..]
                    .rsplit_once(':')
                    .map_or(&at[start..], |(p, _)| p);
                frames.push(format!("{place} {}", short(function)));
                if frames.len() == 2 {
                    break;
                }
            }
        } else if let Some((_, name)) = line.split_once(": ") {
            function = name;
        }
    }
    if frames.is_empty() {
        "(no workspace frame)".to_string()
    } else {
        frames.join(" < ")
    }
}

/// A function path's last two segments, `Type::method`.
fn short(function: &str) -> &str {
    let mut cut = function.len();
    for _ in 0..2 {
        match function[..cut].rfind("::") {
            Some(i) => cut = i,
            None => return function,
        }
    }
    &function[cut + 2..]
}

/// The `shard_durable` deployment: 2 shards, maintenance every 200
/// transactions.
fn config() -> ShardConfig {
    let mut cfg = ShardConfig::small(2);
    cfg.base.defrag_period = 200;
    cfg
}

#[test]
#[ignore = "a measuring tool: prints the census, asserts nothing"]
fn shard_durable_allocation_census() {
    let mut service = ShardedHtap::new(config()).expect("the small config lays out");
    let handles = service.enable_wal();
    let mut gen = service.global_txn_gen(42);
    for k in 0..SEGMENTS {
        in_phase(0, || service.run_txns(&mut gen, SEGMENT_TXNS));
        if (k + 1) % QUERY_EVERY == 0 {
            let query = Query::ALL[(k / QUERY_EVERY % 3) as usize];
            in_phase(1, || service.run_query(query));
        }
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            in_phase(2, || service.checkpoint());
        }
    }
    let logs = handles.harvest();
    let recovered = in_phase(3, || ShardedHtap::recover(config(), &logs));
    recovered.expect("the logs recover");

    let traces = std::mem::take(&mut *TRACES.lock().unwrap_or_else(PoisonError::into_inner));
    let mut by_phase: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); PHASES.len()];
    for (phase, trace) in &traces {
        *by_phase[*phase].entry(site(trace)).or_default() += 1;
    }
    println!("{} allocations in all", traces.len());
    for (name, sites) in PHASES.iter().zip(&by_phase) {
        let mut sites: Vec<(&String, &u64)> = sites.iter().collect();
        sites.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let total: u64 = sites.iter().map(|(_, n)| **n).sum();
        println!("\n{name}: {total} allocations at {} sites", sites.len());
        for (site, n) in sites.iter().take(TOP) {
            println!("{n:>6}  {site}");
        }
    }
}
