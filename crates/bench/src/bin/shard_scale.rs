//! Prints the shard-scaling tables (routed vs local load at
//! 1 → 8 shards). With `--json`, the same single sweep also writes
//! `BENCH_shard_scale.json` so the perf trajectory is machine-readable.
//! With `--trace <path>`, additionally writes a Chrome-trace timeline
//! of one traced uniform-mix batch (load it in Perfetto or
//! `chrome://tracing`); `--trace-shards <n>` sets its shard count
//! (default 8).
use pushtap_bench::flag_value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--json") {
        pushtap_bench::shard_scale::print_and_write_json().expect("write BENCH_shard_scale.json");
    } else {
        pushtap_bench::shard_scale::print_all();
    }
    if let Some(path) = flag_value(&args, "--trace") {
        let shards: u32 = flag_value(&args, "--trace-shards")
            .and_then(|s| s.parse().ok())
            .unwrap_or(8);
        pushtap_bench::shard_scale::write_trace(&path, shards, 240).expect("write trace");
    }
}
