//! Runs the garbage-collection soak (GC-on vs GC-off under sustained
//! TPC-C traffic), prints both rows, and writes `BENCH_soak.json`.
//! `--txns <n>` sets the stream length (default 100 000, the committed
//! baseline CI regenerates and diffs).
use pushtap_bench::flag_value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let txns: u64 = flag_value(&args, "--txns")
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    pushtap_bench::soak::print_and_write_json(txns).expect("write BENCH_soak.json");
}
