//! Runs the open-loop queueing sweep (arrival rate × shard count),
//! prints the table, and writes `BENCH_open_loop.json`. `--txns <n>`
//! sets the arrivals per point (default 4000), `--shards <list>` the
//! comma-separated shard counts (default `2,4,8`).
use pushtap_bench::flag_value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let txns: u64 = flag_value(&args, "--txns")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    let shards: Vec<u32> = flag_value(&args, "--shards")
        .map(|s| {
            s.split(',')
                .map(|p| p.trim().parse().expect("shard count"))
                .collect()
        })
        .unwrap_or_else(|| vec![2, 4, 8]);
    pushtap_bench::open_loop::print_and_write_json(&shards, txns)
        .expect("write BENCH_open_loop.json");
}
