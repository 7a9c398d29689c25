//! Regenerates every figure in sequence (the full evaluation pass).
//! Optional arguments: population scale (default 0.001), which applies
//! to Figs. 9–12 (Table 1 prints the configuration and Fig. 8 is
//! computed from the layouts alone), `--json` (write
//! `BENCH_shard_scale.json` alongside the printed tables), and
//! `--trace <path>` (write a Chrome-trace timeline of one traced
//! 8-shard uniform-mix batch).
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // The scale is the first positional argument: skip flags (and the
    // `--trace` operand) when looking for it.
    let scale: f64 = {
        let mut scale = 0.001;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--json" => i += 1,
                "--trace" => i += 2,
                s => {
                    if let Ok(v) = s.parse() {
                        scale = v;
                    }
                    i += 1;
                }
            }
        }
        scale
    };
    pushtap_bench::table1::print_all();
    println!();
    pushtap_bench::fig8::print_all();
    println!();
    pushtap_bench::fig9::print_all(scale);
    println!();
    pushtap_bench::fig10::print_all(scale);
    println!();
    pushtap_bench::fig11::print_all(scale);
    println!();
    pushtap_bench::fig12::print_all(scale);
    println!();
    if std::env::args().any(|a| a == "--json") {
        pushtap_bench::shard_scale::print_and_write_json().expect("write BENCH_shard_scale.json");
    } else {
        pushtap_bench::shard_scale::print_all();
    }
    if let Some(path) = trace_path {
        pushtap_bench::shard_scale::write_trace(&path, 8, 240).expect("write trace");
    }
}
