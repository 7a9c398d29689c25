//! Workspace automation (`cargo run -p xtask -- <command>`).

#![forbid(unsafe_code)]

mod api;
mod lint;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clean = match args.first().map(String::as_str) {
        Some("lint") => lint::run(),
        Some("api") => api::run(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint|api>");
            std::process::exit(2);
        }
    };
    if !clean {
        std::process::exit(1);
    }
}
