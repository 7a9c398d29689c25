//! Token-level repo-invariant lint (`cargo run -p xtask -- lint`).
//!
//! Enforces workspace invariants the compiler can't:
//!
//! 1. **determinism** — no `Instant::now` / `SystemTime::now` in
//!    simulation crates (everything under `crates/*/src` except
//!    `xtask`, plus the facade's `src/` and `examples/`): simulated
//!    time comes from `pushtap_pim::Ps` clocks only, so a wall-clock
//!    read is a reproducibility bug;
//! 2. **no `unwrap()`/`expect()` in shard/coordinator non-test code**
//!    (`crates/shard/src`, `#[cfg(test)]` blocks exempt): the
//!    coordinator's failure semantics are explicit — panics carry
//!    typed context (`panic!` with a message, `unreachable!`, or
//!    propagated unwinds), never a generic `Option`/`Result` blowup;
//! 3. **`#![forbid(unsafe_code)]` in every crate root** (vendor shims
//!    included);
//! 4. **no host threads in simulation crates** — no `thread::scope` /
//!    `thread::spawn` / `std::thread` in their non-test code (same
//!    scope as rule 1, `#[cfg(test)]` blocks exempt): concurrency is
//!    modelled by per-engine `Ps` clocks, and a run on one host thread
//!    is deterministic down to its emission order;
//! 5. **every `Phase` variant referenced in `trace_reconcile.rs`** —
//!    the trace-reconciliation suite must keep up with the lifecycle
//!    vocabulary, or new phases ship unverified.
//!
//! The pass is purely lexical: sources are scanned with comments and
//! string/char literals blanked out (offsets preserved), so tokens
//! inside docs, strings, and comments never trigger.

use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding.
struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

/// Runs every rule over the workspace; prints findings and returns
/// whether the tree is clean.
pub fn run() -> bool {
    let root = workspace_root();
    let mut violations = Vec::new();

    let crate_srcs = rust_files_under(&root, &["src", "examples"])
        .into_iter()
        .chain(
            crate_dirs(&root.join("crates"))
                .into_iter()
                .flat_map(|c| rust_files_under(&c, &["src", "tests", "examples", "benches"])),
        )
        .collect::<Vec<_>>();
    let vendor_srcs: Vec<PathBuf> = crate_dirs(&root.join("vendor"))
        .into_iter()
        .flat_map(|c| rust_files_under(&c, &["src"]))
        .collect();

    for path in crate_srcs.iter().chain(vendor_srcs.iter()) {
        let Ok(source) = fs::read_to_string(path) else {
            continue;
        };
        let cleaned = blank_noncode(&source);
        let rel = path.strip_prefix(&root).unwrap_or(path);

        if is_simulation_src(rel) {
            for token in ["Instant::now", "SystemTime::now"] {
                for offset in find_token(&cleaned, token) {
                    violations.push(Violation {
                        file: rel.to_path_buf(),
                        line: line_of(&source, offset),
                        rule: "determinism",
                        message: format!("`{token}` in a simulation crate (use `Ps` clocks)"),
                    });
                }
            }
        }

        if rel.starts_with("crates/shard/src") {
            let exempt = cfg_test_ranges(&cleaned);
            for (token, label) in [(".unwrap()", "unwrap()"), (".expect(", "expect()")] {
                for offset in find_token(&cleaned, token) {
                    if exempt.iter().any(|r| r.contains(&offset)) {
                        continue;
                    }
                    violations.push(Violation {
                        file: rel.to_path_buf(),
                        line: line_of(&source, offset),
                        rule: "no-unwrap-in-shard",
                        message: format!(
                            "`{label}` in shard/coordinator non-test code \
                             (panic with typed context instead)"
                        ),
                    });
                }
            }
        }

        if is_simulation_src(rel) {
            for line in host_thread_lines(&source, &cleaned) {
                violations.push(Violation {
                    file: rel.to_path_buf(),
                    line,
                    rule: "no-host-threads",
                    message: "host thread in a simulation crate (shards are \
                              concurrent on their `Ps` clocks only)"
                        .to_string(),
                });
            }
        }
    }

    check_forbid_unsafe(&root, &mut violations);
    check_phase_coverage(&root, &mut violations);

    for v in &violations {
        println!(
            "{}:{}: [{}] {}",
            v.file.display(),
            v.line,
            v.rule,
            v.message
        );
    }
    if violations.is_empty() {
        println!("xtask lint: workspace clean (5 rules)");
        true
    } else {
        println!("xtask lint: {} violation(s)", violations.len());
        false
    }
}

/// Rule 3: every crate root opts out of `unsafe`.
fn check_forbid_unsafe(root: &Path, violations: &mut Vec<Violation>) {
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for dir in crate_dirs(&root.join("crates"))
        .into_iter()
        .chain(crate_dirs(&root.join("vendor")))
    {
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        if lib.is_file() {
            roots.push(lib);
        } else if main.is_file() {
            roots.push(main);
        }
    }
    for path in roots {
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        if !source.contains("#![forbid(unsafe_code)]") {
            violations.push(Violation {
                file: path.strip_prefix(root).unwrap_or(&path).to_path_buf(),
                line: 1,
                rule: "forbid-unsafe",
                message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }
}

/// Rule 5: the trace-reconciliation suite exercises every phase.
fn check_phase_coverage(root: &Path, violations: &mut Vec<Violation>) {
    let span = root.join("crates/trace/src/span.rs");
    let suite = root.join("crates/shard/tests/trace_reconcile.rs");
    let (Ok(span_src), Ok(suite_src)) = (fs::read_to_string(&span), fs::read_to_string(&suite))
    else {
        violations.push(Violation {
            file: PathBuf::from("crates/trace/src/span.rs"),
            line: 1,
            rule: "phase-coverage",
            message: "cannot read span.rs / trace_reconcile.rs".to_string(),
        });
        return;
    };
    let variants = phase_variants(&blank_noncode(&span_src));
    if variants.is_empty() {
        violations.push(Violation {
            file: PathBuf::from("crates/trace/src/span.rs"),
            line: 1,
            rule: "phase-coverage",
            message: "found no `Phase` variants to check".to_string(),
        });
        return;
    }
    for v in variants {
        if !suite_src.contains(&format!("Phase::{v}")) {
            violations.push(Violation {
                file: PathBuf::from("crates/shard/tests/trace_reconcile.rs"),
                line: 1,
                rule: "phase-coverage",
                message: format!("`Phase::{v}` is never referenced by the reconciliation suite"),
            });
        }
    }
}

/// Variant identifiers of `pub enum Phase {{ ... }}` in blanked source.
fn phase_variants(cleaned: &str) -> Vec<String> {
    let Some(start) = cleaned.find("pub enum Phase") else {
        return Vec::new();
    };
    let Some(open) = cleaned[start..].find('{').map(|i| start + i) else {
        return Vec::new();
    };
    let Some(close) = matching_brace(cleaned, open) else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let body = &cleaned[open + 1..close];
    // Variants in this enum are unit-like: an identifier followed by a
    // comma at depth 0 (attributes were blanked along with comments?
    // no — attributes survive, but this enum carries none on variants).
    for piece in body.split(',') {
        let ident: String = piece
            .chars()
            .skip_while(|c| !c.is_ascii_alphabetic())
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if !ident.is_empty() && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            variants.push(ident);
        }
    }
    variants
}

/// Rule 4: the lines of `source` that name a host-thread API outside
/// `#[cfg(test)]` items (`cleaned` is `source` with non-code blanked).
fn host_thread_lines(source: &str, cleaned: &str) -> Vec<usize> {
    let exempt = cfg_test_ranges(cleaned);
    let mut lines: Vec<usize> = ["thread::scope", "thread::spawn", "std::thread"]
        .iter()
        .flat_map(|token| find_token(cleaned, token))
        .filter(|offset| !exempt.iter().any(|r| r.contains(offset)))
        .map(|offset| line_of(source, offset))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Whether the file falls under the determinism and host-thread rules.
fn is_simulation_src(rel: &Path) -> bool {
    if rel.starts_with("crates/xtask") || rel.starts_with("vendor") {
        return false;
    }
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match comps.next().as_deref() {
        Some("src") | Some("examples") => true,
        Some("crates") => {
            comps.next(); // crate name (xtask excluded above)
            comps.next().as_deref() == Some("src")
        }
        _ => false,
    }
}

/// Byte ranges covered by `#[cfg(test)]`-gated items (the attribute's
/// following brace block).
fn cfg_test_ranges(cleaned: &str) -> Vec<std::ops::Range<usize>> {
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
fn line_of(source: &str, offset: usize) -> usize {
    source[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

/// The workspace root (xtask lives at `<root>/crates/xtask`).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Immediate subdirectories of `dir` (the member crates).
fn crate_dirs(dir: &Path) -> Vec<PathBuf> {
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
fn rust_files_under(base: &Path, subs: &[&str]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for sub in subs {
        collect_rs(&base.join(sub), &mut files);
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Blanks comments and string/char literals with spaces (newlines and
/// offsets preserved), so token scans only see real code.
fn blank_noncode(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
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

    #[test]
    fn blanking_strips_comments_strings_chars_but_keeps_code() {
        let src = r##"
let a = x.unwrap(); // .expect( in a comment
let s = "Instant::now inside a string";
let r = r#"thread::spawn raw"#;
let c = 'x';
let esc = '\n';
let lt: &'static str = "y";
"##;
        let cleaned = blank_noncode(src);
        assert_eq!(cleaned.len(), src.len());
        assert!(cleaned.contains(".unwrap()"));
        assert!(!cleaned.contains("Instant::now"));
        assert!(!cleaned.contains("thread::spawn"));
        assert!(!cleaned.contains(".expect("));
        assert!(cleaned.contains("&'static str"));
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
    fn host_threads_are_flagged_outside_comments_strings_and_test_modules() {
        let src = "// thread::scope in a comment\n\
                   fn a() { let s = \"thread::spawn in a string\"; }\n\
                   fn b() { std::thread::scope(|_| ()); }\n\
                   #[cfg(test)]\nmod tests { fn c() { std::thread::scope(|_| ()); } }\n";
        assert_eq!(host_thread_lines(src, &blank_noncode(src)), vec![3]);
    }

    #[test]
    fn phase_variants_parse_the_real_enum() {
        let src =
            "pub enum Phase {\n    /// doc\n    Routed,\n    WavePrepare,\n    Recovery,\n}\n";
        let variants = phase_variants(&blank_noncode(src));
        assert_eq!(variants, vec!["Routed", "WavePrepare", "Recovery"]);
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        assert!(run(), "the workspace must pass its own lint");
    }
}
