//! Unused public items (`cargo run -p xtask -- api`).
//!
//! Lists every `pub fn`, `const`, `struct`, `enum`, `trait` and `type`
//! declared outside `cfg(test)` code in `crates/*/src` whose name, as a
//! token, appears nowhere but in its own file's test module and in
//! comments or strings. A use is an occurrence in the declaring file's
//! non-test code (the declaration itself aside) or anywhere in another
//! file under `crates/*/{src,tests,examples,benches}`, the facade's
//! `src/`, `tests/` and `examples/`, or the benchmark's `benchmark/src`.
//! A `pub use` re-export passes a name on and is not a use.
//! A name shared by two items counts as used by either, so the pass can
//! miss an unused item but never lists a used one.
//!
//! Prints one line per unused item and nothing on a clean tree; the
//! command exits non-zero when it lists anything.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lint::{blank_noncode, cfg_test_ranges, crate_dirs, line_of, rust_files_under};

/// One scanned source file.
struct Source {
    rel: PathBuf,
    text: String,
    /// Whether the file declares items the pass checks (`crates/*/src`).
    declares: bool,
}

/// A public item no code outside its own tests uses.
#[derive(Debug, PartialEq, Eq)]
struct Unused {
    file: PathBuf,
    line: usize,
    kind: &'static str,
    name: String,
}

/// Prints every unused public item under `root`; returns whether there
/// were none.
pub fn run(root: &Path) -> bool {
    let mut sources = Vec::new();
    for dir in crate_dirs(&root.join("crates")) {
        push_sources(root, &rust_files_under(&dir, &["src"]), true, &mut sources);
        let uses = rust_files_under(&dir, &["tests", "examples", "benches"]);
        push_sources(root, &uses, false, &mut sources);
    }
    let facade = rust_files_under(root, &["src", "tests", "examples"]);
    push_sources(root, &facade, false, &mut sources);
    let benchmark = rust_files_under(&root.join("benchmark"), &["src"]);
    push_sources(root, &benchmark, false, &mut sources);
    let unused = unused_items(&sources);
    for item in &unused {
        println!(
            "{}:{}: pub {} {} (used only by its own tests, or by nothing)",
            item.file.display(),
            item.line,
            item.kind,
            item.name
        );
    }
    unused.is_empty()
}

fn push_sources(root: &Path, paths: &[PathBuf], declares: bool, out: &mut Vec<Source>) {
    for path in paths {
        if let Ok(text) = fs::read_to_string(path) {
            let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
            out.push(Source {
                rel,
                text,
                declares,
            });
        }
    }
}

/// The declared public items of `sources` that nothing uses.
fn unused_items(sources: &[Source]) -> Vec<Unused> {
    let cleaned: Vec<String> = sources.iter().map(|s| blank_noncode(&s.text)).collect();
    // Every identifier token: name -> (file index, byte offset).
    let mut uses: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (file, code) in cleaned.iter().enumerate() {
        let reexports = reexport_ranges(code);
        for (offset, ident) in identifiers(code) {
            if !reexports.iter().any(|r| r.contains(&offset)) {
                uses.entry(ident).or_default().push((file, offset));
            }
        }
    }
    let mut unused = Vec::new();
    for (file, (source, code)) in sources.iter().zip(&cleaned).enumerate() {
        if !source.declares {
            continue;
        }
        let tests = cfg_test_ranges(code);
        let in_tests = |offset: &usize| tests.iter().any(|r| r.contains(offset));
        for (at, kind, name) in declarations(code) {
            if in_tests(&at) {
                continue;
            }
            let used = uses.get(name).is_some_and(|sites| {
                sites
                    .iter()
                    .any(|&(f, o)| f != file || (o != at && !in_tests(&o)))
            });
            if !used {
                unused.push(Unused {
                    file: source.rel.clone(),
                    line: line_of(&source.text, at),
                    kind,
                    name: name.to_string(),
                });
            }
        }
    }
    unused
}

/// Every identifier in blanked code with its byte offset (number
/// literals and their suffixes skipped).
fn identifiers(code: &str) -> Vec<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if !b.is_ascii_digit() {
                out.push((start, &code[start..i]));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Byte ranges of the `pub use …;` re-exports in blanked code: naming
/// an item there passes it on without using it.
fn reexport_ranges(code: &str) -> Vec<std::ops::Range<usize>> {
    let idents = identifiers(code);
    idents
        .windows(2)
        .filter(|w| w[0].1 == "pub" && w[1].1 == "use" && is_blank(&code[w[0].0 + 3..w[1].0]))
        .filter_map(|w| code[w[1].0..].find(';').map(|end| w[0].0..w[1].0 + end))
        .collect()
}

fn is_blank(text: &str) -> bool {
    text.chars().all(char::is_whitespace)
}

/// The `pub` items of blanked code: (offset of the name, kind, name).
/// `pub(crate)` and other restricted visibilities are not public.
fn declarations(code: &str) -> Vec<(usize, &'static str, &str)> {
    let idents = identifiers(code);
    let mut out = Vec::new();
    for (k, &(pub_at, word)) in idents.iter().enumerate() {
        // `pub` followed by whitespace, not `(`.
        let Some(&(after, _)) = idents.get(k + 1) else {
            continue;
        };
        if word != "pub" || !is_blank(&code[pub_at + 3..after]) {
            continue;
        }
        let mut j = k + 1;
        while idents
            .get(j)
            .is_some_and(|&(_, w)| matches!(w, "const" | "unsafe" | "async"))
            && idents
                .get(j + 1)
                .is_some_and(|&(_, w)| w == "fn" || w == "unsafe")
        {
            j += 1;
        }
        let kind = match idents.get(j).map(|&(_, w)| w) {
            Some("fn") => "fn",
            Some("const") => "const",
            Some("struct") => "struct",
            Some("enum") => "enum",
            Some("trait") => "trait",
            Some("type") => "type",
            _ => continue,
        };
        if let Some(&(at, name)) = idents.get(j + 1) {
            out.push((at, kind, name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(rel: &str, text: &str, declares: bool) -> Source {
        Source {
            rel: PathBuf::from(rel),
            text: text.to_string(),
            declares,
        }
    }

    #[test]
    fn an_item_used_only_by_its_own_tests_is_listed() {
        let lib = "pub fn lonely() -> u32 { 1 }\n\
                   pub(crate) fn hidden() {}\n\
                   #[cfg(test)]\nmod tests { fn t() { super::lonely(); } }\n";
        let other = source(
            "crates/a/src/main.rs",
            "// lonely in a comment\npub use crate::lib::{lonely, Other};\n",
            true,
        );
        let found = unused_items(&[source("crates/a/src/lib.rs", lib, true), other]);
        assert_eq!(
            found,
            vec![Unused {
                file: PathBuf::from("crates/a/src/lib.rs"),
                line: 1,
                kind: "fn",
                name: "lonely".to_string(),
            }]
        );
    }

    #[test]
    fn an_item_used_by_another_file_is_not_listed() {
        let lib = "pub struct Shared;\npub const fn shared_len() -> usize { 0 }\n";
        let user = "fn main() { let _ = (pushtap::Shared, shared_len()); }\n";
        let sources = [
            source("crates/a/src/lib.rs", lib, true),
            source("examples/demo.rs", user, false),
        ];
        assert!(unused_items(&sources).is_empty());
    }

    #[test]
    fn an_item_inside_cfg_test_is_ignored() {
        let lib = "pub fn used() {}\nfn caller() { used(); }\n\
                   #[cfg(test)]\nmod tests { pub fn helper() {} }\n";
        assert!(unused_items(&[source("crates/a/src/lib.rs", lib, true)]).is_empty());
    }

    #[test]
    fn the_workspace_has_no_unused_public_items() {
        let root = crate::lint::workspace_root();
        assert!(run(&root), "`cargo run -p xtask -- api` must list nothing");
    }
}
