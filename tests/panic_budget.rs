//! Panic budget: the engine's library code may not gain `.unwrap()`,
//! `.expect(`, `panic!` or `unreachable!` sites.
//!
//! A site counts when it sits on a non-comment line before its file's first
//! top-level `#[cfg(test)]`, so in-file tests are free to unwrap. Each crate
//! has a committed budget; the test fails when a crate's count rises above
//! it. A change that removes sites lowers the budget with it.

use std::fs;
use std::path::{Path, PathBuf};

/// Committed site counts per crate under `crates/`.
const BUDGET: &[(&str, usize)] = &[
    ("core", 6),
    ("storage", 3),
    ("wal", 0),
    ("txn", 1),
    ("server", 0),
    ("index", 0),
];

const PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Panic sites in the library code of one source file.
fn sites(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| PATTERNS.iter().map(move |p| line.matches(p).count()))
        .sum()
}

#[test]
fn counting_skips_comments_and_in_file_tests() {
    let source = "fn a() { x.unwrap(); y.expect(\"y\").unwrap(); }\n\
                  // z.unwrap()\n\
                  \x20   /// panic!(\"doc\")\n\
                  fn b() { unreachable!() }\n\
                  #[cfg(test)]\n\
                  mod tests { fn c() { panic!() } }\n";
    assert_eq!(sites(source), 4);
}

#[test]
fn library_code_stays_within_its_panic_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut over = Vec::new();
    for &(krate, budget) in BUDGET {
        let mut files = Vec::new();
        rust_files(&crates.join(krate).join("src"), &mut files);
        assert!(!files.is_empty(), "no sources found for crate {krate}");
        let count: usize = files
            .iter()
            .map(|f| sites(&fs::read_to_string(f).unwrap()))
            .sum();
        if count > budget {
            over.push(format!("{krate}: {count} sites, budget {budget}"));
        }
    }
    assert!(
        over.is_empty(),
        "panic sites above budget (return an error instead): {over:?}"
    );
}
