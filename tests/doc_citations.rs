//! Every citation of an EXPERIMENTS.md section names a heading that
//! exists.
//!
//! A citation is `EXPERIMENTS.md` followed by an optional comma and a
//! double-quoted name, in README.md, DESIGN.md, ROADMAP.md, the verify
//! skill, or a comment under `crates/`. The name resolves if it is a
//! heading of EXPERIMENTS.md, or the part of one before its ` — `.
//! CHANGES.md is history and is not read.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// EXPERIMENTS.md's headings, without their `#`s, skipping fenced code.
fn headings() -> Vec<String> {
    let text = fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut fenced = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            out.push(line.trim_start_matches('#').trim().to_string());
        }
    }
    out
}

/// The names cited in `text`, which has its line breaks folded into
/// spaces so a citation may wrap.
fn citations(text: &str) -> Vec<String> {
    const KEY: &str = "EXPERIMENTS.md";
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        rest = &rest[at + KEY.len()..];
        let after = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        if let Some(quoted) = after.strip_prefix('"') {
            if let Some(end) = quoted.find('"') {
                let name = quoted[..end].split_whitespace().collect::<Vec<_>>();
                out.push(name.join(" "));
            }
        }
    }
    out
}

/// A Rust file's comment text: each `//`, `//!` or `///` line's body.
fn comments(source: &str) -> String {
    let mut out = String::new();
    for line in source.lines() {
        if let Some(at) = line.find("//") {
            out.push_str(line[at..].trim_start_matches('/').trim_start_matches('!'));
            out.push(' ');
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn resolves(name: &str, headings: &[String]) -> bool {
    headings.iter().any(|h| {
        h == name
            || h.strip_prefix(name)
                .is_some_and(|tail| tail.starts_with(" — "))
    })
}

#[test]
fn every_cited_section_is_a_heading() {
    let headings = headings();
    assert!(
        headings
            .iter()
            .any(|h| h.starts_with("Summary of reproduction status")),
        "EXPERIMENTS.md lost its summary heading: {headings:?}"
    );
    let mut cited = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let folded = text.lines().collect::<Vec<_>>().join(" ");
        cited.extend(citations(&folded).into_iter().map(|c| (doc.to_string(), c)));
    }
    let mut sources = Vec::new();
    rust_files(&root().join("crates"), &mut sources);
    for path in sources {
        let text = fs::read_to_string(&path).expect("a UTF-8 source file");
        let shown = path
            .strip_prefix(root())
            .unwrap_or(&path)
            .display()
            .to_string();
        cited.extend(
            citations(&comments(&text))
                .into_iter()
                .map(|c| (shown.clone(), c)),
        );
    }
    assert!(
        cited.len() >= 10,
        "the scan found only {} citations: {cited:?}",
        cited.len()
    );
    let broken: Vec<_> = cited
        .iter()
        .filter(|(_, name)| !resolves(name, &headings))
        .collect();
    assert!(
        broken.is_empty(),
        "citations of EXPERIMENTS.md sections that do not exist: {broken:?}"
    );
}

#[test]
fn a_citation_is_read_across_a_line_break_and_after_a_comma() {
    let text = "see EXPERIMENTS.md, \"Server  soak\" and EXPERIMENTS.md \"A\" but not EXPERIMENTS.md alone";
    assert_eq!(citations(text), ["Server soak", "A"]);
    let headings = ["Figure 8 — average search time".to_string()];
    assert!(resolves("Figure 8", &headings));
    assert!(resolves("Figure 8 — average search time", &headings));
    assert!(!resolves("Figure", &headings));
    assert!(!resolves("Figure 8 — average", &headings));
}
