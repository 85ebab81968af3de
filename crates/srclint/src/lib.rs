//! srclint — the workspace's own static-analysis pass.
//!
//! rustc and clippy check Rust's invariants; srclint checks *ours*:
//! the discipline this codebase has accumulated that only reviewer
//! memory enforced before. It is a std-only tool (hand-rolled lexer,
//! no syn/proc-macro) so it builds in the same offline environment
//! as everything else, and it runs in CI next to clippy:
//!
//! ```text
//! cargo run -p srclint                      # whole workspace
//! cargo run -p srclint -- --format json     # machine-readable report
//! cargo run -p srclint -- path/to/file.rs   # just these operands
//! ```
//!
//! The run is one pass: each file is lexed into a
//! [`FileContext`](context::FileContext) and read by the two lints
//! (`fsync-before-rename`, `metric-name-registry`) and by the
//! [`guard`](guards) table, which reads manifests too. Every finding
//! is an error, and no comment suppresses one.

#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod context;
pub mod diag;
pub mod guards;
pub mod lexer;
pub mod lints;
pub mod walker;

pub use diag::{render_json, Diagnostic};

use context::FileContext;
use lints::WorkspaceMeta;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to lint and from where.
pub struct Config {
    /// Workspace root; diagnostics are reported relative to it and
    /// DESIGN.md is read from it.
    pub root: PathBuf,
    /// Explicit operands; empty means "walk the workspace".
    pub paths: Vec<PathBuf>,
}

/// A finished run.
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Rust files lexed and linted.
    pub files_scanned: usize,
    /// Wall-clock for walk + lex + lints.
    pub elapsed_ms: u64,
}

impl Report {
    /// Does the report fail the run? Any finding does.
    pub fn is_failure(&self) -> bool {
        !self.diagnostics.is_empty()
    }
}

/// Runs the lints and the guard table over `config`'s file set.
pub fn run(config: &Config) -> io::Result<Report> {
    let started = Instant::now();
    let files = if config.paths.is_empty() {
        walker::workspace_files(&config.root)?
    } else {
        walker::expand_paths(&config.paths)?
    };
    let design = fs::read_to_string(config.root.join("DESIGN.md")).ok();
    let meta = WorkspaceMeta {
        metric_families: design
            .as_deref()
            .and_then(lints::metric_names_design_families),
    };

    let suite = lints::all();
    let mut diagnostics = Vec::new();
    let mut files_scanned = 0usize;
    for path in files {
        let src = String::from_utf8_lossy(&fs::read(&path)?).into_owned();
        let ctx = FileContext::new(&path, src);
        guards::check(&ctx, &config.root, &mut diagnostics);
        if path.extension().is_none_or(|e| e != "rs") {
            continue; // a manifest or the lockfile: guard rows only
        }
        files_scanned += 1;
        for lint in &suite {
            (lint.check)(&ctx, &meta, &mut diagnostics);
        }
    }

    for d in &mut diagnostics {
        d.file = diag::relativize(&d.file, &config.root);
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(Report {
        diagnostics,
        files_scanned,
        elapsed_ms: started.elapsed().as_millis() as u64,
    })
}

/// Convenience for tests: lint the workspace containing `start`.
pub fn run_workspace(start: &Path) -> io::Result<Report> {
    let root = walker::find_workspace_root(start).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "no [workspace] Cargo.toml above start",
        )
    })?;
    run(&Config {
        root,
        paths: Vec::new(),
    })
}
