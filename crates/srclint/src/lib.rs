//! srclint — the workspace's own static-analysis pass.
//!
//! rustc and clippy check Rust's invariants; srclint checks *ours*:
//! the discipline this codebase has accumulated that only reviewer
//! memory enforced before. It is a std-only tool (hand-rolled lexer,
//! no syn/proc-macro) so it builds in the same offline environment
//! as everything else, and it runs in CI next to clippy:
//!
//! ```text
//! cargo run -p srclint -- --deny            # whole workspace, CI mode
//! cargo run -p srclint -- --format json     # machine-readable report
//! cargo run -p srclint -- --changed         # per-file lints on the git diff only
//! cargo run -p srclint -- path/to/file.rs   # just these operands
//! ```
//!
//! The run has two stages. The per-file suite (`fsync-before-rename`,
//! `metric-name-registry`, and the [`guard`](guards) table, which reads
//! manifests too) sees one [`FileContext`](context::FileContext) at a
//! time. The cross-file lint (`atomic-ordering`) then runs over the
//! [workspace model](model) — every atomic site, grouped by field
//! workspace-wide — because a field's class is set by every site that
//! touches it. Findings are suppressed line-by-line with
//! `// srclint:allow(<lint>): <one-line justification>` — the
//! justification is convention, but the lint name is checked: an allow
//! naming no registered lint is itself a finding (`stale-allow`), so a
//! retired lint's comments cannot linger. No allow suppresses a guard.

#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod context;
pub mod diag;
pub mod guards;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod walker;

pub use diag::{render_json, Diagnostic, Severity};

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
    /// When set, per-file findings are restricted to files named by
    /// `git diff --name-only <ref>`. The whole workspace is still
    /// lexed — the cross-file passes need the full model — and when
    /// git is unavailable the restriction silently widens to a full
    /// run rather than reporting nothing.
    pub changed_ref: Option<String>,
}

impl Config {
    /// Lint everything under `root`.
    pub fn workspace(root: PathBuf) -> Config {
        Config {
            root,
            paths: Vec::new(),
            changed_ref: None,
        }
    }
}

/// A finished run.
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Rust files lexed and modeled (the full set, under `--changed`
    /// too).
    pub files_scanned: usize,
    /// Files the per-file suite reported on (smaller than
    /// `files_scanned` only under `--changed`).
    pub files_linted: usize,
    /// `srclint:allow` comments across the linted files.
    pub suppressions: usize,
    /// Wall-clock for walk + lex + both suites.
    pub elapsed_ms: u64,
}

impl Report {
    /// Does the report fail the run? `deny` escalates warnings.
    pub fn is_failure(&self, deny: bool) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny || (deny && d.severity == Severity::Warn))
    }
}

/// Runs the full suite over `config`'s file set.
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
    let changed = config
        .changed_ref
        .as_deref()
        .and_then(|r| walker::git_changed_files(&config.root, r));

    let suite = lints::all();
    let mut diagnostics = Vec::new();
    let mut files_linted = 0usize;
    let mut suppressions = 0usize;
    let mut contexts = Vec::with_capacity(files.len());
    for path in files {
        let src = String::from_utf8_lossy(&fs::read(&path)?).into_owned();
        let ctx = FileContext::new(&path, src);
        let lint_this = match &changed {
            Some(set) => set.contains(&ctx.path),
            None => true,
        };
        if lint_this {
            guards::check(&ctx, &config.root, &mut diagnostics);
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue; // a manifest or the lockfile: guard rows only
        }
        if lint_this {
            files_linted += 1;
            suppressions += ctx.suppression_count();
            for (t, name) in ctx.stale_allows() {
                diagnostics.push(Diagnostic {
                    lint: "stale-allow",
                    severity: Severity::Deny,
                    file: ctx.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`srclint:allow({name})` names no registered lint and suppresses \
                         nothing — delete it ({})",
                        if name == guards::LINT {
                            "a guard row takes no allow: restore what the row keeps deleted"
                        } else {
                            "a retired lint's check lives in clippy, a test or a guard row now"
                        }
                    ),
                });
            }
            for lint in &suite {
                (lint.check)(&ctx, &meta, &mut diagnostics);
            }
        }
        contexts.push(ctx);
    }

    // Cross-file stage: always over the full model — an atomic
    // field's class is a workspace property, not a diff one.
    let atomics = model::build(&contexts);
    for lint in lints::workspace_all() {
        (lint.check)(&contexts, &atomics, &meta, &mut diagnostics);
    }

    for d in &mut diagnostics {
        d.file = diag::relativize(&d.file, &config.root);
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(Report {
        diagnostics,
        files_scanned: contexts.len(),
        files_linted,
        suppressions,
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
    run(&Config::workspace(root))
}
