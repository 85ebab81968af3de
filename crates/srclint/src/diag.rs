//! Diagnostics: what a lint reports, how severe it is, and how the
//! report is rendered for humans (`file:line:col`) and for machines
//! (`--format json`, hand-rolled since the workspace is std-only).

use std::fmt;
use std::path::{Path, PathBuf};

/// How bad a finding is. `Deny` findings always fail the run;
/// `Warn` findings fail it only under `--deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warn => "warning",
            Severity::Deny => "error",
        })
    }
}

/// One finding, anchored to a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint slug, e.g. `fsync-before-rename` — the name `srclint:allow`
    /// comments refer to.
    pub lint: &'static str,
    pub severity: Severity,
    /// Path relative to the workspace root when possible.
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    /// `file:line:col: severity[lint] message` — one line, clickable
    /// in most terminals and editors.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: {}[{}] {}",
            self.file.display(),
            self.line,
            self.col,
            self.severity,
            self.lint,
            self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The full report as a JSON document: a stable schema CI can upload
/// as an artifact and scripts can consume without a JSON dependency
/// on our side. `report-v2` extends v1 with `files_linted` (differs
/// from `files_scanned` under `--changed`), the workspace-wide
/// `srclint:allow` suppression count, and wall-clock timing; every
/// v1 field keeps its name and shape.
pub fn render_json(report: &crate::Report) -> String {
    let diags = &report.diagnostics;
    let mut out = String::from("{\n  \"schema\": \"srclint/report-v2\",\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"files_linted\": {},\n  \"suppressions\": {},\n  \"elapsed_ms\": {},\n",
        report.files_scanned, report.files_linted, report.suppressions, report.elapsed_ms
    ));
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    out.push_str(&format!(
        "  \"summary\": {{ \"total\": {}, \"errors\": {}, \"warnings\": {} }},\n",
        diags.len(),
        errors,
        diags.len() - errors
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\" }}",
            json_escape(d.lint),
            d.severity,
            json_escape(&d.file.display().to_string()),
            d.line,
            d.col,
            json_escape(&d.message)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Re-anchors a diagnostic path relative to `root` for stable output
/// across machines; falls back to the absolute path when the file is
/// outside the workspace (explicit CLI operands).
pub fn relativize(path: &Path, root: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            lint: "fsync-before-rename",
            severity: Severity::Deny,
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 3,
            col: 9,
            message: "`rename` with no sync before it".into(),
        }
    }

    fn report(diags: Vec<Diagnostic>) -> crate::Report {
        crate::Report {
            diagnostics: diags,
            files_scanned: 7,
            files_linted: 7,
            suppressions: 2,
            elapsed_ms: 12,
        }
    }

    #[test]
    fn human_line_is_clickable() {
        assert_eq!(
            diag().render_human(),
            "crates/x/src/lib.rs:3:9: error[fsync-before-rename] `rename` with no sync before it"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = render_json(&report(vec![diag()]));
        assert!(s.contains("\"schema\": \"srclint/report-v2\""));
        assert!(s.contains("\"files_scanned\": 7"));
        assert!(s.contains("\"files_linted\": 7"));
        assert!(s.contains("\"suppressions\": 2"));
        assert!(s.contains("\"elapsed_ms\": 12"));
        assert!(s.contains("\"errors\": 1"));
        assert!(s.contains("crates/x/src/lib.rs"));
        // Balanced braces: a cheap structural sanity check.
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced braces in {s}"
        );
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let mut d = diag();
        d.message = "name \"x\"\nnext".into();
        let s = render_json(&report(vec![d]));
        assert!(s.contains("name \\\"x\\\"\\nnext"));
    }
}
