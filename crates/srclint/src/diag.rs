//! Diagnostics: what a lint reports, and how the report is rendered
//! for humans (`file:line:col`) and for machines (`--format json`,
//! hand-rolled since the workspace is std-only).

use std::path::{Path, PathBuf};

/// One finding, anchored to a source position. Every finding is an
/// error: it fails the run.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint slug, e.g. `fsync-before-rename`, or `guard` for a guard
    /// row.
    pub lint: &'static str,
    /// Path relative to the workspace root when possible.
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    /// `file:line:col: error[lint] message` — one line, clickable in
    /// most terminals and editors, and the shape CI's problem matcher
    /// reads.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: error[{}] {}",
            self.file.display(),
            self.line,
            self.col,
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
/// on our side. `report-v3` is v2 without `files_linted`,
/// `suppressions` and the summary's `warnings`: every run lints every
/// file it scans, no comment suppresses a finding, and every finding
/// is an error (its `severity` always reads `error`).
pub fn render_json(report: &crate::Report) -> String {
    let diags = &report.diagnostics;
    let mut out = String::from("{\n  \"schema\": \"srclint/report-v3\",\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"elapsed_ms\": {},\n",
        report.files_scanned, report.elapsed_ms
    ));
    out.push_str(&format!(
        "  \"summary\": {{ \"total\": {0}, \"errors\": {0} }},\n",
        diags.len()
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"lint\": \"{}\", \"severity\": \"error\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\" }}",
            json_escape(d.lint),
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
        assert!(s.contains("\"schema\": \"srclint/report-v3\""));
        assert!(s.contains("\"files_scanned\": 7"));
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
