//! The workspace is srclint-clean: every invariant in DESIGN.md §13
//! holds across every crate, so a violation fails `cargo test` even
//! before CI's dedicated `srclint` step runs.

use std::path::Path;

#[test]
fn workspace_has_no_srclint_findings() {
    let report =
        srclint::run_workspace(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace lints");
    assert!(
        report.files_scanned > 100,
        "walker regressed: only {} files scanned",
        report.files_scanned
    );
    assert!(
        !report.is_failure(),
        "srclint findings in the workspace:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.render_human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
