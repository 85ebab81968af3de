//! Fixture-driven positive/negative tests for every lint, plus
//! exit-code checks on the built binary. Fixtures live in
//! `tests/fixtures/` (excluded from the workspace walk) and pose as
//! workspace files via the `// srclint-fixture:` header.

use srclint::{run, Config};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    srclint::walker::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the srclint crate")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints one fixture and returns `(lint, line)` per finding.
fn findings(name: &str) -> Vec<(String, u32)> {
    let report = run(&Config {
        root: workspace_root(),
        paths: vec![fixture(name)],
        changed_ref: None,
    })
    .expect("fixture lints");
    report
        .diagnostics
        .iter()
        .map(|d| (d.lint.to_string(), d.line))
        .collect()
}

// ---------------------------------------------------------------- good

#[test]
fn good_fixtures_are_clean() {
    for name in [
        "good_lock_discipline.rs",
        "good_fsync_rename.rs",
        "good_metric_names.rs",
        "good_lexer_edges.rs",
        "good_lock_order.rs",
        "good_atomic_ordering.rs",
    ] {
        let found = findings(name);
        assert!(found.is_empty(), "{name} should be clean, got {found:?}");
    }
}

// ----------------------------------------------------------------- bad

#[test]
fn bad_lock_discipline_flags_raw_and_double_acquisition() {
    let found = findings("bad_lock_discipline.rs");
    // The double-guard fn also trips the cross-file lock-order pass
    // (a shard-while-shard edge) — assert both lints see it.
    let discipline: Vec<_> = found
        .iter()
        .filter(|(l, _)| l == "lock-discipline")
        .collect();
    // One raw `.read()` outside the helpers, one second-guard site.
    assert_eq!(discipline.len(), 2, "{found:?}");
    assert!(
        found.iter().any(|(l, _)| l == "lock-order"),
        "nested shard guards should also be a lock-order finding: {found:?}"
    );
}

#[test]
fn bad_fsync_rename_flags_unsynced_and_late_sync() {
    let found = findings("bad_fsync_rename.rs");
    assert!(found.iter().all(|(l, _)| l == "fsync-before-rename"));
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn bad_metric_names_flags_every_shape() {
    let found = findings("bad_metric_names.rs");
    assert!(found.iter().all(|(l, _)| l == "metric-name-registry"));
    // missing _total, bad grammar, interpolated family, non-literal,
    // and a conforming name absent from DESIGN.md's table.
    assert_eq!(found.len(), 5, "{found:?}");
}

#[test]
fn bad_lock_order_flags_backward_self_unranked_and_transitive() {
    let found = findings("bad_lock_order.rs");
    assert!(found.iter().all(|(l, _)| l == "lock-order"), "{found:?}");
    // Backward direct edge, re-acquisition, an unranked class, and a
    // backward edge reached through a call.
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn bad_atomic_ordering_flags_every_class() {
    let found = findings("bad_atomic_ordering.rs");
    assert!(
        found.iter().all(|(l, _)| l == "atomic-ordering"),
        "{found:?}"
    );
    // SeqCst counter RMW, SeqCst flag store + load, Relaxed
    // publication store.
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn bad_stale_allow_flags_a_comment_naming_no_lint() {
    // A retired lint's comment (or a typo) suppresses nothing; the
    // live name on the same fixture's other comment is not a finding.
    let found = findings("bad_stale_allow.rs");
    assert_eq!(found, [("stale-allow".to_string(), 4)], "{found:?}");
}

#[test]
fn scoped_thread_closures_own_their_acquisitions() {
    // The scoped fan-out shape in good_lock_discipline.rs: one guard in
    // the fn plus one per spawned closure must NOT count as multiple
    // acquisition sites in one scope.
    let found = findings("good_lock_discipline.rs");
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn design_md_lock_order_table_is_present_and_parsed() {
    // The deadlock guard must be armed: if DESIGN.md loses the
    // canonical-order table, every edge check silently vanishes
    // (well — loudly, but via a different finding; this pins the
    // parse itself).
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let meta = srclint::lints::WorkspaceMeta {
        root: workspace_root(),
        design: Some(design),
        metric_families: None,
    };
    let order = srclint::lints::lock_order_canonical_order(&meta)
        .expect("DESIGN.md has a parseable canonical lock-order table");
    for (krate, ident) in [
        ("predindex", "shards"),
        ("predindex", "unindexed"),
        ("telemetry", "accounts"),
        ("telemetry", "names"),
        ("telemetry", "metrics"),
        ("telemetry", "ring"),
    ] {
        assert!(
            order.contains_key(&(krate.to_string(), ident.to_string())),
            "table lost `{krate}.{ident}`"
        );
    }
    // Ranks must actually order the hierarchy the workspace uses.
    let rank = |k: &str, i: &str| order[&(k.to_string(), i.to_string())];
    assert!(rank("predindex", "shards") < rank("predindex", "unindexed"));
    assert!(rank("telemetry", "accounts") < rank("telemetry", "names"));
    assert!(rank("telemetry", "names") < rank("telemetry", "metrics"));
}

#[test]
fn design_md_table_is_present_and_parsed() {
    // The registry cross-check must be armed: if DESIGN.md loses its
    // metric-families table, absent-family findings silently vanish.
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let families = srclint::lints::metric_names_design_families(&design)
        .expect("DESIGN.md has a parseable metric-families table");
    for expected in [
        "predindex_match_tuples_total",
        "predindex_shard_lock_wait_nanos",
        "rules_fired_total",
        "wal_fsync_nanos",
        "durable_recovery_frames_total",
    ] {
        assert!(families.contains(expected), "table lost `{expected}`");
    }
}

// -------------------------------------------------------------- binary

fn run_bin(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_srclint"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("binary runs");
    let code = out.status.code().expect("exit code");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (code, stdout)
}

#[test]
fn deny_exits_nonzero_on_each_bad_fixture_and_zero_on_good() {
    for name in [
        "bad_lock_discipline.rs",
        "bad_fsync_rename.rs",
        "bad_metric_names.rs",
        "bad_lock_order.rs",
        "bad_atomic_ordering.rs",
        "bad_stale_allow.rs",
    ] {
        let (code, _) = run_bin(&["--deny", fixture(name).to_str().expect("utf8 path")]);
        assert_eq!(code, 1, "{name} should fail --deny");
    }
    for name in [
        "good_metric_names.rs",
        "good_lock_order.rs",
        "good_atomic_ordering.rs",
    ] {
        let (code, out) = run_bin(&["--deny", fixture(name).to_str().expect("utf8 path")]);
        assert_eq!(code, 0, "{name} should pass --deny: {out}");
    }
}

#[test]
fn changed_mode_restricts_per_file_stage_but_stays_clean() {
    // --changed narrows the per-file stage to the git diff; the
    // cross-file stage still sees the whole workspace. Either way the
    // tree must be clean. When git is unavailable the run widens to a
    // full walk, so this asserts the same invariant in both worlds.
    let (code, out) = run_bin(&["--deny", "--changed"]);
    assert_eq!(code, 0, "--changed run should be clean: {out}");
    let (code_json, json) = run_bin(&["--changed", "--format", "json"]);
    assert_eq!(code_json, 0);
    assert!(json.contains("\"files_linted\""), "{json}");
}

#[test]
fn json_report_is_well_formed() {
    let (code, out) = run_bin(&[
        "--format",
        "json",
        fixture("bad_fsync_rename.rs").to_str().expect("utf8 path"),
    ]);
    assert_eq!(code, 1);
    assert!(out.contains("\"schema\": \"srclint/report-v2\""), "{out}");
    assert!(out.contains("\"lint\": \"fsync-before-rename\""));
    assert!(out.contains("\"severity\": \"error\""));
    assert!(out.contains("\"files_linted\""), "{out}");
    assert!(out.contains("\"suppressions\""), "{out}");
    assert!(out.contains("\"elapsed_ms\""), "{out}");
    // Paths in the report are workspace-relative.
    assert!(out.contains("crates/srclint/tests/fixtures/bad_fsync_rename.rs"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let (code, _) = run_bin(&["--definitely-not-a-flag"]);
    assert_eq!(code, 2);
}
