//! Fixture-driven positive/negative tests for every lint and guard row,
//! plus exit-code checks on the built binary. Fixtures live in
//! `tests/fixtures/` (excluded from the workspace walk) and pose as
//! workspace files via the `// srclint-fixture: path=` header.

use srclint::{run, Config, Diagnostic};
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

/// Every fixture whose name starts with `prefix`, sorted.
fn fixtures(prefix: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(prefix))
        .collect();
    names.sort();
    names
}

/// Lints one fixture.
fn diagnostics(name: &str) -> Vec<Diagnostic> {
    let report = run(&Config {
        root: workspace_root(),
        paths: vec![fixture(name)],
        changed_ref: None,
    })
    .expect("fixture lints");
    report.diagnostics
}

/// Lints one fixture and returns `(lint, line)` per finding.
fn findings(name: &str) -> Vec<(String, u32)> {
    let found = diagnostics(name).into_iter();
    found.map(|d| (d.lint.to_string(), d.line)).collect()
}

// ---------------------------------------------------------------- good

#[test]
fn good_fixtures_are_clean() {
    let good = fixtures("good_");
    assert!(good.len() >= 8, "{good:?}");
    for name in good {
        let found = findings(&name);
        assert!(found.is_empty(), "{name} should be clean, got {found:?}");
    }
}

// ----------------------------------------------------------------- bad

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
fn bad_guard_lock_field_flags_every_new_lock() {
    // A new `Mutex` field and a new `RwLock` field behind an `Arc` fail
    // the row; a kept field's declaration does not.
    let found = findings("bad_guard_lock_field.rs");
    assert!(found.iter().all(|(l, _)| l == "guard"), "{found:?}");
    let lines: Vec<u32> = found.iter().map(|&(_, line)| line).collect();
    assert_eq!(lines, [7, 8], "{found:?}");
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

/// Lints one fixture and returns the message of every guard finding.
fn guard_messages(name: &str) -> Vec<String> {
    let guards = diagnostics(name).into_iter().filter(|d| d.lint == "guard");
    guards.map(|d| d.message).collect()
}

#[test]
fn every_guard_row_fails_on_a_bad_fixture() {
    // Each bad guard fixture poses as a workspace file; together they
    // break every row of the table, and each breaks at least one.
    let mut messages = Vec::new();
    for name in fixtures("bad_guard_") {
        let found = guard_messages(&name);
        assert!(!found.is_empty(), "{name} breaks no guard row");
        messages.extend(found);
    }
    let rows = srclint::guards::GUARDS;
    for (i, row) in rows.iter().enumerate() {
        let tail = format!("({})", row.why);
        assert!(
            rows.iter().filter(|r| r.why == row.why).count() == 1,
            "row {i}'s reason is not unique: {}",
            row.why
        );
        assert!(
            messages.iter().any(|m| m.ends_with(&tail)),
            "no bad fixture breaks row {i} ({})",
            row.why
        );
    }
}

#[test]
fn no_allow_comment_suppresses_a_guard_row() {
    // An allow naming `guard` names no lint, so it is itself a finding,
    // and neither it nor the `all` wildcard hides the rows below them.
    let found = findings("bad_guard_unsuppressed.rs");
    let expected = [("stale-allow", 2), ("guard", 4), ("guard", 9)];
    let expected: Vec<(String, u32)> = expected.map(|(l, n)| (l.to_string(), n)).to_vec();
    assert_eq!(found, expected);
    // The allow's finding gives the guard table's reason, not a
    // retired lint's.
    let stale: Vec<String> = diagnostics("bad_guard_unsuppressed.rs")
        .into_iter()
        .filter(|d| d.lint == "stale-allow")
        .map(|d| d.message)
        .collect();
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(
        stale[0].contains("a guard row takes no allow") && !stale[0].contains("retired lint"),
        "{stale:?}"
    );
}

#[test]
fn guard_rows_read_comments_strings_and_field_shapes() {
    // A retired lint is found in a doc comment and inside a list; a
    // span name is found as a string literal; a field is found by name
    // with or without `pub(crate)`, and by type.
    let allow = guard_messages("bad_guard_allow.rs");
    assert_eq!(allow.len(), 2, "{allow:?}");
    let sharded = guard_messages("bad_guard_sharded.rs");
    assert!(
        sharded.iter().any(|m| m.starts_with("`\"shard_lock\"")),
        "{sharded:?}"
    );
    let maps = findings("bad_guard_hashed_maps.rs");
    assert_eq!(
        maps.iter()
            .filter(|(_, line)| *line == 8 || *line == 9)
            .count(),
        2,
        "{maps:?}"
    );
    let tree = guard_messages("bad_guard_tree.rs");
    assert!(tree.iter().any(|m| m.contains("placements")), "{tree:?}");
}

#[test]
fn design_md_names_every_kept_lock_field() {
    // The guard row's list of kept lock fields and DESIGN.md §18's
    // "Locks", which says where each one nests, must name the same
    // fields: a lock added to one and not the other fails here.
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let (_, locks) = design.split_once("\n### Locks\n").expect("§18 has `Locks`");
    let locks = &locks[..locks.find("\n### ").expect("a section follows")];
    let kept = srclint::guards::LOCKS.split('|');
    let names: Vec<&str> = kept.map(|d| d.split(':').next().expect("name")).collect();
    assert_eq!(names.len(), 5, "{names:?}");
    for name in names {
        assert!(locks.contains(&format!("{name}`")), "`Locks` lost `{name}`");
    }
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
        "predindex_attr_stab_nodes_total",
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
    // Every fixture in the directory, so a new one is checked the day
    // it is added.
    let (bad, good) = (fixtures("bad_"), fixtures("good_"));
    assert_eq!(
        bad.len() + good.len(),
        fixtures("").len(),
        "a fixture is neither bad_ nor good_"
    );
    for name in bad {
        let (code, _) = run_bin(&["--deny", fixture(&name).to_str().expect("utf8 path")]);
        assert_eq!(code, 1, "{name} should fail --deny");
    }
    for name in good {
        let (code, out) = run_bin(&["--deny", fixture(&name).to_str().expect("utf8 path")]);
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
