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
    // The row forbids a new lock, not a deleted one come back, and its
    // finding says so.
    for message in guard_messages("bad_guard_lock_field.rs") {
        assert!(!message.contains("is back"), "{message}");
        assert!(message.contains("breaks a guard row"), "{message}");
    }
}

#[test]
fn bad_guard_atomics_fails_both_atomic_rows() {
    // A `SeqCst` counter, a `SeqCst` flag store and load: "no SeqCst".
    // A `Relaxed` store of a value that is not a `bool` literal: "one
    // atomic config word". The `Acquire` load breaks neither.
    let found = diagnostics("bad_guard_atomics.rs");
    assert!(found.iter().all(|d| d.lint == "guard"), "{found:?}");
    let rows = |tail: &str| -> Vec<u32> {
        let hits = found.iter().filter(|d| d.message.ends_with(tail));
        hits.map(|d| d.line).collect()
    };
    assert_eq!(
        rows("no SeqCst; counters and polled flags are Relaxed)"),
        [17, 21, 25]
    );
    assert_eq!(rows("a review of its ordering)"), [29]);
    assert_eq!(found.len(), 4, "{found:?}");
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
fn guard_rows_read_comments_strings_and_field_shapes() {
    // An allow comment is found in a doc comment and as a line
    // comment; a span name is found as a string literal; a field is found by name
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
fn design_md_names_every_reviewed_atomic_store() {
    // The same for the atomic stores of a non-`bool` value and
    // DESIGN.md §18's "Atomics", which says why each one's ordering
    // holds.
    let design = std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md");
    let (_, atomics) = design
        .split_once("\n### Atomics\n")
        .expect("§18 has `Atomics`");
    let atomics = atomics.split("\n## ").next().expect("text");
    let stores: Vec<&str> = srclint::guards::STORES.split('|').collect();
    assert_eq!(stores.len(), 2, "{stores:?}");
    for store in stores {
        assert!(atomics.contains(store), "`Atomics` lost `{store}`");
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
        let (code, _) = run_bin(&[fixture(&name).to_str().expect("utf8 path")]);
        assert_eq!(code, 1, "{name} should fail");
    }
    for name in good {
        let (code, out) = run_bin(&[fixture(&name).to_str().expect("utf8 path")]);
        assert_eq!(code, 0, "{name} should pass: {out}");
    }
}

#[test]
fn json_report_is_well_formed() {
    let (code, out) = run_bin(&[
        "--format",
        "json",
        fixture("bad_fsync_rename.rs").to_str().expect("utf8 path"),
    ]);
    assert_eq!(code, 1);
    assert!(out.contains("\"schema\": \"srclint/report-v3\""), "{out}");
    assert!(out.contains("\"lint\": \"fsync-before-rename\""));
    assert!(out.contains("\"severity\": \"error\""));
    assert!(out.contains("\"files_scanned\": 1,"), "{out}");
    assert!(out.contains("\"elapsed_ms\""), "{out}");
    assert!(
        out.contains("\"summary\": { \"total\": 2, \"errors\": 2 }"),
        "{out}"
    );
    for gone in ["files_linted", "suppressions", "warnings"] {
        assert!(!out.contains(gone), "v3 has no `{gone}`: {out}");
    }
    // Paths in the report are workspace-relative.
    assert!(out.contains("crates/srclint/tests/fixtures/bad_fsync_rename.rs"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    // No `--deny` or `--changed`: every finding fails the run, and
    // every run lints every file it scans.
    for flag in [
        "--definitely-not-a-flag",
        "--deny",
        "--changed",
        "--changed=HEAD",
    ] {
        let (code, _) = run_bin(&[flag]);
        assert_eq!(code, 2, "{flag}");
    }
}
