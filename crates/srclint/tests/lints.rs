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
        "good_safety_comment.rs",
        "good_no_panic.rs",
        "good_lock_discipline.rs",
        "good_fsync_rename.rs",
        "good_metric_names.rs",
        "good_lexer_edges.rs",
        "good_lock_order.rs",
        "good_atomic_ordering.rs",
        "good_channel_discipline.rs",
        "good_codec.rs",
    ] {
        let found = findings(name);
        assert!(found.is_empty(), "{name} should be clean, got {found:?}");
    }
}

// ----------------------------------------------------------------- bad

#[test]
fn bad_safety_comment_flags_bare_unsafe() {
    let found = findings("bad_safety_comment.rs");
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|(l, _)| l == "safety-comment"));
    // One in library code, one inside #[cfg(test)] — no test exemption
    // for memory safety.
    let lines: Vec<u32> = found.iter().map(|&(_, ln)| ln).collect();
    assert_eq!(lines, vec![8, 16]);
}

#[test]
fn bad_no_panic_flags_methods_macros_and_misplaced_allow() {
    let found = findings("bad_no_panic.rs");
    assert!(found.iter().all(|(l, _)| l == "no-panic-in-lib"));
    let lines: Vec<u32> = found.iter().map(|&(_, ln)| ln).collect();
    // unwrap, expect, unreachable!, todo!, and the expect two lines
    // below a misplaced allow comment (allow covers its line + 1).
    assert_eq!(lines, vec![5, 9, 15, 20, 29], "{found:?}");
}

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
fn bad_channel_discipline_flags_unbounded_channels() {
    let found = findings("bad_channel_discipline.rs");
    assert!(
        found.iter().all(|(l, _)| l == "channel-discipline"),
        "{found:?}"
    );
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn bad_codec_flags_record_gaps() {
    let found = findings("bad_codec.rs");
    assert!(
        found.iter().all(|(l, _)| l == "codec-conformance"),
        "{found:?}"
    );
    // Ghost: no encode arm, no decode arm, no tag constant.
    // Update: tag value disagrees with DESIGN.md.
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn bad_codec_proto_flags_opcode_gaps() {
    let found = findings("bad_codec_proto.rs");
    assert!(
        found.iter().all(|(l, _)| l == "codec-conformance"),
        "{found:?}"
    );
    // OP_WARP: no encode, no decode, no DESIGN.md row. OP_PING clean.
    assert_eq!(found.len(), 3, "{found:?}");
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
        "bad_safety_comment.rs",
        "bad_no_panic.rs",
        "bad_lock_discipline.rs",
        "bad_fsync_rename.rs",
        "bad_metric_names.rs",
        "bad_lock_order.rs",
        "bad_atomic_ordering.rs",
        "bad_channel_discipline.rs",
        "bad_codec.rs",
        "bad_codec_proto.rs",
    ] {
        let (code, _) = run_bin(&["--deny", fixture(name).to_str().expect("utf8 path")]);
        assert_eq!(code, 1, "{name} should fail --deny");
    }
    for name in [
        "good_no_panic.rs",
        "good_metric_names.rs",
        "good_lock_order.rs",
        "good_atomic_ordering.rs",
        "good_channel_discipline.rs",
        "good_codec.rs",
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
        fixture("bad_no_panic.rs").to_str().expect("utf8 path"),
    ]);
    assert_eq!(code, 1);
    assert!(out.contains("\"schema\": \"srclint/report-v2\""), "{out}");
    assert!(out.contains("\"lint\": \"no-panic-in-lib\""));
    assert!(out.contains("\"severity\": \"error\""));
    assert!(out.contains("\"files_linted\""), "{out}");
    assert!(out.contains("\"suppressions\""), "{out}");
    assert!(out.contains("\"elapsed_ms\""), "{out}");
    // Paths in the report are workspace-relative.
    assert!(out.contains("crates/srclint/tests/fixtures/bad_no_panic.rs"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let (code, _) = run_bin(&["--definitely-not-a-flag"]);
    assert_eq!(code, 2);
}
