//! The guard table (DESIGN.md §13): what a deletion removed stays
//! removed, and what is kept to a reviewed list stays on it. Each row
//! names the files it covers, what must not appear there (comments and
//! strings included, as the greps they replaced read them), an item that
//! bounds the search, and the DESIGN.md section and commits that set it.
//!
//! The rows read the workspace's sources, manifests and lockfile. Each
//! row has a fixture under `tests/fixtures/guards/` that breaks it; a
//! fixture poses as a workspace path with a first line
//! `// guard-fixture: path=<path>`. Neither this file nor the fixtures
//! are read as workspace files: both spell every forbidden text.

use std::fs;
use std::path::{Path, PathBuf};

/// One structural guard.
struct Guard {
    /// Space-separated workspace paths: a path covers all below it, a
    /// `*` component matches any name (`*.rs` any `.rs` name), and a
    /// `!` path is left out.
    files: &'static str,
    /// Where on a line the row is broken, if it is.
    hit: fn(&str) -> Option<usize>,
    /// Turned around: a covered file must have a line it hits.
    must: bool,
    /// Empty, the one item read (`"struct ColdRule"`), or with a
    /// leading `!` the one item not read (`"!mod tests"`).
    within: &'static str,
    /// The DESIGN.md section and commits that set the row, and what it
    /// keeps.
    why: &'static str,
}

/// The rows, in the order they were set.
#[rustfmt::skip]
const GUARDS: &[Guard] = &[
    Guard { files: "crates/*/src !crates/bench/src/bin/reproduce.rs", hit: |l| text(l, "available_parallelism"), must: false, within: "", why: "§9 (40f9fcd, 0cdb5d1): the index spawns no threads and probes no CPU count" },
    Guard { files: "crates/predindex/src/sharded.rs", hit: |l| text(l, "fn attach_metrics(|fn attach_metrics<|fn explain_tuple(|fn explain_tuple<|fn shard_stats(|fn shard_stats<|fn with_shards(|fn with_shards<"), must: false, within: "", why: "§9 (1fb40f5): the sharded front-end stays a bare leaf" },
    Guard { files: ALL, hit: |l| text(l, "shard_lock_wait|\"shard_lock\"|ShardStats"), must: false, within: "", why: "§9 (1fb40f5): no shard lock-wait family, span or stats type" },
    Guard { files: ALL, hit: |l| text(l, "source_snapshot|delta_since|retract_counted|credit_match"), must: false, within: "", why: "§16 (c2c7dd1): one attribution path, no counter bracket" },
    Guard { files: ALL, hit: |l| text(l, "Advisor|WorkloadStats|with_workload_accounts|AdvisorHook|advisor-v1|workload_overhead|bench::lab"), must: false, within: "", why: "§17 (c13ccc9): no index advisor" },
    Guard { files: ALL, hit: |l| text(l, "bulk_load|SplitAlgorithm|with_split|search_window|RebuildOnMutation|install_panic_hook|PanicHookGuard|when_predicates|when_join|stab_interval_count|ColumnStats|column_stats|fn analyze|add_rule_retroactive|fn backfill"), must: false, within: "", why: "§19 (4d13891, 8ecf736): no public item without a reader" },
    Guard { files: ALL, hit: |l| text(l, "FlightRecorder|FLIGHT_DIR|render_flight|dump_flight|fn in_flight|enable_trace_ids|disable_trace_ids|last_trace_id|take_events|fn relation_lock_count(&self|contains_id|fn instant(|.instant(|top_json|top-v1"), must: false, within: "", why: "§19 (9c880f5): no public item read only by tests" },
    Guard { files: "crates/ibs/src/marks.rs", hit: |l| text(l, "pub fn len(&self)|pub fn as_slice(&self)"), must: false, within: "", why: "§19 (9c880f5): a mark set has no test-only accessor" },
    Guard { files: "crates/joinmemo/src/compile.rs", hit: |l| text(l, "fn alpha("), must: false, within: "", why: "§19 (9c880f5): a join premise keeps no bound copy" },
    Guard { files: "Cargo.toml Cargo.lock crates/*/Cargo.toml", hit: |l| text(l, "criterion"), must: false, within: "", why: "§8 (0cdb5d1): one harness, one clock" },
    Guard { files: "crates/ruleserv/src/server.rs", hit: |l| l.match_indices("Record::").map(|(i, _)| i).find(|&i| l[i + 8..].starts_with(|c: char| c.is_ascii_uppercase())), must: false, within: "", why: "§14 (ad8b6b2): the rule server interprets no record" },
    Guard { files: "crates/joinmemo/src/memo.rs", hit: |l| text(l, "retain("), must: false, within: "", why: "§15 (99e56ea): the join memo scans no list to leave it" },
    Guard { files: "crates/predindex/src/matcher.rs crates/predindex/src/index.rs", hit: |l| text(l, "std::collections::HashMap"), must: false, within: "", why: "§9 (89c87a8): no PREDICATES map hashes with SipHash" },
    Guard { files: "crates/predindex/src/index.rs", hit: |l| text(l, "PredicateStore|full_match"), must: false, within: "", why: "§9 (04372f3): the index reads no baseline store" },
    Guard { files: "crates/predindex/src/index.rs", hit: |l| field(l, "hot|cold", "HashMap|BTreeMap"), must: false, within: "", why: "§5 (1b65011): PREDICATES is dense, not a map" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| field(l, "routes", ""), must: false, within: "", why: "§5 (1b65011): a match's route word names its rule's slot" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| field(l, "rules", "HashMap|BTreeMap"), must: false, within: "", why: "§5 (1b65011): the engine keeps its rules in a slab" },
    Guard { files: "crates/ibs/src/tree.rs crates/ibs/src/shell.rs", hit: |l| text(l, "std::collections::HashMap|std::collections::hash_map"), must: false, within: "", why: "§5 (950d1fc): no IBS-tree side table hashes with SipHash" },
    Guard { files: "crates/ibs/src/*.rs", hit: |l| field(l, "placements", "").or(field(l, "", "(NodeId, Slot)")), must: false, within: "", why: "§5 (fbc911f): the IBS-tree keeps no placement registry" },
    Guard { files: "crates/ibs/src/shell.rs", hit: |l| text(l, "pub(crate) intervals: IdMap<"), must: true, within: "", why: "§5 (950d1fc, fbc911f): the interval table hashes with IdMap" },
    Guard { files: "crates/predicate/src/parser", hit: |l| text(l, "enum Expr|fn dnf(|to_ascii_lowercase|Ident(String)"), must: false, within: "", why: "§5 (e73d6c3): the parser clones no identifier and builds no tree" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| text(l, "struct ColdRule {"), must: true, within: "", why: "§5 (2c8ec46): the rows that read `struct ColdRule` have it to read" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| text(l, "fn register_conditions("), must: true, within: "", why: "§5 (2c8ec46): the row that reads `fn register_conditions` has it to read" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| field(l, "conditions", ""), must: false, within: "struct ColdRule", why: "§5 (2c8ec46): a rule's conditions live in the index" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| field(l, "", "JoinCondition"), must: false, within: "struct ColdRule", why: "§5 (bc6bb6b): a rule's join conditions live in their memos" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| text(l, "clone()"), must: false, within: "fn register_conditions", why: "§5 (2c8ec46): the index gets each condition by move" },
    Guard { files: ALL, hit: |l| text(l, "srclint:allow("), must: false, within: "", why: "§13 (1bb1b18, 1fb40f5, 6222172, 56aac5f): no lint takes an allow comment" },
    Guard { files: "crates src tests examples !crates/bench/src/counting_alloc.rs", hit: |l| text(l, "impl GlobalAlloc|#[global_allocator]"), must: false, within: "", why: "§19 (2c279f1): one counting allocator, included by path" },
    Guard { files: "crates/ibs/src/tree.rs", hit: |l| field(l, "", "IdMap|HashMap|BTreeMap"), must: false, within: "", why: "§5 (2e0fd41): the IBS-tree core keeps nodes and marks, no id-keyed table" },
    Guard { files: "crates/*/src src", hit: |l| field(l, "", "Mutex<|RwLock<").filter(|_| text(l, LOCKS).is_none()), must: false, within: "", why: "§18 (6222172): four lock fields; a new one comes with a review of where it nests" },
    Guard { files: "crates/*/src src", hit: |l| text(l, "SeqCst"), must: false, within: "", why: "§18 (56aac5f): no SeqCst; counters and polled flags are Relaxed" },
    Guard { files: "crates/*/src src", hit: |l| store(l).filter(|_| text(l, STORES).is_none()), must: false, within: "", why: "§18 (56aac5f): one atomic config word; a new publication comes with a review of its ordering" },
    Guard { files: "crates/durable/src !crates/durable/src/disk.rs", hit: |l| text(l, "rename(").filter(|_| text(l, RENAMES).is_none()), must: false, within: "", why: "§10: one rename publishes a snapshot; a new one comes with a review of what it syncs first" },
    Guard { files: "Cargo.toml Cargo.lock crates/*/Cargo.toml", hit: |l| text(l, "srclint"), must: false, within: "", why: "§13: the guard table is a tier-1 test; no lint crate" },
    Guard { files: ALL, hit: |l| text(l, "SPAN_STACK|SpanEventKind|span_with|instant_with"), must: false, within: "", why: "§12: one event shape, a closed interval with inline args; no span stack, no begin/end kinds, no args closure" },
    Guard { files: "crates/telemetry/src/profile.rs", hit: |l| text(l, "registry.counter(|profile_rule_"), must: false, within: "", why: "§16: an account is a plain cost in the profiler's ledger; the profiler mints no registry handle, so no lock nests" },
    Guard { files: "crates/joinmemo/src/memo.rs", hit: |l| field(l, "", "Vec<FnvHashMap<u32|Vec<FxHashMap<u32|Vec<HashMap<u32"), must: false, within: "", why: "§15: a relation's alpha memory is one table the memos share; no memo keeps a tuple-id map per premise" },
    Guard { files: "crates/durable/src crates/telemetry/src !crates/durable/src/disk.rs !crates/durable/src/crashcheck.rs", hit: fs_call, must: false, within: "!mod tests", why: "§10, §12: every file operation of the durable crate goes through `disk.rs`, so the crash model's tape sees it; the telemetry crate makes none" },
    Guard { files: "crates/durable/src", hit: |l| text(l, "let _ =").filter(|&i| l[i..].contains("sync")), must: false, within: "", why: "§10: no sync's error is dropped; a failed directory sync fails the snapshot" },
    Guard { files: "crates/ruleserv/src/server.rs crates/ruleserv/src/bin/ruleserv.rs", hit: |l| text(l, "set_read_timeout(|recv_timeout(|crash_after"), must: false, within: "", why: "§14: sessions end because they are closed, not because they poll; the daemon has no crash hook, a crash is a kill from outside" },
    Guard { files: "crates/ruleserv/src/server.rs", hit: |l| text(l, "try_clone("), must: false, within: "", why: "§14: a session is one socket that its reader and writer share, closed when the session ends; the accept thread keeps a `Weak` to it, not a clone" },
    Guard { files: "crates/joinmemo/src/memo.rs", hit: |l| field(l, "", "KeyStore|HashMap<Key").filter(|_| text(l, "level_key:").is_none()), must: false, within: "", why: "§15: a key store whose members are one table's rows is that table's shared index; a memo keeps only its beta stores, `level_key`" },
    Guard { files: "crates/rules/src/engine.rs crates/durable/src/snapshot.rs", hit: |l| field(l, "log", "Vec<String>").or(text(l, "engine.log(")), must: false, within: "!struct FireReport", why: "§10: an action's lines are output, returned once in the op's `FireReport`; neither the engine nor the snapshot keeps them" },
    Guard { files: "crates/durable/src", hit: |l| text(l, "Map<u32, ActionSpec>|Map<RuleId, ActionSpec>"), must: false, within: "", why: "§10: a rule's action is held once, by the rule engine; a snapshot spells a callback by the name its `Arc` is registered under" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| text(l, "register_conditions(|register_joins("), must: false, within: "fn restore", why: "§9: a restored rule is registered by `add_rule`, under its own id; there is no second registration path" },
];

/// The lock fields that remain, each with its type, as DESIGN.md §18's
/// `Locks` lists them.
const LOCKS: &str = "metrics: Mutex<BTreeMap<String, Metric>>|ring: Mutex<Ring>|ledger: Mutex<Ledger>|shards: Box<[RwLock<IndexCore>]>";

/// The atomic stores of a value that is not a `bool` literal that
/// remain, as DESIGN.md §18's `Atomics` lists them.
const STORES: &str = "slow_threshold.store(|next_id.store(u32::MAX";

/// The renames under `crates/durable/src` outside `disk.rs`, which
/// holds the one `std::fs::rename`, as DESIGN.md §10's `Renames` lists
/// them.
const RENAMES: &str = "disk::rename(&tmp, &dir.join(SNAPSHOT_FILE))";

/// The trees the name-level rows cover, as the greps they replaced did.
const ALL: &str = "crates src tests examples";

/// Does the `files` list cover `rel`?
fn covers(files: &str, rel: &str) -> bool {
    let glob = |p: &str, n: &str| p.strip_prefix('*').map_or(p == n, |s| n.ends_with(s));
    let under = |pat: &str| {
        let (mut pat, mut names) = (pat.split('/'), rel.split('/'));
        pat.all(|p| names.next().is_some_and(|n| glob(p, n)))
    };
    let mut out = files.split(' ').filter_map(|p| p.strip_prefix('!'));
    files.split(' ').any(under) && !out.any(under)
}

/// The first of the `|`-separated literals on `line`.
fn text(line: &str, alts: &str) -> Option<usize> {
    alts.split('|').filter_map(|lit| line.find(lit)).min()
}

/// An atomic `.store(` whose value is not a `true` or `false` literal.
fn store(line: &str) -> Option<usize> {
    let flag = |v: &str| v.starts_with("true,") || v.starts_with("false,");
    let mut at = line.match_indices(".store(").map(|(i, _)| i);
    at.find(|&i| !flag(line[i + ".store(".len()..].trim_start()))
}

/// A file operation by `std::fs`, `OpenOptions` or a `File::` path
/// (not a `DiskFile::` one).
fn fs_call(line: &str) -> Option<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut file = line.match_indices("File::").map(|(i, _)| i);
    let file = file.find(|&i| !line[..i].ends_with(ident));
    text(line, "std::fs|OpenOptions")
        .into_iter()
        .chain(file)
        .min()
}

/// A line declaring `[pub[(..)]] name: ty`, `name` one of `names`
/// (empty: any snake_case name) and `ty` containing one of `types`
/// (empty: any).
fn field(line: &str, names: &str, types: &str) -> Option<usize> {
    let (decl, ty) = line.split_once(':')?;
    let mut words = decl.split_whitespace().rev();
    let (name, vis, more) = (words.next()?, words.next(), words.next());
    let snake = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let named = names.split('|').any(|n| n == name)
        || names.is_empty() && name.trim_matches(snake).is_empty();
    let typed = types.is_empty() || types.split('|').any(|t| ty.contains(t));
    let vis = more.is_none() && vis.is_none_or(|v| v == "pub" || v.starts_with("pub("));
    (named && typed && vis).then(|| line.len() - line.trim_start().len())
}

/// The lines, 1-based and inclusive, of the item `within` names
/// (`"fn write_snapshot"`): from the first line whose code begins with
/// the keyword and the name, after an optional `pub` or `pub(..)`, to
/// the first later line that is a `}` at that line's indentation, or
/// that line alone if it ends in `;`. A comment naming the item does not
/// start it. This is exact on the layout `cargo fmt` gives every file a
/// row reads.
fn item(src: &str, within: &str) -> Option<(usize, usize)> {
    let starts = |line: &str| {
        let code = line.trim_start();
        let code = match code.strip_prefix("pub") {
            Some(rest) => rest
                .strip_prefix(' ')
                .or_else(|| Some(rest.strip_prefix('(')?.split_once(") ")?.1))
                .unwrap_or(code),
            None => code,
        };
        let rest = code.strip_prefix(within);
        rest.is_some_and(|r| !r.starts_with(|c: char| c == '_' || c.is_alphanumeric()))
    };
    let lines: Vec<&str> = src.lines().collect();
    let start = lines.iter().position(|l| starts(l))?;
    let head = lines[start];
    if head.trim_end().ends_with(';') {
        return Some((start + 1, start + 1));
    }
    let close = " ".repeat(head.len() - head.trim_start().len()) + "}";
    let end = lines[start + 1..]
        .iter()
        .position(|l| l.trim_end() == close);
    Some((start + 1, end.map_or(lines.len(), |i| start + 2 + i)))
}

/// A broken row: where, which row of `GUARDS`, and what breaks it.
#[derive(Debug)]
struct Finding {
    line: usize,
    col: usize,
    row: usize,
    what: String,
}

impl Finding {
    /// `path:line:col: guard: <what> (<why>)`.
    fn render(&self, rel: &str) -> String {
        let why = GUARDS[self.row].why;
        format!(
            "{rel}:{}:{}: guard: {} ({why})",
            self.line, self.col, self.what
        )
    }
}

/// Runs every row covering `rel`, the workspace path `src` is read as.
fn check(rel: &str, src: &str) -> Vec<Finding> {
    let mut found = Vec::new();
    for (row, guard) in GUARDS.iter().enumerate() {
        if !covers(guard.files, rel) {
            continue;
        }
        let (outside, within) = match guard.within.strip_prefix('!') {
            Some(within) => (true, within),
            None => (false, guard.within),
        };
        let (first, last) = match within {
            "" => (1, usize::MAX),
            within => item(src, within).unwrap_or((1, 0)),
        };
        let lines = (1..)
            .zip(src.lines())
            .filter(|(n, _)| (first..=last).contains(n) != outside);
        let hits: Vec<_> = lines
            .filter_map(|(n, l)| Some((n, (guard.hit)(l)?, l)))
            .collect();
        if guard.must && hits.is_empty() {
            let what = "the line it requires is gone".into();
            found.push(Finding {
                line: 1,
                col: 1,
                row,
                what,
            });
        }
        for (line, at, l) in hits.into_iter().filter(|_| !guard.must) {
            let what = format!("`{}` breaks a guard row", &l[at..]);
            found.push(Finding {
                line,
                col: at + 1,
                row,
                what,
            });
        }
    }
    found
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A workspace file's text.
fn read(rel: &str) -> String {
    let bytes = fs::read(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The workspace paths the rows read, sorted: the root manifest and
/// lockfile, and every file under `ALL`'s trees outside a `target`,
/// `shims`, `fixtures` or `.git` directory.
fn workspace_files() -> Vec<String> {
    let mut files = vec!["Cargo.toml".to_string(), "Cargo.lock".to_string()];
    let mut dirs: Vec<PathBuf> = ALL.split(' ').map(|d| root().join(d)).collect();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("a readable directory") {
            let path = entry.expect("a directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str());
            if !path.is_dir() {
                let rel = path.strip_prefix(root()).expect("under the root");
                files.push(rel.to_str().expect("a UTF-8 path").to_string());
            } else if !matches!(name, Some("target" | "shims" | "fixtures" | ".git")) {
                dirs.push(path);
            }
        }
    }
    files.sort();
    files
}

const FIXTURES: &str = "tests/fixtures/guards";

/// The fixture names that start with `prefix`, sorted.
fn fixtures(prefix: &str) -> Vec<String> {
    let entries = fs::read_dir(root().join(FIXTURES)).expect("the fixture directory");
    let names = entries.map(|e| {
        e.expect("a fixture")
            .file_name()
            .to_string_lossy()
            .into_owned()
    });
    let mut names: Vec<String> = names.filter(|n| n.starts_with(prefix)).collect();
    names.sort();
    names
}

/// A fixture's text and the workspace path its first line poses as.
fn fixture(name: &str) -> (String, String) {
    let src = read(&format!("{FIXTURES}/{name}"));
    let first = src.lines().next().unwrap_or_default();
    let posed = first.strip_prefix("// guard-fixture: path=");
    let posed = posed.unwrap_or_else(|| panic!("{name}'s first line poses as no path"));
    (posed.to_string(), src)
}

/// What the rows find in a fixture.
fn findings(name: &str) -> Vec<Finding> {
    let (posed, src) = fixture(name);
    check(&posed, &src)
}

/// The first backticked text of each `- ` item under DESIGN.md's
/// `### <heading>`, up to the next heading.
fn design_list(heading: &str) -> Vec<String> {
    let design = read("DESIGN.md");
    let (_, body) = design
        .split_once(&format!("\n### {heading}\n"))
        .unwrap_or_else(|| panic!("DESIGN.md has no `{heading}`"));
    let body = body.split("\n#").next().expect("text");
    let item = |l: &str| Some(l.strip_prefix("- `")?.split_once('`')?.0.to_string());
    body.lines().filter_map(item).collect()
}

#[test]
fn workspace_has_no_guard_findings() {
    let files = workspace_files();
    assert!(
        files.len() > 100,
        "the walk read only {} files",
        files.len()
    );
    let mut found = Vec::new();
    for rel in files.iter().filter(|f| *f != "tests/guards.rs") {
        let src = read(rel);
        found.extend(check(rel, &src).iter().map(|f| f.render(rel)));
    }
    assert!(found.is_empty(), "guard findings:\n{}", found.join("\n"));
}

#[test]
fn every_bad_fixture_breaks_a_row() {
    let bad = fixtures("bad_");
    assert_eq!(
        bad.len() + fixtures("good_").len(),
        fixtures("").len(),
        "a fixture is neither bad_ nor good_"
    );
    for name in bad {
        assert!(!findings(&name).is_empty(), "{name} breaks no row");
    }
}

#[test]
fn good_fixtures_are_clean() {
    let good = fixtures("good_");
    assert!(good.len() >= 5, "{good:?}");
    for name in good {
        let found = findings(&name);
        assert!(found.is_empty(), "{name} should be clean, got {found:?}");
    }
}

#[test]
fn every_guard_row_fails_on_a_bad_fixture() {
    let broken: Vec<usize> = fixtures("bad_")
        .iter()
        .flat_map(|name| findings(name))
        .map(|f| f.row)
        .collect();
    for (i, row) in GUARDS.iter().enumerate() {
        let same = GUARDS.iter().filter(|r| r.why == row.why).count();
        assert_eq!(same, 1, "row {i}'s reason is not unique: {}", row.why);
        assert!(
            broken.contains(&i),
            "no bad fixture breaks row {i} ({})",
            row.why
        );
    }
}

#[test]
fn bad_guard_lock_field_flags_every_new_lock() {
    // A new `Mutex` field and a new `RwLock` field behind an `Arc` fail
    // the row; a kept field's declaration does not.
    let found = findings("bad_guard_lock_field.rs");
    let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
    assert_eq!(lines, [7, 8], "{found:?}");
    // The row forbids a new lock, not a deleted one come back, and its
    // finding says so.
    for f in found {
        assert!(f.what.ends_with("breaks a guard row"), "{f:?}");
    }
}

#[test]
fn bad_guard_atomics_fails_both_atomic_rows() {
    // A `SeqCst` counter, a `SeqCst` flag store and load: "no SeqCst".
    // A `Relaxed` store of a value that is not a `bool` literal: "one
    // atomic config word". The `Acquire` load breaks neither.
    let found = findings("bad_guard_atomics.rs");
    let rows = |tail: &str| -> Vec<usize> {
        let hits = found.iter().filter(|f| GUARDS[f.row].why.ends_with(tail));
        hits.map(|f| f.line).collect()
    };
    assert_eq!(
        rows("no SeqCst; counters and polled flags are Relaxed"),
        [17, 21, 25]
    );
    assert_eq!(rows("a review of its ordering"), [29]);
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn guard_rows_read_comments_strings_and_field_shapes() {
    // An allow comment is found in a doc comment and as a line
    // comment; a span name is found as a string literal; a field is
    // found by name with or without `pub(crate)`, and by type.
    let allow = findings("bad_guard_allow.rs");
    assert_eq!(allow.len(), 2, "{allow:?}");
    let sharded = findings("bad_guard_sharded.rs");
    let span = sharded
        .iter()
        .any(|f| f.what.starts_with("`\"shard_lock\""));
    assert!(span, "{sharded:?}");
    let maps = findings("bad_guard_hashed_maps.rs");
    let fields = maps.iter().filter(|f| f.line == 8 || f.line == 9);
    assert_eq!(fields.count(), 2, "{maps:?}");
    let tree = findings("bad_guard_tree.rs");
    assert!(
        tree.iter().any(|f| f.what.contains("placements")),
        "{tree:?}"
    );
}

#[test]
fn an_item_runs_from_its_keyword_line_to_its_closing_brace() {
    let src = [
        "// struct Cold is named here first.",
        "pub(crate) struct Cold {",
        "    ids: Vec<u32>,",
        "}",
        "impl Cold {",
        "    pub fn ids(&self) {",
        "        if true {",
        "        }",
        "    }",
        "}",
        "struct Unit;",
    ]
    .join("\n");
    let src = src.as_str();
    assert_eq!(item(src, "struct Cold"), Some((2, 4)));
    assert_eq!(item(src, "fn ids"), Some((6, 9)));
    assert_eq!(item(src, "struct Unit"), Some((11, 11)));
    assert_eq!(item(src, "struct Col"), None);
}

#[test]
fn the_file_seam_row_reads_only_code_outside_the_test_module() {
    // The WAL's old file calls break the row; the same calls in its
    // test module, and a `DiskFile::` path, do not.
    let found = findings("bad_guard_file_seam.rs");
    let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
    assert_eq!(lines, [5, 9, 15], "{found:?}");
    // The telemetry crate is held to none: the flight recorder's import
    // breaks the row, its test module's does not.
    let found = findings("bad_guard_flight_recorder.rs");
    let seam = found
        .iter()
        .filter(|f| GUARDS[f.row].why.starts_with("§10, §12"));
    let lines: Vec<usize> = seam.map(|f| f.line).collect();
    assert_eq!(lines, [7], "{found:?}");
}

#[test]
fn bad_guard_rename_breaks_the_row_in_both_shapes() {
    // An unsynced publish and a sync after the rename: neither rename is
    // the reviewed one.
    let found = findings("bad_guard_rename.rs");
    let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
    assert_eq!(lines, [11, 16], "{found:?}");
}

#[test]
fn bad_guard_alpha_key_store_flags_the_per_premise_store_alone() {
    // The parent's `alpha_key` field breaks the row; `level_key`, the
    // beta stores a memo keeps, does not.
    let found = findings("bad_guard_alpha_key_store.rs");
    let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
    assert_eq!(lines, [16], "{found:?}");
}

#[test]
fn bad_guard_engine_log_flags_the_kept_lines_not_the_reported_ones() {
    // The engine's `log` field and a capture's `engine.log(` break the
    // row; `FireReport::log`, where the lines go, does not. (The
    // fixture poses as `engine.rs` without the items two other rows
    // require, which fail at line 1.)
    let found = findings("bad_guard_engine_log.rs");
    let row = found
        .iter()
        .filter(|f| GUARDS[f.row].why.starts_with("§10: an action's lines"));
    let lines: Vec<usize> = row.map(|f| f.line).collect();
    assert_eq!(lines, [12, 17], "{found:?}");
}

/// DESIGN.md's `### <heading>` list equals a row's reviewed list, in
/// order: an entry added to one and not the other fails.
fn assert_design_list(heading: &str, list: &str) {
    let rows: Vec<&str> = list.split('|').collect();
    assert_eq!(design_list(heading), rows, "DESIGN.md's `{heading}`");
}

#[test]
fn design_md_names_every_kept_lock_field() {
    // §18's `Locks` says where each kept lock field nests.
    assert_design_list("Locks", LOCKS);
}

#[test]
fn design_md_names_every_reviewed_atomic_store() {
    // §18's `Atomics` says why each store's ordering holds.
    assert_design_list("Atomics", STORES);
}

#[test]
fn design_md_names_every_reviewed_rename() {
    // §10's `Renames` says what each rename syncs first.
    assert_design_list("Renames", RENAMES);
}
