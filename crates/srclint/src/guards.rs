//! `guard`: what a deletion removed stays removed. Each row names the
//! files it covers, what must not come back there (comments and strings
//! included, as the greps they replaced read them), an item that bounds
//! the search, and the DESIGN.md section and commits that set it.

use crate::context::FileContext;
use crate::diag::{relativize, Diagnostic, Severity};
use std::path::Path;

/// One structural guard. No `srclint:allow` comment suppresses it.
pub struct Guard {
    /// Space-separated workspace paths: a path covers all below it, a
    /// `*` component matches any name (`*.rs` any `.rs` name), and a
    /// `!` path is left out.
    pub files: &'static str,
    /// Where on a line the row is broken, if it is.
    pub hit: fn(&str) -> Option<usize>,
    /// Turned around: a covered file must have a line it hits.
    pub must: bool,
    /// Empty, or the one item read (`"struct ColdRule"`).
    pub within: &'static str,
    /// The DESIGN.md section and commits that set the row, and what it
    /// keeps.
    pub why: &'static str,
}

/// The rows, in the order they were set.
#[rustfmt::skip]
pub const GUARDS: &[Guard] = &[
    Guard { files: "crates/*/src !crates/bench/src/bin/reproduce.rs", hit: |l| text(l, "available_parallelism"), must: false, within: "", why: "§9 (40f9fcd, 0cdb5d1): the index spawns no threads and probes no CPU count" },
    Guard { files: "crates/predindex/src/sharded.rs", hit: |l| text(l, "fn attach_metrics(|fn attach_metrics<|fn explain_tuple(|fn explain_tuple<|fn shard_stats(|fn shard_stats<|fn with_shards(|fn with_shards<"), must: false, within: "", why: "§9 (1fb40f5): the sharded front-end stays a bare leaf" },
    Guard { files: ALL, hit: |l| text(l, "shard_lock_wait|\"shard_lock\"|ShardStats"), must: false, within: "", why: "§9 (1fb40f5): no shard lock-wait family, span or stats type" },
    Guard { files: ALL, hit: |l| text(l, "source_snapshot|delta_since|retract_counted|credit_match"), must: false, within: "", why: "§16 (c2c7dd1): one attribution path, no counter bracket" },
    Guard { files: ALL, hit: |l| text(l, "Advisor|WorkloadStats|with_workload_accounts|AdvisorHook|advisor-v1|workload_overhead|bench::lab"), must: false, within: "", why: "§17 (c13ccc9): no index advisor" },
    Guard { files: ALL, hit: |l| text(l, "bulk_load|SplitAlgorithm|with_split|search_window|RebuildOnMutation|install_panic_hook|PanicHookGuard|when_predicates|when_join|stab_interval_count|ColumnStats|column_stats|fn analyze|add_rule_retroactive|fn backfill"), must: false, within: "", why: "§19 (4d13891, 8ecf736): no public item without a reader" },
    Guard { files: ALL, hit: |l| text(l, "dump_flight|fn in_flight|enable_trace_ids|disable_trace_ids|last_trace_id|take_events|fn relation_lock_count(&self|contains_id|fn instant(|.instant(|top_json|top-v1"), must: false, within: "", why: "§19 (9c880f5): no public item read only by tests" },
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
    Guard { files: "crates/ibs/src/tree.rs", hit: |l| text(l, "std::collections::HashMap|std::collections::hash_map"), must: false, within: "", why: "§5 (950d1fc): no IBS-tree side table hashes with SipHash" },
    Guard { files: "crates/ibs/src/*.rs", hit: |l| field(l, "placements", "").or(field(l, "", "(NodeId, Slot)")), must: false, within: "", why: "§5 (fbc911f): the IBS-tree keeps no placement registry" },
    Guard { files: "crates/ibs/src/tree.rs", hit: |l| text(l, "pub(crate) intervals: IdMap<"), must: true, within: "", why: "§5 (950d1fc, fbc911f): the interval table hashes with IdMap" },
    Guard { files: "crates/predicate/src/parser", hit: |l| text(l, "enum Expr|fn dnf(|to_ascii_lowercase|Ident(String)"), must: false, within: "", why: "§5 (e73d6c3): the parser clones no identifier and builds no tree" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| text(l, "struct ColdRule {"), must: true, within: "", why: "§5 (2c8ec46): the rows that read `struct ColdRule` have it to read" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| text(l, "fn register_conditions("), must: true, within: "", why: "§5 (2c8ec46): the row that reads `fn register_conditions` has it to read" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| field(l, "conditions", ""), must: false, within: "struct ColdRule", why: "§5 (2c8ec46): a rule's conditions live in the index" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| field(l, "", "JoinCondition"), must: false, within: "struct ColdRule", why: "§5 (bc6bb6b): a rule's join conditions live in their memos" },
    Guard { files: "crates/rules/src/engine.rs", hit: |l| text(l, "clone()"), must: false, within: "fn register_conditions", why: "§5 (2c8ec46): the index gets each condition by move" },
    Guard { files: ALL, hit: |l| allow(l, "no-panic-in-lib|safety-comment|channel-discipline|codec-conformance|lock-discipline"), must: false, within: "", why: "§13 (1bb1b18, 1fb40f5): no comment names a retired lint" },
];

/// The trees the name-level rows cover, as the greps they replaced did.
const ALL: &str = "crates src tests examples";

/// Runs every row covering the file's workspace path (or the path a
/// fixture poses as). srclint's fixture corpus and this file are never
/// read: they spell every forbidden text.
pub(crate) fn check<'a>(ctx: &'a FileContext, root: &Path, diags: &mut Vec<Diagnostic>) {
    let rel = ctx.posed.clone();
    let rel = rel.unwrap_or_else(|| relativize(&ctx.path, root));
    let rel = rel.to_string_lossy();
    if rel.starts_with("crates/srclint/tests/fixtures/") || rel == "crates/srclint/src/guards.rs" {
        return;
    }
    for row in GUARDS.iter().filter(|row| covers(row.files, &rel)) {
        let mut push = |line, at: usize, what: String| {
            diags.push(Diagnostic {
                lint: "guard",
                severity: Severity::Deny,
                file: ctx.path.clone(),
                line,
                col: at as u32 + 1,
                message: format!("{what} ({})", row.why),
            })
        };
        let item = row.within.split_once(' ').map(|(k, n)| ctx.item(k, n));
        let (first, last) = item.unwrap_or(Some((1, u32::MAX))).unwrap_or((1, 0));
        let lines = (1..).zip(ctx.src.lines());
        let lines = lines.filter(|(n, _)| (first..=last).contains(n));
        let hit = |(n, l): (u32, &'a str)| Some((n, (row.hit)(l)?, l));
        let hits: Vec<_> = lines.filter_map(hit).collect();
        if row.must && hits.is_empty() {
            push(1, 0, "the line it requires is gone".into());
        }
        for &(n, at, l) in hits.iter().filter(|_| !row.must) {
            push(n, at, format!("`{}` is back", &l[at..]));
        }
    }
}

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

/// An `srclint:allow(..)` list naming one of the `|`-separated names.
fn allow(line: &str, names: &str) -> Option<usize> {
    let retired = |n: &str| names.split('|').any(|r| r == n.trim());
    let listed = |i: usize| line[i..].split(['(', ')']).nth(1).unwrap_or("");
    let mut at = line.match_indices("srclint:allow(").map(|(i, _)| i);
    at.find(|&i| listed(i).split(',').any(retired))
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
