//! Per-rule cost attribution: accounts, slow-op log, rankings.
//!
//! Section 5.2 of the paper prices one tuple's match as hash + stab +
//! residual work; the global counters in the [`Registry`] total that
//! price across the whole system. This module splits the bill: every
//! unit of match/join/cascade work is *attributed* to the rule that
//! caused it — level-0 (client-injected) events bill the reserved
//! `external` account, cascaded events bill the rule whose firing
//! queued them, join probes and retractions bill the rule owning the
//! join condition, firings bill the fired rule. The engine bills each
//! piece of work from the counts the call that did it returns
//! ([`Profiler::bill`]), the same counts its op's
//! [`StageRecord`] sums. The invariant the root integration test pins:
//! for every cost term, the accounts sum to the global counter.
//!
//! A [`Profiler`] is a cheap clonable handle with the same disabled
//! contract as [`Counter`](crate::Counter): a disabled profiler costs
//! one branch per call site and mints nothing. An enabled profiler
//! keeps its accounts as labelled counter families
//! (`profile_rule_*_total{rule="3"}`) in the registry it was built
//! over, so `/metrics`, `/profile`, and flight dumps all read the same
//! cells.
//!
//! The profiler also owns the **slow-op ring**: a bounded log of
//! requests whose wall-clock met a configurable threshold, each with
//! its wire trace id (if the client stamped one) and the stage record
//! it carried — nanoseconds per stage and the work it did. The ring
//! keeps the newest [`SLOW_OP_CAPACITY`] entries; readers snapshot,
//! they never drain.

use crate::counter::Counter;
use crate::histogram::{quantile, HISTOGRAM_BUCKETS};
use crate::json::JsonWriter;
use crate::registry::Registry;
use crate::stages::StageRecord;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Label value of the account billed for client-injected work.
pub const EXTERNAL_ACCOUNT: &str = "external";

/// Entries the slow-op ring retains (newest win).
pub const SLOW_OP_CAPACITY: usize = 64;

/// One account's (or one request's) §5.2 cost terms, as plain numbers.
///
/// Each field mirrors a global metric family; see the DESIGN.md §11
/// table. `stab_nanos` is wall-clock spent in the matching stage; the
/// rest are work counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Wall-clock nanos spent matching (an op's `stab` and `residual`
    /// stages, split across its events by their work).
    pub stab_nanos: u64,
    /// IBS-tree endpoint nodes visited.
    pub ibs_nodes: u64,
    /// Interval marks scanned.
    pub ibs_marks: u64,
    /// Residual (full-conjunction) tests run.
    pub residual_tests: u64,
    /// Residual tests that held.
    pub residual_passes: u64,
    /// Predicates swept from non-indexable lists.
    pub non_indexable: u64,
    /// Join-memo candidate tokens examined.
    pub join_probes: u64,
    /// Join-memo tokens retracted.
    pub join_retractions: u64,
    /// Rule firings.
    pub firings: u64,
    /// Database operations processed (external + cascaded).
    pub ops: u64,
}

impl CostSnapshot {
    /// Field-wise `self += other`.
    pub fn add(&mut self, other: &CostSnapshot) {
        self.stab_nanos += other.stab_nanos;
        self.ibs_nodes += other.ibs_nodes;
        self.ibs_marks += other.ibs_marks;
        self.residual_tests += other.residual_tests;
        self.residual_passes += other.residual_passes;
        self.non_indexable += other.non_indexable;
        self.join_probes += other.join_probes;
        self.join_retractions += other.join_retractions;
        self.firings += other.firings;
        self.ops += other.ops;
    }

    /// Total *work units* (every term except the nanos) — the
    /// tie-breaker the top-K ranking uses under equal stab time.
    pub fn work(&self) -> u64 {
        self.ibs_nodes
            .saturating_add(self.ibs_marks)
            .saturating_add(self.residual_tests)
            .saturating_add(self.non_indexable)
            .saturating_add(self.join_probes)
            .saturating_add(self.join_retractions)
            .saturating_add(self.firings)
            .saturating_add(self.ops)
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("stab_nanos").uint(self.stab_nanos);
        w.key("ibs_nodes").uint(self.ibs_nodes);
        w.key("ibs_marks").uint(self.ibs_marks);
        w.key("residual_tests").uint(self.residual_tests);
        w.key("residual_passes").uint(self.residual_passes);
        w.key("non_indexable").uint(self.non_indexable);
        w.key("join_probes").uint(self.join_probes);
        w.key("join_retractions").uint(self.join_retractions);
        w.key("firings").uint(self.firings);
        w.key("ops").uint(self.ops);
        w.end_object();
    }
}

/// One account's current state, for rankings and rendering.
#[derive(Debug, Clone)]
pub struct AccountSnapshot {
    /// `None` = the external account (client-injected work).
    pub rule: Option<u32>,
    /// The rule's name, when the engine registered one.
    pub name: Option<String>,
    /// The accumulated cost terms.
    pub cost: CostSnapshot,
}

impl AccountSnapshot {
    /// The account's label value (`"external"` or the rule id digits).
    pub fn label(&self) -> String {
        match self.rule {
            Some(rid) => rid.to_string(),
            None => EXTERNAL_ACCOUNT.to_string(),
        }
    }

    /// The `"rule"` and `"name"` members `/profile` and `/top` share.
    fn write_identity(&self, w: &mut JsonWriter) {
        w.key("rule").string(&self.label());
        match &self.name {
            Some(n) => w.key("name").string(n),
            None => w.key("name").null(),
        };
    }
}

/// One over-threshold request captured by the slow-op ring.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// Profiler-assigned request ordinal (counts *all* observed
    /// requests, so gaps show how many fast ones passed between slow
    /// ones).
    pub seq: u64,
    /// Wire op name (`insert`, `sync`, ...).
    pub op: String,
    /// The client-stamped wire trace id, if the request carried one.
    pub trace_id: Option<u64>,
    /// The request's stage record: its total is the request's
    /// wall-clock, its work what the request consumed.
    pub record: StageRecord,
}

/// The per-account counter cells. All registry-backed, so the families
/// render in `/metrics` alongside the globals they partition.
#[derive(Debug, Clone)]
struct Account {
    stab_nanos: Counter,
    ibs_nodes: Counter,
    ibs_marks: Counter,
    residual_tests: Counter,
    residual_passes: Counter,
    non_indexable: Counter,
    join_probes: Counter,
    join_retractions: Counter,
    firings: Counter,
    ops: Counter,
}

impl Account {
    fn mint(registry: &Registry, label: &str) -> Account {
        Account {
            stab_nanos: registry.counter(&format!(
                "profile_rule_stab_nanos_total{{rule=\"{label}\"}}"
            )),
            ibs_nodes: registry
                .counter(&format!("profile_rule_ibs_nodes_total{{rule=\"{label}\"}}")),
            ibs_marks: registry
                .counter(&format!("profile_rule_ibs_marks_total{{rule=\"{label}\"}}")),
            residual_tests: registry.counter(&format!(
                "profile_rule_residual_tests_total{{rule=\"{label}\"}}"
            )),
            residual_passes: registry.counter(&format!(
                "profile_rule_residual_passes_total{{rule=\"{label}\"}}"
            )),
            non_indexable: registry.counter(&format!(
                "profile_rule_non_indexable_total{{rule=\"{label}\"}}"
            )),
            join_probes: registry.counter(&format!(
                "profile_rule_join_probes_total{{rule=\"{label}\"}}"
            )),
            join_retractions: registry.counter(&format!(
                "profile_rule_join_retractions_total{{rule=\"{label}\"}}"
            )),
            firings: registry.counter(&format!("profile_rule_firings_total{{rule=\"{label}\"}}")),
            ops: registry.counter(&format!("profile_rule_ops_total{{rule=\"{label}\"}}")),
        }
    }

    /// The cells beside the terms of `cost` they accumulate.
    fn terms<'a>(&'a self, cost: &CostSnapshot) -> [(&'a Counter, u64); 10] {
        [
            (&self.stab_nanos, cost.stab_nanos),
            (&self.ibs_nodes, cost.ibs_nodes),
            (&self.ibs_marks, cost.ibs_marks),
            (&self.residual_tests, cost.residual_tests),
            (&self.residual_passes, cost.residual_passes),
            (&self.non_indexable, cost.non_indexable),
            (&self.join_probes, cost.join_probes),
            (&self.join_retractions, cost.join_retractions),
            (&self.firings, cost.firings),
            (&self.ops, cost.ops),
        ]
    }

    /// Adds `cost`'s non-zero terms.
    fn add(&self, cost: &CostSnapshot) {
        for (cell, n) in self.terms(cost) {
            if n > 0 {
                cell.add(n);
            }
        }
    }

    fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            stab_nanos: self.stab_nanos.get(),
            ibs_nodes: self.ibs_nodes.get(),
            ibs_marks: self.ibs_marks.get(),
            residual_tests: self.residual_tests.get(),
            residual_passes: self.residual_passes.get(),
            non_indexable: self.non_indexable.get(),
            join_probes: self.join_probes.get(),
            join_retractions: self.join_retractions.get(),
            firings: self.firings.get(),
            ops: self.ops.get(),
        }
    }
}

struct Inner {
    registry: Arc<Registry>,
    accounts: Mutex<BTreeMap<Option<u32>, Account>>,
    names: Mutex<BTreeMap<u32, String>>,
    slow: Mutex<VecDeque<SlowOp>>,
    /// Requests at or over this wall-clock (nanos) enter the slow-op
    /// ring; `u64::MAX` disables capture.
    slow_threshold: AtomicU64,
    /// Ordinal of the next observed request.
    next_seq: AtomicU64,
}

/// The attribution recorder: cheap clonable handle, one branch per
/// call site when disabled.
#[derive(Clone)]
pub struct Profiler {
    enabled: bool,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

impl Profiler {
    /// The permanently no-op profiler.
    pub fn disabled() -> Profiler {
        Profiler::over(false, Arc::new(Registry::disabled()))
    }

    /// A profiler accounting into `registry` — the same registry the
    /// engine's telemetry is attached to, so the global counters the
    /// accounts partition live next to the account families. A
    /// disabled registry yields a disabled profiler.
    pub fn new(registry: &Arc<Registry>) -> Profiler {
        if !registry.is_enabled() {
            return Profiler::disabled();
        }
        Profiler::over(true, Arc::clone(registry))
    }

    fn over(enabled: bool, registry: Arc<Registry>) -> Profiler {
        Profiler {
            enabled,
            inner: Arc::new(Inner {
                registry,
                accounts: Mutex::new(BTreeMap::new()),
                names: Mutex::new(BTreeMap::new()),
                slow: Mutex::new(VecDeque::new()),
                slow_threshold: AtomicU64::new(u64::MAX),
                next_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Does this handle record anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The registry the accounts live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Bills `cost` to the account of `rule` (`None` = external),
    /// minting the account on first use. The terms are added under the
    /// map lock to the account in place; an all-zero cost bills nothing
    /// and mints nothing.
    pub fn bill(&self, rule: Option<u32>, cost: &CostSnapshot) {
        if !self.enabled || *cost == CostSnapshot::default() {
            return;
        }
        let mut accounts = self
            .inner
            .accounts
            .lock()
            .expect("profiler accounts poisoned: a holder panicked");
        let account = accounts.entry(rule).or_insert_with(|| {
            let label = match rule {
                Some(rid) => rid.to_string(),
                None => EXTERNAL_ACCOUNT.to_string(),
            };
            Account::mint(&self.inner.registry, &label)
        });
        account.add(cost);
    }

    /// Registers a display name for rule `rule` (used by `/top` and
    /// the shell ranking).
    pub fn name_rule(&self, rule: u32, name: &str) {
        if !self.enabled {
            return;
        }
        let mut names = self
            .inner
            .names
            .lock()
            .expect("profiler names poisoned: a holder panicked");
        names.insert(rule, name.to_string());
    }

    /// Snapshot of every account, external first then by rule id.
    pub fn accounts(&self) -> Vec<AccountSnapshot> {
        if !self.enabled {
            return Vec::new();
        }
        let accounts = self
            .inner
            .accounts
            .lock()
            .expect("profiler accounts poisoned: a holder panicked");
        let names = self
            .inner
            .names
            .lock()
            .expect("profiler names poisoned: a holder panicked");
        accounts
            .iter()
            .map(|(&rule, a)| AccountSnapshot {
                rule,
                name: rule.and_then(|rid| names.get(&rid).cloned()),
                cost: a.snapshot(),
            })
            .collect()
    }

    /// The `k` most expensive accounts, ranked by stab nanos
    /// descending, then total work units, then account key.
    pub fn top(&self, k: usize) -> Vec<AccountSnapshot> {
        let mut all = self.accounts();
        all.sort_by(|a, b| {
            b.cost
                .stab_nanos
                .cmp(&a.cost.stab_nanos)
                .then(b.cost.work().cmp(&a.cost.work()))
                .then(a.rule.cmp(&b.rule))
        });
        all.truncate(k);
        all
    }

    /// Sets the slow-op capture threshold (`u64::MAX` = off).
    pub fn set_slow_threshold_nanos(&self, nanos: u64) {
        // srclint:allow(atomic-ordering): an independent config word — the threshold guards no other data, so readers need no happens-before edge
        self.inner.slow_threshold.store(nanos, Ordering::Relaxed);
    }

    /// The current slow-op capture threshold.
    pub fn slow_threshold_nanos(&self) -> u64 {
        // srclint:allow(atomic-ordering): an independent config word — see set_slow_threshold_nanos
        self.inner.slow_threshold.load(Ordering::Relaxed)
    }

    /// Observes one completed request by its stage record: assigns it
    /// an ordinal and, if the record's total meets the threshold,
    /// captures it in the slow-op ring (evicting the oldest entry at
    /// capacity). Returns the ordinal.
    pub fn record_request(&self, op: &str, trace_id: Option<u64>, record: &StageRecord) -> u64 {
        if !self.enabled {
            return 0;
        }
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        // srclint:allow(atomic-ordering): an independent config word — see set_slow_threshold_nanos
        if record.total() >= self.inner.slow_threshold.load(Ordering::Relaxed) {
            let mut slow = self
                .inner
                .slow
                .lock()
                .expect("slow-op ring poisoned: a holder panicked");
            if slow.len() >= SLOW_OP_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(SlowOp {
                seq,
                op: op.to_string(),
                trace_id,
                record: *record,
            });
        }
        seq
    }

    /// Snapshot of the slow-op ring, oldest first. Never drains.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        if !self.enabled {
            return Vec::new();
        }
        let slow = self
            .inner
            .slow
            .lock()
            .expect("slow-op ring poisoned: a holder panicked");
        slow.iter().cloned().collect()
    }

    /// The `/profile` endpoint body: accounts, tail-latency quantiles
    /// of every registered histogram, and the slow-op ring — each entry
    /// with its `stages`, which sum to its `nanos` — as one JSON
    /// document (`schema: telemetry/profile-v2`).
    pub fn profile_json(&self, registry: &Registry) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("telemetry/profile-v2");
        match self.slow_threshold_nanos() {
            u64::MAX => w.key("slow_threshold_nanos").null(),
            threshold => w.key("slow_threshold_nanos").uint(threshold),
        };
        w.key("accounts").begin_array();
        for a in &self.accounts() {
            w.begin_object();
            a.write_identity(&mut w);
            w.key("cost");
            a.cost.write_json(&mut w);
            w.end_object();
        }
        w.end_array();
        w.key("quantiles").begin_array();
        for (name, count, sum, buckets) in &registry.histogram_snapshots() {
            w.begin_object();
            w.key("name").string(name);
            w.key("count").uint(*count);
            w.key("sum").uint(*sum);
            w.key("p50").uint(quantile(buckets, 0.50));
            w.key("p95").uint(quantile(buckets, 0.95));
            w.key("p99").uint(quantile(buckets, 0.99));
            w.end_object();
        }
        w.end_array();
        w.key("slow_ops").begin_array();
        for s in &self.slow_ops() {
            w.begin_object();
            w.key("seq").uint(s.seq);
            w.key("op").string(&s.op);
            match s.trace_id {
                Some(id) => w.key("trace_id").uint(id),
                None => w.key("trace_id").null(),
            };
            w.key("nanos").uint(s.record.total());
            w.key("stages");
            s.record.write_stages_json(&mut w);
            w.key("cost");
            s.record.work.write_json(&mut w);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The `/top` endpoint body: the `k` most expensive accounts
    /// (`schema: telemetry/top-v1`).
    pub fn top_json(&self, k: usize) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("telemetry/top-v1");
        w.key("top").begin_array();
        for a in &self.top(k) {
            w.begin_object();
            a.write_identity(&mut w);
            w.key("work").uint(a.cost.work());
            w.key("cost");
            a.cost.write_json(&mut w);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The shell's `:top` table: one row per account, ranked.
    pub fn render_top_text(&self, k: usize) -> String {
        let top = self.top(k);
        if top.is_empty() {
            return "no accounts (profiler disabled or no work yet)\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<20} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "rule",
            "name",
            "stab_us",
            "nodes",
            "marks",
            "resid",
            "nonidx",
            "probes",
            "fired",
            "ops"
        );
        for a in &top {
            let _ = writeln!(
                out,
                "{:<10} {:<20} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                a.label(),
                a.name.as_deref().unwrap_or("-"),
                a.cost.stab_nanos / 1_000,
                a.cost.ibs_nodes,
                a.cost.ibs_marks,
                a.cost.residual_tests,
                a.cost.non_indexable,
                a.cost.join_probes,
                a.cost.firings,
                a.cost.ops,
            );
        }
        out
    }

    /// The shell's `:slow` table: the slow-op ring, oldest first.
    pub fn render_slow_text(&self) -> String {
        let slow = self.slow_ops();
        let threshold = self.slow_threshold_nanos();
        let mut out = String::new();
        if threshold == u64::MAX {
            out.push_str("slow-op capture off (no threshold set)\n");
        } else {
            let _ = writeln!(out, "slow-op threshold: {} us", threshold / 1_000);
        }
        if slow.is_empty() {
            out.push_str("no slow ops captured\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:<18} {:>12} {:>8} {:>8} {:>8}",
            "seq", "op", "trace", "us", "nodes", "resid", "fired"
        );
        for s in &slow {
            let trace = s
                .trace_id
                .map(|id| format!("{id:#x}"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<8} {:<12} {:<18} {:>12} {:>8} {:>8} {:>8}",
                s.seq,
                s.op,
                trace,
                s.record.total() / 1_000,
                s.record.work.ibs_nodes,
                s.record.work.residual_tests,
                s.record.work.firings,
            );
        }
        out
    }

    /// The flight-dump sections: accounts then slow ops, text form.
    pub fn render_flight(&self) -> String {
        let mut out = String::new();
        out.push_str("== profile (per-rule accounts) ==\n");
        out.push_str(&self.render_top_text(usize::MAX));
        out.push_str("\n== slow ops ==\n");
        out.push_str(&self.render_slow_text());
        out
    }
}

/// Quantile triple of one histogram's buckets — the `/metrics`
/// exposition comment and `/profile` both use this.
pub(crate) fn quantile_line(name: &str, buckets: &[u64; HISTOGRAM_BUCKETS]) -> String {
    format!(
        "# quantiles {name} p50={} p95={} p99={}",
        quantile(buckets, 0.50),
        quantile(buckets, 0.95),
        quantile(buckets, 0.99)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn firing() -> CostSnapshot {
        CostSnapshot {
            firings: 1,
            ..CostSnapshot::default()
        }
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        p.bill(Some(3), &firing());
        p.record_request("insert", Some(7), &StageRecord::other(1_000_000));
        assert!(p.accounts().is_empty());
        assert!(p.slow_ops().is_empty());
        // A disabled registry also yields a disabled profiler.
        assert!(!Profiler::new(&Arc::new(Registry::disabled())).is_enabled());
    }

    #[test]
    fn accounts_partition_into_labelled_families() {
        let registry = Arc::new(Registry::new());
        let p = Profiler::new(&registry);
        p.bill(Some(2), &firing());
        p.bill(Some(2), &firing());
        p.bill(Some(5), &firing());
        p.bill(
            None,
            &CostSnapshot {
                ops: 1,
                ..CostSnapshot::default()
            },
        );
        p.bill(
            Some(5),
            &CostSnapshot {
                join_probes: 7,
                ..CostSnapshot::default()
            },
        );
        // Nothing to bill: no account for rule 9.
        p.bill(Some(9), &CostSnapshot::default());
        p.name_rule(2, "escalate");
        assert_eq!(
            registry.counter_value("profile_rule_firings_total{rule=\"2\"}"),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("profile_rule_ops_total{rule=\"external\"}"),
            Some(1)
        );
        assert_eq!(
            registry.counter_family_total("profile_rule_firings_total"),
            3
        );
        let accounts = p.accounts();
        assert_eq!(accounts.len(), 3); // external, 2, 5
        assert_eq!(accounts[0].rule, None);
        assert_eq!(accounts[1].name.as_deref(), Some("escalate"));
        assert_eq!(accounts[2].cost.join_probes, 7);
        assert_eq!(accounts[2].cost.firings, 1);
    }

    #[test]
    fn top_ranks_by_stab_then_work() {
        let registry = Arc::new(Registry::new());
        let p = Profiler::new(&registry);
        let stab = |nanos| CostSnapshot {
            stab_nanos: nanos,
            ..CostSnapshot::default()
        };
        p.bill(Some(1), &stab(100));
        p.bill(Some(2), &stab(900));
        // No stab time, some work.
        p.bill(
            Some(3),
            &CostSnapshot {
                join_probes: 50,
                ..CostSnapshot::default()
            },
        );
        let top = p.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].rule, Some(2));
        assert_eq!(top[1].rule, Some(1));
        let all = p.top(10);
        assert_eq!(all[2].rule, Some(3));
    }

    #[test]
    fn slow_ring_is_bounded_and_thresholded() {
        let registry = Arc::new(Registry::new());
        let p = Profiler::new(&registry);
        // Threshold off: nothing captures.
        p.record_request("insert", None, &StageRecord::other(u64::MAX - 1));
        assert!(p.slow_ops().is_empty());
        p.set_slow_threshold_nanos(1_000);
        p.record_request("insert", None, &StageRecord::other(999));
        assert!(p.slow_ops().is_empty());
        for i in 0..(SLOW_OP_CAPACITY + 5) {
            p.record_request("sync", Some(i as u64), &StageRecord::other(2_000));
        }
        let slow = p.slow_ops();
        assert_eq!(slow.len(), SLOW_OP_CAPACITY);
        // Oldest evicted: the first surviving capture is #5 of the loop.
        assert_eq!(slow[0].trace_id, Some(5));
        // Ordinals count every observed request (2 fast + the loop).
        assert_eq!(
            slow.last().unwrap().seq,
            2 + (SLOW_OP_CAPACITY as u64 + 5) - 1
        );
    }

    #[test]
    fn profile_json_is_schema_stable() {
        let registry = Arc::new(Registry::new());
        registry.histogram("lat_nanos").record(7);
        let p = Profiler::new(&registry);
        p.bill(Some(1), &firing());
        p.name_rule(1, "a \"quoted\" rule");
        p.set_slow_threshold_nanos(10);
        p.record_request("insert", Some(0xdead), &StageRecord::other(55));
        let json = p.profile_json(&registry);
        assert!(json.starts_with("{\"schema\":\"telemetry/profile-v2\""));
        assert!(json.contains("\"slow_threshold_nanos\":10"));
        assert!(json.contains("\"rule\":\"1\""));
        assert!(json.contains("a \\\"quoted\\\" rule"));
        assert!(json.contains("\"name\":\"lat_nanos\""));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"trace_id\":57005"));
        assert!(json.contains("\"nanos\":55,\"stages\":{\"decode\":0,"));
        assert!(json.contains("\"other\":55,"));
        let top = p.top_json(5);
        assert!(top.starts_with("{\"schema\":\"telemetry/top-v1\""));
        assert!(top.contains("\"work\":"));
    }

    #[test]
    fn text_renderings_cover_empty_and_filled() {
        let p = Profiler::disabled();
        assert!(p.render_top_text(5).contains("no accounts"));
        assert!(p.render_slow_text().contains("capture off"));
        let registry = Arc::new(Registry::new());
        let p = Profiler::new(&registry);
        p.bill(Some(1), &firing());
        p.set_slow_threshold_nanos(1);
        p.record_request("delete", None, &StageRecord::other(5_000));
        assert!(p.render_top_text(5).contains("rule"));
        let slow = p.render_slow_text();
        assert!(slow.contains("delete"));
        assert!(p.render_flight().contains("== slow ops =="));
    }
}
