//! Per-rule cost attribution: accounts, slow-op log, rankings.
//!
//! Section 5.2 of the paper prices one tuple's match as hash + stab +
//! residual work; the global counters in the [`Registry`] total that
//! price across the whole system. This module splits the bill: every
//! unit of match/join/cascade work is *attributed* to the rule that
//! caused it — level-0 (client-injected) events bill the reserved
//! `external` account, cascaded events bill the rule whose firing
//! queued them, join probes and retractions bill the rule owning the
//! join condition, firings bill the fired rule. The engine charges each
//! piece of work from the counts the call that did it returns, the same
//! counts its op's [`StageRecord`] sums, and bills the op's charges once
//! when the op ends ([`Profiler::bill`]). The invariant the root
//! integration test pins: for every cost term, the accounts sum to the
//! global counter.
//!
//! A [`Profiler`] is a cheap clonable handle with the same disabled
//! contract as [`Counter`](crate::Counter): a disabled profiler costs
//! one branch per call site and keeps nothing. An enabled profiler
//! keeps each account as a plain [`CostSnapshot`] in its ledger, beside
//! the rule names and the slow-op ring, under one lock that nothing
//! else is taken under. `/profile` and the shell's `:top` and `:slow`
//! read the ledger.
//!
//! The profiler also owns the **slow-op ring**: a bounded log of
//! requests whose wall-clock met a configurable threshold, each with
//! its wire trace id (if the client stamped one) and the stage record
//! it carried — nanoseconds per stage and the work it did. The ring
//! keeps the newest [`SLOW_OP_CAPACITY`] entries; readers snapshot,
//! they never drain.

use crate::histogram::{quantile, HISTOGRAM_BUCKETS};
use crate::json::JsonWriter;
use crate::registry::Registry;
use crate::stages::StageRecord;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

    /// The account's `"rule"` and `"name"` members in `/profile`.
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

/// Everything an enabled profiler keeps, under one lock: a snapshot
/// reads the accounts and the names in one acquisition, and a bill adds
/// an op's costs in one. Nothing else is locked while it is held.
#[derive(Default)]
struct Ledger {
    accounts: BTreeMap<Option<u32>, CostSnapshot>,
    names: BTreeMap<u32, String>,
    slow: VecDeque<SlowOp>,
    /// Acquisitions that billed an op's costs.
    bills: u64,
}

struct Inner {
    ledger: Mutex<Ledger>,
    /// Requests at or over this wall-clock (nanos) enter the slow-op
    /// ring; `u64::MAX` disables capture. Stored and loaded `Relaxed`:
    /// an independent config word that guards no other data, so a
    /// reader needs no happens-before edge.
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
        Profiler::over(false)
    }

    /// A profiler over `registry` — the registry the engine's telemetry
    /// is attached to, whose global counters the accounts partition. A
    /// disabled registry yields a disabled profiler.
    pub fn new(registry: &Registry) -> Profiler {
        Profiler::over(registry.is_enabled())
    }

    fn over(enabled: bool) -> Profiler {
        Profiler {
            enabled,
            inner: Arc::new(Inner {
                ledger: Mutex::default(),
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

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.inner
            .ledger
            .lock()
            .expect("profiler ledger poisoned: a holder panicked")
    }

    /// Bills one op's costs: each entry's cost is added to the account
    /// of its rule (`None` = external), minted on first use, all under
    /// one acquisition of the ledger. An all-zero cost mints nothing,
    /// and an op with nothing to bill takes no lock.
    pub fn bill(&self, entries: &[(Option<u32>, CostSnapshot)]) {
        let zero = CostSnapshot::default();
        if !self.enabled || entries.iter().all(|(_, cost)| *cost == zero) {
            return;
        }
        let mut ledger = self.ledger();
        ledger.bills += 1;
        for (rule, cost) in entries.iter().filter(|(_, cost)| *cost != zero) {
            ledger.accounts.entry(*rule).or_default().add(cost);
        }
    }

    /// How many [`bill`](Self::bill) calls have reached the accounts:
    /// the ledger acquisitions billing cost, as a count exact on any
    /// host.
    pub fn bills(&self) -> u64 {
        self.ledger().bills
    }

    /// Registers a display name for rule `rule` (used by `/profile`
    /// and the shell ranking).
    pub fn name_rule(&self, rule: u32, name: &str) {
        if !self.enabled {
            return;
        }
        self.ledger().names.insert(rule, name.to_string());
    }

    /// Snapshot of every account, external first then by rule id.
    pub fn accounts(&self) -> Vec<AccountSnapshot> {
        if !self.enabled {
            return Vec::new();
        }
        let ledger = self.ledger();
        ledger
            .accounts
            .iter()
            .map(|(&rule, &cost)| AccountSnapshot {
                rule,
                name: rule.and_then(|rid| ledger.names.get(&rid).cloned()),
                cost,
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
        self.inner.slow_threshold.store(nanos, Ordering::Relaxed);
    }

    /// The current slow-op capture threshold.
    pub fn slow_threshold_nanos(&self) -> u64 {
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
        if record.total() >= self.inner.slow_threshold.load(Ordering::Relaxed) {
            let slow = SlowOp {
                seq,
                op: op.to_string(),
                trace_id,
                record: *record,
            };
            let mut ledger = self.ledger();
            if ledger.slow.len() >= SLOW_OP_CAPACITY {
                ledger.slow.pop_front();
            }
            ledger.slow.push_back(slow);
        }
        seq
    }

    /// Snapshot of the slow-op ring, oldest first. Never drains.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        if !self.enabled {
            return Vec::new();
        }
        self.ledger().slow.iter().cloned().collect()
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
        p.bill(&[(Some(3), firing())]);
        p.record_request("insert", Some(7), &StageRecord::other(1_000_000));
        assert!(p.accounts().is_empty());
        assert!(p.slow_ops().is_empty());
        assert_eq!(p.bills(), 0);
        // A disabled registry also yields a disabled profiler.
        assert!(!Profiler::new(&Registry::disabled()).is_enabled());
    }

    #[test]
    fn one_bill_adds_an_ops_entries_to_their_accounts() {
        let registry = Arc::new(Registry::new());
        let p = Profiler::new(&registry);
        let cost = |ops, join_probes| CostSnapshot {
            ops,
            join_probes,
            ..CostSnapshot::default()
        };
        p.bill(&[
            (Some(2), firing()),
            (Some(2), firing()),
            (Some(5), firing()),
            (None, cost(1, 0)),
            (Some(5), cost(0, 7)),
            // Nothing to bill: no account for rule 9.
            (Some(9), CostSnapshot::default()),
        ]);
        assert_eq!(p.bills(), 1, "one op, one acquisition");
        // An op with nothing to bill takes no lock and mints nothing.
        p.bill(&[(Some(9), CostSnapshot::default())]);
        p.bill(&[]);
        assert_eq!(p.bills(), 1);
        p.name_rule(2, "escalate");
        let accounts = p.accounts();
        assert_eq!(accounts.len(), 3); // external, 2, 5
        assert_eq!(accounts[0].rule, None);
        assert_eq!(accounts[0].cost, cost(1, 0));
        assert_eq!(accounts[1].name.as_deref(), Some("escalate"));
        assert_eq!(accounts[1].cost.firings, 2);
        assert_eq!(accounts[2].cost.join_probes, 7);
        assert_eq!(accounts[2].cost.firings, 1);
        // The accounts are the profiler's own: the registry holds none.
        assert!(registry.names().is_empty(), "{:?}", registry.names());
    }

    #[test]
    fn top_ranks_by_stab_then_work() {
        let registry = Arc::new(Registry::new());
        let p = Profiler::new(&registry);
        let stab = |nanos| CostSnapshot {
            stab_nanos: nanos,
            ..CostSnapshot::default()
        };
        let probes = CostSnapshot {
            join_probes: 50,
            ..CostSnapshot::default()
        };
        // Rule 3: no stab time, some work.
        p.bill(&[
            (Some(1), stab(100)),
            (Some(2), stab(900)),
            (Some(3), probes),
        ]);
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
        p.bill(&[(Some(1), firing())]);
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
    }

    #[test]
    fn text_renderings_cover_empty_and_filled() {
        let p = Profiler::disabled();
        assert!(p.render_top_text(5).contains("no accounts"));
        assert!(p.render_slow_text().contains("capture off"));
        let registry = Arc::new(Registry::new());
        let p = Profiler::new(&registry);
        p.bill(&[(Some(1), firing())]);
        p.set_slow_threshold_nanos(1);
        p.record_request("delete", None, &StageRecord::other(5_000));
        assert!(p.render_top_text(5).contains("rule"));
        let slow = p.render_slow_text();
        assert!(slow.contains("delete"));
    }
}
