//! The join-memo engine: every registered join condition's memo, plus
//! relation routing for retraction and the crate's metric families.

use crate::compile::CompiledJoin;
use crate::memo::{InsertOutcome, JoinMemo};
use predicate::JoinCondition;
use relation::fx::FnvHashMap;
use relation::{Catalog, Tuple};
use std::hash::{Hash, Hasher};
use telemetry::{Counter, Histogram, Registry, Telemetry};

/// Per-condition statistics, for `:memo`, stats surfaces, and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoStats {
    /// Engine-assigned condition key.
    pub key: u64,
    /// Premise relations, in premise order.
    pub relations: Vec<String>,
    /// Alpha-memory size per premise.
    pub alpha_counts: Vec<usize>,
    /// Token count per level; the last entry is complete matches.
    pub level_counts: Vec<usize>,
    /// Rough resident bytes.
    pub approx_bytes: u64,
}

struct Metrics {
    /// Candidate partial matches / tuples examined while extending.
    probes: Counter,
    /// Tokens removed by deletions.
    retractions: Counter,
    /// Live partial-match count, sampled after each memo mutation.
    partials: Histogram,
    /// Rough resident memo bytes, sampled after each memo mutation.
    bytes: Histogram,
}

impl Metrics {
    /// A disabled registry hands out no-op handles.
    fn from_registry(registry: &Registry) -> Metrics {
        Metrics {
            probes: registry.counter("join_probes_total"),
            retractions: registry.counter("join_retractions_total"),
            partials: registry.histogram("join_partial_matches"),
            bytes: registry.histogram("join_memo_bytes"),
        }
    }

    /// Samples `memo`'s gauges after a mutation. Reading them walks
    /// the memo's tables, so a disabled registry skips the read too.
    fn sample(&self, memo: &JoinMemo) {
        if self.partials.is_enabled() {
            self.partials.record(memo.partial_count() as u64);
            self.bytes.record(memo.approx_bytes());
        }
    }

    /// Counts one insertion into `memo`.
    fn inserted(&self, memo: &JoinMemo, out: &InsertOutcome) {
        self.probes.add(out.probes);
        self.sample(memo);
    }
}

/// All join memos of one rule engine.
pub struct JoinEngine {
    memos: FnvHashMap<u64, JoinMemo>,
    /// relation -> [(condition key, premise index)], sorted.
    by_relation: FnvHashMap<String, Vec<(u64, usize)>>,
    metrics: Metrics,
}

impl Default for JoinEngine {
    fn default() -> Self {
        JoinEngine::new()
    }
}

impl JoinEngine {
    /// An empty engine with disabled metrics.
    pub fn new() -> JoinEngine {
        JoinEngine {
            memos: FnvHashMap::default(),
            by_relation: FnvHashMap::default(),
            metrics: Metrics::from_registry(&Registry::disabled()),
        }
    }

    /// Mints this crate's metric families from `telemetry`'s registry
    /// (a disabled registry resets the handles to no-ops).
    pub fn attach_metrics(&mut self, telemetry: impl Into<Telemetry>) {
        self.metrics = Metrics::from_registry(telemetry.into().registry());
    }

    /// True if no conditions are registered.
    pub fn is_empty(&self) -> bool {
        self.memos.is_empty()
    }

    /// Registers a compiled condition under the caller-chosen `key`
    /// (the rules engine uses a monotonic counter). The memo starts
    /// empty; use [`seed`](Self::seed) to fill it from existing tuples.
    pub fn register(&mut self, key: u64, compiled: CompiledJoin) {
        for i in 0..compiled.arity() {
            let premises = self
                .by_relation
                .entry(compiled.relation(i).to_string())
                .or_default();
            premises.push((key, i));
            premises.sort_unstable();
        }
        self.memos.insert(key, JoinMemo::new(compiled));
    }

    /// Removes a condition and its memo, handing back the condition.
    pub fn unregister(&mut self, key: u64) -> Option<JoinCondition> {
        let memo = self.memos.remove(&key)?;
        for i in 0..memo.plan().arity() {
            if let Some(v) = self.by_relation.get_mut(memo.plan().relation(i)) {
                v.retain(|&(k, _)| k != key);
                if v.is_empty() {
                    self.by_relation.remove(memo.plan().relation(i));
                }
            }
        }
        Some(memo.plan.cond)
    }

    /// The condition registered under `key`: its memo holds the only
    /// copy.
    pub fn condition(&self, key: u64) -> Option<&JoinCondition> {
        self.memos.get(&key).map(|memo| memo.plan().condition())
    }

    /// Feeds an alpha-matching tuple into premise `premise` of
    /// condition `key`. Returns the completed matches (sorted by
    /// tuple-id vector) plus probe/creation counts.
    pub fn insert(&mut self, key: u64, premise: usize, tid: u32, tuple: &Tuple) -> InsertOutcome {
        let Some(memo) = self.memos.get_mut(&key) else {
            return InsertOutcome::default();
        };
        let out = memo.insert(premise, tid, tuple);
        self.metrics.inserted(memo, &out);
        out
    }

    /// Retracts tuple `tid` of `relation` from every memo with a
    /// premise over it, in key order; `each` sees `(condition key,
    /// tokens retracted)` per premise — how a caller bills each
    /// condition's share without a list built per retraction. Returns
    /// the total.
    pub fn retract_each(
        &mut self,
        relation: &str,
        tid: u32,
        mut each: impl FnMut(u64, u64),
    ) -> u64 {
        let mut total = 0;
        for &(key, premise) in self.by_relation.get(relation).into_iter().flatten() {
            if let Some(memo) = self.memos.get_mut(&key) {
                let n = memo.retract(premise, tid);
                total += n;
                each(key, n);
                self.metrics.sample(memo);
            }
        }
        self.metrics.retractions.add(total);
        total
    }

    /// Retracts tuple `tid` of `relation` from every memo with a
    /// premise over it. Returns the number of tokens retracted.
    pub fn retract(&mut self, relation: &str, tid: u32) -> u64 {
        self.retract_each(relation, tid, |_, _| {})
    }

    /// Seeds condition `key` from every existing tuple of `catalog`
    /// that passes its premises' alpha tests, premise by premise in
    /// ascending tuple-id order. Seeding fires nothing: the complete
    /// matches it builds are only memo state.
    pub fn seed(&mut self, key: u64, catalog: &Catalog) {
        if let Some(memo) = self.memos.get_mut(&key) {
            memo.seed(catalog, |memo, out| self.metrics.inserted(memo, &out));
        }
    }

    /// Rebuilds every memo from scratch against the current database:
    /// discard all alpha entries and tokens, then re-seed each
    /// condition from `catalog`. Restores the memo invariant (tokens =
    /// all valid premise prefixes over current tuples) after a caller
    /// mutated the database without driving the corresponding events
    /// through [`insert`](Self::insert)/[`retract`](Self::retract) —
    /// the rules engine uses this when a cascade aborts midway.
    pub fn reseed_all(&mut self, catalog: &Catalog) {
        let keys: Vec<u64> = {
            let mut k: Vec<u64> = self.memos.keys().copied().collect();
            k.sort_unstable();
            k
        };
        for key in keys {
            if let Some(memo) = self.memos.get_mut(&key) {
                memo.reset();
            }
            self.seed(key, catalog);
        }
    }

    /// The test oracle for everything the memos maintain incrementally.
    /// Per condition: the slab's links, stored positions, free list
    /// and counters are consistent; the running digest equals a full
    /// recompute and the digest of a fresh memo seeded from `catalog`;
    /// the complete matches equal [`naive::full_matches`].
    ///
    /// [`naive::full_matches`]: crate::naive::full_matches
    pub fn check_invariants(&self, catalog: &Catalog) -> Result<(), String> {
        for (key, memo) in &self.memos {
            let fail = |what: &str| format!("condition {key}: {what}");
            memo.check_structure().map_err(|e| fail(&e))?;
            let mut fresh = JoinMemo::new(memo.plan().clone());
            fresh.seed(catalog, |_, _| {});
            if fresh.fingerprint() != memo.fingerprint() {
                return Err(fail("digest differs from a freshly seeded memo's"));
            }
            if memo.complete_matches() != crate::naive::full_matches(memo.plan(), catalog) {
                return Err(fail("complete matches differ from the naive join"));
            }
        }
        Ok(())
    }

    /// Statistics for every registered condition, sorted by key.
    pub fn stats(&self) -> Vec<MemoStats> {
        let mut out: Vec<MemoStats> = self
            .memos
            .iter()
            .map(|(&key, memo)| memo_stats(key, memo))
            .collect();
        out.sort_by_key(|s| s.key);
        out
    }

    /// Statistics for one condition.
    pub fn stats_for(&self, key: u64) -> Option<MemoStats> {
        self.memos.get(&key).map(|memo| memo_stats(key, memo))
    }

    /// Complete matches of condition `key` as sorted tuple-id vectors.
    pub fn complete_matches(&self, key: u64) -> Vec<Vec<u32>> {
        self.memos
            .get(&key)
            .map(|m| m.complete_matches())
            .unwrap_or_default()
    }

    /// Order-independent digest of every memo's state. Keys do not
    /// enter the digest (they are engine-internal and differ across
    /// restores); each memo contributes its condition source plus its
    /// state hash, summed, so identical rule sets over identical
    /// databases digest identically no matter how they were built.
    pub fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0x243f_6a88_85a3_08d3;
        for memo in self.memos.values() {
            let mut h = relation::fx::FnvHasher::default();
            memo.plan()
                .condition()
                .to_source()
                .unwrap_or_default()
                .hash(&mut h);
            acc = acc.wrapping_add(h.finish() ^ memo.fingerprint());
        }
        acc
    }
}

/// The statistics of `memo`, registered under `key`.
fn memo_stats(key: u64, memo: &JoinMemo) -> MemoStats {
    MemoStats {
        key,
        relations: (0..memo.plan().arity())
            .map(|i| memo.plan().relation(i).to_string())
            .collect(),
        alpha_counts: memo.alpha_counts(),
        level_counts: memo.level_counts().to_vec(),
        approx_bytes: memo.approx_bytes(),
    }
}
