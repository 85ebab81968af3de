//! A concurrent front-end over the paper's predicate index, for
//! callers that bring their own threads.
//!
//! [`ShardedPredicateIndex`] partitions the Figure 1 structure by the
//! same key the paper hashes on — the relation name. Each shard is one
//! [`IndexCore`] — the very type the sequential index wraps — owning a
//! disjoint set of relations: their per-attribute IBS-trees and
//! non-indexable lists, and the slice of the `PREDICATES` store for
//! predicates over those relations, all behind one [`RwLock`]. The
//! matching path takes only read locks, so any number of tuples can be
//! matched concurrently — including against the *same*
//! relation, since an `RwLock` admits parallel readers. Registration
//! and removal write-lock exactly one shard, so predicate churn on one
//! relation never blocks matching on another.
//!
//! Ids are drawn from a process-wide atomic counter *after* binding
//! succeeds, which keeps the assignment sequence identical to
//! [`PredicateIndex`](crate::PredicateIndex) under single-threaded use —
//! the differential tests rely on that.
//!
//! The index spawns no threads of its own. The rule engine is serial
//! and runs the lock-free [`PredicateIndex`](crate::PredicateIndex);
//! this front-end is the leaf for callers that match from several
//! threads through `&self` (DESIGN.md §9 records why in-index batch
//! fan-out was measured and deleted).

use crate::index::IndexCore;
use crate::matcher::{IndexError, Matcher, PredicateId, StoredPredicate};
use crate::metrics::IndexMetrics;
use crate::stats::{IndexStats, RelationStats, ShardStats};
use ibs::BalanceMode;
use predicate::Predicate;
use relation::{Catalog, Tuple};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use telemetry::{MatchTrace, Telemetry};

/// FNV-1a over the relation name — the same function the per-shard maps
/// key with, reused as the shard selector (the Figure 1 hash step).
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sharded, thread-safe [`PredicateIndex`](crate::PredicateIndex)
/// front-end. Semantically identical to the sequential index — same
/// placement logic, same residual test, same id sequence — but state is
/// partitioned by relation name behind per-shard reader–writer locks,
/// so any number of caller threads can match through `&self` at once.
///
/// ```
/// use predindex::{Matcher, ShardedPredicateIndex};
/// use predicate::parse_predicate;
/// use relation::{AttrType, Database, Schema, Value};
///
/// let mut db = Database::new();
/// db.create_relation(
///     Schema::builder("emp").attr("age", AttrType::Int).build(),
/// )
/// .unwrap();
///
/// let index = ShardedPredicateIndex::new();
/// let id = index
///     .insert_shared(parse_predicate("emp.age > 50").unwrap(), db.catalog())
///     .unwrap();
///
/// let old = db.insert("emp", vec![Value::Int(61)]).unwrap();
/// let young = db.insert("emp", vec![Value::Int(30)]).unwrap();
/// // Matching takes `&self`: share `&index` across your own threads.
/// assert_eq!(index.match_tuple("emp", &old), vec![id]);
/// assert_eq!(index.match_tuple("emp", &young), vec![]);
/// ```
#[derive(Debug)]
pub struct ShardedPredicateIndex {
    shards: Box<[RwLock<IndexCore>]>,
    /// Power-of-two mask selecting a shard from the relation-name hash.
    mask: usize,
    next_id: AtomicU32,
    /// Disabled by default; swapped by
    /// [`attach_metrics`](ShardedPredicateIndex::attach_metrics)
    /// (holds one lock-wait counter per shard).
    metrics: Arc<IndexMetrics>,
}

impl Default for ShardedPredicateIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedPredicateIndex {
    /// 16 shards of AVL-balanced IBS-trees.
    pub fn new() -> Self {
        Self::with_shards(16)
    }

    /// Explicit shard count (rounded up to a power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedPredicateIndex {
            shards: (0..n)
                .map(|_| RwLock::new(IndexCore::new(BalanceMode::Avl)))
                .collect(),
            mask: n - 1,
            next_id: AtomicU32::new(0),
            metrics: IndexMetrics::disabled(),
        }
    }

    /// Points the index at `telemetry` (a bare `Arc<Registry>` converts
    /// into a counters-only handle): match-path and per-shard lock-wait
    /// counters go to its registry, `shard_lock` / `predindex_stab` /
    /// `predindex_residual` spans to its tracer, and workload accounts
    /// to its workload handle, backfilled with the predicates already
    /// registered. Whatever was attached before is replaced whole.
    /// Until this is called the index runs with the no-op bundle: one
    /// branch per would-be recording site.
    pub fn attach_metrics(&mut self, telemetry: impl Into<Telemetry>) {
        let telemetry = telemetry.into();
        self.metrics = IndexMetrics::new(&telemetry, self.shards.len());
        for shard in self.shards.iter_mut() {
            // `&mut self` proves no guard is live, so no lock is taken.
            shard
                .get_mut()
                .expect("shard lock poisoned: a writer panicked mid-update")
                .rebind(&self.metrics);
        }
    }

    /// Span-wrapped shard-lock acquisition: times the wait for the
    /// lock-wait histogram and brackets it with a `shard_lock` span.
    fn lock_read(&self, sid: usize) -> RwLockReadGuard<'_, IndexCore> {
        let wait = self.metrics.lock_timer();
        let guard = {
            let _span = self
                .metrics
                .tracer()
                .span_with("shard_lock", || vec![("shard", sid.to_string())]);
            self.shards[sid]
                .read()
                .expect("shard lock poisoned: a writer panicked mid-update")
        };
        self.metrics.record_lock_wait(sid, wait);
        guard
    }

    /// [`lock_read`](Self::lock_read) for writers.
    fn lock_write(&self, sid: usize) -> RwLockWriteGuard<'_, IndexCore> {
        let wait = self.metrics.lock_timer();
        let guard = {
            let _span = self
                .metrics
                .tracer()
                .span_with("shard_lock", || vec![("shard", sid.to_string())]);
            self.shards[sid]
                .write()
                .expect("shard lock poisoned: a writer panicked mid-update")
        };
        self.metrics.record_lock_wait(sid, wait);
        guard
    }

    /// The Figure 1 EXPLAIN: the exact path `tuple` takes through the
    /// owning shard, with per-stage work counts and every residual-test
    /// outcome. Takes the shard's read lock like a normal match.
    pub fn explain_tuple(&self, relation: &str, tuple: &Tuple) -> MatchTrace {
        let sid = self.shard_of(relation);
        let mut trace = self.lock_read(sid).explain(relation, tuple);
        trace.shard = Some(sid);
        trace
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, relation: &str) -> usize {
        fnv1a(relation) as usize & self.mask
    }

    /// Registers a predicate through a shared reference: binds against
    /// the catalog, draws a fresh id, and write-locks only the owning
    /// shard. Safe to call concurrently with matching and with inserts
    /// on other relations.
    pub fn insert_shared(
        &self,
        pred: Predicate,
        catalog: &Catalog,
    ) -> Result<PredicateId, IndexError> {
        let stored = StoredPredicate::bind(pred, catalog)?;
        let sid = self.shard_of(stored.bound.relation());
        let mut shard = self.lock_write(sid);
        // Allocate under the shard lock so the single-threaded id
        // sequence is exactly PredicateIndex's (0, 1, 2, ...), and stop
        // at the last id like it does: a wrapped counter would hand out
        // an id some shard still holds.
        let id = self
            .next_id
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_add(1))
            .map(PredicateId)
            .map_err(|_| IndexError::IdsExhausted)?;
        shard.insert_bound(id, stored, catalog, &self.metrics);
        Ok(id)
    }

    /// Unregisters a predicate through a shared reference. The owning
    /// shard is found by probing with read locks; only that shard is
    /// write-locked.
    pub fn remove_shared(&self, id: PredicateId) -> Option<Predicate> {
        for sid in 0..self.shards.len() {
            let owns = self.lock_read(sid).contains(id);
            if owns {
                // Re-probe under the write lock: a concurrent remover
                // may have won the race between the two acquisitions.
                // srclint:allow(lock-discipline, lock-order): guards are strictly sequential — the probe's read guard is dropped before the write lock is taken
                if let Some(p) = self.lock_write(sid).remove(id) {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Matching ids appended into a caller-owned buffer (hot path).
    /// Takes a single shard's read lock; never blocks other readers.
    pub fn match_tuple_into(&self, relation: &str, tuple: &Tuple, out: &mut Vec<PredicateId>) {
        let sid = self.shard_of(relation);
        let shard = self.lock_read(sid);
        shard.match_into(relation, tuple, out, &self.metrics);
    }

    /// Per-shard structure snapshot (lock-occupancy diagnostics).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let mut stats: Vec<ShardStats> = (0..self.shards.len())
            .map(|shard| {
                let IndexStats {
                    relations,
                    predicates,
                } = self.lock_read(shard).stats();
                ShardStats {
                    shard,
                    predicates,
                    imbalance: 0.0,
                    relations,
                }
            })
            .collect();
        let total: usize = stats.iter().map(|s| s.predicates).sum();
        if total > 0 {
            let mean = total as f64 / stats.len() as f64;
            for s in &mut stats {
                s.imbalance = s.predicates as f64 / mean;
            }
        } else {
            // No predicates anywhere: the index is trivially balanced,
            // not infinitely skewed — report the balanced value.
            for s in &mut stats {
                s.imbalance = 1.0;
            }
        }
        stats
    }

    /// Whole-index snapshot in the same shape as
    /// [`PredicateIndex::stats`](crate::PredicateIndex::stats), merging
    /// all shards.
    pub fn stats(&self) -> IndexStats {
        let per_shard = self.shard_stats();
        let predicates = per_shard.iter().map(|s| s.predicates).sum();
        let mut relations: Vec<RelationStats> =
            per_shard.into_iter().flat_map(|s| s.relations).collect();
        relations.sort_by(|a, b| a.relation.cmp(&b.relation));
        IndexStats {
            relations,
            predicates,
        }
    }
}

impl Matcher for ShardedPredicateIndex {
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError> {
        self.insert_shared(pred, catalog)
    }

    fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        self.remove_shared(id)
    }

    fn match_tuple(&self, relation: &str, tuple: &Tuple) -> Vec<PredicateId> {
        let mut out = Vec::new();
        self.match_tuple_into(relation, tuple, &mut out);
        out
    }

    fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|sid| self.lock_read(sid).len())
            .sum()
    }

    fn strategy(&self) -> &'static str {
        "sharded-ibs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredicateIndex;
    use predicate::parse_predicate;
    use relation::{AttrType, Database, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        for name in ["emp", "dept", "proj", "acct"] {
            db.create_relation(
                Schema::builder(name)
                    .attr("a", AttrType::Int)
                    .attr("b", AttrType::Int)
                    .build(),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn ids_match_sequential_index() {
        let db = db();
        let mut seq = PredicateIndex::new();
        let sharded = ShardedPredicateIndex::new();
        for (rel, lo) in [("emp", 1), ("dept", 5), ("proj", 9), ("emp", 2)] {
            let src = format!("{rel}.a > {lo}");
            let p = parse_predicate(&src).unwrap();
            let a = seq.insert(p.clone(), db.catalog()).unwrap();
            let b = sharded.insert_shared(p, db.catalog()).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn concurrent_insert_match_remove() {
        let mut db = db();
        let mut tuples = Vec::new();
        for i in 0..16i64 {
            tuples.push(
                db.insert("emp", vec![Value::Int(i), Value::Int(0)])
                    .unwrap(),
            );
        }
        let sharded = ShardedPredicateIndex::with_shards(2);
        let catalog = db.catalog();
        std::thread::scope(|s| {
            for w in 0..4 {
                let sharded = &sharded;
                let tuples = &tuples;
                s.spawn(move || {
                    for i in 0..50 {
                        let id = sharded
                            .insert_shared(
                                parse_predicate(&format!("emp.a > {}", w * 100 + i)).unwrap(),
                                catalog,
                            )
                            .unwrap();
                        for t in tuples {
                            std::hint::black_box(sharded.match_tuple("emp", t));
                        }
                        if i % 2 == 0 {
                            assert!(sharded.remove_shared(id).is_some());
                        }
                    }
                });
            }
        });
        // Each worker kept the odd-i half of its 50 inserts.
        assert_eq!(Matcher::len(&sharded), 4 * 25);
    }

    #[test]
    fn single_shard_still_correct() {
        let mut db = db();
        let sharded = ShardedPredicateIndex::with_shards(1);
        let id = sharded
            .insert_shared(parse_predicate("emp.a > 5").unwrap(), db.catalog())
            .unwrap();
        let hit = db
            .insert("emp", vec![Value::Int(9), Value::Int(0)])
            .unwrap();
        let miss = db
            .insert("emp", vec![Value::Int(1), Value::Int(0)])
            .unwrap();
        assert_eq!(sharded.match_tuple("emp", &hit), vec![id]);
        assert_eq!(sharded.match_tuple("emp", &miss), vec![]);
        assert_eq!(sharded.match_tuple("dept", &hit), vec![]);
    }

    #[test]
    fn remove_shared_is_none_for_unknown() {
        let sharded = ShardedPredicateIndex::new();
        assert!(sharded.remove_shared(PredicateId(7)).is_none());
        assert!(Matcher::is_empty(&sharded));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedPredicateIndex::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedPredicateIndex::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedPredicateIndex::with_shards(16).shard_count(), 16);
    }

    #[test]
    fn exhausted_ids_are_an_error_not_a_wrap() {
        let mut db = db();
        let pred = |lo: i64| parse_predicate(&format!("emp.a > {lo}")).unwrap();
        let sharded = ShardedPredicateIndex::with_shards(2);
        let first = sharded.insert_shared(pred(0), db.catalog()).unwrap();
        assert_eq!(first, PredicateId(0));

        sharded.next_id.store(u32::MAX, Ordering::Relaxed);
        for _ in 0..2 {
            assert_eq!(
                sharded.insert_shared(pred(5), db.catalog()),
                Err(IndexError::IdsExhausted)
            );
        }
        // Nothing was inserted and id 0 still holds its own predicate.
        assert_eq!(Matcher::len(&sharded), 1);
        assert_eq!(sharded.stats().total_trees(), 1);
        let t = db
            .insert("emp", vec![Value::Int(9), Value::Int(0)])
            .unwrap();
        assert_eq!(sharded.match_tuple("emp", &t), vec![first]);
        assert_eq!(sharded.remove_shared(first), Some(pred(0)));
    }
}
