//! A concurrent front-end over the paper's predicate index, for
//! callers that bring their own threads.
//!
//! [`ShardedPredicateIndex`] partitions the Figure 1 structure by the
//! same key the paper hashes on — the relation name. Each of its
//! sixteen shards is one [`IndexCore`] — the very type the sequential
//! index wraps — owning a disjoint set of relations: their
//! per-attribute IBS-trees and non-indexable lists, and the slice of
//! the `PREDICATES` store for predicates over those relations, all
//! behind one [`RwLock`]. The matching path takes only read locks, so
//! any number of tuples can be matched concurrently — including
//! against the *same* relation, since an `RwLock` admits parallel
//! readers. Registration and removal write-lock exactly one shard, so
//! predicate churn on one relation never blocks matching on another.
//!
//! Ids are drawn from a process-wide atomic counter *after* binding
//! succeeds, which keeps the assignment sequence identical to
//! [`PredicateIndex`](crate::PredicateIndex) under single-threaded use —
//! the differential tests rely on that.
//!
//! This is a bare leaf: it records no metrics, has no EXPLAIN and no
//! stats, and spawns no threads. The rule engine is serial and runs the
//! lock-free [`PredicateIndex`](crate::PredicateIndex), which has all
//! of those; DESIGN.md §9 records why in-index batch fan-out was
//! measured and deleted.

use crate::index::IndexCore;
use crate::matcher::{IndexError, Matcher, PredicateId, StoredPredicate};
use crate::metrics::IndexMetrics;
use ibs::BalanceMode;
use predicate::Predicate;
use relation::{Catalog, Tuple};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of shards (a power of two: the relation-name hash is masked).
const SHARDS: usize = 16;

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
    next_id: AtomicU32,
    /// Always the disabled bundle: the cores take one, and this
    /// front-end records nothing.
    metrics: Arc<IndexMetrics>,
}

impl Default for ShardedPredicateIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedPredicateIndex {
    /// Sixteen shards of AVL-balanced IBS-trees.
    pub fn new() -> Self {
        ShardedPredicateIndex {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(IndexCore::new(BalanceMode::Avl)))
                .collect(),
            next_id: AtomicU32::new(0),
            metrics: IndexMetrics::disabled(),
        }
    }

    /// Read-locks shard `sid`.
    fn lock_read(&self, sid: usize) -> RwLockReadGuard<'_, IndexCore> {
        self.shards[sid]
            .read()
            .expect("shard lock poisoned: a writer panicked mid-update")
    }

    /// Write-locks shard `sid`.
    fn lock_write(&self, sid: usize) -> RwLockWriteGuard<'_, IndexCore> {
        self.shards[sid]
            .write()
            .expect("shard lock poisoned: a writer panicked mid-update")
    }

    #[inline]
    fn shard_of(&self, relation: &str) -> usize {
        fnv1a(relation) as usize & (SHARDS - 1)
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
        for sid in 0..SHARDS {
            let owns = self.lock_read(sid).contains(id);
            if owns {
                // Re-probe under the write lock: a concurrent remover
                // may have won the race between the two acquisitions.
                // srclint:allow(lock-order): guards are strictly sequential — the probe's read guard is dropped before the write lock is taken
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
        (0..SHARDS).map(|sid| self.lock_read(sid).len()).sum()
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
        let sharded = ShardedPredicateIndex::new();
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
        // `dept` and `proj` hash to one shard: its core keeps them apart.
        let mut db = db();
        let sharded = ShardedPredicateIndex::new();
        assert_eq!(sharded.shard_of("dept"), sharded.shard_of("proj"));
        let id = sharded
            .insert_shared(parse_predicate("dept.a > 5").unwrap(), db.catalog())
            .unwrap();
        let hit = db
            .insert("dept", vec![Value::Int(9), Value::Int(0)])
            .unwrap();
        let miss = db
            .insert("dept", vec![Value::Int(1), Value::Int(0)])
            .unwrap();
        assert_eq!(sharded.match_tuple("dept", &hit), vec![id]);
        assert_eq!(sharded.match_tuple("dept", &miss), vec![]);
        assert_eq!(sharded.match_tuple("proj", &hit), vec![]);
    }

    #[test]
    fn remove_shared_is_none_for_unknown() {
        let sharded = ShardedPredicateIndex::new();
        assert!(sharded.remove_shared(PredicateId(7)).is_none());
        assert!(Matcher::is_empty(&sharded));
    }

    #[test]
    fn exhausted_ids_are_an_error_not_a_wrap() {
        let mut db = db();
        let pred = |lo: i64| parse_predicate(&format!("emp.a > {lo}")).unwrap();
        let sharded = ShardedPredicateIndex::new();
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
        let stats = sharded.lock_read(sharded.shard_of("emp")).stats();
        assert_eq!(stats.relations[0].trees[0].intervals, 1);
        let t = db
            .insert("emp", vec![Value::Int(9), Value::Int(0)])
            .unwrap();
        assert_eq!(sharded.match_tuple("emp", &t), vec![first]);
        assert_eq!(sharded.remove_shared(first), Some(pred(0)));
    }
}
