//! §2.3: physical locking, simulated in memory.
//!
//! In POSTGRES-style physical locking ([SSH86], [SHP88]) each predicate
//! is run through the query optimizer; an index-scan plan leaves
//! persistent interval locks on the index ranges it read, while a
//! sequential-scan plan escalates to a relation-level lock. A new or
//! modified tuple collects every conflicting lock and tests the
//! associated predicates.
//!
//! The simulation keeps the algorithm's *matching* behaviour and cost
//! structure while replacing the storage manager: interval locks live in
//! a per-(relation, attribute) ordered lock table (an interval treap
//! standing in for B-tree index-range locks), relation locks in a flat
//! list. The degenerate case the paper criticizes — "when there are no
//! indexes ... most predicates will have a relation-level lock",
//! reducing matching to a sequential scan — falls out directly: only
//! attributes declared in [`PhysicalLockingMatcher::with_indexed_attrs`]
//! can carry interval locks.

use crate::matcher::{IndexError, Matcher, PredicateId, PredicateStore};
use altindex::{DynamicStabIndex, IntervalTreap, StabIndex};
use predicate::selectivity::clause_selectivity;
use predicate::{BoundClause, Predicate};
use relation::fx::{FnvHashMap, FnvHashSet};
use relation::{Catalog, Tuple, Value};

/// Where a predicate's lock was placed.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lock {
    /// Interval lock on an attribute's (simulated) index.
    Index { relation: String, attr: usize },
    /// Relation-level lock (the escalation case).
    Relation(String),
    /// No lock: unsatisfiable predicate.
    None,
}

/// Simulated physical-locking matcher.
#[derive(Debug, Clone, Default)]
pub struct PhysicalLockingMatcher {
    pub(super) store: PredicateStore,
    /// `(relation, attr)` pairs that have a database index available for
    /// the optimizer to choose.
    indexed_attrs: FnvHashSet<(String, usize)>,
    /// Interval locks per indexed attribute.
    lock_tables: FnvHashMap<(String, usize), IntervalTreap<Value>>,
    /// Relation-level locks.
    relation_locks: FnvHashMap<String, Vec<PredicateId>>,
    locks: FnvHashMap<u32, Lock>,
}

impl PhysicalLockingMatcher {
    /// A matcher where *no* attribute has a database index — every
    /// predicate escalates to a relation lock (the degenerate case).
    pub fn new() -> Self {
        PhysicalLockingMatcher::default()
    }

    /// Declares which `(relation, attribute name)` pairs have database
    /// indexes, resolving names through `catalog`.
    pub fn with_indexed_attrs<'a>(
        catalog: &Catalog,
        attrs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Self {
        let mut m = Self::new();
        for (rel, attr) in attrs {
            let Some(r) = catalog.relation(rel) else {
                continue;
            };
            if let Some(ix) = r.schema().attr_index(attr) {
                m.indexed_attrs.insert((rel.to_string(), ix));
            }
        }
        m
    }

    /// How many predicates ended up with relation-level locks (the
    /// paper's degenerate-case metric).
    pub fn relation_lock_count(&self) -> usize {
        self.relation_locks.values().map(|v| v.len()).sum()
    }
}

impl Matcher for PhysicalLockingMatcher {
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError> {
        let (id, stored) = self.store.register(pred, catalog)?;
        let relation = stored.bound.relation().to_string();

        // "Run the standard query optimizer to produce an access plan":
        // pick the most selective indexable clause whose attribute has a
        // database index; without one, the plan is a sequential scan and
        // the lock escalates.
        let lock = if !stored.bound.is_satisfiable() {
            Lock::None
        } else {
            let best = stored
                .bound
                .clauses()
                .iter()
                .filter_map(|c| match c {
                    BoundClause::Range { attr, interval }
                        if self.indexed_attrs.contains(&(relation.clone(), *attr)) =>
                    {
                        Some((*attr, interval.clone(), clause_selectivity(c)))
                    }
                    _ => None,
                })
                .min_by(|a, b| a.2.total_cmp(&b.2));
            match best {
                Some((attr, interval, _)) => {
                    self.lock_tables
                        .entry((relation.clone(), attr))
                        .or_default()
                        .insert(id, interval);
                    Lock::Index {
                        relation: relation.clone(),
                        attr,
                    }
                }
                None => {
                    self.relation_locks
                        .entry(relation.clone())
                        .or_default()
                        .push(id);
                    Lock::Relation(relation.clone())
                }
            }
        };
        self.locks.insert(id.0, lock);
        Ok(id)
    }

    fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        let stored = self.store.unregister(id)?;
        match self
            .locks
            .remove(&id.0)
            .expect("store and locks are updated together")
        {
            Lock::Index { relation, attr } => {
                let table = self
                    .lock_tables
                    .get_mut(&(relation, attr))
                    .expect("an Index lock records the table it lives in");
                table
                    .remove(id)
                    .expect("the table has held this id since the lock was recorded");
            }
            Lock::Relation(relation) => {
                self.relation_locks
                    .get_mut(&relation)
                    .expect("a Relation lock implies its list exists")
                    .retain(|&p| p != id);
            }
            Lock::None => {}
        }
        Some(stored.source)
    }

    fn match_tuple(&self, relation: &str, tuple: &Tuple) -> Vec<PredicateId> {
        // "The system collects locks that conflict with the update (all
        // relation level locks, any locks that conflict with any indexes
        // that were updated) ... for each of the locks collected, the
        // system tests the tuple against the predicate".
        let mut out = Vec::new();
        for ((rel, attr), table) in &self.lock_tables {
            // Skip attributes the tuple doesn't carry (short arity): a
            // lock on a missing attribute cannot conflict, and the
            // residual full_match below agrees.
            if rel == relation {
                if let Some(value) = tuple.values().get(*attr) {
                    table.stab_into(value, &mut out);
                }
            }
        }
        if let Some(rl) = self.relation_locks.get(relation) {
            out.extend_from_slice(rl);
        }
        out.retain(|&id| self.store.full_match(id, tuple));
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn strategy(&self) -> &'static str {
        "physical-locking"
    }
}
