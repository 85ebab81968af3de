//! Alpha memories: incrementally maintained match sets per predicate.
//!
//! The paper positions its discrimination network as "the first layer of
//! a two-layer network which will test both the selection and the join
//! conditions of rules" (§6) — the Rete/TREAT architecture its
//! introduction surveys. The second layer's input is exactly this
//! module: for every predicate, the set of tuples *currently* matching
//! it (Rete's alpha memory), maintained incrementally from tuple events
//! instead of being recomputed per query.
//!
//! Join processing itself stays out of scope, as in the paper.

use crate::index::PredicateIndex;
use crate::matcher::{Matcher, PredicateId};
use relation::fx::FnvHashMap;
use relation::{TupleEvent, TupleId};
use std::collections::BTreeSet;

/// Current matches per predicate, fed by [`MatchMemory::apply`].
#[derive(Debug, Clone, Default)]
pub struct MatchMemory {
    /// predicate id → sorted set of matching tuple ids (the relation is
    /// implied by the predicate).
    matches: FnvHashMap<u32, BTreeSet<TupleId>>,
}

impl MatchMemory {
    /// An empty memory.
    pub fn new() -> Self {
        MatchMemory::default()
    }

    /// Folds one tuple event into the memory. `index` must be the same
    /// predicate index the events are matched against elsewhere;
    /// updates re-match both the old and the new image of the tuple so
    /// entering and leaving predicates are both maintained.
    pub fn apply(&mut self, index: &PredicateIndex, event: &TupleEvent) {
        match event {
            TupleEvent::Inserted {
                relation,
                id,
                tuple,
            } => {
                for pid in index.match_tuple(relation, tuple) {
                    self.matches.entry(pid.0).or_default().insert(*id);
                }
            }
            TupleEvent::Updated {
                relation,
                id,
                old,
                new,
            } => {
                for pid in index.match_tuple(relation, old) {
                    if let Some(set) = self.matches.get_mut(&pid.0) {
                        set.remove(id);
                    }
                }
                for pid in index.match_tuple(relation, new) {
                    self.matches.entry(pid.0).or_default().insert(*id);
                }
            }
            TupleEvent::Deleted {
                relation,
                id,
                tuple,
            } => {
                for pid in index.match_tuple(relation, tuple) {
                    if let Some(set) = self.matches.get_mut(&pid.0) {
                        set.remove(id);
                    }
                }
            }
        }
    }

    /// Forgets a predicate's memory (call when the predicate is removed
    /// from the index).
    pub fn clear_predicate(&mut self, pred: PredicateId) {
        self.matches.remove(&pred.0);
    }

    /// The tuples currently matching `pred`, ascending by id.
    pub fn matches_of(&self, pred: PredicateId) -> impl Iterator<Item = TupleId> + '_ {
        self.matches
            .get(&pred.0)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Number of tuples currently matching `pred`.
    pub fn count(&self, pred: PredicateId) -> usize {
        self.matches.get(&pred.0).map_or(0, |s| s.len())
    }

    /// Total `(predicate, tuple)` match pairs held.
    pub fn total_pairs(&self) -> usize {
        self.matches.values().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matcher;
    use predicate::parse_predicate;
    use relation::{AttrType, Database, Schema, Value};

    fn setup() -> (Database, PredicateIndex, Vec<PredicateId>) {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        let mut index = PredicateIndex::new();
        let ids = vec![
            index
                .insert(parse_predicate("emp.salary < 1000").unwrap(), db.catalog())
                .unwrap(),
            index
                .insert(parse_predicate("emp.salary >= 1000").unwrap(), db.catalog())
                .unwrap(),
        ];
        (db, index, ids)
    }

    #[test]
    fn insert_update_delete_maintenance() {
        let (mut db, index, ids) = setup();
        let mut mem = MatchMemory::new();

        let ev = db
            .insert_event("emp", vec![Value::str("al"), Value::Int(500)])
            .unwrap();
        mem.apply(&index, &ev);
        assert_eq!(mem.count(ids[0]), 1);
        assert_eq!(mem.count(ids[1]), 0);
        let relation::TupleEvent::Inserted { id, .. } = ev else {
            panic!("insert event expected")
        };

        // A raise moves the tuple from predicate 0 to predicate 1.
        let ev = db
            .update_event("emp", id, vec![Value::str("al"), Value::Int(5_000)])
            .unwrap();
        mem.apply(&index, &ev);
        assert_eq!(mem.count(ids[0]), 0);
        assert_eq!(mem.count(ids[1]), 1);
        assert_eq!(mem.matches_of(ids[1]).collect::<Vec<_>>(), vec![id]);

        let ev = db.delete_event("emp", id).unwrap();
        mem.apply(&index, &ev);
        assert_eq!(mem.total_pairs(), 0);
    }

    #[test]
    fn memory_tracks_many_tuples_and_agrees_with_rescan() {
        let (mut db, index, ids) = setup();
        let mut mem = MatchMemory::new();
        for i in 0..200i64 {
            let ev = db
                .insert_event("emp", vec![Value::str(format!("e{i}")), Value::Int(i * 13)])
                .unwrap();
            mem.apply(&index, &ev);
        }
        // Ground truth by rescanning the relation.
        let rel = db.catalog().relation("emp").unwrap();
        for &pid in &ids {
            let bound = index.get(pid).unwrap().bind(rel.schema()).unwrap();
            let want: Vec<TupleId> = bound.scan(rel).map(|(tid, _)| tid).collect();
            let got: Vec<TupleId> = mem.matches_of(pid).collect();
            assert_eq!(got, want, "predicate {pid}");
        }
        assert_eq!(mem.total_pairs(), 200);
    }

    #[test]
    fn clear_predicate_forgets() {
        let (mut db, index, ids) = setup();
        let mut mem = MatchMemory::new();
        let ev = db
            .insert_event("emp", vec![Value::str("x"), Value::Int(10)])
            .unwrap();
        mem.apply(&index, &ev);
        assert_eq!(mem.count(ids[0]), 1);
        mem.clear_predicate(ids[0]);
        assert_eq!(mem.count(ids[0]), 0);
        assert_eq!(mem.matches_of(ids[0]).count(), 0);
    }
}
