//! # Predicate matching (the paper's §4 scheme and §2 baselines)
//!
//! [`PredicateIndex`] is the contribution: hash on relation name, one
//! IBS-tree per attribute with indexable clauses, a non-indexable list,
//! and the `PREDICATES` residual test (Figure 1). The rule engine is
//! serial and runs it as is — no lock, no threads.
//! [`ShardedPredicateIndex`] is a bare concurrent leaf over the same
//! index core, for callers that bring their own threads: state
//! partitioned by relation name behind per-shard reader–writer locks,
//! with insert, remove and match through `&self` and nothing else. The
//! [`baselines`] module holds the four strategies §2 reviews —
//! sequential search, OPS5-style hash + sequential, simulated physical
//! locking, and R-tree multi-dimensional indexing — all behind the same
//! [`Matcher`] trait so they can be swapped, differential-tested, and
//! benchmarked.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

pub mod baselines;
mod index;
mod matcher;
mod metrics;
mod sharded;
mod slab;
mod stats;

pub use baselines::{
    HashSequentialMatcher, PhysicalLockingMatcher, RTreeMatcher, SequentialMatcher,
};
pub use index::{MatchLanes, MatchOut, PredicateIndex, Routed};
pub use matcher::{IndexError, Matcher, PredicateId};
pub use sharded::ShardedPredicateIndex;
pub use slab::Slab;
pub use stats::{IndexStats, RelationStats, TreeStats};
// Re-exported so downstream layers can speak the EXPLAIN types without
// depending on `telemetry` directly.
pub use telemetry::{MatchTrace, ResidualTrace, StabTrace};

#[cfg(test)]
mod tests {
    use super::*;
    use predicate::{parse_predicate, parse_predicates};
    use relation::{AttrType, Database, Schema, Value};

    fn emp_db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .attr("dept", AttrType::Str)
                .build(),
        )
        .unwrap();
        db.create_relation(
            Schema::builder("dept")
                .attr("dname", AttrType::Str)
                .attr("budget", AttrType::Int)
                .build(),
        )
        .unwrap();
        db
    }

    fn emp_tuple(
        db: &mut Database,
        name: &str,
        age: i64,
        salary: i64,
        dept: &str,
    ) -> relation::Tuple {
        db.insert(
            "emp",
            vec![
                Value::str(name),
                Value::Int(age),
                Value::Int(salary),
                Value::str(dept),
            ],
        )
        .unwrap()
    }

    fn all_matchers() -> Vec<Box<dyn Matcher>> {
        vec![
            Box::new(PredicateIndex::new()),
            Box::new(SequentialMatcher::new()),
            Box::new(HashSequentialMatcher::new()),
            Box::new(PhysicalLockingMatcher::new()),
            Box::new(RTreeMatcher::new()),
        ]
    }

    #[test]
    fn paper_intro_predicates_all_matchers() {
        let mut db = emp_db();
        for mut m in all_matchers() {
            let p1 = parse_predicate("emp.salary < 20000 and emp.age > 50").unwrap();
            let p2 = parse_predicate("20000 <= emp.salary <= 30000").unwrap();
            let p3 = parse_predicate(r#"emp.dept = "Salesperson""#).unwrap();
            let p4 = parse_predicate(r#"isodd(emp.age) and emp.dept = "Shoe""#).unwrap();
            let id1 = m.insert(p1, db.catalog()).unwrap();
            let id2 = m.insert(p2, db.catalog()).unwrap();
            let id3 = m.insert(p3, db.catalog()).unwrap();
            let id4 = m.insert(p4, db.catalog()).unwrap();

            let t = emp_tuple(&mut db, "al", 61, 12_000, "Shoe");
            assert_eq!(m.match_tuple("emp", &t), vec![id1, id4], "{}", m.strategy());

            let t = emp_tuple(&mut db, "bo", 30, 25_000, "Salesperson");
            assert_eq!(m.match_tuple("emp", &t), vec![id2, id3], "{}", m.strategy());

            let t = emp_tuple(&mut db, "cy", 40, 99_000, "Hat");
            assert_eq!(m.match_tuple("emp", &t), vec![], "{}", m.strategy());

            assert_eq!(m.len(), 4);
            assert!(m.remove(id1).is_some());
            let t = emp_tuple(&mut db, "dee", 61, 12_000, "Shoe");
            assert_eq!(m.match_tuple("emp", &t), vec![id4], "{}", m.strategy());
            assert_eq!(m.len(), 3);
        }
    }

    #[test]
    fn relations_are_separated() {
        let mut db = emp_db();
        for mut m in all_matchers() {
            let e = m
                .insert(parse_predicate("emp.age > 0").unwrap(), db.catalog())
                .unwrap();
            let d = m
                .insert(parse_predicate("dept.budget > 0").unwrap(), db.catalog())
                .unwrap();
            let t = emp_tuple(&mut db, "x", 10, 10, "d");
            assert_eq!(m.match_tuple("emp", &t), vec![e], "{}", m.strategy());
            let td = db
                .insert("dept", vec![Value::str("toys"), Value::Int(100)])
                .unwrap();
            assert_eq!(m.match_tuple("dept", &td), vec![d], "{}", m.strategy());
        }
    }

    #[test]
    fn unknown_relation_is_error() {
        let db = emp_db();
        for mut m in all_matchers() {
            let err = m
                .insert(parse_predicate("ghost.x = 1").unwrap(), db.catalog())
                .unwrap_err();
            assert!(
                matches!(err, IndexError::NoSuchRelation(_)),
                "{}",
                m.strategy()
            );
        }
    }

    #[test]
    fn unsatisfiable_predicates_never_match() {
        let mut db = emp_db();
        for mut m in all_matchers() {
            let id = m
                .insert(
                    parse_predicate("emp.age < 10 and emp.age > 20").unwrap(),
                    db.catalog(),
                )
                .unwrap();
            let t = emp_tuple(&mut db, "x", 15, 0, "d");
            assert_eq!(m.match_tuple("emp", &t), vec![], "{}", m.strategy());
            assert!(m.remove(id).is_some(), "{}", m.strategy());
            assert!(m.is_empty(), "{}", m.strategy());
        }
    }

    #[test]
    fn disjunction_via_multiple_predicates() {
        let mut db = emp_db();
        let mut m = PredicateIndex::new();
        let ids: Vec<PredicateId> = parse_predicates("emp.age < 20 or emp.age > 60")
            .unwrap()
            .into_iter()
            .map(|p| m.insert(p, db.catalog()).unwrap())
            .collect();
        let t = emp_tuple(&mut db, "y", 70, 0, "d");
        assert_eq!(m.match_tuple("emp", &t), vec![ids[1]]);
        let t = emp_tuple(&mut db, "y", 40, 0, "d");
        assert_eq!(m.match_tuple("emp", &t), vec![]);
    }

    #[test]
    fn index_uses_most_selective_clause() {
        // age = 30 (an equality) is chosen over salary > 0 (a one-sided
        // range), so the salary tree is never built.
        let db = emp_db();
        let mut m = PredicateIndex::new();
        m.insert(
            parse_predicate("emp.age = 30 and emp.salary > 0").unwrap(),
            db.catalog(),
        )
        .unwrap();
        assert_eq!(m.attribute_tree_count(), 1);
    }

    #[test]
    fn non_indexable_predicates_still_match() {
        let mut db = emp_db();
        let mut m = PredicateIndex::new();
        let id = m
            .insert(parse_predicate("isodd(emp.age)").unwrap(), db.catalog())
            .unwrap();
        assert_eq!(m.attribute_tree_count(), 0);
        let t = emp_tuple(&mut db, "z", 31, 0, "d");
        assert_eq!(m.match_tuple("emp", &t), vec![id]);
        let t = emp_tuple(&mut db, "z", 32, 0, "d");
        assert_eq!(m.match_tuple("emp", &t), vec![]);
        m.remove(id).unwrap();
        let t = emp_tuple(&mut db, "z", 31, 0, "d");
        assert_eq!(m.match_tuple("emp", &t), vec![]);
    }

    /// How many predicates hold relation-level locks (the paper's
    /// degenerate-case metric).
    fn relation_lock_count(m: &PhysicalLockingMatcher) -> usize {
        m.relation_locks.values().map(Vec::len).sum()
    }

    #[test]
    fn locking_escalates_without_indexes() {
        let mut db = emp_db();
        // No indexed attributes at all: every predicate takes a
        // relation-level lock (the degenerate case).
        let mut m = PhysicalLockingMatcher::new();
        for src in ["emp.age > 30", "emp.salary < 500", r#"emp.dept = "Shoe""#] {
            m.insert(parse_predicate(src).unwrap(), db.catalog())
                .unwrap();
        }
        assert_eq!(relation_lock_count(&m), 3);

        // With an index on age, the age predicate gets an interval lock.
        let mut m = PhysicalLockingMatcher::with_indexed_attrs(db.catalog(), [("emp", "age")]);
        for src in ["emp.age > 30", "emp.salary < 500"] {
            m.insert(parse_predicate(src).unwrap(), db.catalog())
                .unwrap();
        }
        assert_eq!(relation_lock_count(&m), 1);
        let t = emp_tuple(&mut db, "w", 40, 100, "d");
        assert_eq!(m.match_tuple("emp", &t).len(), 2);
    }

    #[test]
    fn empty_matchers_match_nothing() {
        let mut db = emp_db();
        let t = emp_tuple(&mut db, "q", 1, 1, "d");
        for m in all_matchers() {
            assert_eq!(m.match_tuple("emp", &t), vec![], "{}", m.strategy());
            assert!(m.is_empty());
        }
    }

    #[test]
    fn removing_unknown_id_is_none() {
        for mut m in all_matchers() {
            assert!(m.remove(PredicateId(42)).is_none(), "{}", m.strategy());
        }
    }
}
