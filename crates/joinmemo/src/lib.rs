//! # Incremental join engine with Rete-style partial-match memoization
//!
//! Extends the paper's single-relation predicate matcher to
//! multi-premise rule conditions (`emp.dno = dept.dno and
//! dept.floor = 1`). The architecture follows the classic Rete split:
//!
//! - **alpha layer** — each premise is an ordinary single-relation
//!   [`predicate::Predicate`], registered in the paper's Figure-1 index
//!   by the rules engine, so per-relation selection still resolves
//!   through the interval-skip-list machinery;
//! - **beta layer** — this crate. Partial matches (*tokens*) over
//!   premise prefixes are memoized in hash stores keyed by the join
//!   values of the next premise's equality tests; ordering tests
//!   (interval joins) filter candidates during extension. Inserted
//!   tuples extend partial matches left and right, deleted tuples
//!   retract every token they participate in, and newly complete
//!   matches surface as [`Binding`]s for the rules engine to fire.
//!
//! The memo's token set is always exactly the set of valid premise
//! prefixes over the currently known tuples, so reseeding from a
//! database snapshot reproduces an incremental run's state bit for bit
//! — [`JoinEngine::fingerprint`] makes that checkable, and the durable
//! layer uses it to verify crash recovery.
//!
//! [`naive::full_matches`] is the deliberately stateless reference
//! evaluator used by the differential test suite and the `join` suite
//! of `bench_json`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod compile;
mod engine;
mod memo;
pub mod naive;

pub use compile::{CompileError, CompiledJoin};
pub use engine::{JoinEngine, MemoStats};
pub use memo::{Binding, InsertOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use predicate::{parse_condition, FunctionRegistry};
    use relation::{AttrType, Catalog, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("dno", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        c.create_relation(
            Schema::builder("dept")
                .attr("dno", AttrType::Int)
                .attr("floor", AttrType::Int)
                .build(),
        )
        .unwrap();
        c
    }

    fn compile(src: &str, cat: &Catalog) -> CompiledJoin {
        let cond = parse_condition(src, &FunctionRegistry::default()).unwrap();
        CompiledJoin::compile(cond.as_join().unwrap(), cat).unwrap()
    }

    fn emp(name: &str, dno: i64, salary: i64) -> Vec<Value> {
        vec![Value::str(name), Value::Int(dno), Value::Int(salary)]
    }

    fn dept(dno: i64, floor: i64) -> Vec<Value> {
        vec![Value::Int(dno), Value::Int(floor)]
    }

    #[test]
    fn insert_completes_matches_in_either_arrival_order() {
        let mut cat = catalog();
        let plan = compile("emp.dno = dept.dno and dept.floor = 1", &cat);
        // Premise order is sorted: 0 = dept, 1 = emp.
        let mut je = JoinEngine::new();
        je.register(7, plan);

        let d = cat
            .relation_mut("dept")
            .unwrap()
            .insert(dept(4, 1))
            .unwrap();
        let dt = cat.relation("dept").unwrap().get(d).unwrap().clone();
        let out = je.insert(7, 0, d.0, &dt);
        assert!(out.bindings.is_empty()); // partial only

        let e = cat
            .relation_mut("emp")
            .unwrap()
            .insert(emp("al", 4, 100))
            .unwrap();
        let et = cat.relation("emp").unwrap().get(e).unwrap().clone();
        let out = je.insert(7, 1, e.0, &et);
        assert_eq!(out.bindings.len(), 1);
        let b = &out.bindings[0];
        assert_eq!(b.tuples[0].0, "dept");
        assert_eq!(b.tuples[1].0, "emp");
        assert_eq!(b.tuple_ids(), vec![d.0, e.0]);

        // Non-joining tuple completes nothing.
        let e2 = cat
            .relation_mut("emp")
            .unwrap()
            .insert(emp("bo", 9, 100))
            .unwrap();
        let et2 = cat.relation("emp").unwrap().get(e2).unwrap().clone();
        assert!(je.insert(7, 1, e2.0, &et2).bindings.is_empty());
        assert_eq!(je.complete_matches(7), vec![vec![d.0, e.0]]);
    }

    #[test]
    fn retraction_removes_dependent_tokens() {
        let mut cat = catalog();
        let plan = compile("emp.dno = dept.dno", &cat);
        let mut je = JoinEngine::new();
        je.register(1, plan);

        let d = cat
            .relation_mut("dept")
            .unwrap()
            .insert(dept(4, 1))
            .unwrap();
        let dt = cat.relation("dept").unwrap().get(d).unwrap().clone();
        je.insert(1, 0, d.0, &dt);
        for i in 0..3 {
            let e = cat
                .relation_mut("emp")
                .unwrap()
                .insert(emp("x", 4, i))
                .unwrap();
            let et = cat.relation("emp").unwrap().get(e).unwrap().clone();
            je.insert(1, 1, e.0, &et);
        }
        assert_eq!(je.complete_matches(1).len(), 3);
        // Deleting the dept tuple retracts its level-0 token and all 3
        // complete matches.
        assert_eq!(je.retract("dept", d.0), 4);
        assert!(je.complete_matches(1).is_empty());
        let tokens: usize = je.stats().iter().flat_map(|s| &s.level_counts).sum();
        assert_eq!(tokens, 0);
    }

    #[test]
    fn seed_equals_incremental_and_fingerprints_agree() {
        let mut cat = catalog();
        for (dno, floor) in [(1, 1), (2, 2), (3, 1)] {
            cat.relation_mut("dept")
                .unwrap()
                .insert(dept(dno, floor))
                .unwrap();
        }
        for (i, dno) in [1, 1, 2, 3, 9].iter().enumerate() {
            cat.relation_mut("emp")
                .unwrap()
                .insert(emp("e", *dno, i as i64))
                .unwrap();
        }
        let src = "emp.dno = dept.dno and dept.floor = 1";

        // Incremental: feed every alpha-matching tuple through
        // insert() (at runtime the predicate index applies the alpha
        // test before the memo sees the tuple).
        let plan = compile(src, &cat);
        let mut inc = JoinEngine::new();
        inc.register(0, plan.clone());
        for premise in [0usize, 1] {
            let tuples: Vec<_> = cat
                .relation(plan.relation(premise))
                .unwrap()
                .iter()
                .filter(|(_, t)| plan.alpha(premise).matches(t))
                .map(|(tid, t)| (tid.0, t.clone()))
                .collect();
            for (tid, t) in tuples {
                inc.insert(0, premise, tid, &t);
            }
        }

        // Seeded: one shot from the catalog.
        let mut seeded = JoinEngine::new();
        seeded.register(42, compile(src, &cat));
        seeded.seed(42, &cat);

        assert_eq!(inc.complete_matches(0), seeded.complete_matches(42));
        assert_eq!(inc.fingerprint(), seeded.fingerprint());

        // And both agree with the naive evaluator.
        let naive = naive::full_matches(&compile(src, &cat), &cat);
        assert_eq!(inc.complete_matches(0), naive);
    }

    #[test]
    fn interval_join_residual_filters() {
        let mut cat = catalog();
        cat.create_relation(
            Schema::builder("mgr")
                .attr("dno", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        // emp joins mgr on dno, and emp must earn strictly less.
        let src = "emp.dno = mgr.dno and emp.salary < mgr.salary";
        cat.relation_mut("emp")
            .unwrap()
            .insert(emp("lo", 1, 50))
            .unwrap();
        cat.relation_mut("emp")
            .unwrap()
            .insert(emp("hi", 1, 500))
            .unwrap();
        cat.relation_mut("mgr")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        let plan = compile(src, &cat);
        let mut je = JoinEngine::new();
        je.register(0, plan.clone());
        je.seed(0, &cat);
        let got = je.complete_matches(0);
        assert_eq!(got, naive::full_matches(&plan, &cat));
        assert_eq!(got.len(), 1); // only the 50 < 100 pair
    }

    #[test]
    fn type_mismatch_rejected_at_compile() {
        let cat = catalog();
        let cond = parse_condition("emp.name = dept.dno", &FunctionRegistry::default()).unwrap();
        let err = CompiledJoin::compile(cond.as_join().unwrap(), &cat).unwrap_err();
        assert!(matches!(err, CompileError::TypeMismatch { .. }));
    }

    #[test]
    fn delete_then_reinsert_rebuilds_cleanly() {
        let mut cat = catalog();
        let plan = compile("emp.dno = dept.dno", &cat);
        let mut je = JoinEngine::new();
        je.register(0, plan);
        let d = cat
            .relation_mut("dept")
            .unwrap()
            .insert(dept(4, 1))
            .unwrap();
        let dt = cat.relation("dept").unwrap().get(d).unwrap().clone();
        let e = cat
            .relation_mut("emp")
            .unwrap()
            .insert(emp("al", 4, 1))
            .unwrap();
        let et = cat.relation("emp").unwrap().get(e).unwrap().clone();
        je.insert(0, 0, d.0, &dt);
        assert_eq!(je.insert(0, 1, e.0, &et).bindings.len(), 1);
        je.retract("emp", e.0);
        assert!(je.complete_matches(0).is_empty());
        // Reinsert: exactly one new completion, not two.
        assert_eq!(je.insert(0, 1, e.0, &et).bindings.len(), 1);
        assert_eq!(je.complete_matches(0).len(), 1);
    }
}
