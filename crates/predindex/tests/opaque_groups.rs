//! The non-indexable list grouped by clause set: predicates whose
//! opaque clauses are the same functions on the same attributes share
//! one test per tuple and pass or fail together.
//!
//! The churn property runs both front-ends in lockstep with
//! `HashSequentialMatcher` (which tests every predicate, no sharing)
//! over scripts that mix opaque-only predicates sharing a whole clause
//! set, sharing part of one, repeating a clause, the empty predicate,
//! range predicates with opaque residual clauses, and two functions
//! registered under one name in different registries. Besides equal
//! match sets it pins the sharing itself, on the sequential index's
//! counters (the shared core's): every match runs exactly one
//! sweep test per distinct live `(attribute, function)` set of the
//! tuple's relation, with function identity — not name — deciding
//! "distinct".

use interval::Interval;
use predicate::{parse_conjunct, parse_predicate, Clause, FunctionRegistry, PredFn, Predicate};
use predindex::{
    HashSequentialMatcher, Matcher, PredicateId, PredicateIndex, ShardedPredicateIndex,
};
use proptest::prelude::*;
use relation::{AttrType, Database, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use telemetry::Registry;

const RELS: [&str; 2] = ["emp", "item"];
const ATTRS: [&str; 3] = ["a", "b", "c"];

fn test_db() -> Database {
    let mut db = Database::new();
    for rel in RELS {
        db.create_relation(
            ATTRS
                .iter()
                .fold(Schema::builder(rel), |s, a| s.attr(*a, AttrType::Int))
                .build(),
        )
        .expect("fresh relation");
    }
    db
}

/// The opaque functions predicates draw from, by index: two built-ins
/// (every parse shares their `Arc`s) and two different functions that
/// two registries both call `f` — equal as `Clause`s, different tests.
fn functions() -> [(&'static str, PredFn); 4] {
    let builtin = FunctionRegistry::builtin();
    let mut low = FunctionRegistry::empty();
    low.register("f", |v| matches!(v, Value::Int(i) if *i < 25));
    let mut thirds = FunctionRegistry::empty();
    thirds.register("f", |v| matches!(v, Value::Int(i) if i % 3 == 0));
    [
        ("isodd", builtin.get("isodd").expect("built-in")),
        ("iseven", builtin.get("iseven").expect("built-in")),
        ("f", low.get("f").expect("registered above")),
        ("f", thirds.get("f").expect("registered above")),
    ]
}

/// An opaque clause: `(function index, attribute index)`.
type Opaque = (usize, usize);

/// A clause set's identity in the model: `(attribute, function index)`
/// pairs, sorted and deduplicated.
type SetKey = BTreeSet<(usize, usize)>;

#[derive(Debug, Clone)]
enum Spec {
    /// Template `t`'s clauses, edited by `edit`.
    Opaque {
        rel: usize,
        template: usize,
        edit: Edit,
    },
    /// The empty conjunction: matches every tuple of its relation.
    Empty { rel: usize },
    /// A range clause (a tree placement) plus template `t`'s clauses as
    /// its residual, when `residual`.
    Range {
        rel: usize,
        attr: usize,
        lo: i64,
        width: i64,
        template: usize,
        residual: bool,
    },
}

/// How an opaque predicate differs from its template.
#[derive(Debug, Clone)]
enum Edit {
    /// Exactly the template: shares its whole clause set.
    Same,
    /// The template's first clause written twice: the same set.
    Repeat,
    /// Without the template's last clause: shares part of the set.
    Drop,
    /// Plus one clause: shares part of the set.
    Add(Opaque),
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Spec),
    Remove(usize),
    Match(usize, [i64; 3]),
}

fn arb_opaque() -> impl Strategy<Value = Opaque> {
    (0usize..4, 0usize..3)
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    prop_oneof![
        6 => (0usize..2, 0usize..3, prop_oneof![
            3 => Just(Edit::Same),
            1 => Just(Edit::Repeat),
            1 => Just(Edit::Drop),
            1 => arb_opaque().prop_map(Edit::Add),
        ])
            .prop_map(|(rel, template, edit)| Spec::Opaque { rel, template, edit }),
        1 => (0usize..2).prop_map(|rel| Spec::Empty { rel }),
        3 => (0usize..2, 0usize..3, 0i64..50, 0i64..20, 0usize..3, any::<bool>()).prop_map(
            |(rel, attr, lo, width, template, residual)| Spec::Range {
                rel,
                attr,
                lo,
                width,
                template,
                residual,
            }
        ),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => arb_spec().prop_map(Op::Insert),
        1 => (0usize..64).prop_map(Op::Remove),
        4 => (0usize..2, 0i64..50, 0i64..50, 0i64..50).prop_map(|(r, a, b, c)| Op::Match(r, [a, b, c])),
    ]
}

/// The predicate `spec` describes, and — for a non-indexable one — the
/// identity of its clause set.
fn build(
    spec: &Spec,
    templates: &[Vec<Opaque>],
    funcs: &[(&'static str, PredFn)],
) -> (Predicate, Option<SetKey>) {
    let clause = |&(f, a): &Opaque| Clause::Func {
        name: funcs[f].0.to_string(),
        attr: ATTRS[a].to_string(),
        func: Arc::clone(&funcs[f].1),
    };
    let key = |set: &[Opaque]| set.iter().map(|&(f, a)| (a, f)).collect::<SetKey>();
    match spec {
        Spec::Opaque {
            rel,
            template,
            edit,
        } => {
            let mut set = templates[*template].clone();
            match edit {
                Edit::Same => {}
                Edit::Repeat => set.push(set[0]),
                Edit::Drop => {
                    set.pop();
                }
                Edit::Add(extra) => set.push(*extra),
            }
            let clauses = set.iter().map(clause).collect();
            (Predicate::new(RELS[*rel], clauses), Some(key(&set)))
        }
        Spec::Empty { rel } => (
            Predicate::new(RELS[*rel], Vec::new()),
            Some(BTreeSet::new()),
        ),
        Spec::Range {
            rel,
            attr,
            lo,
            width,
            template,
            residual,
        } => {
            let mut clauses = vec![Clause::Range {
                attr: ATTRS[*attr].to_string(),
                interval: Interval::closed(Value::Int(*lo), Value::Int(lo + width)),
            }];
            if *residual {
                clauses.extend(templates[*template].iter().map(clause));
            }
            (Predicate::new(RELS[*rel], clauses), None)
        }
    }
}

/// The sweep tests `registry` has counted so far.
fn sweeps(registry: &Registry) -> u64 {
    registry
        .counter_value("predindex_non_indexable_scanned_total")
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn grouped_sweep_agrees_with_hash_sequential_under_churn(
        templates in prop::collection::vec(prop::collection::vec(arb_opaque(), 1..4), 3..4),
        ops in prop::collection::vec(arb_op(), 1..80),
    ) {
        let db = test_db();
        let funcs = functions();
        let mut oracle = HashSequentialMatcher::new();
        let registry = Arc::new(Registry::new());
        let mut seq = PredicateIndex::new();
        seq.attach_metrics(Arc::clone(&registry));
        let mut sharded = ShardedPredicateIndex::new();

        // id -> (relation, clause-set identity when non-indexable).
        let mut live: BTreeMap<PredicateId, (usize, Option<SetKey>)> = BTreeMap::new();
        let mut ids: Vec<PredicateId> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(spec) => {
                    let (pred, key) = build(spec, &templates, &funcs);
                    let rel = match spec {
                        Spec::Opaque { rel, .. } | Spec::Empty { rel } | Spec::Range { rel, .. } => *rel,
                    };
                    let id = oracle.insert(pred.clone(), db.catalog()).expect("binds");
                    prop_assert_eq!(seq.insert(pred.clone(), db.catalog()).expect("binds"), id);
                    prop_assert_eq!(sharded.insert(pred, db.catalog()).expect("binds"), id);
                    live.insert(id, (rel, key));
                    ids.push(id);
                }
                Op::Remove(i) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids.swap_remove(i % ids.len());
                    live.remove(&id);
                    let expected = oracle.remove(id);
                    prop_assert!(expected.is_some());
                    prop_assert_eq!(&seq.remove(id), &expected);
                    prop_assert_eq!(&sharded.remove(id), &expected);
                }
                Op::Match(r, values) => {
                    let tuple = Tuple::new(values.iter().map(|&v| Value::Int(v)).collect());
                    let expected = oracle.match_tuple(RELS[*r], &tuple);
                    let sets: BTreeSet<_> = live
                        .values()
                        .filter(|(rel, _)| rel == r)
                        .filter_map(|(_, key)| key.as_ref())
                        .collect();
                    let before = sweeps(&registry);
                    prop_assert_eq!(
                        &seq.match_tuple(RELS[*r], &tuple), &expected,
                        "sequential diverged on {:?}", values
                    );
                    prop_assert_eq!(
                        sweeps(&registry) - before, sets.len() as u64,
                        "one sweep test per distinct clause set"
                    );
                    prop_assert_eq!(
                        &sharded.match_tuple(RELS[*r], &tuple), &expected,
                        "sharded diverged on {:?}", values
                    );
                }
            }
        }
    }
}

fn emp_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("emp")
            .attr("a", AttrType::Int)
            .attr("b", AttrType::Int)
            .build(),
    )
    .expect("fresh relation");
    db
}

/// EXPLAIN lists every member of a group, each with its group's
/// outcome, and its counts are the tests the counters saw: one per
/// tree candidate plus one per clause set, however many members.
#[test]
fn explain_lists_every_member_with_its_groups_outcome() {
    let mut db = emp_db();
    let sources = [
        "isodd(emp.a)",
        "isodd(emp.a) and isodd(emp.a)",
        "IsOdd(emp.a)",
        "isodd(emp.a) and iseven(emp.b)",
        "emp.a > 5",
    ];
    let registry = Arc::new(Registry::new());
    let mut seq = PredicateIndex::new();
    seq.attach_metrics(Arc::clone(&registry));
    let sharded = ShardedPredicateIndex::new();
    for src in sources {
        let p = parse_predicate(src).expect("parses");
        seq.insert(p.clone(), db.catalog()).expect("binds");
        sharded.insert_shared(p, db.catalog()).expect("binds");
    }
    for (a, b, pass) in [(7, 2, true), (8, 2, false)] {
        let t = db
            .insert("emp", vec![Value::Int(a), Value::Int(b)])
            .expect("well-typed row");
        let trace = seq.explain_tuple("emp", &t);
        // Two clause sets: {isodd(a)} with three members (a repeated
        // clause and a differently spelled name fold into it) and
        // {isodd(a), iseven(b)}.
        assert_eq!(trace.non_indexable_scanned, 2);
        assert_eq!(trace.non_indexable_predicates, 4);
        assert_eq!(trace.partial_matches(), 5);
        assert_eq!(trace.residual_tests(), 3);
        let opaque: Vec<(u32, bool)> = trace.residual[1..]
            .iter()
            .map(|r| (r.predicate, r.pass))
            .collect();
        assert_eq!(
            opaque,
            [(0, pass), (1, pass), (2, pass), (3, pass)],
            "every member, in group order, with its group's outcome"
        );
        let mut matched = trace.matched();
        matched.sort_unstable();
        for front in [&seq as &dyn Matcher, &sharded] {
            let expect: Vec<u32> = front.match_tuple("emp", &t).iter().map(|id| id.0).collect();
            assert_eq!(matched, expect, "{}", front.strategy());
        }
        let count = |name: &str| registry.counter_value(name).unwrap_or(0);
        let (tests, sweeps) = (
            count("predindex_residual_tests_total"),
            count("predindex_non_indexable_scanned_total"),
        );
        seq.match_tuple("emp", &t);
        assert_eq!(count("predindex_residual_tests_total") - tests, 3);
        assert_eq!(count("predindex_non_indexable_scanned_total") - sweeps, 2);
    }
}

/// Removal finds a member's group from the predicate's own functions,
/// and a group that empties stops costing a test.
#[test]
fn an_emptied_group_is_dropped() {
    let mut db = emp_db();
    let registry = Arc::new(Registry::new());
    let mut index = PredicateIndex::new();
    index.attach_metrics(Arc::clone(&registry));
    let shared: Vec<PredicateId> = (0..3)
        .map(|_| {
            let p = parse_predicate("isodd(emp.a)").expect("parses");
            index.insert(p, db.catalog()).expect("binds")
        })
        .collect();
    let other = index
        .insert(
            parse_predicate("iseven(emp.b)").expect("parses"),
            db.catalog(),
        )
        .expect("binds");
    let t = db
        .insert("emp", vec![Value::Int(3), Value::Int(4)])
        .expect("well-typed row");
    let sweep_tests = |index: &PredicateIndex| {
        let before = sweeps(&registry);
        let matched = index.match_tuple("emp", &t);
        (matched, sweeps(&registry) - before)
    };
    assert_eq!(
        sweep_tests(&index),
        ([shared.clone(), vec![other]].concat(), 2)
    );
    index.remove(shared[1]);
    assert_eq!(sweep_tests(&index), (vec![shared[0], shared[2], other], 2));
    index.remove(shared[0]);
    index.remove(shared[2]);
    assert_eq!(sweep_tests(&index), (vec![other], 1));
    assert_eq!(index.stats().relations[0].non_indexable, 1);
}

/// Two registries bind `f` to different functions: the clauses compare
/// equal by name, but the index keys on the function and keeps them in
/// separate groups, so each predicate gets its own function's answer.
#[test]
fn one_name_two_functions_two_groups() {
    let mut db = emp_db();
    let (mut low, mut high) = (FunctionRegistry::empty(), FunctionRegistry::empty());
    low.register("f", |v| matches!(v, Value::Int(i) if *i < 10));
    high.register("f", |v| matches!(v, Value::Int(i) if *i >= 10));
    let (p_low, p_high) = (
        parse_conjunct("f(emp.a)", &low).expect("parses"),
        parse_conjunct("f(emp.a)", &high).expect("parses"),
    );
    assert_eq!(p_low, p_high, "Clause equality is by name");

    let registry = Arc::new(Registry::new());
    let mut index = PredicateIndex::new();
    index.attach_metrics(Arc::clone(&registry));
    let low_id = index.insert(p_low, db.catalog()).expect("binds");
    let high_id = index.insert(p_high, db.catalog()).expect("binds");
    for (a, expect) in [(3, low_id), (30, high_id)] {
        let t = db
            .insert("emp", vec![Value::Int(a), Value::Int(0)])
            .expect("well-typed row");
        assert_eq!(index.match_tuple("emp", &t), vec![expect]);
    }
    assert_eq!(sweeps(&registry), 4, "two groups tested per tuple");
}
