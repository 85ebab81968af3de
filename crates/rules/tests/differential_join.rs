//! Differential testing of the incremental join memo: drive a
//! [`RuleEngine`] through randomized streams of inserts, deletes,
//! updates, and rule add/removes, and after every operation compare
//! each join condition's complete-match set against
//! [`joinmemo::naive::full_matches`] — a stateless from-scratch
//! evaluator over the same database. Any drift between
//! the memoized and recomputed answers is a retraction or extension
//! bug in the beta layer. The same step runs the memos' own oracle
//! ([`RuleEngine::check_join_invariants`]): slab links and stored
//! positions consistent, running digest = full recompute = a freshly
//! seeded memo's.

use joinmemo::naive::full_matches;
use joinmemo::CompiledJoin;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, TupleId, Value};
use rules::{Action, Rule, RuleEngine};

const RELS: [&str; 3] = ["dept", "emp", "proj"];

fn schema_for(name: &str) -> Schema {
    match name {
        "emp" => Schema::builder("emp")
            .attr("dno", AttrType::Int)
            .attr("salary", AttrType::Int)
            .build(),
        "dept" => Schema::builder("dept")
            .attr("dno", AttrType::Int)
            .attr("floor", AttrType::Int)
            .build(),
        _ => Schema::builder("proj")
            .attr("dno", AttrType::Int)
            .attr("badge", AttrType::Int)
            .build(),
    }
}

/// Join conditions under test: 2- and 3-premise equality chains,
/// alpha-constrained premises, and a cross-relation ordering join.
const JOIN_CONDS: [&str; 5] = [
    "emp.dno = dept.dno",
    "emp.dno = dept.dno and dept.floor > 2",
    "emp.dno = dept.dno and emp.salary > 5",
    "emp.dno = dept.dno and dept.dno = proj.dno",
    "emp.salary > dept.floor",
];

/// Plain single-relation conditions mixed in so join and non-join
/// agenda entries interleave.
const PLAIN_CONDS: [&str; 2] = ["emp.salary > 8", "dept.floor < 2"];

fn row_for(rng: &mut StdRng, rel: &str) -> Vec<Value> {
    // A narrow key domain so joins actually collide.
    let key = rng.gen_range(0..4i64);
    let other = rng.gen_range(0..10i64);
    match rel {
        "emp" => vec![Value::Int(key), Value::Int(other)],
        "dept" => vec![Value::Int(key), Value::Int(other % 5)],
        _ => vec![Value::Int(key), Value::Int(other)],
    }
}

fn live_ids(engine: &RuleEngine, rel: &str) -> Vec<TupleId> {
    engine
        .db()
        .catalog()
        .relation(rel)
        .map(|r| r.iter().map(|(id, _)| id).collect())
        .unwrap_or_default()
}

/// Asserts every join condition of every rule agrees with the naive
/// evaluator, and that the memoized complete-match sets are exactly
/// the from-scratch ones (sorted tuple-id vectors both sides).
fn assert_parity(engine: &RuleEngine, context: &str) {
    if let Err(e) = engine.check_join_invariants() {
        panic!("{context}: {e}");
    }
    let rules: Vec<_> = engine
        .rules_detail()
        .map(|(id, rule, _)| (id, rule.name.clone(), rule.joins.clone()))
        .collect();
    for (id, name, joins) in rules {
        if joins.is_empty() {
            continue;
        }
        let memoized = engine.join_matches(id).expect("rule exists");
        assert_eq!(memoized.len(), joins.len(), "{context}: condition count");
        for (ci, join) in joins.iter().enumerate() {
            let compiled = CompiledJoin::compile(join, engine.db().catalog())
                .expect("registered joins compile");
            let mut naive = full_matches(&compiled, engine.db().catalog());
            naive.sort();
            let mut memo = memoized[ci].clone();
            memo.sort();
            assert_eq!(
                memo, naive,
                "{context}: rule {id:?} ({name}) condition {ci} diverged from naive"
            );
        }
    }
}

fn join_rule(rng: &mut StdRng, n: u64) -> Rule {
    let cond = JOIN_CONDS[rng.gen_range(0..JOIN_CONDS.len())];
    Rule::builder(format!("join-{n}"))
        .when(cond)
        .expect("fixed condition parses")
        .then(Action::log("joined"))
        .priority(rng.gen_range(-1..2))
        .build()
}

fn plain_rule(rng: &mut StdRng, n: u64) -> Rule {
    let cond = PLAIN_CONDS[rng.gen_range(0..PLAIN_CONDS.len())];
    Rule::builder(format!("plain-{n}"))
        .when(cond)
        .expect("fixed condition parses")
        .then(Action::log("plain"))
        .build()
}

fn run_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for rel in RELS {
        db.create_relation(schema_for(rel)).unwrap();
    }
    let mut engine = RuleEngine::new(db);
    let mut rule_n = 0u64;

    // Start with one join rule so early inserts exercise the memo.
    engine.add_rule(join_rule(&mut rng, rule_n)).unwrap();
    rule_n += 1;

    for op in 0..60 {
        let context = format!("seed {seed} op {op}");
        let roll = rng.gen_range(0..100);
        if roll < 45 {
            let rel = RELS.choose(&mut rng).copied().unwrap();
            let row = row_for(&mut rng, rel);
            engine.insert(rel, row).unwrap();
        } else if roll < 65 {
            let rel = RELS.choose(&mut rng).copied().unwrap();
            if let Some(&id) = live_ids(&engine, rel).choose(&mut rng) {
                engine.delete(rel, id).unwrap();
            }
        } else if roll < 80 {
            let rel = RELS.choose(&mut rng).copied().unwrap();
            if let Some(&id) = live_ids(&engine, rel).choose(&mut rng) {
                let row = row_for(&mut rng, rel);
                engine.update(rel, id, row).unwrap();
            }
        } else if roll < 90 {
            // A late add must seed the memo to exactly the naive
            // answer over the pre-existing tuples.
            let rule = if rng.gen_bool(0.7) {
                join_rule(&mut rng, rule_n)
            } else {
                plain_rule(&mut rng, rule_n)
            };
            rule_n += 1;
            engine.add_rule(rule).unwrap();
        } else {
            let ids: Vec<_> = engine.rules_detail().map(|(id, _, _)| id).collect();
            if ids.len() > 1 {
                let id = *ids.choose(&mut rng).unwrap();
                engine.remove_rule(id).unwrap();
            }
        }
        assert_parity(&engine, &context);
    }

    // End-of-stream: the memo digest must be reproducible from scratch
    // (the durable crash tests lean on this invariant).
    let before = engine.join_fingerprint();
    assert_parity(&engine, &format!("seed {seed} final"));
    assert_eq!(engine.join_fingerprint(), before);
}

#[test]
fn memoized_joins_match_naive_over_randomized_streams() {
    for seed in 0..120 {
        run_seed(seed);
    }
}
