//! The hot `PREDICATES` table: a tree candidate's residual test runs
//! only the clauses its stab did not prove, so the indexed clause must
//! be the one left out — never another.
//!
//! A seeded property over random conjunctions of one to three clauses —
//! ranges on one attribute (merged into one interval) and on different
//! ones, points, half-lines, opaque functions, over Int, Float and Str
//! attributes, in random clause order — with inserts and removes
//! interleaved. After every step, on tuples of full and of short arity,
//! `PredicateIndex` must agree with `HashSequentialMatcher`, which tests
//! every clause of every predicate: the same match set, the same set
//! from EXPLAIN's passing residual entries, and `len` / `get` equal to
//! the live set.

use predicate::{parse_predicate, Predicate};
use predindex::{HashSequentialMatcher, Matcher, PredicateId, PredicateIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, Tuple, Value};
use std::collections::BTreeMap;

const RELS: [&str; 2] = ["r", "q"];

fn test_db() -> Database {
    let mut db = Database::new();
    for rel in RELS {
        db.create_relation(
            Schema::builder(rel)
                .attr("i", AttrType::Int)
                .attr("f", AttrType::Float)
                .attr("s", AttrType::Str)
                .attr("j", AttrType::Int)
                .build(),
        )
        .expect("fresh relation");
    }
    db
}

/// One clause's text over `rel`: a range (point, half-line or band) or
/// an opaque function on a random attribute. Constants sit inside the
/// tuples' domains, so every shape both holds and fails.
fn clause(rng: &mut StdRng, rel: &str) -> String {
    let v = rng.gen_range(0..10i64);
    let w = v + rng.gen_range(0..4i64);
    match rng.gen_range(0..4) {
        // Int attributes: `i` and `j`.
        0 | 1 => {
            let a = if rng.gen_bool(0.5) { "i" } else { "j" };
            match rng.gen_range(0..6) {
                0 => format!("{rel}.{a} = {v}"),
                1 => format!("{rel}.{a} < {v}"),
                2 => format!("{rel}.{a} >= {v}"),
                3 => format!("{v} <= {rel}.{a} <= {w}"),
                4 => format!("isodd({rel}.{a})"),
                _ => format!("iseven({rel}.{a})"),
            }
        }
        // Float: an Int constant is coerced when bound.
        2 => match rng.gen_range(0..5) {
            0 => format!("{rel}.f < {v}.5"),
            1 => format!("{rel}.f > {v}"),
            2 => format!("{v}.0 <= {rel}.f <= {w}.5"),
            3 => format!("{rel}.f = {v}.5"),
            _ => format!("isnegative({rel}.f)"),
        },
        // Str.
        _ => match rng.gen_range(0..4) {
            0 => format!("{rel}.s = \"k{v}\""),
            1 => format!("{rel}.s < \"k{v}\""),
            2 => format!("\"k{v}\" <= {rel}.s <= \"k{w}\""),
            _ => format!("isempty({rel}.s)"),
        },
    }
}

/// A conjunction of one to three clauses on a random relation. Two
/// ranges on one attribute are merged by `Predicate::new`, and an empty
/// intersection makes it unsatisfiable — both are in scope.
fn conjunction(rng: &mut StdRng) -> Predicate {
    let rel = RELS[rng.gen_range(0..RELS.len())];
    let clauses: Vec<String> = (0..rng.gen_range(1..=3))
        .map(|_| clause(rng, rel))
        .collect();
    let text = clauses.join(" and ");
    parse_predicate(&text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// A tuple over the four attributes, cut short to a random arity one
/// time in four (a clause on a missing attribute holds for no value).
fn tuple(rng: &mut StdRng) -> Tuple {
    let s = if rng.gen_bool(0.15) {
        String::new()
    } else {
        format!("k{}", rng.gen_range(0..12))
    };
    let mut values = vec![
        Value::Int(rng.gen_range(0..12)),
        Value::Float(rng.gen_range(-6..24i64) as f64 / 2.0),
        Value::Str(s),
        Value::Int(rng.gen_range(0..12)),
    ];
    if rng.gen_bool(0.25) {
        values.truncate(rng.gen_range(0..values.len()));
    }
    Tuple::new(values)
}

/// Every agreement the step must keep, on `probes` tuples per relation.
fn check(
    index: &PredicateIndex,
    oracle: &HashSequentialMatcher,
    live: &BTreeMap<PredicateId, Predicate>,
    gone: &[PredicateId],
    probes: &[Tuple],
    step: &str,
) {
    assert_eq!(index.len(), live.len(), "{step}: len");
    for (&id, pred) in live {
        assert_eq!(index.get(id), Some(pred), "{step}: get({id})");
    }
    for &id in gone {
        assert_eq!(index.get(id), None, "{step}: get({id}) after removal");
    }
    for rel in RELS {
        for t in probes {
            let want = oracle.match_tuple(rel, t);
            assert_eq!(index.match_tuple(rel, t), want, "{step}: {rel} {t}");
            let mut passed: Vec<PredicateId> = index
                .explain_tuple(rel, t)
                .residual
                .iter()
                .filter(|r| r.pass)
                .map(|r| PredicateId(r.predicate))
                .collect();
            passed.sort_unstable();
            assert_eq!(passed, want, "{step}: EXPLAIN {rel} {t}");
        }
    }
}

#[test]
fn residual_tests_agree_with_full_tests_under_churn() {
    let db = test_db();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut index = PredicateIndex::new();
        let mut oracle = HashSequentialMatcher::new();
        let mut live: BTreeMap<PredicateId, Predicate> = BTreeMap::new();
        let mut gone = Vec::new();
        for n in 0..250 {
            let step = if live.is_empty() || rng.gen_bool(0.7) {
                let pred = conjunction(&mut rng);
                let id = index
                    .insert(pred.clone(), db.catalog())
                    .expect("every generated clause binds");
                let expected = oracle
                    .insert(pred.clone(), db.catalog())
                    .expect("the oracle binds what the index bound");
                assert_eq!(id, expected, "seed {seed} step {n}: ids in step");
                let step = format!("seed {seed} step {n}: insert {id} `{pred}`");
                live.insert(id, pred);
                step
            } else {
                let at = rng.gen_range(0..live.len());
                let id = *live.keys().nth(at).expect("at < live.len()");
                let pred = live.remove(&id).expect("a live id");
                assert_eq!(index.remove(id), Some(pred.clone()), "seed {seed} step {n}");
                assert_eq!(
                    oracle.remove(id),
                    Some(pred.clone()),
                    "seed {seed} step {n}"
                );
                gone.push(id);
                format!("seed {seed} step {n}: remove {id} `{pred}`")
            };
            let probes: Vec<Tuple> = (0..6).map(|_| tuple(&mut rng)).collect();
            check(&index, &oracle, &live, &gone, &probes, &step);
        }
    }
}
