//! `PREDICATES` is a slab: a removed predicate's slot goes on a free
//! list and the next insert takes it, while ids stay monotonic. An IBS
//! mark or a group member names a slot, so a reused slot must answer
//! for its new predicate only.
//!
//! Seeded inserts and removes at a steady population, against
//! `HashSequentialMatcher`: the same matched ids after every step, a
//! removed id gone from `get` and `remove`, and EXPLAIN naming the
//! predicate that lives in a slot now. Then a long churn at the same
//! population must not grow `approx_bytes`: the free list, not fresh
//! slots, absorbs it.

use predicate::{parse_predicate, Predicate};
use predindex::{HashSequentialMatcher, Matcher, PredicateId, PredicateIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, Tuple, Value};
use std::collections::BTreeMap;

const POPULATION: usize = 60;

fn test_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("r")
            .attr("a", AttrType::Int)
            .attr("b", AttrType::Int)
            .build(),
    )
    .expect("fresh relation");
    db
}

/// A predicate on `r`: one or two range clauses (tree-placed) or an
/// opaque function (on the non-indexable list), so slots are reused by
/// both kinds of mark.
fn predicate(rng: &mut StdRng) -> Predicate {
    let v = rng.gen_range(0..10i64);
    let text = match rng.gen_range(0..5) {
        0 => format!("r.a = {v}"),
        1 => format!("r.a > {v}"),
        2 => format!("{v} <= r.b <= {}", v + 3),
        3 => format!("r.a < {v} and r.b >= {}", rng.gen_range(0..10)),
        _ => ["isodd(r.a)", "iseven(r.b)"][rng.gen_range(0..2)].to_string(),
    };
    parse_predicate(&text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn tuple(rng: &mut StdRng) -> Tuple {
    Tuple::new(vec![
        Value::Int(rng.gen_range(0..12)),
        Value::Int(rng.gen_range(0..12)),
    ])
}

/// Removes a random live predicate from both matchers and returns it.
fn remove_one(
    rng: &mut StdRng,
    index: &mut PredicateIndex,
    oracle: &mut HashSequentialMatcher,
    live: &mut BTreeMap<PredicateId, Predicate>,
) -> (PredicateId, Predicate) {
    let at = rng.gen_range(0..live.len());
    let id = *live.keys().nth(at).expect("at < live.len()");
    let pred = live.remove(&id).expect("a live id");
    assert_eq!(index.remove(id), Some(pred.clone()));
    assert_eq!(oracle.remove(id), Some(pred.clone()));
    (id, pred)
}

/// Inserts `pred` into both matchers.
fn insert_one(
    pred: Predicate,
    db: &Database,
    index: &mut PredicateIndex,
    oracle: &mut HashSequentialMatcher,
    live: &mut BTreeMap<PredicateId, Predicate>,
) -> PredicateId {
    let id = index.insert(pred.clone(), db.catalog()).expect("binds");
    assert_eq!(oracle.insert(pred.clone(), db.catalog()), Ok(id));
    live.insert(id, pred);
    id
}

#[test]
fn reused_slots_answer_for_their_new_predicate_only() {
    let db = test_db();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut index, mut oracle) = (PredicateIndex::new(), HashSequentialMatcher::new());
        let mut live = BTreeMap::new();
        for _ in 0..POPULATION {
            let pred = predicate(&mut rng);
            insert_one(pred, &db, &mut index, &mut oracle, &mut live);
        }
        let mut gone = Vec::new();
        for step in 0..300 {
            let (old, _) = remove_one(&mut rng, &mut index, &mut oracle, &mut live);
            let pred = predicate(&mut rng);
            let new = insert_one(pred, &db, &mut index, &mut oracle, &mut live);
            assert!(new > old, "seed {seed} step {step}: ids stay monotonic");
            gone.push(old);
            let at = format!("seed {seed} step {step}");
            assert_eq!(index.len(), POPULATION, "{at}: len");
            for &id in &gone[gone.len().saturating_sub(20)..] {
                assert_eq!(index.get(id), None, "{at}: get({id}) after removal");
                assert_eq!(index.remove(id), None, "{at}: remove({id}) twice");
            }
            for _ in 0..4 {
                let t = tuple(&mut rng);
                let want = oracle.match_tuple("r", &t);
                assert_eq!(index.match_tuple("r", &t), want, "{at}: {t}");
                // Every entry EXPLAIN lists is a live predicate, shown
                // with its own source: a reused slot never speaks for
                // the predicate that held it before.
                let trace = index.explain_tuple("r", &t);
                let mut passed = Vec::new();
                for r in &trace.residual {
                    let id = PredicateId(r.predicate);
                    let pred = live
                        .get(&id)
                        .unwrap_or_else(|| panic!("{at}: {id} is not live"));
                    assert_eq!(Some(r.source.clone()), pred.to_source(), "{at}: {id}");
                    if r.pass {
                        passed.push(id);
                    }
                }
                passed.sort_unstable();
                assert_eq!(passed, want, "{at}: EXPLAIN {t}");
            }
        }
    }
}

#[test]
fn churn_at_a_steady_population_does_not_grow_the_index() {
    let db = test_db();
    let mut rng = StdRng::seed_from_u64(7);
    let (mut index, mut oracle) = (PredicateIndex::new(), HashSequentialMatcher::new());
    let mut live = BTreeMap::new();
    for _ in 0..POPULATION {
        let pred = predicate(&mut rng);
        insert_one(pred, &db, &mut index, &mut oracle, &mut live);
    }
    // Each cycle registers the predicate it removed again, under a fresh
    // id: the live set's content never changes, only slots and ids move.
    let mut after_1k = 0;
    for cycle in 1..=10_000 {
        let (_, pred) = remove_one(&mut rng, &mut index, &mut oracle, &mut live);
        insert_one(pred, &db, &mut index, &mut oracle, &mut live);
        if cycle == 1_000 {
            after_1k = index.approx_bytes();
        }
    }
    let after_10k = index.approx_bytes();
    assert!(
        after_10k as f64 <= after_1k as f64 * 1.1,
        "{after_10k} bytes after 10k cycles vs {after_1k} after 1k"
    );
}
