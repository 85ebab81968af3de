//! Intervals the index's trees are lent: an `Int` literal on a `Float`
//! attribute is coerced when the predicate is bound, so its tree holds
//! the bound interval, not the source clause's — and that interval is
//! the one a remove must lend back when it repairs marks.
//!
//! A seeded churn of such predicates beside ones with `Float` literals
//! (which the source form lends as it is), through inserts, removes and
//! the rotation repair they cause. The literals include integers above
//! 2^53, which `f64` rounds, so a band such as `[2^53, 2^53 + 1]`
//! coerces to a point and an open one to nothing at all. After every
//! step `PredicateIndex::check_invariants` holds each tree to the
//! intervals binding yields, types included, and the index's matches
//! equal `HashSequentialMatcher`'s on probes around every endpoint.

use predicate::parse_predicate;
use predindex::{HashSequentialMatcher, Matcher, PredicateId, PredicateIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, Tuple, Value};

/// 2^53: above it, not every `i64` is an `f64`.
const EXACT: i64 = 1 << 53;

fn db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("m")
            .attr("x", AttrType::Float)
            .attr("k", AttrType::Int)
            .build(),
    )
    .expect("fresh relation");
    db
}

/// An integer literal: small, or within a few of 2^53.
fn int(rng: &mut StdRng) -> i64 {
    if rng.gen_bool(0.3) {
        EXACT + rng.gen_range(-2..5)
    } else {
        rng.gen_range(0..24)
    }
}

/// A literal for `x`: mostly an `Int`, sometimes a `Float` (not
/// coerced, so its source clause is what its tree is lent).
fn literal(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.25) {
        format!("{:?}", rng.gen_range(0..48) as f64 / 2.0)
    } else {
        int(rng).to_string()
    }
}

/// A condition on `x`, now and then with a clause on `k` in front of
/// it, so the indexed clause is not always the first.
fn condition(rng: &mut StdRng) -> String {
    let (a, b) = (literal(rng), literal(rng));
    let x = match rng.gen_range(0..6) {
        0 => format!("m.x = {a}"),
        1 => format!("m.x > {a}"),
        2 => format!("m.x <= {a}"),
        3 => format!("{a} <= m.x and m.x <= {b}"),
        4 => format!("{a} < m.x and m.x < {b}"),
        _ => format!("m.x >= {a}"),
    };
    match rng.gen_range(0..4) {
        0 => format!("m.k >= {} and {x}", rng.gen_range(0..4)),
        _ => x,
    }
}

/// Probe tuples at and between every endpoint the generator draws.
fn probes(db: &mut Database) -> Vec<Tuple> {
    let mut xs: Vec<f64> = (-1..50).map(|h| f64::from(h) / 2.0).collect();
    xs.extend((-4..8).map(|d| (EXACT + d) as f64));
    xs.push(1e300);
    // 2^53 + 1 rounds to 2^53, and so on: one probe per distinct float.
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let mut out = Vec::new();
    for (i, x) in xs.into_iter().enumerate() {
        let k = Value::Int(i as i64 % 5);
        out.push(db.insert("m", vec![Value::Float(x), k]).expect("typed row"));
    }
    out
}

fn sorted(mut ids: Vec<PredicateId>) -> Vec<PredicateId> {
    ids.sort_unstable();
    ids
}

#[test]
fn coerced_bounds_survive_insert_remove_and_repair() {
    let mut db = db();
    let tuples = probes(&mut db);
    let catalog = db.catalog();
    let mut index = PredicateIndex::new();
    let mut oracle = HashSequentialMatcher::new();
    let mut live: Vec<PredicateId> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x2f53);
    // The cases named above first: a literal above 2^53, a band that
    // coerces to a point, and an open band that coerces to nothing.
    let pinned = [
        format!("m.x >= {}", EXACT + 1),
        format!("{} <= m.x and m.x <= {}", EXACT, EXACT + 1),
        format!("{} < m.x and m.x < {}", EXACT, EXACT + 1),
    ];
    let mut texts = pinned.to_vec();
    for step in 0..600 {
        let insert = !texts.is_empty() || live.is_empty() || rng.gen_bool(0.55);
        if insert {
            let text = texts.pop().unwrap_or_else(|| condition(&mut rng));
            let pred = parse_predicate(&text).expect("a generated condition parses");
            let id = index.insert(pred.clone(), catalog).expect("binds");
            assert_eq!(
                oracle.insert(pred, catalog),
                Ok(id),
                "step {step}: ids in lockstep"
            );
            live.push(id);
        } else {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            let source = index.remove(id).expect("live id");
            assert_eq!(Some(source), oracle.remove(id), "step {step}: {id:?}");
        }
        if let Err(e) = index.check_invariants(catalog) {
            panic!("step {step}: {e}");
        }
        assert_eq!(index.len(), live.len());
        for t in &tuples {
            assert_eq!(
                sorted(index.match_tuple("m", t)),
                sorted(oracle.match_tuple("m", t)),
                "step {step}, tuple {t}"
            );
        }
    }
    // The pinned point matches exactly 2^53, which both 2^53 and 2^53 + 1
    // round to.
    let index = {
        let mut fresh = PredicateIndex::new();
        let point = parse_predicate(&pinned[1]).expect("parses");
        let id = fresh.insert(point, catalog).expect("binds");
        let hits: Vec<f64> = (tuples.iter())
            .filter(|t| fresh.match_tuple("m", t) == [id])
            .map(|t| match t.values()[0] {
                Value::Float(x) => x,
                _ => unreachable!("x is a float"),
            })
            .collect();
        assert_eq!(hits, [EXACT as f64]);
        fresh
    };
    index.check_invariants(catalog).expect("one coerced point");
}
