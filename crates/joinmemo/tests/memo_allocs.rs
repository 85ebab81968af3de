//! Allocations per memo operation, on one-value join keys whose
//! buckets hold at most three ids — the shape of `join_cascade`'s
//! `orders.cust = customers.id`. Such a key and bucket sit inline in
//! the key store's table slot, so on warm tables:
//!
//! - a retraction allocates nothing;
//! - an insertion that completes no match allocates nothing;
//! - an insertion that completes matches allocates what a clone of the
//!   bindings it returns allocates, and nothing more.
//!
//! `bench`'s counting allocator (included by path) counts the calls
//! that obtain memory, per thread, so the tests of this binary may run
//! side by side.

#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use joinmemo::{CompiledJoin, JoinEngine};
use predicate::{parse_condition, FunctionRegistry};
use relation::{AttrType, Catalog, Schema, Tuple, Value};

/// Join keys the seeded rows use; the fed rows' keys lie above them.
const KEYS: i64 = 256;
/// Seeded rows per key: `a` (premise 0) and `b` (premise 1). A fed row
/// joins a bucket of at most this many and leaves it at most three.
const A_PER_KEY: i64 = 1;
const B_PER_KEY: i64 = 2;

/// A seeded memo (condition key 0) and the rows the tests feed it.
struct Fixture {
    memo: JoinEngine,
    /// `(premise, tuple id, tuple)` rows that complete matches.
    joining: Vec<(usize, u32, Tuple)>,
    /// Rows that complete none.
    lonely: Vec<(usize, u32, Tuple)>,
    /// Seeded rows, which the retraction test takes out and puts back.
    seeded: Vec<(usize, u32, Tuple)>,
}

/// `a.k = b.k` seeded over `A_PER_KEY` / `B_PER_KEY` rows per key, and
/// the fed rows: for each of `fed` keys, one `a` and one `b` row on a
/// seeded key (they complete matches) and one of each on a key no
/// other row has (they complete none).
fn fixture(fed: i64) -> Fixture {
    let mut cat = Catalog::new();
    for rel in ["a", "b"] {
        cat.create_relation(
            Schema::builder(rel)
                .attr("k", AttrType::Int)
                .attr("v", AttrType::Int)
                .build(),
        )
        .unwrap();
    }
    let mut seeded = Vec::new();
    for key in 0..KEYS {
        for (premise, rel, rows) in [(0, "a", A_PER_KEY), (1, "b", B_PER_KEY)] {
            for v in 0..rows {
                let r = cat.relation_mut(rel).unwrap();
                let id = r.insert(vec![Value::Int(key), Value::Int(v)]).unwrap();
                seeded.push((premise, id.0, r.get(id).unwrap().clone()));
            }
        }
    }
    let cond = parse_condition("a.k = b.k", &FunctionRegistry::default()).unwrap();
    let plan = CompiledJoin::compile(cond.as_join().unwrap(), &cat).unwrap();
    assert_eq!((plan.relation(0), plan.relation(1)), ("a", "b"));
    let mut memo = JoinEngine::new();
    memo.register(0, plan);
    memo.seed(0, &cat);

    let mut add = |rel: &str, premise: usize, key: i64| {
        let r = cat.relation_mut(rel).unwrap();
        let id = r.insert(vec![Value::Int(key), Value::Int(-1)]).unwrap();
        (premise, id.0, r.get(id).unwrap().clone())
    };
    let mut joining = Vec::new();
    let mut lonely = Vec::new();
    for i in 0..fed {
        // Every seeded key is joined at most once per relation.
        let key = i * (KEYS / fed);
        joining.push(add("a", 0, key));
        joining.push(add("b", 1, key));
        lonely.push(add("a", 0, KEYS + 2 * i));
        lonely.push(add("b", 1, KEYS + 2 * i + 1));
    }
    Fixture {
        memo,
        joining,
        lonely,
        seeded,
    }
}

/// Feeds `rows` in, then takes them out again: the round that warms
/// the tables and the scratch buffers.
fn feed_and_retract(memo: &mut JoinEngine, rows: &[(usize, u32, Tuple)]) {
    for (premise, tid, tuple) in rows {
        memo.insert(0, *premise, *tid, tuple);
    }
    retract(memo, rows);
}

fn retract(memo: &mut JoinEngine, rows: &[(usize, u32, Tuple)]) {
    for &(premise, tid, _) in rows {
        memo.retract(["a", "b"][premise], tid);
    }
}

#[test]
fn a_retraction_allocates_nothing() {
    let Fixture {
        mut memo, seeded, ..
    } = fixture(16);
    // A `b` row owns the complete matches over it; an `a` row owns its
    // level-0 token and the matches under it.
    let victims: Vec<_> = seeded.iter().step_by(7).cloned().collect();
    assert!(victims.iter().any(|v| v.0 == 0) && victims.iter().any(|v| v.0 == 1));
    for round in 0..2 {
        let mut retracted = 0;
        let allocs = counted(|| {
            for &(premise, tid, _) in &victims {
                retracted += memo.retract(["a", "b"][premise], tid);
            }
        })
        .1
        .calls;
        assert!(retracted > 0, "the victims own tokens");
        if round > 0 {
            assert_eq!(
                allocs,
                0,
                "{} retractions of {retracted} tokens allocated {allocs} times",
                victims.len()
            );
        }
        for (premise, tid, tuple) in &victims {
            memo.insert(0, *premise, *tid, tuple);
        }
    }
}

#[test]
fn an_insert_that_completes_no_match_allocates_nothing() {
    let Fixture {
        mut memo, lonely, ..
    } = fixture(16);
    feed_and_retract(&mut memo, &lonely);
    let mut created = 0;
    let allocs = counted(|| {
        for (premise, tid, tuple) in &lonely {
            let out = memo.insert(0, *premise, *tid, tuple);
            assert!(out.bindings.is_empty());
            created += out.created;
        }
    })
    .1
    .calls;
    assert_eq!(created, 16, "one level-0 token per fed `a` row");
    assert_eq!(
        allocs,
        0,
        "{} inserts that complete no match allocated {allocs} times",
        lonely.len()
    );
}

#[test]
fn an_insert_that_completes_matches_allocates_only_its_bindings() {
    let Fixture {
        mut memo, joining, ..
    } = fixture(16);
    feed_and_retract(&mut memo, &joining);
    for (premise, tid, tuple) in &joining {
        let (out, allocs) = counted(|| memo.insert(0, *premise, *tid, tuple));
        // A fed `a` row meets its key's `b` rows, a fed `b` row its
        // key's `a` rows.
        let expected = [B_PER_KEY, A_PER_KEY][*premise] as usize;
        assert_eq!(out.bindings.len(), expected);
        let (allocs, cloned) = (allocs.calls, counted(|| out.bindings.clone()).1.calls);
        assert_eq!(
            allocs, cloned,
            "an insert returning {expected} bindings allocated {allocs} times, \
             a clone of them {cloned}"
        );
        retract(&mut memo, &[(*premise, *tid, tuple.clone())]);
    }
}
