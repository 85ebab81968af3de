//! Memos share the row they hold, and the key index over it. One
//! condition registered K times is K memos with the same alpha
//! memories; feeding one tuple to all of them and retracting it again
//! must allocate the same bytes at K = 20 as at K = 1 — a memo that
//! copied the row would allocate it K times — and feeding it must grow
//! the live bytes by the same amount, which a memo that kept a key
//! store of its own would grow K times. `bench`'s counting allocator
//! (included by path) reads the bytes: per thread, and the live bytes
//! process-wide, so the tests of this binary take turns.

#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, live_bytes};
use joinmemo::{CompiledJoin, JoinEngine};
use predicate::{parse_condition, FunctionRegistry};
use relation::{AttrType, Catalog, Schema, Tuple, Value};
use std::sync::Mutex;

/// Held while a test allocates: the live bytes are process-wide.
static TURN: Mutex<()> = Mutex::new(());

/// `a.k = b.k` over a catalog where `b` holds `rows` rows of join key
/// 1 and `a` holds none: the fed `b` tuple lands in a warm bucket and
/// completes nothing, so what a memo does with it is store it.
const CONDITION: &str = "a.k = b.k";

fn catalog(rows: i64) -> Catalog {
    let mut cat = Catalog::new();
    for rel in ["a", "b"] {
        cat.create_relation(
            Schema::builder(rel)
                .attr("k", AttrType::Int)
                .attr("v", AttrType::Int)
                .attr("tag", AttrType::Str)
                .build(),
        )
        .unwrap();
    }
    for i in 0..rows {
        let row = vec![
            Value::Int(1),
            Value::Int(i),
            Value::str(format!("b-row-{i}")),
        ];
        cat.relation_mut("b").unwrap().insert(row).unwrap();
    }
    cat
}

/// Bytes allocated to feed one new `b` tuple into `memos` memos of
/// [`CONDITION`] and retract it, after one untimed round of the same
/// that warms the tables, the key bucket and the scratch buffers.
fn feed_and_retract_bytes(memos: u64) -> u64 {
    let mut cat = catalog(64);
    let cond = parse_condition(CONDITION, &FunctionRegistry::default()).unwrap();
    let plan = CompiledJoin::compile(cond.as_join().unwrap(), &cat).unwrap();
    assert_eq!(plan.relation(1), "b");
    let mut je = JoinEngine::new();
    for key in 0..memos {
        je.register(key, plan.clone());
        je.seed(key, &cat);
    }
    let b = cat.relation_mut("b").unwrap();
    let row = vec![Value::Int(1), Value::Int(-1), Value::str("the fed row")];
    let tid = b.insert(row).unwrap();
    let tuple = b.get(tid).unwrap().clone();

    let mut round = || {
        for key in 0..memos {
            let out = je.insert(key, 1, tid.0, &tuple);
            assert!(out.bindings.is_empty() && out.created == 0);
        }
        assert_eq!(je.retract("b", tid.0), 0);
    };
    round();
    counted(round).1.bytes
}

#[test]
fn feeding_twenty_memos_allocates_no_more_than_feeding_one() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let one = feed_and_retract_bytes(1);
    let twenty = feed_and_retract_bytes(20);
    assert!(
        twenty <= one,
        "one tuple into 20 memos allocated {twenty} bytes, into 1 memo {one}: \
         every memo copies the row"
    );
}

/// `a.k = b.k and a.v = b.v`: `b`'s key is two values, so a new bucket
/// holds its key on the heap, and the fed `b` tuple's key is one no
/// row has.
const TWO_VALUE_CONDITION: &str = "a.k = b.k and a.v = b.v";

/// Live bytes that feeding one new `b` tuple into `memos` memos of
/// [`TWO_VALUE_CONDITION`] builds, after an untimed round that feeds
/// another new tuple and retracts it, which warms the tables, the
/// index and the scratch buffers.
fn feed_live_bytes(memos: u64) -> isize {
    let mut cat = catalog(64);
    let cond = parse_condition(TWO_VALUE_CONDITION, &FunctionRegistry::default()).unwrap();
    let plan = CompiledJoin::compile(cond.as_join().unwrap(), &cat).unwrap();
    assert_eq!(plan.relation(1), "b");
    let mut je = JoinEngine::new();
    for key in 0..memos {
        je.register(key, plan.clone());
        je.seed(key, &cat);
    }
    let b = cat.relation_mut("b").unwrap();
    let mut fed = Vec::new();
    for v in [-2, -1] {
        let tid = b
            .insert(vec![Value::Int(1), Value::Int(v), Value::str("fed")])
            .unwrap();
        fed.push((tid.0, b.get(tid).unwrap().clone()));
    }
    let feed = |je: &mut JoinEngine, (tid, tuple): &(u32, Tuple)| {
        for key in 0..memos {
            let out = je.insert(key, 1, *tid, tuple);
            assert!(out.bindings.is_empty() && out.created == 0);
        }
    };
    feed(&mut je, &fed[0]);
    assert_eq!(je.retract("b", fed[0].0), 0);
    let before = live_bytes();
    feed(&mut je, &fed[1]);
    live_bytes() - before
}

#[test]
fn feeding_twenty_memos_keyed_alike_grows_live_bytes_as_feeding_one() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let one = feed_live_bytes(1);
    let twenty = feed_live_bytes(20);
    assert!(one > 0, "a new two-value bucket holds its key on the heap");
    assert_eq!(
        twenty, one,
        "one tuple into 20 memos keyed by the same attributes grew the live bytes \
         by {twenty}, into 1 memo by {one}: every memo keeps its own key store"
    );
}
