//! Memos share the row they hold. One condition registered K times is
//! K memos with the same alpha memories; feeding one tuple to all of
//! them and retracting it again must allocate the same bytes at K = 20
//! as at K = 1 — a memo that copied the row would allocate it K times.
//! A counting global allocator reads the bytes, per thread.

use joinmemo::{CompiledJoin, JoinEngine};
use predicate::{parse_condition, FunctionRegistry};
use relation::{AttrType, Catalog, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread obtained from `alloc` and growing `realloc`s.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the thread-local beside it is a plain
// `Cell<u64>` with no destructor and touches no memory the allocator
// hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    let before = ALLOCATED.with(Cell::get);
    round();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn feeding_twenty_memos_allocates_no_more_than_feeding_one() {
    let one = feed_and_retract_bytes(1);
    let twenty = feed_and_retract_bytes(20);
    assert!(
        twenty <= one,
        "one tuple into 20 memos allocated {twenty} bytes, into 1 memo {one}: \
         every memo copies the row"
    );
}
