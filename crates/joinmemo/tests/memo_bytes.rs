//! `MemoStats::approx_bytes` (the `join_memo_bytes` histogram,
//! stackbench's `joinmemo.memo_bytes`) against a counted size: the
//! bytes the allocator holds for a memo, measured by a counting global
//! allocator. The rows are the catalog's, allocated before the count
//! starts: a memo holds handles on them, and only a copy would show.
//! One test in this binary, so nothing else allocates while it counts.

use joinmemo::{CompiledJoin, JoinEngine};
use predicate::{parse_condition, FunctionRegistry};
use relation::{AttrType, Catalog, Schema, TupleId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter beside it touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RELS: [&str; 3] = ["a", "b", "c"];

/// `rows` rows per relation over `keys` join keys; with `disjoint`,
/// each relation's keys are its own range, so nothing joins.
fn catalog(rows: i64, keys: i64, disjoint: bool) -> Catalog {
    let mut cat = Catalog::new();
    for (r, rel) in (0..).zip(RELS) {
        let offset = if disjoint { r * keys } else { 0 };
        cat.create_relation(
            Schema::builder(rel)
                .attr("k", AttrType::Int)
                .attr("v", AttrType::Int)
                .attr("tag", AttrType::Str)
                .build(),
        )
        .unwrap();
        for i in 0..rows {
            let row = vec![
                Value::Int(i % keys + offset),
                Value::Int(i * 7 % 100),
                Value::str(format!("{rel}-row-{i}")),
            ];
            cat.relation_mut(rel).unwrap().insert(row).unwrap();
        }
    }
    cat
}

/// Seeds `condition` over `cat` and returns the estimate beside the
/// counted bytes, before and after retracting every other `b` tuple
/// (freed slab slots, emptied buckets, tables that do not shrink).
fn measure(condition: &str, cat: &Catalog) -> [(u64, u64); 2] {
    let cond = parse_condition(condition, &FunctionRegistry::default()).unwrap();
    let plan = CompiledJoin::compile(cond.as_join().unwrap(), cat).unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    let mut je = JoinEngine::new();
    je.register(0, plan);
    je.seed(0, cat);
    let counted = |je: &JoinEngine| {
        let counted = (LIVE.load(Ordering::Relaxed) - before) as u64;
        (je.stats_for(0).unwrap().approx_bytes, counted)
    };
    let seeded = counted(&je);
    let ids: Vec<TupleId> = cat
        .relation("b")
        .unwrap()
        .iter()
        .map(|(id, _)| id)
        .collect();
    for id in ids.iter().step_by(2) {
        je.retract("b", id.0);
    }
    let halved = counted(&je);
    [seeded, halved]
}

#[test]
fn approx_bytes_is_within_a_fifth_of_the_allocator_count() {
    // Small buckets (many keys), few large buckets, one bucket per
    // store (no equality step), a three-premise chain — and disjoint
    // key ranges: no join token, so alpha entries are most of the
    // memo, and a tuple counted as the row behind its handle (which
    // the relation owns) shows as an overcount.
    let shapes = [
        ("a.k = b.k", 3_000, 1_500, false),
        ("a.k = b.k", 1_200, 12, false),
        ("a.v < b.v and a.k = 0 and b.k = 1", 3_000, 40, false),
        ("a.k = b.k and b.k = c.k", 2_000, 400, false),
        ("a.k = b.k", 3_000, 30, true),
    ];
    for (condition, rows, keys, disjoint) in shapes {
        let cat = catalog(rows, keys, disjoint);
        for (when, (approx, counted)) in ["seeded", "halved"].iter().zip(measure(condition, &cat)) {
            assert!(
                counted > 100_000,
                "{condition} {when}: only {counted} bytes"
            );
            let ratio = approx as f64 / counted as f64;
            assert!(
                (1.0 / 1.2..=1.2).contains(&ratio),
                "{condition} ({rows} rows, {keys} keys, disjoint {disjoint}) {when}: \
                 approx_bytes {approx} vs {counted} counted (x{ratio:.2})"
            );
        }
    }
}
