//! The condition parser's heap budget, counted, not timed: a parse may
//! allocate what its result keeps, plus the token list and the conjunct
//! lists, and little else. For each condition shape below, the
//! allocations of one `parse_rule_conditions` call minus those of
//! cloning its result are the parse's garbage; an identifier copied
//! into a token, a cloned token or leaf, or a boxed expression node
//! shows up there at once. The counter is per thread, so the cases can
//! run side by side.

use predicate::parse_rule_conditions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls that obtained memory (`alloc`, `realloc`) on
    /// this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the thread-local beside it is a plain
// `Cell<u64>` with no destructor and touches no memory the allocator
// hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
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
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of parsing `text`, minus those of cloning the result.
fn garbage(text: &str) -> u64 {
    let before = allocations();
    let parsed = parse_rule_conditions(text).expect("every shape parses");
    let parse = allocations() - before;
    let before = allocations();
    let kept = parsed.clone();
    let clone = allocations() - before;
    drop(kept);
    parse - clone
}

/// `rule_churn`'s six condition shapes.
const CHURN: [&str; 6] = [
    "123456 <= r0.a <= 123756",
    "456789 <= r1.b <= 457789 and r1.a > 654321",
    "r2.c = 417 and r2.a < 345678",
    "r3.a < 512",
    "isodd(r0.d) and 5000 <= r0.b <= 6000",
    "isodd(r1.d) and isnegative(r1.c)",
];

/// A two-relation join and a disjunction.
const OTHERS: [&str; 2] = [
    "emp.dno = dept.dno and dept.floor = 1",
    "emp.age < 5 or emp.age > 9",
];

#[test]
fn a_parse_allocates_little_beyond_its_result() {
    // The first parse builds the built-in function registry.
    parse_rule_conditions("isodd(r0.d)").expect("parses");
    let mut over = Vec::new();
    for (texts, bound) in [(&CHURN[..], 5), (&OTHERS[..], 10)] {
        for text in texts {
            let g = garbage(text);
            println!("{g:>3} garbage allocations: {text}");
            if g > bound {
                over.push(format!("{text:?}: {g} > {bound}"));
            }
        }
    }
    assert!(over.is_empty(), "over budget: {over:#?}");
}
