//! Heap allocations per IBS-tree update, counted by a global allocator:
//! a hardware-independent work count beside `ibs.insert_ns` and
//! `ibs.remove_ns`. A churned tree reuses its scratch buffers, node
//! slots, owner lists and placement lists, so what an update still
//! allocates is a mark spill it opens or grows. One test in this
//! binary, so nothing else allocates while it counts.

use ibs::IbsTree;
use interval::{Interval, IntervalId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Calls to `alloc` and `realloc`: a buffer that grows counts once per
/// growth.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter beside it touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A deterministic stream of keys (SplitMix64), so the workload needs
/// no seeded generator from outside the crate.
struct Keys(u64);

impl Keys {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    /// One rule condition's range on a wide attribute, shaped like
    /// `rule_churn`'s: bands 300 or 1,000 wide over a domain of a
    /// million, and one-sided bounds within 1,000 of either edge.
    fn interval(&mut self) -> Interval<i64> {
        const WIDE: u64 = 1_000_000;
        let lo = self.below(WIDE - 1_000) as i64;
        let edge = self.below(1_000) as i64;
        match self.below(10) {
            0..=4 => Interval::closed(lo, lo + 300),
            5..=7 => Interval::closed(lo, lo + 1_000),
            8 => Interval::less_than(edge),
            _ => Interval::greater_than(WIDE as i64 - edge),
        }
    }
}

/// Intervals in the tree, about the size of one of `rule_churn`'s trees.
const LIVE: u32 = 200;
/// Remove-and-reinsert cycles before counting and while counting.
const CYCLES: u32 = 10_000;

/// Allocations `f` makes.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn an_update_on_a_churned_tree_allocates_at_most_a_few_times() {
    let mut keys = Keys(37);
    let mut tree = IbsTree::new();
    for id in 0..LIVE {
        tree.insert(IntervalId(id), keys.interval())
            .expect("fresh id");
    }
    // Each cycle removes a random interval and re-inserts a new one
    // under the freed id, as the predicate index reuses a slab slot.
    let cycle = |tree: &mut IbsTree<i64>, keys: &mut Keys| {
        let id = IntervalId(keys.below(u64::from(LIVE)) as u32);
        let iv = keys.interval();
        let removed = allocations(|| {
            tree.remove(id).expect("every id below LIVE is in the tree");
        });
        let inserted = allocations(|| tree.insert(id, iv).expect("the id was just freed"));
        (inserted, removed)
    };
    for _ in 0..CYCLES {
        cycle(&mut tree, &mut keys);
    }
    let (mut inserts, mut removes) = (0, 0);
    for _ in 0..CYCLES {
        let (i, r) = cycle(&mut tree, &mut keys);
        inserts += i;
        removes += r;
    }
    tree.assert_invariants();
    let per_insert = inserts as f64 / f64::from(CYCLES);
    let per_remove = removes as f64 / f64::from(CYCLES);
    println!("allocations per insert {per_insert:.2}, per remove {per_remove:.2}");
    // The tree reads 0.69 and 0.55 here (8.11 and 7.98 before the
    // update path kept its buffers): one `Vec::new()` per placement
    // crosses either bound.
    assert!(
        per_insert <= 1.0,
        "{per_insert:.2} allocations per insert (bound 1.0)"
    );
    assert!(
        per_remove <= 1.0,
        "{per_remove:.2} allocations per remove (bound 1.0)"
    );
}
