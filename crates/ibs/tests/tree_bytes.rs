//! `IbsTree::approx_bytes` against a counted size: the bytes the
//! allocator holds for a tree, measured by a counting global allocator
//! from before the tree exists. Keys are integers, so a tree owns no
//! heap its estimate leaves out. One test in this binary, so nothing
//! else allocates while it counts.

use ibs::{BalanceMode, IbsTree};
use interval::{Interval, IntervalId};
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

/// A deterministic stream of keys (SplitMix64), so the shapes need no
/// seeded generator from outside the crate.
struct Keys(u64);

impl Keys {
    fn below(&mut self, n: i64) -> i64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as i64
    }
}

/// Builds a tree of `n` intervals from `make`, and returns the estimate
/// beside the counted bytes three times: built; after removing every
/// other interval (freed slots, dropped spills, tables that do not
/// shrink); and after refilling the freed ids and churning every id
/// once more (a remove and a re-insert from `make`), which has grown the
/// update scratch buffers and left repaired intervals' placement lists
/// at their old capacity.
fn measure(
    mode: BalanceMode,
    n: u32,
    mut make: impl FnMut(u32) -> Interval<i64>,
) -> [(usize, usize); 3] {
    let before = LIVE.load(Ordering::Relaxed);
    let mut tree = IbsTree::with_mode(mode);
    for i in 0..n {
        tree.insert(IntervalId(i), make(i)).expect("fresh id");
    }
    let counted = |tree: &IbsTree<i64>| {
        let counted = (LIVE.load(Ordering::Relaxed) - before) as usize;
        (tree.approx_bytes(), counted)
    };
    let built = counted(&tree);
    for i in (0..n).step_by(2) {
        tree.remove(IntervalId(i)).expect("inserted above");
    }
    let halved = counted(&tree);
    for i in (0..n).step_by(2) {
        tree.insert(IntervalId(i), make(i)).expect("removed above");
    }
    for i in 0..n {
        tree.remove(IntervalId(i)).expect("refilled above");
        tree.insert(IntervalId(i), make(i))
            .expect("removed just now");
    }
    let churned = counted(&tree);
    [built, halved, churned]
}

#[test]
fn approx_bytes_is_within_a_fifth_of_the_allocator_count() {
    let mut keys = Keys(27);
    // Narrow bands over a wide domain (`match_stab`'s `a`/`b` trees:
    // most slots hold one mark), points on a small domain (shared
    // endpoints, owner lists), heavy overlap (long slots, every node
    // with a spill), and disjoint intervals in the paper's unbalanced
    // mode.
    let shapes = [
        (
            "bands",
            measure(BalanceMode::Avl, 3_000, |_| {
                let lo = keys.below(100_000);
                Interval::closed(lo, lo + 40 + keys.below(60))
            }),
        ),
        (
            "points",
            measure(BalanceMode::Avl, 3_000, |i| {
                Interval::point(i64::from(i % 700) * 3)
            }),
        ),
        (
            "overlap",
            measure(BalanceMode::Avl, 3_000, |i| {
                let lo = i64::from(i) * 7 % 5_000;
                Interval::closed_open(lo, lo + 2_000)
            }),
        ),
        (
            "disjoint",
            measure(BalanceMode::None, 3_000, |i| {
                Interval::closed(i64::from(i) * 10, i64::from(i) * 10 + 5)
            }),
        ),
    ];
    for (shape, counts) in shapes {
        for (when, (approx, counted)) in ["built", "halved", "churned"].iter().zip(counts) {
            assert!(counted > 100_000, "{shape} {when}: only {counted} bytes");
            let ratio = approx as f64 / counted as f64;
            assert!(
                (1.0 / 1.2..=1.2).contains(&ratio),
                "{shape} {when}: approx_bytes {approx} vs {counted} counted (x{ratio:.2})"
            );
        }
    }
}
