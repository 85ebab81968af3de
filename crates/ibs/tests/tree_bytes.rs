//! `IbsTree::approx_bytes` and `IbsCore::approx_bytes` against a
//! counted size: the bytes the allocator holds for a tree, read from
//! `bench`'s counting allocator (included by path) from before the tree
//! exists. A core is measured as the predicate index holds one, lent
//! its intervals from a table allocated before the count starts, so
//! what is counted is nodes and marks alone. Keys are integers, so a
//! tree owns no heap its estimate leaves out. The live bytes are
//! process-wide: one test in this binary, so nothing else allocates
//! while it counts.

#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;
use ibs::{BalanceMode, IbsCore, IbsTree};
use interval::{Interval, IntervalId};

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
/// update scratch buffers.
fn measure(
    mode: BalanceMode,
    n: u32,
    make: &mut dyn FnMut(u32) -> Interval<i64>,
) -> [(usize, usize); 3] {
    let before = live_bytes();
    let mut tree = IbsTree::with_mode(mode);
    for i in 0..n {
        tree.insert(IntervalId(i), make(i)).expect("fresh id");
    }
    let counted = |tree: &IbsTree<i64>| {
        let counted = (live_bytes() - before) as usize;
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

/// [`measure`] on a bare core, lent from a table of the intervals by id
/// that exists before the count starts. A new interval overwrites its
/// id's entry in place (an `i64` interval owns no heap), so the count is
/// the core's alone.
fn measure_core(
    mode: BalanceMode,
    n: u32,
    make: &mut dyn FnMut(u32) -> Interval<i64>,
) -> [(usize, usize); 3] {
    let mut table: Vec<Interval<i64>> = (0..n).map(&mut *make).collect();
    let before = live_bytes();
    let mut core = IbsCore::with_mode(mode);
    for (i, iv) in (0..).zip(&table) {
        core.insert(IntervalId(i), iv);
    }
    let counted = |core: &IbsCore<i64>| {
        let counted = (live_bytes() - before) as usize;
        (core.approx_bytes(), counted)
    };
    let built = counted(&core);
    for i in (0..n).step_by(2) {
        core.remove(IntervalId(i), &table[i as usize], |m| &table[m.index()]);
    }
    let halved = counted(&core);
    for i in (0..n).step_by(2) {
        table[i as usize] = make(i);
        core.insert(IntervalId(i), &table[i as usize]);
    }
    for i in 0..n {
        core.remove(IntervalId(i), &table[i as usize], |m| &table[m.index()]);
        table[i as usize] = make(i);
        core.insert(IntervalId(i), &table[i as usize]);
    }
    let churned = counted(&core);
    [built, halved, churned]
}

/// Either measurement, over a key stream the shapes share.
type Measure = fn(BalanceMode, u32, &mut dyn FnMut(u32) -> Interval<i64>) -> [(usize, usize); 3];

#[test]
fn approx_bytes_is_within_a_fifth_of_the_allocator_count() {
    let mut keys = Keys(27);
    // Narrow bands over a wide domain (`match_stab`'s `a`/`b` trees:
    // most slots hold one mark), points on a small domain (shared
    // endpoints, owner lists), heavy overlap (long slots, every node
    // with a spill), and disjoint intervals in the paper's unbalanced
    // mode.
    let mut shapes = Vec::new();
    for (holder, measure) in [
        ("shell", measure as Measure),
        ("core", measure_core as Measure),
    ] {
        shapes.extend([
            (
                holder,
                "bands",
                measure(BalanceMode::Avl, 3_000, &mut |_| {
                    let lo = keys.below(100_000);
                    Interval::closed(lo, lo + 40 + keys.below(60))
                }),
            ),
            (
                holder,
                "points",
                measure(BalanceMode::Avl, 3_000, &mut |i| {
                    Interval::point(i64::from(i % 700) * 3)
                }),
            ),
            (
                holder,
                "overlap",
                measure(BalanceMode::Avl, 3_000, &mut |i| {
                    let lo = i64::from(i) * 7 % 5_000;
                    Interval::closed_open(lo, lo + 2_000)
                }),
            ),
            (
                holder,
                "disjoint",
                measure(BalanceMode::None, 3_000, &mut |i| {
                    Interval::closed(i64::from(i) * 10, i64::from(i) * 10 + 5)
                }),
            ),
        ]);
    }
    for (holder, shape, counts) in shapes {
        for (when, (approx, counted)) in ["built", "halved", "churned"].iter().zip(counts) {
            assert!(
                counted > 100_000,
                "{holder} {shape} {when}: only {counted} bytes"
            );
            let ratio = approx as f64 / counted as f64;
            assert!(
                (1.0 / 1.2..=1.2).contains(&ratio),
                "{holder} {shape} {when}: approx_bytes {approx} vs {counted} counted (x{ratio:.2})"
            );
        }
    }
}
