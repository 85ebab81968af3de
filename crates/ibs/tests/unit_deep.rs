//! Deep targeted tests for IBS-tree edge cases the property suite can
//! reach only probabilistically: predecessor-swap deletion under marks,
//! AVL delete rebalancing chains, extreme keys, duplicate intervals,
//! and churn that cycles arena slots.

use ibs::{BalanceMode, IbsTree};
use interval::{Interval, IntervalId, Lower, Upper};

fn id(n: u32) -> IntervalId {
    IntervalId(n)
}

/// Deleting an internal endpoint node with two children forces the
/// predecessor swap; surrounding intervals' marks must survive.
#[test]
fn predecessor_swap_with_live_marks() {
    // Unbalanced mode so the shape is deterministic: insert 50 first
    // (root), then endpoints on both sides.
    let mut t = IbsTree::with_mode(BalanceMode::None);
    t.insert(id(0), Interval::closed(50, 50)).unwrap(); // root node 50
    t.insert(id(1), Interval::closed(20, 80)).unwrap(); // spans the root
    t.insert(id(2), Interval::closed(10, 30)).unwrap();
    t.insert(id(3), Interval::closed(40, 60)).unwrap();
    t.insert(id(4), Interval::closed(45, 55)).unwrap();
    t.assert_invariants();

    // Node 50 has two children; removing interval 0 releases the value
    // 50 only if no other interval is anchored there (none are).
    t.remove(id(0)).unwrap();
    t.assert_invariants();
    assert!(t.find_value_absent(50));

    // All other intervals still answer correctly across the domain.
    for x in 0..100 {
        let mut got = t.stab(&x);
        got.sort_unstable();
        let mut want: Vec<IntervalId> = t
            .iter()
            .filter(|(_, iv)| iv.contains(&x))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "after swap at {x}");
    }
}

/// Helper trait impl via extension: check a value is no longer a node.
trait FindAbsent {
    fn find_value_absent(&self, v: i32) -> bool;
}

impl FindAbsent for IbsTree<i32> {
    fn find_value_absent(&self, v: i32) -> bool {
        // The public surface has no direct node lookup; infer from the
        // ownership invariant: if any interval still used the value as
        // an endpoint the node would exist, and node_count tracks it.
        !self
            .iter()
            .any(|(_, iv)| iv.lo().value() == Some(&v) || iv.hi().value() == Some(&v))
    }
}

/// AVL deletions that shorten a subtree must rebalance on the way up;
/// removing a whole flank in order exercises repeated rotations.
#[test]
fn avl_delete_rebalancing_chain() {
    let mut t = IbsTree::with_mode(BalanceMode::Avl);
    let n = 512u32;
    for i in 0..n {
        t.insert(id(i), Interval::point(i as i32)).unwrap();
    }
    // Remove the left half ascending: each removal unbalances toward
    // the right flank.
    for i in 0..n / 2 {
        t.remove(id(i)).unwrap();
        if i % 37 == 0 {
            t.assert_invariants();
        }
    }
    t.assert_invariants();
    assert!(t.height() <= 12, "height {} after rebalance", t.height());
    for i in n / 2..n {
        assert_eq!(t.stab(&(i as i32)), vec![id(i)]);
    }
}

/// Extreme keys must not overflow anything (ordering only, no
/// arithmetic is ever done on keys).
#[test]
fn extreme_keys() {
    let mut t = IbsTree::new();
    t.insert(id(0), Interval::closed(i64::MIN, i64::MIN + 1))
        .unwrap();
    t.insert(id(1), Interval::closed(i64::MAX - 1, i64::MAX))
        .unwrap();
    t.insert(id(2), Interval::closed(i64::MIN, i64::MAX))
        .unwrap();
    t.insert(id(3), Interval::point(0)).unwrap();
    t.assert_invariants();
    let mut hits = t.stab(&i64::MIN);
    hits.sort_unstable();
    assert_eq!(hits, vec![id(0), id(2)]);
    let mut hits = t.stab(&i64::MAX);
    hits.sort_unstable();
    assert_eq!(hits, vec![id(1), id(2)]);
    let mut hits = t.stab(&0);
    hits.sort_unstable();
    assert_eq!(hits, vec![id(2), id(3)]);
}

/// Many copies of the *same* interval under different ids: every copy
/// is reported, removal affects only its own id.
#[test]
fn duplicate_intervals_distinct_ids() {
    let mut t = IbsTree::new();
    for i in 0..64 {
        t.insert(id(i), Interval::closed(10, 20)).unwrap();
    }
    t.assert_invariants();
    assert_eq!(t.stab(&15).len(), 64);
    assert_eq!(t.node_count(), 2, "shared endpoints collapse to 2 nodes");
    for i in (0..64).step_by(2) {
        t.remove(id(i)).unwrap();
    }
    t.assert_invariants();
    assert_eq!(t.stab(&15).len(), 32);
    assert_eq!(t.node_count(), 2);
    for i in (1..64).step_by(2) {
        t.remove(id(i)).unwrap();
    }
    assert_eq!(t.node_count(), 0);
    t.assert_invariants();
}

/// Re-using ids after removal must behave like fresh ids.
#[test]
fn id_reuse_after_removal() {
    let mut t = IbsTree::new();
    t.insert(id(7), Interval::closed(1, 5)).unwrap();
    t.remove(id(7)).unwrap();
    t.insert(id(7), Interval::closed(100, 200)).unwrap();
    t.assert_invariants();
    assert_eq!(t.stab(&3), vec![]);
    assert_eq!(t.stab(&150), vec![id(7)]);
    assert_eq!(t.get(id(7)), Some(&Interval::closed(100, 200)));
}

/// A slot marks its inline id present with a bit, not a sentinel id, so
/// the largest id is a mark like any other: alone in a slot (inline),
/// and in slots it shares with smaller ids (spilled).
#[test]
fn largest_interval_id_is_a_legal_mark() {
    let max = IntervalId(u32::MAX);
    let sorted_stab = |t: &IbsTree<i32>, x: i32| {
        let mut v = t.stab(&x);
        v.sort_unstable();
        v
    };
    let mut t = IbsTree::new();
    t.insert(max, Interval::closed(10, 20)).unwrap();
    t.assert_invariants();
    assert_eq!(t.stab(&15), vec![max]);
    t.insert(id(0), Interval::closed(0, 100)).unwrap();
    t.insert(id(1), Interval::point(15)).unwrap();
    t.assert_invariants();
    assert_eq!(sorted_stab(&t, 15), vec![id(0), id(1), max]);
    assert_eq!(sorted_stab(&t, 10), vec![id(0), max]);
    assert_eq!(sorted_stab(&t, 30), vec![id(0)]);
    assert_eq!(t.stab_count(&15), 3);
    assert_eq!(t.remove(max), Some(Interval::closed(10, 20)));
    t.assert_invariants();
    assert_eq!(sorted_stab(&t, 15), vec![id(0), id(1)]);
    assert_eq!(sorted_stab(&t, 10), vec![id(0)]);
    assert!(t.get(max).is_none());
}

/// Alternating growth and shrink cycles the arena free list through
/// many generations.
#[test]
fn arena_slot_churn() {
    let mut t = IbsTree::new();
    for gen in 0u32..30 {
        for i in 0..40 {
            let base = ((gen * 40 + i) % 97) as i32 * 3;
            t.insert(id(gen * 40 + i), Interval::closed(base, base + 10))
                .unwrap();
        }
        for i in 0..40 {
            if (i + gen) % 3 != 0 {
                t.remove(id(gen * 40 + i)).unwrap();
            }
        }
        t.assert_invariants();
    }
    assert!(!t.is_empty());
}

/// The overlap query and the point stab agree along every boundary of a
/// pathological shared-endpoint pile-up.
#[test]
fn overlap_query_boundary_pileup() {
    let mut t = IbsTree::new();
    // 10 intervals all ending at 50 with varying openness, 10 starting
    // at 50.
    for i in 0..10u32 {
        let lo = 40 - i as i32;
        if i % 2 == 0 {
            t.insert(id(i), Interval::closed(lo, 50)).unwrap();
        } else {
            t.insert(id(i), Interval::closed_open(lo, 50)).unwrap();
        }
    }
    for i in 10..20u32 {
        let hi = 60 + i as i32;
        if i % 2 == 0 {
            t.insert(id(i), Interval::closed(50, hi)).unwrap();
        } else {
            let iv = Interval::new(Lower::Exclusive(50), Upper::Inclusive(hi)).unwrap();
            t.insert(id(i), iv).unwrap();
        }
    }
    t.assert_invariants();

    // At exactly 50: closed-ending + closed-starting only.
    let at50 = t.stab(&50);
    assert_eq!(at50.len(), 10, "5 closed-ending + 5 closed-starting");

    // Overlap query across the boundary sees everything.
    assert_eq!(t.stab_interval(&Interval::closed(49, 51)).len(), 20);
    // Just below the boundary: only the left pile.
    assert_eq!(t.stab_interval(&Interval::closed(45, 49)).len(), 10);
}

/// Zero-width queries outside any interval return nothing, even when
/// the tree is large.
#[test]
fn misses_on_large_tree() {
    let mut t = IbsTree::new();
    for i in 0..1000u32 {
        let base = i as i32 * 10;
        t.insert(id(i), Interval::closed(base, base + 4)).unwrap();
    }
    for i in 0..1000 {
        let gap = i * 10 + 7; // between [base, base+4] blocks
        assert_eq!(t.stab(&gap), vec![], "gap {gap}");
    }
}

/// A remove finds an interval's marks by walking the search paths to its
/// finite endpoints, so this churns every shape those paths must reach —
/// half-unbounded, point, exclusive-bound and shared-endpoint intervals
/// on a 40-key domain — through rotations and predecessor-swap deletes,
/// in both modes, with every invariant (canonical marks included)
/// checked after each update. Draining the tree leaves no node and no
/// mark behind.
#[test]
fn seeded_churn_of_every_shape_drains_to_nothing() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for mode in [BalanceMode::Avl, BalanceMode::None] {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut t = IbsTree::with_mode(mode);
        let mut live = Vec::new();
        for next in 0u32..500 {
            if live.is_empty() || rng.gen_bool(0.55) {
                let a = rng.gen_range(0..40);
                let b = a + rng.gen_range(1..12);
                let iv = match rng.gen_range(0..9) {
                    0 => Interval::at_most(a),
                    1 => Interval::less_than(a),
                    2 => Interval::at_least(a),
                    3 => Interval::greater_than(a),
                    4 => Interval::point(a),
                    5 => Interval::open(a, b),
                    6 => Interval::closed_open(a, b),
                    7 => Interval::new(Lower::Exclusive(a), Upper::Inclusive(b)).unwrap(),
                    _ => Interval::closed(a, b),
                };
                t.insert(id(next), iv).unwrap();
                live.push(id(next));
            } else {
                let gone = live.swap_remove(rng.gen_range(0..live.len()));
                t.remove(gone).unwrap();
            }
            t.assert_invariants();
        }
        assert!(t.node_count() > 20, "the churn left a tree worth draining");
        while !live.is_empty() {
            let gone = live.swap_remove(rng.gen_range(0..live.len()));
            t.remove(gone).unwrap();
            t.assert_invariants();
        }
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 0, "{mode:?}: nodes left");
        assert_eq!(t.marker_count(), 0, "{mode:?}: marks left");
    }
}
