//! # The interval binary search tree (IBS-tree)
//!
//! The primary contribution of Hanson, Chaabouni, Kam & Wang,
//! *"A Predicate Matching Algorithm for Database Rule Systems"*
//! (SIGMOD 1990): a binary search tree over interval endpoints whose
//! nodes carry `<`, `=`, `>` *mark sets*, supporting
//!
//! * **stabbing queries** — all intervals overlapping a point — in
//!   `O(log N + L)`,
//! * **dynamic insertion and deletion** of intervals (the capability the
//!   paper needed and which static segment/interval trees lack),
//! * points, closed, open, half-open, and open-ended (±∞) intervals over
//!   **any totally ordered domain** — no arithmetic is required of the
//!   key type, only `Ord`,
//! * optional **AVL balancing** with the paper's mark-preserving
//!   rotations (§4.3, Figures 5–6).
//!
//! ```
//! use ibs::{BalanceMode, IbsTree};
//! use interval::{Interval, IntervalId};
//!
//! // The seven intervals of the paper's Figure 2.
//! let data = [
//!     Interval::closed(9, 19),     // A
//!     Interval::closed(2, 7),      // B
//!     Interval::closed_open(1, 3), // C = [1,3)
//!     Interval::closed(17, 20),    // D
//!     Interval::closed(7, 12),     // E
//!     Interval::point(18),         // F = [18,18]
//!     Interval::at_most(17),       // G = (-inf,17]
//! ];
//! let mut tree = IbsTree::with_mode(BalanceMode::Avl);
//! for (i, iv) in data.iter().enumerate() {
//!     tree.insert(IntervalId(i as u32), iv.clone()).unwrap();
//! }
//!
//! let mut at18 = tree.stab(&18);
//! at18.sort();
//! assert_eq!(at18, vec![IntervalId(0), IntervalId(3), IntervalId(5)]); // A, D, F
//!
//! tree.remove(IntervalId(0)).unwrap(); // drop A
//! let mut at18 = tree.stab(&18);
//! at18.sort();
//! assert_eq!(at18, vec![IntervalId(3), IntervalId(5)]);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod arena;
mod balance;
mod idmap;
mod invariants;
mod marks;
mod observe;
mod overlap;
mod tree;

pub use marks::{MarkSet, Slot};
pub use observe::{StabObserver, StabStats};
pub use tree::{BalanceMode, DuplicateId, IbsTree, LANES};

#[cfg(test)]
mod tests {
    use super::*;
    use interval::{Interval, IntervalId};

    fn id(n: u32) -> IntervalId {
        IntervalId(n)
    }

    /// The example interval set from Figure 2 of the paper.
    fn figure2() -> Vec<Interval<i32>> {
        vec![
            Interval::closed(9, 19),     // A [9,19]
            Interval::closed(2, 7),      // B [2,7]
            Interval::closed_open(1, 3), // C [1,3)
            Interval::closed(17, 20),    // D [17,20]
            Interval::closed(7, 12),     // E [7,12]
            Interval::point(18),         // F [18,18]
            Interval::at_most(17),       // G (-inf,17]
        ]
    }

    fn build(mode: BalanceMode) -> IbsTree<i32> {
        let mut t = IbsTree::with_mode(mode);
        for (i, iv) in figure2().into_iter().enumerate() {
            t.insert(id(i as u32), iv).unwrap();
        }
        t.assert_invariants();
        t
    }

    fn stab_sorted(t: &IbsTree<i32>, x: i32) -> Vec<u32> {
        let mut v: Vec<u32> = t.stab(&x).into_iter().map(|i| i.0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn figure2_stabs() {
        for mode in [BalanceMode::None, BalanceMode::Avl] {
            let t = build(mode);
            // Expected sets computed from the interval definitions.
            assert_eq!(stab_sorted(&t, 0), vec![6]); // G only
            assert_eq!(stab_sorted(&t, 1), vec![2, 6]); // C, G
            assert_eq!(stab_sorted(&t, 2), vec![1, 2, 6]); // B, C, G
            assert_eq!(stab_sorted(&t, 3), vec![1, 6]); // B, G ([1,3) is open at 3)
            assert_eq!(stab_sorted(&t, 7), vec![1, 4, 6]); // B, E, G
            assert_eq!(stab_sorted(&t, 10), vec![0, 4, 6]); // A, E, G
            assert_eq!(stab_sorted(&t, 17), vec![0, 3, 6]); // A, D, G
            assert_eq!(stab_sorted(&t, 18), vec![0, 3, 5]); // A, D, F
            assert_eq!(stab_sorted(&t, 20), vec![3]); // D
            assert_eq!(stab_sorted(&t, 21), Vec::<u32>::new());
        }
    }

    #[test]
    fn empty_tree() {
        let t: IbsTree<i32> = IbsTree::new();
        assert!(t.is_empty());
        assert_eq!(t.stab(&5), vec![]);
        assert_eq!(t.height(), 0);
        assert_eq!(t.marker_count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn single_point() {
        let mut t = IbsTree::new();
        t.insert(id(9), Interval::point(42)).unwrap();
        t.assert_invariants();
        assert_eq!(stab_sorted(&t, 42), vec![9]);
        assert_eq!(stab_sorted(&t, 41), Vec::<u32>::new());
        assert_eq!(stab_sorted(&t, 43), Vec::<u32>::new());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.remove(id(9)).unwrap(), Interval::point(42));
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut t = IbsTree::new();
        t.insert(id(1), Interval::closed(1, 2)).unwrap();
        assert_eq!(
            t.insert(id(1), Interval::closed(3, 4)),
            Err(DuplicateId(id(1)))
        );
        // The original interval is untouched.
        assert_eq!(t.get(id(1)), Some(&Interval::closed(1, 2)));
    }

    #[test]
    fn remove_unknown_is_none() {
        let mut t: IbsTree<i32> = IbsTree::new();
        assert_eq!(t.remove(id(7)), None);
    }

    #[test]
    fn universal_interval() {
        let mut t = IbsTree::new();
        t.insert(id(0), Interval::unbounded()).unwrap();
        t.insert(id(1), Interval::closed(5, 10)).unwrap();
        t.assert_invariants();
        assert_eq!(stab_sorted(&t, -1000), vec![0]);
        assert_eq!(stab_sorted(&t, 7), vec![0, 1]);
        t.remove(id(0)).unwrap();
        t.assert_invariants();
        assert_eq!(stab_sorted(&t, -1000), Vec::<u32>::new());
    }

    #[test]
    fn open_ended_intervals() {
        let mut t = IbsTree::new();
        t.insert(id(0), Interval::at_least(10)).unwrap(); // [10, inf)
        t.insert(id(1), Interval::less_than(10)).unwrap(); // (-inf, 10)
        t.insert(id(2), Interval::greater_than(10)).unwrap(); // (10, inf)
        t.assert_invariants();
        assert_eq!(stab_sorted(&t, 9), vec![1]);
        assert_eq!(stab_sorted(&t, 10), vec![0]);
        assert_eq!(stab_sorted(&t, 11), vec![0, 2]);
        assert_eq!(stab_sorted(&t, i32::MAX), vec![0, 2]);
        assert_eq!(stab_sorted(&t, i32::MIN), vec![1]);
    }

    #[test]
    fn shared_endpoints() {
        // The paper: "the IBS-tree can directly accommodate multiple
        // intervals with the same lower bound".
        let mut t = IbsTree::new();
        t.insert(id(0), Interval::closed(5, 10)).unwrap();
        t.insert(id(1), Interval::closed(5, 20)).unwrap();
        t.insert(id(2), Interval::closed_open(5, 10)).unwrap();
        t.assert_invariants();
        assert_eq!(stab_sorted(&t, 5), vec![0, 1, 2]);
        assert_eq!(stab_sorted(&t, 10), vec![0, 1]);
        // Removing one sharer must not delete the shared endpoint node.
        t.remove(id(0)).unwrap();
        t.assert_invariants();
        assert_eq!(stab_sorted(&t, 5), vec![1, 2]);
        assert_eq!(stab_sorted(&t, 10), vec![1]);
        t.remove(id(2)).unwrap();
        t.remove(id(1)).unwrap();
        t.assert_invariants();
        assert_eq!(t.node_count(), 0);
    }

    #[test]
    fn sorted_insertion_stays_balanced_in_avl_mode() {
        let mut t = IbsTree::with_mode(BalanceMode::Avl);
        for i in 0..256 {
            t.insert(id(i), Interval::point(i as i32)).unwrap();
        }
        t.assert_invariants();
        // 256 nodes: AVL height is at most ~1.44 log2(257) ≈ 11.6.
        assert!(t.height() <= 12, "height {} too large", t.height());
        for i in 0..256 {
            assert_eq!(stab_sorted(&t, i), vec![i as u32]);
        }
    }

    #[test]
    fn sorted_insertion_degenerates_without_balancing() {
        let mut t = IbsTree::with_mode(BalanceMode::None);
        for i in 0..64 {
            t.insert(id(i), Interval::point(i as i32)).unwrap();
        }
        t.assert_invariants();
        assert_eq!(t.height(), 64, "unbalanced sorted insert is a chain");
    }

    #[test]
    fn nested_intervals() {
        let mut t = IbsTree::new();
        for i in 0..50u32 {
            let k = i as i32;
            t.insert(id(i), Interval::closed(-k, k)).unwrap();
        }
        t.assert_invariants();
        // 0 is inside all 50; 25 is inside [−25,25] .. [−49,49].
        assert_eq!(t.stab(&0).len(), 50);
        assert_eq!(t.stab(&25).len(), 25);
        assert_eq!(t.stab(&49).len(), 1);
        assert_eq!(t.stab(&50).len(), 0);
        // Peel from the inside out.
        for i in 0..50u32 {
            t.remove(id(i)).unwrap();
            t.assert_invariants();
            assert_eq!(t.stab(&0).len(), 49 - i as usize);
        }
    }

    #[test]
    fn disjoint_intervals_use_linear_markers() {
        // §5.1: "when intervals in the tree do not overlap, only O(N)
        // markers are placed in the tree".
        let mut t = IbsTree::new();
        let n = 512u32;
        for i in 0..n {
            let base = (i as i32) * 10;
            t.insert(id(i), Interval::closed(base, base + 5)).unwrap();
        }
        t.assert_invariants();
        let markers = t.marker_count();
        assert!(
            markers <= 4 * n as usize,
            "disjoint intervals placed {markers} markers for {n} intervals"
        );
    }

    #[test]
    fn interleaved_insert_remove() {
        let mut t = IbsTree::new();
        for round in 0..20u32 {
            for i in 0..30u32 {
                let k = ((i * 37 + round * 11) % 100) as i32;
                t.insert(
                    id(round * 100 + i),
                    Interval::closed(k, k + ((i % 7) as i32)),
                )
                .unwrap();
            }
            t.assert_invariants();
            for i in 0..15u32 {
                t.remove(id(round * 100 + i * 2)).unwrap();
            }
            t.assert_invariants();
        }
        assert_eq!(t.len(), 20 * 15);
    }

    #[test]
    fn string_keys() {
        let mut t: IbsTree<String> = IbsTree::new();
        t.insert(id(0), Interval::closed("b".into(), "m".into()))
            .unwrap();
        t.insert(id(1), Interval::at_least("k".into())).unwrap();
        t.assert_invariants();
        assert_eq!(t.stab(&"c".to_string()), vec![id(0)]);
        let mut v = t.stab(&"kk".to_string());
        v.sort();
        assert_eq!(v, vec![id(0), id(1)]);
        assert_eq!(t.stab(&"z".to_string()), vec![id(1)]);
    }

    #[test]
    fn observed_stab_counts_work_and_agrees_with_plain_stab() {
        for mode in [BalanceMode::None, BalanceMode::Avl] {
            let mut t = build(mode);
            t.insert(id(7), Interval::unbounded()).unwrap();
            for x in -5..25 {
                let mut plain = Vec::new();
                t.stab_into(&x, &mut plain);
                let mut observed = Vec::new();
                let mut stats = StabStats::default();
                t.stab_into_observed(&x, &mut observed, &mut stats);
                assert_eq!(plain, observed, "at {x}");
                // Every reported id was scanned as a mark, and the
                // search path never exceeds the tree height.
                assert_eq!(stats.marks_scanned, observed.len() as u64, "at {x}");
                assert_eq!(
                    stats.less_hits + stats.eq_hits + stats.greater_hits + stats.universal_hits,
                    stats.marks_scanned,
                    "at {x}"
                );
                assert_eq!(stats.universal_hits, 1, "at {x}");
                assert!(stats.nodes_visited <= t.height() as u64, "at {x}");
            }
        }
    }

    #[test]
    fn stab_count_matches_stab() {
        let t = build(BalanceMode::Avl);
        for x in -5..25 {
            assert_eq!(t.stab_count(&x), t.stab(&x).len(), "at {x}");
        }
    }

    #[test]
    fn clone_is_independent() {
        let mut a = build(BalanceMode::Avl);
        let b = a.clone();
        a.remove(id(0)).unwrap();
        assert!(!a.contains_id(id(0)));
        assert!(b.contains_id(id(0)));
        b.assert_invariants();
    }

    #[test]
    fn iter_yields_all() {
        let t = build(BalanceMode::Avl);
        let mut ids: Vec<u32> = t.iter().map(|(i, _)| i.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
