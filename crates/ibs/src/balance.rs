//! Mark-preserving rotations (paper §4.3, Figures 5 and 6).
//!
//! A single rotation changes which subtrees hang under the two nodes
//! involved, so the `<`, `=`, `>` assertions must be migrated to stay
//! true. With `z` the old subtree root and `y` its child that rotates up,
//! Figure 6 prescribes (right rotation shown; left is the mirror image):
//!
//! | slot | on `y`                                    | on `z`                                   |
//! |------|-------------------------------------------|------------------------------------------|
//! | `<`  | copy marks from `<` of `z`                | gain marks moved out of `>` of `y`       |
//! | `=`  | copy marks from `<` of `z`                | delete marks in both `>y` and `>z`       |
//! | `>`  | move to `<` of `z` unless also in `>` of `z` | delete marks in both `>y` and `>z`    |
//!
//! Why this is right, slot by slot (right rotation, `y = z.left`):
//!
//! * a mark in `z.<` covered the open range `(fence, z)` — everything in
//!   `y`'s old position *and* `y` itself; after the rotation `y` sits
//!   above `z`, so the mark is copied to `y.<` (covers `y`'s left
//!   subtree) and `y.=` (covers `y`), while the original in `z.<` keeps
//!   covering `z`'s new, smaller left subtree;
//! * a mark only in `y.>` covered `(y, z)` — exactly `z`'s new left
//!   subtree, so it moves to `z.<`;
//! * a mark in both `y.>` and `z.>` covered `(y, z)`, `z` itself, and
//!   `(z, fence)`; after the rotation `y.>` alone covers that whole
//!   union, so the now-redundant copies in `z.=` and `z.>` are removed.
//!
//! So every mark stays where the canonical walk would place it on the new
//! shape, which is where a remove looks for it (DESIGN.md §5). The two
//! mark lists that drive a rotation are copied into the tree's scratch
//! buffers, so a rotation allocates nothing once they have grown.

use crate::arena::NodeId;
use crate::marks::Slot;
use crate::tree::IbsCore;
use interval::IntervalId;

impl<K: Ord + Clone> IbsCore<K> {
    /// Rotates the subtree rooted at `z` to the right (its left child
    /// comes up), returning the new subtree root.
    pub(crate) fn rotate_right(&mut self, z: NodeId) -> NodeId {
        let y = self.arena[z].left;
        debug_assert!(!y.is_null(), "rotate_right requires a left child");

        // Snapshot the mark sets that drive the migration *before* any
        // mutation, because the rules are defined on pre-rotation state.
        let [mut z_less, mut y_greater] = std::mem::take(&mut self.scratch.moved);
        z_less.extend(self.arena[z].marks.iter(Slot::Less));
        y_greater.extend(self.arena[y].marks.iter(Slot::Greater));

        for &m in &z_less {
            self.arena[y].marks.insert(Slot::Less, m);
            self.arena[y].marks.insert(Slot::Eq, m);
        }
        for &m in &y_greater {
            if self.arena[z].marks.contains(Slot::Greater, m) {
                // In both `>` slots: y.> alone now covers B ∪ {z} ∪ C.
                self.arena[z].marks.remove(Slot::Eq, m);
                self.arena[z].marks.remove(Slot::Greater, m);
            } else {
                // Only in y.>: it covered exactly z's new left subtree.
                self.arena[y].marks.remove(Slot::Greater, m);
                self.arena[z].marks.insert(Slot::Less, m);
            }
        }
        self.scratch.moved = [cleared(z_less), cleared(y_greater)];

        // Structural rotation.
        let b = self.arena[y].right;
        self.arena[z].left = b;
        self.arena[y].right = z;
        self.update_height(z);
        self.update_height(y);
        y
    }

    /// Rotates the subtree rooted at `z` to the left (its right child
    /// comes up), returning the new subtree root. Mirror image of
    /// [`IbsCore::rotate_right`].
    pub(crate) fn rotate_left(&mut self, z: NodeId) -> NodeId {
        let y = self.arena[z].right;
        debug_assert!(!y.is_null(), "rotate_left requires a right child");

        let [mut z_greater, mut y_less] = std::mem::take(&mut self.scratch.moved);
        z_greater.extend(self.arena[z].marks.iter(Slot::Greater));
        y_less.extend(self.arena[y].marks.iter(Slot::Less));

        for &m in &z_greater {
            self.arena[y].marks.insert(Slot::Greater, m);
            self.arena[y].marks.insert(Slot::Eq, m);
        }
        for &m in &y_less {
            if self.arena[z].marks.contains(Slot::Less, m) {
                self.arena[z].marks.remove(Slot::Eq, m);
                self.arena[z].marks.remove(Slot::Less, m);
            } else {
                self.arena[y].marks.remove(Slot::Less, m);
                self.arena[z].marks.insert(Slot::Greater, m);
            }
        }
        self.scratch.moved = [cleared(z_greater), cleared(y_less)];

        let b = self.arena[y].left;
        self.arena[z].right = b;
        self.arena[y].left = z;
        self.update_height(z);
        self.update_height(y);
        y
    }
}

/// `buf`, emptied, to go back into the scratch with its capacity.
fn cleared(mut buf: Vec<IntervalId>) -> Vec<IntervalId> {
    buf.clear();
    buf
}

#[cfg(test)]
mod tests {
    //! White-box validation of the Figure 5/6 rotation rules: build an
    //! unbalanced tree with a rich mark population, rotate manually, and
    //! verify (a) every stabbing answer is unchanged and (b) the full
    //! invariant (soundness + completeness + canonical marks) still holds —
    //! i.e. the mark migrations of Figure 6 are exactly right.

    use crate::tree::BalanceMode;
    use crate::IbsTree;
    use interval::{Interval, IntervalId};

    /// A deliberately unbalanced tree (mode `None`) whose root has a
    /// left child, with intervals chosen to populate `<`, `=`, and `>`
    /// slots on both nodes involved in a right rotation.
    fn rich_tree() -> IbsTree<i32> {
        let mut t = IbsTree::with_mode(BalanceMode::None);
        // Insertion order fixes the shape: 20 root, 10 left, 30 right,
        // 5 / 15 under 10.
        let data: &[(u32, Interval<i32>)] = &[
            (0, Interval::closed(20, 30)), // creates 20, 30
            (1, Interval::closed(5, 15)),  // creates 5 under... (descends)
            (2, Interval::closed(10, 15)), // creates 10, 15
            (3, Interval::closed(5, 30)),  // spans nearly everything
            (4, Interval::point(10)),
            (5, Interval::at_most(15)),  // open-ended below
            (6, Interval::at_least(10)), // open-ended above
            (7, Interval::closed(15, 20)),
        ];
        for (i, iv) in data {
            t.insert(IntervalId(*i), iv.clone()).unwrap();
        }
        t.assert_invariants();
        t
    }

    fn all_stabs(t: &IbsTree<i32>) -> Vec<Vec<IntervalId>> {
        (-5..40)
            .map(|x| {
                let mut v = t.stab(&x);
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn manual_rotate_right_preserves_semantics() {
        let mut t = rich_tree();
        let before = all_stabs(&t);
        let root = t.core.root_id();
        assert!(!t.core.node(root).left.is_null(), "shape precondition");
        let new_root = t.core.rotate_right(root);
        t.core.root = new_root;
        t.assert_invariants();
        assert_eq!(all_stabs(&t), before, "rotation changed query results");
    }

    #[test]
    fn manual_rotate_left_preserves_semantics() {
        let mut t = rich_tree();
        let before = all_stabs(&t);
        let root = t.core.root_id();
        assert!(!t.core.node(root).right.is_null(), "shape precondition");
        let new_root = t.core.rotate_left(root);
        t.core.root = new_root;
        t.assert_invariants();
        assert_eq!(all_stabs(&t), before, "rotation changed query results");
    }

    #[test]
    fn rotations_compose_and_invert() {
        // rotate_right then rotate_left at the same position restores an
        // equivalent (query-identical, invariant-clean) tree; repeated
        // alternation must not accumulate mark garbage.
        let mut t = rich_tree();
        let before = all_stabs(&t);
        let markers_before = t.marker_count();
        for _ in 0..6 {
            let r = t.core.rotate_right(t.core.root_id());
            t.core.root = r;
            t.assert_invariants();
            let r = t.core.rotate_left(t.core.root_id());
            t.core.root = r;
            t.assert_invariants();
        }
        assert_eq!(all_stabs(&t), before);
        // Marks may land in different slots but the count must not blow
        // up (rule 3 removes the redundant copies rule 1 would create).
        assert!(
            t.marker_count() <= markers_before + 4,
            "marker count grew from {} to {} across rotations",
            markers_before,
            t.marker_count()
        );
    }

    #[test]
    fn deep_rotation_below_root() {
        // Rotate a non-root subtree: the fence context (leftUp/rightUp)
        // differs from the root case and must still be respected.
        let mut t = rich_tree();
        let before = all_stabs(&t);
        // Shape from the fixed insertion order: 20(5(·,15(10,·)),30) —
        // node 15 sits two levels down and has a left child.
        let root = t.core.root_id();
        let five = t.core.node(root).left;
        let fifteen = t.core.node(five).right;
        assert_eq!(t.core.node(fifteen).value, 15, "shape precondition");
        assert!(!t.core.node(fifteen).left.is_null(), "shape precondition");
        let new_sub = t.core.rotate_right(fifteen);
        t.core.arena[five].right = new_sub;
        t.core.update_height(five);
        t.core.update_height(root);
        t.assert_invariants();
        assert_eq!(all_stabs(&t), before);
    }
}
