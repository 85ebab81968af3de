//! A dynamic augmented interval treap.
//!
//! This is the workspace's stand-in for McCreight's priority search tree,
//! which §4.1 discusses as the main dynamic alternative to the IBS-tree:
//! a randomized BST keyed on `(lower bound, id)` — duplicate lower
//! bounds, the PST's sore spot the paper calls out, are handled natively
//! by the id tie-break — where every node is augmented with the maximum
//! upper bound in its subtree. A stabbing query prunes any subtree whose
//! max upper bound cannot admit the query point and any right spine whose
//! keys already exceed it, giving `O(log N)` expected traversal plus
//! output-proportional reporting on the workloads reproduced here (the
//! true PST's `O(log N + L)` worst case is not load-bearing for any
//! figure; see DESIGN.md §6).
//!
//! Expected `O(log N)` insert/delete via treap rotations; `O(N)` space.

use crate::common::{BulkBuild, DynamicStabIndex, StabIndex};
use interval::{Interval, IntervalId, Lower, Upper};
use std::collections::HashMap;

/// An optional owned subtree (treap link).
type Link<K> = Option<Box<Node<K>>>;

#[derive(Debug, Clone)]
struct Node<K> {
    lo: Lower<K>,
    hi: Upper<K>,
    id: IntervalId,
    /// Treap heap priority (deterministic pseudo-random from id).
    prio: u64,
    /// Maximum upper bound over this subtree.
    max_hi: Upper<K>,
    left: Option<Box<Node<K>>>,
    right: Option<Box<Node<K>>>,
}

/// Dynamic interval index: treap on lower bounds with max-upper-bound
/// augmentation.
#[derive(Debug, Clone)]
pub struct IntervalTreap<K> {
    root: Option<Box<Node<K>>>,
    /// id → interval, used to locate the node key on removal.
    by_id: HashMap<u32, Interval<K>>,
}

/// SplitMix64: cheap, well-distributed priority from the id. Using a
/// hash of the id instead of a random stream keeps the structure
/// deterministic for tests while preserving the treap's expected-case
/// shape on non-adversarial ids.
fn priority(id: IntervalId) -> u64 {
    let mut z = (id.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<K: Ord + Clone> Default for IntervalTreap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> IntervalTreap<K> {
    /// An empty treap.
    pub fn new() -> Self {
        IntervalTreap {
            root: None,
            by_id: HashMap::new(),
        }
    }

    fn update(node: &mut Node<K>) {
        let mut max_hi = node.hi.clone();
        if let Some(l) = &node.left {
            if l.max_hi > max_hi {
                max_hi = l.max_hi.clone();
            }
        }
        if let Some(r) = &node.right {
            if r.max_hi > max_hi {
                max_hi = r.max_hi.clone();
            }
        }
        node.max_hi = max_hi;
    }

    fn key_cmp(
        a_lo: &Lower<K>,
        a_id: IntervalId,
        b_lo: &Lower<K>,
        b_id: IntervalId,
    ) -> std::cmp::Ordering {
        a_lo.cmp(b_lo).then(a_id.cmp(&b_id))
    }

    fn insert_node(root: Option<Box<Node<K>>>, mut new: Box<Node<K>>) -> Box<Node<K>> {
        let Some(mut node) = root else {
            return new;
        };
        if new.prio > node.prio {
            // `new` becomes the subtree root; split `node` by key.
            let (l, r) = Self::split(Some(node), &new.lo, new.id);
            new.left = l;
            new.right = r;
            Self::update(&mut new);
            return new;
        }
        if Self::key_cmp(&new.lo, new.id, &node.lo, node.id) == std::cmp::Ordering::Less {
            node.left = Some(Self::insert_node(node.left.take(), new));
        } else {
            node.right = Some(Self::insert_node(node.right.take(), new));
        }
        Self::update(&mut node);
        node
    }

    /// Splits a subtree into keys `< (lo, id)` and keys `> (lo, id)`
    /// (the key being inserted is always fresh, so equality can't occur).
    fn split(root: Link<K>, lo: &Lower<K>, id: IntervalId) -> (Link<K>, Link<K>) {
        let Some(mut node) = root else {
            return (None, None);
        };
        if Self::key_cmp(&node.lo, node.id, lo, id) == std::cmp::Ordering::Less {
            let (l, r) = Self::split(node.right.take(), lo, id);
            node.right = l;
            Self::update(&mut node);
            (Some(node), r)
        } else {
            let (l, r) = Self::split(node.left.take(), lo, id);
            node.left = r;
            Self::update(&mut node);
            (l, Some(node))
        }
    }

    /// Joins two treaps where every key in `l` precedes every key in `r`.
    fn join(l: Option<Box<Node<K>>>, r: Option<Box<Node<K>>>) -> Option<Box<Node<K>>> {
        match (l, r) {
            (None, r) => r,
            (l, None) => l,
            (Some(mut l), Some(mut r)) => {
                if l.prio > r.prio {
                    l.right = Self::join(l.right.take(), Some(r));
                    Self::update(&mut l);
                    Some(l)
                } else {
                    r.left = Self::join(Some(l), r.left.take());
                    Self::update(&mut r);
                    Some(r)
                }
            }
        }
    }

    fn remove_node(
        root: Option<Box<Node<K>>>,
        lo: &Lower<K>,
        id: IntervalId,
    ) -> (Option<Box<Node<K>>>, bool) {
        let Some(mut node) = root else {
            return (None, false);
        };
        match Self::key_cmp(lo, id, &node.lo, node.id) {
            std::cmp::Ordering::Equal => (Self::join(node.left.take(), node.right.take()), true),
            std::cmp::Ordering::Less => {
                let (l, found) = Self::remove_node(node.left.take(), lo, id);
                node.left = l;
                Self::update(&mut node);
                (Some(node), found)
            }
            std::cmp::Ordering::Greater => {
                let (r, found) = Self::remove_node(node.right.take(), lo, id);
                node.right = r;
                Self::update(&mut node);
                (Some(node), found)
            }
        }
    }

    fn stab_rec(node: Option<&Node<K>>, x: &K, out: &mut Vec<IntervalId>) {
        let Some(n) = node else { return };
        // Prune: nothing below can end at or after x.
        if !n.max_hi.admits(x) {
            return;
        }
        Self::stab_rec(n.left.as_deref(), x, out);
        if n.lo.admits(x) {
            if n.hi.admits(x) {
                out.push(n.id);
            }
            Self::stab_rec(n.right.as_deref(), x, out);
        }
        // If n.lo does not admit x, every key in the right subtree is
        // ≥ n.lo and cannot admit x either: prune.
    }
}

impl<K: Ord + Clone> StabIndex<K> for IntervalTreap<K> {
    fn stab_into(&self, x: &K, out: &mut Vec<IntervalId>) {
        Self::stab_rec(self.root.as_deref(), x, out);
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }
}

impl<K: Ord + Clone> DynamicStabIndex<K> for IntervalTreap<K> {
    fn insert(&mut self, id: IntervalId, iv: Interval<K>) {
        debug_assert!(!self.by_id.contains_key(&id.0), "duplicate id {id}");
        let node = Box::new(Node {
            lo: iv.lo().clone(),
            hi: iv.hi().clone(),
            id,
            prio: priority(id),
            max_hi: iv.hi().clone(),
            left: None,
            right: None,
        });
        self.by_id.insert(id.0, iv);
        self.root = Some(Self::insert_node(self.root.take(), node));
    }

    fn remove(&mut self, id: IntervalId) -> Option<Interval<K>> {
        let iv = self.by_id.remove(&id.0)?;
        let (root, found) = Self::remove_node(self.root.take(), iv.lo(), id);
        self.root = root;
        debug_assert!(found, "interval in map but not in treap");
        Some(iv)
    }
}

impl<K: Ord + Clone> BulkBuild<K> for IntervalTreap<K> {
    fn build(items: Vec<(IntervalId, Interval<K>)>) -> Self {
        let mut t = Self::new();
        for (id, iv) in items {
            t.insert(id, iv);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> IntervalId {
        IntervalId(n)
    }

    #[test]
    fn insert_stab_remove() {
        let mut t = IntervalTreap::new();
        t.insert(id(0), Interval::closed(1, 10));
        t.insert(id(1), Interval::closed(5, 15));
        t.insert(id(2), Interval::point(7));
        t.insert(id(3), Interval::at_most(3));
        let sorted = |t: &IntervalTreap<i32>, x: i32| {
            let mut v = t.stab(&x);
            v.sort();
            v.into_iter().map(|i| i.0).collect::<Vec<_>>()
        };
        assert_eq!(sorted(&t, 7), vec![0, 1, 2]);
        assert_eq!(sorted(&t, 2), vec![0, 3]);
        assert_eq!(sorted(&t, 12), vec![1]);
        assert_eq!(t.remove(id(1)), Some(Interval::closed(5, 15)));
        assert_eq!(sorted(&t, 7), vec![0, 2]);
        assert_eq!(t.remove(id(1)), None);
    }

    #[test]
    fn duplicate_lower_bounds() {
        // The PST deficiency the paper highlights: many intervals sharing
        // one lower bound. The id tie-break must keep all of them.
        let mut t = IntervalTreap::new();
        for i in 0..50 {
            t.insert(id(i), Interval::closed(10, 20 + i as i32));
        }
        assert_eq!(t.stab(&10).len(), 50);
        assert_eq!(t.stab(&25).len(), 45);
        for i in 0..50 {
            assert!(t.remove(id(i)).is_some());
        }
        assert!(t.is_empty());
        assert_eq!(t.stab(&10), vec![]);
    }

    #[test]
    fn unbounded_intervals() {
        let mut t = IntervalTreap::new();
        t.insert(id(0), Interval::<i32>::unbounded());
        t.insert(id(1), Interval::at_least(5));
        t.insert(id(2), Interval::less_than(5));
        let mut v = t.stab(&100);
        v.sort();
        assert_eq!(v, vec![id(0), id(1)]);
        let mut v = t.stab(&-100);
        v.sort();
        assert_eq!(v, vec![id(0), id(2)]);
    }
}
