//! Guttman's R-tree [Gut84], the paper's §2.4 baseline for predicate
//! indexing and a §4.1 comparator for 1-D interval indexing.
//!
//! Dynamic insert (ChooseLeaf → quadratic split → AdjustTree), delete
//! (FindLeaf → CondenseTree with orphan reinsertion), and point search.

use crate::rect::Rect;
use interval::IntervalId;
use std::collections::HashMap;

const MAX_ENTRIES: usize = 8;
const MIN_ENTRIES: usize = 3;

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf(Vec<(IntervalId, Rect)>),
    Internal(Vec<(usize, Rect)>),
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
}

impl Node {
    fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Internal(e) => e.len(),
        }
    }

    fn mbr(&self) -> Option<Rect> {
        let mut it: Box<dyn Iterator<Item = &Rect>> = match &self.kind {
            NodeKind::Leaf(e) => Box::new(e.iter().map(|(_, r)| r)),
            NodeKind::Internal(e) => Box::new(e.iter().map(|(_, r)| r)),
        };
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, r| acc.union(r)))
    }
}

/// An R-tree mapping [`IntervalId`]s to n-dimensional rectangles.
#[derive(Debug, Clone)]
pub struct RTree {
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    root: usize,
    /// Height of the tree: 1 = root is a leaf.
    height: usize,
    dims: usize,
    by_id: HashMap<u32, Rect>,
}

impl RTree {
    /// An empty tree over `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        let root_node = Node {
            kind: NodeKind::Leaf(Vec::new()),
        };
        RTree {
            nodes: vec![Some(root_node)],
            free: Vec::new(),
            root: 0,
            height: 1,
            dims,
            by_id: HashMap::new(),
        }
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    fn node(&self, ix: usize) -> &Node {
        self.nodes[ix].as_ref().expect("dangling node")
    }

    fn node_mut(&mut self, ix: usize) -> &mut Node {
        self.nodes[ix].as_mut().expect("dangling node")
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(ix) = self.free.pop() {
            self.nodes[ix] = Some(node);
            ix
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn dealloc(&mut self, ix: usize) -> Node {
        let n = self.nodes[ix].take().expect("double free");
        self.free.push(ix);
        n
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// All ids whose rectangle contains the point `p`.
    pub fn stab(&self, p: &[f64]) -> Vec<IntervalId> {
        let mut out = Vec::new();
        self.stab_into(p, &mut out);
        out
    }

    /// As [`RTree::stab`], into a caller-owned buffer.
    pub fn stab_into(&self, p: &[f64], out: &mut Vec<IntervalId>) {
        assert_eq!(p.len(), self.dims, "query dimensionality mismatch");
        let mut stack = vec![self.root];
        while let Some(ix) = stack.pop() {
            match &self.node(ix).kind {
                NodeKind::Leaf(entries) => {
                    for (id, r) in entries {
                        if r.contains_point(p) {
                            out.push(*id);
                        }
                    }
                }
                NodeKind::Internal(entries) => {
                    for (child, r) in entries {
                        if r.contains_point(p) {
                            stack.push(*child);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Indexes `rect` under `id`. `id` must be fresh.
    pub fn insert(&mut self, id: IntervalId, rect: Rect) {
        assert_eq!(rect.dims(), self.dims, "rect dimensionality mismatch");
        assert!(
            !self.by_id.contains_key(&id.0),
            "duplicate rectangle id {id}"
        );
        self.by_id.insert(id.0, rect.clone());
        self.insert_at_level(Entry::Leaf(id, rect), 1);
    }

    /// Inserts an entry so that it ends up in a node at `level`
    /// (1 = leaf). Shared by user inserts and CondenseTree reinsertion.
    fn insert_at_level(&mut self, entry: Entry, level: usize) {
        // Choose the path down to `level`.
        let rect = entry.rect().clone();
        let mut path = Vec::new();
        let mut cur = self.root;
        let mut cur_level = self.height;
        while cur_level > level {
            let entries = match &self.node(cur).kind {
                NodeKind::Internal(e) => e,
                NodeKind::Leaf(_) => unreachable!("leaf above target level"),
            };
            // Least enlargement, ties by smallest area.
            let (pos, _) = entries
                .iter()
                .enumerate()
                .min_by(|(_, (_, a)), (_, (_, b))| {
                    let ea = a.enlargement(&rect);
                    let eb = b.enlargement(&rect);
                    ea.partial_cmp(&eb)
                        .unwrap()
                        .then(a.area().partial_cmp(&b.area()).unwrap())
                })
                .expect("internal node has entries");
            path.push((cur, pos));
            cur = entries[pos].0;
            cur_level -= 1;
        }

        // Add to the target node.
        let mut split_off = self.add_entry(cur, entry);

        // AdjustTree: fix MBRs upward, propagating splits.
        for (parent, pos) in path.into_iter().rev() {
            // Refresh the MBR of the modified child.
            let child_ix = match &self.node(parent).kind {
                NodeKind::Internal(e) => e[pos].0,
                NodeKind::Leaf(_) => unreachable!(),
            };
            let mbr = self.node(child_ix).mbr().expect("child not empty");
            match &mut self.node_mut(parent).kind {
                NodeKind::Internal(e) => e[pos].1 = mbr,
                NodeKind::Leaf(_) => unreachable!(),
            }
            if let Some(new_ix) = split_off.take() {
                let r = self.node(new_ix).mbr().expect("split node not empty");
                split_off = self.add_entry(parent, Entry::Child(new_ix, r));
            }
        }

        // Root split: grow the tree.
        if let Some(new_ix) = split_off {
            let old_root = self.root;
            let r1 = self.node(old_root).mbr().expect("root not empty");
            let r2 = self.node(new_ix).mbr().expect("split node not empty");
            let new_root = self.alloc(Node {
                kind: NodeKind::Internal(vec![(old_root, r1), (new_ix, r2)]),
            });
            self.root = new_root;
            self.height += 1;
        }
    }

    /// Adds an entry to a node, splitting if it overflows. Returns the
    /// index of the freshly split-off sibling, if any.
    fn add_entry(&mut self, ix: usize, entry: Entry) -> Option<usize> {
        match (&mut self.node_mut(ix).kind, entry) {
            (NodeKind::Leaf(e), Entry::Leaf(id, r)) => e.push((id, r)),
            (NodeKind::Internal(e), Entry::Child(c, r)) => e.push((c, r)),
            _ => unreachable!("entry kind does not match node kind"),
        }
        if self.node(ix).len() <= MAX_ENTRIES {
            return None;
        }
        Some(self.split_node(ix))
    }

    /// Splits an overflowing node in place; returns the new sibling.
    fn split_node(&mut self, ix: usize) -> usize {
        match std::mem::replace(&mut self.node_mut(ix).kind, NodeKind::Leaf(Vec::new())) {
            NodeKind::Leaf(entries) => {
                let (a, b) = split_entries(entries, |(_, r)| r);
                self.node_mut(ix).kind = NodeKind::Leaf(a);
                self.alloc(Node {
                    kind: NodeKind::Leaf(b),
                })
            }
            NodeKind::Internal(entries) => {
                let (a, b) = split_entries(entries, |(_, r)| r);
                self.node_mut(ix).kind = NodeKind::Internal(a);
                self.alloc(Node {
                    kind: NodeKind::Internal(b),
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Removes the rectangle stored under `id`.
    pub fn remove(&mut self, id: IntervalId) -> Option<Rect> {
        let rect = self.by_id.remove(&id.0)?;

        // FindLeaf: locate the leaf holding the entry.
        let mut path: Vec<(usize, usize)> = Vec::new(); // (node, entry pos)
        let leaf = self
            .find_leaf(self.root, id, &rect, &mut path)
            .expect("id in map but not in tree");

        // Remove the entry from the leaf.
        match &mut self.node_mut(leaf).kind {
            NodeKind::Leaf(e) => {
                let pos = e.iter().position(|(i, _)| *i == id).expect("entry present");
                e.swap_remove(pos);
            }
            NodeKind::Internal(_) => unreachable!(),
        }

        // CondenseTree: walk up, dropping underfull nodes and collecting
        // their data entries for reinsertion; refresh MBRs. Orphaned
        // subtrees are flattened to leaf entries rather than reinserted
        // at their original level — marginally more reinsert work than
        // Guttman's formulation, but immune to the root shrinking below
        // the orphan's level mid-condense.
        let mut orphans: Vec<(IntervalId, Rect)> = Vec::new();
        let mut child = leaf;
        for (parent, pos) in path.into_iter().rev() {
            if self.node(child).len() < MIN_ENTRIES {
                match &mut self.node_mut(parent).kind {
                    NodeKind::Internal(e) => {
                        e.swap_remove(pos);
                    }
                    NodeKind::Leaf(_) => unreachable!(),
                }
                self.flatten_subtree(child, &mut orphans);
            } else {
                let mbr = self.node(child).mbr().expect("non-underfull node");
                match &mut self.node_mut(parent).kind {
                    NodeKind::Internal(e) => {
                        let p = e.iter().position(|(c, _)| *c == child).expect("linked");
                        e[p].1 = mbr;
                    }
                    NodeKind::Leaf(_) => unreachable!(),
                }
            }
            child = parent;
        }

        // Shrink the root if it became a lone-child internal node.
        while self.height > 1 {
            let only = match &self.node(self.root).kind {
                NodeKind::Internal(e) if e.len() == 1 => Some(e[0].0),
                _ => None,
            };
            match only {
                Some(c) => {
                    self.dealloc(self.root);
                    self.root = c;
                    self.height -= 1;
                }
                None => break,
            }
        }

        // Reinsert orphaned data entries.
        for (i, r) in orphans {
            self.insert_at_level(Entry::Leaf(i, r), 1);
        }
        Some(rect)
    }

    /// Deallocates a subtree, draining its data entries into `out`.
    fn flatten_subtree(&mut self, ix: usize, out: &mut Vec<(IntervalId, Rect)>) {
        match self.dealloc(ix).kind {
            NodeKind::Leaf(entries) => out.extend(entries),
            NodeKind::Internal(entries) => {
                for (child, _) in entries {
                    self.flatten_subtree(child, out);
                }
            }
        }
    }

    fn find_leaf(
        &self,
        ix: usize,
        id: IntervalId,
        rect: &Rect,
        path: &mut Vec<(usize, usize)>,
    ) -> Option<usize> {
        match &self.node(ix).kind {
            NodeKind::Leaf(entries) => {
                if entries.iter().any(|(i, _)| *i == id) {
                    Some(ix)
                } else {
                    None
                }
            }
            NodeKind::Internal(entries) => {
                for (pos, (child, r)) in entries.iter().enumerate() {
                    if r.intersects(rect) {
                        path.push((ix, pos));
                        if let Some(leaf) = self.find_leaf(*child, id, rect, path) {
                            return Some(leaf);
                        }
                        path.pop();
                    }
                }
                None
            }
        }
    }

    /// Verifies structural invariants (for tests): entry counts, MBR
    /// accuracy, uniform leaf depth, and id bookkeeping.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        self.check_node(self.root, self.height, true, &mut seen)?;
        if seen != self.by_id.len() {
            return Err(format!(
                "tree holds {seen} entries but map holds {}",
                self.by_id.len()
            ));
        }
        Ok(())
    }

    fn check_node(
        &self,
        ix: usize,
        level: usize,
        is_root: bool,
        seen: &mut usize,
    ) -> Result<(), String> {
        let n = self.node(ix);
        if !is_root && n.len() < MIN_ENTRIES {
            return Err(format!("underfull node at level {level}: {}", n.len()));
        }
        if n.len() > MAX_ENTRIES {
            return Err(format!("overfull node at level {level}: {}", n.len()));
        }
        match &n.kind {
            NodeKind::Leaf(entries) => {
                if level != 1 {
                    return Err(format!("leaf at level {level}"));
                }
                for (id, r) in entries {
                    let stored = self
                        .by_id
                        .get(&id.0)
                        .ok_or_else(|| format!("leaf entry {id} not in map"))?;
                    if stored != r {
                        return Err(format!("leaf entry {id} rect mismatch"));
                    }
                    *seen += 1;
                }
            }
            NodeKind::Internal(entries) => {
                for (child, r) in entries {
                    let mbr = self
                        .node(*child)
                        .mbr()
                        .ok_or_else(|| "empty child".to_string())?;
                    if &mbr != r {
                        return Err(format!("stale MBR above node {child}"));
                    }
                    self.check_node(*child, level - 1, false, seen)?;
                }
            }
        }
        Ok(())
    }
}

/// An entry being inserted: either a data rectangle or a subtree handle.
enum Entry {
    Leaf(IntervalId, Rect),
    Child(usize, Rect),
}

impl Entry {
    fn rect(&self) -> &Rect {
        match self {
            Entry::Leaf(_, r) | Entry::Child(_, r) => r,
        }
    }
}

/// Splits an overflowing entry list into two groups with Guttman's
/// quadratic split: seeds by maximum dead area, then each entry to the
/// group it enlarges least.
fn split_entries<T>(mut entries: Vec<T>, rect_of: impl Fn(&T) -> &Rect) -> (Vec<T>, Vec<T>) {
    debug_assert!(entries.len() > MAX_ENTRIES);
    let (seed_a, seed_b) = pick_seeds_quadratic(&entries, &rect_of);
    // Remove the higher index first so the lower stays valid.
    let (hi, lo) = if seed_a > seed_b {
        (seed_a, seed_b)
    } else {
        (seed_b, seed_a)
    };
    let e_hi = entries.swap_remove(hi);
    let e_lo = entries.swap_remove(lo);
    let mut rect_a = rect_of(&e_lo).clone();
    let mut rect_b = rect_of(&e_hi).clone();
    let mut group_a = vec![e_lo];
    let mut group_b = vec![e_hi];

    while let Some(next) = entries.pop() {
        // Force assignment if a group must absorb the remainder to reach
        // the minimum fill.
        let remaining = entries.len() + 1;
        if group_a.len() + remaining <= MIN_ENTRIES {
            rect_a.expand(rect_of(&next));
            group_a.push(next);
            continue;
        }
        if group_b.len() + remaining <= MIN_ENTRIES {
            rect_b.expand(rect_of(&next));
            group_b.push(next);
            continue;
        }
        let r = rect_of(&next);
        let da = rect_a.enlargement(r);
        let db = rect_b.enlargement(r);
        let to_a = da < db
            || (da == db && rect_a.area() < rect_b.area())
            || (da == db && rect_a.area() == rect_b.area() && group_a.len() <= group_b.len());
        if to_a {
            rect_a.expand(r);
            group_a.push(next);
        } else {
            rect_b.expand(r);
            group_b.push(next);
        }
    }
    (group_a, group_b)
}

/// Quadratic PickSeeds: the pair wasting the most area together.
fn pick_seeds_quadratic<T>(entries: &[T], rect_of: &impl Fn(&T) -> &Rect) -> (usize, usize) {
    let mut best = (0, 1);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let ri = rect_of(&entries[i]);
            let rj = rect_of(&entries[j]);
            let waste = ri.union(rj).area() - ri.area() - rj.area();
            if waste > worst_waste {
                worst_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}
