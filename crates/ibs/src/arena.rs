//! Arena storage for IBS-tree nodes.
//!
//! Nodes live in a `Vec` and refer to each other by `u32` index with a
//! `NULL` sentinel; a free list recycles slots so ids stay stable across
//! deletions (the mark registry depends on that stability).

use crate::marks::MarkSet;

/// Index of a node in the arena. `NodeId::NULL` is the absent child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NodeId(pub(crate) u32);

impl NodeId {
    /// Sentinel for "no node".
    pub(crate) const NULL: NodeId = NodeId(u32::MAX);

    /// Is this the null sentinel?
    #[inline]
    pub(crate) fn is_null(self) -> bool {
        self.0 == u32::MAX
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One IBS-tree node: the paper's upside-down-"T" diagram — a value plus
/// the `<`, `=`, `>` mark slots — extended with AVL height and endpoint
/// ownership bookkeeping for dynamic deletion.
#[derive(Debug, Clone)]
pub(crate) struct Node<K> {
    /// The end point of an interval or the constant in an equality
    /// predicate (paper's `Value` field).
    pub(crate) value: K,
    pub(crate) left: NodeId,
    pub(crate) right: NodeId,
    /// Height of the subtree rooted here (leaf = 1).
    pub(crate) height: u32,
    /// `<` slot.
    pub(crate) less: MarkSet,
    /// `=` slot.
    pub(crate) eq: MarkSet,
    /// `>` slot.
    pub(crate) greater: MarkSet,
    /// Intervals whose (finite) lower endpoint value equals `value`.
    pub(crate) lo_owners: MarkSet,
    /// Intervals whose (finite) upper endpoint value equals `value`.
    pub(crate) hi_owners: MarkSet,
}

impl<K> Node<K> {
    fn new(value: K) -> Self {
        Node {
            value,
            left: NodeId::NULL,
            right: NodeId::NULL,
            height: 1,
            less: MarkSet::new(),
            eq: MarkSet::new(),
            greater: MarkSet::new(),
            lo_owners: MarkSet::new(),
            hi_owners: MarkSet::new(),
        }
    }

    /// Is any interval's endpoint anchored at this node?
    pub(crate) fn has_owners(&self) -> bool {
        !self.lo_owners.is_empty() || !self.hi_owners.is_empty()
    }
}

/// Slab of nodes with a free list.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena<K> {
    nodes: Vec<Option<Node<K>>>,
    free: Vec<NodeId>,
    live: usize,
}

impl<K> Arena<K> {
    pub(crate) fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Allocates a node holding `value`, reusing a free slot if possible.
    pub(crate) fn alloc(&mut self, value: K) -> NodeId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = Some(Node::new(value));
            id
        } else {
            let id = NodeId(
                u32::try_from(self.nodes.len())
                    .expect("fewer than 2^32 live nodes: the u32 id space is the arena's capacity"),
            );
            self.nodes.push(Some(Node::new(value)));
            id
        }
    }

    /// Releases a node's slot back to the free list.
    pub(crate) fn dealloc(&mut self, id: NodeId) -> Node<K> {
        let node = self.nodes[id.index()]
            .take()
            .expect("double free: the node was already released, the tree's links are corrupt");
        self.free.push(id);
        self.live -= 1;
        node
    }

    /// Number of live nodes.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Are there no live nodes?
    #[allow(dead_code)] // part of the container API surface
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates `(id, node)` over live nodes.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<K>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (NodeId(i as u32), n)))
    }
}

impl<K> Arena<K> {
    /// A live node by id, skipping the bounds and liveness checks.
    ///
    /// The stab descent (§5) resolves one `NodeId` per key comparison,
    /// so the bounds check and `Option` discriminant test sit on the
    /// hottest loop in the matcher. `debug_assert!` keeps the checked
    /// behaviour in test builds.
    #[inline]
    pub(crate) fn get_live_unchecked(&self, id: NodeId) -> &Node<K> {
        debug_assert!(
            self.nodes.get(id.index()).is_some_and(Option::is_some),
            "dangling node id"
        );
        // SAFETY: tree links (`root`, `left`, `right`) only ever hold
        // ids of live nodes — `alloc` returns in-bounds indices, slots
        // are never shrunk away, and every dealloc site unlinks the
        // node from its parent first. Callers pass only ids read from
        // such links, so the slot exists and holds `Some`.
        unsafe {
            self.nodes
                .get_unchecked(id.index())
                .as_ref()
                .unwrap_unchecked()
        }
    }
}

impl<K> std::ops::Index<NodeId> for Arena<K> {
    type Output = Node<K>;
    #[inline]
    fn index(&self, id: NodeId) -> &Node<K> {
        self.nodes[id.index()]
            .as_ref()
            .expect("dangling node id: a tree link points at a freed slot")
    }
}

impl<K> std::ops::IndexMut<NodeId> for Arena<K> {
    #[inline]
    fn index_mut(&mut self, id: NodeId) -> &mut Node<K> {
        self.nodes[id.index()]
            .as_mut()
            .expect("dangling node id: a tree link points at a freed slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_dealloc_recycles() {
        let mut a: Arena<i32> = Arena::new();
        let n1 = a.alloc(10);
        let n2 = a.alloc(20);
        assert_eq!(a.len(), 2);
        assert_eq!(a[n1].value, 10);
        a.dealloc(n1);
        assert_eq!(a.len(), 1);
        let n3 = a.alloc(30);
        assert_eq!(n3, n1, "free slot is reused");
        assert_eq!(a[n3].value, 30);
        assert_eq!(a[n2].value, 20);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a: Arena<i32> = Arena::new();
        let n = a.alloc(1);
        a.dealloc(n);
        a.dealloc(n);
    }

    #[test]
    fn iter_skips_freed() {
        let mut a: Arena<i32> = Arena::new();
        let n1 = a.alloc(1);
        let _n2 = a.alloc(2);
        a.dealloc(n1);
        let vals: Vec<i32> = a.iter().map(|(_, n)| n.value).collect();
        assert_eq!(vals, vec![2]);
    }
}
