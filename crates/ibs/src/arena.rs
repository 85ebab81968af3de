//! Arena storage for IBS-tree nodes.
//!
//! Nodes live in a `Vec` and refer to each other by `u32` index with a
//! `NULL` sentinel; a free list recycles slots so ids stay stable across
//! deletions (the mark registry depends on that stability).

use crate::marks::Marks;
use interval::IntervalId;

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

/// One IBS-tree node's hot record: what a stab reads at each step — the
/// paper's upside-down-"T" diagram, a value plus the `<`, `=`, `>` mark
/// slots — in one 64-byte cache line. What only the update paths read
/// (AVL height, endpoint owners) is its [`Cold`] record.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub(crate) struct Node<K> {
    /// The end point of an interval or the constant in an equality
    /// predicate (paper's `Value` field).
    pub(crate) value: K,
    pub(crate) left: NodeId,
    pub(crate) right: NodeId,
    pub(crate) marks: Marks,
}

// A stab reads one cache line per node visit: with a 32-byte key (wider
// than `relation::Value`'s 24) the hot record is exactly 64 bytes, and
// the arena's `Option` around it costs no byte.
const _: () = {
    assert!(size_of::<Node<[u64; 4]>>() == 64);
    assert!(size_of::<Option<Node<[u64; 4]>>>() == 64);
};

impl<K> Node<K> {
    fn new(value: K) -> Self {
        Node {
            value,
            left: NodeId::NULL,
            right: NodeId::NULL,
            marks: Marks::new(),
        }
    }
}

/// Which end of an interval an endpoint owner holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    Lo,
    Hi,
}

/// One node's cold record, in an array parallel to the hot one: read by
/// insert, remove, rebalancing, `invariants` and `overlap`, never by a
/// stab.
#[derive(Debug, Clone)]
pub(crate) struct Cold {
    /// Height of the subtree rooted here (leaf = 1; 0 on a free slot).
    pub(crate) height: u32,
    /// Intervals with a finite endpoint at the node's value, each tagged
    /// with the end it owns (a point interval owns both).
    owners: Vec<(End, IntervalId)>,
}

impl Cold {
    /// Records that `id`'s `end` is anchored here.
    pub(crate) fn own(&mut self, end: End, id: IntervalId) {
        self.owners.push((end, id));
    }

    /// Releases `id`'s `end`, which must be anchored here.
    pub(crate) fn disown(&mut self, end: End, id: IntervalId) {
        let pos = self
            .owners
            .iter()
            .position(|&o| o == (end, id))
            .expect("every stored interval's finite endpoint is owned at its node");
        self.owners.swap_remove(pos);
    }

    /// Is `id`'s `end` anchored here?
    pub(crate) fn owns(&self, end: End, id: IntervalId) -> bool {
        self.owners.contains(&(end, id))
    }

    /// Is any interval's endpoint anchored here?
    pub(crate) fn has_owners(&self) -> bool {
        !self.owners.is_empty()
    }

    /// The intervals whose `end` is anchored here, in no order.
    pub(crate) fn owners(&self, end: End) -> impl Iterator<Item = IntervalId> + '_ {
        self.owners
            .iter()
            .filter(move |&&(e, _)| e == end)
            .map(|&(_, id)| id)
    }

    /// Every owning interval, a point interval twice.
    pub(crate) fn all_owners(&self) -> impl Iterator<Item = IntervalId> + '_ {
        self.owners.iter().map(|&(_, id)| id)
    }
}

/// Slab of nodes with a free list: hot records in `nodes`, cold records
/// in `cold` at the same index.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena<K> {
    nodes: Vec<Option<Node<K>>>,
    cold: Vec<Cold>,
    free: Vec<NodeId>,
    live: usize,
}

impl<K> Arena<K> {
    pub(crate) fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            cold: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Allocates a node holding `value`, reusing a free slot if possible.
    pub(crate) fn alloc(&mut self, value: K) -> NodeId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = Some(Node::new(value));
            self.cold[id.index()].height = 1;
            id
        } else {
            let id = NodeId(
                u32::try_from(self.nodes.len())
                    .expect("fewer than 2^32 live nodes: the u32 id space is the arena's capacity"),
            );
            self.nodes.push(Some(Node::new(value)));
            self.cold.push(Cold {
                height: 1,
                owners: Vec::new(),
            });
            id
        }
    }

    /// Releases a node's slot back to the free list.
    pub(crate) fn dealloc(&mut self, id: NodeId) -> Node<K> {
        let node = self.nodes[id.index()]
            .take()
            .expect("double free: the node was already released, the tree's links are corrupt");
        let cold = &mut self.cold[id.index()];
        debug_assert!(!cold.has_owners(), "released node still owned endpoints");
        cold.height = 0;
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

    /// A live node's cold record.
    #[inline]
    pub(crate) fn cold(&self, id: NodeId) -> &Cold {
        debug_assert!(self.nodes[id.index()].is_some(), "dangling node id");
        &self.cold[id.index()]
    }

    /// A live node's cold record, mutably.
    #[inline]
    pub(crate) fn cold_mut(&mut self, id: NodeId) -> &mut Cold {
        debug_assert!(self.nodes[id.index()].is_some(), "dangling node id");
        &mut self.cold[id.index()]
    }

    /// Swaps the value and its endpoint owners between two distinct live
    /// nodes (they travel together in a predecessor swap), moving the
    /// keys rather than cloning them; links, heights and marks stay in
    /// place.
    pub(crate) fn swap_values(&mut self, a: NodeId, b: NodeId) {
        let [na, nb] = self
            .nodes
            .get_disjoint_mut([a.index(), b.index()])
            .expect("two distinct in-bounds node ids");
        let dangling = "dangling node id: a tree link points at a freed slot";
        let (na, nb) = (na.as_mut().expect(dangling), nb.as_mut().expect(dangling));
        std::mem::swap(&mut na.value, &mut nb.value);
        let [ca, cb] = self
            .cold
            .get_disjoint_mut([a.index(), b.index()])
            .expect("two distinct in-bounds node ids");
        std::mem::swap(&mut ca.owners, &mut cb.owners);
    }

    /// Heap bytes the arena holds: both record arrays and the free list
    /// at capacity, the owner lists, and every node's mark spill.
    pub(crate) fn heap_bytes(&self) -> usize {
        let arrays = self.nodes.capacity() * size_of::<Option<Node<K>>>()
            + self.cold.capacity() * size_of::<Cold>()
            + self.free.capacity() * size_of::<NodeId>();
        let owners: usize = self.cold.iter().map(|c| c.owners.capacity()).sum();
        let spills: usize = self.iter().map(|(_, n)| n.marks.heap_bytes()).sum();
        arrays + owners * size_of::<(End, IntervalId)>() + spills
    }

    /// Starts loading `id`'s node into the cache: the stab descent asks
    /// for both children before it compares the key, so the child it
    /// takes is on its way while the comparison runs. A hint only — it
    /// changes no state the program can observe, and on targets other
    /// than x86_64 it does nothing.
    #[inline(always)]
    pub(crate) fn prefetch(&self, id: NodeId) {
        // `wrapping_add`: `NULL` indexes past the arena, and the address
        // is only computed, never dereferenced.
        let slot = self.nodes.as_ptr().wrapping_add(id.index());
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: `prefetch` is a cache hint. It reads no memory the
            // program sees and never faults, whatever the address — past
            // the arena or unmapped — and SSE is part of the x86_64
            // baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(slot.cast::<i8>()) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = slot;
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
