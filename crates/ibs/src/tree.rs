//! The interval binary search tree (IBS-tree), §4.2–4.3 of the paper.
//!
//! Overview of the encoding:
//!
//! * Every finite interval endpoint is a node in a plain binary search
//!   tree over the key domain.
//! * Each node carries three *mark slots*. A mark for interval `I` in a
//!   node's `=` slot asserts `I` contains the node's value; a mark in the
//!   `<` (`>`) slot asserts `I` covers every key that could ever be
//!   inserted into the node's left (right) subtree.
//! * A stabbing query for `X` walks the ordinary search path for `X`,
//!   collecting the `<` slot when it goes left, the `>` slot when it goes
//!   right, and the `=` slot when it hits `X` exactly. The collected union
//!   is exactly the set of intervals containing `X`.
//!
//! Where the paper finds the `leftUp`/`rightUp` ancestors by walking
//! parent pointers, we thread the *descent fences* — the open range
//! `(lo_fence, hi_fence)` of keys insertable under the current node —
//! down every descent; `rightUp(R).value` is precisely the current
//! `hi_fence`, so "everything in the right subtree of R lies within P"
//! becomes [`Interval::covers_open_range`].
//!
//! Deletion follows §4.2's endpoint-ownership rule (an endpoint node is
//! removed only when no remaining interval is anchored at it) with the
//! predecessor-swap splice, and finds an interval's marks as §4.2 does,
//! by "the reverse of the procedure for insertion": every mark sits where
//! the canonical walk of [`IbsCore::place_marks`] would place it on the
//! current shape (the rotations and the repair set keep it there), and
//! that walk never leaves the search paths to the interval's endpoints,
//! so clearing them clears the interval (DESIGN.md §5).
//!
//! [`IbsCore`] is that state and nothing beside it: nodes, marks,
//! endpoint owners and the universal list, §5.1's space. It keeps no
//! copy of an interval. An insert reads the interval it is handed, and
//! a remove is handed the removed interval and a *lender* that yields
//! any other stored interval by id, for the repair set a node deletion
//! disturbs. [`crate::IbsTree`] is the owning shell over a core; the
//! predicate index lends from its `PREDICATES` slab instead.

use crate::arena::{Arena, End, Node, NodeId};
use crate::marks::{Slot, SLOTS};
use interval::{Interval, IntervalId};

/// Keys one [`IbsCore::stab_lanes_into`] call descends together: sixteen
/// independent descents keep enough node loads in flight to hide most
/// of a miss, and their cursors fill one cache line. A constant, not a
/// setting (DESIGN.md §5).
pub const LANES: usize = 16;

/// Spilled slots a group's descent parks before it stops to read them.
const PARKED: usize = 64;

/// Whether the tree rebalances itself.
///
/// The paper's empirical section (§5.2) measured the *unbalanced* variant
/// ("the balancing scheme using rotations was not implemented, but as with
/// ordinary binary search trees, the tree is normally balanced if data is
/// inserted in random order"); §4.3 defines AVL balancing with
/// mark-preserving rotations. Both are provided so the balancing ablation
/// can quantify the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalanceMode {
    /// Plain BST shape, exactly as benchmarked in the paper's §5.2.
    None,
    /// AVL balancing with the Figure 5/6 mark-preserving rotations.
    #[default]
    Avl,
}

/// The IBS-tree's own state: endpoint nodes with their marks and
/// owners, the universal list, the update scratch buffers and a count.
/// The intervals themselves live with the caller, who hands each one to
/// [`insert`](Self::insert) and [`remove`](Self::remove) and lends the
/// stored ones back by id when a remove repairs marks.
///
/// ```
/// use ibs::IbsCore;
/// use interval::{Interval, IntervalId};
///
/// // The caller's table, indexed by id: paper Fig. 2's A, B, E and G.
/// let table = [
///     Interval::closed(9, 19),
///     Interval::closed(2, 7),
///     Interval::closed(8, 12),
///     Interval::at_most(17),
/// ];
/// let lend = |id: IntervalId| &table[id.index()];
/// let mut core = IbsCore::new();
/// for (i, iv) in table.iter().enumerate() {
///     core.insert(IntervalId(i as u32), iv);
/// }
/// let mut hits = Vec::new();
/// core.stab_into(&10, &mut hits);
/// hits.sort();
/// assert_eq!(hits, vec![IntervalId(0), IntervalId(2), IntervalId(3)]);
///
/// core.remove(IntervalId(0), &table[0], lend);
/// core.assert_invariants(lend);
/// assert_eq!(core.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IbsCore<K> {
    pub(crate) arena: Arena<K>,
    pub(crate) root: NodeId,
    /// Intervals with no finite endpoint at all: `(-inf, +inf)` matches
    /// every key, so it is reported unconditionally rather than marked.
    pub(crate) universal: Vec<IntervalId>,
    pub(crate) scratch: Scratch,
    /// Intervals indexed.
    len: usize,
    mode: BalanceMode,
}

/// The buffers an insert or a remove works in, kept from call to call so
/// that an update allocates nothing of its own once they have grown to
/// the tree's height. Each is empty between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// A descent's `(node, went_left)` path, walked back by the retrace.
    path: Vec<(NodeId, bool)>,
    /// The canonical walk's pending `(node, lo fence, hi fence)`
    /// positions.
    stack: Vec<(NodeId, NodeId, NodeId)>,
    /// `delete_value`'s repair set `T`.
    repair: Vec<IntervalId>,
    /// The two mark lists a rotation moves.
    pub(crate) moved: [Vec<IntervalId>; 2],
}

impl Scratch {
    /// Heap bytes of the buffers at capacity.
    fn heap_bytes(&self) -> usize {
        let ids = self.repair.capacity() + self.moved.iter().map(Vec::capacity).sum::<usize>();
        self.path.capacity() * size_of::<(NodeId, bool)>()
            + self.stack.capacity() * size_of::<(NodeId, NodeId, NodeId)>()
            + ids * size_of::<IntervalId>()
    }

    /// Are all the buffers empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.path.is_empty()
            && self.stack.is_empty()
            && self.repair.is_empty()
            && self.moved.iter().all(Vec::is_empty)
    }
}

impl<K: Ord + Clone> Default for IbsCore<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> IbsCore<K> {
    /// An empty AVL-balanced core.
    pub fn new() -> Self {
        Self::with_mode(BalanceMode::Avl)
    }

    /// An empty core with an explicit balancing mode.
    pub fn with_mode(mode: BalanceMode) -> Self {
        IbsCore {
            arena: Arena::new(),
            root: NodeId::NULL,
            universal: Vec::new(),
            scratch: Scratch::default(),
            len: 0,
            mode,
        }
    }

    /// The balancing mode this core was created with.
    pub fn mode(&self) -> BalanceMode {
        self.mode
    }

    /// Number of intervals currently indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty of intervals?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live endpoint nodes.
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Total number of marks across all slots — the paper's space metric
    /// (§5.1: `O(N log N)` worst case, `O(N)` when intervals are
    /// disjoint).
    pub fn marker_count(&self) -> usize {
        self.arena.iter().map(|(_, n)| n.marks.total()).sum()
    }

    /// Heap bytes the core holds, computed on read: the node arena (hot
    /// and cold records, free list, owner lists, mark spills),
    /// `universal` and the update scratch buffers, all at capacity —
    /// §5.1's nodes plus marks. Heap a key owns itself (a string's
    /// bytes) is not counted.
    pub fn approx_bytes(&self) -> usize {
        self.arena.heap_bytes()
            + self.universal.capacity() * size_of::<IntervalId>()
            + self.scratch.heap_bytes()
    }

    /// Height of the endpoint tree (empty = 0).
    pub fn height(&self) -> u32 {
        self.height_of(self.root)
    }

    // ------------------------------------------------------------------
    // Stabbing queries (paper Figure 4, `findIntervals`)
    // ------------------------------------------------------------------

    /// Appends the ids of every interval containing `x` to `out`, in
    /// unspecified order (each id exactly once).
    pub fn stab_into(&self, x: &K, out: &mut Vec<IntervalId>) {
        self.stab_into_observed(x, out, &mut ());
    }

    /// As [`IbsCore::stab_into`], reporting each unit of §5 work — node
    /// visits and mark collections — to `obs`. With the `()` observer
    /// this monomorphizes to exactly the uninstrumented loop. This is
    /// the one-lane case of [`IbsCore::stab_lanes_into`].
    pub fn stab_into_observed<O: crate::StabObserver>(
        &self,
        x: &K,
        out: &mut Vec<IntervalId>,
        obs: &mut O,
    ) {
        self.descend(&[x], std::slice::from_mut(out), std::slice::from_mut(obs));
    }

    /// Stabs the tree with up to [`LANES`] keys at once: lane `l`
    /// appends the ids of every interval containing `keys[l]` to
    /// `outs[l]` and reports its work to `observers[l]`, exactly as
    /// [`IbsCore::stab_into_observed`] would: the same ids (in another
    /// order when a slot holds several) and the same work. The lanes
    /// descend in lock-step, one node per lane per round; the step has
    /// no branch on the comparison, so the lanes' node loads overlap
    /// instead of waiting behind one another's mispredictions
    /// (DESIGN.md §5).
    ///
    /// # Panics
    ///
    /// If there are more than [`LANES`] keys, or `outs` or `observers`
    /// is not as long as `keys`.
    pub fn stab_lanes_into<O: crate::StabObserver>(
        &self,
        keys: &[&K],
        outs: &mut [Vec<IntervalId>],
        observers: &mut [O],
    ) {
        let n = keys.len();
        assert!(
            n <= LANES && outs.len() == n && observers.len() == n,
            "one output and one observer per key, at most {LANES} keys"
        );
        self.descend(keys, outs, observers);
    }

    /// The one descent body behind every stab (paper Figure 4): each
    /// lane walks the search path for its key one [`step`](Self::step)
    /// per round. A lane alone asks for both children before it
    /// compares and reads a slot's spilled ids where it finds them. In
    /// a group each lane asks for its next node once it knows it, and
    /// the other lanes' steps hide the load; spilled ids sit behind a
    /// second load that nothing hides, so the group parks each spilled
    /// slot it passes and reads them all once it has reached its
    /// leaves, where those loads overlap instead of stalling the
    /// rounds.
    #[inline(always)]
    fn descend<O: crate::StabObserver>(
        &self,
        keys: &[&K],
        outs: &mut [Vec<IntervalId>],
        observers: &mut [O],
    ) {
        let n = keys.len();
        let from: [usize; LANES] = std::array::from_fn(|l| outs.get(l).map_or(0, Vec::len));
        for (out, obs) in outs.iter_mut().zip(observers.iter_mut()) {
            out.extend_from_slice(&self.universal);
            obs.universal(self.universal.len());
        }
        let mut cur = [self.root; LANES];
        let mut parked = [(NodeId::NULL, 0, Slot::Eq); PARKED];
        let mut held = 0;
        let mut live = !self.root.is_null();
        while live {
            live = false;
            for l in 0..n {
                let at = cur[l];
                if at.is_null() {
                    continue;
                }
                let node = self.arena.get_live_unchecked(at);
                if n == 1 {
                    self.arena.prefetch(node.left);
                    self.arena.prefetch(node.right);
                }
                let (next, slot) = Self::step(node, keys[l], &mut outs[l], &mut observers[l]);
                if n == 1 {
                    node.marks.spill_into(slot, &mut outs[l]);
                } else {
                    parked[held] = (at, l as u8, slot);
                    held += usize::from(node.marks.has_spill());
                    if held == PARKED {
                        self.read_parked(&parked, outs);
                        held = 0;
                    }
                    self.arena.prefetch(next);
                }
                live |= !next.is_null();
                cur[l] = next;
            }
        }
        self.read_parked(&parked[..held], outs);
        for (out, from) in outs.iter().zip(from) {
            debug_assert!(
                all_distinct(&out[from..]),
                "a stab path collected the same interval twice"
            );
        }
    }

    /// One node of a stab's descent, without a branch on the
    /// comparison: the three-way order `s` of `x` against the node's
    /// value picks the slot to collect and the child to take
    /// (`[left, NULL, right][s]`), and the slot's inline mark is
    /// written unconditionally (see `Marks::first_into`). Returns the
    /// next node, null once the descent ends, and the slot collected.
    #[inline(always)]
    fn step<O: crate::StabObserver>(
        node: &Node<K>,
        x: &K,
        out: &mut Vec<IntervalId>,
        obs: &mut O,
    ) -> (NodeId, Slot) {
        obs.visit_node();
        let s = (x.cmp(&node.value) as i8 + 1) as usize;
        let slot = SLOTS[s];
        node.marks.first_into(slot, out);
        obs.collect(slot, node.marks.len(slot));
        ([node.left, NodeId::NULL, node.right][s], slot)
    }

    /// Appends the spilled ids of each parked `(node, lane, slot)` to
    /// its lane's output.
    fn read_parked(&self, parked: &[(NodeId, u8, Slot)], outs: &mut [Vec<IntervalId>]) {
        for &(node, lane, slot) in parked {
            let marks = &self.arena.get_live_unchecked(node).marks;
            marks.spill_into(slot, &mut outs[usize::from(lane)]);
        }
    }

    // ------------------------------------------------------------------
    // Insertion (paper Figure 3, `addLeft` / `addRight`)
    // ------------------------------------------------------------------

    /// Indexes `iv` under `id`, which the core must not hold yet: the
    /// core keeps no table to check that against, its caller does. The
    /// interval is read, not kept — only its endpoint keys are cloned,
    /// into new nodes.
    ///
    /// Structure first, marks second: both endpoint nodes are inserted
    /// (and the tree rebalanced) before any mark is placed, so marks are
    /// always placed canonically with respect to the final shape. This is
    /// an equivalent refactoring of the paper's interleaved
    /// `insertPredicate`.
    pub fn insert(&mut self, id: IntervalId, iv: &Interval<K>) {
        let (lo, hi) = (iv.lo().value(), iv.hi().value());
        if lo.is_none() && hi.is_none() {
            self.universal.push(id);
        } else {
            if let Some(v) = lo {
                let n = self.ensure_node(v);
                self.arena.cold_mut(n).own(End::Lo, id);
            }
            if let Some(v) = hi {
                let n = self.ensure_node(v);
                self.arena.cold_mut(n).own(End::Hi, id);
            }
            self.place_marks(id, iv);
        }
        self.len += 1;
    }

    /// Places the marks for `iv` canonically. The endpoint nodes must
    /// already exist.
    ///
    /// This is the paper's `addLeft`/`addRight` pair fused into one
    /// fragment decomposition: starting at the root, each visited node
    /// whose value the interval contains gets an `=` mark; a child
    /// subtree whose entire open key range the interval covers gets a
    /// `<`/`>` mark on the parent (and the descent stops there); a child
    /// subtree the interval only partially overlaps is descended into.
    /// Because the interval's endpoints are tree values, at most two
    /// root-to-endpoint paths are walked — the same paths `addLeft` and
    /// `addRight` take — but no redundant mark is ever placed beyond a
    /// subtree already covered by an ancestor's mark, which the paper's
    /// formulation only guarantees up to set semantics of its result.
    ///
    /// A fence is the ancestor whose value bounds the position (null
    /// for unbounded), so every key is read in place, never cloned.
    pub(crate) fn place_marks(&mut self, id: IntervalId, iv: &Interval<K>) {
        self.walk_canonical(iv, |arena, n, slot| {
            arena[n].marks.insert(slot, id);
        });
    }

    /// Walks `iv`'s canonical placement on the current shape (see
    /// [`IbsCore::place_marks`]), calling `f` with each `(node, slot)`
    /// that carries its mark.
    fn walk_canonical(&mut self, iv: &Interval<K>, mut f: impl FnMut(&mut Arena<K>, NodeId, Slot)) {
        let mut stack = std::mem::take(&mut self.scratch.stack);
        if !self.root.is_null() {
            stack.push((self.root, NodeId::NULL, NodeId::NULL));
        }
        while let Some((n, lo_f, hi_f)) = stack.pop() {
            let node = &self.arena[n];
            let (lo, v, hi) = (self.fence(lo_f), Some(&node.value), self.fence(hi_f));
            let less = iv.covers_open_range(lo, v);
            let greater = iv.covers_open_range(v, hi);
            if !less && !node.left.is_null() && iv.overlaps_open_range(lo, v) {
                stack.push((node.left, lo_f, n));
            }
            if !greater && !node.right.is_null() && iv.overlaps_open_range(v, hi) {
                stack.push((node.right, n, hi_f));
            }
            let marked = [less, iv.contains(&node.value), greater];
            for (slot, marked) in SLOTS.into_iter().zip(marked) {
                if marked {
                    f(&mut self.arena, n, slot);
                }
            }
        }
        self.scratch.stack = stack;
    }

    /// The value of a fence node; `None` (unbounded) for the null fence.
    fn fence(&self, n: NodeId) -> Option<&K> {
        (!n.is_null()).then(|| &self.arena[n].value)
    }

    // ------------------------------------------------------------------
    // Removal (paper §4.2 deletion procedure)
    // ------------------------------------------------------------------

    /// Removes `id`, which the core holds with exactly the interval
    /// `iv`. Endpoint nodes are deleted when no remaining interval is
    /// anchored at them; a deletion re-places the marks of the intervals
    /// it disturbs, and `lend` yields each of those by id — any interval
    /// the core still holds, never `id` itself.
    ///
    /// # Panics
    ///
    /// If an endpoint of `iv` is not owned by `id` in the core.
    pub fn remove<'a, L>(&mut self, id: IntervalId, iv: &Interval<K>, lend: L)
    where
        L: Fn(IntervalId) -> &'a Interval<K>,
        K: 'a,
    {
        self.len -= 1;
        let (lo, hi) = (iv.lo().value(), iv.hi().value());
        if lo.is_none() && hi.is_none() {
            self.universal.retain(|&u| u != id);
            return;
        }

        // 1. Every mark for the interval comes out, on the shape that
        //    placed them, by a walk that ends at the endpoint nodes.
        let [lo_node, hi_node] = self.clear_marks(id, iv);

        // 2. Release both endpoint ownerships at their nodes (a point
        //    interval owns the same node twice), then decide from those
        //    nodes which are now unowned and must be deleted.
        let (lo, hi) = (lo.map(|v| (v, lo_node)), hi.map(|v| (v, hi_node)));
        if let Some((_, n)) = lo {
            self.arena.cold_mut(n).disown(End::Lo, id);
        }
        if let Some((_, n)) = hi {
            self.arena.cold_mut(n).disown(End::Hi, id);
        }
        let unowned = |&(_, n): &(&K, NodeId)| !self.arena.cold(n).has_owners();
        let doomed_lo = lo.filter(unowned);
        // A point interval's two ends share one node, deleted once.
        let doomed_hi = hi.filter(|end| unowned(end) && lo.map(|(_, l)| l) != Some(end.1));

        // 3. Delete unowned endpoint nodes (each fixes up the marks of
        //    intervals the restructuring disturbed). By value: the first
        //    splice can move the second value to another node.
        for (v, _) in [doomed_lo, doomed_hi].into_iter().flatten() {
            self.delete_value(v, &lend);
        }
    }

    /// Deletes the node holding `v` from the endpoint tree, repairing the
    /// marks of every interval the restructuring could disturb (the
    /// paper's temporary set `T`, here taken as: all intervals with marks
    /// on the spliced or value-swapped nodes, plus all intervals anchored
    /// at the predecessor's value). `lend` yields each of them.
    fn delete_value<'a>(&mut self, v: &K, lend: &impl Fn(IntervalId) -> &'a Interval<K>)
    where
        K: 'a,
    {
        // Descend to the target, recording (node, went_left) for retrace.
        let mut path = std::mem::take(&mut self.scratch.path);
        let mut cur = self.root;
        loop {
            assert!(!cur.is_null(), "delete_value: value not in tree");
            match v.cmp(&self.arena[cur].value) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => {
                    path.push((cur, true));
                    cur = self.arena[cur].left;
                }
                std::cmp::Ordering::Greater => {
                    path.push((cur, false));
                    cur = self.arena[cur].right;
                }
            }
        }
        let x = cur;

        let two_children = !self.arena[x].left.is_null() && !self.arena[x].right.is_null();

        // Collect the repair set T and strip its marks. (The interval
        // being removed has no marks or owners left, so it can never
        // appear in `repair`.)
        let mut repair = std::mem::take(&mut self.scratch.repair);
        fn note(repair: &mut Vec<IntervalId>, ids: impl Iterator<Item = IntervalId>) {
            for m in ids {
                if !repair.contains(&m) {
                    repair.push(m);
                }
            }
        }
        for slot in SLOTS {
            note(&mut repair, self.arena[x].marks.iter(slot));
        }

        let spliced; // the node physically removed from the tree
        if two_children {
            // Find the predecessor y = max(left(x)), extending the path.
            path.push((x, true));
            let mut y = self.arena[x].left;
            while !self.arena[y].right.is_null() {
                path.push((y, false));
                y = self.arena[y].right;
            }
            for slot in SLOTS {
                note(&mut repair, self.arena[y].marks.iter(slot));
            }
            note(&mut repair, self.arena.cold(y).all_owners());
            for &m in &repair {
                self.clear_marks(m, lend(m));
            }
            // Swap the values (and the endpoint ownership that travels
            // with a value) of x and y, leaving links, heights and mark
            // slots in place (the paper: "swap the values of x and y,
            // leaving the markers in their former locations"); marks
            // were already stripped from both nodes.
            self.arena.swap_values(x, y);
            spliced = y;
        } else {
            for &m in &repair {
                self.clear_marks(m, lend(m));
            }
            spliced = x;
        }

        // Splice: the spliced node has at most one child.
        let child = if self.arena[spliced].left.is_null() {
            self.arena[spliced].right
        } else {
            self.arena[spliced].left
        };
        debug_assert!(self.arena[spliced].left.is_null() || self.arena[spliced].right.is_null());
        match path.last().copied() {
            None => self.root = child,
            Some((parent, went_left)) => {
                if went_left {
                    self.arena[parent].left = child;
                } else {
                    self.arena[parent].right = child;
                }
            }
        }
        let dead = self.arena.dealloc(spliced);
        debug_assert!(dead.marks.is_empty(), "spliced node still carried marks");

        // Rebalance up the (pre-splice) path.
        self.retrace(&path);
        path.clear();
        self.scratch.path = path;

        // Re-place marks for every disturbed interval, canonically for
        // the new shape.
        for m in repair.drain(..) {
            self.place_marks(m, lend(m));
        }
        self.scratch.repair = repair;
    }

    /// Removes every mark of `id` (whose interval is `iv`), on the shape
    /// that placed them: the reverse of [`IbsCore::place_marks`]. That
    /// walk descends only into a child whose key range `iv` partly
    /// overlaps, and since `iv`'s endpoints are tree values, such a child
    /// holds one of them: every mark sits on the search path to a finite
    /// endpoint. So the two paths are walked, one node of each per round
    /// and their shared prefix once, and `id` leaves all three slots of
    /// every node on them. Returns the nodes holding `iv`'s lower and
    /// upper endpoint (null for an unbounded end), where the paths end.
    pub(crate) fn clear_marks(&mut self, id: IntervalId, iv: &Interval<K>) -> [NodeId; 2] {
        let ends = [iv.lo().value(), iv.hi().value()];
        let mut at = ends.map(|v| if v.is_some() { self.root } else { NodeId::NULL });
        let mut found = [NodeId::NULL; 2];
        let mut cleared = 0;
        while at != [NodeId::NULL; 2] {
            let shared = at[0] == at[1];
            for (i, v) in ends.into_iter().enumerate() {
                let Some(v) = v.filter(|_| !at[i].is_null()) else {
                    continue;
                };
                let node = &mut self.arena[at[i]];
                if !(shared && i == 1) {
                    for slot in SLOTS {
                        cleared += usize::from(node.marks.remove(slot, id));
                    }
                }
                let next = node.toward(v);
                if next.is_null() {
                    debug_assert!(*v == node.value, "a stored endpoint owns a node");
                    found[i] = at[i];
                }
                at[i] = next;
            }
        }
        if cfg!(debug_assertions) {
            let mut placed = 0;
            self.walk_canonical(iv, |_, _, _| placed += 1);
            debug_assert_eq!(cleared, placed, "{id}'s marks were not canonical");
        }
        found
    }

    // ------------------------------------------------------------------
    // Structural BST/AVL machinery
    // ------------------------------------------------------------------

    /// Finds the node holding exactly `v`.
    pub(crate) fn find_node(&self, v: &K) -> Option<NodeId> {
        let mut cur = self.root;
        while !cur.is_null() && self.arena[cur].value != *v {
            cur = self.arena[cur].toward(v);
        }
        (!cur.is_null()).then_some(cur)
    }

    /// Finds or inserts the node for `v`, rebalancing after an insert.
    /// The key is cloned only into a new node.
    fn ensure_node(&mut self, v: &K) -> NodeId {
        if self.root.is_null() {
            let n = self.arena.alloc(v.clone());
            self.root = n;
            return n;
        }
        let mut path = std::mem::take(&mut self.scratch.path);
        let mut cur = self.root;
        let found = loop {
            let node = &self.arena[cur];
            let went_left = match v.cmp(&node.value) {
                std::cmp::Ordering::Equal => break cur,
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
            };
            path.push((cur, went_left));
            let next = if went_left { node.left } else { node.right };
            if next.is_null() {
                let n = self.arena.alloc(v.clone());
                if went_left {
                    self.arena[cur].left = n;
                } else {
                    self.arena[cur].right = n;
                }
                self.retrace(&path);
                break n;
            }
            cur = next;
        };
        path.clear();
        self.scratch.path = path;
        found
    }

    pub(crate) fn height_of(&self, n: NodeId) -> u32 {
        if n.is_null() {
            0
        } else {
            self.arena.cold(n).height
        }
    }

    pub(crate) fn update_height(&mut self, n: NodeId) {
        let h = 1 + self
            .height_of(self.arena[n].left)
            .max(self.height_of(self.arena[n].right));
        self.arena.cold_mut(n).height = h;
    }

    /// Walks a recorded root-to-parent path bottom-up, refreshing heights
    /// and (in AVL mode) rotating where the balance factor exceeds ±1.
    /// It stops at the first position whose subtree is as high after its
    /// rebalance as before: every node above it keeps its children's
    /// heights, so it would neither change height nor rotate.
    fn retrace(&mut self, path: &[(NodeId, bool)]) {
        for i in (0..path.len()).rev() {
            let (n, _) = path[i];
            let before = self.height_of(n);
            self.update_height(n);
            let mut top = n;
            if self.mode == BalanceMode::Avl {
                top = self.rebalance(n);
                if top != n {
                    match i.checked_sub(1) {
                        None => self.root = top,
                        Some(pi) => {
                            let (parent, went_left) = path[pi];
                            if went_left {
                                self.arena[parent].left = top;
                            } else {
                                self.arena[parent].right = top;
                            }
                        }
                    }
                }
            }
            if self.height_of(top) == before {
                break;
            }
        }
    }

    /// Restores the AVL property at `n`, returning the (possibly new)
    /// subtree root.
    fn rebalance(&mut self, n: NodeId) -> NodeId {
        let bf = self.balance_factor(n);
        if bf > 1 {
            // Left-heavy.
            let l = self.arena[n].left;
            if self.balance_factor(l) < 0 {
                let new_l = self.rotate_left(l);
                self.arena[n].left = new_l;
            }
            self.rotate_right(n)
        } else if bf < -1 {
            let r = self.arena[n].right;
            if self.balance_factor(r) > 0 {
                let new_r = self.rotate_right(r);
                self.arena[n].right = new_r;
            }
            self.rotate_left(n)
        } else {
            n
        }
    }

    pub(crate) fn balance_factor(&self, n: NodeId) -> i32 {
        let node = &self.arena[n];
        self.height_of(node.left) as i32 - self.height_of(node.right) as i32
    }
}

/// Borrow-friendly access used by the balance and invariants modules.
impl<K> IbsCore<K> {
    pub(crate) fn node(&self, id: NodeId) -> &Node<K> {
        &self.arena[id]
    }

    /// Root id (may be null).
    pub(crate) fn root_id(&self) -> NodeId {
        self.root
    }
}

/// The debug check behind every stab: no id twice among the ids one
/// stab appended (the caller's buffer may already hold other stabs'
/// ids, which repeat freely). Short tails — every stab of a selective
/// index — are compared pairwise, so a debug build of a hot loop that
/// reuses its buffer still makes no allocation per stab.
fn all_distinct(ids: &[IntervalId]) -> bool {
    if ids.len() <= 32 {
        return ids.iter().enumerate().all(|(i, id)| !ids[..i].contains(id));
    }
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}
