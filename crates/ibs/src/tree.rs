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
//! predecessor-swap splice. Instead of re-deriving mark positions by
//! reversing insertion — fragile once rotations have migrated marks — we
//! keep a registry from interval id to its mark placements, so clearing
//! an interval is exact by construction (see DESIGN.md §5).

use crate::arena::{Arena, End, Node, NodeId};
use crate::idmap::IdMap;
use crate::marks::{Slot, SLOTS};
use crate::StabStats;
use interval::{Interval, IntervalId};

/// Keys one [`IbsTree::stab_lanes_into`] call descends together: sixteen
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

/// Error returned by [`IbsTree::insert`] when the id is already present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateId(pub IntervalId);

impl std::fmt::Display for DuplicateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "interval id {} is already in the tree", self.0)
    }
}

impl std::error::Error for DuplicateId {}

/// A dynamically updatable index over intervals and points supporting
/// stabbing queries in `O(log N + L)`.
///
/// ```
/// use ibs::IbsTree;
/// use interval::{Interval, IntervalId};
///
/// let mut t = IbsTree::new();
/// t.insert(IntervalId(0), Interval::closed(9, 19)).unwrap();   // paper Fig. 2: A
/// t.insert(IntervalId(1), Interval::closed(2, 7)).unwrap();    // B
/// t.insert(IntervalId(4), Interval::closed(8, 12)).unwrap();   // E
/// t.insert(IntervalId(6), Interval::at_most(17)).unwrap();     // G = (-inf, 17]
///
/// let mut hits = t.stab(&10);
/// hits.sort();
/// assert_eq!(hits, vec![IntervalId(0), IntervalId(4), IntervalId(6)]);
/// ```
#[derive(Debug, Clone)]
pub struct IbsTree<K> {
    pub(crate) arena: Arena<K>,
    pub(crate) root: NodeId,
    /// id → the interval itself (the paper's `PREDICATES` side table,
    /// scoped to this tree).
    pub(crate) intervals: IdMap<Interval<K>>,
    /// id → every `(node, slot)` currently holding a mark for it.
    pub(crate) placements: IdMap<Vec<(NodeId, Slot)>>,
    /// Intervals with no finite endpoint at all: `(-inf, +inf)` matches
    /// every key, so it is reported unconditionally rather than marked.
    pub(crate) universal: Vec<IntervalId>,
    pub(crate) scratch: Scratch,
    mode: BalanceMode,
}

/// The buffers an insert or a remove works in, kept from call to call so
/// that an update allocates nothing of its own once they have grown to
/// the tree's height. Each is empty between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// A descent's `(node, went_left)` path, walked back by the retrace.
    path: Vec<(NodeId, bool)>,
    /// `place_marks`' pending `(node, lo fence, hi fence)` positions.
    stack: Vec<(NodeId, NodeId, NodeId)>,
    /// `delete_value`'s repair set `T`.
    repair: Vec<IntervalId>,
    /// The two mark lists a rotation moves.
    pub(crate) moved: [Vec<IntervalId>; 2],
    /// The placement list of the last interval removed, emptied, for
    /// the next one inserted.
    spare: Vec<(NodeId, Slot)>,
}

impl Scratch {
    /// Heap bytes of the buffers at capacity.
    fn heap_bytes(&self) -> usize {
        let ids = self.repair.capacity() + self.moved.iter().map(Vec::capacity).sum::<usize>();
        self.path.capacity() * size_of::<(NodeId, bool)>()
            + self.stack.capacity() * size_of::<(NodeId, NodeId, NodeId)>()
            + ids * size_of::<IntervalId>()
            + self.spare.capacity() * size_of::<(NodeId, Slot)>()
    }

    /// Are all the buffers empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.path.is_empty()
            && self.stack.is_empty()
            && self.repair.is_empty()
            && self.moved.iter().all(Vec::is_empty)
            && self.spare.is_empty()
    }
}

impl<K: Ord + Clone> Default for IbsTree<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> IbsTree<K> {
    /// An empty AVL-balanced tree.
    pub fn new() -> Self {
        Self::with_mode(BalanceMode::Avl)
    }

    /// An empty tree with an explicit balancing mode.
    pub fn with_mode(mode: BalanceMode) -> Self {
        IbsTree {
            arena: Arena::new(),
            root: NodeId::NULL,
            intervals: IdMap::default(),
            placements: IdMap::default(),
            universal: Vec::new(),
            scratch: Scratch::default(),
            mode,
        }
    }

    /// The balancing mode this tree was created with.
    pub fn mode(&self) -> BalanceMode {
        self.mode
    }

    /// Number of intervals currently indexed.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Is the tree empty of intervals?
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
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

    /// Heap bytes the tree holds, computed on read: the node arena (hot
    /// and cold records, free list, owner lists, mark spills), the side
    /// tables `intervals`, `placements` (with each placement list) and
    /// `universal`, and the update scratch buffers, all at capacity. Heap
    /// a key owns itself (a string's bytes) is not counted.
    pub fn approx_bytes(&self) -> usize {
        let placed: usize = self.placements.values().map(Vec::capacity).sum();
        self.arena.heap_bytes()
            + map_bytes(&self.intervals)
            + map_bytes(&self.placements)
            + placed * size_of::<(NodeId, Slot)>()
            + self.universal.capacity() * size_of::<IntervalId>()
            + self.scratch.heap_bytes()
    }

    /// Height of the endpoint tree (empty = 0).
    pub fn height(&self) -> u32 {
        self.height_of(self.root)
    }

    /// The interval stored under `id`, if any.
    pub fn get(&self, id: IntervalId) -> Option<&Interval<K>> {
        self.intervals.get(&id.0)
    }

    /// Does the tree contain an interval under `id`?
    pub fn contains_id(&self, id: IntervalId) -> bool {
        self.intervals.contains_key(&id.0)
    }

    /// Iterates all `(id, interval)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (IntervalId, &Interval<K>)> {
        self.intervals.iter().map(|(&id, iv)| (IntervalId(id), iv))
    }

    // ------------------------------------------------------------------
    // Stabbing queries (paper Figure 4, `findIntervals`)
    // ------------------------------------------------------------------

    /// Returns the ids of every interval containing `x`, in unspecified
    /// order (each id exactly once).
    pub fn stab(&self, x: &K) -> Vec<IntervalId> {
        let mut out = Vec::new();
        self.stab_into(x, &mut out);
        out
    }

    /// As [`IbsTree::stab`], appending into a caller-owned buffer so hot
    /// loops can reuse the allocation.
    pub fn stab_into(&self, x: &K, out: &mut Vec<IntervalId>) {
        self.stab_into_observed(x, out, &mut ());
    }

    /// As [`IbsTree::stab_into`], reporting each unit of §5 work — node
    /// visits and mark collections — to `obs`. With the `()` observer
    /// this monomorphizes to exactly the uninstrumented loop. This is
    /// the one-lane case of [`IbsTree::stab_lanes_into`].
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
    /// [`IbsTree::stab_into_observed`] would: the same ids (in another
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

    /// Counts the intervals containing `x`: the one-lane stab, into a
    /// scratch buffer.
    pub fn stab_count(&self, x: &K) -> usize {
        let mut stats = StabStats::default();
        self.stab_into_observed(x, &mut Vec::new(), &mut stats);
        stats.marks_scanned as usize
    }

    // ------------------------------------------------------------------
    // Insertion (paper Figure 3, `addLeft` / `addRight`)
    // ------------------------------------------------------------------

    /// Indexes `iv` under `id`.
    ///
    /// Structure first, marks second: both endpoint nodes are inserted
    /// (and the tree rebalanced) before any mark is placed, so marks are
    /// always placed canonically with respect to the final shape. This is
    /// an equivalent refactoring of the paper's interleaved
    /// `insertPredicate`.
    pub fn insert(&mut self, id: IntervalId, iv: Interval<K>) -> Result<(), DuplicateId> {
        if self.intervals.contains_key(&id.0) {
            return Err(DuplicateId(id));
        }
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
            self.place_marks(id, &iv);
        }
        self.intervals.insert(id.0, iv);
        Ok(())
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
        let mut stack = std::mem::take(&mut self.scratch.stack);
        // The interval's placement list is held for the whole call, one
        // registry lookup rather than one per mark; a new interval takes
        // the list the last removed one left.
        let mut places = match self.placements.remove(&id.0) {
            Some(places) => places,
            None => std::mem::take(&mut self.scratch.spare),
        };
        let mut mark = |arena: &mut Arena<K>, n: NodeId, slot: Slot| {
            if arena[n].marks.insert(slot, id) {
                places.push((n, slot));
            }
        };
        if !self.root.is_null() {
            stack.push((self.root, NodeId::NULL, NodeId::NULL));
        }
        while let Some((n, lo_f, hi_f)) = stack.pop() {
            let node = &self.arena[n];
            let (lo, v, hi) = (self.fence(lo_f), Some(&node.value), self.fence(hi_f));
            let eq = iv.contains(&node.value);
            let less = iv.covers_open_range(lo, v);
            let left = (!less && !node.left.is_null() && iv.overlaps_open_range(lo, v))
                .then_some(node.left);
            let greater = iv.covers_open_range(v, hi);
            let right = (!greater && !node.right.is_null() && iv.overlaps_open_range(v, hi))
                .then_some(node.right);
            if eq {
                mark(&mut self.arena, n, Slot::Eq);
            }
            if less {
                mark(&mut self.arena, n, Slot::Less);
            } else if let Some(left) = left {
                stack.push((left, lo_f, n));
            }
            if greater {
                mark(&mut self.arena, n, Slot::Greater);
            } else if let Some(right) = right {
                stack.push((right, n, hi_f));
            }
        }
        self.placements.insert(id.0, places);
        self.scratch.stack = stack;
    }

    /// The value of a fence node; `None` (unbounded) for the null fence.
    fn fence(&self, n: NodeId) -> Option<&K> {
        (!n.is_null()).then(|| &self.arena[n].value)
    }

    // ------------------------------------------------------------------
    // Removal (paper §4.2 deletion procedure)
    // ------------------------------------------------------------------

    /// Removes the interval stored under `id`, returning it. Endpoint
    /// nodes are deleted when no remaining interval is anchored at them.
    pub fn remove(&mut self, id: IntervalId) -> Option<Interval<K>> {
        let iv = self.intervals.remove(&id.0)?;
        let (lo, hi) = (iv.lo().value(), iv.hi().value());
        if lo.is_none() && hi.is_none() {
            self.universal.retain(|&u| u != id);
            return Some(iv);
        }

        // 1. Every mark for the interval comes out, registry-exact.
        self.clear_marks(id);
        if let Some(places) = self.placements.remove(&id.0) {
            if places.capacity() > self.scratch.spare.capacity() {
                self.scratch.spare = places;
            }
        }

        // 2. Release both endpoint ownerships at their nodes (a point
        //    interval owns the same node twice), then decide from those
        //    nodes which are now unowned and must be deleted.
        let node_of = |v| {
            let n = self.find_node(v);
            n.expect("every stored interval's finite endpoint owns a node")
        };
        let (lo, hi) = (lo.map(|v| (v, node_of(v))), hi.map(|v| (v, node_of(v))));
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
            self.delete_value(v);
        }
        Some(iv)
    }

    /// Deletes the node holding `v` from the endpoint tree, repairing the
    /// marks of every interval the restructuring could disturb (the
    /// paper's temporary set `T`, here taken as: all intervals with marks
    /// on the spliced or value-swapped nodes, plus all intervals anchored
    /// at the predecessor's value).
    fn delete_value(&mut self, v: &K) {
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

        // Collect the repair set T and strip its marks.
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
                self.clear_marks(m);
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
                self.clear_marks(m);
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
        // the new shape. (The interval being removed is already gone from
        // the side table, so it can never appear in `repair`.) Placing
        // marks never reads the table, so it is lent out meanwhile.
        let intervals = std::mem::take(&mut self.intervals);
        for m in repair.drain(..) {
            let iv = intervals
                .get(&m.0)
                .expect("repair ids come from the interval table");
            self.place_marks(m, iv);
        }
        self.intervals = intervals;
        self.scratch.repair = repair;
    }

    // ------------------------------------------------------------------
    // Mark bookkeeping
    // ------------------------------------------------------------------

    /// Adds a mark and records the placement. Idempotent.
    pub(crate) fn add_mark(&mut self, node: NodeId, slot: Slot, id: IntervalId) {
        if self.arena[node].marks.insert(slot, id) {
            self.placements.entry(id.0).or_default().push((node, slot));
        }
    }

    /// Removes a mark (if present) and its placement record.
    pub(crate) fn remove_mark(&mut self, node: NodeId, slot: Slot, id: IntervalId) {
        if self.arena[node].marks.remove(slot, id) {
            let places = self
                .placements
                .get_mut(&id.0)
                .expect("add_mark records a placement with every mark it sets");
            let pos = places
                .iter()
                .position(|&(n, s)| n == node && s == slot)
                .expect("a mark's placement list names the node that carries it");
            places.swap_remove(pos);
        }
    }

    /// Removes every mark belonging to `id`, registry-exact. The emptied
    /// placement list stays in the registry for `id`'s next placement.
    pub(crate) fn clear_marks(&mut self, id: IntervalId) {
        let Some(places) = self.placements.get_mut(&id.0) else {
            return;
        };
        for (node, slot) in places.drain(..) {
            let removed = self.arena[node].marks.remove(slot, id);
            debug_assert!(removed, "registry pointed at a missing mark");
        }
    }

    // ------------------------------------------------------------------
    // Structural BST/AVL machinery
    // ------------------------------------------------------------------

    /// Finds the node holding exactly `v`.
    pub(crate) fn find_node(&self, v: &K) -> Option<NodeId> {
        let mut cur = self.root;
        while !cur.is_null() {
            match v.cmp(&self.arena[cur].value) {
                std::cmp::Ordering::Equal => return Some(cur),
                std::cmp::Ordering::Less => cur = self.arena[cur].left,
                std::cmp::Ordering::Greater => cur = self.arena[cur].right,
            }
        }
        None
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
impl<K> IbsTree<K> {
    pub(crate) fn node(&self, id: NodeId) -> &Node<K> {
        &self.arena[id]
    }

    /// Root id (may be null).
    pub(crate) fn root_id(&self) -> NodeId {
        self.root
    }
}

/// Table bytes of a hash map: its capacity is 7/8 of its slots, and
/// each slot carries one control byte.
fn map_bytes<V>(m: &IdMap<V>) -> usize {
    m.capacity() * 8 / 7 * (size_of::<(u32, V)>() + 1)
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
