//! The owning IBS-tree: an [`IbsCore`] plus the table of the intervals
//! it indexes, for callers that keep no table of their own.
//!
//! The core holds §4's state only — nodes, marks and owners — and reads
//! each interval from its caller. This shell is that caller for
//! [`IbsTree`]'s users: it keeps every interval in one id-keyed table,
//! hands it to the core on insert, and lends the table on remove and on
//! an invariant check. The predicate index needs no shell: its
//! `PREDICATES` slab already holds every interval (DESIGN.md §5).

use crate::idmap::IdMap;
use crate::tree::{BalanceMode, IbsCore};
use crate::{StabObserver, StabStats};
use interval::{Interval, IntervalId};
use std::fmt::Debug;

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
    pub(crate) core: IbsCore<K>,
    /// id → the interval itself (the paper's `PREDICATES` side table,
    /// scoped to this tree).
    pub(crate) intervals: IdMap<Interval<K>>,
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
            core: IbsCore::with_mode(mode),
            intervals: IdMap::default(),
        }
    }

    /// The balancing mode this tree was created with.
    pub fn mode(&self) -> BalanceMode {
        self.core.mode()
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
        self.core.node_count()
    }

    /// Total number of marks across all slots — the paper's space metric
    /// (§5.1: `O(N log N)` worst case, `O(N)` when intervals are
    /// disjoint).
    pub fn marker_count(&self) -> usize {
        self.core.marker_count()
    }

    /// Heap bytes the tree holds, computed on read: the core's
    /// ([`IbsCore::approx_bytes`]) and the interval table at capacity.
    /// Heap a key owns itself (a string's bytes) is not counted.
    pub fn approx_bytes(&self) -> usize {
        let table = self.intervals.capacity() * 8 / 7 * (size_of::<(u32, Interval<K>)>() + 1);
        self.core.approx_bytes() + table
    }

    /// Height of the endpoint tree (empty = 0).
    pub fn height(&self) -> u32 {
        self.core.height()
    }

    /// The interval stored under `id`, if any.
    pub fn get(&self, id: IntervalId) -> Option<&Interval<K>> {
        self.intervals.get(&id.0)
    }

    /// Iterates all `(id, interval)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (IntervalId, &Interval<K>)> {
        self.intervals.iter().map(|(&id, iv)| (IntervalId(id), iv))
    }

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
        self.core.stab_into(x, out);
    }

    /// As [`IbsTree::stab_into`], reporting each unit of §5 work to
    /// `obs` ([`IbsCore::stab_into_observed`]).
    pub fn stab_into_observed<O: StabObserver>(
        &self,
        x: &K,
        out: &mut Vec<IntervalId>,
        obs: &mut O,
    ) {
        self.core.stab_into_observed(x, out, obs);
    }

    /// Stabs the tree with up to [`LANES`](crate::LANES) keys at once
    /// ([`IbsCore::stab_lanes_into`]).
    ///
    /// # Panics
    ///
    /// If there are more than [`LANES`](crate::LANES) keys, or `outs` or
    /// `observers` is not as long as `keys`.
    pub fn stab_lanes_into<O: StabObserver>(
        &self,
        keys: &[&K],
        outs: &mut [Vec<IntervalId>],
        observers: &mut [O],
    ) {
        self.core.stab_lanes_into(keys, outs, observers);
    }

    /// Counts the intervals containing `x`: the one-lane stab, into a
    /// scratch buffer.
    pub fn stab_count(&self, x: &K) -> usize {
        let mut stats = StabStats::default();
        self.stab_into_observed(x, &mut Vec::new(), &mut stats);
        stats.marks_scanned as usize
    }

    /// Indexes `iv` under `id` ([`IbsCore::insert`]), keeping it in the
    /// tree's table.
    pub fn insert(&mut self, id: IntervalId, iv: Interval<K>) -> Result<(), DuplicateId> {
        if self.intervals.contains_key(&id.0) {
            return Err(DuplicateId(id));
        }
        self.core.insert(id, &iv);
        self.intervals.insert(id.0, iv);
        Ok(())
    }

    /// Removes the interval stored under `id`, returning it. Endpoint
    /// nodes are deleted when no remaining interval is anchored at them
    /// ([`IbsCore::remove`], lent this tree's table).
    pub fn remove(&mut self, id: IntervalId) -> Option<Interval<K>> {
        let iv = self.intervals.remove(&id.0)?;
        let intervals = &self.intervals;
        self.core.remove(id, &iv, |m| {
            intervals.get(&m.0).expect("repair ids are held intervals")
        });
        Some(iv)
    }
}

impl<K: Ord + Clone + Debug> IbsTree<K> {
    /// Verifies every structural and semantic invariant of the core
    /// ([`IbsCore::check_invariants`], lent this tree's table) and that
    /// the table holds exactly the intervals the core does, returning a
    /// description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.core.len() != self.intervals.len() {
            return Err(format!(
                "the table holds {} intervals but the core {}",
                self.intervals.len(),
                self.core.len()
            ));
        }
        if let Some(id) = (self.core.held_ids()).find(|id| !self.intervals.contains_key(&id.0)) {
            return Err(format!("the core holds {id}, which the table does not"));
        }
        let table = &self.intervals;
        self.core.check_invariants(|id| &table[&id.0])
    }

    /// Panicking wrapper for use in tests.
    #[track_caller]
    pub fn assert_invariants(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("IBS-tree invariant violated: {e}");
        }
    }
}
