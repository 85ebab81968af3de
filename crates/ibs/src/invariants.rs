//! Whole-tree invariant verification, used by unit and property tests.
//!
//! The checker proves both directions of IBS-tree correctness:
//!
//! * **soundness** — every mark's assertion is true (an `=` mark's
//!   interval contains the node value; a `<`/`>` mark's interval covers
//!   the whole open key range of the corresponding subtree position);
//! * **completeness** — at every node, the marks a search for that
//!   node's value would collect are exactly the intervals containing it;
//!   and at every *null position* (each gap between adjacent endpoint
//!   values), the collected marks are exactly the intervals covering that
//!   gap. Since interval endpoints are always tree values, an interval
//!   either covers a whole gap or misses it entirely, so this finite
//!   check covers every possible query point.
//!
//! It also checks that every interval's marks are exactly those the
//! canonical walk places on the current shape (what lets a remove find
//! them by walking), and verifies BST order via descent fences, AVL
//! height/balance bookkeeping, and endpoint-ownership accounting.
//!
//! A core keeps no interval, so the checker reads the ones it holds —
//! every endpoint owner and every universal id — through the caller's
//! lender, and holds the core's count to how many there are.

use crate::arena::{End, NodeId};
use crate::marks::{Slot, SLOTS};
use crate::tree::{BalanceMode, IbsCore};
use interval::{Interval, IntervalId};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Debug;

/// The intervals a core holds, by raw id, as its lender yields them.
type Held<'a, K> = BTreeMap<u32, &'a Interval<K>>;

impl<K: Ord + Clone + Debug> IbsCore<K> {
    /// Verifies every structural and semantic invariant, returning a
    /// description of the first violation found. `lend` yields each
    /// interval the core holds by id, as for [`remove`](Self::remove).
    pub fn check_invariants<'a, L>(&self, lend: L) -> Result<(), String>
    where
        L: Fn(IntervalId) -> &'a Interval<K>,
        K: 'a,
    {
        if !self.scratch.is_empty() {
            return Err("an update left its scratch buffers non-empty".into());
        }
        let held = self.held(lend);
        if held.len() != self.len() {
            return Err(format!(
                "the core counts {} intervals but holds {}",
                self.len(),
                held.len()
            ));
        }
        self.check_universal(&held)?;
        self.check_structure_and_marks(&held)?;
        self.check_owners(&held)?;
        Ok(())
    }

    /// Panicking wrapper for use in tests.
    #[track_caller]
    pub fn assert_invariants<'a, L>(&self, lend: L)
    where
        L: Fn(IntervalId) -> &'a Interval<K>,
        K: 'a,
    {
        if let Err(e) = self.check_invariants(lend) {
            panic!("IBS-tree invariant violated: {e}");
        }
    }

    /// Every id the core holds: each endpoint owner (a point interval
    /// twice) and each universal interval.
    pub(crate) fn held_ids(&self) -> impl Iterator<Item = IntervalId> + '_ {
        let owners = self
            .arena
            .iter()
            .flat_map(|(n, _)| self.arena.cold(n).all_owners());
        owners.chain(self.universal.iter().copied())
    }

    /// Every id the core holds with its lent interval.
    fn held<'a>(&self, lend: impl Fn(IntervalId) -> &'a Interval<K>) -> Held<'a, K> {
        self.held_ids().map(|id| (id.0, lend(id))).collect()
    }

    fn check_universal(&self, intervals: &Held<'_, K>) -> Result<(), String> {
        let expect: HashSet<u32> = intervals
            .iter()
            .filter(|(_, iv)| iv.lo().value().is_none() && iv.hi().value().is_none())
            .map(|(&id, _)| id)
            .collect();
        let got: HashSet<u32> = self.universal.iter().map(|i| i.0).collect();
        if expect != got {
            return Err(format!(
                "universal list mismatch: expected {expect:?}, got {got:?}"
            ));
        }
        if self.universal.len() != got.len() {
            return Err("universal list contains duplicates".into());
        }
        Ok(())
    }

    fn check_structure_and_marks(&self, intervals: &Held<'_, K>) -> Result<(), String> {
        struct Frame<K> {
            node: NodeId,
            lo_fence: Option<K>,
            hi_fence: Option<K>,
            inherited: Vec<IntervalId>,
            /// The intervals whose canonical walk visits this node.
            active: Vec<u32>,
        }

        let mut live_nodes = 0usize;
        let mut stack: Vec<Frame<K>> = Vec::new();
        if !self.root_id().is_null() {
            stack.push(Frame {
                node: self.root_id(),
                lo_fence: None,
                hi_fence: None,
                inherited: Vec::new(),
                // Every walk but a universal interval's starts at the root.
                active: (intervals.iter())
                    .filter(|(_, iv)| iv.lo().value().is_some() || iv.hi().value().is_some())
                    .map(|(&id, _)| id)
                    .collect(),
            });
        } else if !self.arena.is_empty() {
            return Err("null root but arena has live nodes".into());
        }

        while let Some(f) = stack.pop() {
            live_nodes += 1;
            let n = self.node(f.node);

            // BST order via fences.
            if let Some(lo) = &f.lo_fence {
                if n.value <= *lo {
                    return Err(format!(
                        "BST violation: value {:?} not above fence {:?}",
                        n.value, lo
                    ));
                }
            }
            if let Some(hi) = &f.hi_fence {
                if n.value >= *hi {
                    return Err(format!(
                        "BST violation: value {:?} not below fence {:?}",
                        n.value, hi
                    ));
                }
            }

            // Height / balance bookkeeping.
            let hl = self.height_of(n.left);
            let hr = self.height_of(n.right);
            let height = self.arena.cold(f.node).height;
            if height != 1 + hl.max(hr) {
                return Err(format!(
                    "stale height at {:?}: stored {height}, children {hl}/{hr}",
                    n.value
                ));
            }
            if self.mode() == BalanceMode::Avl && (hl as i64 - hr as i64).abs() > 1 {
                return Err(format!(
                    "AVL balance violated at {:?}: child heights {}/{}",
                    n.value, hl, hr
                ));
            }

            // Canonical marks: each slot holds exactly the active
            // intervals the walk marks there — so every mark is sound, and
            // sits where a remove looks for it.
            let (lo, v, hi) = (f.lo_fence.as_ref(), Some(&n.value), f.hi_fence.as_ref());
            for slot in SLOTS {
                let got: BTreeSet<u32> = n.marks.iter(slot).map(|id| id.0).collect();
                if let Some(id) = got.iter().find(|id| !intervals.contains_key(id)) {
                    return Err(format!("{slot} mark for unknown interval #{id}"));
                }
                let want: BTreeSet<u32> = (f.active.iter().copied())
                    .filter(|id| match slot {
                        Slot::Less => intervals[id].covers_open_range(lo, v),
                        Slot::Eq => intervals[id].contains(&n.value),
                        Slot::Greater => intervals[id].covers_open_range(v, hi),
                    })
                    .collect();
                if got != want {
                    return Err(format!(
                        "{slot} slot of {:?} holds {got:?}; the canonical walk marks {want:?}",
                        n.value
                    ));
                }
            }

            // Completeness at the node value: a query for exactly this
            // value collects `inherited ∪ eq` and must see every
            // containing interval exactly once.
            let mut collected: Vec<IntervalId> = f.inherited.clone();
            collected.extend(n.marks.iter(Slot::Eq));
            collected.extend_from_slice(&self.universal);
            let mut sorted = collected.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!(
                    "query path to {:?} collects a duplicate mark: {sorted:?}",
                    n.value
                ));
            }
            let expected: HashSet<u32> = intervals
                .iter()
                .filter(|(_, iv)| iv.contains(&n.value))
                .map(|(&id, _)| id)
                .collect();
            let got: HashSet<u32> = sorted.iter().map(|i| i.0).collect();
            if expected != got {
                return Err(format!(
                    "incomplete match at value {:?}: expected {expected:?}, collected {got:?}",
                    n.value
                ));
            }

            // Completeness at null positions: each gap's collected set
            // must equal the intervals covering the whole gap.
            for (child, gap_lo, gap_hi, slot) in [
                (
                    n.left,
                    f.lo_fence.clone(),
                    Some(n.value.clone()),
                    Slot::Less,
                ),
                (
                    n.right,
                    Some(n.value.clone()),
                    f.hi_fence.clone(),
                    Slot::Greater,
                ),
            ] {
                let mut inherited = f.inherited.clone();
                inherited.extend(n.marks.iter(slot));
                if child.is_null() {
                    let expected: HashSet<u32> = intervals
                        .iter()
                        .filter(|(_, iv)| iv.covers_open_range(gap_lo.as_ref(), gap_hi.as_ref()))
                        .map(|(&id, _)| id)
                        .collect();
                    let mut got: HashSet<u32> = inherited.iter().map(|i| i.0).collect();
                    for u in &self.universal {
                        got.insert(u.0);
                    }
                    if expected != got {
                        return Err(format!(
                            "incomplete match in gap ({gap_lo:?}, {gap_hi:?}): \
                             expected {expected:?}, collected {got:?}"
                        ));
                    }
                } else {
                    // The walk goes on into a child it partly overlaps.
                    let (lo, hi) = (gap_lo.as_ref(), gap_hi.as_ref());
                    let active = (f.active.iter().copied())
                        .filter(|id| {
                            let iv = &intervals[id];
                            !iv.covers_open_range(lo, hi) && iv.overlaps_open_range(lo, hi)
                        })
                        .collect();
                    stack.push(Frame {
                        node: child,
                        lo_fence: gap_lo,
                        hi_fence: gap_hi,
                        inherited,
                        active,
                    });
                }
            }
        }

        if live_nodes != self.arena.len() {
            return Err(format!(
                "arena holds {} live nodes but only {} are reachable",
                self.arena.len(),
                live_nodes
            ));
        }
        Ok(())
    }

    fn check_owners(&self, intervals: &Held<'_, K>) -> Result<(), String> {
        // Every finite endpoint of every interval must be owned at the
        // node holding that value.
        for (&raw, iv) in intervals {
            let id = IntervalId(raw);
            if let Some(lo) = iv.lo().value() {
                let n = self
                    .find_node(lo)
                    .ok_or_else(|| format!("{id}: no node for lo endpoint {lo:?}"))?;
                if !self.arena.cold(n).owns(End::Lo, id) {
                    return Err(format!("{id}: lo endpoint {lo:?} not owned"));
                }
            }
            if let Some(hi) = iv.hi().value() {
                let n = self
                    .find_node(hi)
                    .ok_or_else(|| format!("{id}: no node for hi endpoint {hi:?}"))?;
                if !self.arena.cold(n).owns(End::Hi, id) {
                    return Err(format!("{id}: hi endpoint {hi:?} not owned"));
                }
            }
        }
        // Conversely: every owner entry corresponds to a live interval
        // with that endpoint value, and every node is owned by someone
        // (otherwise it should have been deleted).
        for (nid, node) in self.arena.iter() {
            let cold = self.arena.cold(nid);
            if !cold.has_owners() {
                return Err(format!("orphan endpoint node {:?}", node.value));
            }
            for id in cold.owners(End::Lo) {
                match intervals.get(&id.0) {
                    None => return Err(format!("lo owner {id} is not a live interval")),
                    Some(iv) => {
                        if iv.lo().value() != Some(&node.value) {
                            return Err(format!(
                                "lo owner {id} does not start at {:?}",
                                node.value
                            ));
                        }
                    }
                }
            }
            for id in cold.owners(End::Hi) {
                match intervals.get(&id.0) {
                    None => return Err(format!("hi owner {id} is not a live interval")),
                    Some(iv) => {
                        if iv.hi().value() != Some(&node.value) {
                            return Err(format!("hi owner {id} does not end at {:?}", node.value));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
