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
//! It also cross-checks the placement registry against a full arena scan,
//! verifies BST order via descent fences, AVL height/balance bookkeeping,
//! and endpoint-ownership accounting.

use crate::arena::{End, NodeId};
use crate::marks::{Slot, SLOTS};
use crate::tree::{BalanceMode, IbsTree};
use interval::IntervalId;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;

impl<K: Ord + Clone + Debug> IbsTree<K> {
    /// Verifies every structural and semantic invariant, returning a
    /// description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_registry()?;
        self.check_universal()?;
        self.check_structure_and_marks()?;
        self.check_owners()?;
        Ok(())
    }

    /// Panicking wrapper for use in tests.
    #[track_caller]
    pub fn assert_invariants(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("IBS-tree invariant violated: {e}");
        }
    }

    fn check_registry(&self) -> Result<(), String> {
        // id → its non-empty set of (node, slot index) placements.
        type Places = HashMap<u32, HashSet<(u32, u8)>>;
        let mut from_scan = Places::new();
        for (nid, node) in self.arena.iter() {
            for slot in SLOTS {
                for id in node.marks.iter(slot) {
                    from_scan
                        .entry(id.0)
                        .or_default()
                        .insert((nid.0, slot as u8));
                }
            }
        }
        let from_registry: Places = self
            .placements
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&id, v)| (id, v.iter().map(|&(n, s)| (n.0, s as u8)).collect()))
            .collect();
        if from_scan != from_registry {
            return Err(format!(
                "placement registry out of sync: scan={from_scan:?} registry={from_registry:?}"
            ));
        }
        let placed: usize = self.placements.values().map(Vec::len).sum();
        if placed != self.marker_count() {
            return Err(format!(
                "placement registry lists {placed} placements for {} marks",
                self.marker_count()
            ));
        }
        for id in from_scan.keys() {
            if !self.intervals.contains_key(id) {
                return Err(format!("marks exist for unknown interval #{id}"));
            }
        }
        if !self.scratch.is_empty() {
            return Err("an update left its scratch buffers non-empty".into());
        }
        Ok(())
    }

    fn check_universal(&self) -> Result<(), String> {
        let expect: HashSet<u32> = self
            .intervals
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

    fn check_structure_and_marks(&self) -> Result<(), String> {
        struct Frame<K> {
            node: NodeId,
            lo_fence: Option<K>,
            hi_fence: Option<K>,
            inherited: Vec<IntervalId>,
        }

        let mut live_nodes = 0usize;
        let mut stack: Vec<Frame<K>> = Vec::new();
        if !self.root_id().is_null() {
            stack.push(Frame {
                node: self.root_id(),
                lo_fence: None,
                hi_fence: None,
                inherited: Vec::new(),
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

            // Mark soundness.
            for id in n.marks.iter(Slot::Eq) {
                let iv = self
                    .intervals
                    .get(&id.0)
                    .ok_or_else(|| format!("= mark for unknown {id}"))?;
                if !iv.contains(&n.value) {
                    return Err(format!(
                        "unsound = mark: {id} ({iv:?}) does not contain {:?}",
                        n.value
                    ));
                }
            }
            for id in n.marks.iter(Slot::Less) {
                let iv = self
                    .intervals
                    .get(&id.0)
                    .ok_or_else(|| format!("< mark for unknown {id}"))?;
                if !iv.covers_open_range(f.lo_fence.as_ref(), Some(&n.value)) {
                    return Err(format!(
                        "unsound < mark: {id} ({iv:?}) does not cover ({:?}, {:?})",
                        f.lo_fence, n.value
                    ));
                }
            }
            for id in n.marks.iter(Slot::Greater) {
                let iv = self
                    .intervals
                    .get(&id.0)
                    .ok_or_else(|| format!("> mark for unknown {id}"))?;
                if !iv.covers_open_range(Some(&n.value), f.hi_fence.as_ref()) {
                    return Err(format!(
                        "unsound > mark: {id} ({iv:?}) does not cover ({:?}, {:?})",
                        n.value, f.hi_fence
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
            let expected: HashSet<u32> = self
                .intervals
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
                    let expected: HashSet<u32> = self
                        .intervals
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
                    stack.push(Frame {
                        node: child,
                        lo_fence: gap_lo,
                        hi_fence: gap_hi,
                        inherited,
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

    fn check_owners(&self) -> Result<(), String> {
        // Every finite endpoint of every interval must be owned at the
        // node holding that value.
        for (&raw, iv) in &self.intervals {
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
                match self.intervals.get(&id.0) {
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
                match self.intervals.get(&id.0) {
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
