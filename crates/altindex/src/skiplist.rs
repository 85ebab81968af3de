//! An interval skip list — the direction Hanson's group actually took
//! after this paper (Hanson & Johnson's interval skip list), included
//! here as the §6 "future work" extension.
//!
//! The encoding mirrors the IBS-tree's, transplanted onto a skip list:
//! distinct finite endpoint values are skip-list nodes; each *forward
//! edge* at each level carries a marker set asserting "this interval
//! covers the open key range the edge spans"; each node carries an `=`
//! marker set asserting containment of the node's value. A stabbing
//! query walks the ordinary skip-list search path, collecting the edge
//! markers of every drop-down edge (the edges that overshoot the query)
//! plus the `=` set on an exact hit — `O(log N + L)` expected.
//!
//! As in the IBS-tree implementation, deletions are made exact with a
//! placement registry instead of re-deriving marker positions, and node
//! insertion/removal repairs exactly the markers whose edges were split
//! or merged.

use crate::common::{BulkBuild, DynamicStabIndex, StabIndex};
use ibs::MarkSet;
use interval::{Interval, IntervalId};
use std::collections::HashMap;

const MAX_LEVEL: usize = 24;

/// Index of a node in the arena.
type NodeIx = u32;
const NIL: NodeIx = u32::MAX;

/// Where a marker lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// The forward edge leaving `src` at `level` (`src == NIL` encodes
    /// the head sentinel).
    Edge { src: NodeIx, level: u8 },
    /// The `=` set of a node.
    Eq { node: NodeIx },
}

struct Node<K> {
    value: K,
    /// Forward pointer per level (len = height).
    forward: Vec<NodeIx>,
    /// Marker set per outgoing edge, parallel to `forward`.
    edge_marks: Vec<MarkSet>,
    eq_marks: MarkSet,
    lo_owners: MarkSet,
    hi_owners: MarkSet,
}

/// Dynamic interval index over a skip list.
pub struct IntervalSkipList<K> {
    nodes: Vec<Option<Node<K>>>,
    free: Vec<NodeIx>,
    /// Head sentinel: forward pointers and edge marker sets per level.
    head_forward: Vec<NodeIx>,
    head_marks: Vec<MarkSet>,
    level: usize,
    intervals: HashMap<u32, Interval<K>>,
    placements: HashMap<u32, Vec<Place>>,
    universal: Vec<IntervalId>,
    /// SplitMix64 state for tower heights (deterministic per list).
    rng: u64,
}

impl<K: Ord + Clone> Default for IntervalSkipList<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> IntervalSkipList<K> {
    /// An empty list; tower heights come from a fixed seed, so every
    /// list built by the same operations has the same shape.
    pub fn new() -> Self {
        IntervalSkipList {
            nodes: Vec::new(),
            free: Vec::new(),
            head_forward: vec![NIL],
            head_marks: vec![MarkSet::new()],
            level: 1,
            intervals: HashMap::new(),
            placements: HashMap::new(),
            universal: Vec::new(),
            rng: 0x5eed_cafe,
        }
    }

    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_height(&mut self) -> usize {
        // p = 1/2 tower heights, capped.
        let r = self.next_rand();
        ((r.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    fn node(&self, ix: NodeIx) -> &Node<K> {
        self.nodes[ix as usize].as_ref().expect("dangling node")
    }

    fn node_mut(&mut self, ix: NodeIx) -> &mut Node<K> {
        self.nodes[ix as usize].as_mut().expect("dangling node")
    }

    /// A live node by index, skipping the bounds and liveness checks.
    ///
    /// The stab search touches one node per horizontal step across
    /// every level; this is the skip list's answer to the IBS-tree's
    /// arena fast path, so the baseline comparison measures the
    /// algorithms rather than one side's bounds checks.
    #[inline]
    fn node_unchecked(&self, ix: NodeIx) -> &Node<K> {
        debug_assert!(
            self.nodes.get(ix as usize).is_some_and(Option::is_some),
            "dangling node index"
        );
        // SAFETY: forward links and `head_forward` only ever hold
        // indices of live nodes — `ensure_node` hands out in-bounds
        // slots, and node removal splices the target out of every
        // tower before freeing its slot — and stab callers pass only
        // indices read from those links.
        unsafe {
            self.nodes
                .get_unchecked(ix as usize)
                .as_ref()
                .unwrap_unchecked()
        }
    }

    fn forward_of(&self, src: NodeIx, level: usize) -> NodeIx {
        if src == NIL {
            *self.head_forward.get(level).unwrap_or(&NIL)
        } else {
            let n = self.node(src);
            *n.forward.get(level).unwrap_or(&NIL)
        }
    }

    fn set_forward(&mut self, src: NodeIx, level: usize, dst: NodeIx) {
        if src == NIL {
            self.head_forward[level] = dst;
        } else {
            self.node_mut(src).forward[level] = dst;
        }
    }

    fn value_of(&self, ix: NodeIx) -> Option<&K> {
        if ix == NIL {
            None
        } else {
            Some(&self.node(ix).value)
        }
    }

    // --- marker bookkeeping -------------------------------------------

    fn add_edge_mark(&mut self, src: NodeIx, level: usize, id: IntervalId) {
        let set = if src == NIL {
            &mut self.head_marks[level]
        } else {
            &mut self.node_mut(src).edge_marks[level]
        };
        if set.insert(id) {
            self.placements.entry(id.0).or_default().push(Place::Edge {
                src,
                level: level as u8,
            });
        }
    }

    fn add_eq_mark(&mut self, node: NodeIx, id: IntervalId) {
        if self.node_mut(node).eq_marks.insert(id) {
            self.placements
                .entry(id.0)
                .or_default()
                .push(Place::Eq { node });
        }
    }

    fn clear_marks(&mut self, id: IntervalId) {
        let Some(places) = self.placements.remove(&id.0) else {
            return;
        };
        for p in places {
            let removed = match p {
                Place::Edge { src, level } => {
                    if src == NIL {
                        self.head_marks[level as usize].remove(id)
                    } else {
                        self.node_mut(src).edge_marks[level as usize].remove(id)
                    }
                }
                Place::Eq { node } => self.node_mut(node).eq_marks.remove(id),
            };
            debug_assert!(removed, "skip-list registry pointed at missing marker");
        }
    }

    // --- structural operations ----------------------------------------

    /// Finds the node holding exactly `v`.
    fn find_node(&self, v: &K) -> Option<NodeIx> {
        let mut cur = NIL;
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward_of(cur, l);
                match self.value_of(next) {
                    Some(nv) if nv < v => cur = next,
                    Some(nv) if nv == v => return Some(next),
                    _ => break,
                }
            }
        }
        None
    }

    /// Finds-or-creates the node for `v`, repairing markers on any edge
    /// the new tower splits.
    fn ensure_node(&mut self, v: K) -> NodeIx {
        // Record the predecessor at every current level.
        let mut preds = vec![NIL; self.level];
        let mut cur = NIL;
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward_of(cur, l);
                match self.value_of(next) {
                    Some(nv) if *nv < v => cur = next,
                    Some(nv) if *nv == v => return next,
                    _ => break,
                }
            }
            preds[l] = cur;
        }

        let height = self.random_height();
        while self.level < height {
            self.head_forward.push(NIL);
            self.head_marks.push(MarkSet::new());
            preds.push(NIL);
            self.level += 1;
        }

        // Markers on every edge about to be split must be re-placed once
        // the node is linked in.
        let mut repair: Vec<IntervalId> = Vec::new();
        for (l, &p) in preds.iter().enumerate().take(height) {
            let set = if p == NIL {
                &self.head_marks[l]
            } else {
                &self.node(p).edge_marks[l]
            };
            for id in set.iter() {
                if !repair.contains(&id) {
                    repair.push(id);
                }
            }
        }
        for &id in &repair {
            self.clear_marks(id);
        }

        let ix = if let Some(ix) = self.free.pop() {
            ix
        } else {
            self.nodes.push(None);
            (self.nodes.len() - 1) as NodeIx
        };
        let mut forward = Vec::with_capacity(height);
        for (l, &p) in preds.iter().enumerate().take(height) {
            forward.push(self.forward_of(p, l));
        }
        self.nodes[ix as usize] = Some(Node {
            value: v,
            forward,
            edge_marks: vec![MarkSet::new(); height],
            eq_marks: MarkSet::new(),
            lo_owners: MarkSet::new(),
            hi_owners: MarkSet::new(),
        });
        for (l, &p) in preds.iter().enumerate().take(height) {
            self.set_forward(p, l, ix);
        }

        for id in repair {
            let iv = self.intervals[&id.0].clone();
            self.place_marks(id, &iv);
        }
        ix
    }

    /// Unlinks the (unowned) node holding `v`, repairing the markers of
    /// every interval with a marker on an adjacent edge or on the node.
    fn delete_value(&mut self, v: &K) {
        let mut preds = vec![NIL; self.level];
        let mut cur = NIL;
        let mut target = NIL;
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward_of(cur, l);
                match self.value_of(next) {
                    Some(nv) if nv < v => cur = next,
                    Some(nv) if nv == v => {
                        target = next;
                        break;
                    }
                    _ => break,
                }
            }
            preds[l] = cur;
        }
        assert!(target != NIL, "delete_value: value not present");
        let height = self.node(target).forward.len();

        let mut repair: Vec<IntervalId> = Vec::new();
        let note = |set: &MarkSet, repair: &mut Vec<IntervalId>| {
            for id in set.iter() {
                if !repair.contains(&id) {
                    repair.push(id);
                }
            }
        };
        for (l, &p) in preds.iter().enumerate().take(height) {
            // Incoming edge at level l.
            let set = if p == NIL {
                &self.head_marks[l]
            } else {
                &self.node(p).edge_marks[l]
            };
            note(set, &mut repair);
            // Outgoing edge at level l.
            note(&self.node(target).edge_marks[l], &mut repair);
        }
        note(&self.node(target).eq_marks, &mut repair);
        for &id in &repair {
            self.clear_marks(id);
        }

        for (l, &p) in preds.iter().enumerate().take(height) {
            let next = self.node(target).forward[l];
            self.set_forward(p, l, next);
        }
        let dead = self.nodes[target as usize].take().expect("double free");
        self.free.push(target);
        debug_assert!(dead.eq_marks.is_empty());
        debug_assert!(dead.edge_marks.iter().all(|m| m.is_empty()));
        debug_assert!(dead.lo_owners.is_empty() && dead.hi_owners.is_empty());

        // Shrink empty top levels.
        while self.level > 1 && self.head_forward[self.level - 1] == NIL {
            self.head_forward.pop();
            let dropped = self.head_marks.pop().expect("parallel arrays");
            debug_assert!(dropped.is_empty(), "marker on an empty top level");
            self.level -= 1;
        }

        for id in repair {
            let iv = self.intervals[&id.0].clone();
            self.place_marks(id, &iv);
        }
    }

    // --- marker placement ----------------------------------------------

    /// Canonical top-down placement, the skip-list analogue of the
    /// IBS-tree's fragment decomposition: starting from the top level,
    /// every edge whose open span the interval fully covers gets an edge
    /// marker; partially overlapped edges are descended into one level;
    /// every node stepped onto whose value the interval contains gets an
    /// `=` marker.
    fn place_marks(&mut self, id: IntervalId, iv: &Interval<K>) {
        // Work list of (level, from, until): walk level `level` starting
        // at `from` (NIL = head) up to — exclusive — node `until`.
        let mut work: Vec<(usize, NodeIx, NodeIx)> = vec![(self.level - 1, NIL, NIL)];
        while let Some((level, from, until)) = work.pop() {
            let mut cur = from;
            loop {
                let next = self.forward_of(cur, level);
                debug_assert!(
                    until == NIL || next != NIL,
                    "walk ran off the list before reaching its bound"
                );
                let span_lo = self.value_of(cur).cloned();
                let span_hi = self.value_of(next).cloned();
                if iv.covers_open_range(span_lo.as_ref(), span_hi.as_ref()) {
                    self.add_edge_mark(cur, level, id);
                } else if level > 0 && iv.overlaps_open_range(span_lo.as_ref(), span_hi.as_ref()) {
                    work.push((level - 1, cur, next));
                }
                if next == until {
                    break;
                }
                // Step onto `next`.
                if iv.contains(&self.node(next).value) {
                    self.add_eq_mark(next, id);
                }
                cur = next;
            }
        }
    }
}

impl<K: Ord + Clone + std::fmt::Debug> IntervalSkipList<K> {
    /// Verifies marker soundness and completeness plus registry and
    /// ownership accounting (the skip-list analogue of
    /// `IbsTree::check_invariants`). Test support.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Registry ⇔ full scan.
        let mut scanned: HashMap<u32, Vec<Place>> = HashMap::new();
        let note = |id: IntervalId, place: Place, m: &mut HashMap<u32, Vec<Place>>| {
            m.entry(id.0).or_default().push(place);
        };
        for (l, set) in self.head_marks.iter().enumerate() {
            for id in set.iter() {
                note(
                    id,
                    Place::Edge {
                        src: NIL,
                        level: l as u8,
                    },
                    &mut scanned,
                );
            }
        }
        for (ix, n) in self.nodes.iter().enumerate() {
            let Some(n) = n else { continue };
            for (l, set) in n.edge_marks.iter().enumerate() {
                for id in set.iter() {
                    note(
                        id,
                        Place::Edge {
                            src: ix as NodeIx,
                            level: l as u8,
                        },
                        &mut scanned,
                    );
                }
            }
            for id in n.eq_marks.iter() {
                note(id, Place::Eq { node: ix as NodeIx }, &mut scanned);
            }
        }
        let norm = |m: &HashMap<u32, Vec<Place>>| -> HashMap<u32, Vec<(u32, u8, bool)>> {
            m.iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(&id, v)| {
                    let mut v: Vec<(u32, u8, bool)> = v
                        .iter()
                        .map(|p| match *p {
                            Place::Edge { src, level } => (src, level, false),
                            Place::Eq { node } => (node, 0, true),
                        })
                        .collect();
                    v.sort_unstable();
                    (id, v)
                })
                .collect()
        };
        if norm(&scanned) != norm(&self.placements) {
            return Err("skip-list registry out of sync with marker scan".into());
        }

        // Marker soundness.
        for l in 0..self.level {
            let mut cur = NIL;
            loop {
                let next = self.forward_of(cur, l);
                let set = if cur == NIL {
                    &self.head_marks[l]
                } else {
                    &self.node(cur).edge_marks[l]
                };
                let (lo, hi) = (self.value_of(cur), self.value_of(next));
                for id in set.iter() {
                    let iv = self
                        .intervals
                        .get(&id.0)
                        .ok_or_else(|| format!("marker for unknown {id}"))?;
                    if !iv.covers_open_range(lo, hi) {
                        return Err(format!(
                            "unsound edge marker {id} on level {l} ({lo:?}, {hi:?})"
                        ));
                    }
                }
                if next == NIL {
                    break;
                }
                cur = next;
            }
        }
        for n in self.nodes.iter().flatten() {
            for id in n.eq_marks.iter() {
                let iv = self
                    .intervals
                    .get(&id.0)
                    .ok_or_else(|| format!("eq marker for unknown {id}"))?;
                if !iv.contains(&n.value) {
                    return Err(format!("unsound eq marker {id} at {:?}", n.value));
                }
            }
        }

        // Completeness at every node value and every level-0 gap.
        let mut cur = NIL;
        loop {
            let next = self.forward_of(cur, 0);
            // The gap (cur, next).
            let collected = self.simulate_gap_search(self.value_of(cur).cloned());
            let expected: Vec<u32> = self
                .intervals
                .iter()
                .filter(|(_, iv)| iv.covers_open_range(self.value_of(cur), self.value_of(next)))
                .map(|(&id, _)| id)
                .collect();
            let mut c: Vec<u32> = collected.iter().map(|i| i.0).collect();
            let mut e = expected;
            c.sort_unstable();
            c.dedup();
            e.sort_unstable();
            if c != e {
                return Err(format!(
                    "incomplete gap ({:?}, {:?}): got {c:?}, want {e:?}",
                    self.value_of(cur),
                    self.value_of(next)
                ));
            }
            if next == NIL {
                break;
            }
            // The node value itself.
            let v = self.node(next).value.clone();
            let mut got: Vec<u32> = self.stab(&v).iter().map(|i| i.0).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = self
                .intervals
                .iter()
                .filter(|(_, iv)| iv.contains(&v))
                .map(|(&id, _)| id)
                .collect();
            want.sort_unstable();
            if got != want {
                return Err(format!(
                    "incomplete at value {v:?}: got {got:?}, want {want:?}"
                ));
            }
            cur = next;
        }

        // Ownership accounting.
        for (&raw, iv) in &self.intervals {
            let id = IntervalId(raw);
            if let Some(v) = iv.lo().value() {
                let n = self
                    .find_node(v)
                    .ok_or_else(|| format!("{id}: missing lo node"))?;
                if !self.node(n).lo_owners.contains(id) {
                    return Err(format!("{id}: lo endpoint unowned"));
                }
            }
            if let Some(v) = iv.hi().value() {
                let n = self
                    .find_node(v)
                    .ok_or_else(|| format!("{id}: missing hi node"))?;
                if !self.node(n).hi_owners.contains(id) {
                    return Err(format!("{id}: hi endpoint unowned"));
                }
            }
        }
        for n in self.nodes.iter().flatten() {
            if n.lo_owners.is_empty() && n.hi_owners.is_empty() {
                return Err(format!("orphan node {:?}", n.value));
            }
        }
        Ok(())
    }

    /// Panicking wrapper for tests.
    #[track_caller]
    pub fn assert_invariants(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("interval skip list invariant violated: {e}");
        }
    }

    /// Collects the markers a search would gather for a query landing in
    /// the level-0 gap just above `after` (`None` = before every node).
    fn simulate_gap_search(&self, after: Option<K>) -> Vec<IntervalId> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.universal);
        let mut cur = NIL;
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward_of(cur, l);
                let advance = match (self.value_of(next), &after) {
                    (Some(nv), Some(a)) => nv <= a,
                    (Some(_), None) => false,
                    (None, _) => false,
                };
                if advance {
                    cur = next;
                } else {
                    let set = if cur == NIL {
                        &self.head_marks[l]
                    } else {
                        &self.node(cur).edge_marks[l]
                    };
                    set.extend_into(&mut out);
                    break;
                }
            }
        }
        out
    }
}

impl<K: Ord + Clone> StabIndex<K> for IntervalSkipList<K> {
    fn stab_into(&self, x: &K, out: &mut Vec<IntervalId>) {
        out.extend_from_slice(&self.universal);
        let mut cur = NIL;
        for l in (0..self.level).rev() {
            loop {
                let next = self.forward_of(cur, l);
                match self.value_of(next) {
                    Some(nv) if nv < x => cur = next,
                    Some(nv) if nv == x => {
                        self.node_unchecked(next).eq_marks.extend_into(out);
                        return;
                    }
                    _ => {
                        // Drop-down edge: it spans x.
                        let set = if cur == NIL {
                            &self.head_marks[l]
                        } else {
                            &self.node_unchecked(cur).edge_marks[l]
                        };
                        set.extend_into(out);
                        break;
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.intervals.len()
    }
}

impl<K: Ord + Clone> DynamicStabIndex<K> for IntervalSkipList<K> {
    fn insert(&mut self, id: IntervalId, iv: Interval<K>) {
        assert!(
            !self.intervals.contains_key(&id.0),
            "duplicate interval id {id}"
        );
        self.intervals.insert(id.0, iv.clone());
        let lo_val = iv.lo().value().cloned();
        let hi_val = iv.hi().value().cloned();
        if lo_val.is_none() && hi_val.is_none() {
            self.universal.push(id);
            return;
        }
        if let Some(v) = lo_val {
            let n = self.ensure_node(v);
            self.node_mut(n).lo_owners.insert(id);
        }
        if let Some(v) = hi_val {
            let n = self.ensure_node(v);
            self.node_mut(n).hi_owners.insert(id);
        }
        self.place_marks(id, &iv);
    }

    fn remove(&mut self, id: IntervalId) -> Option<Interval<K>> {
        let iv = self.intervals.remove(&id.0)?;
        let lo_val = iv.lo().value().cloned();
        let hi_val = iv.hi().value().cloned();
        if lo_val.is_none() && hi_val.is_none() {
            self.universal.retain(|&u| u != id);
            return Some(iv);
        }
        self.clear_marks(id);
        if let Some(v) = &lo_val {
            let n = self.find_node(v).expect("lo endpoint node missing");
            self.node_mut(n).lo_owners.remove(id);
        }
        if let Some(v) = &hi_val {
            let n = self.find_node(v).expect("hi endpoint node missing");
            self.node_mut(n).hi_owners.remove(id);
        }
        let mut doomed: Vec<K> = Vec::new();
        for v in [&lo_val, &hi_val].into_iter().flatten() {
            if doomed.last() == Some(v) {
                continue;
            }
            let n = self.find_node(v).expect("endpoint node missing");
            let nn = self.node(n);
            if nn.lo_owners.is_empty() && nn.hi_owners.is_empty() {
                doomed.push(v.clone());
            }
        }
        for v in doomed {
            self.delete_value(&v);
        }
        Some(iv)
    }
}

impl<K: Ord + Clone> BulkBuild<K> for IntervalSkipList<K> {
    fn build(items: Vec<(IntervalId, Interval<K>)>) -> Self {
        let mut l = Self::new();
        for (id, iv) in items {
            l.insert(id, iv);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> IntervalId {
        IntervalId(n)
    }

    #[test]
    fn figure2_set() {
        let ivs = vec![
            (id(0), Interval::closed(9, 19)),
            (id(1), Interval::closed(2, 7)),
            (id(2), Interval::closed_open(1, 3)),
            (id(3), Interval::closed(17, 20)),
            (id(4), Interval::closed(7, 12)),
            (id(5), Interval::point(18)),
            (id(6), Interval::at_most(17)),
        ];
        let l = IntervalSkipList::build(ivs.clone());
        l.assert_invariants();
        for x in -2..25 {
            let mut got = l.stab(&x);
            got.sort();
            let mut want: Vec<IntervalId> = ivs
                .iter()
                .filter(|(_, iv)| iv.contains(&x))
                .map(|(i, _)| *i)
                .collect();
            want.sort();
            assert_eq!(got, want, "at {x}");
        }
    }

    #[test]
    fn insert_remove_cycles() {
        let mut l: IntervalSkipList<i32> = IntervalSkipList::new();
        for round in 0..10 {
            for i in 0..40u32 {
                let a = ((i * 17 + round * 7) % 200) as i32;
                l.insert(id(round * 100 + i), Interval::closed(a, a + 30));
            }
            for i in 0..40u32 {
                if i % 2 == 0 {
                    assert!(l.remove(id(round * 100 + i)).is_some());
                }
            }
        }
        assert_eq!(l.len(), 10 * 20);
        l.assert_invariants();
        // Cross-check against definition.
        for x in [-5, 0, 50, 100, 199, 230, 500] {
            let got = l.stab(&x).len();
            let want = l.intervals.values().filter(|iv| iv.contains(&x)).count();
            assert_eq!(got, want, "at {x}");
        }
    }

    #[test]
    fn unbounded_and_universal() {
        let mut l = IntervalSkipList::new();
        l.insert(id(0), Interval::<i32>::unbounded());
        l.insert(id(1), Interval::at_least(10));
        l.insert(id(2), Interval::less_than(10));
        let sorted = |l: &IntervalSkipList<i32>, x: i32| {
            let mut v = l.stab(&x);
            v.sort();
            v
        };
        assert_eq!(sorted(&l, 5), vec![id(0), id(2)]);
        assert_eq!(sorted(&l, 10), vec![id(0), id(1)]);
        assert_eq!(sorted(&l, 15), vec![id(0), id(1)]);
        l.remove(id(0)).unwrap();
        assert_eq!(sorted(&l, 5), vec![id(2)]);
    }
}
