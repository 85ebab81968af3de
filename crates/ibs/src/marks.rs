//! Mark sets: the `<`, `=`, `>` slots of IBS-tree nodes.
//!
//! The paper's analysis (§5.1) assumes mark sets are "maintained using
//! auxiliary binary search trees" so that membership and update cost
//! `O(log N)`. We keep each slot a sorted, duplicate-free run of ids with
//! binary search instead: identical asymptotics for lookup, and far
//! better constants at the set sizes that occur. On `bench::stab_shape`'s
//! trees (`match_stab` in miniature) a match's four stabs collect 4.0
//! non-empty slots, and 83.5% of them hold one id, 12.5% two
//! (EXPERIMENTS.md "PR 27"). So a node keeps each slot's smallest id
//! inline ([`Marks`]) and only the rest in a heap spill shared by its
//! three slots: a one-mark slot costs no load beyond the node's own
//! cache line.
//!
//! [`MarkSet`] is the same sorted set as a standalone public type, for
//! structures whose slots are not packed into a node
//! (`altindex::skiplist`).

use std::num::NonZeroU8;

use interval::IntervalId;

/// Which of a node's three mark slots a mark lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// The `<` slot: the interval covers every value that would be
    /// inserted into the node's left subtree.
    Less,
    /// The `=` slot: the interval contains the node's value.
    Eq,
    /// The `>` slot: the interval covers every value that would be
    /// inserted into the node's right subtree.
    Greater,
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Less => write!(f, "<"),
            Slot::Eq => write!(f, "="),
            Slot::Greater => write!(f, ">"),
        }
    }
}

/// The three mark slots of one IBS-tree node, in 24 bytes.
///
/// Each slot's smallest id sits inline in `first`; the slot's other ids,
/// ascending, sit in `spill`, one heap block shared by all three slots
/// and allocated only while some slot holds two or more ids. Which slots
/// hold an inline id is a bit in `present`, not a sentinel id, so every
/// `IntervalId` — `u32::MAX` included — is a legal mark.
#[derive(Debug, Clone)]
pub(crate) struct Marks {
    first: [IntervalId; 3],
    /// Bit `s` is set while slot `s` is non-empty; the bits of
    /// [`EMPTY`] are always set, so the byte is never zero. That niche
    /// is what lets an arena slot `Option<Node<K>>` cost no byte over
    /// `Node<K>`, whatever the key type.
    present: NonZeroU8,
    spill: Option<Box<[Vec<IntervalId>; 3]>>,
}

/// [`Marks::present`] with no slot set.
const EMPTY: NonZeroU8 = NonZeroU8::new(0x80).expect("0x80 is not zero");

impl Marks {
    /// Three empty slots.
    pub(crate) const fn new() -> Self {
        Marks {
            first: [IntervalId(0); 3],
            present: EMPTY,
            spill: None,
        }
    }

    #[inline]
    fn has(&self, slot: Slot) -> bool {
        self.present.get() & (1 << slot as u8) != 0
    }

    /// The slot's ids after the first (empty without a spill).
    #[inline]
    fn rest(&self, slot: Slot) -> &[IntervalId] {
        match &self.spill {
            Some(spill) => &spill[slot as usize],
            None => &[],
        }
    }

    /// Inserts `id` into `slot`; returns `true` if it was not already
    /// present.
    pub(crate) fn insert(&mut self, slot: Slot, id: IntervalId) -> bool {
        let s = slot as usize;
        if !self.has(slot) {
            self.first[s] = id;
            self.present |= 1 << s;
            return true;
        }
        let first = self.first[s];
        if id == first {
            return false;
        }
        // A duplicate is already in a non-empty spill, so a spill
        // created here always receives an id.
        let rest = &mut self.spill.get_or_insert_with(Box::default)[s];
        if id < first {
            rest.insert(0, first);
            self.first[s] = id;
            return true;
        }
        match rest.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                rest.insert(pos, id);
                true
            }
        }
    }

    /// Removes `id` from `slot`; returns `true` if it was present.
    pub(crate) fn remove(&mut self, slot: Slot, id: IntervalId) -> bool {
        let s = slot as usize;
        if !self.has(slot) {
            return false;
        }
        let spill = self.spill.as_mut().map(|spill| &mut spill[s]);
        if id == self.first[s] {
            match spill.filter(|rest| !rest.is_empty()) {
                Some(rest) => self.first[s] = rest.remove(0),
                None => self.present = EMPTY | (self.present.get() & !(1 << s)),
            }
        } else {
            let Some(rest) = spill else {
                return false;
            };
            let Ok(pos) = rest.binary_search(&id) else {
                return false;
            };
            rest.remove(pos);
        }
        if self
            .spill
            .as_ref()
            .is_some_and(|spill| spill.iter().all(Vec::is_empty))
        {
            self.spill = None;
        }
        true
    }

    /// Membership test.
    pub(crate) fn contains(&self, slot: Slot, id: IntervalId) -> bool {
        self.has(slot)
            && (id == self.first[slot as usize] || self.rest(slot).binary_search(&id).is_ok())
    }

    /// Number of marks in `slot`.
    #[inline]
    pub(crate) fn len(&self, slot: Slot) -> usize {
        usize::from(self.has(slot)) + self.rest(slot).len()
    }

    /// Number of marks across the three slots.
    pub(crate) fn total(&self) -> usize {
        SLOTS.iter().map(|&slot| self.len(slot)).sum()
    }

    /// Are all three slots empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.present == EMPTY
    }

    /// Iterates `slot`'s ids in ascending order.
    pub(crate) fn iter(&self, slot: Slot) -> impl Iterator<Item = IntervalId> + '_ {
        let first = self.has(slot).then_some(self.first[slot as usize]);
        first.into_iter().chain(self.rest(slot).iter().copied())
    }

    /// Appends `slot`'s inline id to `out`, if the slot holds one: the
    /// stab hot path, without a branch on the slot. While `out` has room
    /// the id is written whether or not the slot holds it and the length
    /// then moves by the present bit; a full `out` grows only for an id
    /// the slot holds.
    #[inline(always)]
    pub(crate) fn first_into(&self, slot: Slot, out: &mut Vec<IntervalId>) {
        let len = out.len();
        if len < out.capacity() || self.has(slot) {
            out.push(self.first[slot as usize]);
            out.truncate(len + usize::from(self.has(slot)));
        }
    }

    /// Appends `slot`'s ids after the first to `out` (none without a
    /// spill). A stab reads these last: they sit behind one more load.
    #[inline]
    pub(crate) fn spill_into(&self, slot: Slot, out: &mut Vec<IntervalId>) {
        let rest = self.rest(slot);
        if !rest.is_empty() {
            out.extend_from_slice(rest);
        }
    }

    /// Does some slot hold more than one id?
    #[inline(always)]
    pub(crate) fn has_spill(&self) -> bool {
        self.spill.is_some()
    }

    /// Appends `slot`'s ids to `out`.
    #[cfg(test)]
    fn extend_into(&self, slot: Slot, out: &mut Vec<IntervalId>) {
        self.first_into(slot, out);
        self.spill_into(slot, out);
    }

    /// Heap bytes behind the slots: the spill block and its three
    /// buffers at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.spill.as_ref().map_or(0, |spill| {
            let ids: usize = spill.iter().map(Vec::capacity).sum();
            size_of::<[Vec<IntervalId>; 3]>() + ids * size_of::<IntervalId>()
        })
    }
}

/// The three slots in index order.
pub(crate) const SLOTS: [Slot; 3] = [Slot::Less, Slot::Eq, Slot::Greater];

/// A sorted, duplicate-free set of interval identifiers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MarkSet {
    ids: Vec<IntervalId>,
}

impl MarkSet {
    /// An empty set.
    pub const fn new() -> Self {
        MarkSet { ids: Vec::new() }
    }

    /// Inserts `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: IntervalId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: IntervalId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, id: IntervalId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of marks in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = IntervalId> + '_ {
        self.ids.iter().copied()
    }

    /// The ids as a slice (sorted ascending).
    pub fn as_slice(&self) -> &[IntervalId] {
        &self.ids
    }

    /// Appends all ids to `out` (a stab's hot path: one extend per
    /// visited slot, no per-id branching).
    #[inline]
    pub fn extend_into(&self, out: &mut Vec<IntervalId>) {
        out.extend_from_slice(&self.ids);
    }
}

impl FromIterator<IntervalId> for MarkSet {
    fn from_iter<T: IntoIterator<Item = IntervalId>>(iter: T) -> Self {
        let mut ids: Vec<IntervalId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        MarkSet { ids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn id(n: u32) -> IntervalId {
        IntervalId(n)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = MarkSet::new();
        assert!(s.insert(id(5)));
        assert!(s.insert(id(1)));
        assert!(s.insert(id(3)));
        assert!(!s.insert(id(3)), "duplicate insert is a no-op");
        assert_eq!(s.len(), 3);
        assert!(s.contains(id(1)));
        assert!(!s.contains(id(2)));
        assert!(s.remove(id(3)));
        assert!(!s.remove(id(3)));
        assert_eq!(s.as_slice(), &[id(1), id(5)]);
    }

    #[test]
    fn stays_sorted() {
        let mut s = MarkSet::new();
        for n in [9, 2, 7, 4, 0, 11] {
            s.insert(id(n));
        }
        let v: Vec<u32> = s.iter().map(|i| i.0).collect();
        assert_eq!(v, vec![0, 2, 4, 7, 9, 11]);
    }

    #[test]
    fn from_iter_dedups() {
        let s: MarkSet = [id(3), id(1), id(3), id(2)].into_iter().collect();
        assert_eq!(s.as_slice(), &[id(1), id(2), id(3)]);
    }

    /// One step of the slot property: an op on a slot, with ids drawn
    /// from a small range plus the extremes, so repeats, removals of
    /// absent ids and new minima are common.
    #[derive(Debug, Clone)]
    enum SlotOp {
        Insert(usize, IntervalId),
        Remove(usize, IntervalId),
    }

    fn arb_id() -> impl Strategy<Value = IntervalId> {
        prop_oneof![
            6 => (0u32..12).prop_map(IntervalId),
            1 => Just(IntervalId(0)),
            1 => Just(IntervalId(u32::MAX)),
        ]
    }

    fn arb_slot_ops() -> impl Strategy<Value = Vec<SlotOp>> {
        let op = prop_oneof![
            3 => (0usize..3, arb_id()).prop_map(|(s, id)| SlotOp::Insert(s, id)),
            2 => (0usize..3, arb_id()).prop_map(|(s, id)| SlotOp::Remove(s, id)),
        ];
        prop::collection::vec(op, 1..80)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Marks` in lockstep with three `BTreeSet`s: every op's answer,
        /// then per slot `contains` over the id range, in-order
        /// iteration, `extend_into` and `len`; and the spill exists
        /// exactly while some slot holds two or more ids.
        #[test]
        fn marks_agree_with_a_btreeset_per_slot(ops in arb_slot_ops()) {
            let mut marks = Marks::new();
            let mut model: [BTreeSet<IntervalId>; 3] = Default::default();
            for op in ops {
                match op {
                    SlotOp::Insert(s, id) => {
                        prop_assert_eq!(marks.insert(SLOTS[s], id), model[s].insert(id));
                    }
                    SlotOp::Remove(s, id) => {
                        prop_assert_eq!(marks.remove(SLOTS[s], id), model[s].remove(&id));
                    }
                }
                for (slot, set) in SLOTS.into_iter().zip(&model) {
                    let want: Vec<IntervalId> = set.iter().copied().collect();
                    prop_assert_eq!(marks.iter(slot).collect::<Vec<_>>(), want.clone());
                    let mut out = vec![IntervalId(7)];
                    marks.extend_into(slot, &mut out);
                    prop_assert_eq!(&out[1..], &want[..]);
                    prop_assert_eq!(marks.len(slot), set.len());
                    for id in (0u32..12).chain([u32::MAX]).map(IntervalId) {
                        prop_assert_eq!(marks.contains(slot, id), set.contains(&id));
                    }
                }
                prop_assert_eq!(marks.total(), model.iter().map(BTreeSet::len).sum::<usize>());
                prop_assert_eq!(marks.is_empty(), model.iter().all(BTreeSet::is_empty));
                prop_assert_eq!(marks.has_spill(), model.iter().any(|set| set.len() >= 2));
            }
        }
    }

    #[test]
    fn extend_into_appends() {
        let s: MarkSet = [id(2), id(1)].into_iter().collect();
        let mut out = vec![id(9)];
        s.extend_into(&mut out);
        assert_eq!(out, vec![id(9), id(1), id(2)]);
    }
}
