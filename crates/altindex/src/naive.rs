//! The sequential-search baseline (§2.1 of the paper).
//!
//! "The system traverses a list of predicates sequentially, testing each
//! against the tuple. This has low overhead and works well for small
//! numbers of predicates, but clearly performs badly when the number of
//! predicates is large." — this is the comparison curve of Figure 9, and
//! the correctness oracle for every other structure.

use crate::common::{BulkBuild, DynamicStabIndex, StabIndex};
use interval::{Interval, IntervalId};

/// A flat list of `(id, interval)` pairs with linear-time stabbing.
#[derive(Debug, Clone, Default)]
pub struct NaiveIntervalList<K> {
    items: Vec<(IntervalId, Interval<K>)>,
}

impl<K: Ord + Clone> NaiveIntervalList<K> {
    /// The interval stored under `id`.
    pub fn get(&self, id: IntervalId) -> Option<&Interval<K>> {
        self.items.iter().find(|(i, _)| *i == id).map(|(_, iv)| iv)
    }
}

impl<K: Ord + Clone> StabIndex<K> for NaiveIntervalList<K> {
    fn stab_into(&self, x: &K, out: &mut Vec<IntervalId>) {
        for (id, iv) in &self.items {
            if iv.contains(x) {
                out.push(*id);
            }
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

impl<K: Ord + Clone> DynamicStabIndex<K> for NaiveIntervalList<K> {
    fn insert(&mut self, id: IntervalId, iv: Interval<K>) {
        debug_assert!(self.get(id).is_none(), "duplicate id {id}");
        self.items.push((id, iv));
    }

    fn remove(&mut self, id: IntervalId) -> Option<Interval<K>> {
        let pos = self.items.iter().position(|(i, _)| *i == id)?;
        Some(self.items.swap_remove(pos).1)
    }
}

impl<K: Ord + Clone> BulkBuild<K> for NaiveIntervalList<K> {
    fn build(items: Vec<(IntervalId, Interval<K>)>) -> Self {
        NaiveIntervalList { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut l = NaiveIntervalList::default();
        l.insert(IntervalId(1), Interval::closed(1, 5));
        l.insert(IntervalId(2), Interval::point(3));
        assert_eq!(l.len(), 2);
        let mut hits = l.stab(&3);
        hits.sort();
        assert_eq!(hits, vec![IntervalId(1), IntervalId(2)]);
        assert_eq!(l.stab(&6), vec![]);
        assert_eq!(l.remove(IntervalId(1)), Some(Interval::closed(1, 5)));
        assert_eq!(l.remove(IntervalId(1)), None);
        assert_eq!(l.stab(&3), vec![IntervalId(2)]);
    }
}
