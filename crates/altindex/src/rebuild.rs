//! A static structure behind the dynamic trait: every mutation
//! rebuilds it.
//!
//! This is the only way a [`BulkBuild`] structure can take on-line
//! updates, and it is the cost the paper holds against segment and
//! interval trees ("they do not allow dynamic insertion and deletion
//! of predicates"). The adapter lets the differential harness drive
//! them through [`DynamicStabIndex`] like every other backend, paying
//! that cost in the open.

use crate::common::{BulkBuild, DynamicStabIndex, StabIndex};
use interval::{Interval, IntervalId};

/// `T` plus the item list it was last built from.
#[derive(Debug, Clone)]
pub struct RebuildOnMutation<K, T> {
    items: Vec<(IntervalId, Interval<K>)>,
    built: T,
}

impl<K: Ord + Clone, T: BulkBuild<K>> BulkBuild<K> for RebuildOnMutation<K, T> {
    fn build(items: Vec<(IntervalId, Interval<K>)>) -> Self {
        RebuildOnMutation {
            built: T::build(items.clone()),
            items,
        }
    }
}

impl<K: Ord + Clone, T: StabIndex<K>> StabIndex<K> for RebuildOnMutation<K, T> {
    fn stab_into(&self, x: &K, out: &mut Vec<IntervalId>) {
        self.built.stab_into(x, out);
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

impl<K: Ord + Clone, T: BulkBuild<K> + StabIndex<K>> DynamicStabIndex<K>
    for RebuildOnMutation<K, T>
{
    fn insert(&mut self, id: IntervalId, iv: Interval<K>) {
        self.items.push((id, iv));
        self.built = T::build(self.items.clone());
    }

    fn remove(&mut self, id: IntervalId) -> Option<Interval<K>> {
        let pos = self.items.iter().position(|(i, _)| *i == id)?;
        let (_, iv) = self.items.remove(pos);
        self.built = T::build(self.items.clone());
        Some(iv)
    }
}
