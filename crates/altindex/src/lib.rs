//! # Alternative interval indexes
//!
//! The comparator structures the paper discusses alongside the IBS-tree
//! (§2, §4.1, and the comparison proposed as future work in §6), all
//! behind the common [`StabIndex`] trait so one differential harness and
//! one benchmark sweep cover every structure:
//!
//! | structure | dynamic? | paper role |
//! |---|---|---|
//! | [`NaiveIntervalList`] | yes | §2.1 sequential baseline; Fig. 9 comparison; test oracle |
//! | [`SegmentTree`] | no | §4.1 static comparator |
//! | [`CenteredIntervalTree`] | no | §4.1 static comparator |
//! | [`IntervalTreap`] | yes | §4.1 dynamic comparator (priority-search-tree stand-in) |
//! | [`IntervalSkipList`] | yes | §6 future-work direction (Hanson's own successor structure) |
//! | `ibs::IbsTree` | yes | the paper's contribution (implements [`StabIndex`] here) |

#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unreachable_pub)]

mod common;
mod interval_tree;
mod naive;
mod segment_tree;
mod skiplist;
mod treap;

pub use common::{BulkBuild, DynamicStabIndex, StabIndex};
pub use interval_tree::CenteredIntervalTree;
pub use naive::NaiveIntervalList;
pub use segment_tree::SegmentTree;
pub use skiplist::IntervalSkipList;
pub use treap::IntervalTreap;

use interval::{Interval, IntervalId};

impl<K: Ord + Clone> StabIndex<K> for ibs::IbsTree<K> {
    fn stab_into(&self, x: &K, out: &mut Vec<IntervalId>) {
        ibs::IbsTree::stab_into(self, x, out);
    }

    fn len(&self) -> usize {
        ibs::IbsTree::len(self)
    }
}

impl<K: Ord + Clone> DynamicStabIndex<K> for ibs::IbsTree<K> {
    fn insert(&mut self, id: IntervalId, iv: Interval<K>) {
        ibs::IbsTree::insert(self, id, iv).expect("duplicate interval id");
    }

    fn remove(&mut self, id: IntervalId) -> Option<Interval<K>> {
        ibs::IbsTree::remove(self, id)
    }
}

impl<K: Ord + Clone> BulkBuild<K> for ibs::IbsTree<K> {
    fn build(items: Vec<(IntervalId, Interval<K>)>) -> Self {
        let mut t = ibs::IbsTree::new();
        for (id, iv) in items {
            ibs::IbsTree::insert(&mut t, id, iv).expect("duplicate interval id");
        }
        t
    }
}
