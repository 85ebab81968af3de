// guard-fixture: path=crates/ibs/src/tree.rs
// The IBS-tree with a SipHash interval table and an id -> (node, slot)
// placement registry beside its marks.

use std::collections::HashMap;

pub struct IbsTree<K> {
    pub(crate) intervals: HashMap<u32, K>,
    pub(crate) placements: Vec<Vec<(NodeId, Slot)>>,
}

pub struct NodeId;
pub struct Slot;
