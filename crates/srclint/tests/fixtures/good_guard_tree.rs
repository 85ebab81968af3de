// srclint-fixture: path=crates/ibs/src/tree.rs
// Nodes, their marks and one interval table hashed by `IdMap`. A remove
// walks the endpoint paths, so a walk hands back `(NodeId, Slot)` pairs
// without any table of them.

use crate::idmap::IdMap;

pub struct IbsTree<K> {
    pub(crate) intervals: IdMap<Interval<K>>,
    scratch: Vec<u32>,
}

fn endpoint(tree: &IbsTree<u32>) -> (NodeId, Slot) {
    let _ = tree;
    (NodeId, Slot)
}

pub struct Interval<K>(K);
pub struct NodeId;
pub struct Slot;
