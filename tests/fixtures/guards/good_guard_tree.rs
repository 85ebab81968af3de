// guard-fixture: path=crates/ibs/src/tree.rs
// The IBS-tree core: nodes, marks and owners, and a remove lent the
// intervals it repairs. A remove walks the endpoint paths, so a walk
// hands back `(NodeId, Slot)` pairs without any table of them.

pub struct IbsCore<K> {
    pub(crate) arena: Vec<K>,
    pub(crate) universal: Vec<u32>,
    scratch: Vec<u32>,
    len: usize,
}

fn endpoint(core: &IbsCore<u32>, lend: impl Fn(u32) -> u32) -> (NodeId, Slot) {
    let _ = (core, lend(0));
    (NodeId, Slot)
}

pub struct NodeId;
pub struct Slot;
