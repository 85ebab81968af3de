// guard-fixture: path=crates/ibs/src/tree.rs
// The IBS-tree core growing an id-keyed table beside its nodes and
// marks: a copy of each interval, and one of each interval's owners.

use crate::idmap::IdMap;
use std::collections::BTreeMap;

pub struct IbsCore<K> {
    pub(crate) arena: Vec<K>,
    intervals: IdMap<Interval<K>>,
    pub(crate) owners: BTreeMap<u32, NodeId>,
}

pub struct Interval<K>(K);
pub struct NodeId;
