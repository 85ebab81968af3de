// guard-fixture: path=crates/ibs/src/shell.rs
// The owning IBS-tree: a core plus one interval table hashed by
// `IdMap`, lent to the core on remove.

use crate::idmap::IdMap;

pub struct IbsTree<K> {
    pub(crate) core: IbsCore<K>,
    pub(crate) intervals: IdMap<Interval<K>>,
}

pub struct IbsCore<K>(K);
pub struct Interval<K>(K);
