// guard-fixture: path=crates/ibs/src/shell.rs
// The owning IBS-tree whose interval table no longer hashes with
// `IdMap`.

pub struct IbsTree<K> {
    core: IbsCore<K>,
    pub(crate) intervals: Vec<(u32, Interval<K>)>,
}

pub struct IbsCore<K>(K);
pub struct Interval<K>(K);
