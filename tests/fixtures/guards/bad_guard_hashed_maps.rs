// guard-fixture: path=crates/predindex/src/index.rs
// PREDICATES as SipHash maps, and the baselines' whole-conjunction test
// on the match path.

use std::collections::HashMap;

pub struct PredicateIndex {
    hot: HashMap<u32, Hot>,
    pub(crate) cold: std::collections::BTreeMap<u32, Cold>,
    store: PredicateStore,
}

pub struct Hot;
pub struct Cold;
pub struct PredicateStore;
