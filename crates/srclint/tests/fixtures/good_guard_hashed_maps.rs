// srclint-fixture: path=crates/predindex/src/index.rs
// The dense shape: slots in slabs, ids mapped once, with `IdMap`'s one
// multiply. A `HashMap` named in prose is not a table.

use crate::slab::Slab;
use ibs::idmap::IdMap;

pub struct PredicateIndex {
    hot: Slab<Hot>,
    cold: Vec<Cold>,
    slot_of: IdMap<u32>,
    /// hot: HashMap<u32, Hot> was the shape before the slab.
    hotness: Vec<u8>,
}

pub struct Hot;
pub struct Cold;
