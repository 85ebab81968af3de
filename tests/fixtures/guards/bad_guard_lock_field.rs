// guard-fixture: path=crates/rules/src/bad_guard_lock_field.rs
// A new lock field, by either type, fails the row; a kept one does not.
use std::sync::{Mutex, RwLock};

pub struct Engine {
    ledger: Mutex<Ledger>,
    pending: Mutex<Vec<u32>>,
    pub(crate) names: Arc<RwLock<BTreeMap<u32, String>>>,
}
