// srclint-fixture: crate=predindex section=src
// A fixture, not compiled: raw shard-lock acquisition and multiple
// guards live in one fn.

struct M {
    shards: Vec<std::sync::RwLock<i32>>,
}

impl M {
    fn lock_read(&self, sid: usize) -> std::sync::RwLockReadGuard<'_, i32> {
        self.shards[sid].read().expect("poisoned")
    }

    fn raw_acquisition(&self, sid: usize) -> i32 {
        *self.shards[sid].read().expect("poisoned")
    }

    fn two_guards(&self, a: usize, b: usize) -> i32 {
        let ga = self.lock_read(a);
        let gb = self.lock_read(b);
        *ga + *gb
    }
}
