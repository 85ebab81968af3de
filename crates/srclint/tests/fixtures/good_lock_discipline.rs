// srclint-fixture: crate=predindex section=src
// A fixture, not compiled: the blessed patterns — helpers own the raw
// acquisition, callers take one guard per fn, and the ordered batch
// path declares itself.

struct M {
    shards: Vec<std::sync::RwLock<i32>>,
}

impl M {
    fn lock_read(&self, sid: usize) -> std::sync::RwLockReadGuard<'_, i32> {
        self.shards[sid].read().expect("poisoned")
    }

    fn lock_write(&self, sid: usize) -> std::sync::RwLockWriteGuard<'_, i32> {
        self.shards[sid].write().expect("poisoned")
    }

    fn one_guard(&self, sid: usize) -> i32 {
        *self.lock_read(sid)
    }

    fn ordered_batch(&self, sids: &[usize]) -> i32 {
        let mut total = 0;
        let first = self.lock_read(0);
        for &sid in sids {
            // srclint:allow(lock-discipline, lock-order): this is the ordered batch-acquisition path — sids are sorted ascending
            total += *self.lock_write(sid);
        }
        total + *first
    }

    fn other_rwlocks_are_out_of_scope(cache: &std::sync::RwLock<i32>) -> i32 {
        *cache.read().expect("not a shard lock")
    }

    // The scoped fan-out shape: the enclosing fn takes one guard, and
    // each scoped-thread closure takes its own. The closure bodies
    // run on their own schedule, so their acquisitions must not be
    // attributed to (or counted against) the enclosing fn.
    fn fan_out_readers(&self, chunks: &[usize]) -> i32 {
        let total = *self.lock_read(0);
        std::thread::scope(|s| {
            for &sid in chunks {
                s.spawn(move || {
                    let _guard = self.lock_read(sid);
                });
            }
        });
        total
    }
}
