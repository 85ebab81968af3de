// guard-fixture: path=crates/telemetry/src/bad_guard_atomics.rs
// A fixture, not compiled: every shape the two atomic rows fail on.
// The sequentially consistent counter, flag store and flag load fail
// the first; a store of a value that is not a `bool` literal, at any
// ordering, fails "one atomic config word".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct S {
    hits: AtomicU64,
    stop: AtomicBool,
    head: AtomicU64,
}

impl S {
    fn count(&self) {
        self.hits.fetch_add(1, Ordering::SeqCst);
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn poll(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn publish(&self, v: u64) {
        self.head.store(v, Ordering::Relaxed);
    }

    fn read_head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }
}
