// srclint-fixture: path=crates/telemetry/src/bad_atomic_ordering.rs
// A fixture, not compiled: every atomic-ordering finding shape. The
// classifier sees all sites of a field at once, so each struct field
// below earns its class from its own usage.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct S {
    hits: AtomicU64,  // counter: all writes are RMW
    stop: AtomicBool, // flag: stores a bool literal
    head: AtomicU64,  // publication: plain store, loaded elsewhere
}

impl S {
    fn count(&self) {
        self.hits.fetch_add(1, Ordering::SeqCst); // fence tax on a counter
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst); // flag needs Relaxed (or Release)
    }

    fn poll(&self) -> bool {
        self.stop.load(Ordering::SeqCst) // same, load side
    }

    fn publish(&self, v: u64) {
        self.head.store(v, Ordering::Relaxed); // publication with no edge
    }

    fn read_head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }
}
