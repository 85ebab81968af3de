// srclint-fixture: path=crates/telemetry/src/good_atomic_ordering.rs
// A fixture, not compiled: atomics whose orderings match their class,
// plus the allowlisted independent-config-word shape.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct S {
    hits: AtomicU64,
    stop: AtomicBool,
    head: AtomicU64,
    threshold: AtomicU64,
}

impl S {
    fn count(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    fn poll(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn publish(&self, v: u64) {
        self.head.store(v, Ordering::Release);
    }

    fn read_head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    fn set_threshold(&self, v: u64) {
        // srclint:allow(atomic-ordering): an independent config word — guards no other data
        self.threshold.store(v, Ordering::Relaxed);
    }

    fn threshold(&self) -> u64 {
        // srclint:allow(atomic-ordering): an independent config word — guards no other data
        self.threshold.load(Ordering::Relaxed)
    }
}
