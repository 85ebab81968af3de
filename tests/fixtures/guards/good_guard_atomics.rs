// guard-fixture: path=crates/telemetry/src/good_guard_atomics.rs
// A fixture, not compiled: `Relaxed` counters and `bool` flags, and
// the one reviewed config word.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct S {
    hits: AtomicU64,
    stop: AtomicBool,
    slow_threshold: AtomicU64,
}

impl S {
    fn count(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    fn resume(&self) {
        self.stop.store(false, Ordering::Relaxed);
    }

    fn poll(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn set_threshold(&self, v: u64) {
        self.slow_threshold.store(v, Ordering::Relaxed);
    }

    fn threshold(&self) -> u64 {
        self.slow_threshold.load(Ordering::Relaxed)
    }
}
