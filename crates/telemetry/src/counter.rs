//! Lock-free monotone counters.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// The updates this thread has made through tallying handles
    /// ([`metric_updates`]).
    static UPDATES: Cell<u64> = const { Cell::new(0) };
}

/// Tallies one update of a tallying handle on this thread.
pub(crate) fn note_update() {
    UPDATES.with(|n| n.set(n.get() + 1));
}

/// The updates this thread has made through the handles of
/// [`Registry::tallying`](crate::Registry::tallying) registries —
/// [`Counter::add`]s and
/// [`Histogram::record`](crate::Histogram::record)s. A count of the
/// recording work a path does, exact on any host: read it before and
/// after the path. Other registries' handles do not tally, so a
/// recording site pays nothing for this.
pub fn metric_updates() -> u64 {
    UPDATES.with(Cell::get)
}

/// A cheap, clonable handle to one monotone counter.
///
/// The handle carries its enabled flag by value, so a disabled counter
/// costs exactly one predictable branch per [`Counter::add`] — no
/// atomic traffic, no pointer chase. Handles from a disabled
/// [`Registry`](crate::Registry) (or from [`Counter::disabled`]) share
/// a cell that is never read, so instrumented code needs no `Option`
/// plumbing: it always holds a handle and always calls it.
#[derive(Debug, Clone)]
pub struct Counter {
    enabled: bool,
    /// Also tally each update on the thread ([`metric_updates`]).
    tally: bool,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A live counter starting at zero, tallying its updates if `tally`.
    pub(crate) fn live(tally: bool) -> Counter {
        Counter {
            enabled: true,
            tally,
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A permanently no-op counter (the swappable disabled recorder).
    pub fn disabled() -> Counter {
        Counter {
            enabled: false,
            tally: false,
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Does this handle record anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n`. Disabled: a branch and nothing else.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.cell.fetch_add(n, Ordering::Relaxed);
            if self.tally {
                note_update();
            }
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 forever on a disabled handle).
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::disabled()
    }
}
