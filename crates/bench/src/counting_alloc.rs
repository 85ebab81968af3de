//! The workspace's one counting allocator: the instrument behind every
//! allocation count and byte count a gate reads (DESIGN.md §19 lists
//! them).
//!
//! A test binary or `bench_json` includes this file by path
//! (`#[path = ".../bench/src/counting_alloc.rs"] mod counting_alloc;`),
//! which makes it that binary's `#[global_allocator]`. `bench`'s library
//! does not declare it, and keeps `#![forbid(unsafe_code)]`. Every call
//! is forwarded to `System`; beside it the allocator keeps two tallies:
//!
//! - per thread, the `alloc` / `realloc` calls, the bytes they obtain
//!   (a `realloc`'s growth) and the largest single request, read around
//!   a closure by [`counted`], so tests in one binary may run side by
//!   side;
//! - process-wide, the bytes allocated and not yet freed, read by
//!   [`live_bytes`].
//!
//! Each includer reads part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// What a closure obtained from the allocator on its thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `alloc` and `realloc` calls: a buffer that grows counts once per
    /// growth.
    pub calls: u64,
    /// Bytes those calls obtained: an `alloc`'s size, a `realloc`'s
    /// growth (none for a shrink).
    pub bytes: u64,
    /// The largest single request: an `alloc`'s size, a `realloc`'s new
    /// size.
    pub largest: usize,
}

thread_local! {
    /// This thread's running `calls` and `bytes`, and the largest
    /// request since the innermost [`counted`] began.
    static THREAD: Cell<Counts> = const {
        Cell::new(Counts { calls: 0, bytes: 0, largest: 0 })
    };
}

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Counts one call that obtained `bytes` on a request of `request`.
fn note(bytes: usize, request: usize) {
    // A thread whose locals are gone allocates uncounted.
    let _ = THREAD.try_with(|c| {
        let t = c.get();
        c.set(Counts {
            calls: t.calls + 1,
            bytes: t.bytes + bytes as u64,
            largest: t.largest.max(request),
        });
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tallies beside it are an atomic and a
// thread-local `Cell` of plain integers with no destructor, and touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        note(layout.size(), layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        note(new_size.saturating_sub(layout.size()), new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and what it obtained from the allocator on this thread.
/// A nested call reports its own largest request; the outer call's
/// largest covers the inner one's.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let start = THREAD.with(|c| {
        c.replace(Counts {
            largest: 0,
            ..c.get()
        })
    });
    let out = f();
    let end = THREAD.with(|c| {
        let end = c.get();
        c.set(Counts {
            largest: start.largest.max(end.largest),
            ..end
        });
        end
    });
    let counts = Counts {
        calls: end.calls - start.calls,
        bytes: end.bytes - start.bytes,
        largest: end.largest,
    };
    (out, counts)
}

/// Bytes allocated and not yet freed, by every thread: the difference
/// of two readings is what was built between them.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}
