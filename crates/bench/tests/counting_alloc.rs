//! The counting allocator's semantics, which every allocation and byte
//! gate reads: calls, bytes obtained and the largest request per
//! thread, a nested count inside an outer one, and live bytes back at
//! their start once a buffer is dropped. The live bytes are
//! process-wide: one test in this binary, so nothing else allocates
//! while it reads them.

#[path = "../src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, live_bytes, Counts};
use std::hint::black_box;

#[test]
fn the_tallies_read_what_each_case_obtains() {
    // One allocation: one call, its bytes, its size as the largest.
    let (v, counts) = counted(|| Vec::<u8>::with_capacity(100));
    let one = Counts {
        calls: 1,
        bytes: 100,
        largest: 100,
    };
    assert_eq!(counts, one);

    // A growing reserve is one `realloc`: its growth, its new size.
    let mut v = v;
    let ((), counts) = counted(|| v.reserve_exact(150));
    let grown = Counts {
        calls: 1,
        bytes: 50,
        largest: 150,
    };
    assert_eq!(counts, grown);
    drop(v);

    // A nested count reports its own largest request and leaves the
    // outer count's intact: a larger one made before it stays the
    // outer's largest, and a larger one inside it becomes the outer's.
    let (inner, outer) = counted(|| {
        let big = black_box(Vec::<u8>::with_capacity(1_000));
        let (small, inner) = counted(|| black_box(Vec::<u8>::with_capacity(10)));
        drop((big, small));
        inner
    });
    let small = Counts {
        calls: 1,
        bytes: 10,
        largest: 10,
    };
    assert_eq!(inner, small);
    let both = Counts {
        calls: 2,
        bytes: 1_010,
        largest: 1_000,
    };
    assert_eq!(outer, both);
    let (inner, outer) = counted(|| {
        let small = black_box(Vec::<u8>::with_capacity(10));
        let (big, inner) = counted(|| black_box(Vec::<u8>::with_capacity(1_000)));
        drop((small, big));
        inner
    });
    assert_eq!((inner.largest, outer.largest), (1_000, 1_000));

    // Live bytes rise by what is held and fall back when it is dropped.
    let start = live_bytes();
    let held = black_box(vec![7u8; 4_096]);
    assert_eq!(live_bytes() - start, 4_096);
    drop(held);
    assert_eq!(live_bytes(), start);
}
