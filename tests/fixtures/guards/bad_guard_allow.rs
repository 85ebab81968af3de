// guard-fixture: path=crates/durable/src/bad_guard_allow.rs
// An allow comment, in a doc comment and in a list: both are found.

/// Quote: `srclint:allow(no-panic-in-lib)`.
pub fn first(v: &[u32]) -> u32 {
    // srclint:allow(lock-order, lock-discipline): the shard lock was timed here
    v[0]
}
