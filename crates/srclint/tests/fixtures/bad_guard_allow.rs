// srclint-fixture: path=crates/durable/src/bad_guard_allow.rs
// A retired lint named in a list and in a doc comment: both are found,
// though only the plain comment is also a stale allow.

/// Quote: `srclint:allow(no-panic-in-lib)`.
pub fn first(v: &[u32]) -> u32 {
    // srclint:allow(lock-order, lock-discipline): the shard lock was timed here
    v[0]
}
