// srclint-fixture: path=crates/durable/src/bad_stale_allow.rs
//
// An allow comment that names no registered lint is a finding.
// srclint:allow(retired-lint): the lint went away, its comment did not
fn quiet() {}

// srclint:allow(lock-order): a live name is a suppression, not a finding
fn live() {}
