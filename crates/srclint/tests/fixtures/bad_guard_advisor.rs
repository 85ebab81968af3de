// srclint-fixture: path=crates/predindex/src/bad_guard_advisor.rs
// A second backend's ranking, with nothing to switch to.

pub struct IndexAdvisor {
    pub tuples: u64,
}
