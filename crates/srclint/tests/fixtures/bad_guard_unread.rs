// srclint-fixture: path=crates/rtree/src/bad_guard_unread.rs
// Two public items whose only readers were their own unit tests.

pub fn bulk_load(points: &[(f64, f64)]) -> usize {
    points.len()
}

pub fn dump_flight(path: &str) -> bool {
    path.is_empty()
}
