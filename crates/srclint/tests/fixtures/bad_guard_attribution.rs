// srclint-fixture: path=crates/telemetry/src/bad_guard_attribution.rs
// A counter bracket around an op, beside the stage record it duplicates.

pub struct Snapshot(u64);

pub fn delta_since(before: &Snapshot, now: u64) -> u64 {
    now - before.0
}
