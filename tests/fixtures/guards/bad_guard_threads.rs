// guard-fixture: path=crates/rules/src/bad_guard_threads.rs
// A cascade level fanned out across one worker per core: the engine is
// serial, so the probe is back only where a row forbids it.

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
