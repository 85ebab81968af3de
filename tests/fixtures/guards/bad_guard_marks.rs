// guard-fixture: path=crates/ibs/src/marks.rs
// A mark set's test-only accessors.

pub struct MarkSet(Vec<u32>);

impl MarkSet {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}
