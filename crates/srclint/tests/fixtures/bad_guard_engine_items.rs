// srclint-fixture: path=crates/rules/src/engine.rs
// The two items the scoped rows read, renamed: those rows would read
// nothing, so the rows that require the items fail instead.

struct RuleCold {
    conditions: Vec<u32>,
}

impl RuleCold {
    fn register(&mut self, conditions: &[u32]) {
        self.conditions = conditions.to_vec();
    }
}
