// guard-fixture: path=crates/rules/src/engine.rs
// An engine that keeps its actions' lines again, and a capture that
// copies them; the report's own lines do not break the row.

pub struct FireReport {
    pub fired: Vec<(RuleId, RuleName)>,
    pub log: Vec<String>,
}

pub struct RuleEngine {
    db: Database,
    log: Vec<String>,
    total_fired: u64,
}

fn capture(engine: &RuleEngine) -> Vec<String> {
    engine.log().to_vec()
}
