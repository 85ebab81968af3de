// guard-fixture: path=crates/rules/src/engine.rs
// A restore that registers rules in an order of its own again, beside
// `add_rule`; `add_rule`'s own calls do not break the row.

impl RuleEngine {
    pub fn add_rule(&mut self, mut rule: Rule) -> Result<RuleId, EngineError> {
        let slot = self.rules.next_slot();
        let predicate_ids = self.register_conditions(slot, std::mem::take(&mut rule.conditions))?;
        let joins = self.register_joins(id.0, slot, std::mem::take(&mut rule.joins))?;
        Ok(id)
    }

    pub fn restore(
        db: Database,
        rules: Vec<(RuleId, Rule, u64)>,
        next_rule: u32,
        total_fired: u64,
    ) -> Result<Self, EngineError> {
        let mut held = Vec::new();
        for (rid, mut rule, fired) in rules {
            let slot = engine.rules.next_slot();
            let predicate_ids =
                engine.register_conditions(slot, std::mem::take(&mut rule.conditions))?;
            held.push((rid.0, slot, std::mem::take(&mut rule.joins)));
        }
        for (rid, slot, joins) in held {
            engine.rules.cold_mut(slot).joins = engine.register_joins(rid, slot, joins)?;
        }
        Ok(engine)
    }
}
