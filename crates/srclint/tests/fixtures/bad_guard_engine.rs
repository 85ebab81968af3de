// srclint-fixture: path=crates/rules/src/engine.rs
// The rule table as a map, a routes table beside it, and a cold half
// that keeps a second copy of every condition.

use std::collections::HashMap;

pub struct RuleEngine {
    rules: HashMap<u32, Rule>,
    routes: Vec<u32>,
}

struct ColdRule {
    predicate_ids: Vec<u32>,
    conditions: Vec<Predicate>,
    joins: Vec<JoinCondition>,
}

impl RuleEngine {
    fn register_conditions(&mut self, conditions: &[Predicate]) -> Vec<u32> {
        conditions.iter().map(|pred| self.insert(pred.clone())).collect()
    }

    fn insert(&mut self, _pred: Predicate) -> u32 {
        0
    }
}

pub struct Rule;
#[derive(Clone)]
pub struct Predicate;
pub struct JoinCondition;
