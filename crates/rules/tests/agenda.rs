//! The agenda of one event: a rule whose DNF has several matching
//! disjuncts is instantiated once, where it always was, and building
//! the agenda costs a sort, not a lookup per matched predicate — one
//! tuple that fires F rules used to cost F².

use relation::{AttrType, Database, Schema, Value};
use rules::{Action, Rule, RuleEngine};
use std::sync::Arc;
use telemetry::Registry;

fn engine() -> RuleEngine {
    let mut db = Database::new();
    db.create_relation(Schema::builder("r").attr("a", AttrType::Int).build())
        .expect("fresh relation");
    RuleEngine::new(db)
}

fn add(engine: &mut RuleEngine, name: &str, condition: &str, priority: i32) {
    let rule = Rule::builder(name).when(condition).expect("parses");
    engine
        .add_rule(
            rule.priority(priority)
                .then(Action::callback(|_| {}))
                .build(),
        )
        .expect("r.a exists");
}

#[test]
fn two_matching_disjuncts_fire_once_in_place() {
    let mut e = engine();
    add(&mut e, "older", "r.a >= 0", 0);
    // Both disjuncts hold for a = 7; so do the neighbours either side
    // of it in (priority, recency) order.
    add(&mut e, "either", "r.a > 5 or r.a < 10", 0);
    add(&mut e, "newer", "r.a >= 0", 0);
    add(&mut e, "urgent", "r.a > 6 or r.a > 5 or r.a = 7", 3);
    let report = e.insert("r", vec![Value::Int(7)]).expect("insert");
    let order: Vec<&str> = report.fired.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(order, ["urgent", "newer", "either", "older"]);
    assert_eq!(report.firings.len(), 4);

    // One disjunct alone still fires it.
    let report = e.insert("r", vec![Value::Int(20)]).expect("insert");
    let order: Vec<&str> = report.fired.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(order, ["urgent", "newer", "either", "older"]);
}

/// The agenda's entry comparisons per firing of one insert that fires
/// `rules` no-op rules, read off `rules_agenda_comparisons_total` — a
/// count, so the same on every host and in every build profile.
fn hot_tuple_cost(rules: usize) -> f64 {
    let mut e = engine();
    let registry = Arc::new(Registry::new());
    e.attach_metrics(Arc::clone(&registry));
    e.set_firing_limit(rules);
    for n in 0..rules {
        add(&mut e, &format!("m{n}"), "r.a >= 0", 0);
    }
    let report = e.insert("r", vec![Value::Int(1)]).expect("insert");
    assert_eq!(report.fired.len(), rules);
    let comparisons = registry
        .counter_value("rules_agenda_comparisons_total")
        .expect("the engine registers the family");
    comparisons as f64 / rules as f64
}

#[test]
fn a_hot_tuple_costs_the_same_per_firing_at_eight_times_the_rules() {
    let (small, large) = (hot_tuple_cost(2_500), hot_tuple_cost(20_000));
    // Sorted then deduplicated: ~2 comparisons per firing at either size
    // (the matched predicates arrive in rule order, one run for the
    // sort, then one pass). Searching the agenda built so far for every
    // matched predicate costs F/2 per firing: 1,250 and 10,000.
    assert!(
        large <= small * 2.5,
        "{large:.1} comparisons per firing at 20,000 rules against {small:.1} at 2,500"
    );
}
