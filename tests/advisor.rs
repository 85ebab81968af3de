//! The advisor at the root crate's level: workload accounts attached to
//! a rule engine feed the report. (The projected-vs-measured validation
//! lives with the lab, in `crates/bench/tests/advisor.rs`.)

use predmatch::prelude::*;
use std::sync::Arc;

#[test]
fn engine_workload_feeds_the_advisor_report() {
    // The full plumbing at the root crate's level: workload accounts
    // attached to a rule engine, traffic driven through rule matching,
    // and the advisor report built from what the accounts observed.
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("emp")
            .attr("age", AttrType::Int)
            .attr("salary", AttrType::Int)
            .build(),
    )
    .unwrap();
    let mut engine = RuleEngine::new(db);
    let registry = Arc::new(predmatch::telemetry::Registry::new());
    engine.attach_metrics(Telemetry::new(Arc::clone(&registry)).with_workload_accounts());
    let workload = engine.telemetry().workload().clone();
    for (name, cond) in [
        ("senior", "emp.age > 50"),
        ("underpaid", "emp.salary < 20000"),
    ] {
        engine
            .add_rule(
                Rule::builder(name)
                    .when(cond)
                    .unwrap()
                    .then(Action::log(name))
                    .build(),
            )
            .unwrap();
    }
    for i in 0..40 {
        engine
            .insert(
                "emp",
                vec![Value::Int(30 + i), Value::Int(10_000 + 500 * i)],
            )
            .unwrap();
    }

    let advisor = predmatch::predindex::Advisor::new(workload);
    let recs = advisor.recommendations();
    assert!(!recs.is_empty(), "two live trees should yield accounts");
    for rec in &recs {
        assert_eq!(rec.relation, "emp");
        assert_eq!(rec.stabs, 40, "every insert stabs every attr tree");
        assert_eq!(rec.live, 1);
        assert_eq!(rec.ranked.len(), 4);
    }
    let json = advisor.report_json();
    assert!(
        json.contains("\"schema\":\"telemetry/advisor-v1\""),
        "{json}"
    );
    assert!(json.contains("\"relation\":\"emp\""), "{json}");
    let text = advisor.render_text();
    assert!(text.contains("emp"), "{text}");
}
