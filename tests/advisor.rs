//! Index advisor end-to-end: on each canonical workload shape, the
//! §5.2 projection's top pick must be the backend that is actually
//! cheapest when the same op log is replayed against real structures.
//!
//! Constants are calibrated in-process, so the test is self-adjusting
//! across machines and build profiles: projection and measurement see
//! the same code on the same box. `churn_heavy` and
//! `non_indexable_heavy` have decisive winners (the measured margins
//! are many-fold), so those demand exact agreement; `stab_heavy`'s top
//! two backends (IBS-tree vs static interval tree) are legitimately
//! within ~1.2x of each other, so there the pick must merely be within
//! 1.5x of the measured cheapest — still a real claim, without flaking
//! on a coin-flip between near-ties.

use predmatch::predindex::advisor::{calibrate_constants, quick_shapes, run_shape, Backend};
use predmatch::prelude::*;
use std::sync::Arc;

#[test]
fn advisor_pick_is_measured_cheapest_on_the_canonical_shapes() {
    let constants = calibrate_constants();
    let shapes = quick_shapes();
    assert_eq!(shapes.len(), 3);
    for spec in &shapes {
        let outcome = run_shape(spec, &constants);
        let pick = outcome.recommendation.best();
        let cheapest = outcome.measured_cheapest();
        let measured_ns = |b: Backend| {
            outcome
                .measured
                .iter()
                .find(|(x, _)| *x == b)
                .map(|(_, ns)| *ns)
                .unwrap_or(f64::INFINITY)
        };
        if outcome.name == "stab_heavy" {
            assert!(
                measured_ns(pick) <= 1.5 * measured_ns(cheapest),
                "{}: advisor picked {} ({:.0} ns) but {} measured {:.0} ns",
                outcome.name,
                pick.name(),
                measured_ns(pick),
                cheapest.name(),
                measured_ns(cheapest),
            );
        } else {
            assert_eq!(
                pick,
                cheapest,
                "{}: advisor picked {} but {} measured cheapest ({:?})",
                outcome.name,
                pick.name(),
                cheapest.name(),
                outcome.measured,
            );
        }
        // The projection ran on real observed statistics, not defaults.
        assert!(outcome.recommendation.stabs > 0, "{}", outcome.name);
        assert!(
            outcome.recommendation.margin >= 1.0,
            "{}: margin {:.2}",
            outcome.name,
            outcome.recommendation.margin
        );
    }
}

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
