//! End-to-end tracing: a two-level rule cascade comes out of the tracer
//! as its stage record — one `op` event whose stage children tile it
//! exactly — and a tracer alone times the chain without billing it.

use predmatch::prelude::*;
use predmatch::rules::DbOp;
use predmatch::telemetry::{chrome_trace_json, Stage, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};
use std::sync::Arc;

fn dur(event: &TraceEvent) -> u64 {
    event.dur
}

fn arg(event: &TraceEvent, key: &str) -> Option<u64> {
    event.args.num(key)
}

/// An engine on `emp` and `alerts` where an underpaid `emp` insert
/// raises an alert, which escalates: two levels, two firings.
fn cascade_engine(telemetry: Telemetry) -> RuleEngine {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("salary", AttrType::Int)
            .build(),
    )
    .unwrap();
    db.create_relation(
        Schema::builder("alerts")
            .attr("kind", AttrType::Str)
            .attr("level", AttrType::Int)
            .build(),
    )
    .unwrap();
    let mut engine = RuleEngine::new(db);
    engine.attach_metrics(telemetry);
    engine
        .add_rule(
            Rule::builder("raise-alert")
                .when("emp.salary < 1000")
                .unwrap()
                .then(Action::callback(|ctx| {
                    ctx.queue(DbOp::Insert {
                        relation: "alerts".into(),
                        values: vec![Value::str("underpaid"), Value::Int(2)],
                    });
                }))
                .build(),
        )
        .unwrap();
    engine
        .add_rule(
            Rule::builder("escalate")
                .when("alerts.level >= 2")
                .unwrap()
                .then(Action::log("escalated"))
                .build(),
        )
        .unwrap();
    engine
}

#[test]
fn two_level_cascade_produces_a_parented_span_tree() {
    let tracer = Tracer::new(DEFAULT_TRACE_CAPACITY);
    let registry = Arc::new(Registry::new());
    let mut engine =
        cascade_engine(Telemetry::new(Arc::clone(&registry)).with_tracer(tracer.clone()));
    let report = engine
        .insert("emp", vec![Value::str("al"), Value::Int(500)])
        .unwrap();
    assert_eq!(report.fired.len(), 2, "both rules fire through the chain");

    // One op event for the chain, top level, carrying the cascade's
    // shape; then its stage children and nothing else.
    let events = tracer.events();
    let (op, children) = events.split_first().expect("the chain left its record");
    assert_eq!(op.name, "op");
    assert_eq!(op.parent, 0, "op is a top-level event");
    assert_eq!(arg(op, "levels"), Some(2));
    assert_eq!(arg(op, "events"), Some(2));
    assert_eq!(arg(op, "firings"), Some(2));
    let record = engine.last_record();
    assert_eq!(dur(op), record.total(), "the op spans its record");

    // A child per stage the chain lapped, in stage order, each holding
    // exactly its stage of the record: the two levels' stabs and
    // residual tests, each event's agenda and firing, and the `other`
    // between the levels.
    let names: Vec<_> = children.iter().map(|c| c.name).collect();
    assert_eq!(names, ["stab", "residual", "agenda", "fire", "other"]);
    let mut at = op.nanos;
    for (child, stage) in children
        .iter()
        .zip(Stage::ALL.into_iter().filter(|&s| record.laps(s) > 0))
    {
        assert_eq!(child.name, stage.name());
        assert_eq!(child.parent, op.span);
        assert_eq!(
            child.nanos, at,
            "children lie end to end from the op's start"
        );
        assert_eq!(dur(child), record.nanos(stage));
        assert_eq!(arg(child, "laps"), Some(u64::from(record.laps(stage))));
        at += dur(child);
    }
    assert_eq!(at - op.nanos, dur(op), "the children sum to the op exactly");
    assert_eq!(record.laps(Stage::Stab), 2, "one lock-step group per level");
    let stab = &children[0];
    assert_eq!(arg(stab, "ibs_nodes"), Some(record.work.ibs_nodes));
    assert_eq!(arg(&children[1], "residual_tests"), Some(2));

    let json = chrome_trace_json(&tracer.events());
    assert!(json.contains("\"name\":\"op\",\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"name\":\"stab\",\"ph\":\"X\""), "{json}");
}

#[test]
fn a_tracer_alone_times_the_chain_and_mints_no_account() {
    let registry = Arc::new(Registry::new());
    let telemetry =
        Telemetry::new(Arc::clone(&registry)).with_tracer(Tracer::new(DEFAULT_TRACE_CAPACITY));
    assert!(telemetry.times_stages() && !telemetry.profiler().is_enabled());
    let mut engine = cascade_engine(telemetry);
    let report = engine
        .insert("emp", vec![Value::str("al"), Value::Int(500)])
        .unwrap();
    let record = engine.last_record();
    assert!(record.total() > 0, "the tracer starts the clock");
    assert_eq!(record.work.firings, report.fired.len() as u64);
    assert_eq!(record.work.ops, report.ops_applied as u64);
    assert!(
        registry
            .names()
            .iter()
            .all(|name| !name.starts_with("profile_")),
        "a tracer-only engine billed an account: {:?}",
        registry.names()
    );
    assert_eq!(engine.telemetry().profiler().bills(), 0);
}
