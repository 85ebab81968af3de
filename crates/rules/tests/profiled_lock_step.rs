//! The profiler changes no match. A cascade level whose events bill
//! different accounts — inserts queued by two rules into the relation
//! the client wrote — is matched in the same lock-step groups with the
//! profiler on as with it off: the same firings, the same counters, the
//! same `stab` laps (one per group). Splitting the level by account
//! would cost the profiled run a group per account. Both runs attach a
//! tracer, so both run a stage clock; only one bills.

use relation::{AttrType, Database, Schema, TupleEvent, Value};
use rules::{Action, DbOp, FireReport, Registry, Rule, RuleEngine, Telemetry, Tracer};
use std::sync::Arc;
use telemetry::Stage;

/// The batch, one group of `LANES` tuples: half fire `low`, half `high`.
const BATCH: i64 = 16;

/// A rule on `condition` that queues `t(v + offset)` for the `t` tuple
/// it fired on.
fn cascade(name: &str, condition: &str, offset: i64) -> Rule {
    Rule::builder(name)
        .when(condition)
        .expect("parses")
        .then(Action::callback(move |ctx| {
            let TupleEvent::Inserted { tuple, .. } = ctx.event else {
                return;
            };
            let Value::Int(v) = tuple.values()[0] else {
                return;
            };
            ctx.queue(DbOp::Insert {
                relation: "t".into(),
                values: vec![Value::Int(v + offset)],
            });
        }))
        .build()
}

/// Runs the batch; returns its report, the registry, and the `stab`
/// laps of the batch's record.
fn run(profiled: bool) -> (FireReport, Arc<Registry>, u32) {
    let mut db = Database::new();
    for name in ["t", "u"] {
        let schema = Schema::builder(name).attr("v", AttrType::Int).build();
        db.create_relation(schema).expect("fresh relation");
    }
    let mut engine = RuleEngine::new(db);
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(1 << 14);
    let mut telemetry = Telemetry::new(Arc::clone(&registry)).with_tracer(tracer);
    if profiled {
        telemetry = telemetry.with_profiling();
    }
    engine.attach_metrics(telemetry);
    for rule in [
        cascade("low", "t.v < 8", 100),
        cascade("high", "8 <= t.v <= 15", 200),
        // Completed by two of the cascaded tuples: join probes and
        // firings on the cascaded level too.
        Rule::builder("pair")
            .when("t.v = u.v")
            .expect("parses")
            .then(Action::log("pair"))
            .build(),
    ] {
        engine.add_rule(rule).expect("binds");
    }
    for v in [100, 215] {
        engine.insert("u", vec![Value::Int(v)]).expect("u row");
    }
    let rows = (0..BATCH).map(|v| vec![Value::Int(v)]).collect();
    let report = engine.insert_batch("t", rows).expect("batch");
    // The record saw the same work the counters did.
    let record = engine.last_record();
    assert_eq!(record.work.firings, report.fired.len() as u64);
    assert_eq!(record.work.ops, report.ops_applied as u64);
    (report, registry, record.laps(Stage::Stab))
}

#[test]
fn a_mixed_account_level_matches_in_the_same_groups_profiled() {
    let (plain, plain_registry, plain_stabs) = run(false);
    let (profiled, profiled_registry, profiled_stabs) = run(true);
    assert_eq!(plain, profiled);
    // 16 external inserts, 16 cascaded ones (two accounts), 2 pairs.
    assert_eq!(plain.ops_applied, 32);
    assert_eq!(plain.fired.len(), 18);

    // One group per level: the batch, then the cascade.
    assert_eq!(plain_stabs, 2);
    assert_eq!(profiled_stabs, plain_stabs, "the profiler split a level");

    let counters = |registry: &Registry| -> Vec<(String, u64)> {
        let families = ["predindex_", "join_", "rules_"];
        registry
            .names()
            .into_iter()
            .filter(|name| families.iter().any(|f| name.starts_with(f)))
            .filter_map(|name| Some((name.clone(), registry.counter_value(&name)?)))
            .collect()
    };
    let plain_counters = counters(&plain_registry);
    assert!(plain_counters.len() > 8, "{plain_counters:?}");
    assert_eq!(plain_counters, counters(&profiled_registry));
}
