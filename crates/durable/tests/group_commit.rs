//! Group commit at the durable layer: [`DurableRuleEngine::group`]
//! shares one sync among the records its body logs, also across a
//! snapshot that falls inside the group.

mod common;

use common::{fingerprint, test_actions, TempDir};
use durable::{replay, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, Value};
use rules::EventMask;
use std::sync::Arc;
use telemetry::Registry;

#[test]
fn a_snapshot_inside_a_group_keeps_the_rest_deferred_and_replays_identically() {
    let dir = TempDir::new("group-snapshot");
    let registry = Arc::new(Registry::new());
    let funcs = FunctionRegistry::default();
    let mut engine = DurableRuleEngine::open_with_metrics(
        dir.path(),
        funcs.clone(),
        test_actions(),
        Options {
            sync: SyncPolicy::Always,
            snapshot_every: Some(4),
        },
        registry.clone(),
    )
    .unwrap();
    let fsyncs = || {
        registry
            .histogram_totals("wal_fsync_nanos")
            .map_or(0, |t| t.0)
    };

    engine
        .group(|e| {
            for (name, attr) in [("emp", "a"), ("audit", "n")] {
                e.create_relation(Schema::builder(name).attr(attr, AttrType::Int).build())
                    .unwrap();
            }
            e.add_rule(RuleSpec {
                name: "odd".into(),
                condition: "isodd(emp.a)".into(),
                mask: EventMask::INSERT_UPDATE,
                priority: 0,
                action: ActionSpec::Named("cascade".into()),
            })
            .unwrap();
            // Records 4..=10; the cadence snapshots after 4 and after 8.
            for v in 0..7 {
                e.insert("emp", vec![Value::Int(v)]).unwrap();
            }
            assert_eq!(fsyncs(), 0, "the log a snapshot creates stays deferred");
            assert_eq!(e.durable_seq(), 8, "a snapshot covers what it captured");
            assert_eq!(e.next_seq(), 11);
        })
        .unwrap();
    assert_eq!(fsyncs(), 1, "one sync for the group's tail");
    assert_eq!(engine.durable_seq(), 10);
    assert_eq!(registry.counter_value("durable_snapshots_total"), Some(2));

    // Outside a group `Always` is a sync per record again, on the log
    // the next snapshot creates too.
    for v in 7..10 {
        engine.insert("emp", vec![Value::Int(v)]).unwrap();
    }
    assert_eq!(fsyncs(), 4);
    assert_eq!(engine.durable_seq(), 13);

    let live = fingerprint(engine.engine());
    drop(engine);
    let recovered = replay(dir.path(), &funcs, &test_actions()).expect("recovery");
    assert_eq!(fingerprint(&recovered.engine), live);
}
