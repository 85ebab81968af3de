//! How a snapshot spells a rule's action. The durable engine keeps no
//! copy of the spec a rule was added with: a capture spells
//! `Action::Log` as itself and a callback by the name the engine's
//! `ActionRegistry` holds its `Arc` under. These tests hold that
//! spelling to the spec through snapshots and reopens, and hold a live
//! engine's snapshot bytes equal to its recovered engine's.

mod common;

use common::TempDir;
use durable::{
    read_snapshot, ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy,
    SNAPSHOT_FILE,
};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, TupleId, Value};
use rules::{DbOp, EventMask};
use std::path::Path;

fn open(dir: &Path, actions: ActionRegistry) -> DurableRuleEngine {
    let opts = Options {
        sync: SyncPolicy::Manual,
        snapshot_every: None,
    };
    DurableRuleEngine::open(dir, FunctionRegistry::default(), actions, opts).unwrap()
}

fn rule(name: &str, condition: &str, action: ActionSpec) -> RuleSpec {
    RuleSpec {
        name: name.into(),
        condition: condition.into(),
        mask: EventMask::ALL,
        priority: 0,
        action,
    }
}

fn named(name: &str) -> ActionSpec {
    ActionSpec::Named(name.into())
}

/// `(rule name, action)` of every rule in `dir`'s snapshot.
fn spelled(dir: &Path) -> Vec<(String, ActionSpec)> {
    let snap = read_snapshot(dir).unwrap().expect("a snapshot");
    snap.rules.into_iter().map(|r| (r.name, r.action)).collect()
}

#[test]
fn two_names_for_identical_closures_stay_apart() {
    let actions = || {
        let mut actions = ActionRegistry::new();
        actions.register("left", |ctx| ctx.log("same"));
        actions.register("right", |ctx| ctx.log("same"));
        actions
    };
    let dir = TempDir::new("twin-names");
    let want = vec![
        ("l".to_string(), named("left")),
        ("r".to_string(), named("right")),
    ];
    let mut e = open(dir.path(), actions());
    e.create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();
    e.add_rule(rule("l", "t.v > 0", named("left"))).unwrap();
    e.add_rule(rule("r", "t.v > 1", named("right"))).unwrap();
    e.snapshot().unwrap();
    assert_eq!(spelled(dir.path()), want);
    drop(e);
    // The reopened engine resolves each name afresh, and its open
    // installs a snapshot captured from what it recovered.
    let mut e = open(dir.path(), actions());
    assert_eq!(spelled(dir.path()), want);
    assert_eq!(e.insert("t", vec![Value::Int(2)]).unwrap().fired.len(), 2);
    e.snapshot().unwrap();
    assert_eq!(spelled(dir.path()), want);
}

#[test]
fn a_name_registered_twice_is_its_later_callback() {
    let actions = || {
        let mut actions = ActionRegistry::new();
        actions.register("note", |ctx| ctx.log("first"));
        actions.register("note", |ctx| ctx.log("second"));
        actions
    };
    let dir = TempDir::new("re-registered");
    let mut e = open(dir.path(), actions());
    e.create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();
    e.add_rule(rule("n", "t.v > 0", named("note"))).unwrap();
    assert_eq!(e.insert("t", vec![Value::Int(1)]).unwrap().log, ["second"]);
    e.snapshot().unwrap();
    assert_eq!(spelled(dir.path()), [("n".to_string(), named("note"))]);
    drop(e);
    let mut e = open(dir.path(), actions());
    assert_eq!(e.insert("t", vec![Value::Int(1)]).unwrap().log, ["second"]);
}

/// A history with `Log` and `Named` actions, a join rule, a cascade,
/// an update, a delete and a removed rule.
fn history(e: &mut DurableRuleEngine) {
    for (name, attr) in [("emp", "a"), ("dept", "b"), ("audit", "n")] {
        e.create_relation(Schema::builder(name).attr(attr, AttrType::Int).build())
            .unwrap();
    }
    let log = |m: &str| ActionSpec::Log(m.into());
    e.add_rule(rule("big", "emp.a > 2", log("big"))).unwrap();
    e.add_rule(rule("copy", "emp.a > 0", named("cascade")))
        .unwrap();
    e.add_rule(rule("pair", "emp.a = dept.b", named("note")))
        .unwrap();
    let gone = e.add_rule(rule("gone", "dept.b > 0", log("x"))).unwrap();
    for v in 0..5 {
        e.insert("emp", vec![Value::Int(v)]).unwrap();
        e.insert("dept", vec![Value::Int(v)]).unwrap();
    }
    e.update("emp", TupleId(1), vec![Value::Int(7)]).unwrap();
    e.delete("dept", TupleId(2)).unwrap();
    e.apply(durable::Record::RemoveRule { id: gone.0 }).unwrap();
    e.insert("emp", vec![Value::Int(3)]).unwrap();
}

fn actions() -> ActionRegistry {
    let mut actions = ActionRegistry::new();
    actions.register("cascade", |ctx| {
        ctx.queue(DbOp::Insert {
            relation: "audit".into(),
            values: vec![Value::Int(1)],
        })
    });
    actions.register("note", |ctx| ctx.log("pair"));
    actions
}

#[test]
fn a_recovered_engine_writes_the_live_engines_snapshot_bytes() {
    // The live engine's own snapshot.
    let live = TempDir::new("live-bytes");
    let mut e = open(live.path(), actions());
    history(&mut e);
    e.snapshot().unwrap();
    let bytes = std::fs::read(live.join(SNAPSHOT_FILE)).unwrap();
    let spelled = spelled(live.path());
    assert!(spelled.contains(&("copy".to_string(), named("cascade"))));
    assert!(spelled.contains(&("big".to_string(), ActionSpec::Log("big".into()))));
    drop(e);
    // Reopened from that snapshot alone: open captures what it restored.
    drop(open(live.path(), actions()));
    let reopened = std::fs::read(live.join(SNAPSHOT_FILE)).unwrap();
    assert!(reopened == bytes, "the restored engine's snapshot differs");
    // The same history with no snapshot, recovered by replaying the log.
    let logged = TempDir::new("logged-bytes");
    let mut e = open(logged.path(), actions());
    history(&mut e);
    e.sync().unwrap();
    drop(e);
    drop(open(logged.path(), actions()));
    let replayed = std::fs::read(logged.join(SNAPSHOT_FILE)).unwrap();
    assert!(replayed == bytes, "the replayed engine's snapshot differs");
}
