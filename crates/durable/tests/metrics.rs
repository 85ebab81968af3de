//! Durability-layer observability: WAL, snapshot, and recovery metrics
//! recorded through a registry attached at open time.

mod common;

use common::TempDir;
use durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, Value};
use rules::EventMask;
use std::sync::Arc;
use telemetry::Registry;

fn open(dir: &TempDir, registry: Arc<Registry>) -> DurableRuleEngine {
    DurableRuleEngine::open_with_metrics(
        dir.path(),
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options {
            sync: SyncPolicy::Always,
            snapshot_every: None,
        },
        registry,
    )
    .unwrap()
}

#[test]
fn wal_snapshot_and_recovery_metrics_flow_through_one_registry() {
    let dir = TempDir::new("metrics");
    let registry = Arc::new(Registry::new());
    let mut engine = open(&dir, registry.clone());

    engine
        .create_relation(Schema::builder("emp").attr("salary", AttrType::Int).build())
        .unwrap();
    engine
        .add_rule(RuleSpec {
            name: "underpaid".into(),
            condition: "emp.salary < 15000".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Log("below minimum".into()),
        })
        .unwrap();
    for salary in [9_000, 50_000, 7_000] {
        engine.insert("emp", vec![Value::Int(salary)]).unwrap();
    }

    // 1 create + 1 add_rule + 3 inserts, each synced immediately.
    assert_eq!(registry.counter_value("wal_appends_total"), Some(5));
    let (fsyncs, fsync_nanos) = registry.histogram_totals("wal_fsync_nanos").unwrap();
    assert_eq!(fsyncs, 5);
    assert!(fsync_nanos > 0);
    let bytes = registry.counter_value("wal_append_bytes_total").unwrap();
    assert!(bytes > 0);
    // A fresh directory had nothing to replay.
    assert_eq!(
        registry.counter_value("durable_recovery_frames_total"),
        Some(0)
    );

    // The whole stack records into the same registry.
    assert_eq!(registry.counter_value("rules_fired_total"), Some(2));
    assert_eq!(
        registry.counter_value("predindex_match_tuples_total"),
        Some(3)
    );

    engine.snapshot().unwrap();
    assert_eq!(registry.counter_value("durable_snapshots_total"), Some(1));
    let (snaps, _) = registry.histogram_totals("durable_snapshot_nanos").unwrap();
    assert_eq!(snaps, 1);
    let (count, size_sum) = registry.histogram_totals("durable_snapshot_bytes").unwrap();
    assert_eq!(count, 1);
    assert!(size_sum > 0);
    assert_eq!(
        registry.histogram_totals("durable_snapshot_tuples"),
        Some((1, 3))
    );
    // The stages partition the snapshot: each ran once, inside it.
    let (_, whole) = registry.histogram_totals("durable_snapshot_nanos").unwrap();
    let mut parts = 0;
    for stage in ["capture", "encode", "write", "sync", "install"] {
        let name = format!("durable_snapshot_{stage}_nanos");
        let (count, nanos) = registry.histogram_totals(&name).unwrap();
        assert_eq!(count, 1, "{name}");
        parts += nanos;
    }
    assert!(parts <= whole, "stages {parts} ns of a {whole} ns snapshot");

    // A snapshot that fails still stops its clocks: the temp file's
    // name is taken by a directory, so the write stage errors.
    std::fs::create_dir(dir.join("snapshot.tmp")).unwrap();
    assert!(engine.snapshot().is_err());
    std::fs::remove_dir(dir.join("snapshot.tmp")).unwrap();
    let count = |name: &str| registry.histogram_totals(name).unwrap().0;
    assert_eq!(count("durable_snapshot_nanos"), 2);
    assert_eq!(count("durable_snapshot_write_nanos"), 2);
    assert_eq!(count("durable_snapshot_sync_nanos"), 1);
    assert_eq!(registry.counter_value("durable_snapshots_total"), Some(1));

    // Post-truncation appends keep counting on the same cells.
    engine.insert("emp", vec![Value::Int(100)]).unwrap();
    engine.insert("emp", vec![Value::Int(200)]).unwrap();
    assert_eq!(registry.counter_value("wal_appends_total"), Some(7));
    drop(engine);

    // Reopen: the snapshot covers the first five operations, so only
    // the two post-snapshot frames replay.
    let reopened_registry = Arc::new(Registry::new());
    let reopened = open(&dir, reopened_registry.clone());
    assert_eq!(
        reopened_registry.counter_value("durable_recovery_frames_total"),
        Some(2)
    );
    assert_eq!(
        reopened
            .engine()
            .db()
            .catalog()
            .relation("emp")
            .unwrap()
            .len(),
        5
    );
    // The exposition names the families an operator greps for.
    let text = reopened_registry.render_text();
    assert!(text.contains("# TYPE wal_fsync_nanos histogram"));
    assert!(text.contains("durable_recovery_frames_total 2"));
}

#[test]
fn plain_open_stays_dark() {
    let dir = TempDir::new("dark");
    let mut engine = DurableRuleEngine::open(
        dir.path(),
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options::default(),
    )
    .unwrap();
    engine
        .create_relation(Schema::builder("emp").attr("salary", AttrType::Int).build())
        .unwrap();
    engine.insert("emp", vec![Value::Int(1)]).unwrap();
    engine.snapshot().unwrap();
    assert!(!engine.telemetry().registry().is_enabled());
    assert!(engine.telemetry().registry().names().is_empty());
}
