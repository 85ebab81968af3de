//! Flight-recorder integration: the durable engine's trace ring must
//! double as a post-mortem buffer.
//!
//! Two properties: an explicit dump captures the spans of recent WAL
//! work plus the metric exposition, and a corrupt snapshot makes the
//! open itself leave a dump behind before refusing.

mod common;

use common::{test_actions, TempDir};
use durable::{
    ActionSpec, DurableError, DurableRuleEngine, Options, RecoverError, RuleSpec, FLIGHT_DIR,
    SNAPSHOT_FILE,
};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, Value};
use rules::EventMask;
use std::sync::Arc;
use telemetry::{Registry, Telemetry, Tracer, DEFAULT_TRACE_CAPACITY};

fn open_traced(dir: &std::path::Path) -> Result<DurableRuleEngine, DurableError> {
    DurableRuleEngine::open_with_metrics(
        dir,
        FunctionRegistry::default(),
        test_actions(),
        Options::default(),
        Telemetry::new(Arc::new(Registry::new())).with_tracer(Tracer::new(DEFAULT_TRACE_CAPACITY)),
    )
}

/// Loads a small cascading workload (emp insert → audit insert).
fn run_workload(engine: &mut DurableRuleEngine) {
    engine
        .create_relation(Schema::builder("emp").attr("salary", AttrType::Int).build())
        .unwrap();
    engine
        .create_relation(Schema::builder("audit").attr("n", AttrType::Int).build())
        .unwrap();
    engine
        .add_rule(RuleSpec {
            name: "underpaid".into(),
            condition: "emp.salary < 1000".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Named("cascade".into()),
        })
        .unwrap();
    for salary in [500, 5_000, 700] {
        engine.insert("emp", vec![Value::Int(salary)]).unwrap();
    }
}

#[test]
fn explicit_dump_captures_wal_spans_and_metrics() {
    let dir = TempDir::new("flight-dump");
    let mut engine = open_traced(dir.path()).unwrap();
    run_workload(&mut engine);

    let path = engine.dump_flight("test-probe").unwrap();
    assert!(path.starts_with(dir.join(FLIGHT_DIR)));
    let text = std::fs::read_to_string(&path).unwrap();

    // The last insert's durability spans are in the ring...
    assert!(
        text.contains("\"wal_append\""),
        "no wal_append span:\n{text}"
    );
    assert!(text.contains("\"wal_fsync\""), "no wal_fsync span:\n{text}");
    // ...alongside the cascade spans the same insert produced...
    assert!(text.contains("\"cascade\""), "no cascade span:\n{text}");
    // ...and the counter exposition.
    assert!(text.contains("wal_appends_total"), "no metrics:\n{text}");
    assert!(
        text.contains("rules_fired_total"),
        "no rule counters:\n{text}"
    );
    assert!(text.contains("test-probe"), "reason missing:\n{text}");

    // Dumps snapshot rather than drain: a second dump sees the same
    // evidence.
    let second = engine.dump_flight("again").unwrap();
    assert_ne!(path, second);
    assert!(std::fs::read_to_string(&second)
        .unwrap()
        .contains("\"wal_append\""));
}

#[test]
fn corrupt_snapshot_leaves_a_flight_dump_on_open() {
    let dir = TempDir::new("flight-corrupt");
    {
        let mut engine = open_traced(dir.path()).unwrap();
        run_workload(&mut engine);
        engine.snapshot().unwrap();
    }
    // Damage the snapshot body; the checksum catches it on reopen.
    let snap_path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&snap_path, &bytes).unwrap();

    let err = match open_traced(dir.path()) {
        Ok(_) => panic!("corrupt snapshot must refuse to open"),
        Err(e) => e,
    };
    assert!(
        matches!(err, DurableError::Recover(RecoverError::Corrupt { .. })),
        "unexpected error: {err}"
    );

    let flight = dir.join(FLIGHT_DIR);
    let dumps: Vec<_> = std::fs::read_dir(&flight)
        .expect("flight dir exists after corrupt open")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
    let name = dumps[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(name.contains("recovery-corrupt"), "dump name: {name}");
    let text = std::fs::read_to_string(&dumps[0]).unwrap();
    // The dump holds whatever recovery traced before it refused.
    assert!(
        text.contains("recovery_snapshot_load"),
        "no recovery span in dump:\n{text}"
    );
}
