//! A log that starts past its snapshot is refused, not replayed.
//!
//! The disk after a snapshot's rename was lost but its log truncation
//! was not: the first snapshot is back under `snapshot.bin`, and the
//! log starts after the second. The three operations between the two
//! are in neither file, so recovery must say so instead of replaying
//! the rest on top of a state that never held them. Opening the home
//! is refused for the same reason, and the refusal writes nothing.

mod common;

use common::{assert_unchanged, listing, TempDir};
use durable::{
    replay, ActionRegistry, DurableError, DurableRuleEngine, Options, RecoverError, SyncPolicy,
    SNAPSHOT_FILE,
};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, Value};

#[test]
fn a_log_that_starts_past_its_snapshot_is_a_gap() {
    let dir = TempDir::new("log-gap");
    let opts = Options {
        sync: SyncPolicy::Always,
        snapshot_every: None,
    };
    let (funcs, actions) = (FunctionRegistry::default(), ActionRegistry::new());
    let mut engine = DurableRuleEngine::open(dir.path(), funcs, actions, opts).unwrap();
    engine
        .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();
    let insert = |engine: &mut DurableRuleEngine, vs: std::ops::Range<i64>| {
        for v in vs {
            engine.insert("t", vec![Value::Int(v)]).unwrap();
        }
    };
    insert(&mut engine, 0..3);
    engine.snapshot().unwrap();
    let first = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    insert(&mut engine, 3..6);
    engine.snapshot().unwrap();
    insert(&mut engine, 6..9);
    drop(engine);

    std::fs::write(dir.join(SNAPSHOT_FILE), first).unwrap();
    let recovered = replay(
        dir.path(),
        &FunctionRegistry::default(),
        &ActionRegistry::new(),
    );
    match recovered {
        Err(RecoverError::Corrupt { what, detail }) => {
            assert_eq!(what, "log gap");
            assert!(detail.contains("starts at seq 8"), "{detail}");
        }
        Err(e) => panic!("refused for another reason: {e}"),
        Ok(r) => panic!(
            "recovered seq {} with {} frames replayed over the gap",
            r.last_seq, r.frames_replayed
        ),
    }

    let before = listing(dir.path());
    let (funcs, actions) = (FunctionRegistry::default(), ActionRegistry::new());
    match DurableRuleEngine::open(dir.path(), funcs, actions, opts) {
        Err(DurableError::Recover(RecoverError::Corrupt { what, .. })) => {
            assert_eq!(what, "log gap");
        }
        other => panic!("expected a log-gap refusal, got {:?}", other.err()),
    }
    assert_unchanged(dir.path(), &before);
}
