//! Crash recovery for join memos: the beta-layer partial-match state
//! is *not* persisted tuple-by-tuple — it is reseeded from the restored
//! relations — so these tests pin down the invariant that makes that
//! sound: the reseeded memo is fingerprint-identical to the pre-crash
//! incremental state, across snapshot boundaries, WAL suffixes, and
//! retractions in either of those windows.

mod common;

use common::{fingerprint, test_actions, TempDir};
use durable::{replay, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, TupleId, Value};
use rules::EventMask;

fn open(dir: &std::path::Path) -> DurableRuleEngine {
    DurableRuleEngine::open(
        dir,
        FunctionRegistry::default(),
        test_actions(),
        Options {
            sync: SyncPolicy::Manual,
            snapshot_every: None,
        },
    )
    .unwrap()
}

fn setup(engine: &mut DurableRuleEngine) {
    engine
        .create_relation(
            Schema::builder("emp")
                .attr("a", AttrType::Int)
                .attr("s", AttrType::Str)
                .build(),
        )
        .unwrap();
    engine
        .create_relation(Schema::builder("dept").attr("b", AttrType::Int).build())
        .unwrap();
    engine
        .create_relation(Schema::builder("audit").attr("n", AttrType::Int).build())
        .unwrap();
    engine
        .add_rule(RuleSpec {
            name: "same-key".into(),
            condition: "emp.a = dept.b".into(),
            mask: EventMask::ALL,
            priority: 0,
            action: ActionSpec::Log("pair".into()),
        })
        .unwrap();
    engine
        .add_rule(RuleSpec {
            name: "three-way".into(),
            condition: "emp.a = dept.b and dept.b = audit.n".into(),
            mask: EventMask::ALL,
            priority: 1,
            action: ActionSpec::Log("triple".into()),
        })
        .unwrap();
}

fn emp(a: i64) -> Vec<Value> {
    vec![Value::Int(a), Value::str("x")]
}

/// Partial matches built before the snapshot, extended and retracted
/// by the WAL suffix: the recovered memo must digest identically and
/// keep behaving identically on fresh probes.
#[test]
fn join_memo_survives_snapshot_plus_wal_suffix() {
    let dir = TempDir::new("join-recovery");
    let mut engine = open(dir.path());
    setup(&mut engine);

    // Pre-snapshot: one complete pair match, several partials.
    engine.insert("emp", emp(1)).unwrap();
    engine.insert("emp", emp(2)).unwrap();
    engine.insert("dept", vec![Value::Int(1)]).unwrap();
    engine.snapshot().unwrap();

    // WAL suffix: complete the second pair, start a triple, retract
    // one emp so a partial disappears.
    engine.insert("dept", vec![Value::Int(2)]).unwrap();
    engine.insert("audit", vec![Value::Int(1)]).unwrap();
    engine.delete("emp", TupleId(1)).unwrap();
    engine.sync().unwrap();

    let live_fp = fingerprint(engine.engine());
    let live_join_fp = engine.engine().join_fingerprint();
    let live_stats = engine.engine().join_stats();
    drop(engine); // crash with everything flushed

    let recovered = replay(dir.path(), &FunctionRegistry::default(), &test_actions())
        .expect("recovery succeeds");
    let mut rec = recovered.engine;
    assert_eq!(rec.join_fingerprint(), live_join_fp, "memo digest diverged");
    assert_eq!(rec.join_stats(), live_stats, "memo shape diverged");
    assert_eq!(fingerprint(&rec), live_fp, "engine state diverged");

    // The reseeded memo must keep *extending* correctly: the deleted
    // emp #1 left dept 1 + audit 1 partials behind, so re-inserting
    // emp 1 completes both the pair and the triple again.
    let report = rec.insert("emp", emp(1)).unwrap();
    let names: Vec<&str> = report.fired.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(names, ["three-way", "same-key"], "fired: {names:?}");
}

/// A snapshot taken *after* a retraction must not resurrect the
/// retracted partial on recovery (delete-then-recover must equal
/// delete-then-continue).
#[test]
fn retraction_before_snapshot_stays_retracted() {
    let dir = TempDir::new("join-retract-snap");
    let mut engine = open(dir.path());
    setup(&mut engine);

    engine.insert("emp", emp(7)).unwrap();
    engine.insert("dept", vec![Value::Int(7)]).unwrap();
    engine.delete("dept", TupleId(0)).unwrap();
    engine.snapshot().unwrap();
    engine.sync().unwrap();

    let live_join_fp = engine.engine().join_fingerprint();
    drop(engine);

    let recovered = replay(dir.path(), &FunctionRegistry::default(), &test_actions())
        .expect("recovery succeeds");
    let mut rec = recovered.engine;
    assert_eq!(rec.join_fingerprint(), live_join_fp);

    // Exactly one firing when the pair completes again — a resurrected
    // stale partial would double-fire.
    let report = rec.insert("dept", vec![Value::Int(7)]).unwrap();
    assert_eq!(report.fired.len(), 1);
    assert_eq!(report.fired[0].1, "same-key");
}

/// Recovery with *no* snapshot (pure WAL replay from genesis) also
/// reconstructs the memo, because replay re-executes every command
/// through the ordinary incremental path.
#[test]
fn pure_wal_replay_rebuilds_memo() {
    let dir = TempDir::new("join-wal-only");
    let mut engine = open(dir.path());
    setup(&mut engine);
    for a in 0..5 {
        engine.insert("emp", emp(a)).unwrap();
    }
    engine.insert("dept", vec![Value::Int(3)]).unwrap();
    engine.sync().unwrap();
    let live_join_fp = engine.engine().join_fingerprint();
    let live_fp = fingerprint(engine.engine());
    drop(engine);

    let recovered = replay(dir.path(), &FunctionRegistry::default(), &test_actions())
        .expect("recovery succeeds");
    assert_eq!(recovered.engine.join_fingerprint(), live_join_fp);
    assert_eq!(fingerprint(&recovered.engine), live_fp);
}

/// A snapshot file written by the code before the memo kept a running
/// digest (PR 20: the fingerprint it recorded was recomputed over every
/// alpha entry and token of three memos — a two-premise equality join,
/// a three-premise chain, an ordering join — after inserts, deletes,
/// updates and a reused tuple slot). Recovery reseeds the memos and
/// refuses the file unless the digest it arrives at *incrementally* is
/// that recorded value, so opening it pins the two as equal.
#[test]
fn a_snapshot_recorded_before_the_running_digest_still_recovers() {
    const RECORDED: u64 = 0x93ab_a04a_9b3c_85ca;
    let dir = TempDir::new("join-fixture");
    std::fs::write(
        dir.join(durable::SNAPSHOT_FILE),
        include_bytes!("fixtures/snapshot_v2_pr20.bin"),
    )
    .unwrap();
    let recovered = replay(dir.path(), &FunctionRegistry::default(), &test_actions()).unwrap();
    let engine = &recovered.engine;
    assert_eq!(engine.join_fingerprint(), RECORDED);
    engine.check_join_invariants().unwrap();
    let mut matches: Vec<(u32, usize)> = engine
        .rules_detail()
        .map(|(id, _, _)| (id.0, engine.join_matches(id).unwrap()[0].len()))
        .collect();
    matches.sort_unstable();
    assert_eq!(matches, [(0, 15), (1, 11), (2, 10)]);

    // And the engine it opens into writes the same digest back.
    let mut engine = open(dir.path());
    assert_eq!(engine.engine().join_fingerprint(), RECORDED);
    engine.delete("emp", TupleId(0)).unwrap();
    engine.snapshot().unwrap();
    let after = engine.engine().join_fingerprint();
    assert_ne!(after, RECORDED);
    drop(engine);
    assert_eq!(open(dir.path()).engine().join_fingerprint(), after);
}
