//! A snapshot holds the engine's state, not its output: over a relation
//! that holds at most one row, a logging rule's lines come back in the
//! reports of the operations that fired them, and the snapshot taken
//! after 4,096 operations is as long as the one taken after 1,024.

mod common;

use common::{test_actions, TempDir};
use durable::{ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy, SNAPSHOT_FILE};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, Value};
use rules::EventMask;

/// Runs `ops` operations — an insert of `t(k)`, `k` cycling through
/// 0..100, then its delete — and returns the lines their reports carry.
fn insert_delete_pairs(engine: &mut DurableRuleEngine, ops: usize) -> usize {
    let mut lines = 0;
    for i in 0..ops / 2 {
        let report = engine.insert("t", vec![Value::Int(i as i64 % 100)]);
        let report = report.expect("a well-typed row");
        assert_eq!(report.log.len(), report.fired.len());
        lines += report.log.len();
        let rel = engine.engine().db().catalog().relation("t");
        let (id, _) = rel.and_then(|r| r.iter().next()).expect("the row");
        lines += engine.delete("t", id).expect("a live row").log.len();
    }
    lines
}

#[test]
fn a_snapshot_does_not_grow_with_the_lines_its_rules_logged() {
    let dir = TempDir::new("snapshot-size");
    let options = Options {
        sync: SyncPolicy::Manual,
        snapshot_every: Some(64),
    };
    let funcs = FunctionRegistry::default();
    let mut engine = DurableRuleEngine::open(dir.path(), funcs, test_actions(), options)
        .expect("a fresh directory opens");
    let schema = Schema::builder("t").attr("k", AttrType::Int).build();
    engine.create_relation(schema).expect("fresh relation");
    engine
        .add_rule(RuleSpec {
            name: "low".into(),
            condition: "t.k < 50".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Log("t low k".into()),
        })
        .expect("t has k");

    let mut lines = 0;
    let mut sizes = Vec::new();
    for ops in [1_024, 3_072] {
        lines += insert_delete_pairs(&mut engine, ops);
        engine.snapshot().expect("an explicit snapshot");
        let len = std::fs::metadata(dir.join(SNAPSHOT_FILE)).expect("a snapshot");
        sizes.push(len.len());
    }
    // One line per firing, each returned once: in the report.
    assert!(lines > 0);
    assert_eq!(lines as u64, engine.engine().total_fired());
    assert_eq!(
        sizes[0], sizes[1],
        "snapshot.bin after 1,024 and after 4,096 operations"
    );
}
