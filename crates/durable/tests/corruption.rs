//! Bit-flip fault injection.
//!
//! WAL: flipping any bit anywhere in the log must leave recovery
//! *working* — the damaged frame and everything after it are dropped,
//! and the recovered state equals the state after some prefix of the
//! operation history no longer than the damaged point.
//!
//! Snapshot: the snapshot is written atomically and checksummed, so
//! any damage there is a **hard error** — recovery must refuse (and
//! must not panic) rather than proceed from silently wrong state.

mod common;

use common::{apply_both, fingerprint, test_actions, Cmd, TempDir};
use durable::{
    parse_wal, read_snapshot, replay, write_snapshot, ActionSpec, DurableError, DurableRuleEngine,
    Options, RecoverError, RuleSpec, SnapshotMetrics, SyncPolicy, SNAPSHOT_FILE, WAL_FILE,
};
use predicate::FunctionRegistry;
use relation::{AttrType, Database, Schema, Value};
use rules::{EventMask, RuleEngine};

/// A compact workload with rules, firings, and churn.
fn build(dir: &TempDir) -> (Vec<String>, Vec<u8>, Vec<u8>) {
    let actions = test_actions();
    let mut durable = DurableRuleEngine::open(
        dir.path(),
        FunctionRegistry::default(),
        actions.clone(),
        Options {
            sync: SyncPolicy::Manual,
            snapshot_every: None,
        },
    )
    .unwrap();
    let mut shadow = RuleEngine::new(Database::new());
    let cmds = vec![
        Cmd::Create(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("salary", AttrType::Int)
                .build(),
        ),
        Cmd::Create(Schema::builder("audit").attr("n", AttrType::Int).build()),
        Cmd::AddRule(RuleSpec {
            name: "vip".into(),
            condition: "emp.salary > 1000".into(),
            mask: EventMask::ALL,
            priority: 1,
            action: ActionSpec::Named("cascade".into()),
        }),
        Cmd::Insert("emp".into(), vec![Value::str("al"), Value::Int(2_000)]),
        Cmd::Insert("emp".into(), vec![Value::str("bo"), Value::Int(10)]),
        Cmd::UpdateNth("emp".into(), 1, vec![Value::str("bo"), Value::Int(5_000)]),
        Cmd::DeleteNth("emp".into(), 0),
        Cmd::Insert("emp".into(), vec![Value::str("cy"), Value::Int(9_999)]),
    ];
    let mut expected = vec![fingerprint(&shadow)];
    for cmd in cmds {
        let before = durable.next_seq();
        apply_both(&cmd, &mut durable, &mut shadow, &actions);
        if durable.next_seq() > before {
            expected.push(fingerprint(&shadow));
        }
    }
    durable.sync().unwrap();
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let snap = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    (expected, wal, snap)
}

#[test]
fn wal_bit_flips_recover_to_a_prefix_at_or_before_the_damage() {
    let build_dir = TempDir::new("flip-build");
    let (expected, wal_bytes, snap_bytes) = build(&build_dir);
    let frame_ends = parse_wal(&wal_bytes).frame_ends;
    assert!(frame_ends.len() >= 7);

    let funcs = FunctionRegistry::default();
    let actions = test_actions();
    let crash = TempDir::new("flip-crash");
    for pos in 0..wal_bytes.len() {
        for bit in [0u8, 3, 7] {
            let mut bad = wal_bytes.clone();
            bad[pos] ^= 1 << bit;
            std::fs::write(crash.join(SNAPSHOT_FILE), &snap_bytes).unwrap();
            std::fs::write(crash.join(WAL_FILE), &bad).unwrap();
            let recovered = replay(crash.path(), &funcs, &actions)
                .unwrap_or_else(|e| panic!("flip at byte {pos} bit {bit} broke recovery: {e}"));
            // The damaged byte lives in (or before) some frame; the
            // recovered state may not include that frame or anything
            // after it, but every earlier frame must survive intact.
            let ceiling = frame_ends.iter().filter(|&&e| e <= pos as u64).count();
            let got = fingerprint(&recovered.engine);
            let k = expected.iter().position(|f| *f == got).unwrap_or_else(|| {
                panic!("flip at byte {pos} bit {bit} recovered to a non-prefix state")
            });
            assert!(
                k <= ceiling + 1,
                "flip at byte {pos} bit {bit}: recovered {k} ops, damage caps it near {ceiling}"
            );
        }
    }
}

#[test]
fn snapshot_damage_is_always_refused() {
    let dir = TempDir::new("snap-flip");
    let (_, _, snap_bytes) = build(&dir);
    let funcs = FunctionRegistry::default();
    let actions = test_actions();

    let crash = TempDir::new("snap-flip-crash");
    for pos in 0..snap_bytes.len() {
        let mut bad = snap_bytes.clone();
        bad[pos] ^= 0x10;
        std::fs::write(crash.join(SNAPSHOT_FILE), &bad).unwrap();
        let res = replay(crash.path(), &funcs, &actions);
        assert!(res.is_err(), "snapshot flip at byte {pos} was not detected");
    }
    // And truncations.
    for cut in (0..snap_bytes.len()).step_by(7) {
        std::fs::write(crash.join(SNAPSHOT_FILE), &snap_bytes[..cut]).unwrap();
        assert!(replay(crash.path(), &funcs, &actions).is_err());
    }
}

/// A snapshot whose checksum is valid but which names one rule id twice
/// is corrupt state from outside the program: opening refuses it.
#[test]
fn a_snapshot_naming_a_rule_id_twice_is_refused() {
    let dir = TempDir::new("snap-dup-rule");
    let opts = Options {
        sync: SyncPolicy::Manual,
        snapshot_every: None,
    };
    let (funcs, actions) = (FunctionRegistry::default(), test_actions());
    {
        let mut durable =
            DurableRuleEngine::open(dir.path(), funcs.clone(), actions.clone(), opts).unwrap();
        durable
            .create_relation(Schema::builder("emp").attr("x", AttrType::Int).build())
            .unwrap();
        durable
            .add_rule(RuleSpec {
                name: "pos".into(),
                condition: "emp.x > 0".into(),
                mask: EventMask::ALL,
                priority: 0,
                action: ActionSpec::Named("cascade".into()),
            })
            .unwrap();
        durable.snapshot().unwrap();
    }
    let mut snap = read_snapshot(dir.path()).unwrap().unwrap();
    assert_eq!(snap.rules.len(), 1);
    snap.rules.push(snap.rules[0].clone());
    write_snapshot(dir.path(), &snap, &SnapshotMetrics::default()).unwrap();

    match DurableRuleEngine::open(dir.path(), funcs, actions, opts) {
        Err(DurableError::Recover(RecoverError::Corrupt { detail, .. })) => {
            assert!(detail.contains("already registered"), "{detail}");
        }
        other => panic!("expected a corrupt-snapshot refusal, got {:?}", other.err()),
    }
}
