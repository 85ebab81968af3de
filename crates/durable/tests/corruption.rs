//! Bit-flip fault injection.
//!
//! WAL: flipping any bit anywhere in the log must leave recovery
//! *working* — the damaged frame and everything after it are dropped,
//! and the recovered state equals the state after some prefix of the
//! operation history no longer than the damaged point.
//!
//! Snapshot: the snapshot is written atomically and checksummed, so
//! any damage there is a **hard error** — recovery must refuse (and
//! must not panic) rather than proceed from silently wrong state. An
//! open refused that way leaves the home as it found it.
//!
//! Beside the byte-level sweeps, a seeded mutator shaped like the wire
//! one in `ruleserv/tests/hostile_server.rs` (bit flips, truncations,
//! length words set to 0, one short, a little long or near `u32::MAX`)
//! runs over the log's frames and the snapshot, under `bench`'s
//! counting allocator (included by path): no mutation may panic
//! recovery or make it reserve more than the files pay for.

mod common;
#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use common::{apply_both, assert_unchanged, fingerprint, listing, test_actions, Cmd, TempDir};
use counting_alloc::counted;
use durable::{
    parse_wal, read_snapshot, replay, write_snapshot, ActionSpec, DurableError, DurableRuleEngine,
    Options, RecoverError, RuleSpec, SnapshotMetrics, SyncPolicy, SNAPSHOT_FILE, WAL_FILE,
};
use predicate::FunctionRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, Value};
use rules::{EventMask, RuleEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use telemetry::{Registry, Telemetry, Tracer, DEFAULT_TRACE_CAPACITY};

/// Seeded mutations per file.
const MUTATIONS: usize = 300;

/// What any recovery may reserve at once, beside 64 bytes per byte of
/// the files it reads.
const FLOOR: usize = 64 * 1024;

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

/// A traced open of a home whose snapshot, taken after a cascading
/// workload, has one byte flipped in its body: the checksum refuses
/// it, the refusal writes nothing, and its recovery span still
/// reaches the ring `/trace` serves.
#[test]
fn a_refused_open_of_a_damaged_snapshot_writes_nothing() {
    let dir = TempDir::new("snap-refused-open");
    let traced = || {
        Telemetry::new(Arc::new(Registry::new())).with_tracer(Tracer::new(DEFAULT_TRACE_CAPACITY))
    };
    let open = |telemetry: Telemetry| {
        let (funcs, opts) = (FunctionRegistry::default(), Options::default());
        DurableRuleEngine::open_with_metrics(dir.path(), funcs, test_actions(), opts, telemetry)
    };
    {
        let mut engine = open(traced()).unwrap();
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
        engine.snapshot().unwrap();
    }
    let snap_path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&snap_path, &bytes).unwrap();

    let before = listing(dir.path());
    let telemetry = traced();
    match open(telemetry.clone()) {
        Err(DurableError::Recover(RecoverError::Corrupt { .. })) => {}
        other => panic!("expected a corrupt-snapshot refusal, got {:?}", other.err()),
    }
    assert_unchanged(dir.path(), &before);
    let events = telemetry.tracer().events();
    assert!(
        events.iter().any(|e| e.name == "recovery_snapshot_load"),
        "no recovery span in the ring: {events:?}"
    );
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

/// One seeded mutation of a file, shaped like `hostile_server.rs`'s
/// mutator of a wire frame: a bit flip, a truncation, or an edit of the
/// little-endian length word at `len_at` to 0, one short, a little long
/// or near `u32::MAX`. Returns the damaged file and the first byte it
/// changed (a truncation changes the byte it cuts at).
fn mutate(rng: &mut StdRng, mut file: Vec<u8>, len_at: usize) -> (Vec<u8>, usize) {
    match rng.gen_range(0..3) {
        0 => {
            let bit = rng.gen_range(0..file.len() * 8);
            file[bit / 8] ^= 1 << (bit % 8);
            (file, bit / 8)
        }
        1 => {
            let cut = rng.gen_range(0..file.len());
            file.truncate(cut);
            (file, cut)
        }
        _ => {
            let word = &mut file[len_at..len_at + 4];
            let len = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let edited = match rng.gen_range(0..4) {
                0 => 0,
                1 => len - 1,
                2 => len + rng.gen_range(1..65),
                _ => u32::MAX - rng.gen_range(0..16),
            };
            word.copy_from_slice(&edited.to_le_bytes());
            (file, len_at)
        }
    }
}

/// Replays `dir` under the counting allocator: it must not panic, and
/// no single reservation may exceed what the files on disk pay for.
fn replay_counted(dir: &TempDir, paid_for: usize, what: &str) -> Result<String, RecoverError> {
    let (funcs, actions) = (FunctionRegistry::default(), test_actions());
    let (outcome, counts) = counted(|| {
        catch_unwind(AssertUnwindSafe(|| {
            replay(dir.path(), &funcs, &actions).map(|r| fingerprint(&r.engine))
        }))
    });
    let outcome = outcome.unwrap_or_else(|_| panic!("{what}: recovery panicked"));
    assert!(
        counts.largest <= paid_for,
        "{what}: recovery reserved {} bytes at once, over {paid_for}",
        counts.largest
    );
    outcome
}

/// The seeded mutator over the log's frames: whatever one mutation
/// does to frame `i` — or to the header — recovery replays exactly the
/// frames before it, the op prefix it vouches for, and reserves no more
/// than the files pay for.
#[test]
fn seeded_wal_frame_damage_recovers_to_the_frames_before_it() {
    let build_dir = TempDir::new("wal-mutate-build");
    let (expected, wal_bytes, snap_bytes) = build(&build_dir);
    let frame_ends = parse_wal(&wal_bytes).frame_ends;
    assert_eq!(frame_ends.len() + 1, expected.len(), "a frame per op");
    let starts: Vec<usize> = std::iter::once(durable::wal::WAL_HEADER_LEN as u64)
        .chain(frame_ends.iter().copied())
        .take(frame_ends.len())
        .map(|s| s as usize)
        .collect();
    let paid_for = FLOOR + 64 * (wal_bytes.len() + snap_bytes.len());

    let crash = TempDir::new("wal-mutate-crash");
    let mut rng = StdRng::seed_from_u64(0x5741_4c20);
    for round in 0..MUTATIONS {
        let frame = rng.gen_range(0..starts.len());
        let (bad, at) = mutate(&mut rng, wal_bytes.clone(), starts[frame]);
        std::fs::write(crash.join(SNAPSHOT_FILE), &snap_bytes).unwrap();
        std::fs::write(crash.join(WAL_FILE), &bad).unwrap();
        let what = format!("round {round}: frame {frame}, damage at byte {at}");
        let got = replay_counted(&crash, paid_for, &what)
            .unwrap_or_else(|e| panic!("{what}: recovery refused the log: {e}"));
        let before = frame_ends.iter().filter(|&&end| end <= at as u64).count();
        assert_eq!(got, expected[before], "{what}: not the {before}-op prefix");
    }
}

/// The same mutator over the snapshot, its length word the body's:
/// every mutation is refused, without a panic or an oversized
/// reservation.
#[test]
fn seeded_snapshot_damage_is_refused() {
    let build_dir = TempDir::new("snap-mutate-build");
    let (_, wal_bytes, snap_bytes) = build(&build_dir);
    let len_at = durable::snapshot::SNAP_MAGIC.len() + 2;
    let paid_for = FLOOR + 64 * (wal_bytes.len() + snap_bytes.len());

    let crash = TempDir::new("snap-mutate-crash");
    let mut rng = StdRng::seed_from_u64(0x534e_4150);
    for round in 0..MUTATIONS {
        let (bad, at) = mutate(&mut rng, snap_bytes.clone(), len_at);
        std::fs::write(crash.join(SNAPSHOT_FILE), &bad).unwrap();
        std::fs::write(crash.join(WAL_FILE), &wal_bytes).unwrap();
        let what = format!("round {round}: damage at byte {at}");
        assert!(
            replay_counted(&crash, paid_for, &what).is_err(),
            "{what}: a damaged snapshot was accepted"
        );
    }
}
