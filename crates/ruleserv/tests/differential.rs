//! Whole-stack differential (ROADMAP item 5): one seeded `Vec<Record>`
//! driven three ways, which must agree record by record and end in the
//! same state.
//!
//! * **A — the oracle.** A bare [`RuleEngine`] through its typed
//!   methods, dispatched by this file's own `match`. It never touches
//!   `durable`'s record interpreter, so it is what the other two are
//!   judged against.
//! * **B — durable, crashed and recovered.** [`DurableRuleEngine::apply`]
//!   with a snapshot every 7 records, dropped without a final snapshot
//!   and re-opened (snapshot load + WAL replay) at seeded cut points.
//! * **C — the wire.** An in-process `ruleserv::serve` fed
//!   `Request::Apply(record)` in order, pipelined so group commit forms
//!   groups; the engine is taken back from `shutdown()`.
//!
//! Compared per record: ok or error (refused before logging vs engine
//! error, the latter by message), fired rule ids in firing order,
//! operations applied, the allocated rule id and the WAL sequence
//! number; at the end, the `fingerprint` the durable fault-injection
//! suites use.

#[path = "../../durable/tests/common/mod.rs"]
mod common;

use common::{fingerprint, shadow_rule, test_actions, TempDir};
use durable::{
    ActionRegistry, ActionSpec, Applied, DurableError, DurableRuleEngine, Options, Record,
    RuleSpec, SyncPolicy,
};
use predicate::FunctionRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, TupleId, Value};
use rules::{EngineError, EventMask, FireReport, RuleEngine, RuleId};
use ruleserv::{serve, Client, Reply, Request, ServerOptions};

const SEEDS: u64 = 24;

/// `audit` is the cascade's sink: no rule triggers an action from it,
/// so every chain terminates.
const RELS: [&str; 3] = ["emp", "dept", "audit"];

fn schema(r: usize) -> Schema {
    match RELS[r] {
        "emp" => Schema::builder("emp")
            .attr("a", AttrType::Int)
            .attr("s", AttrType::Str)
            .build(),
        "dept" => Schema::builder("dept").attr("b", AttrType::Int).build(),
        _ => Schema::builder("audit").attr("n", AttrType::Int).build(),
    }
}

/// `(condition, may carry the cascading action)`.
const CONDS: [(&str, bool); 8] = [
    ("emp.a > 10", true),
    ("emp.a < 0 or emp.a > 90", true),
    ("dept.b >= 5", true),
    ("isodd(emp.a)", true),
    ("emp.a >= 0 and emp.s < \"zz\"", true),
    ("emp.a = dept.b", true),
    // Joins through the sink only log: a cascading one could feed itself.
    ("emp.a = dept.b and dept.b = audit.n", false),
    // Does not parse: refused before it reaches any log.
    ("emp.a >", false),
];

fn spec(rng: &mut StdRng) -> RuleSpec {
    let (c, mask) = (rng.gen_range(0..CONDS.len()), rng.gen_range(0..3));
    let (condition, may_cascade) = CONDS[c];
    RuleSpec {
        name: format!("r{c}-{mask}"),
        condition: condition.into(),
        mask: match mask {
            0 => EventMask::ALL,
            1 => EventMask::INSERT_UPDATE,
            _ => EventMask {
                on_insert: false,
                on_update: false,
                on_delete: true,
            },
        },
        priority: rng.gen_range(-1..3),
        action: match rng.gen_range(0..8) {
            0..=2 if may_cascade => ActionSpec::Named("cascade".into()),
            // Not registered: the other way a spec is refused.
            3 if c == 0 => ActionSpec::Named("unregistered".into()),
            _ => ActionSpec::Log("hit".into()),
        },
    }
}

/// A relation name, now and then one nobody created.
fn rel(rng: &mut StdRng) -> (usize, String) {
    let r = rng.gen_range(0..RELS.len());
    let name = if rng.gen_range(0..12) == 0 {
        "ghost"
    } else {
        RELS[r]
    };
    (r, name.to_string())
}

fn row(rng: &mut StdRng, r: usize) -> Vec<Value> {
    let v = Value::Int(rng.gen_range(-20..110));
    match RELS[r] {
        "emp" => vec![v, Value::str(["", "a", "mx", "zz"][rng.gen_range(0..4)])],
        _ => vec![v],
    }
}

fn records(seed: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Fixed prelude so the random suffix usually has something to hit.
    let mut out: Vec<Record> = (0..3)
        .map(|r| Record::CreateRelation { schema: schema(r) })
        .collect();
    for _ in 0..4 {
        out.push(Record::AddRule {
            spec: spec(&mut rng),
        });
    }
    for _ in 0..rng.gen_range(45..75) {
        let (r, relation) = rel(&mut rng);
        // Ids are drawn blind, so many are stale or never existed.
        let id = rng.gen_range(0..10);
        out.push(match rng.gen_range(0..100) {
            0..=2 => Record::CreateRelation { schema: schema(r) },
            3..=4 => Record::DropRelation { name: relation },
            5..=16 => Record::AddRule {
                spec: spec(&mut rng),
            },
            17..=20 => Record::RemoveRule { id },
            21..=60 => Record::Insert {
                relation,
                values: row(&mut rng, r),
            },
            61..=75 => Record::Update {
                relation,
                id,
                values: row(&mut rng, r),
            },
            76..=87 => Record::Delete { relation, id },
            _ => Record::InsertBatch {
                relation,
                rows: (0..rng.gen_range(1..5)).map(|_| row(&mut rng, r)).collect(),
            },
        });
    }
    out
}

/// What one record did, as far as any of the three drivers can tell.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Unit,
    RuleId(u32),
    Fired {
        rules: Vec<u32>,
        ops: u64,
    },
    /// The spec was refused before logging. (The wire carries only the
    /// error text, so the refusal's wording is not compared.)
    Refused,
    /// The engine rejected the operation, with this message.
    Failed(String),
}

fn fired(report: Result<FireReport, EngineError>) -> Outcome {
    match report {
        Ok(report) => Outcome::Fired {
            rules: report.fired.iter().map(|(id, _)| id.0).collect(),
            ops: report.ops_applied as u64,
        },
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

fn unit<T>(result: Result<T, EngineError>) -> Outcome {
    match result {
        Ok(_) => Outcome::Unit,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// A: the record's meaning spelled out against the bare engine.
fn oracle(engine: &mut RuleEngine, record: &Record, actions: &ActionRegistry) -> Outcome {
    match record.clone() {
        Record::CreateRelation { schema } => unit(engine.create_relation(schema)),
        Record::DropRelation { name } => unit(engine.drop_relation(&name)),
        Record::AddRule { spec } => {
            let parses =
                predicate::parse_conditions(&spec.condition, &FunctionRegistry::default()).is_ok();
            let resolves = match &spec.action {
                ActionSpec::Named(name) => actions.get(name).is_some(),
                ActionSpec::Log(_) => true,
            };
            if !(parses && resolves) {
                return Outcome::Refused;
            }
            match engine.add_rule(shadow_rule(&spec, actions)) {
                Ok(id) => Outcome::RuleId(id.0),
                Err(e) => Outcome::Failed(e.to_string()),
            }
        }
        Record::RemoveRule { id } => unit(engine.remove_rule(RuleId(id))),
        Record::Insert { relation, values } => fired(engine.insert(&relation, values)),
        Record::Update {
            relation,
            id,
            values,
        } => fired(engine.update(&relation, TupleId(id), values)),
        Record::Delete { relation, id } => fired(engine.delete(&relation, TupleId(id))),
        Record::InsertBatch { relation, rows } => fired(engine.insert_batch(&relation, rows)),
    }
}

fn applied(result: Result<Applied, DurableError>) -> Outcome {
    match result {
        Ok(Applied::Fired(report)) => fired(Ok(report)),
        Ok(Applied::RuleAdded(id)) => Outcome::RuleId(id.0),
        Ok(Applied::Created | Applied::Dropped(_) | Applied::RuleRemoved(_)) => Outcome::Unit,
        Err(DurableError::Parse { .. } | DurableError::UnknownAction(_)) => Outcome::Refused,
        Err(DurableError::Engine(e)) => Outcome::Failed(e.to_string()),
        Err(other) => panic!("environment failure: {other}"),
    }
}

/// B: returns the fingerprint recovered after the last record.
fn durable_with_crashes(seed: u64, records: &[Record], want: &[(Outcome, u64)]) -> String {
    let dir = TempDir::new("differential-b");
    let open = || {
        DurableRuleEngine::open(
            dir.path(),
            FunctionRegistry::default(),
            test_actions(),
            Options {
                sync: SyncPolicy::Manual,
                snapshot_every: Some(7),
            },
        )
        .unwrap()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    let cuts: Vec<usize> = (0..3).map(|_| rng.gen_range(1..records.len())).collect();
    let mut engine = open();
    for (i, (record, (outcome, seq))) in records.iter().zip(want).enumerate() {
        if cuts.contains(&i) {
            // The crash: no final snapshot, no sync. What comes back is
            // the last snapshot plus the WAL suffix.
            drop(engine);
            engine = open();
        }
        assert_eq!(engine.next_seq(), *seq, "seed {seed} record {i}");
        let got = applied(engine.apply(record.clone()));
        assert_eq!(&got, outcome, "seed {seed} record {i}: {record:?}");
        assert_eq!(
            engine.next_seq() > *seq,
            got != Outcome::Refused,
            "seed {seed} record {i}: logged unless refused"
        );
    }
    drop(engine);
    fingerprint(open().engine())
}

/// C: returns the fingerprint of the engine the server hands back.
fn over_the_wire(seed: u64, records: &[Record], want: &[(Outcome, u64)]) -> String {
    let dir = TempDir::new("differential-c");
    let engine = DurableRuleEngine::open(
        dir.path(),
        FunctionRegistry::default(),
        test_actions(),
        Options {
            sync: SyncPolicy::Always,
            snapshot_every: Some(7),
        },
    )
    .unwrap();
    let server = serve("127.0.0.1:0", engine, ServerOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for record in records {
        client.send(&Request::Apply(record.clone())).unwrap();
    }
    for (i, (outcome, seq)) in want.iter().enumerate() {
        let got = match client.recv_reply().unwrap() {
            Reply::Unit => Outcome::Unit,
            Reply::RuleId(id) => Outcome::RuleId(id),
            Reply::Fire(summary) => {
                assert_eq!(summary.seq, *seq, "seed {seed} record {i}");
                Outcome::Fired {
                    rules: summary.fired.iter().map(|(id, _)| *id).collect(),
                    ops: summary.ops_applied,
                }
            }
            Reply::Err(_) if *outcome == Outcome::Refused => Outcome::Refused,
            Reply::Err(message) => Outcome::Failed(message),
            other => panic!("seed {seed} record {i}: unexpected {other:?}"),
        };
        assert_eq!(&got, outcome, "seed {seed} record {i}: {:?}", records[i]);
    }
    drop(client);
    let engine = server.shutdown().expect("engine handed back");
    fingerprint(engine.engine())
}

#[test]
fn engine_durable_and_wire_agree_record_by_record() {
    let actions = test_actions();
    let mut kinds = [0usize; 6];
    for seed in 0..SEEDS {
        let records = records(seed);
        let mut engine = RuleEngine::new(Database::new());
        let mut seq = 1;
        let want: Vec<(Outcome, u64)> = records
            .iter()
            .map(|record| {
                let outcome = oracle(&mut engine, record, &actions);
                let logged_as = seq;
                seq += u64::from(outcome != Outcome::Refused);
                (outcome, logged_as)
            })
            .collect();
        for (outcome, _) in &want {
            kinds[match outcome {
                Outcome::Unit => 0,
                Outcome::RuleId(_) => 1,
                Outcome::Fired { rules, .. } => 2 + usize::from(rules.is_empty()),
                Outcome::Refused => 4,
                Outcome::Failed(_) => 5,
            }] += 1;
        }
        let expect = fingerprint(&engine);
        assert_eq!(
            durable_with_crashes(seed, &records, &want),
            expect,
            "seed {seed}: recovered durable engine diverged from the oracle"
        );
        assert_eq!(
            over_the_wire(seed, &records, &want),
            expect,
            "seed {seed}: served engine diverged from the oracle"
        );
    }
    // The generator must keep reaching every kind of outcome, or the
    // agreement above is about less than it claims.
    assert!(kinds.iter().all(|&n| n >= SEEDS as usize), "{kinds:?}");
}
