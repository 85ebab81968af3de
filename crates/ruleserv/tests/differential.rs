//! Whole-stack differential (ROADMAP item 5): one seeded `Vec<Record>`
//! driven four ways, which must agree record by record and end in the
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
//! * **D — from scratch.** [`Naive`], a saturate-to-fixpoint forward
//!   chainer over a plain [`Database`] that shares no code with the
//!   engine's matching: no index, memo or slab. A chain advances only by
//!   its `step` (one level of events), and `match_all` binds every rule
//!   condition and join premise against its schema and tests it on every
//!   event's tuple. Against A, per record: the outcome (a firing-limit
//!   error told from any other), the fired rules and each firing's bound
//!   tuples as multisets, the operations applied, and every relation's
//!   contents.
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
use predicate::{JoinCondition, JoinTest, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Catalog, Database, Schema, Tuple, TupleEvent, TupleId, Value};
use rules::{EngineError, EventMask, FireReport, RuleEngine, RuleId};
use ruleserv::{serve, Client, Reply, Request, ServerOptions};
use std::collections::BTreeMap;

const SEEDS: u64 = 24;

/// `audit` is where every cascade inserts. Only the rare rule that
/// closes a seed's records (see `records`) cascades from it, and that
/// chain feeds itself until the firing limit stops it; every other
/// chain ends at `audit`.
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
    // One seed in eight ends with a rule whose cascade feeds itself, run
    // on a fresh `audit` (dropping it takes every audit premise away, so
    // no join multiplies the loop's 10,000 events). Its trigger runs to
    // the firing limit and leaves the partial cascade in `audit`.
    if seed % 8 == 7 {
        out.push(Record::DropRelation {
            name: "audit".into(),
        });
        out.push(Record::CreateRelation { schema: schema(2) });
        out.push(Record::AddRule {
            spec: RuleSpec {
                name: "loop".into(),
                condition: "audit.n > 0".into(),
                mask: [EventMask::ALL, EventMask::INSERT_UPDATE][rng.gen_range(0..2)],
                priority: rng.gen_range(-1..3),
                action: ActionSpec::Named("cascade".into()),
            },
        });
        out.push(Record::Insert {
            relation: "audit".into(),
            values: vec![Value::Int(rng.gen_range(1..110))],
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

/// A: the record's meaning spelled out against the bare engine, with
/// the firings of a record that fired (for D).
fn oracle(
    engine: &mut RuleEngine,
    record: &Record,
    actions: &ActionRegistry,
) -> (Outcome, Vec<Firing>) {
    let report = |r: Result<FireReport, EngineError>| {
        let f = r.as_ref().map(firings).unwrap_or_default();
        (fired(r), f)
    };
    let outcome = match record.clone() {
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
                return (Outcome::Refused, Vec::new());
            }
            match engine.add_rule(shadow_rule(&spec, actions)) {
                Ok(id) => Outcome::RuleId(id.0),
                Err(e) => Outcome::Failed(e.to_string()),
            }
        }
        Record::RemoveRule { id } => unit(engine.remove_rule(RuleId(id))),
        Record::Insert { relation, values } => return report(engine.insert(&relation, values)),
        Record::Update {
            relation,
            id,
            values,
        } => return report(engine.update(&relation, TupleId(id), values)),
        Record::Delete { relation, id } => return report(engine.delete(&relation, TupleId(id))),
        Record::InsertBatch { relation, rows } => {
            return report(engine.insert_batch(&relation, rows))
        }
    };
    (outcome, Vec::new())
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

/// A firing as D sees it: the rule and its bound `(relation, tuple id)`s
/// in premise order (none for a single-relation rule).
type Firing = (u32, Vec<(String, u32)>);

/// A's firings of one record, sorted: D must fire the same multiset.
fn firings(report: &FireReport) -> Vec<Firing> {
    let bound = |t: &rules::BoundTuple| (t.relation.to_string(), t.id.0);
    let fired = report.fired.iter().zip(&report.bindings);
    let mut out: Vec<Firing> = fired
        .map(|((id, _), b)| (id.0, b.iter().map(bound).collect()))
        .collect();
    out.sort();
    out
}

/// Every relation's rows with their tuple ids, by relation name.
fn contents(catalog: &Catalog) -> BTreeMap<String, Vec<(u32, Tuple)>> {
    let rows = |r: &relation::Relation| r.iter().map(|(id, t)| (id.0, t.clone())).collect();
    catalog
        .relations()
        .map(|r| (r.schema().name().to_string(), rows(r)))
        .collect()
}

/// What D tells of a record: A's outcome, an engine error reduced to
/// whether it was the firing limit, the firings as a multiset.
#[derive(Debug, PartialEq)]
enum Seen {
    Unit,
    RuleId(u32),
    Fired(Vec<Firing>, u64),
    Refused,
    Failed { limit: bool },
}

const FAILED: Seen = Seen::Failed { limit: false };

/// D: each record's meaning restated over a plain [`Database`]. Its
/// rules are `(id, rule, cascades)`. `seen` holds every tuple whose
/// event a chain has handled — what a join may bind — and equals the
/// database between records: an aborted chain resets it.
struct Naive {
    db: Database,
    rules: Vec<(u32, rules::Rule, bool)>,
    next_rule: u32,
    seen: BTreeMap<(String, u32), Tuple>,
    limit: usize,
}

/// The only way D tests a condition: bind it, then test the tuple.
fn eval(catalog: &Catalog, pred: &Predicate, tuple: &Tuple) -> bool {
    let schema = catalog.relation(pred.relation()).map(|r| r.schema());
    schema
        .and_then(|s| pred.bind(s).ok())
        .is_some_and(|b| b.matches(tuple))
}

impl Naive {
    fn apply(&mut self, record: &Record, actions: &ActionRegistry) -> Seen {
        let done = |ok: bool| if ok { Seen::Unit } else { FAILED };
        let one = |ev: Result<TupleEvent, _>| ev.map(|e| vec![e]);
        match record.clone() {
            Record::CreateRelation { schema } => done(self.db.create_relation(schema).is_ok()),
            Record::DropRelation { name } => {
                // A condition binds at registration: a dropped relation
                // takes it away for good.
                for (_, rule, _) in &mut self.rules {
                    rule.conditions.retain(|p| p.relation() != name);
                    rule.joins
                        .retain(|j| j.premises().iter().all(|p| p.relation() != name));
                }
                self.seen.retain(|(r, _), _| *r != name);
                done(self.db.drop_relation(&name).is_ok())
            }
            Record::AddRule { spec } => {
                let functions = FunctionRegistry::default();
                let parses = predicate::parse_conditions(&spec.condition, &functions).is_ok();
                // The one named action there is cascades.
                let cascades = match &spec.action {
                    ActionSpec::Named(name) if actions.get(name).is_none() => return Seen::Refused,
                    action => matches!(action, ActionSpec::Named(_)),
                };
                if !parses {
                    return Seen::Refused;
                }
                let rule = shadow_rule(&spec, actions);
                let cat = self.db.catalog();
                let binds = |p: &Predicate| {
                    cat.relation(p.relation())
                        .is_some_and(|r| p.bind(r.schema()).is_ok())
                };
                let ty = |j: &JoinCondition, p: usize, a: &str| {
                    let schema = cat.relation(j.premises()[p].relation())?.schema();
                    Some(schema.attributes()[schema.attr_index(a)?].ty)
                };
                let typed = |j: &JoinCondition, t: &JoinTest| {
                    let left = ty(j, t.left, &t.left_attr);
                    left.is_some() && left == ty(j, t.right, &t.right_attr)
                };
                let valid = |j: &JoinCondition| {
                    j.premises().iter().all(binds) && j.tests().iter().all(|t| typed(j, t))
                };
                if !(rule.conditions.iter().all(binds) && rule.joins.iter().all(valid)) {
                    return FAILED;
                }
                self.rules.push((self.next_rule, rule, cascades));
                self.next_rule += 1;
                Seen::RuleId(self.next_rule - 1)
            }
            Record::RemoveRule { id } => {
                let at = self.rules.iter().position(|r| r.0 == id);
                done(at.map(|at| self.rules.remove(at)).is_some())
            }
            Record::Insert { relation, values } => {
                let ev = self.db.insert_event(&relation, values);
                self.chain(one(ev))
            }
            Record::Update {
                relation,
                id,
                values,
            } => {
                let ev = self.db.update_event(&relation, TupleId(id), values);
                self.chain(one(ev))
            }
            Record::Delete { relation, id } => {
                let ev = self.db.delete_event(&relation, TupleId(id));
                self.chain(one(ev))
            }
            Record::InsertBatch { relation, rows } => {
                let db = &mut self.db;
                let events = rows.into_iter().map(|row| db.insert_event(&relation, row));
                let events = events.collect();
                self.chain(events)
            }
        }
    }

    /// Steps level after level to the fixpoint, where no event is left,
    /// or to a failed step; a failure resets `seen` to the database.
    fn chain(&mut self, seed: Result<Vec<TupleEvent>, relation::CatalogError>) -> Seen {
        let (mut level, mut fired, mut ops) = (seed.map_err(|_| false), Vec::new(), 0);
        while let Ok(events) = level {
            if events.is_empty() {
                fired.sort();
                return Seen::Fired(fired, ops);
            }
            ops += events.len() as u64;
            level = self.step(events, &mut fired);
        }
        let cat = self.db.catalog();
        let rows = cat.relations().flat_map(|r| {
            let name = r.schema().name();
            r.iter()
                .map(move |(id, t)| ((name.to_string(), id.0), t.clone()))
        });
        self.seen = rows.collect();
        Seen::Failed {
            limit: level.err() == Some(true),
        }
    }

    /// One level, event by event: retract the event's old tuple from
    /// `seen`, order `match_all`'s agenda — higher priority first, then
    /// the newer rule, a rule's one single-relation firing before its
    /// join firings — and fire it under the limit, a cascade inserting
    /// into `audit`. Returns the next level, or whether a failure was the
    /// firing limit.
    fn step(
        &mut self,
        level: Vec<TupleEvent>,
        fired: &mut Vec<Firing>,
    ) -> Result<Vec<TupleEvent>, bool> {
        let mut next = Vec::new();
        for event in &level {
            let (relation, id, post) = match event {
                TupleEvent::Inserted {
                    relation,
                    id,
                    tuple,
                } => (relation, id.0, Some(tuple)),
                TupleEvent::Updated {
                    relation, id, new, ..
                } => (relation, id.0, Some(new)),
                TupleEvent::Deleted { relation, id, .. } => (relation, id.0, None),
            };
            self.seen.remove(&(relation.clone(), id));
            let mut agenda = self.match_all(event, id, post);
            if let Some(tuple) = post {
                self.seen.insert((relation.clone(), id), tuple.clone());
            }
            agenda.sort_by_key(|&(priority, rule, ref binding, _)| {
                (std::cmp::Reverse((priority, rule)), binding.is_some())
            });
            for (_, rule, binding, cascades) in agenda {
                if fired.len() >= self.limit {
                    return Err(true);
                }
                if cascades {
                    let audit = self.db.insert_event("audit", vec![Value::Int(1)]);
                    next.push(audit.map_err(|_| false)?);
                }
                fired.push((rule, binding.unwrap_or_default()));
            }
        }
        Ok(next)
    }

    /// The tuples of `relation` in `seen`, in id order.
    fn rows(&self, relation: &str) -> impl Iterator<Item = (&(String, u32), &Tuple)> {
        let key = |id| (relation.to_string(), id);
        self.seen.range(key(0)..=key(u32::MAX))
    }

    /// Every rule against one event: once if its mask takes the event
    /// and one of its conditions holds on the event's tuple; and per join
    /// premise the new tuple satisfies, once per combination of `seen`
    /// tuples for the other premises — the solution-set product — that
    /// passes the join's tests. The product grows premise by premise,
    /// each premise's candidates read from its own relation's part of
    /// `seen`, and a partial combination is dropped as soon as a test
    /// whose two premises it binds fails.
    #[allow(clippy::type_complexity)]
    fn match_all(
        &self,
        event: &TupleEvent,
        id: u32,
        post: Option<&Tuple>,
    ) -> Vec<(i32, u32, Option<Vec<(String, u32)>>, bool)> {
        let (cat, relation) = (self.db.catalog(), event.relation());
        let tuple = match event {
            TupleEvent::Deleted { tuple, .. } => tuple,
            _ => post.expect("an insert or update has a post-state"),
        };
        let mut agenda = Vec::new();
        for (rid, rule, cascades) in self.rules.iter().filter(|r| r.1.mask.accepts(event)) {
            let entry = |binding| (rule.priority, *rid, binding, *cascades);
            let on = |p: &Predicate| p.relation() == relation && eval(cat, p, tuple);
            if rule.conditions.iter().any(on) {
                agenda.push(entry(None));
            }
            // Deletes only retract.
            let Some(tuple) = post else { continue };
            for join in &rule.joins {
                let premises = join.premises();
                let Some(at) = premises.iter().position(|p| p.relation() == relation) else {
                    continue;
                };
                if !eval(cat, &premises[at], tuple) {
                    continue;
                }
                let value = |b: &[(u32, &Tuple)], p: usize, a: &str| {
                    let schema = cat
                        .relation(premises[p].relation())
                        .expect("bound")
                        .schema();
                    b[p].1.values()[schema.attr_index(a).expect("checked at add")].clone()
                };
                let holds = |b: &[(u32, &Tuple)], t: &JoinTest| {
                    t.op.holds(
                        &value(b, t.left, &t.left_attr),
                        &value(b, t.right, &t.right_attr),
                    )
                };
                let mut partials: Vec<Vec<(u32, &Tuple)>> = vec![Vec::new()];
                for (q, premise) in premises.iter().enumerate() {
                    let candidates: Vec<(u32, &Tuple)> = match q == at {
                        true => vec![(id, tuple)],
                        false => (self.rows(premise.relation()))
                            .filter(|(_, t)| eval(cat, premise, t))
                            .map(|((_, i), t)| (*i, t))
                            .collect(),
                    };
                    // The tests this premise completes: both sides bound.
                    let due: Vec<&JoinTest> = (join.tests().iter())
                        .filter(|t| t.left.max(t.right) == q)
                        .collect();
                    partials = (partials.iter())
                        .flat_map(|p| candidates.iter().map(|&c| [&p[..], &[c]].concat()))
                        .filter(|b| due.iter().all(|t| holds(b, t)))
                        .collect();
                }
                for b in partials {
                    let named = premises
                        .iter()
                        .zip(&b)
                        .map(|(p, (i, _))| (p.relation().to_string(), *i));
                    agenda.push(entry(Some(named.collect())));
                }
            }
        }
        agenda
    }
}

/// D against A on one record: the outcome, the firings and the
/// contents after it.
fn naive_agrees(
    naive: &mut Naive,
    record: &Record,
    actions: &ActionRegistry,
    (a, a_firings): (&Outcome, Vec<Firing>),
    engine: &RuleEngine,
) -> Result<(), String> {
    let want = match a {
        Outcome::Unit => Seen::Unit,
        Outcome::RuleId(id) => Seen::RuleId(*id),
        Outcome::Fired { ops, .. } => Seen::Fired(a_firings, *ops),
        Outcome::Refused => Seen::Refused,
        Outcome::Failed(message) => Seen::Failed {
            limit: message.contains("(rule loop?)"),
        },
    };
    let got = naive.apply(record, actions);
    if got != want {
        return Err(format!("naive {got:?}, engine {want:?}"));
    }
    if contents(naive.db.catalog()) != contents(engine.db().catalog()) {
        return Err("relation contents differ".into());
    }
    Ok(())
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
    let mut kinds = [0usize; 7];
    for seed in 0..SEEDS {
        let records = records(seed);
        let mut engine = RuleEngine::new(Database::new());
        let mut naive = Naive {
            db: Database::new(),
            rules: Vec::new(),
            next_rule: 0,
            seen: BTreeMap::new(),
            limit: engine.firing_limit(),
        };
        let mut seq = 1;
        let want: Vec<(Outcome, u64)> = records
            .iter()
            .enumerate()
            .map(|(i, record)| {
                let (outcome, firings) = oracle(&mut engine, record, &actions);
                let a = (&outcome, firings);
                if let Err(e) = naive_agrees(&mut naive, record, &actions, a, &engine) {
                    panic!("seed {seed} record {i}: {record:?}: {e}");
                }
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
                Outcome::Failed(m) if m.contains("(rule loop?)") => 6,
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
    // agreement above is about less than it claims; the last kind is a
    // chain stopped by the firing limit.
    let (limited, kinds) = kinds.split_last().expect("seven kinds");
    assert!(kinds.iter().all(|&n| n >= SEEDS as usize), "{kinds:?}");
    assert!(*limited >= 3, "{limited} firing-limit records");
}
