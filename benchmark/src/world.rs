//! The vocabulary every workload shares: generated operations, rule
//! definitions with their actions, the client-side model that predicts
//! tuple ids, and state fingerprints for the correctness gates.

use crate::rng::SplitMix64;
use relation::fx::FnvHasher;
use relation::{AttrType, Relation, Schema, TupleEvent, TupleId, Value};
use rules::{Action, DbOp, EventMask, Rule, RuleContext, RuleEngine};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// What a fired rule does. Closures cannot cross the WAL, so durable
/// rules name these and every engine instance resolves the name again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Fire and do nothing (the firing itself is the observable).
    Noop,
    /// Insert `(ref, level, region)` into `alerts`, derived from the
    /// triggering tuple.
    Raise,
    /// Insert `(ref, level, flag)` into `audit`, derived from an alert.
    Escalate,
    /// Delete the triggering tuple.
    Consume,
    /// Rewrite the triggering tuple with its last attribute raised by
    /// [`TOUCHED`], so it re-enters matching as an update.
    Touch,
}

/// What [`ActionKind::Touch`] adds to a tuple's last attribute.
pub const TOUCHED: i64 = 1_000;

impl ActionKind {
    pub const ALL: [ActionKind; 5] = [
        ActionKind::Noop,
        ActionKind::Raise,
        ActionKind::Escalate,
        ActionKind::Consume,
        ActionKind::Touch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ActionKind::Noop => "noop",
            ActionKind::Raise => "raise",
            ActionKind::Escalate => "escalate",
            ActionKind::Consume => "consume",
            ActionKind::Touch => "touch",
        }
    }
}

/// A rule as the generator emits it: source text, not parsed state, so
/// parsing is part of the measured `add_rule` call.
#[derive(Debug, Clone)]
pub struct RuleDef {
    pub name: String,
    pub condition: String,
    pub action: ActionKind,
    pub priority: i32,
}

/// One client-visible call.
#[derive(Debug, Clone)]
pub enum Op {
    Insert {
        rel: usize,
        values: Vec<Value>,
    },
    /// `insert_batch`: one call, one matching level over all rows.
    InsertBatch {
        rel: usize,
        rows: Vec<Vec<Value>>,
    },
    Update {
        rel: usize,
        id: u32,
        values: Vec<Value>,
    },
    Delete {
        rel: usize,
        id: u32,
    },
    AddRule(RuleDef),
    RemoveRule {
        id: u32,
    },
    Ping,
    Health,
}

/// A database operation a rule action queued, with `*Current` targets
/// resolved — what the lower-layer mirrors replay to stay in step with
/// the engine's cascade.
#[derive(Debug, Clone)]
pub enum CascadeOp {
    Insert {
        relation: String,
        values: Vec<Value>,
    },
    Update {
        relation: String,
        id: u32,
        values: Vec<Value>,
    },
    Delete {
        relation: String,
        id: u32,
    },
}

/// Where actions of one engine instance report the operations they
/// queue. Only the instance whose cascade the mirrors follow records.
pub type CascadeLog = Arc<Mutex<Vec<CascadeOp>>>;

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => 0,
    }
}

/// The closure behind an [`ActionKind`].
pub fn action_fn(
    kind: ActionKind,
    log: Option<CascadeLog>,
) -> impl Fn(&mut RuleContext<'_>) + Send + Sync + 'static {
    move |ctx: &mut RuleContext<'_>| {
        let (relation, id, tuple) = match ctx.event {
            TupleEvent::Inserted {
                relation,
                id,
                tuple,
            } => (relation, *id, tuple),
            TupleEvent::Updated {
                relation, id, new, ..
            } => (relation, *id, new),
            // Every generated rule masks deletes out; a delete event
            // has no current tuple to act on.
            TupleEvent::Deleted { .. } => return,
        };
        let derived = |target: &str, third: i64| {
            let v = tuple.values();
            let values = vec![
                Value::Int(int(&v[0])),
                Value::Int(int(&v[2]).rem_euclid(4)),
                Value::Int(third),
            ];
            (target.to_string(), values)
        };
        let record = |op: CascadeOp| {
            if let Some(log) = &log {
                log.lock().expect("cascade log poisoned").push(op);
            }
        };
        match kind {
            ActionKind::Noop => {}
            ActionKind::Raise | ActionKind::Escalate => {
                let (target, values) = if kind == ActionKind::Raise {
                    derived("alerts", int(&tuple.values()[3]))
                } else {
                    derived("audit", int(&tuple.values()[0]) & 1)
                };
                record(CascadeOp::Insert {
                    relation: target.clone(),
                    values: values.clone(),
                });
                ctx.queue(DbOp::Insert {
                    relation: target,
                    values,
                });
            }
            ActionKind::Consume => {
                record(CascadeOp::Delete {
                    relation: relation.clone(),
                    id: id.0,
                });
                ctx.queue(DbOp::DeleteCurrent);
            }
            ActionKind::Touch => {
                let mut values = tuple.values().to_vec();
                if let Some(Value::Int(last)) = values.last_mut() {
                    *last += TOUCHED;
                }
                record(CascadeOp::Update {
                    relation: relation.clone(),
                    id: id.0,
                    values: values.clone(),
                });
                ctx.queue(DbOp::UpdateCurrent { values });
            }
        }
    }
}

/// Parses `def` into a live rule — the in-memory twin of what
/// `durable::DurableRuleEngine::add_rule` builds from a `RuleSpec`.
pub fn build_rule(def: &RuleDef, log: Option<CascadeLog>) -> Result<Rule, String> {
    Ok(Rule::builder(def.name.clone())
        .when(&def.condition)
        .map_err(|e| format!("{}: {e}", def.condition))?
        .on(EventMask::INSERT_UPDATE)
        .then(Action::callback(action_fn(def.action, log)))
        .priority(def.priority)
        .build())
}

/// The durable form of `def`.
pub fn rule_spec(def: &RuleDef) -> durable::RuleSpec {
    durable::RuleSpec {
        name: def.name.clone(),
        condition: def.condition.clone(),
        mask: EventMask::INSERT_UPDATE,
        priority: def.priority,
        action: durable::ActionSpec::Named(def.action.name().to_string()),
    }
}

/// Every [`ActionKind`] under its name.
pub fn action_registry(log: Option<CascadeLog>) -> durable::ActionRegistry {
    let mut reg = durable::ActionRegistry::new();
    for kind in ActionKind::ALL {
        reg.register(kind.name(), action_fn(kind, log.clone()));
    }
    reg
}

/// A schema of `attrs` integer attributes named `a`, `b`, `c`, ...
pub fn int_schema(name: &str, attrs: &[&str]) -> Schema {
    attrs
        .iter()
        .fold(Schema::builder(name), |b, a| b.attr(*a, AttrType::Int))
        .build()
}

/// The client's model of one relation it writes: a real
/// [`relation::Relation`] fed the same mutations, so it hands out the
/// tuple ids the engine will (inserts return no id to the caller) and
/// holds the contents the engine must end with.
pub struct Model {
    pub rel: Relation,
    live: Vec<u32>,
}

impl Model {
    pub fn new(schema: Schema) -> Self {
        Model {
            rel: Relation::new(schema),
            live: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn insert(&mut self, values: Vec<Value>) -> u32 {
        let id = self
            .rel
            .insert(values)
            .expect("generated tuple fits its schema");
        self.live.push(id.0);
        id.0
    }

    /// Replaces a uniformly chosen live tuple; returns its id.
    pub fn update_random(&mut self, rng: &mut SplitMix64, values: Vec<Value>) -> u32 {
        let id = self.live[rng.below(self.live.len() as u64) as usize];
        self.rel
            .update(TupleId(id), values)
            .expect("model tuple is live");
        id
    }

    /// Deletes a uniformly chosen live tuple; returns its id.
    pub fn delete_random(&mut self, rng: &mut SplitMix64) -> u32 {
        let at = rng.below(self.live.len() as u64) as usize;
        let id = self.live.swap_remove(at);
        self.rel.delete(TupleId(id)).expect("model tuple is live");
        id
    }
}

/// Order-independent digest of a relation's live `(id, tuple)` pairs.
pub fn relation_digest(rel: &Relation) -> u64 {
    let mut acc = 0u64;
    for (id, tuple) in rel.iter() {
        let mut h = FnvHasher::default();
        id.0.hash(&mut h);
        for v in tuple.values() {
            match v {
                Value::Bool(b) => b.hash(&mut h),
                Value::Int(i) => i.hash(&mut h),
                Value::Float(f) => f.to_bits().hash(&mut h),
                Value::Str(s) => s.hash(&mut h),
            }
        }
        acc = acc.wrapping_add(h.finish());
    }
    acc
}

/// Digest of everything recovery must bring back: every relation's
/// contents, the rule set with its fire counts, and the join memos.
pub fn engine_fingerprint(engine: &RuleEngine) -> u64 {
    let mut acc = engine.join_fingerprint();
    for rel in engine.db().catalog().relations() {
        let mut h = FnvHasher::default();
        rel.schema().name().hash(&mut h);
        acc = acc.wrapping_add(h.finish() ^ relation_digest(rel));
    }
    for (id, name, fired) in engine.fire_counts() {
        let mut h = FnvHasher::default();
        (id.0, name, fired).hash(&mut h);
        acc = acc.wrapping_add(h.finish());
    }
    acc
}

/// Does the engine hold exactly the model's tuples under `name`?
pub fn relation_matches(engine: &RuleEngine, name: &str, model: &Model) -> bool {
    engine.db().catalog().relation(name).is_some_and(|rel| {
        rel.len() == model.len() && relation_digest(rel) == relation_digest(&model.rel)
    })
}
