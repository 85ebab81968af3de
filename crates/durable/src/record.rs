//! Logical WAL records.
//!
//! The log is a *command* log: each record names a mutating engine
//! operation with its original arguments, and recovery re-executes the
//! commands against a rebuilt [`rules::RuleEngine`]. Replay is
//! deterministic — rule ids are allocated sequentially, the agenda is
//! totally ordered, and cascaded operations are a pure function of
//! engine state — so the replayed engine is operation-for-operation
//! identical to the lost one: same match sets, same fire counts, same
//! log lines.
//!
//! Records are self-describing binary values built on
//! [`relation::codec`]; framing (length, checksum, sequence number)
//! belongs to [`crate::wal`], not to the record encoding.
//!
//! ## One interpreter
//!
//! What a record *does* is written once, here beside the enum:
//! `resolve` then `execute`. The live engine
//! ([`crate::DurableRuleEngine::apply`], which the rule server feeds
//! straight from the wire) and WAL replay ([`crate::replay`]) both call
//! this pair, so "recovered = live" holds by construction — there is no
//! second copy of the eight arms to keep in step. Only `AddRule` needs
//! the resolve step: its condition is parsed and its action looked up
//! before the record is logged (live) or executed (replay), and that is
//! the only failure that is about the environment rather than the
//! engine's state. Errors out of `execute` are the engine's own and
//! recur identically on replay.

use crate::recovery::{build_rule, ActionRegistry, RecoverError};
use predicate::FunctionRegistry;
use relation::codec::{
    decode_schema, decode_value, encode_schema, encode_value, CodecError, Reader, Writer,
};
use relation::{Relation, Schema, TupleId, Value};
use rules::{EngineError, EventMask, FireReport, Rule, RuleEngine, RuleId};

/// How a rule's action is named in durable storage. Callbacks are
/// arbitrary native closures and cannot be serialized; durable rules
/// instead carry either a log message or the *name* of a callback the
/// application re-registers in its [`crate::ActionRegistry`] before
/// recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionSpec {
    /// [`rules::Action::Log`] with this message.
    Log(String),
    /// A named callback, resolved against the action registry.
    Named(String),
}

/// A durable rule definition: everything [`rules::Rule`] holds, with
/// the condition as source text and the action as an [`ActionSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpec {
    /// Rule name (diagnostics only, need not be unique).
    pub name: String,
    /// Condition in the predicate language; disjunctions allowed
    /// (split into conjunct predicates exactly as
    /// [`rules::RuleBuilder::when`] does).
    pub condition: String,
    /// Which tuple events trigger the rule.
    pub mask: EventMask,
    /// Agenda priority (higher fires first).
    pub priority: i32,
    /// The action to run on firing.
    pub action: ActionSpec,
}

/// One logged engine mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `RuleEngine::create_relation`.
    CreateRelation { schema: Schema },
    /// `RuleEngine::drop_relation`.
    DropRelation { name: String },
    /// `RuleEngine::add_rule` (the spec is re-parsed on replay).
    AddRule { spec: RuleSpec },
    /// `RuleEngine::remove_rule`.
    RemoveRule { id: u32 },
    /// `RuleEngine::insert`.
    Insert {
        relation: String,
        values: Vec<Value>,
    },
    /// `RuleEngine::update`.
    Update {
        relation: String,
        id: u32,
        values: Vec<Value>,
    },
    /// `RuleEngine::delete`.
    Delete { relation: String, id: u32 },
    /// `RuleEngine::insert_batch`.
    InsertBatch {
        relation: String,
        rows: Vec<Vec<Value>>,
    },
}

/// What executing one record did: the live caller's return value
/// (replay drops it).
#[derive(Debug)]
pub enum Applied {
    /// `CreateRelation`.
    Created,
    /// `DropRelation`: the relation as it was dropped.
    Dropped(Relation),
    /// `AddRule`: the id the engine allocated.
    RuleAdded(RuleId),
    /// `RemoveRule`: the rule as it was registered.
    RuleRemoved(Rule),
    /// `Insert` / `Update` / `Delete` / `InsertBatch`: the rule chain
    /// the operation triggered.
    Fired(FireReport),
}

impl Applied {
    pub(crate) fn into_rule_id(self) -> RuleId {
        let Applied::RuleAdded(id) = self else {
            mismatch("a rule id")
        };
        id
    }

    pub(crate) fn into_report(self) -> FireReport {
        let Applied::Fired(report) = self else {
            mismatch("a fire report")
        };
        report
    }
}

/// The typed wrappers know the outcome their own record kind produces.
fn mismatch(wanted: &str) -> ! {
    panic!("execute answers each record kind with one fixed outcome; this one is not {wanted}")
}

/// The live rule an `AddRule` record registers (`None` for every other
/// kind). Fails only for a condition that does not parse or a named
/// action that is not registered: live, the spec is refused with
/// nothing logged; on replay, recovery aborts.
pub(crate) fn resolve(
    record: &Record,
    funcs: &FunctionRegistry,
    actions: &ActionRegistry,
) -> Result<Option<Rule>, RecoverError> {
    match record {
        Record::AddRule { spec } => build_rule(spec, funcs, actions).map(Some),
        _ => Ok(None),
    }
}

/// Runs one record against the engine — the only place a [`Record`]
/// turns into engine calls. `rule` is what [`resolve`] returned for
/// this record.
pub(crate) fn execute(
    engine: &mut RuleEngine,
    record: Record,
    rule: Option<Rule>,
) -> Result<Applied, EngineError> {
    Ok(match record {
        Record::CreateRelation { schema } => {
            engine.create_relation(schema)?;
            Applied::Created
        }
        Record::DropRelation { name } => Applied::Dropped(engine.drop_relation(&name)?),
        Record::AddRule { .. } => {
            let rule =
                rule.expect("both callers pass resolve's answer, which is Some for every AddRule");
            Applied::RuleAdded(engine.add_rule(rule)?)
        }
        Record::RemoveRule { id } => Applied::RuleRemoved(engine.remove_rule(RuleId(id))?),
        Record::Insert { relation, values } => Applied::Fired(engine.insert(&relation, values)?),
        Record::Update {
            relation,
            id,
            values,
        } => Applied::Fired(engine.update(&relation, TupleId(id), values)?),
        Record::Delete { relation, id } => Applied::Fired(engine.delete(&relation, TupleId(id))?),
        Record::InsertBatch { relation, rows } => {
            Applied::Fired(engine.insert_batch(&relation, rows)?)
        }
    })
}

const TAG_CREATE_RELATION: u8 = 0;
const TAG_DROP_RELATION: u8 = 1;
const TAG_ADD_RULE: u8 = 2;
const TAG_REMOVE_RULE: u8 = 3;
const TAG_INSERT: u8 = 4;
const TAG_UPDATE: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_INSERT_BATCH: u8 = 7;

/// Packs an [`EventMask`] into a bitfield (bit 0 insert, 1 update,
/// 2 delete).
pub(crate) fn encode_mask(m: EventMask) -> u8 {
    (m.on_insert as u8) | (m.on_update as u8) << 1 | (m.on_delete as u8) << 2
}

pub(crate) fn decode_mask(b: u8) -> Result<EventMask, CodecError> {
    if b & !0b111 != 0 {
        return Err(CodecError::BadTag {
            what: "event mask",
            tag: b,
        });
    }
    Ok(EventMask {
        on_insert: b & 1 != 0,
        on_update: b & 2 != 0,
        on_delete: b & 4 != 0,
    })
}

pub(crate) fn encode_action(w: &mut Writer, a: &ActionSpec) {
    match a {
        ActionSpec::Log(msg) => {
            w.u8(0);
            w.str(msg);
        }
        ActionSpec::Named(name) => {
            w.u8(1);
            w.str(name);
        }
    }
}

pub(crate) fn decode_action(r: &mut Reader<'_>) -> Result<ActionSpec, CodecError> {
    match r.u8()? {
        0 => Ok(ActionSpec::Log(r.str()?)),
        1 => Ok(ActionSpec::Named(r.str()?)),
        tag => Err(CodecError::BadTag {
            what: "action spec",
            tag,
        }),
    }
}

pub(crate) fn encode_rule_spec(w: &mut Writer, s: &RuleSpec) {
    w.str(&s.name);
    w.str(&s.condition);
    w.u8(encode_mask(s.mask));
    w.i32(s.priority);
    encode_action(w, &s.action);
}

pub(crate) fn decode_rule_spec(r: &mut Reader<'_>) -> Result<RuleSpec, CodecError> {
    Ok(RuleSpec {
        name: r.str()?,
        condition: r.str()?,
        mask: decode_mask(r.u8()?)?,
        priority: r.i32()?,
        action: decode_action(r)?,
    })
}

fn encode_values(w: &mut Writer, values: &[Value]) {
    w.u32(values.len() as u32);
    for v in values {
        encode_value(w, v);
    }
}

fn decode_values(r: &mut Reader<'_>) -> Result<Vec<Value>, CodecError> {
    // Each value costs at least 2 bytes (tag + payload).
    let n = r.count(2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_value(r)?);
    }
    Ok(out)
}

impl Record {
    /// The record kind's label on metrics, trace events and the slow-op log
    /// (`server_requests_total{op=…}`).
    pub fn name(&self) -> &'static str {
        match self {
            Record::CreateRelation { .. } => "create_relation",
            Record::DropRelation { .. } => "drop_relation",
            Record::AddRule { .. } => "add_rule",
            Record::RemoveRule { .. } => "remove_rule",
            Record::Insert { .. } => "insert",
            Record::Update { .. } => "update",
            Record::Delete { .. } => "delete",
            Record::InsertBatch { .. } => "insert_batch",
        }
    }

    /// The record kind's leading byte in the WAL and on the wire
    /// (DESIGN.md §14 "Record tags"). Exhaustive: a new variant does
    /// not build until it has a tag.
    pub fn tag(&self) -> u8 {
        match self {
            Record::CreateRelation { .. } => TAG_CREATE_RELATION,
            Record::DropRelation { .. } => TAG_DROP_RELATION,
            Record::AddRule { .. } => TAG_ADD_RULE,
            Record::RemoveRule { .. } => TAG_REMOVE_RULE,
            Record::Insert { .. } => TAG_INSERT,
            Record::Update { .. } => TAG_UPDATE,
            Record::Delete { .. } => TAG_DELETE,
            Record::InsertBatch { .. } => TAG_INSERT_BATCH,
        }
    }

    /// Serializes the record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the record payload to `out`, reusing its capacity.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::appending_to(std::mem::take(out));
        w.u8(self.tag());
        match self {
            Record::CreateRelation { schema } => {
                encode_schema(&mut w, schema);
            }
            Record::DropRelation { name } => {
                w.str(name);
            }
            Record::AddRule { spec } => {
                encode_rule_spec(&mut w, spec);
            }
            Record::RemoveRule { id } => {
                w.u32(*id);
            }
            Record::Insert { relation, values } => {
                w.str(relation);
                encode_values(&mut w, values);
            }
            Record::Update {
                relation,
                id,
                values,
            } => {
                w.str(relation);
                w.u32(*id);
                encode_values(&mut w, values);
            }
            Record::Delete { relation, id } => {
                w.str(relation);
                w.u32(*id);
            }
            Record::InsertBatch { relation, rows } => {
                w.str(relation);
                w.u32(rows.len() as u32);
                for row in rows {
                    encode_values(&mut w, row);
                }
            }
        }
        *out = w.into_bytes();
    }

    /// Deserializes a record payload; the whole buffer must be
    /// consumed (trailing garbage means a framing bug or corruption
    /// the checksum failed to catch).
    pub fn decode(buf: &[u8]) -> Result<Record, CodecError> {
        let (rec, consumed) = Record::decode_prefix(buf)?;
        if consumed != buf.len() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after record",
                buf.len() - consumed
            )));
        }
        Ok(rec)
    }

    /// Deserializes one record from the front of `buf`, returning it
    /// with the number of bytes consumed — for frames that carry a
    /// defined suffix after the record (the rule-server protocol's
    /// optional trace id). Unlike [`decode`](Self::decode), trailing
    /// bytes are the *caller's* to validate.
    pub fn decode_prefix(buf: &[u8]) -> Result<(Record, usize), CodecError> {
        let mut r = Reader::new(buf);
        let rec = match r.u8()? {
            TAG_CREATE_RELATION => Record::CreateRelation {
                schema: decode_schema(&mut r)?,
            },
            TAG_DROP_RELATION => Record::DropRelation { name: r.str()? },
            TAG_ADD_RULE => Record::AddRule {
                spec: decode_rule_spec(&mut r)?,
            },
            TAG_REMOVE_RULE => Record::RemoveRule { id: r.u32()? },
            TAG_INSERT => Record::Insert {
                relation: r.str()?,
                values: decode_values(&mut r)?,
            },
            TAG_UPDATE => Record::Update {
                relation: r.str()?,
                id: r.u32()?,
                values: decode_values(&mut r)?,
            },
            TAG_DELETE => Record::Delete {
                relation: r.str()?,
                id: r.u32()?,
            },
            TAG_INSERT_BATCH => {
                let relation = r.str()?;
                // Each row costs at least its own 4-byte count.
                let n = r.count(4)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(decode_values(&mut r)?);
                }
                Record::InsertBatch { relation, rows }
            }
            tag => {
                return Err(CodecError::BadTag {
                    what: "record",
                    tag,
                })
            }
        };
        Ok((rec, buf.len() - r.remaining()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::AttrType;

    fn samples() -> Vec<Record> {
        vec![
            Record::CreateRelation {
                schema: Schema::builder("emp")
                    .attr("name", AttrType::Str)
                    .attr("salary", AttrType::Int)
                    .build(),
            },
            Record::DropRelation { name: "emp".into() },
            Record::AddRule {
                spec: RuleSpec {
                    name: "underpaid".into(),
                    condition: "emp.salary < 15000 or emp.salary > 900000".into(),
                    mask: EventMask::ALL,
                    priority: -3,
                    action: ActionSpec::Named("page-hr".into()),
                },
            },
            Record::RemoveRule { id: 7 },
            Record::Insert {
                relation: "emp".into(),
                values: vec![Value::str("al"), Value::Int(9000)],
            },
            Record::Update {
                relation: "emp".into(),
                id: 3,
                values: vec![Value::str("al"), Value::Float(-0.5)],
            },
            Record::Delete {
                relation: "emp".into(),
                id: 3,
            },
            Record::InsertBatch {
                relation: "emp".into(),
                rows: vec![
                    vec![Value::str("bo"), Value::Int(1)],
                    vec![Value::Bool(true), Value::Int(2)],
                ],
            },
        ]
    }

    #[test]
    fn round_trips() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(Record::decode(&bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Record::RemoveRule { id: 1 }.encode();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_err());
    }

    #[test]
    fn decode_prefix_reports_exact_consumption() {
        for rec in samples() {
            let bytes = rec.encode();
            let mut extended = bytes.clone();
            extended.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
            let (got, consumed) = Record::decode_prefix(&extended).unwrap();
            assert_eq!(got, rec);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn mask_bitfield_round_trips() {
        for bits in 0..8u8 {
            let m = decode_mask(bits).unwrap();
            assert_eq!(encode_mask(m), bits);
        }
        assert!(decode_mask(0b1000).is_err());
    }
}
