//! Shared helpers for the durability fault-injection tests.
//!
//! Each integration-test binary compiles this module independently
//! and uses a different subset of it.
#![allow(dead_code)]

use durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Record, RuleSpec};
use predicate::FunctionRegistry;
use relation::{Schema, TupleId, Value};
use rules::{Action, Rule, RuleEngine, RuleId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static COUNTER: AtomicU32 = AtomicU32::new(0);

/// A per-test scratch directory, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "durable-it-{}-{}-{label}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir { path }
    }

    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A deterministic rendering of everything observable about an engine:
/// relation contents (tuple ids included, so slot-reuse order
/// matters), rules with masks/priorities/fire counts, the counters,
/// and the log. Two engines with equal fingerprints are
/// operation-for-operation equivalent for our purposes; condition
/// *text* is deliberately excluded (its round-trip fidelity is covered
/// by matching-behavior probes and the predicate property tests).
pub fn fingerprint(engine: &RuleEngine) -> String {
    let mut out = String::new();
    let cat = engine.db().catalog();
    let mut rel_names: Vec<&str> = cat.relations().map(|r| r.schema().name()).collect();
    rel_names.sort_unstable();
    for name in rel_names {
        let rel = cat.relation(name).unwrap();
        out.push_str(&format!("relation {name} ["));
        for attr in rel.schema().attributes() {
            out.push_str(&format!("{}:{:?} ", attr.name, attr.ty));
        }
        out.push(']');
        let mut rows: Vec<String> = rel
            .iter()
            .map(|(id, t)| format!("#{}={:?}", id.0, t))
            .collect();
        rows.sort();
        for row in rows {
            out.push_str(&format!(" {row}"));
        }
        out.push('\n');
    }
    let mut rules: Vec<String> = engine
        .rules_detail()
        .map(|(id, rule, fired)| {
            format!(
                "rule {} {:?} mask={:?} prio={} conds={} fired={fired}\n",
                id.0,
                rule.name,
                rule.mask,
                rule.priority,
                rule.conditions.len()
            )
        })
        .collect();
    rules.sort();
    for r in rules {
        out.push_str(&r);
    }
    out.push_str(&format!(
        "next_rule={} total_fired={} limit={} join_fp={:#018x}\n",
        engine.next_rule_id(),
        engine.total_fired(),
        engine.firing_limit(),
        engine.join_fingerprint()
    ));
    for line in engine.log() {
        out.push_str("log ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The action registry every fault-injection test uses: one named
/// callback that cascades an insert into `audit` (which carries no
/// rules, so the chain always terminates).
pub fn test_actions() -> ActionRegistry {
    let mut actions = ActionRegistry::new();
    actions.register("cascade", |ctx| {
        ctx.queue(rules::DbOp::Insert {
            relation: "audit".into(),
            values: vec![Value::Int(1)],
        });
    });
    actions
}

/// Builds the same live [`Rule`] a [`DurableRuleEngine`] builds from
/// `spec`, sharing the registry's action `Arc`s — the shadow engine's
/// rules must behave bit-identically.
pub fn shadow_rule(spec: &RuleSpec, actions: &ActionRegistry) -> Rule {
    let mut conditions = Vec::new();
    let mut joins = Vec::new();
    for cond in predicate::parse_conditions(&spec.condition, &FunctionRegistry::default())
        .expect("test spec")
    {
        match cond {
            predicate::ParsedCondition::Single(p) => conditions.push(p),
            predicate::ParsedCondition::Join(j) => joins.push(j),
        }
    }
    let action = match &spec.action {
        ActionSpec::Log(m) => Action::Log(m.clone()),
        ActionSpec::Named(n) => Action::Callback(actions.get(n).expect("registered")),
    };
    Rule {
        name: spec.name.as_str().into(),
        conditions,
        joins,
        mask: spec.mask,
        action,
        priority: spec.priority,
    }
}

/// One scripted engine operation, with tuple targets named by
/// live-position so scripts stay valid as ids shift.
#[derive(Debug, Clone)]
pub enum Cmd {
    Create(Schema),
    Drop(String),
    AddRule(RuleSpec),
    RemoveRule(u32),
    Insert(String, Vec<Value>),
    /// Update the `n`-th live tuple of the relation (skipped, and not
    /// logged, if fewer exist).
    UpdateNth(String, usize, Vec<Value>),
    /// Delete the `n`-th live tuple of the relation.
    DeleteNth(String, usize),
    Batch(String, Vec<Vec<Value>>),
}

fn nth_live(engine: &RuleEngine, rel: &str, n: usize) -> Option<TupleId> {
    engine
        .db()
        .catalog()
        .relation(rel)?
        .iter()
        .map(|(id, _)| id)
        .nth(n)
}

/// Applies `cmd` to the durable engine and its in-memory shadow,
/// asserting both see the same outcome (success/failure and firing
/// sequence).
pub fn apply_both(
    cmd: &Cmd,
    durable: &mut DurableRuleEngine,
    shadow: &mut RuleEngine,
    actions: &ActionRegistry,
) {
    match cmd {
        Cmd::Create(schema) => {
            let a = durable.create_relation(schema.clone());
            let b = shadow.create_relation(schema.clone());
            assert_eq!(a.is_ok(), b.is_ok(), "create {:?}", schema.name());
        }
        Cmd::Drop(name) => {
            let a = durable.apply(Record::DropRelation { name: name.clone() });
            let b = shadow.drop_relation(name);
            assert_eq!(a.is_ok(), b.is_ok(), "drop {name:?}");
        }
        Cmd::AddRule(spec) => {
            let a = durable.add_rule(spec.clone());
            let b = shadow.add_rule(shadow_rule(spec, actions));
            assert!(
                a.is_ok() == b.is_ok(),
                "add_rule {:?}: durable={:?} shadow={:?}",
                spec.name,
                a.as_ref().err(),
                b.as_ref().err()
            );
            if let (Ok(a), Ok(b)) = (a, b) {
                assert_eq!(a, b, "rule id diverged for {:?}", spec.name);
            }
        }
        Cmd::RemoveRule(id) => {
            let a = durable.apply(Record::RemoveRule { id: *id });
            let b = shadow.remove_rule(RuleId(*id));
            assert_eq!(a.is_ok(), b.is_ok(), "remove_rule {id}");
        }
        Cmd::Insert(rel, values) => {
            let a = durable.insert(rel, values.clone());
            let b = shadow.insert(rel, values.clone());
            assert_reports(a.map_err(drop), b.map_err(drop), &format!("insert {rel}"));
        }
        Cmd::UpdateNth(rel, n, values) => {
            let Some(id) = nth_live(shadow, rel, *n) else {
                return;
            };
            let a = durable.update(rel, id, values.clone());
            let b = shadow.update(rel, id, values.clone());
            assert_reports(a.map_err(drop), b.map_err(drop), &format!("update {rel}"));
        }
        Cmd::DeleteNth(rel, n) => {
            let Some(id) = nth_live(shadow, rel, *n) else {
                return;
            };
            let a = durable.delete(rel, id);
            let b = shadow.delete(rel, id);
            assert_reports(a.map_err(drop), b.map_err(drop), &format!("delete {rel}"));
        }
        Cmd::Batch(rel, rows) => {
            let a = durable.insert_batch(rel, rows.clone());
            let b = shadow.insert_batch(rel, rows.clone());
            assert_reports(a.map_err(drop), b.map_err(drop), &format!("batch {rel}"));
        }
    }
}

fn assert_reports(a: Result<rules::FireReport, ()>, b: Result<rules::FireReport, ()>, what: &str) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.fired, b.fired, "{what}: firing sequence diverged");
            assert_eq!(a.ops_applied, b.ops_applied, "{what}: op count diverged");
        }
        (Err(()), Err(())) => {}
        (a, b) => panic!("{what}: durable {:?} vs shadow {:?}", a.is_ok(), b.is_ok()),
    }
}
