//! Rule definitions: `if condition then action` (§1 of the paper),
//! extended with multi-premise (join) conditions.

use predicate::{parse_rule_conditions, JoinCondition, ParseError, ParsedCondition, Predicate};
use relation::{Tuple, TupleEvent, TupleId, Value};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A rule's name: one reference-counted string per rule, shared by the
/// [`Rule`] and by every [`FireReport`](crate::FireReport) entry that
/// names it, so reporting a firing copies a pointer, not the text.
/// Reads as a `&str` ([`as_str`](Self::as_str), `Deref`) and compares
/// with one.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleName(Arc<str>);

impl RuleName {
    /// The name as text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for RuleName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<String> for RuleName {
    fn from(name: String) -> Self {
        RuleName(name.into())
    }
}

impl From<&str> for RuleName {
    fn from(name: &str) -> Self {
        RuleName(name.into())
    }
}

impl PartialEq<str> for RuleName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for RuleName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for RuleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for RuleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// Identifier of a registered rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule#{}", self.0)
    }
}

/// Which tuple events a rule reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMask {
    pub on_insert: bool,
    pub on_update: bool,
    pub on_delete: bool,
}

impl EventMask {
    /// Insert + update — the paper's default framing ("each new or
    /// modified tuple").
    pub const INSERT_UPDATE: EventMask = EventMask {
        on_insert: true,
        on_update: true,
        on_delete: false,
    };

    /// Every event kind.
    pub const ALL: EventMask = EventMask {
        on_insert: true,
        on_update: true,
        on_delete: true,
    };

    /// Does the mask accept this event?
    pub fn accepts(&self, event: &TupleEvent) -> bool {
        match event {
            TupleEvent::Inserted { .. } => self.on_insert,
            TupleEvent::Updated { .. } => self.on_update,
            TupleEvent::Deleted { .. } => self.on_delete,
        }
    }
}

/// A database operation queued by a rule action, applied by the engine
/// after the action returns (this is what makes the engine
/// forward-chaining: applied operations raise new events which are
/// matched in turn).
#[derive(Debug, Clone, PartialEq)]
pub enum DbOp {
    /// Insert a tuple.
    Insert {
        relation: String,
        values: Vec<Value>,
    },
    /// Update the tuple the rule fired on (only valid for insert/update
    /// firings).
    UpdateCurrent { values: Vec<Value> },
    /// Delete the tuple the rule fired on.
    DeleteCurrent,
}

/// One premise's bound tuple in a multi-premise (join) firing.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTuple {
    /// The premise's relation.
    pub relation: String,
    /// Id of the bound tuple.
    pub id: TupleId,
    /// The bound tuple's values at binding time.
    pub tuple: Tuple,
}

/// Execution context handed to a firing rule's action.
pub struct RuleContext<'a> {
    /// The event that matched the rule's condition.
    pub event: &'a TupleEvent,
    /// The firing rule's name.
    pub rule_name: &'a str,
    /// For multi-premise firings: every premise's bound tuple, in
    /// premise order. Empty for single-relation firings.
    pub bindings: &'a [BoundTuple],
    pub(crate) log: &'a mut Vec<String>,
    pub(crate) ops: &'a mut Vec<DbOp>,
}

impl RuleContext<'_> {
    /// Appends a message to the engine log.
    pub fn log(&mut self, message: impl Into<String>) {
        self.log.push(message.into());
    }

    /// Queues a database operation to run after this action returns.
    pub fn queue(&mut self, op: DbOp) {
        self.ops.push(op);
    }
}

/// What a rule does when it fires.
#[derive(Clone)]
pub enum Action {
    /// Append `"<message>: <tuple>"` to the engine log.
    Log(String),
    /// Run arbitrary code with a [`RuleContext`].
    Callback(Arc<dyn Fn(&mut RuleContext<'_>) + Send + Sync>),
}

impl Action {
    /// Convenience constructor for [`Action::Log`].
    pub fn log(message: impl Into<String>) -> Action {
        Action::Log(message.into())
    }

    /// Convenience constructor for [`Action::Callback`].
    pub fn callback(f: impl Fn(&mut RuleContext<'_>) + Send + Sync + 'static) -> Action {
        Action::Callback(Arc::new(f))
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Log(m) => write!(f, "Log({m:?})"),
            Action::Callback(_) => write!(f, "Callback(..)"),
        }
    }
}

/// A production rule / trigger.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: RuleName,
    /// The single-relation condition conjuncts, already split into DNF:
    /// the rule fires when *any* conjunct matches.
    pub conditions: Vec<Predicate>,
    /// Multi-premise (join) conjuncts — further DNF alternatives whose
    /// complete matches fire the rule through the join memo layer.
    pub joins: Vec<JoinCondition>,
    pub mask: EventMask,
    pub action: Action,
    /// Higher fires first when several rules match one event.
    pub priority: i32,
}

impl Rule {
    /// Starts building a rule called `name`.
    pub fn builder(name: impl Into<String>) -> RuleBuilder {
        RuleBuilder {
            name: name.into(),
            conditions: Vec::new(),
            joins: Vec::new(),
            mask: EventMask::INSERT_UPDATE,
            action: None,
            priority: 0,
        }
    }
}

/// Builder for [`Rule`].
pub struct RuleBuilder {
    name: String,
    conditions: Vec<Predicate>,
    joins: Vec<JoinCondition>,
    mask: EventMask,
    /// `None` until [`then`](Self::then): [`build`](Self::build) makes
    /// it `Action::log("fired")`.
    action: Option<Action>,
    priority: i32,
}

impl RuleBuilder {
    /// Sets the condition from source text (disjunctions allowed; they
    /// are split into separate predicates per the paper). Conjuncts
    /// that reference more than one relation become join conditions
    /// (`emp.dno = dept.dno and dept.floor = 1`).
    pub fn when(mut self, condition: &str) -> Result<Self, ParseError> {
        self.conditions.clear();
        self.joins.clear();
        for cond in parse_rule_conditions(condition)? {
            match cond {
                ParsedCondition::Single(p) => self.conditions.push(p),
                ParsedCondition::Join(j) => self.joins.push(j),
            }
        }
        Ok(self)
    }

    /// Sets the event mask.
    pub fn on(mut self, mask: EventMask) -> Self {
        self.mask = mask;
        self
    }

    /// Sets the action (default: log `fired`).
    pub fn then(mut self, action: Action) -> Self {
        self.action = Some(action);
        self
    }

    /// Sets the priority (higher fires first).
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Finishes the rule. Panics if no condition was set (a rule with no
    /// condition is a programming error, not a data error).
    pub fn build(self) -> Rule {
        assert!(
            !self.conditions.is_empty() || !self.joins.is_empty(),
            "rule {:?} has no condition",
            self.name
        );
        Rule {
            name: self.name.into(),
            conditions: self.conditions,
            joins: self.joins,
            mask: self.mask,
            action: self.action.unwrap_or_else(|| Action::log("fired")),
            priority: self.priority,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let r = Rule::builder("watch")
            .when("emp.age > 50")
            .unwrap()
            .priority(3)
            .build();
        assert_eq!(r.name, "watch");
        assert_eq!(r.conditions.len(), 1);
        assert_eq!(r.priority, 3);
        assert!(r.mask.on_insert && r.mask.on_update && !r.mask.on_delete);
    }

    #[test]
    fn disjunction_splits_conditions() {
        let r = Rule::builder("extremes")
            .when("emp.age < 20 or emp.age > 60")
            .unwrap()
            .build();
        assert_eq!(r.conditions.len(), 2);
    }

    #[test]
    fn a_rule_without_an_action_logs_fired() {
        use crate::RuleEngine;
        use relation::{AttrType, Database, Schema};
        let mut engine = RuleEngine::new(Database::new());
        engine
            .create_relation(Schema::builder("emp").attr("age", AttrType::Int).build())
            .unwrap();
        let rule = Rule::builder("old").when("emp.age > 50").unwrap().build();
        engine.add_rule(rule).unwrap();
        engine.insert("emp", vec![Value::Int(40)]).unwrap();
        engine.insert("emp", vec![Value::Int(61)]).unwrap();
        assert_eq!(engine.log(), ["[old] fired: emp(61)"]);
    }

    #[test]
    #[should_panic(expected = "has no condition")]
    fn empty_condition_panics() {
        Rule::builder("nope").build();
    }

    #[test]
    fn event_mask() {
        use relation::{Tuple, TupleId};
        let ev = TupleEvent::Deleted {
            relation: "r".into(),
            id: TupleId(0),
            tuple: Tuple::new(vec![]),
        };
        assert!(!EventMask::INSERT_UPDATE.accepts(&ev));
        assert!(EventMask::ALL.accepts(&ev));
    }
}
