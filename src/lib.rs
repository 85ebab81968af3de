//! # predmatch
//!
//! A full reproduction of **Hanson, Chaabouni, Kam & Wang, "A Predicate
//! Matching Algorithm for Database Rule Systems" (SIGMOD 1990)**.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`ibs`] — the paper's primary contribution, the **interval binary
//!   search tree** (IBS-tree): dynamic stabbing queries over intervals and
//!   points, with AVL balancing via mark-preserving rotations.
//! * [`interval`] — the interval/bound algebra every structure shares.
//! * [`altindex`] — comparator interval indexes: naive list, segment tree,
//!   centered interval tree, augmented interval treap, interval skip list.
//! * [`rtree`] — a Guttman R-tree (the §2.4 multi-dimensional baseline and
//!   the 1-D dynamic comparator from §4.1).
//! * [`relation`] — main-memory relational substrate: values, schemas,
//!   tuples, relations, catalog, and optimizer statistics.
//! * [`predicate`] — the paper's predicate model (conjunctions of range /
//!   equality / opaque-function clauses), a textual parser, evaluation and
//!   selectivity estimation.
//! * [`predindex`] — the Figure 1 predicate-indexing scheme plus the §2
//!   baseline matchers, all behind one [`predindex::Matcher`] trait, and
//!   [`predindex::ShardedPredicateIndex`], a bare concurrent leaf over
//!   the same index core for callers with their own threads (state
//!   partitioned by relation name behind per-shard reader–writer
//!   locks; insert, remove and match through `&self`, nothing else —
//!   metrics, EXPLAIN and stats belong to the lock-free
//!   [`predindex::PredicateIndex`], the one the rule engine runs).
//! * [`rules`] — a forward-chaining rule engine (triggers) built on top.
//! * [`durable`] — opt-in durability for the rule engine: a checksummed
//!   write-ahead log, atomic snapshots, and crash recovery that replays
//!   the engine operation-for-operation ([`durable::DurableRuleEngine`]).
//! * [`telemetry`] — counters, spans, per-rule cost accounts and
//!   workload accounts, handed to every layer as one
//!   [`telemetry::Telemetry`] handle (see *Observability* below).
//!
//! ## Quickstart
//!
//! ```
//! use predmatch::prelude::*;
//!
//! // A relation and some rules' selection predicates over it.
//! let mut db = Database::new();
//! db.create_relation(
//!     Schema::builder("emp")
//!         .attr("name", AttrType::Str)
//!         .attr("age", AttrType::Int)
//!         .attr("salary", AttrType::Int)
//!         .build(),
//! )
//! .unwrap();
//!
//! let mut index = PredicateIndex::new();
//! let p1 = parse_predicate("emp.salary < 20000 and emp.age > 50").unwrap();
//! let p2 = parse_predicate("20000 <= emp.salary <= 30000").unwrap();
//! let id1 = index.insert(p1, db.catalog()).unwrap();
//! let _id2 = index.insert(p2, db.catalog()).unwrap();
//!
//! // Which predicates match a newly inserted tuple?
//! let tuple = db
//!     .insert("emp", vec![Value::str("al"), Value::Int(61), Value::Int(12000)])
//!     .unwrap();
//! let matches = index.match_tuple("emp", &tuple);
//! assert_eq!(matches, vec![id1]);
//! ```
//!
//! ## Observability
//!
//! Each layer has exactly one way to receive telemetry, and they all
//! take the same handle: [`predindex::PredicateIndex::attach_metrics`],
//! [`rules::RuleEngine::attach_metrics`],
//! [`durable::DurableRuleEngine::open_with_metrics`],
//! [`telemetry::serve`], [`telemetry::FlightRecorder::new`]. A bare
//! `Arc<Registry>` converts into a counters-only handle.
//!
//! ```
//! use predmatch::prelude::*;
//! use predmatch::telemetry::Tracer;
//! use std::sync::Arc;
//!
//! let mut db = Database::new();
//! db.create_relation(Schema::builder("emp").attr("age", AttrType::Int).build())
//!     .unwrap();
//! let telemetry = Telemetry::new(Arc::new(Registry::new()))
//!     .with_tracer(Tracer::new(1024)) // spans
//!     .with_profiling() // per-rule cost accounts
//!     .with_workload_accounts(); // the index advisor's input
//! let mut engine = RuleEngine::new(db);
//! engine.attach_metrics(telemetry.clone());
//! engine
//!     .add_rule(Rule::builder("senior").when("emp.age > 50").unwrap().build())
//!     .unwrap();
//! engine.insert("emp", vec![Value::Int(61)]).unwrap();
//! assert_eq!(telemetry.registry().counter_value("rules_fired_total"), Some(1));
//! assert!(!telemetry.tracer().events().is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub use altindex;
pub use durable;
pub use ibs;
pub use interval;
pub use joinmemo;
pub use predicate;
pub use predindex;
pub use relation;
pub use rtree;
pub use rules;
pub use telemetry;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use crate::ibs::{BalanceMode, IbsTree};
    pub use crate::interval::{Interval, IntervalId, Lower, Upper};
    pub use crate::predicate::{parse_predicate, Clause, Predicate};
    pub use crate::predindex::{Matcher, PredicateIndex, ShardedPredicateIndex};
    pub use crate::relation::{AttrType, Catalog, Database, Schema, Tuple, Value};
    pub use crate::rules::{Action, Rule, RuleEngine};
    pub use crate::telemetry::{MatchTrace, Registry, Telemetry};
}
