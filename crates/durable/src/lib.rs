//! # Durability layer: WAL + snapshots + crash recovery
//!
//! The paper's rule system lives inside a DBMS, where rule definitions
//! and the relations they watch survive crashes. This crate supplies
//! that missing substrate for [`rules::RuleEngine`]:
//!
//! * a **write-ahead log** ([`Wal`]) of logical commands — every
//!   mutating engine operation, framed with a length, CRC-32 checksum,
//!   and dense sequence number, with explicit fsync points and
//!   group-commit batching ([`SyncPolicy`]);
//! * periodic **snapshots** ([`snapshot`]) serializing the catalog
//!   (every relation, holes and free lists included), the stored rules
//!   (condition source text, masks, priorities, fire counts, action
//!   specs), and the engine counters, followed by log truncation;
//! * **recovery** ([`replay`]) rebuilding an engine — and thereby its
//!   predicate index — as snapshot + log suffix, tolerating a torn or
//!   truncated log tail by stopping at the first bad frame.
//!
//! The user-facing wrapper is [`DurableRuleEngine`]; the purely
//! in-memory `RuleEngine` is untouched and remains the default for
//! callers that do not need persistence. Every mutation is a
//! [`Record`]: [`DurableRuleEngine::apply`] logs and runs one (the typed
//! methods — `insert`, `add_rule`, … — build the record for you), and
//! recovery runs the same interpreter over the log, so a replayed
//! record cannot mean anything other than what it meant live.
//!
//! ```no_run
//! use durable::{ActionRegistry, DurableRuleEngine, Options, RuleSpec, ActionSpec};
//! use predicate::FunctionRegistry;
//! use relation::{AttrType, Schema, Value};
//! use rules::EventMask;
//!
//! let mut engine = DurableRuleEngine::open(
//!     "/tmp/mydb",
//!     FunctionRegistry::default(),
//!     ActionRegistry::new(),
//!     Options::default(),
//! )
//! .unwrap();
//! engine
//!     .create_relation(
//!         Schema::builder("emp").attr("salary", AttrType::Int).build(),
//!     )
//!     .unwrap();
//! engine
//!     .add_rule(RuleSpec {
//!         name: "underpaid".into(),
//!         condition: "emp.salary < 15000".into(),
//!         mask: EventMask::INSERT_UPDATE,
//!         priority: 0,
//!         action: ActionSpec::Log("below minimum".into()),
//!     })
//!     .unwrap();
//! engine.insert("emp", vec![Value::Int(9_000)]).unwrap();
//! // Crash here: reopening replays the log and recovers everything —
//! // relations, rules, fire counts, even the engine log.
//! ```
//!
//! No third-party dependencies: records are hand-rolled length-prefixed
//! binary (via [`relation::codec`]) and the CRC-32 is computed from a
//! compile-time table ([`crc`]).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

pub mod crc;
mod engine;
mod record;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use engine::{DurableError, DurableRuleEngine, Options, FLIGHT_DIR};
pub use record::{ActionSpec, Applied, Record, RuleSpec};
pub use recovery::{replay, replay_traced, ActionRegistry, RecoverError, Recovered, WAL_FILE};
pub use snapshot::{
    read_snapshot, write_snapshot, SnapshotData, SnapshotError, SnapshotMetrics, SNAPSHOT_FILE,
};
pub use wal::{parse_wal, read_wal, SyncPolicy, Wal, WalMetrics, WalSuffix};
