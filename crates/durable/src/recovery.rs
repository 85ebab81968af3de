//! Crash recovery: snapshot + WAL suffix → a rebuilt [`RuleEngine`].
//!
//! Recovery is `state = snapshot ∘ replay(log records with seq >
//! snapshot.last_seq)`. Replay runs each logged record through the
//! function the live path ran it through — `record::resolve` then
//! `record::execute`, what [`crate::DurableRuleEngine::apply`] calls
//! after appending — so a replayed record cannot mean anything other
//! than what it meant live; this module holds no interpretation of its
//! own. What is left to rely on is determinism underneath: rule ids are
//! handed out sequentially, the agenda is a total order, and every
//! cascaded operation is a pure function of engine state. Engine-level
//! *errors* during replay (duplicate relation, unknown tuple, firing
//! limit) are therefore deterministic re-occurrences of errors the
//! original already returned, and are ignored; only environmental
//! mismatches — a condition that no longer parses because a custom
//! predicate function was not re-registered, or a named action missing
//! from the [`ActionRegistry`] — abort recovery, because silently
//! dropping them would change rule semantics.

use crate::record::{execute, resolve, ActionSpec, RuleSpec};
use crate::snapshot::{read_snapshot, CondSnap};
use crate::wal::read_wal;
use predicate::{
    parse_condition, parse_conditions, parse_conjunct, FunctionRegistry, ParsedCondition, Predicate,
};
use relation::Database;
use rules::{Action, JoinCondition, Rule, RuleContext, RuleEngine, RuleId};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// WAL file name inside a durable directory.
pub const WAL_FILE: &str = "wal.bin";

/// A shareable rule action callback.
pub type ActionFn = Arc<dyn Fn(&mut RuleContext<'_>) + Send + Sync>;

/// Named callback actions, re-registered by the application before
/// recovery. Durable rules refer to callbacks by name because closures
/// cannot be serialized.
#[derive(Default, Clone)]
pub struct ActionRegistry {
    map: HashMap<String, ActionFn>,
}

impl ActionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ActionRegistry::default()
    }

    /// Registers (or replaces) a named action.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&mut RuleContext<'_>) + Send + Sync + 'static,
    ) {
        self.map.insert(name.into(), Arc::new(f));
    }

    /// Looks up a named action.
    pub fn get(&self, name: &str) -> Option<ActionFn> {
        self.map.get(name).cloned()
    }
}

impl std::fmt::Debug for ActionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.map.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("ActionRegistry")
            .field("names", &names)
            .finish()
    }
}

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem failure.
    Io(io::Error),
    /// The snapshot is damaged (the WAL tolerates a torn tail; the
    /// snapshot, written atomically, tolerates nothing).
    Corrupt { what: &'static str, detail: String },
    /// A persisted rule condition no longer parses — almost always a
    /// custom predicate function missing from the registry.
    Parse { condition: String, error: String },
    /// A persisted rule names an action the registry lacks.
    MissingAction(String),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery i/o: {e}"),
            RecoverError::Corrupt { what, detail } => {
                write!(f, "corrupt {what}: {detail}")
            }
            RecoverError::Parse { condition, error } => {
                write!(
                    f,
                    "persisted condition {condition:?} no longer parses: {error}"
                )
            }
            RecoverError::MissingAction(name) => {
                write!(f, "rule action {name:?} is not registered")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// The result of a successful recovery.
pub struct Recovered {
    /// The rebuilt engine.
    pub engine: RuleEngine,
    /// Durable action spec per live rule id (what the next snapshot
    /// will persist).
    pub action_specs: HashMap<u32, ActionSpec>,
    /// Sequence number of the last record folded into `engine` (0 if
    /// the directory was empty).
    pub last_seq: u64,
    /// WAL frames actually replayed on top of the snapshot (stale
    /// frames an earlier snapshot already covered are not counted).
    pub frames_replayed: u64,
}

/// Resolves an [`ActionSpec`] against the registry.
pub(crate) fn resolve_action(
    spec: &ActionSpec,
    actions: &ActionRegistry,
) -> Result<Action, RecoverError> {
    match spec {
        ActionSpec::Log(msg) => Ok(Action::Log(msg.clone())),
        ActionSpec::Named(name) => actions
            .get(name)
            .map(Action::Callback)
            .ok_or_else(|| RecoverError::MissingAction(name.clone())),
    }
}

/// Builds a live [`Rule`] from a durable spec (parse the condition,
/// resolve the action).
pub(crate) fn build_rule(
    spec: &RuleSpec,
    funcs: &FunctionRegistry,
    actions: &ActionRegistry,
) -> Result<Rule, RecoverError> {
    let mut conditions = Vec::new();
    let mut joins = Vec::new();
    let parsed = parse_conditions(&spec.condition, funcs).map_err(|e| RecoverError::Parse {
        condition: spec.condition.clone(),
        error: e.to_string(),
    })?;
    for cond in parsed {
        match cond {
            ParsedCondition::Single(p) => conditions.push(p),
            ParsedCondition::Join(j) => joins.push(j),
        }
    }
    Ok(Rule {
        name: spec.name.as_str().into(),
        conditions,
        joins,
        mask: spec.mask,
        action: resolve_action(&spec.action, actions)?,
        priority: spec.priority,
    })
}

/// Rebuilds an engine from `dir` (snapshot plus WAL suffix). An empty
/// or absent directory recovers to an empty engine at `last_seq` 0.
pub fn replay(
    dir: &Path,
    funcs: &FunctionRegistry,
    actions: &ActionRegistry,
) -> Result<Recovered, RecoverError> {
    replay_traced(dir, funcs, actions, &telemetry::Tracer::disabled())
}

/// [`replay`] with span tracing: the snapshot load and the WAL-suffix
/// replay each get a span in `tracer`'s ring, so a recovery that ends
/// in a `Corrupt` refusal leaves its last steps in the flight
/// recorder.
pub fn replay_traced(
    dir: &Path,
    funcs: &FunctionRegistry,
    actions: &ActionRegistry,
    tracer: &telemetry::Tracer,
) -> Result<Recovered, RecoverError> {
    let snapshot_span = tracer.span("recovery_snapshot_load");
    let (mut engine, mut action_specs, mut last_seq) = match read_snapshot(dir)? {
        Some(snap) => {
            let mut db = Database::new();
            for rel in snap.relations {
                db.catalog_mut()
                    .adopt_relation(rel.into_owned())
                    .map_err(|e| RecoverError::Corrupt {
                        what: "snapshot relations",
                        detail: e.to_string(),
                    })?;
            }
            let mut rules: Vec<(RuleId, Rule, u64)> = Vec::with_capacity(snap.rules.len());
            let mut specs = HashMap::new();
            for r in snap.rules {
                let mut conditions: Vec<Predicate> = Vec::with_capacity(r.conds.len());
                let mut joins: Vec<JoinCondition> = Vec::new();
                for c in &r.conds {
                    match c {
                        CondSnap::Source(src) => {
                            conditions.push(parse_conjunct(src, funcs).map_err(|e| {
                                RecoverError::Parse {
                                    condition: src.clone(),
                                    error: e.to_string(),
                                }
                            })?)
                        }
                        CondSnap::Unsatisfiable(rel) => {
                            conditions.push(Predicate::unsatisfiable(rel.clone()))
                        }
                        CondSnap::Join(src) => {
                            match parse_condition(src, funcs).map_err(|e| RecoverError::Parse {
                                condition: src.clone(),
                                error: e.to_string(),
                            })? {
                                ParsedCondition::Single(p) => conditions.push(p),
                                ParsedCondition::Join(j) => joins.push(j),
                            }
                        }
                    }
                }
                let rule = Rule {
                    name: r.name.into(),
                    conditions,
                    joins,
                    mask: r.mask,
                    action: resolve_action(&r.action, actions)?,
                    priority: r.priority,
                };
                specs.insert(r.id, r.action);
                rules.push((RuleId(r.id), rule, r.fired));
            }
            let mut engine =
                RuleEngine::restore(db, rules, snap.next_rule, snap.total_fired, snap.log)
                    .map_err(|e| RecoverError::Corrupt {
                        what: "snapshot rules",
                        detail: e.to_string(),
                    })?;
            engine.set_firing_limit(snap.firing_limit as usize);
            // Restoring reseeded every join memo from the restored
            // tuples; the memo invariant (tokens = all valid premise
            // prefixes) makes that reconstruction bit-identical to the
            // pre-crash incremental state, so a digest mismatch means
            // the snapshot pair (tuples, rules) is not the state the
            // fingerprint was taken over.
            let rebuilt = engine.join_fingerprint();
            if rebuilt != snap.join_fingerprint {
                return Err(RecoverError::Corrupt {
                    what: "join memo fingerprint",
                    detail: format!(
                        "rebuilt memo digests to {rebuilt:#018x}, snapshot recorded {:#018x}",
                        snap.join_fingerprint
                    ),
                });
            }
            (engine, specs, snap.last_seq)
        }
        None => (RuleEngine::new(Database::new()), HashMap::new(), 0),
    };
    drop(snapshot_span);

    let replay_span = tracer.span("recovery_wal_replay");
    let suffix = read_wal(&dir.join(WAL_FILE))?;
    let mut frames_replayed = 0;
    for (seq, record) in suffix.records {
        // A crash between snapshot rename and log truncation leaves a
        // stale log whose early records the snapshot already covers.
        if seq <= last_seq {
            continue;
        }
        // The function the live path ran. A resolve failure aborts (the
        // environment changed under the log); an engine error is the
        // one the original caller was already handed, so it is dropped.
        let rule = resolve(&record, funcs, actions)?;
        let _ = execute(&mut engine, &mut action_specs, record, rule);
        last_seq = seq;
        frames_replayed += 1;
    }
    drop(replay_span);
    tracer.instant_with("recovery_done", || {
        vec![
            ("last_seq", last_seq.to_string()),
            ("frames_replayed", frames_replayed.to_string()),
        ]
    });

    Ok(Recovered {
        engine,
        action_specs,
        last_seq,
        frames_replayed,
    })
}
