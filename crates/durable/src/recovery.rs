//! Crash recovery: snapshot + WAL suffix → a rebuilt [`RuleEngine`].
//!
//! Recovery is `state = snapshot ∘ replay(log records with seq >
//! snapshot.last_seq)`, and a log that starts past `snapshot.last_seq +
//! 1` is refused as a gap. [`replay`] reads the two files; `restore`
//! and `replay_log` are what it makes of their contents, and touch no
//! file (the crash model in `crashcheck.rs` feeds them every pair of
//! files a crash can leave). Replay runs each logged record through the
//! function the live path ran it through — `record::resolve` then
//! `record::execute`, what [`crate::DurableRuleEngine::apply`] calls
//! after appending — so a replayed record cannot mean anything other
//! than what it meant live; this module holds no interpretation of its
//! own. `restore` hands the snapshot's rules to `RuleEngine::restore`,
//! which registers each through `add_rule` under its own id, and keeps
//! nothing beside the engine: the next snapshot reads each rule's
//! action off the engine. What is left to rely on is determinism
//! underneath: rule ids are handed out sequentially, the agenda is a
//! total order, and every cascaded operation is a pure function of
//! engine state. Engine-level *errors* during replay (duplicate
//! relation, unknown tuple, firing limit) are therefore deterministic
//! re-occurrences of errors the original already returned, and are
//! ignored; only environmental mismatches — a condition that no longer
//! parses because a custom predicate function was not re-registered, or
//! a named action missing from the [`ActionRegistry`] — abort recovery,
//! because silently dropping them would change rule semantics.

use crate::disk;
use crate::record::{execute, resolve, ActionSpec, RuleSpec};
use crate::snapshot::{read_snapshot, CondSnap, SnapshotData};
use crate::wal::parse_wal;
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

    /// Each registered callback's name, keyed by the callback's address:
    /// a callback is the `Arc` it was registered as, so a rule's action
    /// is spelled by the name that `Arc` is held under.
    pub(crate) fn names(&self) -> HashMap<*const (), &str> {
        self.map
            .iter()
            .map(|(name, f)| (Arc::as_ptr(f).cast(), name.as_str()))
            .collect()
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
    /// snapshot, written atomically, tolerates nothing), or the log
    /// starts past the snapshot's last sequence number.
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

impl RecoverError {
    /// A [`RecoverError::Corrupt`] saying `detail`.
    pub(crate) fn corrupt(what: &'static str, detail: impl ToString) -> RecoverError {
        RecoverError::Corrupt {
            what,
            detail: detail.to_string(),
        }
    }
}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// The result of a successful recovery.
pub struct Recovered {
    /// The rebuilt engine.
    pub engine: RuleEngine,
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
/// replay each get a span in `tracer`'s ring (the replay's carries the
/// last sequence number and the frames replayed), which `/trace`
/// serves. It reads the two files; what recovery makes of their
/// contents is [`restore`] then [`replay_log`], which touch no file.
pub(crate) fn replay_traced(
    dir: &Path,
    funcs: &FunctionRegistry,
    actions: &ActionRegistry,
    tracer: &telemetry::Tracer,
) -> Result<Recovered, RecoverError> {
    let snapshot_span = tracer.span("recovery_snapshot_load", []);
    let restored = restore(read_snapshot(dir)?, funcs, actions)?;
    drop(snapshot_span);
    let replay_span = tracer.span("recovery_wal_replay", []);
    let wal = disk::read(&dir.join(WAL_FILE))?.unwrap_or_default();
    let recovered = replay_log(restored, &wal, funcs, actions)?;
    replay_span.close([
        ("last_seq", recovered.last_seq),
        ("frames_replayed", recovered.frames_replayed),
    ]);
    Ok(recovered)
}

/// What a snapshot restores: the engine and the last sequence number
/// it covers.
pub(crate) type Restored = (RuleEngine, u64);

/// The state a snapshot holds (an empty engine at `last_seq` 0 without
/// a snapshot).
pub(crate) fn restore(
    snapshot: Option<SnapshotData<'static>>,
    funcs: &FunctionRegistry,
    actions: &ActionRegistry,
) -> Result<Restored, RecoverError> {
    let Some(snap) = snapshot else {
        return Ok((RuleEngine::new(Database::new()), 0));
    };
    let mut db = Database::new();
    for rel in snap.relations {
        db.catalog_mut()
            .adopt_relation(rel.into_owned())
            .map_err(|e| RecoverError::corrupt("snapshot relations", e))?;
    }
    let mut rules: Vec<(RuleId, Rule, u64)> = Vec::with_capacity(snap.rules.len());
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
        rules.push((RuleId(r.id), rule, r.fired));
    }
    let mut engine = RuleEngine::restore(db, rules, snap.next_rule, snap.total_fired)
        .map_err(|e| RecoverError::corrupt("snapshot rules", e))?;
    engine.set_firing_limit(snap.firing_limit as usize);
    // Restoring reseeded every join memo from the restored
    // tuples; the memo invariant (tokens = all valid premise
    // prefixes) makes that reconstruction bit-identical to the
    // pre-crash incremental state, so a digest mismatch means
    // the snapshot pair (tuples, rules) is not the state the
    // fingerprint was taken over.
    let rebuilt = engine.join_fingerprint();
    if rebuilt != snap.join_fingerprint {
        let recorded = snap.join_fingerprint;
        let detail =
            format!("rebuilt memo digests to {rebuilt:#018x}, snapshot recorded {recorded:#018x}");
        return Err(RecoverError::corrupt("join memo fingerprint", detail));
    }
    Ok((engine, snap.last_seq))
}

/// Replays the log's bytes on top of what [`restore`] made: every
/// frame past its `last_seq`, under the torn-tail rule. A log whose
/// valid header starts past `last_seq + 1` is refused as a gap: the
/// frames between are in neither file.
pub(crate) fn replay_log(
    (mut engine, mut last_seq): Restored,
    wal: &[u8],
    funcs: &FunctionRegistry,
    actions: &ActionRegistry,
) -> Result<Recovered, RecoverError> {
    let suffix = parse_wal(wal);
    if suffix.start_seq > last_seq + 1 {
        let (start, end) = (suffix.start_seq, last_seq);
        let detail = format!("the log starts at seq {start}, the snapshot ends at seq {end}");
        return Err(RecoverError::corrupt("log gap", detail));
    }
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
        let _ = execute(&mut engine, record, rule);
        last_seq = seq;
        frames_replayed += 1;
    }
    Ok(Recovered {
        engine,
        last_seq,
        frames_replayed,
    })
}
