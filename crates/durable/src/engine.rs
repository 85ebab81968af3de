//! [`DurableRuleEngine`]: a [`RuleEngine`] whose every mutation is
//! write-ahead logged, with periodic snapshots and log truncation.
//!
//! The protocol for each mutating call is log-then-apply: the logical
//! record is appended (and synced, per [`SyncPolicy`]) *before* the
//! in-memory engine executes it. A crash after the append replays the
//! operation; a crash during the append leaves a torn frame the reader
//! drops — either way the recovered state is a clean prefix of the
//! operation history. Operations that fail inside the engine
//! (duplicate relation, unknown tuple, firing limit) stay in the log
//! and fail identically on replay, so the record stream never needs
//! compensation records.

use crate::record::{execute, resolve, ActionSpec, Applied, Record, RuleSpec};
use crate::recovery::{replay_traced, ActionRegistry, RecoverError, WAL_FILE};
use crate::snapshot::{self, SnapshotError, SnapshotMetrics};
use crate::wal::{SyncPolicy, Wal, WalMetrics};
use predicate::FunctionRegistry;
use relation::{Schema, TupleId, Value};
use rules::{EngineError, FireReport, MatchTrace, RuleEngine, RuleId};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use telemetry::{FlightRecorder, Stage, StageClock, StageRecord, Telemetry};

/// Subdirectory of a durable home where flight dumps land.
pub const FLIGHT_DIR: &str = "flight";

/// Durability knobs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// When appended records reach stable storage.
    pub sync: SyncPolicy,
    /// Take a snapshot (and truncate the log) every this many logged
    /// operations; `None` disables automatic snapshots (explicit
    /// [`DurableRuleEngine::snapshot`] calls only).
    pub snapshot_every: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            sync: SyncPolicy::Always,
            snapshot_every: Some(1024),
        }
    }
}

/// Errors from the durable engine.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem failure — the in-memory engine was *not* mutated.
    Io(io::Error),
    /// The operation was logged but the engine rejected it (the same
    /// rejection replay will reproduce).
    Engine(EngineError),
    /// A rule condition failed to parse (nothing was logged).
    Parse { condition: String, error: String },
    /// A rule names an action the registry lacks (nothing was logged).
    UnknownAction(String),
    /// Snapshot capture failed.
    Snapshot(SnapshotError),
    /// Recovery failed while opening.
    Recover(RecoverError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable i/o: {e}"),
            DurableError::Engine(e) => write!(f, "{e}"),
            DurableError::Parse { condition, error } => {
                write!(f, "condition {condition:?} failed to parse: {error}")
            }
            DurableError::UnknownAction(name) => {
                write!(f, "action {name:?} is not registered")
            }
            DurableError::Snapshot(e) => write!(f, "{e}"),
            DurableError::Recover(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<EngineError> for DurableError {
    fn from(e: EngineError) -> Self {
        DurableError::Engine(e)
    }
}

impl From<SnapshotError> for DurableError {
    fn from(e: SnapshotError) -> Self {
        DurableError::Snapshot(e)
    }
}

impl From<RecoverError> for DurableError {
    fn from(e: RecoverError) -> Self {
        match e {
            RecoverError::Parse { condition, error } => DurableError::Parse { condition, error },
            RecoverError::MissingAction(n) => DurableError::UnknownAction(n),
            other => DurableError::Recover(other),
        }
    }
}

/// A rule engine with a durable home directory.
pub struct DurableRuleEngine {
    dir: PathBuf,
    engine: RuleEngine,
    wal: Wal,
    specs: HashMap<u32, ActionSpec>,
    funcs: FunctionRegistry,
    actions: ActionRegistry,
    opts: Options,
    since_snapshot: u64,
    /// Re-applied to each fresh log a truncation creates.
    wal_metrics: WalMetrics,
    metrics: SnapshotMetrics,
    /// Post-mortem dumps into `dir/flight/`; built once at open from
    /// the same telemetry handle the engine records into.
    recorder: FlightRecorder,
    /// The stage clock of the latest logged operation (running only
    /// under the profiler); its record is
    /// [`last_record`](DurableRuleEngine::last_record).
    clock: StageClock,
}

impl DurableRuleEngine {
    /// Opens (creating or recovering) the durable engine at `dir`.
    ///
    /// Recovery replays snapshot + log; custom predicate functions and
    /// named actions used by persisted rules must already be in
    /// `funcs` / `actions` or this fails rather than silently altering
    /// rule semantics. A fresh snapshot is installed and the log
    /// truncated before this returns, so startup cost is paid once,
    /// not compounded across restarts.
    pub fn open(
        dir: impl Into<PathBuf>,
        funcs: FunctionRegistry,
        actions: ActionRegistry,
        opts: Options,
    ) -> Result<Self, DurableError> {
        Self::open_with_metrics(dir, funcs, actions, opts, Telemetry::disabled())
    }

    /// [`open`](Self::open) with telemetry — the one way in; there is
    /// no attaching later. A bare `Arc<Registry>` converts into a
    /// counters-only handle: the engine, its predicate index, the WAL
    /// and the snapshot machinery all record into it (see the crate
    /// docs for the metric families), recovery included —
    /// `durable_recovery_frames_total` counts the WAL frames this open
    /// replayed on top of the snapshot. A full [`Telemetry`] adds:
    ///
    /// * a **tracer** — cascade, match, WAL, snapshot and recovery
    ///   phases emit spans into its ring, which doubles as the flight
    ///   recorder: if recovery refuses a corrupt snapshot, a
    ///   post-mortem dump (the recovery spans plus the metric
    ///   exposition) lands under `dir/flight/` before the error
    ///   returns;
    /// * **profiling** — per-rule cost accounts (recovered rules are
    ///   named retroactively), also carried in flight dumps, and a
    ///   stage record per logged operation
    ///   ([`last_record`](Self::last_record)).
    ///
    /// None of it is replayed: accounts restart empty on reopen.
    pub fn open_with_metrics(
        dir: impl Into<PathBuf>,
        funcs: FunctionRegistry,
        actions: ActionRegistry,
        opts: Options,
        telemetry: impl Into<Telemetry>,
    ) -> Result<Self, DurableError> {
        let dir = dir.into();
        let telemetry = telemetry.into();
        std::fs::create_dir_all(&dir)?;
        let recorder = FlightRecorder::new(telemetry.clone(), dir.join(FLIGHT_DIR));
        let recovered = match replay_traced(&dir, &funcs, &actions, telemetry.tracer()) {
            Ok(r) => r,
            Err(e) => {
                // A torn-WAL tail is tolerated silently; a Corrupt
                // refusal means the snapshot itself is damaged — ship
                // the recovery spans as context for the post-mortem.
                if matches!(e, RecoverError::Corrupt { .. }) {
                    let _ = recorder.dump("recovery-corrupt");
                }
                return Err(e.into());
            }
        };
        let registry = telemetry.registry();
        if registry.is_enabled() {
            registry
                .counter("durable_recovery_frames_total")
                .add(recovered.frames_replayed);
        }
        // Part of opening, not of the workload: off the clocks.
        snapshot::take(
            &dir,
            &recovered.engine,
            &recovered.action_specs,
            recovered.last_seq,
            &SnapshotMetrics::default(),
        )?;
        let mut engine = recovered.engine;
        engine.attach_metrics(telemetry.clone());
        let wal_metrics = WalMetrics::new(&telemetry);
        let mut wal = Wal::create(&dir.join(WAL_FILE), recovered.last_seq + 1, opts.sync)?;
        wal.set_metrics(wal_metrics.clone());
        let metrics = SnapshotMetrics::new(registry);
        Ok(DurableRuleEngine {
            dir,
            engine,
            wal,
            specs: recovered.action_specs,
            funcs,
            actions,
            opts,
            since_snapshot: 0,
            wal_metrics,
            metrics,
            recorder,
            clock: StageClock::default(),
        })
    }

    /// The telemetry handle this engine was opened with (everything
    /// disabled under plain [`open`](Self::open)).
    pub fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    /// Read access to the wrapped engine (database, rules, log,
    /// counters). There is deliberately no mutable access: every
    /// mutation must flow through a logged entry point.
    pub fn engine(&self) -> &RuleEngine {
        &self.engine
    }

    /// The sequence number the next logged operation will carry.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The highest sequence number known to be on stable storage: the
    /// last one a WAL sync or a snapshot covered.
    pub fn durable_seq(&self) -> u64 {
        self.wal.durable_next() - 1
    }

    /// The sync policy the engine was opened with.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.opts.sync
    }

    /// Group commit: runs `body` with [`SyncPolicy::Always`]'s
    /// per-record `fdatasync` deferred, then issues **one** for
    /// everything `body` logged. Each operation keeps its own record
    /// and sequence number; only the sync is shared. `Ok` means every
    /// record `body` logged is as durable as the policy promises an
    /// acknowledged record to be, so a caller that acknowledges
    /// nothing until `group` returns keeps `Always`'s guarantee —
    /// durable before acknowledged — at one sync per group.
    ///
    /// On `Err` the sync failed: memory is ahead of disk, the log is
    /// fail-stopped (every later logged operation errors), and nothing
    /// `body` logged may be acknowledged. Under
    /// [`SyncPolicy::EveryN`] / [`SyncPolicy::Manual`] this is just
    /// `Ok(body(self))`.
    pub fn group<T>(&mut self, body: impl FnOnce(&mut Self) -> T) -> Result<T, DurableError> {
        self.wal.deferred = true;
        let out = body(self);
        self.wal.deferred = false;
        if self.opts.sync == SyncPolicy::Always && self.wal.unsynced() > 0 {
            self.wal.sync()?;
        }
        Ok(out)
    }

    /// Runs one record — the only way this engine's state advances,
    /// and the function WAL replay runs too. In order: *resolve* (an
    /// `AddRule` whose condition does not parse or whose action is not
    /// registered is refused here, so a spec that cannot be replayed is
    /// never admitted to the log), *append* (the record is on the log,
    /// though not necessarily synced, before the engine sees the
    /// operation), *execute*, then the snapshot cadence.
    pub fn apply(&mut self, record: Record) -> Result<Applied, DurableError> {
        self.timed(|d| {
            let rule = resolve(&record, &d.funcs, &d.actions)?;
            d.logged(record, |engine, specs, record| {
                execute(engine, specs, record, rule)
            })
        })
    }

    /// The stage record of the latest [`apply`](Self::apply) (or
    /// [`explain_insert`](Self::explain_insert)): `wal`, `snapshot`, the
    /// rule engine's stages, and `other` for the rest, with the work
    /// the engine billed. All zeros unless the profiler is on.
    pub fn last_record(&self) -> &StageRecord {
        self.clock.record()
    }

    /// Runs one logged operation under a fresh stage clock, then closes
    /// its record — an operation refused before it was logged too.
    fn timed<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, DurableError>,
    ) -> Result<T, DurableError> {
        self.clock = StageClock::start(self.engine.telemetry().profiler().is_enabled());
        let out = op(self);
        self.clock.lap(Stage::Other);
        out
    }

    /// Log-then-apply: appends `record`, hands it to `run` with the
    /// engine and the action specs, then the snapshot cadence. The
    /// clock laps `wal` and `snapshot` and folds in the engine's own
    /// record of the run.
    fn logged<T>(
        &mut self,
        record: Record,
        run: impl FnOnce(
            &mut RuleEngine,
            &mut HashMap<u32, ActionSpec>,
            Record,
        ) -> Result<T, EngineError>,
    ) -> Result<T, DurableError> {
        self.wal.append(&record)?;
        self.clock.lap(Stage::Wal);
        let out = run(&mut self.engine, &mut self.specs, record);
        self.clock.enclose(Stage::Other, self.engine.last_record());
        self.bump_snapshot_cadence()?;
        self.clock.lap(Stage::Snapshot);
        Ok(out?)
    }

    /// Counts one logged operation against the snapshot cadence. Runs
    /// after the operation's bookkeeping (notably [`Self::specs`]) is in
    /// place, since it may capture a snapshot.
    fn bump_snapshot_cadence(&mut self) -> Result<(), DurableError> {
        self.since_snapshot += 1;
        if let Some(every) = self.opts.snapshot_every {
            if self.since_snapshot >= every.max(1) {
                self.snapshot()?;
            }
        }
        Ok(())
    }

    /// Creates a relation (logged).
    pub fn create_relation(&mut self, schema: Schema) -> Result<(), DurableError> {
        self.apply(Record::CreateRelation { schema }).map(drop)
    }

    /// Registers a rule from its durable spec (logged, unless the spec
    /// is refused — see [`apply`](Self::apply)).
    pub fn add_rule(&mut self, spec: RuleSpec) -> Result<RuleId, DurableError> {
        self.apply(Record::AddRule { spec })
            .map(Applied::into_rule_id)
    }

    /// Inserts a tuple and runs the rule chain (logged).
    pub fn insert(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<FireReport, DurableError> {
        self.apply(Record::Insert {
            relation: relation.to_string(),
            values,
        })
        .map(Applied::into_report)
    }

    /// Inserts a tuple like [`insert`](Self::insert) — logged
    /// identically — but also returns the EXPLAIN trace of the match
    /// the insertion triggered. Replay sees a plain insert.
    pub fn explain_insert(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<(MatchTrace, FireReport), DurableError> {
        let record = Record::Insert {
            relation: relation.to_string(),
            values: values.clone(),
        };
        self.timed(|d| {
            d.logged(record, |engine, _, _| {
                engine.explain_insert(relation, values)
            })
        })
    }

    /// Updates a tuple and runs the rule chain (logged).
    pub fn update(
        &mut self,
        relation: &str,
        id: TupleId,
        values: Vec<Value>,
    ) -> Result<FireReport, DurableError> {
        self.apply(Record::Update {
            relation: relation.to_string(),
            id: id.0,
            values,
        })
        .map(Applied::into_report)
    }

    /// Deletes a tuple and runs the rule chain (logged).
    pub fn delete(&mut self, relation: &str, id: TupleId) -> Result<FireReport, DurableError> {
        self.apply(Record::Delete {
            relation: relation.to_string(),
            id: id.0,
        })
        .map(Applied::into_report)
    }

    /// Inserts a batch and runs the rule chain once over it (logged as
    /// a single record).
    pub fn insert_batch(
        &mut self,
        relation: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<FireReport, DurableError> {
        self.apply(Record::InsertBatch {
            relation: relation.to_string(),
            rows,
        })
        .map(Applied::into_report)
    }

    /// Takes a snapshot now and truncates the log. On return the
    /// snapshot file covers every operation ever applied, and the WAL
    /// is empty.
    pub fn snapshot(&mut self) -> Result<(), DurableError> {
        // A fail-stopped log stays stopped: memory may hold operations
        // that were answered with an error.
        self.wal.check_poisoned()?;
        let _span = self.engine.telemetry().tracer().span("durable_snapshot");
        let last = self.wal.next_seq() - 1;
        snapshot::take(&self.dir, &self.engine, &self.specs, last, &self.metrics)?;
        // Only truncate the log after the snapshot rename is durable;
        // a crash between the two leaves a stale log whose records
        // replay skips by sequence number.
        // A failed re-creation may already have truncated the file the
        // old handle appends to, so it fail-stops the old log.
        let mut wal = match Wal::create(&self.dir.join(WAL_FILE), last + 1, self.opts.sync) {
            Ok(wal) => wal,
            Err(e) => return Err(self.wal.poison(e).into()),
        };
        wal.set_metrics(self.wal_metrics.clone());
        // Still inside a group, if the old log was.
        wal.deferred = self.wal.deferred;
        self.wal = wal;
        self.since_snapshot = 0;
        Ok(())
    }

    /// Forces all appended log records to stable storage (group-commit
    /// flush point under [`SyncPolicy::EveryN`] / [`SyncPolicy::Manual`]).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.wal.sync()?;
        Ok(())
    }

    /// Writes a post-mortem dump (recent spans + metric exposition) to
    /// `dir/flight/` and returns its path.
    pub fn dump_flight(&self, reason: &str) -> Result<PathBuf, DurableError> {
        Ok(self.recorder.dump(reason)?)
    }

    /// A small line-oriented liveness report, suitable as the `/health`
    /// body of a [`telemetry::serve`] exposition server:
    ///
    /// ```text
    /// up 1
    /// wal_next_seq 42
    /// rules 3
    /// ```
    pub fn health_text(&self) -> String {
        format!(
            "up 1\nwal_next_seq {}\nrules {}\n",
            self.wal.next_seq(),
            self.engine.rules().count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::AttrType;
    use std::path::Path;

    fn open(name: &str) -> (PathBuf, DurableRuleEngine) {
        let dir =
            std::env::temp_dir().join(format!("durable-engine-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Options {
            sync: SyncPolicy::Always,
            snapshot_every: None,
        };
        let mut engine = DurableRuleEngine::open(
            &dir,
            FunctionRegistry::default(),
            ActionRegistry::new(),
            opts,
        )
        .unwrap();
        engine
            .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
            .unwrap();
        (dir, engine)
    }

    fn recovered_rows(dir: &Path) -> usize {
        let recovered = crate::replay(dir, &FunctionRegistry::default(), &ActionRegistry::new())
            .expect("recovery");
        let rows = recovered.engine.db().catalog().relation("t").unwrap().len();
        let _ = std::fs::remove_dir_all(dir);
        rows
    }

    #[test]
    fn a_failed_group_sync_acknowledges_nothing_and_stops_the_log() {
        let (dir, mut engine) = open("group-sync-fault");
        let durable_before = engine.durable_seq();
        let synced = engine.group(|e| {
            for v in 0..3 {
                e.insert("t", vec![Value::Int(v)]).unwrap();
            }
            e.wal.fail_next_sync.set(true);
        });
        assert!(matches!(synced, Err(DurableError::Io(_))));
        assert_eq!(engine.durable_seq(), durable_before);
        // Fail-stop: no later operation is logged, synced or snapshotted.
        assert!(matches!(
            engine.insert("t", vec![Value::Int(3)]),
            Err(DurableError::Io(_))
        ));
        assert!(engine.sync().is_err());
        assert!(engine.snapshot().is_err());
        assert!(matches!(engine.group(|_| ()), Err(DurableError::Io(_))));
        drop(engine);
        // The three frames were written, so this crash-free "restart"
        // replays them; a real crash may have kept any prefix.
        assert_eq!(recovered_rows(&dir), 3);
    }

    #[test]
    fn a_failed_write_inside_a_group_fails_the_group() {
        let (dir, mut engine) = open("group-write-fault");
        let synced = engine.group(|e| {
            e.insert("t", vec![Value::Int(0)]).unwrap();
            e.wal.fail_next_write.set(true);
            // Not logged, so not applied either …
            assert!(e.insert("t", vec![Value::Int(1)]).is_err());
            // … and nothing lands behind the torn frame.
            assert!(e.insert("t", vec![Value::Int(2)]).is_err());
            assert_eq!(e.engine().db().catalog().relation("t").unwrap().len(), 1);
        });
        // The first insert was appended, but the log cannot vouch for
        // it any more: the group as a whole is not acknowledged.
        assert!(matches!(synced, Err(DurableError::Io(_))));
        drop(engine);
        assert_eq!(recovered_rows(&dir), 1);
    }

    #[test]
    fn typed_wrappers_and_apply_write_the_same_log() {
        let spec = RuleSpec {
            name: "big".into(),
            condition: "u.v > 3".into(),
            mask: rules::EventMask::ALL,
            priority: 1,
            action: ActionSpec::Log("big".into()),
        };
        let schema = || Schema::builder("u").attr("v", AttrType::Int).build();
        let row = |v| vec![Value::Int(v)];

        let (typed_dir, mut typed) = open("log-typed");
        typed.create_relation(schema()).unwrap();
        let rule = typed.add_rule(spec.clone()).unwrap();
        typed.insert("u", row(5)).unwrap();
        typed.update("u", TupleId(0), row(1)).unwrap();
        typed.insert_batch("u", vec![row(7), row(8)]).unwrap();
        typed.delete("u", TupleId(1)).unwrap();
        // Rejected by the engine, logged all the same.
        assert!(typed.delete("u", TupleId(9)).is_err());
        assert!(matches!(
            typed.apply(Record::RemoveRule { id: rule.0 }),
            Ok(Applied::RuleRemoved(_))
        ));
        assert!(matches!(
            typed.apply(Record::DropRelation { name: "u".into() }),
            Ok(Applied::Dropped(_))
        ));

        let (raw_dir, mut raw) = open("log-apply");
        let u = || "u".to_string();
        for record in [
            Record::CreateRelation { schema: schema() },
            Record::AddRule { spec },
            Record::Insert {
                relation: u(),
                values: row(5),
            },
            Record::Update {
                relation: u(),
                id: 0,
                values: row(1),
            },
            Record::InsertBatch {
                relation: u(),
                rows: vec![row(7), row(8)],
            },
            Record::Delete {
                relation: u(),
                id: 1,
            },
            Record::Delete {
                relation: u(),
                id: 9,
            },
            Record::RemoveRule { id: rule.0 },
            Record::DropRelation { name: u() },
        ] {
            let _ = raw.apply(record);
        }

        assert_eq!(typed.next_seq(), raw.next_seq());
        let log = |dir: &Path| std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert!(!log(&typed_dir).is_empty());
        assert_eq!(log(&typed_dir), log(&raw_dir));
        for dir in [typed_dir, raw_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_refused_spec_leaves_the_log_untouched() {
        let (dir, mut engine) = open("refused-spec");
        let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let (seq, len) = (engine.next_seq(), wal_len());
        let spec = |condition: &str, action| RuleSpec {
            name: "bad".into(),
            condition: condition.into(),
            mask: rules::EventMask::ALL,
            priority: 0,
            action,
        };
        assert!(matches!(
            engine.add_rule(spec("t.v >", ActionSpec::Log("x".into()))),
            Err(DurableError::Parse { .. })
        ));
        assert!(matches!(
            engine.apply(Record::AddRule {
                spec: spec("t.v > 1", ActionSpec::Named("nobody".into()))
            }),
            Err(DurableError::UnknownAction(_))
        ));
        assert_eq!((engine.next_seq(), wal_len()), (seq, len));
        assert_eq!(engine.engine().rule_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
