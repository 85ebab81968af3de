//! Every crash state of scripted runs, recovered.
//!
//! ALICE's question (Pillai et al., "All File Systems Are Not Created
//! Equal", OSDI 2014), asked of this crate: which files can a crash
//! leave, and does recovery make sense of each? A script runs the real
//! [`DurableRuleEngine`] from an empty directory with [`tape`] on, so
//! every file operation it makes is recorded. [`Disk`] replays that
//! tape against a model of what a POSIX file system keeps:
//!
//! * an inode keeps its durable bytes and, in order, the appends and
//!   truncations made since its last `fdatasync`; a sync makes the
//!   bytes and the length durable, but not the name;
//! * the directory keeps its durable entries and, in order, the links
//!   and renames made since its last sync, which makes all of them
//!   durable;
//! * a handle names an inode, not a path: a sync through the handle of
//!   `snapshot.tmp` after its rename reaches the renamed inode;
//! * the directory is itself a name in its parent, durable once the
//!   parent is synced; until then a crash may lose it with every file
//!   in it.
//!
//! At every point between tape ops a crash may keep any prefix of the
//! pending directory ops and, for each of the two files recovery reads
//! under the names that prefix leaves, any prefix of its pending ops
//! (or, while the directory's own name is pending, leave no file at
//! all). Each such pair of files goes through recovery's pure core
//! ([`parse_snapshot`], [`restore`], [`replay_log`]), and the state
//! breaks a rule if
//!
//! 1. recovery refuses it;
//! 2. the recovered state is not the live state after some logged
//!    sequence number `k` (compared as `encode_body(capture(..))`);
//! 3. `k` is below what a call that returned before the crash promised:
//!    its `durable_seq()`, or, for a commit group run the way the rule
//!    server runs one, the highest sequence number the group logged if
//!    `group` returned `Ok` — the server's acknowledgement;
//! 4. under `EveryN(n)`, `k` is below the last sequence number a call
//!    that returned `Ok` before the crash had logged, less `n - 1`: the
//!    most that policy lets a crash take, wherever the log keeps the
//!    frames it has not yet synced.

use crate::disk::tape::{self, fail_next, Fault, Op};
use crate::recovery::{replay_log, restore, ActionRegistry, WAL_FILE};
use crate::snapshot::{capture, encode_body, parse_snapshot, SNAPSHOT_FILE};
use crate::{ActionSpec, DurableRuleEngine, Options, Record, RuleSpec, SyncPolicy};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, TupleId, Value};
use rules::EventMask;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

type Ino = usize;

/// An inode's op since its last sync.
#[derive(Debug)]
enum FileOp {
    Append(Vec<u8>),
    Truncate,
}

#[derive(Debug, Default)]
struct Inode {
    durable: Vec<u8>,
    pending: Vec<FileOp>,
}

impl Inode {
    /// The bytes a crash leaves if it keeps the first `kept` pending ops.
    fn with(&self, kept: usize) -> Vec<u8> {
        let mut bytes = self.durable.clone();
        for op in &self.pending[..kept] {
            match op {
                FileOp::Append(more) => bytes.extend_from_slice(more),
                FileOp::Truncate => bytes.clear(),
            }
        }
        bytes
    }
}

/// A directory op since the directory's last sync.
#[derive(Debug)]
enum DirOp {
    Link(String, Ino),
    Rename(String, String),
}

/// The model disk: one directory, whether its name is durable in its
/// parent, and the inodes it has named.
struct Disk {
    dir: PathBuf,
    named: bool,
    inodes: Vec<Inode>,
    durable: BTreeMap<String, Ino>,
    pending: Vec<DirOp>,
    handles: HashMap<u64, Ino>,
}

/// What a crash leaves under `snapshot.bin` and `wal.bin`.
type Files = (Option<Vec<u8>>, Option<Vec<u8>>);

impl Disk {
    fn new(dir: &Path) -> Disk {
        Disk {
            dir: dir.to_path_buf(),
            named: false,
            inodes: Vec::new(),
            durable: BTreeMap::new(),
            pending: Vec::new(),
            handles: HashMap::new(),
        }
    }

    /// The names a crash leaves if it keeps the first `kept` pending
    /// directory ops.
    fn names(&self, kept: usize) -> BTreeMap<String, Ino> {
        let mut names = self.durable.clone();
        for op in &self.pending[..kept] {
            match op {
                DirOp::Link(name, ino) => names.insert(name.clone(), *ino),
                DirOp::Rename(from, to) => {
                    let ino = names
                        .remove(from)
                        .expect("a rename of a name the prefix has");
                    names.insert(to.clone(), ino)
                }
            };
        }
        names
    }

    fn name(&self, path: &Path) -> String {
        assert_eq!(path.parent(), Some(self.dir.as_path()), "{path:?}");
        let name = path.file_name().and_then(|n| n.to_str());
        name.expect("a UTF-8 file name").to_string()
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Create(path, handle) => {
                let name = self.name(path);
                let ino = match self.names(self.pending.len()).get(&name) {
                    Some(&ino) => {
                        self.inodes[ino].pending.push(FileOp::Truncate);
                        ino
                    }
                    None => {
                        self.inodes.push(Inode::default());
                        self.pending.push(DirOp::Link(name, self.inodes.len() - 1));
                        self.inodes.len() - 1
                    }
                };
                self.handles.insert(*handle, ino);
            }
            Op::Write(handle, bytes) => {
                let ino = self.handles[handle];
                self.inodes[ino].pending.push(FileOp::Append(bytes.clone()));
            }
            Op::Sync(handle) => {
                let inode = &mut self.inodes[self.handles[handle]];
                inode.durable = inode.with(inode.pending.len());
                inode.pending.clear();
            }
            Op::Rename(from, to) => {
                let op = DirOp::Rename(self.name(from), self.name(to));
                self.pending.push(op);
            }
            Op::SyncDir(dir) if Some(dir.as_path()) == self.dir.parent() => self.named = true,
            Op::SyncDir(dir) => {
                assert_eq!(dir, &self.dir);
                self.durable = self.names(self.pending.len());
                self.pending.clear();
            }
        }
    }

    /// Every pair of files a crash now may leave.
    fn crash_states(&self) -> Vec<Files> {
        let mut out = Vec::new();
        if !self.named {
            out.push((None, None));
        }
        for kept in 0..=self.pending.len() {
            let names = self.names(kept);
            let versions = |file: &str| -> Vec<Option<Vec<u8>>> {
                let Some(inode) = names.get(file).map(|&ino| &self.inodes[ino]) else {
                    return vec![None];
                };
                (0..=inode.pending.len())
                    .map(|kept| Some(inode.with(kept)))
                    .collect()
            };
            for snapshot in versions(SNAPSHOT_FILE) {
                for wal in versions(WAL_FILE) {
                    out.push((snapshot.clone(), wal));
                }
            }
        }
        out
    }
}

/// What a script's calls promised.
#[derive(Default)]
struct Log {
    /// The registry the script's engines were opened with: a recovered
    /// engine resolves, and every state spells, its named actions here.
    actions: ActionRegistry,
    /// The live state after each logged sequence number.
    states: BTreeMap<u64, Vec<u8>>,
    /// Per returned call: the tape's length and `durable_seq()` then.
    returns: Vec<(usize, u64)>,
    /// Per call that returned `Ok`: the tape's length and the last
    /// sequence number logged then.
    acked: Vec<(usize, u64)>,
}

/// An engine's state after `seq`, as a snapshot body.
fn body(engine: &rules::RuleEngine, actions: &ActionRegistry, seq: u64) -> Vec<u8> {
    encode_body(&capture(engine, actions, seq).expect("a state the scripts can capture"))
}

impl Log {
    /// A call returned with its state live: notes the state and the
    /// call's durability promise.
    fn note(&mut self, e: &DurableRuleEngine) {
        self.state(e);
        self.returned(e);
        self.acked.push((tape::len(), e.next_seq() - 1));
    }

    /// Notes the live state after the last logged sequence number.
    fn state(&mut self, e: &DurableRuleEngine) {
        let seq = e.next_seq() - 1;
        let state = body(e.engine(), &self.actions, seq);
        if let Some(old) = self.states.insert(seq, state) {
            assert!(old == self.states[&seq], "two live states after seq {seq}");
        }
    }

    /// A call returned an error that left memory behind the log (a
    /// frame may be on disk that the engine never applied): notes only
    /// its durability promise.
    fn returned(&mut self, e: &DurableRuleEngine) {
        self.promised(e.durable_seq());
    }

    /// Everything through `seq` is promised durable from here on.
    fn promised(&mut self, seq: u64) {
        self.returns.push((tape::len(), seq));
    }

    /// Checks each crash state of `tape`, run under `policy`, against
    /// the four rules; returns the states checked and the findings.
    fn check(&self, dir: &Path, tape: &[Op], policy: SyncPolicy) -> (usize, Vec<String>) {
        let mut disk = Disk::new(dir);
        let mut recovered: HashMap<Files, Result<u64, String>> = HashMap::new();
        let (mut states, mut findings) = (0, Vec::new());
        for at in 0..=tape.len() {
            if at > 0 {
                disk.apply(&tape[at - 1]);
            }
            let before = |calls: &[(usize, u64)]| {
                let returned = calls.iter().filter(|(len, _)| *len <= at);
                returned.map(|(_, seq)| *seq).max().unwrap_or(0)
            };
            let floor = before(&self.returns);
            let (last, lossy) = match policy {
                SyncPolicy::EveryN(n) => (before(&self.acked), u64::from(n.max(1) - 1)),
                SyncPolicy::Always | SyncPolicy::Manual => (0, 0),
            };
            let after = match at {
                0 => "before the first tape op".to_string(),
                _ => format!("after tape op {at} `{}`", short(&tape[at - 1])),
            };
            for files in disk.crash_states() {
                states += 1;
                let outcome = recovered
                    .entry(files)
                    .or_insert_with_key(|(snapshot, wal)| self.recover(snapshot, wal));
                match outcome {
                    Err(rule) => findings.push(format!("{after}: {rule}")),
                    Ok(k) if *k < floor => findings.push(format!(
                        "{after}: rule 3, nothing acknowledged as durable is lost: \
                         recovered seq {k}, {floor} was acknowledged"
                    )),
                    Ok(k) if *k + lossy < last => findings.push(format!(
                        "{after}: rule 4, a crash loses at most the last {lossy} records: \
                         recovered seq {k}, {last} was returned"
                    )),
                    Ok(_) => {}
                }
            }
        }
        (states, findings)
    }

    /// Recovers one pair of files; the sequence number it lands on, or
    /// the rule it breaks.
    fn recover(&self, snapshot: &Option<Vec<u8>>, wal: &Option<Vec<u8>>) -> Result<u64, String> {
        let (funcs, actions) = (FunctionRegistry::default(), &self.actions);
        let refused = |e| format!("rule 1, recovery accepts every crash state: {e}");
        let snapshot = snapshot.as_deref().map(parse_snapshot).transpose();
        let restored = restore(snapshot.map_err(refused)?, &funcs, actions).map_err(refused)?;
        let wal = wal.as_deref().unwrap_or_default();
        let r = replay_log(restored, wal, &funcs, actions).map_err(refused)?;
        let live = self.states.get(&r.last_seq);
        if live != Some(&body(&r.engine, actions, r.last_seq)) {
            let what = live.map_or("no live state", |_| "a different state");
            return Err(format!(
                "rule 2, recovery lands on a live state: seq {} recovered, {what} logged",
                r.last_seq
            ));
        }
        Ok(r.last_seq)
    }
}

/// A tape op without its bytes, for a finding.
fn short(op: &Op) -> String {
    let file = |p: &Path| {
        p.file_name()
            .map_or(String::new(), |n| n.to_string_lossy().into())
    };
    match op {
        Op::Create(path, h) => format!("create {} (handle {h})", file(path)),
        Op::Write(h, bytes) => format!("write {} bytes (handle {h})", bytes.len()),
        Op::Sync(h) => format!("sync (handle {h})"),
        Op::Rename(from, to) => format!("rename {} to {}", file(from), file(to)),
        Op::SyncDir(_) => "sync the directory".to_string(),
    }
}

/// A script's engine, the directory it lives in, and its log.
struct Run {
    dir: PathBuf,
    opts: Options,
    engine: Option<DurableRuleEngine>,
    log: Log,
}

impl Run {
    fn open_engine(dir: &Path, opts: Options, actions: &ActionRegistry) -> DurableRuleEngine {
        let (funcs, actions) = (FunctionRegistry::default(), actions.clone());
        DurableRuleEngine::open(dir, funcs, actions, opts).expect("the script's directory opens")
    }

    fn e(&mut self) -> &mut DurableRuleEngine {
        self.engine.as_mut().expect("an open engine")
    }

    /// A call that must succeed.
    fn ok<T, E: std::fmt::Debug>(
        &mut self,
        call: impl FnOnce(&mut DurableRuleEngine) -> Result<T, E>,
    ) {
        call(self.e()).expect("a call the script expects to succeed");
        let e = self.engine.as_ref().expect("an open engine");
        self.log.note(e);
    }

    /// A call whose next operation of `kind` fails. An error may leave
    /// memory behind the log, so only its durability promise is noted.
    fn fault<T, E>(
        &mut self,
        kind: Fault,
        call: impl FnOnce(&mut DurableRuleEngine) -> Result<T, E>,
    ) {
        fail_next(kind);
        let failed = call(self.e()).is_err();
        assert_eq!(tape::take_planned(), None, "the call reached no {kind:?}");
        let e = self.engine.as_ref().expect("an open engine");
        match failed {
            true => self.log.returned(e),
            false => self.log.note(e),
        }
    }

    /// `group`, with `body` noting the calls it makes.
    fn group(&mut self, body: impl FnOnce(&mut DurableRuleEngine, &mut Log)) {
        let (engine, log) = (self.engine.as_mut().expect("an open engine"), &mut self.log);
        engine.group(|e| body(e, log)).expect("a group that syncs");
        self.log.note(self.engine.as_ref().expect("an open engine"));
    }

    /// One commit group the way the rule server's engine thread runs
    /// it: each record through `apply`, whatever it returns (a record
    /// the engine refuses is logged and answered with its error), then
    /// the group's one sync, failed if `fault` is set. The sequence
    /// numbers the group logged count as acknowledged only if `group`
    /// returns `Ok`, as the server's replies leave only then — not by
    /// `durable_seq()`.
    fn serve(&mut self, records: Vec<Record>, fault: Option<Fault>) {
        let (engine, log) = (self.engine.as_mut().expect("an open engine"), &mut self.log);
        let logged = engine.group(|e| {
            let mut high = None;
            for record in records {
                let next = e.next_seq();
                let _ = e.apply(record);
                if e.next_seq() > next {
                    high = Some(next);
                    log.state(e);
                }
            }
            if let Some(kind) = fault {
                fail_next(kind);
            }
            high
        });
        // A fault the group never reached (a `group` that skips its sync)
        // is dropped, not left for a later call.
        tape::take_planned();
        if let Ok(Some(high)) = logged {
            self.log.promised(high);
        }
    }

    /// The restart a fail-stopped log calls for.
    fn reopen(&mut self) {
        drop(self.engine.take());
        let e = Run::open_engine(&self.dir, self.opts, &self.log.actions);
        self.log.note(&e);
        self.engine = Some(e);
    }
}

fn rel(name: &str, attr: &str) -> Schema {
    Schema::builder(name).attr(attr, AttrType::Int).build()
}

fn rule(name: &str, condition: &str) -> RuleSpec {
    RuleSpec {
        name: name.into(),
        condition: condition.into(),
        mask: EventMask::ALL,
        priority: 0,
        action: ActionSpec::Log(name.into()),
    }
}

/// The scripts' one named action: it cascades an insert into `audit`,
/// which carries no rule.
fn actions() -> ActionRegistry {
    let mut actions = ActionRegistry::new();
    actions.register("cascade", |ctx| {
        ctx.queue(rules::DbOp::Insert {
            relation: "audit".into(),
            values: int(1),
        })
    });
    actions
}

fn int(v: i64) -> Vec<Value> {
    vec![Value::Int(v)]
}

/// The record of an insert of `v` into `t`.
fn insert(v: i64) -> Record {
    Record::Insert {
        relation: "t".into(),
        values: int(v),
    }
}

/// The eight ops scripts 1 and 2 share.
fn churn(run: &mut Run) {
    run.ok(|e| e.create_relation(rel("t", "v")));
    run.ok(|e| e.add_rule(rule("big", "t.v > 1")));
    for v in 0..4 {
        run.ok(|e| e.insert("t", int(v)));
    }
    run.ok(|e| e.update("t", TupleId(0), int(9)));
    run.ok(|e| e.delete("t", TupleId(1)));
}

const fn opts(sync: SyncPolicy, snapshot_every: Option<u64>) -> Options {
    Options {
        sync,
        snapshot_every,
    }
}

type Script = (&'static str, Options, fn(&mut Run));

const SCRIPTS: &[Script] = &[
    (
        "always, a snapshot every 3 ops",
        opts(SyncPolicy::Always, Some(3)),
        churn,
    ),
    (
        "every 2, a snapshot every 4 ops",
        opts(SyncPolicy::EveryN(2), Some(4)),
        churn,
    ),
    (
        "a group with a snapshot inside",
        opts(SyncPolicy::Always, None),
        |run| {
            run.ok(|e| e.create_relation(rel("t", "v")));
            run.group(|e, log| {
                for v in 0..2 {
                    e.insert("t", int(v)).expect("an insert");
                    log.note(e);
                }
                e.snapshot().expect("a snapshot");
                log.note(e);
                e.insert("t", int(2)).expect("an insert");
                log.note(e);
            });
            run.ok(|e| e.insert("t", int(3)));
        },
    ),
    (
        "manual, explicit snapshots",
        opts(SyncPolicy::Manual, None),
        |run| {
            run.ok(|e| e.create_relation(rel("t", "v")));
            run.ok(|e| e.insert("t", int(0)));
            run.ok(|e| e.snapshot());
            run.ok(|e| e.insert("t", int(1)));
            run.ok(|e| e.sync());
            run.ok(|e| e.insert("t", int(2)));
            run.ok(|e| e.snapshot());
            run.ok(|e| e.insert("t", int(3)));
        },
    ),
    (
        "a failed directory sync",
        opts(SyncPolicy::Always, None),
        |run| {
            run.ok(|e| e.create_relation(rel("t", "v")));
            run.ok(|e| e.insert("t", int(0)));
            run.fault(Fault::SyncDir, |e| e.snapshot());
            run.ok(|e| e.insert("t", int(1)));
            run.ok(|e| e.snapshot());
            run.ok(|e| e.insert("t", int(2)));
        },
    ),
    (
        "a failed log write",
        opts(SyncPolicy::Always, None),
        |run| {
            run.ok(|e| e.create_relation(rel("t", "v")));
            run.ok(|e| e.insert("t", int(0)));
            run.fault(Fault::Write, |e| e.insert("t", int(1)));
            run.reopen();
            run.ok(|e| e.insert("t", int(2)));
        },
    ),
    ("a failed log sync", opts(SyncPolicy::Always, None), |run| {
        run.ok(|e| e.create_relation(rel("t", "v")));
        run.ok(|e| e.insert("t", int(0)));
        run.fault(Fault::Sync, |e| e.insert("t", int(1)));
        run.reopen();
        run.ok(|e| e.insert("t", int(2)));
    }),
    (
        "a two-premise join rule",
        opts(SyncPolicy::Always, Some(3)),
        |run| {
            run.ok(|e| e.create_relation(rel("emp", "a")));
            run.ok(|e| e.create_relation(rel("dept", "b")));
            run.ok(|e| e.add_rule(rule("pair", "emp.a = dept.b")));
            run.ok(|e| e.insert("emp", int(1)));
            run.ok(|e| e.insert("dept", int(1)));
            run.ok(|e| e.insert("emp", int(2)));
            run.ok(|e| e.delete("emp", TupleId(0)));
            run.ok(|e| e.insert("dept", int(2)));
        },
    ),
    (
        "a failed cadence snapshot",
        opts(SyncPolicy::Always, Some(2)),
        |run| {
            run.ok(|e| e.create_relation(rel("t", "v")));
            // A cadence point whose snapshot fails: the insert does not.
            fail_next(Fault::SyncDir);
            run.ok(|e| e.insert("t", int(0)));
            assert_eq!(tape::take_planned(), None, "no snapshot was tried");
            run.ok(|e| e.insert("t", int(1)));
            run.ok(|e| e.insert("t", int(2)));
        },
    ),
    (
        "every 4, a failed snapshot over buffered frames",
        opts(SyncPolicy::EveryN(4), None),
        |run| {
            run.ok(|e| e.create_relation(rel("t", "v")));
            for v in 0..6 {
                run.ok(|e| e.insert("t", int(v)));
            }
            // Three frames wait in the log's buffer through the failed
            // snapshot, and the script ends with them there.
            run.fault(Fault::SyncDir, |e| e.snapshot());
        },
    ),
    (
        "the rule server's groups",
        opts(SyncPolicy::Always, Some(4)),
        |run| {
            let schema = rel("t", "v");
            run.serve(vec![Record::CreateRelation { schema }, insert(0)], None);
            // The refused delete is the fourth record: the cadence
            // snapshot lands mid-group, after a refusal.
            let refused = Record::Delete {
                relation: "t".into(),
                id: 9,
            };
            run.serve(vec![insert(1), refused, insert(2)], None);
            run.serve(vec![insert(3), insert(4)], Some(Fault::Sync));
            run.reopen();
            run.serve(vec![insert(5)], None);
        },
    ),
    (
        "a rule that names a callback",
        opts(SyncPolicy::Always, Some(3)),
        |run| {
            run.ok(|e| e.create_relation(rel("t", "v")));
            run.ok(|e| e.create_relation(rel("audit", "n")));
            let cascade = ActionSpec::Named("cascade".into());
            run.ok(|e| {
                e.add_rule(RuleSpec {
                    action: cascade,
                    ..rule("copy", "t.v > 0")
                })
            });
            run.ok(|e| e.add_rule(rule("big", "t.v > 1")));
            for v in 0..3 {
                run.ok(|e| e.insert("t", int(v)));
            }
            run.ok(|e| e.apply(Record::RemoveRule { id: 1 }));
            run.ok(|e| e.insert("t", int(3)));
        },
    ),
];

/// Runs `script` from an empty directory with the tape on, then checks
/// every crash state of its tape.
fn check(index: usize, (name, opts, script): &Script) -> (usize, usize, Vec<String>) {
    let dir =
        std::env::temp_dir().join(format!("durable-crashcheck-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (log, ops) = tape::record(|| {
        let log = Log {
            actions: actions(),
            ..Log::default()
        };
        let engine = Some(Run::open_engine(&dir, *opts, &log.actions));
        let mut run = Run {
            dir: dir.clone(),
            opts: *opts,
            engine,
            log,
        };
        let e = run.engine.as_ref().expect("an open engine");
        run.log.note(e);
        script(&mut run);
        run.log
    });
    let _ = std::fs::remove_dir_all(&dir);
    let (states, findings) = log.check(&dir, &ops, opts.sync);
    let findings = findings
        .into_iter()
        .map(|f| format!("{name}: {f}"))
        .collect();
    (ops.len(), states, findings)
}

#[test]
fn every_crash_state_recovers_to_an_acknowledged_prefix() {
    let started = Instant::now();
    let (mut states, mut findings) = (0, Vec::new());
    for (index, script) in SCRIPTS.iter().enumerate() {
        let (ops, n, found) = check(index, script);
        println!(
            "{}: {ops} tape ops, {n} crash states, {} findings",
            script.0,
            found.len()
        );
        states += n;
        findings.extend(found);
    }
    println!(
        "{} scripts, {states} crash states, {} findings, {:.0?}",
        SCRIPTS.len(),
        findings.len(),
        started.elapsed()
    );
    assert!(
        findings.is_empty(),
        "{} findings:\n{}",
        findings.len(),
        findings.join("\n")
    );
}
