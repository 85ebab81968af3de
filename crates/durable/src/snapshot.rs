//! Snapshots: a point-in-time serialization of the whole engine.
//!
//! ## On-disk format
//!
//! ```text
//! magic "PMSNAP\0\0" (8) | version u16 | body_len u32 | body_crc u32 | body
//! ```
//!
//! The body holds, in order: the sequence number of the last WAL
//! record the snapshot covers, every relation (schema, slot array
//! *including holes*, free list — so recovered tuple-id allocation is
//! bit-identical), every rule (condition source text, event mask,
//! priority, fire count, action spec), and the engine counters and
//! log. Column statistics are derivable (`Catalog::analyze`) and not
//! stored.
//!
//! Unlike the WAL there is no tolerated torn tail: snapshots are
//! written to a temporary file, synced, and atomically renamed, so a
//! crash mid-write leaves the *previous* snapshot intact and a
//! checksum failure in an installed snapshot is real corruption — a
//! hard [`RecoverError::Corrupt`], never a silent partial state.

use crate::crc::crc32;
use crate::record::{decode_action, decode_mask, encode_action, encode_mask, ActionSpec};
use crate::recovery::RecoverError;
use relation::codec::{decode_relation, encode_relation, CodecError, Reader, Writer};
use relation::Relation;
use rules::{Action, EventMask, RuleEngine};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use telemetry::{Counter, Histogram, Registry};

/// File magic for snapshot files.
pub const SNAP_MAGIC: &[u8; 8] = b"PMSNAP\0\0";
/// Current snapshot format version. Version 2 added join (multi-
/// premise) conditions and the join-memo fingerprint.
pub const SNAP_VERSION: u16 = 2;
/// Snapshot file name inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary name used during atomic replacement.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// One rule as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSnap {
    /// The rule's id in the engine (preserved across recovery).
    pub id: u32,
    /// Rule name.
    pub name: String,
    /// Event mask.
    pub mask: EventMask,
    /// Agenda priority.
    pub priority: i32,
    /// Lifetime fire count.
    pub fired: u64,
    /// The durable action.
    pub action: ActionSpec,
    /// The rule's *current* conjunct conditions (drop_relation may
    /// have scrubbed some since registration).
    pub conds: Vec<CondSnap>,
}

/// One conjunct condition as persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CondSnap {
    /// Re-parseable source text (`Predicate::to_source`).
    Source(String),
    /// An unsatisfiable predicate on the named relation — it has no
    /// clause-level spelling, so it is stored as a marker and
    /// reconstructed with [`predicate::Predicate::unsatisfiable`].
    Unsatisfiable(String),
    /// A multi-premise join conjunct, stored as re-parseable source
    /// text (`JoinCondition::to_source`).
    Join(String),
}

/// Snapshot contents: decoded from a file (owning its relations), or
/// captured from a live engine (borrowing them — a capture is encoded
/// straight from the catalog, never copied).
#[derive(Debug, Default)]
pub struct SnapshotData<'a> {
    /// Sequence number of the last WAL record folded into this state;
    /// replay skips log records at or below it.
    pub last_seq: u64,
    /// Full relation states, sorted by name.
    pub relations: Vec<Cow<'a, Relation>>,
    /// Rules sorted by id.
    pub rules: Vec<RuleSnap>,
    /// The engine's next rule id.
    pub next_rule: u32,
    /// Lifetime firing counter.
    pub total_fired: u64,
    /// Per-mutation firing limit.
    pub firing_limit: u64,
    /// The engine log.
    pub log: Vec<String>,
    /// [`rules::RuleEngine::join_fingerprint`] at capture time.
    /// Recovery rebuilds every join memo by reseeding from the restored
    /// database and verifies the rebuilt state digests identically —
    /// a mismatch means the snapshot pair (tuples, rules) is not the
    /// state the memo was built over, i.e. corruption.
    pub join_fingerprint: u64,
}

/// Why a snapshot could not be taken.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(io::Error),
    /// A rule's state has no durable spelling — a callback action that
    /// was registered directly on the inner engine rather than through
    /// a named [`crate::ActionRegistry`] entry.
    Unrepresentable { rule: String, detail: String },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Unrepresentable { rule, detail } => {
                write!(f, "rule {rule:?} cannot be persisted: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The snapshot metric handles. Default is the no-op bundle.
#[derive(Debug, Clone, Default)]
pub struct SnapshotMetrics {
    /// Snapshots installed (`durable_snapshots_total`).
    snapshots: Counter,
    /// Capture through install, failed attempts included
    /// (`durable_snapshot_nanos`).
    nanos: Histogram,
    /// Installed file sizes (`durable_snapshot_bytes`).
    bytes: Histogram,
    /// Tuples per installed snapshot (`durable_snapshot_tuples`).
    tuples: Histogram,
    /// The stages of one snapshot, in order: [`capture`], then inside
    /// [`write_snapshot`] encode + checksum, `write`, `fdatasync`,
    /// rename + directory sync
    /// (`durable_snapshot_{capture,encode,write,sync,install}_nanos`).
    capture_nanos: Histogram,
    encode_nanos: Histogram,
    write_nanos: Histogram,
    sync_nanos: Histogram,
    install_nanos: Histogram,
}

impl SnapshotMetrics {
    /// Resolves the bundle against `registry` (no-ops if disabled).
    pub fn new(registry: &Registry) -> SnapshotMetrics {
        SnapshotMetrics {
            snapshots: registry.counter("durable_snapshots_total"),
            nanos: registry.histogram("durable_snapshot_nanos"),
            bytes: registry.histogram("durable_snapshot_bytes"),
            tuples: registry.histogram("durable_snapshot_tuples"),
            capture_nanos: registry.histogram("durable_snapshot_capture_nanos"),
            encode_nanos: registry.histogram("durable_snapshot_encode_nanos"),
            write_nanos: registry.histogram("durable_snapshot_write_nanos"),
            sync_nanos: registry.histogram("durable_snapshot_sync_nanos"),
            install_nanos: registry.histogram("durable_snapshot_install_nanos"),
        }
    }
}

/// Runs `stage` on `clock`, whether or not it fails.
fn timed<T>(clock: &Histogram, stage: impl FnOnce() -> T) -> T {
    let started = clock.start_timer();
    let out = stage();
    clock.stop_timer(started);
    out
}

/// One whole snapshot: [`capture`]s `engine` and installs the result
/// as `dir`'s snapshot ([`write_snapshot`]), on `metrics`' clocks.
pub(crate) fn take(
    dir: &Path,
    engine: &RuleEngine,
    specs: &HashMap<u32, ActionSpec>,
    last_seq: u64,
    metrics: &SnapshotMetrics,
) -> Result<(), SnapshotError> {
    timed(&metrics.nanos, || {
        let snap = timed(&metrics.capture_nanos, || capture(engine, specs, last_seq))?;
        Ok(write_snapshot(dir, &snap, metrics)?)
    })
    .map(|()| metrics.snapshots.inc())
}

/// Captures the engine's current state. `specs` maps rule id to the
/// durable action spec (maintained by [`crate::DurableRuleEngine`]);
/// rules absent from it fall back to their in-engine `Action::Log`.
pub fn capture<'a>(
    engine: &'a RuleEngine,
    specs: &HashMap<u32, ActionSpec>,
    last_seq: u64,
) -> Result<SnapshotData<'a>, SnapshotError> {
    let mut relations: Vec<Cow<'a, Relation>> =
        (engine.db().catalog().relations().map(Cow::Borrowed)).collect();
    relations.sort_by(|a, b| a.schema().name().cmp(b.schema().name()));

    let mut rules = Vec::new();
    for (id, rule, fired) in engine.rules_detail() {
        let action = match specs.get(&id.0) {
            Some(spec) => spec.clone(),
            None => match &rule.action {
                Action::Log(msg) => ActionSpec::Log(msg.clone()),
                Action::Callback(_) => {
                    return Err(SnapshotError::Unrepresentable {
                        rule: rule.name.to_string(),
                        detail: "anonymous callback action (register it by name)".into(),
                    })
                }
            },
        };
        let mut conds = Vec::with_capacity(rule.conditions.len());
        for pred in &rule.conditions {
            if !pred.is_satisfiable() {
                conds.push(CondSnap::Unsatisfiable(pred.relation().to_string()));
                continue;
            }
            match pred.to_source() {
                Some(src) => conds.push(CondSnap::Source(src)),
                None => {
                    return Err(SnapshotError::Unrepresentable {
                        rule: rule.name.to_string(),
                        detail: "condition has no source spelling".into(),
                    })
                }
            }
        }
        for join in &rule.joins {
            match join.to_source() {
                Some(src) => conds.push(CondSnap::Join(src)),
                None => {
                    return Err(SnapshotError::Unrepresentable {
                        rule: rule.name.to_string(),
                        detail: "join condition has no source spelling".into(),
                    })
                }
            }
        }
        rules.push(RuleSnap {
            id: id.0,
            name: rule.name.to_string(),
            mask: rule.mask,
            priority: rule.priority,
            fired,
            action,
            conds,
        });
    }
    rules.sort_by_key(|r| r.id);

    Ok(SnapshotData {
        last_seq,
        relations,
        rules,
        next_rule: engine.next_rule_id(),
        total_fired: engine.total_fired(),
        firing_limit: engine.firing_limit() as u64,
        log: engine.log().to_vec(),
        join_fingerprint: engine.join_fingerprint(),
    })
}

fn encode_body(s: &SnapshotData) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(s.last_seq);
    w.u32(s.relations.len() as u32);
    for rel in &s.relations {
        encode_relation(&mut w, rel);
    }
    w.u32(s.rules.len() as u32);
    for r in &s.rules {
        w.u32(r.id);
        w.str(&r.name);
        w.u8(encode_mask(r.mask));
        w.i32(r.priority);
        w.u64(r.fired);
        encode_action(&mut w, &r.action);
        w.u32(r.conds.len() as u32);
        for c in &r.conds {
            match c {
                CondSnap::Source(src) => {
                    w.u8(0);
                    w.str(src);
                }
                CondSnap::Unsatisfiable(rel) => {
                    w.u8(1);
                    w.str(rel);
                }
                CondSnap::Join(src) => {
                    w.u8(2);
                    w.str(src);
                }
            }
        }
    }
    w.u32(s.next_rule);
    w.u64(s.total_fired);
    w.u64(s.firing_limit);
    w.u32(s.log.len() as u32);
    for line in &s.log {
        w.str(line);
    }
    w.u64(s.join_fingerprint);
    w.into_bytes()
}

fn decode_body(bytes: &[u8]) -> Result<SnapshotData<'static>, CodecError> {
    let mut r = Reader::new(bytes);
    let last_seq = r.u64()?;
    let n_rel = r.count(4)?;
    let mut relations = Vec::with_capacity(n_rel);
    for _ in 0..n_rel {
        relations.push(Cow::Owned(decode_relation(&mut r)?));
    }
    let n_rules = r.count(4)?;
    let mut rules = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let id = r.u32()?;
        let name = r.str()?;
        let mask = decode_mask(r.u8()?)?;
        let priority = r.i32()?;
        let fired = r.u64()?;
        let action = decode_action(&mut r)?;
        let n_conds = r.count(5)?;
        let mut conds = Vec::with_capacity(n_conds);
        for _ in 0..n_conds {
            conds.push(match r.u8()? {
                0 => CondSnap::Source(r.str()?),
                1 => CondSnap::Unsatisfiable(r.str()?),
                2 => CondSnap::Join(r.str()?),
                tag => {
                    return Err(CodecError::BadTag {
                        what: "condition snapshot",
                        tag,
                    })
                }
            });
        }
        rules.push(RuleSnap {
            id,
            name,
            mask,
            priority,
            fired,
            action,
            conds,
        });
    }
    let next_rule = r.u32()?;
    let total_fired = r.u64()?;
    let firing_limit = r.u64()?;
    let n_log = r.count(4)?;
    let mut log = Vec::with_capacity(n_log);
    for _ in 0..n_log {
        log.push(r.str()?);
    }
    let join_fingerprint = r.u64()?;
    if !r.is_empty() {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after snapshot body",
            r.remaining()
        )));
    }
    Ok(SnapshotData {
        last_seq,
        relations,
        rules,
        next_rule,
        total_fired,
        firing_limit,
        log,
        join_fingerprint,
    })
}

/// Writes `data` as the directory's snapshot, atomically: encode,
/// write to a temp file, `fdatasync`, rename over the old snapshot,
/// then fsync the directory so the rename itself is durable. Each
/// stage runs on its clock in `metrics`.
pub fn write_snapshot(
    dir: &Path,
    data: &SnapshotData,
    metrics: &SnapshotMetrics,
) -> io::Result<()> {
    let out = timed(&metrics.encode_nanos, || {
        let body = encode_body(data);
        let mut out = Vec::with_capacity(SNAP_MAGIC.len() + 10 + body.len());
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    });

    let tmp = dir.join(SNAPSHOT_TMP);
    let f = timed(&metrics.write_nanos, || {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&out)?;
        io::Result::Ok(f)
    })?;
    timed(&metrics.sync_nanos, || f.sync_data())?;
    drop(f);
    timed(&metrics.install_nanos, || {
        std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
        // Persist the rename (directory metadata). Failure here still
        // leaves a consistent file at one of the two names.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        io::Result::Ok(())
    })?;
    metrics.bytes.record(out.len() as u64);
    if metrics.tuples.is_enabled() {
        metrics
            .tuples
            .record(data.relations.iter().map(|r| r.len() as u64).sum());
    }
    Ok(())
}

/// Reads the directory's snapshot. `Ok(None)` if none has ever been
/// installed; any malformed content is a hard error.
pub fn read_snapshot(dir: &Path) -> Result<Option<SnapshotData<'static>>, RecoverError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(RecoverError::Io(e)),
    };
    let mut r = Reader::new(&bytes);
    let (version, body_len, stored_crc) =
        match (r.take(SNAP_MAGIC.len()), r.u16(), r.u32(), r.u32()) {
            (Ok(magic), Ok(v), Ok(n), Ok(c)) if magic == SNAP_MAGIC => (v, n as usize, c),
            _ => {
                return Err(RecoverError::Corrupt {
                    what: "snapshot header",
                    detail: "bad magic or short file".into(),
                })
            }
        };
    if version != SNAP_VERSION {
        return Err(RecoverError::Corrupt {
            what: "snapshot version",
            detail: format!("found {version}, expected {SNAP_VERSION}"),
        });
    }
    let body = &bytes[r.pos()..];
    if body.len() != body_len {
        return Err(RecoverError::Corrupt {
            what: "snapshot length",
            detail: format!("body is {} bytes, header says {body_len}", body.len()),
        });
    }
    if crc32(body) != stored_crc {
        return Err(RecoverError::Corrupt {
            what: "snapshot checksum",
            detail: "crc mismatch".into(),
        });
    }
    decode_body(body)
        .map(Some)
        .map_err(|e| RecoverError::Corrupt {
            what: "snapshot body",
            detail: e.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("durable-snap-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SnapshotData<'static> {
        SnapshotData {
            last_seq: 42,
            relations: Vec::new(),
            rules: vec![RuleSnap {
                id: 3,
                name: "r".into(),
                mask: EventMask::ALL,
                priority: 9,
                fired: 17,
                action: ActionSpec::Log("hi".into()),
                conds: vec![
                    CondSnap::Source("emp.a > 1".into()),
                    CondSnap::Unsatisfiable("emp".into()),
                    CondSnap::Join("dept.dno = emp.dno".into()),
                ],
            }],
            next_rule: 4,
            total_fired: 17,
            firing_limit: 10_000,
            log: vec!["one".into(), "two".into()],
            join_fingerprint: 0xdead_beef,
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmp("round");
        assert!(read_snapshot(&dir).unwrap().is_none());
        write_snapshot(&dir, &sample(), &SnapshotMetrics::default()).unwrap();
        let back = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(back.last_seq, 42);
        assert_eq!(back.rules, sample().rules);
        assert_eq!(back.log, sample().log);
        assert_eq!(back.firing_limit, 10_000);
    }

    #[test]
    fn any_corruption_is_a_hard_error() {
        let dir = tmp("corrupt");
        write_snapshot(&dir, &sample(), &SnapshotMetrics::default()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let clean = std::fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                read_snapshot(&dir).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
        // Truncations too.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(read_snapshot(&dir).is_err(), "truncation at {cut}");
        }
    }
}
