//! Recovery under load: kill the real daemon from outside mid-soak —
//! with inserts acknowledged and more in flight — restart over the same
//! directory, and assert the client-observed committed prefix replays
//! exactly.
//!
//! The test sends the daemon SIGKILL (`Child::kill`) once at least 40
//! inserts are acked and a burst more is on the wire, so the kill lands
//! mid-pipeline and, most likely, mid-group: some of the burst appended
//! but neither synced nor answered. Every acked op is durable (its
//! group's sync returned before its reply left); the in-flight tail may
//! or may not be. The daemon has no crash hook: each crash point inside
//! a group is checked on the models instead (`commit::check` for what
//! may leave before the sync, `durable`'s crash-state check for what a
//! crash at each file operation of the server's groups leaves).
//!
//! The invariant (under `SyncPolicy::Always`, the daemon's default):
//! with sequential values `0, 1, 2, …` inserted on one connection,
//! recovery must yield exactly the values `0..=k` for some `k` with
//! `last_acked <= k <= last_sent` — everything acked survives, nothing
//! is invented, and no gaps appear mid-stream.

use durable::{ActionRegistry, DurableRuleEngine, Options};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, Value};
use ruleserv::{Client, ClientError, Request};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    addr: std::net::SocketAddr,
}

fn spawn_daemon(dir: &std::path::Path, extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ruleserv"));
    cmd.arg("--dir")
        .arg(dir)
        .args(["--bind", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn ruleserv daemon");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("daemon printed nothing")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected banner: {first}"))
        .parse()
        .expect("parseable listen address");
    Daemon { child, addr }
}

impl Daemon {
    /// Graceful stop: close stdin (the daemon's run-until signal) and
    /// wait for a clean exit.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    assert!(status.success(), "daemon exited with {status}");
                    return;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    panic!("daemon did not exit after stdin EOF");
                }
            }
        }
    }
}

#[test]
fn a_crash_between_append_and_reply_replays_the_committed_prefix() {
    let dir = std::env::temp_dir().join(format!("ruleserv-recovery-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Phase 1: a daemon killed from outside once 40 inserts are acked
    // and a burst more is in flight.
    let mut daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(daemon.addr).unwrap();
    client
        .create_relation(Schema::builder("seq").attr("v", AttrType::Int).build())
        .unwrap();

    // Pipeline sequential inserts, up to 8 in flight. `sent` counts
    // requests on the wire; `acked` counts in-order Fire replies
    // received before the connection died.
    let insert = |v: i64| {
        Request::Apply(durable::Record::Insert {
            relation: "seq".into(),
            values: vec![Value::Int(v)],
        })
    };
    let mut sent: i64 = 0;
    let mut acked: i64 = 0;
    while acked < 40 {
        while sent - acked < 8 {
            client.send(&insert(sent)).unwrap();
            sent += 1;
        }
        let reply = client.recv_reply().unwrap();
        assert_eq!(reply.kind(), "fire", "in-order ack stream broke");
        acked += 1;
    }
    for _ in 0..64 {
        client.send(&insert(sent)).unwrap();
        sent += 1;
    }
    client.flush().unwrap();
    daemon.child.kill().unwrap();
    // Drain what the daemon answered before it died: a reply leaves
    // only after its group's sync, so each one is an ack.
    let mut died = false;
    while acked < sent {
        match client.recv_reply() {
            Ok(reply) => {
                assert_eq!(
                    reply.kind(),
                    "fire",
                    "in-order ack stream broke before the crash"
                );
                acked += 1;
            }
            Err(ClientError::Io(_) | ClientError::Closed) => {
                died = true;
                break;
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
    }
    assert!(died, "the daemon was killed but its connection stayed up");
    assert!(acked >= 1, "some inserts must have been acked pre-crash");
    assert!(
        acked < sent,
        "the crash must land mid-pipeline (acked < sent)"
    );
    let exit = daemon.child.wait_with_output().unwrap();
    assert!(!exit.status.success(), "the daemon must have been killed");

    // Phase 2: restart the same daemon over the same directory. The
    // banner printing at all proves recovery replayed the WAL.
    let daemon = spawn_daemon(&dir, &[]);
    let mut client = Client::connect(daemon.addr).unwrap();
    let health = client.health().unwrap();
    assert!(
        health.contains("up 1"),
        "restarted daemon is healthy: {health}"
    );
    // New writes must keep working against the recovered state. The
    // probe value -1 is distinguishable from every phase-1 value.
    let post = client.insert("seq", vec![Value::Int(-1)]).unwrap();
    assert!(
        post.seq > acked as u64,
        "WAL sequence continues past the crash"
    );
    client.sync().unwrap();
    drop(client);
    daemon.stop();

    // Phase 3: open the directory in-process and inspect the exact
    // surviving values: `0..=k` with `acked-1 <= k <= sent-1`.
    let engine = DurableRuleEngine::open(
        &dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options::default(),
    )
    .unwrap();
    let relation = engine
        .engine()
        .db()
        .catalog()
        .relation("seq")
        .expect("relation recovered");
    let mut values: Vec<i64> = relation
        .iter()
        .map(|(_, t)| match t.values().first() {
            Some(Value::Int(v)) => *v,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    values.sort_unstable();
    // The restart probe (-1) plus a gapless phase-1 prefix 0..k.
    let expected: Vec<i64> = (-1..values.len() as i64 - 1).collect();
    assert_eq!(
        values, expected,
        "recovered values must be the probe plus a gapless prefix 0..k"
    );
    let k = values.len() as i64 - 1;
    assert!(
        k >= acked,
        "lost an acked insert: only {k} survive, {acked} were acked"
    );
    assert!(
        k <= sent,
        "recovered {k} inserts but only {sent} were ever sent"
    );

    eprintln!("{acked} acked, {k} recovered, {sent} sent");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flag the daemon cannot read is a usage error (exit 2) before any
/// directory is opened, for the numeric flags and the removed
/// `--advise` and `--crash-after` alike — never a silent default.
#[test]
fn malformed_or_unknown_flags_exit_with_usage() {
    let dir = std::env::temp_dir().join(format!("ruleserv-usage-{}", std::process::id()));
    for args in [
        &["--seconds", "abc"][..],
        &["--snapshot-every", "never"],
        &["--advise"],
        &["--crash-after", "40"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ruleserv"))
            .arg("--dir")
            .arg(&dir)
            .args(["--bind", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run ruleserv");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: ruleserv"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not start serving");
    }
    assert!(
        !dir.exists(),
        "a usage error must not open the durable home"
    );
}
