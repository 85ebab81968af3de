//! Group commit on the engine thread: one `fdatasync` per drained
//! queue, every reply held until it lands.
//!
//! Where a test needs requests to share a group it parks the engine
//! thread inside a named rule action (the *gate*), queues the requests
//! behind it, and only then lets the action return — the group that
//! opens next holds exactly what was queued.

use durable::{
    ActionRegistry, ActionSpec, DurableRuleEngine, Options, Record, RuleSpec, SyncPolicy,
};
use predicate::FunctionRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Schema, Value};
use rules::EventMask;
use ruleserv::proto::{encode_frame, read_frame, OP_NAMES};
use ruleserv::{serve, Client, Pushed, Reply, Request, ServerHandle, ServerOptions};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::{Registry, Stage, StageRecord, Telemetry, TraceEvent, Tracer};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ruleserv-group-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// The test's end of the `"gate"` action: `entered` fires when a firing
/// starts; the firing returns on a `()` through `open` — or, once
/// `explode` is set, panics there, taking the engine thread with it.
struct Gate {
    entered: Receiver<()>,
    open: SyncSender<()>,
    explode: Arc<AtomicBool>,
}

/// `"gate"` parks the engine thread until the test opens it; `"slow"`
/// costs a millisecond per firing.
fn actions() -> (ActionRegistry, Gate) {
    // Bounded like every queue in the workspace; no test leaves more
    // than a handful of gate firings unread or unopened.
    let (entered_tx, entered) = mpsc::sync_channel(64);
    let (open, open_rx) = mpsc::sync_channel::<()>(64);
    let open_rx = Mutex::new(open_rx);
    let explode = Arc::new(AtomicBool::new(false));
    let fuse = Arc::clone(&explode);
    let mut actions = ActionRegistry::new();
    actions.register("gate", move |_ctx| {
        let _ = entered_tx.send(());
        // A dropped sender (the test is over, or this is a replay)
        // opens the gate too.
        let _ = open_rx.lock().unwrap().recv();
        assert!(!fuse.load(Ordering::Relaxed), "the gate action exploded");
    });
    actions.register("slow", |_ctx| std::thread::sleep(Duration::from_millis(1)));
    let gate = Gate {
        entered,
        open,
        explode,
    };
    (actions, gate)
}

struct Fixture {
    dir: std::path::PathBuf,
    server: ServerHandle,
    registry: Arc<Registry>,
    tracer: Tracer,
    actions: ActionRegistry,
    gate: Gate,
    /// Requests sent through [`Fixture::call`] and [`Fixture::queue`]:
    /// what `server_queue_depth` counts once the readers have handed
    /// all of them to the engine queue.
    sent: Cell<u64>,
}

const DURABLE: Options = Options {
    sync: SyncPolicy::Always,
    snapshot_every: None,
};

fn start(tag: &str, durable: Options, opts: ServerOptions) -> Fixture {
    start_with(tag, durable, opts, false)
}

/// [`start`], with the profiler on when `profiled`, its slow-op
/// threshold at zero: every request lands in its ring.
fn start_with(tag: &str, durable: Options, opts: ServerOptions, profiled: bool) -> Fixture {
    let dir = tempdir(tag);
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::new(1 << 17);
    let (actions, gate) = actions();
    let mut telemetry = Telemetry::new(Arc::clone(&registry)).with_tracer(tracer.clone());
    if profiled {
        telemetry = telemetry.with_profiling();
        telemetry.profiler().set_slow_threshold_nanos(0);
    }
    let engine = DurableRuleEngine::open_with_metrics(
        &dir,
        FunctionRegistry::default(),
        actions.clone(),
        durable,
        telemetry,
    )
    .unwrap();
    let server = serve("127.0.0.1:0", engine, opts).unwrap();
    Fixture {
        dir,
        server,
        registry,
        tracer,
        actions,
        gate,
        sent: Cell::new(0),
    }
}

/// Relations `g` (every insert runs `"gate"`), `f` (every insert runs
/// `"slow"`), `t` (every insert fires a logging rule) and `q` (no rule).
fn create_world(fx: &Fixture, client: &mut Client) {
    for name in ["g", "f", "t", "q"] {
        let schema = Schema::builder(name).attr("v", AttrType::Int).build();
        let reply = fx.call(client, &Request::Apply(Record::CreateRelation { schema }));
        assert_eq!(reply.kind(), "unit");
    }
    for (relation, action) in [
        ("g", ActionSpec::Named("gate".into())),
        ("f", ActionSpec::Named("slow".into())),
        ("t", ActionSpec::Log("hit".into())),
    ] {
        let spec = RuleSpec {
            name: format!("on-{relation}"),
            condition: format!("{relation}.v >= 0"),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action,
        };
        let reply = fx.call(client, &Request::Apply(Record::AddRule { spec }));
        assert_eq!(reply.kind(), "rule_id");
    }
}

fn insert(relation: &str, v: i64) -> Request {
    Request::Apply(Record::Insert {
        relation: relation.into(),
        values: vec![Value::Int(v)],
    })
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn fsyncs(registry: &Registry) -> u64 {
    registry
        .histogram_totals("wal_fsync_nanos")
        .map_or(0, |t| t.0)
}

fn appends(registry: &Registry) -> u64 {
    registry.counter_value("wal_appends_total").unwrap_or(0)
}

impl Fixture {
    /// One request at depth 1.
    fn call(&self, client: &mut Client, request: &Request) -> Reply {
        self.sent.set(self.sent.get() + 1);
        client.call(request).unwrap()
    }

    /// Sends `requests` on `client` and returns once they are all in
    /// the engine queue (behind a closed gate: in the next group).
    fn queue(&self, client: &mut Client, requests: &[Request]) {
        for request in requests {
            client.send(request).unwrap();
        }
        client.flush().unwrap();
        self.wait_queued(requests.len());
    }

    /// Returns once `n` more requests are in the engine queue.
    fn wait_queued(&self, n: usize) {
        self.sent.set(self.sent.get() + n as u64);
        wait_until("the requests are queued", || {
            let queued = self.registry.histogram_totals("server_queue_depth");
            queued.map_or(0, |t| t.0) >= self.sent.get()
        });
    }

    /// Parks the engine thread inside `holder`'s insert into `g`.
    fn close_gate(&self, holder: &mut Client) {
        self.queue(holder, &[insert("g", 0)]);
        self.gate
            .entered
            .recv_timeout(Duration::from_secs(30))
            .expect("the gate action runs");
    }

    fn open_gate(&self, holder: &mut Client) {
        self.gate.open.send(()).unwrap();
        assert_eq!(holder.recv_reply().unwrap().kind(), "fire");
    }
}

/// `(nanos, size, highest released seq)` of every `commit_release`.
fn releases(events: &[TraceEvent]) -> Vec<(u64, u64, Option<u64>)> {
    events
        .iter()
        .filter(|e| e.dur == 0 && e.name == "commit_release")
        .map(|e| {
            let size = e.args.num("size").expect("size");
            (e.nanos, size, e.args.num("seq"))
        })
        .collect()
}

/// Test (a) and, with a snapshot cadence shorter than the pipeline,
/// test (d): two connections pipeline inserts at depth 8, and the trace
/// ring must show, for every release, that something which makes the
/// highest released sequence number durable — a `wal_fsync`, or the
/// snapshot that covered it — *began after* that record's `wal_append`
/// ended and *completed before* the release.
fn durability_order_holds(tag: &str, snapshot_every: Option<u64>) {
    const CONNECTIONS: i64 = 2;
    const DEPTH: i64 = 8;
    const INSERTS: i64 = 400;
    let fx = start(
        tag,
        Options {
            sync: SyncPolicy::Always,
            snapshot_every,
        },
        ServerOptions::default(),
    );
    Client::connect(fx.server.addr())
        .unwrap()
        .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();
    let addr = fx.server.addr();
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last_seq = 0;
                let (mut sent, mut received) = (0, 0);
                while received < INSERTS {
                    while sent < INSERTS && sent - received < DEPTH {
                        client.send(&insert("t", c * INSERTS + sent)).unwrap();
                        sent += 1;
                    }
                    match client.recv_reply().unwrap() {
                        Reply::Fire(ack) => {
                            assert!(ack.seq > last_seq, "replies left request order");
                            last_seq = ack.seq;
                        }
                        other => panic!("expected fire, got {}", other.kind()),
                    }
                    received += 1;
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let engine = fx.server.shutdown().expect("engine handed back");
    assert_eq!(fx.tracer.dropped(), 0, "the ring holds the whole run");
    let events = fx.tracer.events();

    // Each span is one closed interval: `nanos` to `nanos + dur`.
    let mut append_end: HashMap<u64, u64> = HashMap::new();
    let mut covers: Vec<(u64, u64)> = Vec::new();
    for event in &events {
        let end = event.nanos + event.dur;
        match event.name {
            "wal_append" => {
                let seq = event.args.num("seq").expect("seq");
                append_end.insert(seq, end);
            }
            "wal_fsync" | "durable_snapshot" => covers.push((event.nanos, end)),
            _ => {}
        }
    }
    let releases = releases(&events);
    let total = (CONNECTIONS * INSERTS + 1) as u64;
    assert_eq!(releases.iter().map(|r| r.1).sum::<u64>(), total);
    for (released_at, _, seq) in &releases {
        let seq = seq.expect("every request here logs a record");
        let appended = append_end[&seq];
        assert!(
            covers
                .iter()
                .any(|&(began, ended)| began >= appended && ended <= *released_at),
            "sequence {seq} was released before a sync that followed its append completed"
        );
    }
    assert_eq!(appends(&fx.registry), total);
    assert!(
        fsyncs(&fx.registry) < total,
        "sixteen requests in flight never shared a sync"
    );

    // What was acknowledged is what a restart finds.
    let rows = |engine: &DurableRuleEngine| {
        let relation = engine.engine().db().catalog().relation("t").unwrap();
        let mut rows: Vec<String> = relation
            .iter()
            .map(|(id, t)| format!("{id:?}={t:?}"))
            .collect();
        rows.sort();
        rows
    };
    let live = rows(&engine);
    assert_eq!(live.len() as i64, CONNECTIONS * INSERTS);
    drop(engine);
    let recovered =
        DurableRuleEngine::open(&fx.dir, FunctionRegistry::default(), fx.actions, DURABLE).unwrap();
    assert_eq!(rows(&recovered), live);
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

#[test]
fn no_reply_leaves_before_a_sync_that_follows_its_append() {
    durability_order_holds("order", None);
}

#[test]
fn a_snapshot_inside_a_group_keeps_the_order() {
    durability_order_holds("order-snapshot", Some(5));
}

/// Test (b): requests that wait in the queue together share one sync;
/// a client that waits for each reply gets a sync per request.
#[test]
fn queued_requests_share_a_sync_and_a_lone_request_has_its_own() {
    let fx = start("counts", DURABLE, ServerOptions::default());
    let mut holder = Client::connect(fx.server.addr()).unwrap();
    let mut client = Client::connect(fx.server.addr()).unwrap();
    create_world(&fx, &mut holder);
    for v in 0..20 {
        assert_eq!(fx.call(&mut client, &insert("t", v)).kind(), "fire");
    }
    // Depth 1: every group so far held one request.
    let lone = appends(&fx.registry);
    assert_eq!(lone, 4 + 3 + 20);
    assert_eq!(fsyncs(&fx.registry), lone);
    assert_eq!(
        fx.registry.histogram_totals("server_commit_group_size"),
        Some((lone, lone))
    );

    fx.close_gate(&mut holder);
    let burst: Vec<Request> = (0..50).map(|v| insert("t", 100 + v)).collect();
    fx.queue(&mut client, &burst);
    fx.open_gate(&mut holder);
    for _ in &burst {
        assert_eq!(client.recv_reply().unwrap().kind(), "fire");
    }
    // The gate's own insert, then the fifty as one group.
    assert_eq!(appends(&fx.registry), lone + 51);
    assert_eq!(fsyncs(&fx.registry), lone + 2);
    assert_eq!(
        fx.registry.histogram_totals("server_commit_group_size"),
        Some((lone + 2, lone + 51))
    );
    fx.server.shutdown().unwrap();
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

/// The time partition on the server (DESIGN.md §14): with the profiler
/// on, every request's stages — the second member of an `Always` commit
/// group, a `Ping`, a `Busy` bounce, everything before — sum to its
/// `server_request_nanos` observation, op by op; the stage families
/// add up to the same total; and the requests' work adds up to the
/// global counters, exactly as the per-rule accounts do.
#[test]
fn every_request_record_partitions_its_latency() {
    let opts = ServerOptions {
        queue_cap: 2,
        ..ServerOptions::default()
    };
    let fx = start_with("stages", DURABLE, opts, true);
    let mut holder = Client::connect(fx.server.addr()).unwrap();
    // Raw frames: each request carries trace id 0x100, 0x101, ... in
    // order, which `Client` does not write.
    let mut traced = TcpStream::connect(fx.server.addr()).unwrap();
    traced.set_nodelay(true).unwrap();
    let send = |stream: &mut TcpStream, id: u64, request: Request| {
        request.write_to_traced(stream, Some(id)).unwrap();
    };
    create_world(&fx, &mut holder);

    // Two inserts fill the queue behind the gate and share the next
    // group; the third is bounced; the ping is answered by the reader.
    fx.close_gate(&mut holder);
    send(&mut traced, 0x100, insert("t", 1));
    send(&mut traced, 0x101, insert("t", 2));
    fx.wait_queued(2);
    send(&mut traced, 0x102, insert("t", 3));
    send(&mut traced, 0x103, Request::Ping);
    let busy = || fx.registry.counter_value("server_busy_total").unwrap_or(0);
    wait_until("the third insert is bounced", || busy() == 1);
    fx.open_gate(&mut holder);
    for kind in ["fire", "fire", "busy", "pong"] {
        let (opcode, payload) = read_frame(&mut traced).unwrap().unwrap();
        assert_eq!(Reply::decode(opcode, &payload).unwrap().kind(), kind);
    }
    // Every writer has flushed, so every record is closed.
    let engine = fx.server.shutdown().expect("engine handed back");
    let slow = engine.telemetry().profiler().slow_ops();
    // The world (7), the gate, three inserts and the ping.
    assert_eq!(slow.len(), 12);

    let mut requests = (0, 0);
    for op in OP_NAMES {
        let name = format!("server_request_nanos{{op=\"{op}\"}}");
        let observed = fx.registry.histogram_totals(&name).unwrap_or((0, 0));
        let records: Vec<&StageRecord> = slow
            .iter()
            .filter(|s| s.op == *op)
            .map(|s| &s.record)
            .collect();
        let total = records.iter().map(|r| r.total()).sum();
        assert_eq!(observed, (records.len() as u64, total), "{op}");
        requests = (requests.0 + observed.0, requests.1 + observed.1);
    }
    assert_eq!(requests.0, 12);
    let mut staged = 0;
    for stage in Stage::ALL {
        let name = format!("server_stage_nanos{{stage=\"{}\"}}", stage.name());
        let (count, sum) = fx.registry.histogram_totals(&name).unwrap();
        assert_eq!(count, 12, "{name}");
        staged += sum;
    }
    assert_eq!(staged, requests.1);
    for s in &slow {
        let stages: u64 = Stage::ALL.iter().map(|&st| s.record.nanos(st)).sum();
        assert_eq!(stages, s.record.total(), "{s:?}");
    }

    let traced = |id: u64| {
        let found = slow.iter().find(|s| s.trace_id == Some(id));
        found.map(|s| s.record).expect("a traced request")
    };
    let second = traced(0x101);
    for stage in [Stage::Decode, Stage::Queue, Stage::Wal, Stage::GroupWait] {
        assert!(second.nanos(stage) > 0, "no {}: {second:?}", stage.name());
    }
    assert_eq!(second.work.firings, 1);
    let bounced = traced(0x102);
    assert_eq!(bounced.nanos(Stage::Queue), 0);
    assert_eq!(bounced.work, Default::default());
    assert!(bounced.total() > 0);
    let ping = slow.iter().find(|s| s.op == "ping").expect("the ping");
    assert_eq!(ping.record.nanos(Stage::Queue), 0);

    // The requests' work partitions the global counters.
    let term = |f: fn(&StageRecord) -> u64| slow.iter().map(|s| f(&s.record)).sum::<u64>();
    let global = |name: &str| fx.registry.counter_value(name).unwrap_or(0);
    assert_eq!(term(|r| r.work.firings), global("rules_fired_total"));
    assert_eq!(term(|r| r.work.ops), global("rules_ops_applied_total"));
    assert_eq!(
        term(|r| r.work.ibs_nodes),
        global("predindex_ibs_nodes_visited_total")
    );
    assert_eq!(
        term(|r| r.work.residual_tests),
        global("predindex_residual_tests_total")
    );
    assert_eq!(
        term(|r| r.work.non_indexable),
        global("predindex_non_indexable_scanned_total")
    );
    assert!(global("rules_fired_total") >= 3);
    drop(engine);
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

/// Within a group, subscription changes and events take effect in
/// request order, exactly as when every request was its own group.
#[test]
fn a_group_keeps_subscriptions_in_request_order() {
    let fx = start("subscriptions", DURABLE, ServerOptions::default());
    let mut holder = Client::connect(fx.server.addr()).unwrap();
    let mut client = Client::connect(fx.server.addr()).unwrap();
    create_world(&fx, &mut holder);

    fx.close_gate(&mut holder);
    fx.queue(
        &mut client,
        &[
            insert("t", 1),
            Request::Subscribe,
            insert("t", 2),
            Request::Unsubscribe,
            insert("t", 3),
        ],
    );
    fx.open_gate(&mut holder);
    let mut seqs = Vec::new();
    for _ in 0..5 {
        match client.recv_reply().unwrap() {
            Reply::Fire(ack) => seqs.push(ack.seq),
            Reply::Unit => {}
            other => panic!("unexpected {}", other.kind()),
        }
    }
    // A round trip later every event of the group has been pushed.
    client.ping().unwrap();
    let mut events = Vec::new();
    while let Some(pushed) = client.wait_event(Duration::from_millis(100)).unwrap() {
        let Pushed::Event(e) = pushed else {
            panic!("no drops at this depth")
        };
        events.push(e.seq);
    }
    assert_eq!(events, vec![seqs[1]], "only the insert between the two");
    fx.server.shutdown().unwrap();
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

/// Test (c): a group is closed to arrivals, so a connection that keeps
/// the queue full cannot hold another connection's reply back.
#[test]
fn a_flood_cannot_keep_a_group_open() {
    const QUEUE_CAP: usize = 8;
    let fx = start(
        "flood",
        DURABLE,
        ServerOptions {
            queue_cap: QUEUE_CAP,
            // Far more than the flood sends: its reader never stalls
            // on reply slots, so the queue is refilled without pause.
            pipeline_cap: 1 << 16,
            ..ServerOptions::default()
        },
    );
    let mut holder = Client::connect(fx.server.addr()).unwrap();
    let mut quiet = Client::connect(fx.server.addr()).unwrap();
    create_world(&fx, &mut holder);

    // The quiet connection's one insert waits behind the gate; then an
    // open-loop flood of slow inserts fills the queue and keeps it full.
    fx.close_gate(&mut holder);
    fx.queue(&mut quiet, &[insert("q", 7)]);
    let stop = Arc::new(AtomicBool::new(false));
    let mut flood = TcpStream::connect(fx.server.addr()).unwrap();
    let mut replies = flood.try_clone().unwrap();
    let drain = std::thread::spawn(move || {
        let _ = std::io::copy(&mut replies, &mut std::io::sink());
    });
    let flooder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (opcode, payload) = insert("f", 1).encode();
            let frames = encode_frame(opcode, &payload).repeat(64);
            while !stop.load(Ordering::SeqCst) && flood.write_all(&frames).is_ok() {}
        })
    };
    let busy = || fx.registry.counter_value("server_busy_total").unwrap_or(0);
    wait_until("the flood is being bounced", || busy() >= 100);

    fx.open_gate(&mut holder);
    assert_eq!(quiet.recv_reply().unwrap().kind(), "fire");
    // The flood outlasts the quiet reply by several groups.
    let groups = || {
        let sizes = fx.registry.histogram_totals("server_commit_group_size");
        sizes.map_or(0, |t| t.0)
    };
    let answered_at = (busy(), groups());
    wait_until("the flood is still being bounced and served", || {
        busy() >= answered_at.0 + 100 && groups() >= answered_at.1 + 3
    });
    stop.store(true, Ordering::SeqCst);
    let engine = fx.server.shutdown().expect("engine handed back");
    flooder.join().unwrap();
    drain.join().unwrap();

    // No group took more than was queued when it opened: the queue,
    // the request that opened it, and one per connection in transit.
    let largest = releases(&fx.tracer.events())
        .iter()
        .map(|r| r.1)
        .max()
        .unwrap();
    assert!(
        largest <= QUEUE_CAP as u64 + 1 + 3,
        "a group of {largest} outgrew a queue of {QUEUE_CAP}"
    );
    drop(engine);
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

/// Fail-stop: once the log has failed, nothing is acknowledged — not
/// the held replies of the group it failed in, not any later write —
/// while the server keeps answering what needs no log.
///
/// The fault is real: the log is re-created at every snapshot, so a
/// `wal.bin` that has become a link to `/dev/full` makes the next
/// re-creation fail with `ENOSPC`.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_log_acknowledges_nothing_more() {
    let fx = start(
        "fail-stop",
        Options {
            sync: SyncPolicy::Always,
            // 4 relations + 3 rules + the gate's insert + 4 of the
            // burst below: the snapshot falls on the burst's fourth.
            snapshot_every: Some(12),
        },
        ServerOptions::default(),
    );
    let mut holder = Client::connect(fx.server.addr()).unwrap();
    let mut client = Client::connect(fx.server.addr()).unwrap();
    create_world(&fx, &mut holder);
    let wal = fx.dir.join(durable::WAL_FILE);
    std::fs::remove_file(&wal).unwrap();
    std::os::unix::fs::symlink("/dev/full", &wal).unwrap();

    fx.close_gate(&mut holder);
    let burst: Vec<Request> = (0..6).map(|v| insert("t", v)).collect();
    fx.queue(&mut client, &burst);
    // The gate's insert is a group of its own, synced to the old log.
    fx.open_gate(&mut holder);
    // Three appended and held, the fourth's snapshot fail-stops the
    // log, two refused outright, and the group's sync fails: the held
    // three may not be acknowledged either.
    for n in 0..burst.len() {
        match client.recv_reply().unwrap() {
            Reply::Err(why) => assert!(why.contains("i/o"), "reply {n}: {why}"),
            other => panic!("reply {n} acknowledged a write: {}", other.kind()),
        }
    }
    // Later writes are refused; what needs no log still answers.
    assert_eq!(fx.call(&mut client, &insert("t", 99)).kind(), "err");
    client.ping().unwrap();
    assert!(client.health().unwrap().contains("up 1"));

    // The acknowledged insert survives a restart.
    drop(fx.server.shutdown());
    std::fs::remove_file(&wal).unwrap();
    let recovered =
        DurableRuleEngine::open(&fx.dir, FunctionRegistry::default(), fx.actions, DURABLE).unwrap();
    let catalog = recovered.engine().db().catalog();
    assert_eq!(catalog.relation("g").unwrap().len(), 1);
    drop(recovered);
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

/// A malformed frame inside an open commit group: connection A's
/// pipelined writes wait behind the gate, and connection B sends one
/// insert with a seeded bit flipped past its length word, which the
/// frame's CRC refuses. B is closed without a reply; A's group releases
/// every ack in request order; a reopen finds exactly A's writes.
#[test]
fn a_malformed_frame_inside_an_open_group_closes_only_its_connection() {
    let fx = start("malformed-in-group", DURABLE, ServerOptions::default());
    let addr = fx.server.addr();
    let mut holder = Client::connect(addr).unwrap();
    let mut a = Client::connect(addr).unwrap();
    create_world(&fx, &mut holder);

    fx.close_gate(&mut holder);
    let writes: Vec<Request> = (0..12).map(|v| insert("q", v)).collect();
    fx.queue(&mut a, &writes);
    let (opcode, payload) = insert("q", 1_000).encode();
    let mut wire = encode_frame(opcode, &payload);
    let mut rng = StdRng::seed_from_u64(51);
    let bit = rng.gen_range(32..wire.len() * 8);
    wire[bit / 8] ^= 1 << (bit % 8);
    let mut b = TcpStream::connect(addr).unwrap();
    b.write_all(&wire).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 64];
    match b.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Ok(n) => panic!("B was answered {:02x?}", &buf[..n]),
        Err(e) => panic!("B stayed open while the group was held ({e})"),
    }

    fx.open_gate(&mut holder);
    let mut last = 0;
    for n in 0..writes.len() {
        match a.recv_reply().unwrap() {
            Reply::Fire(ack) => {
                assert!(ack.seq > last, "ack {n} left request order");
                last = ack.seq;
            }
            other => panic!("ack {n}: expected fire, got {}", other.kind()),
        }
    }

    drop(fx.server.shutdown());
    // Replay runs the gate's insert again: a dropped gate lets it pass.
    drop(fx.gate);
    let recovered =
        DurableRuleEngine::open(&fx.dir, FunctionRegistry::default(), fx.actions, DURABLE).unwrap();
    let q = recovered.engine().db().catalog().relation("q").unwrap();
    let mut values: Vec<i64> = q
        .iter()
        .map(|(_, t)| match t.values()[0] {
            Value::Int(v) => v,
            ref other => panic!("a non-integer row {other:?}"),
        })
        .collect();
    values.sort_unstable();
    assert_eq!(
        values,
        (0..12).collect::<Vec<_>>(),
        "the state holds exactly A's writes"
    );
    drop(recovered);
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

/// Runs `wait` — a client blocking on the server — on a thread of its
/// own and fails, by assertion, if it has not returned in ten seconds.
fn within_ten_seconds<T: Send + 'static>(
    what: &str,
    wait: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, outcome) = mpsc::sync_channel(1);
    std::thread::spawn(move || done.send(wait()));
    match outcome.recv_timeout(Duration::from_secs(10)) {
        Ok(outcome) => outcome,
        Err(_) => panic!("{what}: the client is still waiting"),
    }
}

/// An engine-thread panic (here: inside a rule action) must not leave
/// anyone waiting. The request it was running, the requests queued
/// behind it and whatever sessions still hand over are answered with
/// an error; the listener closes; the death is counted.
#[test]
fn a_dead_engine_thread_answers_everyone_and_closes_the_server() {
    let fx = start("dead-engine", DURABLE, ServerOptions::default());
    let addr = fx.server.addr();
    let mut holder = Client::connect(addr).unwrap();
    let mut queued = Client::connect(addr).unwrap();
    let mut late = Client::connect(addr).unwrap();
    create_world(&fx, &mut holder);
    late.ping().unwrap();

    fx.close_gate(&mut holder);
    let burst: Vec<Request> = (0..3).map(|v| insert("t", v)).collect();
    fx.queue(&mut queued, &burst);
    fx.gate.explode.store(true, Ordering::Relaxed);
    fx.gate.open.send(()).unwrap();

    let died = |reply: Result<Reply, ruleserv::ClientError>| match reply {
        Ok(Reply::Err(why)) => assert!(why.contains("engine thread died"), "{why}"),
        Ok(other) => panic!("a dead engine acknowledged a request: {}", other.kind()),
        Err(e) => panic!("the connection closed on an unanswered request: {e}"),
    };
    died(within_ten_seconds("the request that panicked", move || {
        holder.recv_reply()
    }));
    let replies = within_ten_seconds("the requests queued behind it", move || {
        [(); 3].map(|()| queued.recv_reply())
    });
    replies.into_iter().for_each(died);
    // A session that was idle through all of it: its next request is
    // refused or its connection is closed under it, whichever its
    // reader gets to first — it is not left unanswered.
    match within_ten_seconds("a request after the death", move || {
        late.call(&insert("q", 1))
    }) {
        Ok(reply) => assert_eq!(reply.kind(), "err"),
        Err(_closed) => {}
    }

    assert_eq!(
        fx.registry.counter_value("server_engine_dead_total"),
        Some(1)
    );
    wait_until("the listener is closed", || {
        TcpStream::connect(addr).is_err()
    });
    assert!(
        fx.server.shutdown().is_none(),
        "a dead engine is not handed back"
    );
    std::fs::remove_dir_all(&fx.dir).unwrap();
}

/// A connection that is subscribed when the engine thread dies: the
/// dead engine lets go of its pipe, so that session ends like every
/// other and shutdown returns.
#[test]
fn a_dead_engine_thread_lets_its_subscribers_go() {
    let fx = start("dead-subscriber", DURABLE, ServerOptions::default());
    let mut holder = Client::connect(fx.server.addr()).unwrap();
    let mut subscriber = Client::connect(fx.server.addr()).unwrap();
    create_world(&fx, &mut holder);
    assert_eq!(fx.call(&mut subscriber, &Request::Subscribe).kind(), "unit");

    fx.close_gate(&mut holder);
    fx.gate.explode.store(true, Ordering::Relaxed);
    fx.gate.open.send(()).unwrap();
    let reply = within_ten_seconds("the request that panicked", move || holder.recv_reply());
    assert!(matches!(reply, Ok(Reply::Err(_))), "{reply:?}");

    let Fixture { server, dir, .. } = fx;
    let engine = within_ten_seconds("shutdown", move || server.shutdown().is_some());
    assert!(!engine, "a dead engine is not handed back");
    drop(subscriber);
    std::fs::remove_dir_all(&dir).unwrap();
}
