//! End-to-end wire-protocol tests: an in-process server with real TCP
//! clients, one of each opcode, pipelining, backpressure, and
//! subscription streams.

use durable::Record;
use durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy};
use predicate::FunctionRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Schema, TupleId, Value};
use rules::EventMask;
use ruleserv::proto::{encode_frame, read_frame};
use ruleserv::{serve, Client, ClientError, Pushed, Reply, Request, ServerHandle, ServerOptions};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use telemetry::Registry;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ruleserv-test-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn start(tag: &str, opts: ServerOptions) -> (ServerHandle, Arc<Registry>) {
    start_with_actions(tag, opts, ActionRegistry::new())
}

fn start_with_actions(
    tag: &str,
    opts: ServerOptions,
    actions: ActionRegistry,
) -> (ServerHandle, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let engine = DurableRuleEngine::open_with_metrics(
        tempdir(tag),
        FunctionRegistry::default(),
        actions,
        Options {
            sync: SyncPolicy::EveryN(64),
            snapshot_every: None,
        },
        Arc::clone(&registry),
    )
    .unwrap();
    let server = serve("127.0.0.1:0", engine, opts).unwrap();
    (server, registry)
}

fn emp_schema() -> Schema {
    Schema::builder("emp")
        .attr("name", AttrType::Str)
        .attr("salary", AttrType::Int)
        .build()
}

#[test]
fn every_opcode_round_trips() {
    let (server, registry) = start("opcodes", ServerOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();

    client.ping().unwrap();
    client.create_relation(emp_schema()).unwrap();
    let rule = client
        .add_rule(RuleSpec {
            name: "rich".into(),
            condition: "emp.salary > 1000".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Log("rich emp".into()),
        })
        .unwrap();

    let ack = client
        .insert("emp", vec![Value::Str("ann".into()), Value::Int(2000)])
        .unwrap();
    assert_eq!(ack.fired.len(), 1, "salary 2000 must fire the rule");
    assert!(ack.seq > 0);

    let quiet = client
        .insert("emp", vec![Value::Str("bob".into()), Value::Int(10)])
        .unwrap();
    assert!(quiet.fired.is_empty());
    assert!(quiet.seq > ack.seq, "WAL sequence must advance");

    let upd = client
        .update(
            "emp",
            TupleId(1),
            vec![Value::Str("bob".into()), Value::Int(5000)],
        )
        .unwrap();
    assert_eq!(upd.fired.len(), 1, "raise past 1000 must fire");

    client.delete("emp", TupleId(0)).unwrap();
    let batch = client
        .insert_batch(
            "emp",
            vec![
                vec![Value::Str("cho".into()), Value::Int(1500)],
                vec![Value::Str("dia".into()), Value::Int(999)],
            ],
        )
        .unwrap();
    assert_eq!(batch.fired.len(), 1, "one of the batch rows fires");

    let health = client.health().unwrap();
    assert!(health.contains("up 1"), "health text was: {health}");
    client.sync().unwrap();

    client.remove_rule(rule).unwrap();
    let silent = client
        .insert("emp", vec![Value::Str("eve".into()), Value::Int(9999)])
        .unwrap();
    assert!(silent.fired.is_empty(), "removed rule must not fire");

    client.drop_relation("emp").unwrap();
    let err = client
        .insert("emp", vec![Value::Str("fox".into()), Value::Int(1)])
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Server(_)),
        "insert into dropped relation must be a server error, got {err}"
    );

    // Per-op request counters were minted and bumped.
    assert!(registry.counter_family_total("server_requests_total") > 10);
    server.shutdown().unwrap();
}

#[test]
fn domain_errors_do_not_poison_the_connection() {
    let (server, _) = start("errors", ServerOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let err = client.insert("ghost", vec![Value::Int(1)]).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)));
    // The session must still be usable after a rejected op.
    client.ping().unwrap();
    client.create_relation(emp_schema()).unwrap();
    let err = client.insert("emp", vec![Value::Int(1)]).unwrap_err();
    assert!(
        matches!(err, ClientError::Server(_)),
        "arity mismatch rejects"
    );
    client
        .insert("emp", vec![Value::Str("ok".into()), Value::Int(1)])
        .unwrap();
    server.shutdown().unwrap();
}

#[test]
fn pipelined_replies_arrive_in_request_order() {
    let (server, _) = start("pipeline", ServerOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();

    // 200 inserts in flight before reading anything; WAL sequence in
    // each Fire reply must be strictly increasing if replies come back
    // in request order.
    for i in 0..200 {
        client
            .send(&Request::Apply(durable::Record::Insert {
                relation: "t".into(),
                values: vec![Value::Int(i)],
            }))
            .unwrap();
    }
    let mut last_seq = 0;
    for i in 0..200 {
        match client.recv_reply().unwrap() {
            Reply::Fire(s) => {
                assert!(
                    s.seq > last_seq,
                    "reply {i} out of order: {} <= {last_seq}",
                    s.seq
                );
                last_seq = s.seq;
            }
            other => panic!("reply {i}: expected fire, got {}", other.kind()),
        }
    }
    server.shutdown().unwrap();
}

#[test]
fn a_saturated_engine_answers_busy_not_silence() {
    // A deliberately slow rule action stalls the engine thread; with a
    // queue bound of 1 the pipelined follow-ups must bounce with Busy
    // (in order!) rather than queue without bound or hang.
    let mut actions = ActionRegistry::new();
    actions.register("slow", |_ctx| {
        std::thread::sleep(Duration::from_millis(400))
    });
    let opts = ServerOptions {
        queue_cap: 1,
        ..ServerOptions::default()
    };
    let (server, registry) = start_with_actions("busy", opts, actions);
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();
    client
        .add_rule(RuleSpec {
            name: "stall".into(),
            condition: "t.v >= 0".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Named("slow".into()),
        })
        .unwrap();

    for i in 0..32 {
        client
            .send(&Request::Apply(durable::Record::Insert {
                relation: "t".into(),
                values: vec![Value::Int(i)],
            }))
            .unwrap();
    }
    // Ping is answered by the session thread, never queued behind the
    // engine: it must come back (in order) even while the engine stalls.
    client.send(&Request::Ping).unwrap();

    let mut fires = 0;
    let mut busy = 0;
    for _ in 0..32 {
        match client.recv_reply().unwrap() {
            Reply::Fire(_) => fires += 1,
            Reply::Busy => busy += 1,
            other => panic!("expected fire or busy, got {}", other.kind()),
        }
    }
    assert!(matches!(client.recv_reply().unwrap(), Reply::Pong));
    assert!(fires >= 1, "at least the first insert is applied");
    assert!(busy >= 1, "a 1-deep queue under a 400ms stall must bounce");
    assert_eq!(fires + busy, 32);
    assert_eq!(
        registry.counter_value("server_busy_total"),
        Some(busy as u64)
    );
    server.shutdown().unwrap();
}

#[test]
fn subscriptions_stream_rule_firings_to_other_connections() {
    let (server, _) = start("subs", ServerOptions::default());
    let mut writer = Client::connect(server.addr()).unwrap();
    let mut watcher = Client::connect(server.addr()).unwrap();

    writer.create_relation(emp_schema()).unwrap();
    let rule = writer
        .add_rule(RuleSpec {
            name: "watchme".into(),
            condition: "emp.salary > 100".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Log("hit".into()),
        })
        .unwrap();
    watcher.subscribe().unwrap();

    writer
        .insert("emp", vec![Value::Str("ann".into()), Value::Int(500)])
        .unwrap();
    let Some(Pushed::Event(event)) = watcher.wait_event(Duration::from_secs(5)).unwrap() else {
        panic!("the firing must be pushed to the subscriber");
    };
    assert_eq!(event.rule_id, rule);
    assert_eq!(event.rule, "watchme");

    // Below threshold: no firing, no event.
    writer
        .insert("emp", vec![Value::Str("bob".into()), Value::Int(50)])
        .unwrap();
    assert!(watcher
        .wait_event(Duration::from_millis(300))
        .unwrap()
        .is_none());

    watcher.unsubscribe().unwrap();
    writer
        .insert("emp", vec![Value::Str("cho".into()), Value::Int(900)])
        .unwrap();
    assert!(
        watcher
            .wait_event(Duration::from_millis(300))
            .unwrap()
            .is_none(),
        "no events after unsubscribe"
    );
    assert_eq!(watcher.lagged(), 0);
    server.shutdown().unwrap();
}

#[test]
fn join_rules_fire_over_the_wire_with_bound_tuples() {
    let (server, _) = start("joins", ServerOptions::default());
    let mut writer = Client::connect(server.addr()).unwrap();
    let mut watcher = Client::connect(server.addr()).unwrap();

    writer
        .create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("dno", AttrType::Int)
                .build(),
        )
        .unwrap();
    writer
        .create_relation(
            Schema::builder("dept")
                .attr("dno", AttrType::Int)
                .attr("floor", AttrType::Int)
                .build(),
        )
        .unwrap();
    let rule = writer
        .add_rule(RuleSpec {
            name: "same-dept".into(),
            condition: "emp.dno = dept.dno and dept.floor = 1".into(),
            mask: EventMask::ALL,
            priority: 0,
            action: ActionSpec::Log("pair".into()),
        })
        .unwrap();
    watcher.subscribe().unwrap();

    // First premise alone: partial match, no firing, no event.
    writer
        .insert("dept", vec![Value::Int(4), Value::Int(1)])
        .unwrap();
    assert!(watcher
        .wait_event(Duration::from_millis(300))
        .unwrap()
        .is_none());

    // Completing the join fires, and the pushed event carries every
    // bound tuple in premise order with ids and values.
    let ack = writer
        .insert("emp", vec![Value::Str("al".into()), Value::Int(4)])
        .unwrap();
    assert_eq!(ack.fired.len(), 1);
    let Some(Pushed::Event(event)) = watcher.wait_event(Duration::from_secs(5)).unwrap() else {
        panic!("join firing must be pushed");
    };
    assert_eq!(event.rule_id, rule);
    assert_eq!(event.rule, "same-dept");
    assert_eq!(event.bindings.len(), 2, "bindings: {:?}", event.bindings);
    let dept = &event.bindings[0];
    assert_eq!(dept.relation, "dept");
    assert_eq!(dept.tuple_id, 0);
    assert_eq!(dept.values, vec![Value::Int(4), Value::Int(1)]);
    let emp = &event.bindings[1];
    assert_eq!(emp.relation, "emp");
    assert_eq!(emp.tuple_id, 0);
    assert_eq!(emp.values, vec![Value::Str("al".into()), Value::Int(4)]);

    // Deleting a premise tuple retracts the match: re-inserting the
    // same emp completes exactly one fresh match (no double-fire from
    // a stale partial).
    writer.delete("emp", TupleId(0)).unwrap();
    let again = writer
        .insert("emp", vec![Value::Str("al".into()), Value::Int(4)])
        .unwrap();
    assert_eq!(again.fired.len(), 1, "one firing after delete+reinsert");
    let Some(Pushed::Event(event)) = watcher.wait_event(Duration::from_secs(5)).unwrap() else {
        panic!("re-completed join must be pushed");
    };
    assert_eq!(event.bindings.len(), 2);
    server.shutdown().unwrap();
}

#[test]
fn shutdown_returns_the_engine_with_state_intact() {
    let (server, _) = start("handback", ServerOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client.create_relation(emp_schema()).unwrap();
    client
        .insert("emp", vec![Value::Str("ann".into()), Value::Int(1)])
        .unwrap();
    let engine = server.shutdown().expect("engine handed back");
    let relation = engine
        .engine()
        .db()
        .catalog()
        .relation("emp")
        .expect("relation survives");
    assert_eq!(relation.len(), 1);
}

/// Shutdown with three sessions open: one idle, one holding half a
/// frame, and one whose client pipelines inserts without pause while
/// `shutdown` runs. Shutdown closes each session's read half rather
/// than waiting for it to poll: it returns promptly, the busy client's
/// replies arrive in request order until its connection ends, and the
/// engine handed back holds exactly the inserts that were acknowledged.
#[test]
fn shutdown_closes_idle_half_framed_and_busy_sessions() {
    let (server, _) = start("closing", ServerOptions::default());
    let mut idle = Client::connect(server.addr()).unwrap();
    idle.create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();
    let frame = |request: Request| {
        let (opcode, payload) = request.encode();
        encode_frame(opcode, &payload)
    };
    let mut half = TcpStream::connect(server.addr()).unwrap();
    let ping = frame(Request::Ping);
    half.write_all(&ping[..ping.len() / 2]).unwrap();

    let busy = TcpStream::connect(server.addr()).unwrap();
    let mut sender = busy.try_clone().unwrap();
    let sending = std::thread::spawn(move || {
        let mut sent = 0;
        while sent < 1 << 20 {
            let insert = Request::Apply(Record::Insert {
                relation: "t".into(),
                values: vec![Value::Int(sent)],
            });
            if sender.write_all(&frame(insert)).is_err() {
                break; // the server closed the connection
            }
            sent += 1;
        }
        sent
    });
    let (flowing, answered) = mpsc::sync_channel(1);
    let receiving = std::thread::spawn(move || {
        let mut reader = std::io::BufReader::new(busy);
        let mut replies = Vec::new();
        while let Ok(Some((opcode, payload))) = read_frame(&mut reader) {
            replies.push(Reply::decode(opcode, &payload).expect("a reply"));
            if replies.len() == 200 {
                let _ = flowing.send(());
            }
        }
        replies
    });
    answered
        .recv_timeout(Duration::from_secs(10))
        .expect("the busy client is answered");

    let stopping = Instant::now();
    let engine = within_ten_seconds("shutdown", move || server.shutdown())
        .expect("the engine is handed back");
    eprintln!("shutdown took {:?}", stopping.elapsed());
    let replies = within_ten_seconds("the busy client's replies", move || receiving.join())
        .expect("the reader thread");
    let sent = sending.join().expect("the sender thread");

    // Reply `i` answers insert `i`: a `Fire` acknowledges it, a `Busy`
    // refused it, and nothing else may arrive.
    assert!(
        replies.len() as i64 <= sent,
        "{} replies to {sent} requests",
        replies.len()
    );
    let mut acked = Vec::new();
    let mut last_seq = 0;
    for (v, reply) in replies.iter().enumerate() {
        match reply {
            Reply::Fire(ack) => {
                assert!(ack.seq > last_seq, "reply {v} out of order");
                last_seq = ack.seq;
                acked.push(v as i64);
            }
            Reply::Busy => {}
            other => panic!("reply {v}: {other:?}"),
        }
    }
    assert!(!acked.is_empty(), "no insert was acknowledged");
    let rows = engine.engine().db().catalog().relation("t").expect("t");
    let mut held: Vec<i64> = rows
        .iter()
        .map(|(_, tuple)| match tuple.values() {
            [Value::Int(v)] => *v,
            other => panic!("a row no client wrote: {other:?}"),
        })
        .collect();
    held.sort_unstable();
    assert_eq!(
        held, acked,
        "the engine holds exactly the acknowledged inserts"
    );

    // The other two sessions were closed under their clients.
    assert!(idle.ping().is_err(), "the idle session is still served");
    half.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    assert!(
        matches!(half.read(&mut byte), Ok(0) | Err(_)),
        "the half-framed session is still open"
    );
}

/// Waits for `wait` on another thread and panics if it has not returned
/// within ten seconds, so a hang fails the test instead of stalling it.
fn within_ten_seconds<T: Send + 'static>(
    what: &str,
    wait: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, outcome) = mpsc::sync_channel(1);
    std::thread::spawn(move || done.send(wait()));
    match outcome.recv_timeout(Duration::from_secs(10)) {
        Ok(outcome) => outcome,
        Err(_) => panic!("{what}: still waiting after ten seconds"),
    }
}

#[test]
fn concurrent_clients_see_serial_wal_order() {
    let (server, _) = start("concurrent", ServerOptions::default());
    let mut setup = Client::connect(server.addr()).unwrap();
    setup
        .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();

    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut seqs = Vec::new();
                for i in 0..50 {
                    let ack = client.insert("t", vec![Value::Int(c * 1000 + i)]).unwrap();
                    seqs.push(ack.seq);
                }
                seqs
            })
        })
        .collect();

    let mut all: Vec<u64> = Vec::new();
    for handle in handles {
        let seqs = handle.join().unwrap();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "each connection's seqs must be monotonic"
        );
        all.extend(seqs);
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 400, "every op got a distinct WAL sequence");
    server.shutdown().unwrap();
}

#[test]
fn trace_ids_round_trip_into_server_side_spans_and_slow_ops() {
    let engine = DurableRuleEngine::open_with_metrics(
        tempdir("trace-ids"),
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options {
            sync: SyncPolicy::EveryN(64),
            snapshot_every: None,
        },
        telemetry::Telemetry::new(Arc::new(Registry::new()))
            .with_tracer(telemetry::Tracer::new(4096))
            .with_profiling(),
    )
    .unwrap();
    // Zero threshold: every request lands in the slow-op ring.
    engine.telemetry().profiler().set_slow_threshold_nanos(0);
    let server = serve("127.0.0.1:0", engine, ServerOptions::default()).unwrap();

    // `Client` writes untraced frames; a traced one is the same frame
    // with an 8-byte id suffix, written here by hand.
    let mut traced = std::net::TcpStream::connect(server.addr()).unwrap();
    for (id, request, kind) in [
        (
            0xabc0,
            Request::Apply(durable::Record::CreateRelation {
                schema: emp_schema(),
            }),
            "unit",
        ),
        (
            0xabc1,
            Request::Apply(durable::Record::Insert {
                relation: "emp".into(),
                values: vec![Value::Str("ann".into()), Value::Int(2000)],
            }),
            "fire",
        ),
    ] {
        request.write_to_traced(&mut traced, Some(id)).unwrap();
        let (opcode, payload) = read_frame(&mut traced).unwrap().unwrap();
        assert_eq!(Reply::decode(opcode, &payload).unwrap().kind(), kind);
    }
    // The same server answers the untraced byte format.
    Client::connect(server.addr()).unwrap().health().unwrap();

    let engine = server.shutdown().expect("engine handed back");
    let events = engine.telemetry().tracer().events();
    let requests: Vec<_> = events
        .iter()
        .filter(|e| e.name == "server_request")
        .collect();
    assert_eq!(requests.len(), 3, "each reply flushed leaves one event");
    let label = |e: &telemetry::TraceEvent, key: &str| match e.args.get(key)? {
        telemetry::ArgValue::Label(label) => Some(label),
        telemetry::ArgValue::Num(_) => None,
    };
    let dur = |e: &telemetry::TraceEvent| e.dur;
    let registry = engine.telemetry().registry();
    for request in &requests {
        // The children tile the request: the server's own stages and
        // one `engine` child for the rest, end to end from its start.
        let children: Vec<_> = events.iter().filter(|e| e.parent == request.span).collect();
        let mut at = request.nanos;
        for child in &children {
            assert!(
                matches!(
                    child.name,
                    "decode" | "queue" | "engine" | "group_wait" | "handoff" | "write"
                ),
                "unexpected child {}",
                child.name
            );
            assert_eq!(child.nanos, at);
            at += dur(child);
        }
        assert_eq!(
            at - request.nanos,
            dur(request),
            "children sum to the request exactly"
        );
        assert!(children.iter().any(|c| c.name == "engine"));
        // Its duration is what `server_request_nanos` observed for the
        // op's one request.
        let op = label(request, "op").expect("op arg");
        let name = format!("server_request_nanos{{op=\"{op}\"}}");
        assert_eq!(
            registry.histogram_totals(&name),
            Some((1, dur(request))),
            "{op}"
        );
    }
    let traced = |id: u64| requests.iter().find(|e| e.args.num("trace") == Some(id));
    let create = traced(0xabc0).expect("create_relation trace id missing");
    let insert = traced(0xabc1).expect("insert trace id missing");
    assert_eq!(label(create, "op"), Some("create_relation"));
    assert_eq!(label(insert, "op"), Some("insert"));
    let untraced_health = requests
        .iter()
        .any(|e| label(e, "op") == Some("health") && e.args.get("trace").is_none());
    assert!(
        untraced_health,
        "an untraced request leaves a trace-less event"
    );

    // The slow-op ring captured the traced insert with its id, and the
    // same record the trace shows.
    let slow = engine.telemetry().profiler().slow_ops();
    assert!(
        slow.iter().any(|s| s.trace_id == Some(0xabc1)
            && s.op == "insert"
            && s.record.total() == dur(insert)),
        "slow-op ring must hold the traced insert, got {slow:?}"
    );
}

#[test]
fn a_hostile_schema_arity_closes_one_connection_not_the_daemon() {
    use std::io::{Read, Write};
    let (server, _registry) = start("hostile-arity", ServerOptions::default());
    let mut bystander = Client::connect(server.addr()).unwrap();
    bystander.create_relation(emp_schema()).unwrap();

    // `CreateRelation` tag, relation "r", arity u32::MAX: 19 bytes that
    // used to make a session reader reserve ~100 GB and abort the
    // process, WAL and every other session included.
    let mut payload = relation::codec::Writer::new();
    payload.u8(0);
    payload.str("r");
    payload.u32(u32::MAX);
    let frame = ruleserv::proto::encode_frame(ruleserv::proto::OP_APPLY, &payload.into_bytes());
    assert_eq!(frame.len(), 19);
    let mut hostile = std::net::TcpStream::connect(server.addr()).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    hostile.write_all(&frame).unwrap();
    // The frame is corrupt, so the session ends: EOF, with no reply.
    let mut rest = Vec::new();
    hostile.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "a corrupt frame is answered by closing");

    // Everyone else is still served, on old connections and new ones.
    bystander.ping().unwrap();
    let ack = bystander
        .insert("emp", vec![Value::Str("ann".into()), Value::Int(1)])
        .unwrap();
    assert!(ack.seq > 0);
    Client::connect(server.addr()).unwrap().ping().unwrap();
    let engine = server.shutdown().expect("engine handed back");
    assert_eq!(
        engine
            .engine()
            .db()
            .catalog()
            .relation("emp")
            .unwrap()
            .len(),
        1
    );
}

/// A rule on `relation` named `name` whose firing only logs.
fn logging_rule(name: String, relation: &str) -> RuleSpec {
    RuleSpec {
        name,
        condition: format!("{relation}.v >= 0"),
        mask: EventMask::INSERT_UPDATE,
        priority: 0,
        action: ActionSpec::Log("hit".into()),
    }
}

/// Events pushed to `subscriber` until two reads in a row see nothing
/// at all (`Lagged` notices are counted by the client).
fn drain(subscriber: &mut Client) -> u64 {
    let (mut events, mut quiet) = (0, 0);
    while quiet < 2 {
        match subscriber.wait_event(Duration::from_millis(300)).unwrap() {
            Some(Pushed::Event(_)) => (events, quiet) = (events + 1, 0),
            Some(Pushed::Lagged(_)) => quiet = 0,
            None => quiet += 1,
        }
    }
    events
}

/// Events pushed to `subscriber` up to and including the firing of the
/// rule named `last`.
fn events_through_last(subscriber: &mut Client) -> u64 {
    let mut events = 0;
    loop {
        let pushed = subscriber.wait_event(Duration::from_secs(5)).unwrap();
        if let Pushed::Event(event) = pushed.expect("the last event never came") {
            events += 1;
            if event.rule == "last" {
                return events;
            }
        }
    }
}

/// A flooded subscriber with `RULES` 2 KiB-named rules on `f` and one
/// rule `last` on `g`: the server, its registry, a writer, and a
/// subscriber whose pipe holds two slots.
fn flood_fixture(tag: &str, rules: usize) -> (ServerHandle, Arc<Registry>, Client, Client) {
    let opts = ServerOptions {
        pipeline_cap: 2,
        ..ServerOptions::default()
    };
    let (server, registry) = start(tag, opts);
    let mut writer = Client::connect(server.addr()).unwrap();
    let subscriber = Client::connect(server.addr()).unwrap();
    for name in ["f", "g"] {
        let schema = Schema::builder(name).attr("v", AttrType::Int).build();
        writer.create_relation(schema).unwrap();
    }
    // Long names make every event a 2 KiB frame: a burst outruns the
    // subscriber's writer thread, and the flood outgrows its socket.
    for r in 0..rules {
        let name = format!("flood{r}-{}", "x".repeat(2 << 10));
        writer.add_rule(logging_rule(name, "f")).unwrap();
    }
    writer.add_rule(logging_rule("last".into(), "g")).unwrap();
    (server, registry, writer, subscriber)
}

/// One subscriber that stops reading, beside a writer that floods it
/// with firings: every write is answered, and once the subscriber
/// drains and one more event fits, every firing has reached it as an
/// event or inside a `Lagged` count — and the counts are exactly the
/// server's drops.
#[test]
fn a_subscription_flood_is_counted_exactly() {
    const RULES: usize = 16;
    const WRITES: usize = 200;
    let (server, registry, mut writer, mut subscriber) = flood_fixture("flood", RULES);
    subscriber.subscribe().unwrap();

    let mut rng = StdRng::seed_from_u64(20);
    let mut fired = 0;
    for _ in 0..WRITES {
        let ack = writer
            .insert("f", vec![Value::Int(rng.gen_range(0..1000))])
            .unwrap();
        fired += ack.fired.len() as u64;
    }
    assert_eq!(fired, (WRITES * RULES) as u64);

    // Drain what reached the subscriber, until two reads in a row see
    // nothing at all; then one more event fits, behind the `Lagged`
    // frame that announces every drop since the last event that fit.
    let mut events = drain(&mut subscriber);
    fired += writer.insert("g", vec![Value::Int(0)]).unwrap().fired.len() as u64;
    events += events_through_last(&mut subscriber);
    assert!(
        subscriber.lagged() > 0,
        "the flood never overflowed two slots"
    );
    assert_eq!(events + subscriber.lagged(), fired);
    assert_eq!(
        registry.counter_value("server_events_dropped_total"),
        Some(subscriber.lagged())
    );
    server.shutdown().unwrap();
}

/// A flooded subscriber that subscribes again before it has read a
/// `Lagged` notice: the second subscribe keeps the count of what the
/// first one missed, so the next notice still announces every drop.
#[test]
fn a_second_subscribe_keeps_the_pending_drop_count() {
    const RULES: usize = 16;
    const WRITES: usize = 100;
    let (server, registry, mut writer, mut subscriber) = flood_fixture("resubscribe", RULES);
    subscriber.subscribe().unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let mut fired = 0;
    for _ in 0..WRITES {
        let ack = writer
            .insert("f", vec![Value::Int(rng.gen_range(0..1000))])
            .unwrap();
        fired += ack.fired.len() as u64;
    }
    // The reply to the second subscribe queues behind the pushed
    // frames, which the call reads on its way to it.
    subscriber.subscribe().unwrap();
    let mut events = drain(&mut subscriber);
    let dropped = registry.counter_value("server_events_dropped_total");
    assert!(dropped > Some(subscriber.lagged()), "no drop was pending");
    fired += writer.insert("g", vec![Value::Int(0)]).unwrap().fired.len() as u64;
    events += events_through_last(&mut subscriber);
    assert_eq!(events + subscriber.lagged(), fired);
    assert_eq!(
        registry.counter_value("server_events_dropped_total"),
        Some(subscriber.lagged())
    );
    server.shutdown().unwrap();
}

/// A client that keeps pipelining requests but stops reading their
/// replies: once its socket has been full for `write_timeout`, the
/// server drops that connection, while a bystander on another one is
/// served before and after, and the server still shuts down. The
/// client reads again only a second (five write timeouts) later, by
/// which time the server has given up on it.
#[test]
fn a_client_that_keeps_sending_but_stops_reading_is_dropped_alone() {
    let opts = ServerOptions {
        pipeline_cap: 8,
        write_timeout: Duration::from_millis(200),
        ..ServerOptions::default()
    };
    let (server, _) = start("stall", opts);
    let mut bystander = Client::connect(server.addr()).unwrap();
    for name in ["w", "q"] {
        let schema = Schema::builder(name).attr("v", AttrType::Int).build();
        bystander.create_relation(schema).unwrap();
    }
    // Every insert into `w` is acknowledged with this rule's name, so
    // each of its replies is a 16 KiB frame.
    let name = "x".repeat(16 << 10);
    bystander.add_rule(logging_rule(name, "w")).unwrap();

    let mut rng = StdRng::seed_from_u64(21);
    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut sent = 0;
    while sent < 4096 {
        let insert = Request::Apply(Record::Insert {
            relation: "w".into(),
            values: vec![Value::Int(rng.gen_range(0..1000))],
        });
        let (opcode, payload) = insert.encode();
        if stalled.write_all(&encode_frame(opcode, &payload)).is_err() {
            break; // the server stopped reading it
        }
        sent += 1;
    }
    let mut serve = |base: i64| {
        for v in base..base + 20 {
            let ack = bystander.insert("q", vec![Value::Int(v)]).unwrap();
            assert!(ack.seq > 0);
        }
        bystander.ping().unwrap();
    };
    serve(0);
    // Well past the write timeout: the server has given up on it.
    std::thread::sleep(Duration::from_secs(1));
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut replies = 0;
    let mut reader = std::io::BufReader::new(&stalled);
    let end = loop {
        match read_frame(&mut reader) {
            Ok(Some(_)) => replies += 1,
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    assert!(
        !matches!(&end, Some(ruleserv::ProtoError::Io(e)) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut),
        "the stalled connection is still open after {replies} replies"
    );
    assert!(
        replies < sent,
        "all {sent} replies arrived: nothing stalled"
    );
    serve(20);

    let (done, handed_back) = mpsc::sync_channel(1);
    std::thread::spawn(move || done.send(server.shutdown().is_some()));
    let engine = handed_back.recv_timeout(Duration::from_secs(10));
    assert_eq!(engine, Ok(true), "shutdown hands the engine back");
}

/// A subscriber that stops reading *and* sending: once its socket has
/// been full for `write_timeout`, its session ends and the engine lets
/// go of it, so later firings drop no more events. The writer on
/// another connection is answered throughout, the subscriber's socket
/// ends after what was buffered, and the server still shuts down.
#[test]
fn a_subscriber_that_stops_reading_and_sending_is_let_go() {
    const RULES: usize = 16;
    let opts = ServerOptions {
        pipeline_cap: 2,
        write_timeout: Duration::from_millis(200),
        ..ServerOptions::default()
    };
    let (server, registry) = start("silent", opts);
    let mut writer = Client::connect(server.addr()).unwrap();
    let schema = Schema::builder("s").attr("v", AttrType::Int).build();
    writer.create_relation(schema).unwrap();
    // Long names make every event a 16 KiB frame.
    for r in 0..RULES {
        let name = format!("s{r}-{}", "x".repeat(16 << 10));
        writer.add_rule(logging_rule(name, "s")).unwrap();
    }
    // Subscribes, reads that reply, then neither reads nor sends again.
    let mut silent = TcpStream::connect(server.addr()).unwrap();
    let (opcode, payload) = Request::Subscribe.encode();
    silent.write_all(&encode_frame(opcode, &payload)).unwrap();
    let mut reader = std::io::BufReader::new(&silent);
    let (opcode, payload) = read_frame(&mut reader).unwrap().unwrap();
    assert_eq!(Reply::decode(opcode, &payload).unwrap(), Reply::Unit);
    let counters = || {
        let counter = |name| registry.counter_value(name).unwrap_or(0);
        (
            counter("server_events_dropped_total"),
            counter("server_bytes_total{dir=\"out\"}"),
        )
    };

    // Every write fires 16 events of 16 KiB each into a 2-slot pipe.
    // While the subscriber is held, each write drops some of them, or
    // they all fit because its writer took at least 14 — each counted
    // in the bytes out before its socket write. A write that drops
    // nothing and sends out less than one event beside its own reply
    // says the subscriber was let go.
    let mut rng = StdRng::seed_from_u64(22);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut writes = 0;
    loop {
        let (dropped, out) = counters();
        let ack = writer
            .insert("s", vec![Value::Int(rng.gen_range(0..1000))])
            .unwrap();
        assert_eq!(ack.fired.len(), RULES);
        writes += 1;
        let (_, payload) = Reply::Fire(ack).encode();
        let replied = 9 + payload.len() as u64;
        let now = counters();
        if now.0 == dropped && now.1 - out - replied < 16 << 10 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "after {writes} writes the silent subscriber is still held: {} events dropped",
            now.0
        );
    }
    assert!(counters().0 > 0, "the subscriber's socket never filled");
    writer.ping().unwrap();

    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut frames = 0;
    let end = loop {
        match read_frame(&mut reader) {
            Ok(Some(_)) => frames += 1,
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    assert!(
        !matches!(&end, Some(ruleserv::ProtoError::Io(e)) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut),
        "the silent connection is still open after {frames} frames"
    );

    let (done, handed_back) = mpsc::sync_channel(1);
    std::thread::spawn(move || done.send(server.shutdown().is_some()));
    let engine = handed_back.recv_timeout(Duration::from_secs(10));
    assert_eq!(engine, Ok(true), "shutdown hands the engine back");
}
