//! End-to-end wire-protocol tests: an in-process server with real TCP
//! clients, one of each opcode, pipelining, backpressure, and
//! subscription streams.

use durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, TupleId, Value};
use rules::EventMask;
use ruleserv::{serve, Client, ClientError, Reply, Request, ServerHandle, ServerOptions};
use std::sync::Arc;
use std::time::Duration;
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
    assert_eq!(client.in_flight(), 0);
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
    let event = watcher
        .wait_event(Duration::from_secs(5))
        .unwrap()
        .expect("the firing must be pushed to the subscriber");
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
    let event = watcher
        .wait_event(Duration::from_secs(5))
        .unwrap()
        .expect("join firing must be pushed");
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
    let event = watcher
        .wait_event(Duration::from_secs(5))
        .unwrap()
        .expect("re-completed join must be pushed");
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
    let server = serve(
        "127.0.0.1:0",
        engine,
        ServerOptions {
            // Zero threshold: every request lands in the slow-op ring.
            slow_op_threshold: Some(Duration::ZERO),
            ..ServerOptions::default()
        },
    )
    .unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    client.enable_trace_ids(0xabc0);
    client.create_relation(emp_schema()).unwrap();
    assert_eq!(client.last_trace_id(), Some(0xabc0));
    client
        .insert("emp", vec![Value::Str("ann".into()), Value::Int(2000)])
        .unwrap();
    assert_eq!(client.last_trace_id(), Some(0xabc1));
    // The same connection can drop back to the untraced byte format.
    client.disable_trace_ids();
    client.health().unwrap();

    let engine = server.shutdown().expect("engine handed back");
    let events = engine.telemetry().tracer().events();
    let begins: Vec<_> = events
        .iter()
        .filter(|e| e.name == "server_request" && matches!(e.kind, telemetry::SpanEventKind::Begin))
        .collect();
    assert!(
        begins.len() >= 3,
        "each engine-served request opens a span, got {}",
        begins.len()
    );
    let trace_args: Vec<&str> = begins
        .iter()
        .flat_map(|e| e.args.iter())
        .filter(|(k, _)| *k == "trace")
        .map(|(_, v)| v.as_str())
        .collect();
    assert!(
        trace_args.contains(&"0xabc0"),
        "create_relation trace id missing"
    );
    assert!(trace_args.contains(&"0xabc1"), "insert trace id missing");
    assert!(
        begins
            .iter()
            .any(|e| e.args.contains(&("op", "insert".to_string()))),
        "spans carry the op label"
    );
    let untraced_health = begins.iter().any(|e| {
        e.args.contains(&("op", "health".to_string())) && e.args.iter().all(|(k, _)| *k != "trace")
    });
    assert!(
        untraced_health,
        "untraced request must open a trace-less span"
    );

    // The slow-op ring captured the traced insert with its id.
    let slow = engine.telemetry().profiler().slow_ops();
    assert!(
        slow.iter()
            .any(|s| s.trace_id == Some(0xabc1) && s.op == "insert"),
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
