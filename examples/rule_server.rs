//! One-of-everything tour of the rule server's wire protocol.
//!
//! ```text
//! cargo run --release --example rule_server                   # in-process server
//! cargo run --release --example rule_server -- --addr HOST:PORT   # running daemon
//! ```
//!
//! Exercises every request opcode exactly as a real client would —
//! ping, DDL, all four mutations, rule add/remove, subscribe/event/
//! unsubscribe, health, sync — printing one `ok <opcode>` line per
//! step. Before any of it, one hostile frame: a `CreateRelation` whose
//! arity claims four billion attributes. The server must close that
//! connection and keep serving, so everything after it runs on fresh
//! connections and fails if the daemon died. CI runs this against a
//! freshly started daemon as the protocol smoke test.

use durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, TupleId, Value};
use rules::EventMask;
use ruleserv::proto::{encode_frame, OP_APPLY};
use ruleserv::{serve, Client, Pushed, ServerOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn main() {
    if let Err(e) = run() {
        eprintln!("rule_server example: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let addr = match (args.next().as_deref(), args.next()) {
        (Some("--addr"), Some(addr)) => Some(addr),
        (None, _) => None,
        _ => {
            eprintln!("usage: rule_server [--addr HOST:PORT]");
            std::process::exit(2);
        }
    };

    // No daemon given: serve in-process over a throwaway directory.
    let mut local = None;
    let target = match addr {
        Some(addr) => addr.parse()?,
        None => {
            let dir = std::env::temp_dir().join(format!("rule-server-ex-{}", std::process::id()));
            if dir.exists() {
                std::fs::remove_dir_all(&dir)?;
            }
            let engine = DurableRuleEngine::open(
                &dir,
                FunctionRegistry::default(),
                ActionRegistry::new(),
                Options::default(),
            )?;
            let server = serve("127.0.0.1:0", engine, ServerOptions::default())?;
            let addr = server.addr();
            local = Some((server, dir));
            addr
        }
    };

    // `CreateRelation` tag, relation "r", arity u32::MAX — 19 bytes.
    let mut payload = relation::codec::Writer::new();
    payload.u8(0);
    payload.str("r");
    payload.u32(u32::MAX);
    let mut hostile = TcpStream::connect(target)?;
    hostile.set_read_timeout(Some(Duration::from_secs(5)))?;
    hostile.write_all(&encode_frame(OP_APPLY, &payload.into_bytes()))?;
    let mut answer = Vec::new();
    hostile.read_to_end(&mut answer)?;
    if !answer.is_empty() {
        return Err("the hostile frame was answered instead of closing its connection".into());
    }
    println!("ok hostile frame (connection closed)");

    let mut client = Client::connect(target)?;
    let mut watcher = Client::connect(target)?;

    client.ping()?;
    println!("ok ping");

    client.create_relation(
        Schema::builder("ex_emp")
            .attr("name", AttrType::Str)
            .attr("salary", AttrType::Int)
            .build(),
    )?;
    println!("ok create_relation");

    let rule = client.add_rule(RuleSpec {
        name: "ex_rich".into(),
        condition: "ex_emp.salary > 1000".into(),
        mask: EventMask::INSERT_UPDATE,
        priority: 0,
        action: ActionSpec::Log("well paid".into()),
    })?;
    println!("ok add_rule (rule {rule})");

    watcher.subscribe()?;
    println!("ok subscribe");

    let ack = client.insert("ex_emp", vec![Value::Str("ann".into()), Value::Int(2000)])?;
    println!(
        "ok insert (seq {}, fired {:?})",
        ack.seq,
        ack.fired
            .iter()
            .map(|(_, name)| name.as_str())
            .collect::<Vec<_>>()
    );

    let Some(Pushed::Event(event)) = watcher.wait_event(Duration::from_secs(5))? else {
        return Err("no event pushed to the subscriber".into());
    };
    println!("ok event (rule {} at seq {})", event.rule, event.seq);

    let upd = client.update(
        "ex_emp",
        TupleId(0),
        vec![Value::Str("ann".into()), Value::Int(500)],
    )?;
    println!("ok update (seq {})", upd.seq);

    let batch = client.insert_batch(
        "ex_emp",
        vec![
            vec![Value::Str("bob".into()), Value::Int(1500)],
            vec![Value::Str("cho".into()), Value::Int(700)],
        ],
    )?;
    println!(
        "ok insert_batch (seq {}, {} firing(s))",
        batch.seq,
        batch.fired.len()
    );

    let del = client.delete("ex_emp", TupleId(0))?;
    println!("ok delete (seq {})", del.seq);

    let health = client.health()?;
    println!("ok health ({})", health.lines().next().unwrap_or(""));

    client.sync()?;
    println!("ok sync");

    watcher.unsubscribe()?;
    println!("ok unsubscribe");

    client.remove_rule(rule)?;
    println!("ok remove_rule");

    client.drop_relation("ex_emp")?;
    println!("ok drop_relation");

    drop(client);
    drop(watcher);
    if let Some((server, dir)) = local {
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
    println!("all opcodes round-tripped");
    Ok(())
}
