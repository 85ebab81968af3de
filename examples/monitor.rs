//! Live monitoring demo: a durable rule engine under load with the
//! telemetry exposition server attached.
//!
//! ```text
//! cargo run --release --example monitor -- --port 9898 --seconds 5 --trace-out trace.json
//! # elsewhere:
//! curl -s http://127.0.0.1:9898/metrics | head
//! curl -s http://127.0.0.1:9898/health
//! curl -s http://127.0.0.1:9898/trace > trace.json   # drains the trace ring
//! curl -s http://127.0.0.1:9898/profile              # cost accounts + quantiles + stage records
//! ```
//!
//! The workload is a two-level cascade (underpaid employees raise
//! alerts, level-2 alerts escalate) driven in small batches until
//! `--seconds` elapse, so every event family — ops with their stage
//! children, WAL appends and fsyncs, snapshots — shows up in the ring.
//! On exit the remaining ring is written to `--trace-out` as Chrome
//! trace-event JSON (loadable in Perfetto), the server shuts down
//! gracefully, and the scratch durable directory is removed.
//!
//! CI uses this binary as its smoke test: start it, curl the
//! endpoints, keep the trace as an artifact.

use predmatch::durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec};
use predmatch::predicate::FunctionRegistry;
use predmatch::prelude::*;
use predmatch::rules::{DbOp, EventMask};
use predmatch::telemetry::{chrome_trace_json, serve, Telemetry, Tracer, DEFAULT_TRACE_CAPACITY};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Config {
    port: u16,
    seconds: u64,
    trace_out: Option<String>,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        port: 0,
        seconds: 5,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--port" => {
                cfg.port = value("--port").parse().unwrap_or_else(|e| {
                    eprintln!("bad --port: {e}");
                    std::process::exit(2);
                })
            }
            "--seconds" => {
                cfg.seconds = value("--seconds").parse().unwrap_or_else(|e| {
                    eprintln!("bad --seconds: {e}");
                    std::process::exit(2);
                })
            }
            "--trace-out" => cfg.trace_out = Some(value("--trace-out")),
            other => {
                eprintln!(
                    "unknown flag {other:?}; usage: monitor [--port P] [--seconds S] [--trace-out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    cfg
}

fn build_engine(dir: &std::path::Path, telemetry: Telemetry) -> DurableRuleEngine {
    let mut actions = ActionRegistry::new();
    actions.register("raise-alert", |ctx| {
        ctx.queue(DbOp::Insert {
            relation: "alerts".into(),
            values: vec![Value::str("underpaid"), Value::Int(2)],
        });
    });
    let mut engine = DurableRuleEngine::open_with_metrics(
        dir,
        FunctionRegistry::default(),
        actions,
        Options {
            snapshot_every: Some(256),
            ..Options::default()
        },
        telemetry,
    )
    .expect("fresh durable dir opens");
    engine
        .create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .expect("create emp");
    engine
        .create_relation(
            Schema::builder("alerts")
                .attr("kind", AttrType::Str)
                .attr("level", AttrType::Int)
                .build(),
        )
        .expect("create alerts");
    engine
        .add_rule(RuleSpec {
            name: "raise-alert".into(),
            condition: "emp.salary < 1000".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Named("raise-alert".into()),
        })
        .expect("add raise-alert");
    engine
        .add_rule(RuleSpec {
            name: "escalate".into(),
            condition: "alerts.level >= 2".into(),
            mask: EventMask::INSERT_UPDATE,
            priority: 0,
            action: ActionSpec::Log("escalated".into()),
        })
        .expect("add escalate");
    engine
}

fn main() {
    let cfg = parse_args();
    // One handle for the engine and the exposition server. Cost
    // attribution on: per-rule accounts feed /profile, and a
    // zero threshold keeps every insert's stage record in the slow-op
    // ring (the newest 64).
    let telemetry = Telemetry::new(Arc::new(Registry::new()))
        .with_tracer(Tracer::new(DEFAULT_TRACE_CAPACITY))
        .with_profiling();
    telemetry.profiler().set_slow_threshold_nanos(0);
    let dir = std::env::temp_dir().join(format!("predmatch-monitor-{}", std::process::id()));
    let engine = Arc::new(Mutex::new(build_engine(&dir, telemetry.clone())));

    // /health reports through the engine (WAL seq, rule count); the
    // workload shares it behind a mutex.
    let health_engine = engine.clone();
    let server = serve(
        &format!("127.0.0.1:{}", cfg.port),
        telemetry.clone(),
        Some(Box::new(move || {
            health_engine.lock().expect("engine lock").health_text()
        })),
    )
    .expect("exposition server binds");
    // Parsed by CI; keep the format stable.
    println!("serving on http://{}", server.addr());
    println!("  curl http://{}/metrics", server.addr());
    println!("  curl http://{}/health", server.addr());
    println!("  curl http://{}/trace", server.addr());
    println!("  curl http://{}/profile", server.addr());

    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut i: i64 = 0;
    let mut fired_total = 0u64;
    while Instant::now() < deadline {
        let mut e = engine.lock().expect("engine lock");
        for _ in 0..16 {
            // Every 4th employee is underpaid and triggers the cascade.
            let salary = if i % 4 == 0 {
                500
            } else {
                5_000 + (i % 100) * 10
            };
            let report = e
                .insert(
                    "emp",
                    vec![
                        Value::str(format!("e{i}")),
                        Value::Int(20 + (i % 50)),
                        Value::Int(salary),
                    ],
                )
                .expect("insert");
            telemetry
                .profiler()
                .record_request("insert", None, e.last_record());
            fired_total += report.fired.len() as u64;
            i += 1;
        }
        drop(e);
        std::thread::sleep(Duration::from_millis(20));
    }

    println!("workload done: {i} inserts, {fired_total} rule firings");
    if let Some(path) = &cfg.trace_out {
        let json = chrome_trace_json(&telemetry.tracer().events());
        std::fs::write(path, json).expect("write trace");
        println!("trace written to {path}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
