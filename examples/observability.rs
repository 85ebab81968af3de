//! Observability tour: run a small durable rule workload with a live
//! metrics registry, EXPLAIN one insert through the Figure-1 match
//! path, then dump the Prometheus-style exposition — WAL fsyncs,
//! per-attribute IBS stab work, cascade depths, all of it.
//!
//! Run with `cargo run --example observability`.

use predmatch::durable::{
    ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy,
};
use predmatch::predicate::FunctionRegistry;
use predmatch::prelude::*;
use predmatch::rules::EventMask;
use std::sync::Arc;

fn spec(name: &str, condition: &str, msg: &str) -> RuleSpec {
    RuleSpec {
        name: name.into(),
        condition: condition.into(),
        mask: EventMask::INSERT_UPDATE,
        priority: 0,
        action: ActionSpec::Log(msg.into()),
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("predmatch-observe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One registry observes the whole stack: WAL, recovery, predicate
    // index shards, IBS-tree stabs, and rule firings.
    let registry = Arc::new(Registry::new());
    let mut engine = DurableRuleEngine::open_with_metrics(
        &dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options {
            sync: SyncPolicy::Always,
            snapshot_every: Some(64),
        },
        registry.clone(),
    )
    .unwrap();

    engine
        .create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .attr("dept", AttrType::Str)
                .build(),
        )
        .unwrap();

    // The paper's example predicate plus two more, so the salary and
    // age attributes both carry interval indexes.
    engine
        .add_rule(spec(
            "underpaid-senior",
            "emp.salary < 20000 and emp.age > 50",
            "senior employee below 20k",
        ))
        .unwrap();
    engine
        .add_rule(spec(
            "young-hire",
            "emp.age < 25",
            "junior hire — assign a mentor",
        ))
        .unwrap();
    engine
        .add_rule(spec(
            "exec-band",
            "emp.salary >= 150000",
            "executive compensation review",
        ))
        .unwrap();

    // A small workload: single inserts (each one WAL append + fsync +
    // match) and one batch.
    for i in 0..40i64 {
        engine
            .insert(
                "emp",
                vec![
                    Value::str(format!("emp{i}")),
                    Value::Int(22 + i % 45),
                    Value::Int(12_000 + i * 4_000),
                    Value::str(if i % 3 == 0 { "toys" } else { "tools" }),
                ],
            )
            .unwrap();
    }
    engine
        .insert_batch(
            "emp",
            (0..8i64)
                .map(|i| {
                    vec![
                        Value::str(format!("batch{i}")),
                        Value::Int(30 + i),
                        Value::Int(60_000),
                        Value::str("ops"),
                    ]
                })
                .collect(),
        )
        .unwrap();
    engine.snapshot().unwrap();

    // EXPLAIN one insert: the trace mirrors Figure 1 — relation hash,
    // one IBS stab per indexed attribute, the non-indexable sweep, and
    // the residual test on every partial match.
    let (trace, report) = engine
        .explain_insert(
            "emp",
            vec![
                Value::str("al"),
                Value::Int(61),
                Value::Int(12_000),
                Value::str("toys"),
            ],
        )
        .unwrap();
    println!("{trace}");
    println!(
        "=> fired {} rule(s): {}",
        report.fired.len(),
        report
            .fired
            .iter()
            .map(|(_, name)| name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    println!("\n--- metrics exposition ---");
    print!("{}", registry.render_text());

    let _ = std::fs::remove_dir_all(&dir);
}
