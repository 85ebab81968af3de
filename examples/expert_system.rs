//! An OPS5-flavoured forward-chaining demo: working-memory facts are
//! tuples, rules chain through intermediate conclusions.
//!
//! The paper positions its algorithm as a drop-in improvement for
//! exactly this kind of engine ("the algorithm could also be used to
//! improve the performance of forward-chaining inference engines for
//! large expert systems applications"); this example shows the rule
//! engine behaving like a small classifier while the §2.2 hash +
//! sequential layer is replaced by the IBS-tree index.
//!
//! Run with `cargo run --example expert_system`.

use predmatch::prelude::*;
use predmatch::rules::DbOp;

fn main() {
    let mut db = Database::new();
    // Working memory: patient observations.
    db.create_relation(
        Schema::builder("patient")
            .attr("name", AttrType::Str)
            .attr("temp_c10", AttrType::Int) // temperature * 10
            .attr("heart_rate", AttrType::Int)
            .attr("age", AttrType::Int)
            .build(),
    )
    .unwrap();
    // Derived facts asserted by rules.
    db.create_relation(
        Schema::builder("finding")
            .attr("name", AttrType::Str)
            .attr("kind", AttrType::Str)
            .attr("severity", AttrType::Int)
            .build(),
    )
    .unwrap();

    let mut engine = RuleEngine::new(db);

    // Layer 1: observations → findings.
    engine
        .add_rule(
            Rule::builder("fever")
                .when("patient.temp_c10 >= 380")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let t = ctx.event.current().expect("insert").clone();
                    let severe = t.get(1) >= &Value::Int(395);
                    ctx.queue(DbOp::Insert {
                        relation: "finding".into(),
                        values: vec![
                            t.get(0).clone(),
                            Value::str("fever"),
                            Value::Int(if severe { 3 } else { 1 }),
                        ],
                    });
                }))
                .build(),
        )
        .unwrap();
    engine
        .add_rule(
            Rule::builder("tachycardia")
                .when("patient.heart_rate > 100 or patient.heart_rate < 40")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let t = ctx.event.current().expect("insert").clone();
                    ctx.queue(DbOp::Insert {
                        relation: "finding".into(),
                        values: vec![t.get(0).clone(), Value::str("arrhythmia"), Value::Int(2)],
                    });
                }))
                .build(),
        )
        .unwrap();

    // Layer 2: findings → alerts (chained inference).
    engine
        .add_rule(
            Rule::builder("urgent")
                .when("finding.severity >= 3")
                .unwrap()
                .priority(100)
                .then(Action::log("URGENT"))
                .build(),
        )
        .unwrap();
    engine
        .add_rule(
            Rule::builder("observe")
                .when("1 <= finding.severity <= 2")
                .unwrap()
                .then(Action::log("keep under observation"))
                .build(),
        )
        .unwrap();

    let patients: [(&str, i64, i64, i64); 4] = [
        ("ann", 366, 72, 34),  // healthy
        ("ben", 384, 88, 51),  // mild fever
        ("cha", 401, 120, 67), // severe fever + tachycardia
        ("dot", 370, 38, 80),  // bradycardia
    ];
    let mut conclusions = Vec::new();
    for (name, temp, hr, age) in patients {
        let report = engine
            .insert(
                "patient",
                vec![
                    Value::str(name),
                    Value::Int(temp),
                    Value::Int(hr),
                    Value::Int(age),
                ],
            )
            .unwrap();
        println!(
            "assert {name}: {} rule firings across the chain",
            report.fired.len()
        );
        conclusions.extend(report.log);
    }

    println!("\nconclusions:");
    for line in &conclusions {
        println!("  {line}");
    }
    let findings = engine.db().catalog().relation("finding").unwrap();
    println!("\nderived facts ({}):", findings.len());
    for (_, t) in findings.iter() {
        println!("  finding{t}");
    }
}
