//! Database triggers over the paper's EMP schema: monitoring and
//! integrity rules fire as personnel records change.
//!
//! Run with `cargo run --example employee_rules`.

use predmatch::prelude::*;
use predmatch::relation::TupleId;
use predmatch::rules::DbOp;

fn main() {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("age", AttrType::Int)
            .attr("salary", AttrType::Int)
            .attr("dept", AttrType::Str)
            .build(),
    )
    .unwrap();
    db.create_relation(Schema::builder("audit").attr("note", AttrType::Str).build())
        .unwrap();

    let mut engine = RuleEngine::new(db);

    // Monitoring rule straight from the paper's first example predicate.
    engine
        .add_rule(
            Rule::builder("underpaid-senior")
                .when("emp.salary < 20000 and emp.age > 50")
                .unwrap()
                .then(Action::log("senior employee below 20k"))
                .priority(10)
                .build(),
        )
        .unwrap();

    // Integrity rule: salaries are clamped into a legal band.
    engine
        .add_rule(
            Rule::builder("salary-cap")
                .when("emp.salary > 200000")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let t = ctx.event.current().expect("insert/update").clone();
                    ctx.log(format!("[salary-cap] clamping {}", t));
                    ctx.queue(DbOp::UpdateCurrent {
                        values: vec![
                            t.get(0).clone(),
                            t.get(1).clone(),
                            Value::Int(200_000),
                            t.get(3).clone(),
                        ],
                    });
                }))
                .priority(20)
                .build(),
        )
        .unwrap();

    // Forward chaining: salary band changes leave an audit trail.
    engine
        .add_rule(
            Rule::builder("audit-trail")
                .when("20000 <= emp.salary <= 30000 or emp.salary = 200000")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let t = ctx.event.current().expect("insert/update").clone();
                    ctx.queue(DbOp::Insert {
                        relation: "audit".into(),
                        values: vec![Value::str(format!("band check: {t}"))],
                    });
                }))
                .build(),
        )
        .unwrap();

    let staff: [(&str, i64, i64, &str); 4] = [
        ("al", 61, 12_000, "Shoe"),
        ("bo", 30, 25_000, "Sales"),
        ("cy", 45, 450_000, "Exec"),
        ("di", 28, 55_000, "Eng"),
    ];
    // The actions' lines come back in each operation's report.
    let mut log = Vec::new();
    for (name, age, salary, dept) in staff {
        let report = engine
            .insert(
                "emp",
                vec![
                    Value::str(name),
                    Value::Int(age),
                    Value::Int(salary),
                    Value::str(dept),
                ],
            )
            .expect("insert runs the chain");
        println!(
            "insert {name:>3}: fired {:?}",
            report
                .fired
                .iter()
                .map(|(_, n)| n.as_str())
                .collect::<Vec<_>>()
        );
        log.extend(report.log);
    }

    // A raise that drops someone into the monitored band.
    let al: TupleId = engine
        .db()
        .catalog()
        .relation("emp")
        .unwrap()
        .iter()
        .next()
        .unwrap()
        .0;
    let report = engine
        .update(
            "emp",
            al,
            vec![
                Value::str("al"),
                Value::Int(61),
                Value::Int(21_000),
                Value::str("Shoe"),
            ],
        )
        .unwrap();
    log.extend(report.log);

    println!("\naction log:");
    for line in &log {
        println!("  {line}");
    }
    println!(
        "\naudit rows: {}",
        engine.db().catalog().relation("audit").unwrap().len()
    );
    println!("total rule firings: {}", engine.total_fired());
}
