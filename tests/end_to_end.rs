//! Cross-crate integration: database + parser + predicate index + rule
//! engine working together through the public facade.

use predmatch::predindex::{
    HashSequentialMatcher, PhysicalLockingMatcher, RTreeMatcher, SequentialMatcher,
};
use predmatch::prelude::*;
use predmatch::rules::DbOp;

fn company_db() -> Database {
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
    db.create_relation(
        Schema::builder("dept")
            .attr("dname", AttrType::Str)
            .attr("headcount", AttrType::Int)
            .attr("budget", AttrType::Int)
            .build(),
    )
    .unwrap();
    db
}

#[test]
fn parsed_predicates_match_through_the_index() {
    let mut db = company_db();
    let mut index = PredicateIndex::new();
    let sources = [
        "emp.salary < 20000 and emp.age > 50",
        "20000 <= emp.salary <= 30000",
        r#"emp.dept = "Salesperson""#,
        r#"isodd(emp.age) and emp.dept = "Shoe""#,
        "dept.budget > 1000000",
    ];
    let ids: Vec<_> = sources
        .iter()
        .map(|s| {
            index
                .insert(parse_predicate(s).unwrap(), db.catalog())
                .unwrap()
        })
        .collect();

    let t = db
        .insert(
            "emp",
            vec![
                Value::str("al"),
                Value::Int(61),
                Value::Int(12_000),
                Value::str("Shoe"),
            ],
        )
        .unwrap();
    assert_eq!(index.match_tuple("emp", &t), vec![ids[0], ids[3]]);

    let d = db
        .insert(
            "dept",
            vec![Value::str("toys"), Value::Int(12), Value::Int(2_000_000)],
        )
        .unwrap();
    assert_eq!(index.match_tuple("dept", &d), vec![ids[4]]);
    // Tuples never cross relations.
    assert_eq!(index.match_tuple("emp", &t).len(), 2);
}

#[test]
fn index_and_baselines_agree_on_a_realistic_workload() {
    let mut db = company_db();
    for i in 0..500i64 {
        db.insert(
            "emp",
            vec![
                Value::str(format!("e{i}")),
                Value::Int(20 + i % 45),
                Value::Int(10_000 + (i * 137) % 90_000),
                Value::str(if i % 3 == 0 { "Shoe" } else { "Sales" }),
            ],
        )
        .unwrap();
    }

    let sources: Vec<String> = (0..60)
        .map(|i| match i % 5 {
            0 => format!("emp.age = {}", 20 + i % 45),
            1 => format!("emp.salary < {}", 15_000 + i * 1_000),
            2 => format!("{} <= emp.salary <= {}", 20_000 + i * 500, 30_000 + i * 500),
            3 => format!("emp.age > {} and emp.salary >= {}", 25 + i % 20, 40_000),
            _ => r#"isodd(emp.age) and emp.dept = "Shoe""#.to_string(),
        })
        .collect();

    let mut index = PredicateIndex::new();
    let mut seq = SequentialMatcher::new();
    let mut hash = HashSequentialMatcher::new();
    let mut lock = PhysicalLockingMatcher::with_indexed_attrs(db.catalog(), [("emp", "salary")]);
    let mut rt = RTreeMatcher::new();
    for s in &sources {
        let p = parse_predicate(s).unwrap();
        index.insert(p.clone(), db.catalog()).unwrap();
        seq.insert(p.clone(), db.catalog()).unwrap();
        hash.insert(p.clone(), db.catalog()).unwrap();
        lock.insert(p.clone(), db.catalog()).unwrap();
        rt.insert(p, db.catalog()).unwrap();
    }

    let rel = db.catalog().relation("emp").unwrap();
    for (_, t) in rel.iter().take(200) {
        let want = seq.match_tuple("emp", t);
        assert_eq!(index.match_tuple("emp", t), want, "index vs oracle");
        assert_eq!(hash.match_tuple("emp", t), want, "hash vs oracle");
        assert_eq!(lock.match_tuple("emp", t), want, "locking vs oracle");
        assert_eq!(rt.match_tuple("emp", t), want, "rtree vs oracle");
    }
}

#[test]
fn rule_engine_chains_across_relations() {
    let mut engine = RuleEngine::new(company_db());
    // Hiring into a department bumps its headcount; a full department
    // logs a capacity alert.
    engine
        .add_rule(
            Rule::builder("hire-shoe")
                .when(r#"emp.dept = "Shoe""#)
                .unwrap()
                .then(Action::callback(|ctx| {
                    ctx.queue(DbOp::Insert {
                        relation: "dept".into(),
                        values: vec![Value::str("Shoe"), Value::Int(1), Value::Int(0)],
                    });
                }))
                .build(),
        )
        .unwrap();
    engine
        .add_rule(
            Rule::builder("dept-watch")
                .when("dept.headcount >= 1")
                .unwrap()
                .then(Action::log("department grew"))
                .build(),
        )
        .unwrap();

    let report = engine
        .insert(
            "emp",
            vec![
                Value::str("zed"),
                Value::Int(33),
                Value::Int(44_000),
                Value::str("Shoe"),
            ],
        )
        .unwrap();
    assert_eq!(report.fired.len(), 2);
    assert!(engine.log().iter().any(|l| l.contains("department grew")));
}

#[test]
fn predicates_survive_heavy_rule_churn() {
    let mut engine = RuleEngine::new(company_db());
    let mut ids = Vec::new();
    for round in 0..10 {
        for i in 0..20 {
            let id = engine
                .add_rule(
                    Rule::builder(format!("r{round}-{i}"))
                        .when(&format!("emp.salary < {}", 1_000 * (i + 1)))
                        .unwrap()
                        .then(Action::log("hit"))
                        .build(),
                )
                .unwrap();
            ids.push(id);
        }
        // Retire the oldest half.
        for id in ids.drain(..10) {
            engine.remove_rule(id).unwrap();
        }
    }
    assert_eq!(engine.rule_count(), 100);
    let report = engine
        .insert(
            "emp",
            vec![
                Value::str("a"),
                Value::Int(30),
                Value::Int(500),
                Value::str("d"),
            ],
        )
        .unwrap();
    // Salary 500 matches every remaining "salary < k*1000" rule.
    assert_eq!(report.fired.len(), 100);
}

#[test]
fn update_events_rematch_new_values() {
    let mut db = company_db();
    let mut index = PredicateIndex::new();
    let low = index
        .insert(parse_predicate("emp.salary < 1000").unwrap(), db.catalog())
        .unwrap();
    let high = index
        .insert(parse_predicate("emp.salary > 90000").unwrap(), db.catalog())
        .unwrap();

    let ev = db
        .insert_event(
            "emp",
            vec![
                Value::str("m"),
                Value::Int(30),
                Value::Int(500),
                Value::str("d"),
            ],
        )
        .unwrap();
    let relation::TupleEvent::Inserted { id, tuple, .. } = ev else {
        panic!("expected insert event");
    };
    assert_eq!(index.match_tuple("emp", &tuple), vec![low]);

    let ev = db
        .update_event(
            "emp",
            id,
            vec![
                Value::str("m"),
                Value::Int(30),
                Value::Int(95_000),
                Value::str("d"),
            ],
        )
        .unwrap();
    let new = ev.current().unwrap();
    assert_eq!(index.match_tuple("emp", new), vec![high]);
}
