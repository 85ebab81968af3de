//! EXPLAIN traces and metrics counters, checked against a hand-run of
//! the Figure-1 match path.
//!
//! The predicate set is built so every stage has a knowable cost: each
//! indexed attribute carries exactly one interval (a one-node,
//! height-one IBS tree), so the stab must visit one node and scan one
//! mark, and the function predicate must land on the non-indexable
//! list and be swept on every match.

use predmatch::durable::{ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec};
use predmatch::predicate::FunctionRegistry;
use predmatch::prelude::*;
use predmatch::rules::{DbOp, EventMask};
use predmatch::telemetry::{nanos, Stage, StageRecord, EXTERNAL_ACCOUNT};
use std::sync::Arc;
use std::time::Instant;

/// `emp(name, age, salary)` with three rules:
/// * `underpaid`:  emp.salary < 20000   — salary tree, one interval
/// * `senior`:     emp.age > 50         — age tree, one interval
/// * `odd-age`:    isodd(emp.age)       — non-indexable
fn engine() -> RuleEngine {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("age", AttrType::Int)
            .attr("salary", AttrType::Int)
            .build(),
    )
    .unwrap();
    let mut engine = RuleEngine::new(db);
    engine.attach_metrics(Arc::new(Registry::new()));
    for (name, cond, msg) in [
        ("underpaid", "emp.salary < 20000", "below 20k"),
        ("senior", "emp.age > 50", "over 50"),
        ("odd-age", "isodd(emp.age)", "odd age"),
    ] {
        engine
            .add_rule(
                Rule::builder(name)
                    .when(cond)
                    .unwrap()
                    .then(Action::log(msg))
                    .build(),
            )
            .unwrap();
    }
    engine
}

fn tuple() -> Vec<Value> {
    // age 60: stabs the age tree above 50 but fails isodd; salary
    // 12000 stabs the salary tree below 20000.
    vec![Value::str("al"), Value::Int(60), Value::Int(12_000)]
}

#[test]
fn explain_counts_match_a_hand_computed_stab() {
    let mut engine = engine();
    let (trace, report) = engine.explain_insert("emp", tuple()).unwrap();

    // Stage 1: relation hash found the second-level index.
    assert_eq!(trace.relation, "emp");
    assert!(trace.relation_indexed);

    // Stage 2: one stab per indexed attribute, in attribute order.
    // Each tree holds a single interval, hence exactly one node
    // visited and one mark scanned per stab.
    assert_eq!(trace.stabs.len(), 2);
    let age = &trace.stabs[0];
    assert_eq!((age.attr, age.attr_name.as_str()), (1, "age"));
    assert_eq!(age.nodes_visited, 1);
    assert_eq!(age.marks_scanned, 1);
    assert_eq!(age.greater_hits, 1); // 60 is right of the node key 50
    assert_eq!(age.less_hits + age.eq_hits + age.universal_hits, 0);
    assert_eq!((age.tree_intervals, age.tree_height), (1, 1));
    let salary = &trace.stabs[1];
    assert_eq!((salary.attr, salary.attr_name.as_str()), (2, "salary"));
    assert_eq!(salary.nodes_visited, 1);
    assert_eq!(salary.marks_scanned, 1);
    assert_eq!(salary.less_hits, 1); // 12000 is left of the node key 20000
    assert_eq!(
        salary.greater_hits + salary.eq_hits + salary.universal_hits,
        0
    );
    assert_eq!((salary.tree_intervals, salary.tree_height), (1, 1));

    // Stage 3: the lone function predicate is swept sequentially.
    assert_eq!(trace.non_indexable_scanned, 1);

    // Stage 4: three partial matches, residual-tested; isodd(60) fails.
    assert_eq!(trace.partial_matches(), 3);
    assert_eq!(trace.residual.len(), 3);
    assert_eq!(trace.matched().len(), 2);
    let failed: Vec<&str> = trace
        .residual
        .iter()
        .filter(|r| !r.pass)
        .map(|r| r.source.as_str())
        .collect();
    assert_eq!(failed, ["isodd(emp.age)"]);

    // Aggregates and the two rules the insert actually fired.
    assert_eq!(trace.nodes_visited(), 2);
    assert_eq!(trace.marks_scanned(), 2);
    let mut fired: Vec<&str> = report.fired.iter().map(|(_, n)| n.as_str()).collect();
    fired.sort_unstable();
    assert_eq!(fired, ["senior", "underpaid"]);

    // The rendering names every stage and the §5.2 cost terms.
    let text = trace.to_string();
    for needle in [
        "EXPLAIN match emp",
        "attr age",
        "attr salary",
        "non-indexable",
        "residual tests",
        "3 partial match(es) -> 2 full match(es)",
        "ibs_nodes=2",
        "residual_tests=3",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn counters_agree_with_the_explain_trace() {
    let mut engine = engine();
    let (trace, _) = engine.explain_insert("emp", tuple()).unwrap();
    let registry = engine.metrics().clone();

    let before = |name: &str| registry.counter_value(name).unwrap_or(0);
    let nodes0 = before("predindex_ibs_nodes_visited_total");
    let marks0 = before("predindex_ibs_marks_scanned_total");
    let sweeps0 = before("predindex_non_indexable_scanned_total");
    let tests0 = before("predindex_residual_tests_total");
    let passes0 = before("predindex_residual_passes_total");

    // A plain insert of the same tuple performs exactly the work the
    // trace describes: the counters must advance by the trace's counts.
    engine.insert("emp", tuple()).unwrap();
    let delta = |name: &str, base: u64| before(name) - base;
    assert_eq!(
        delta("predindex_ibs_nodes_visited_total", nodes0),
        trace.nodes_visited()
    );
    assert_eq!(
        delta("predindex_ibs_marks_scanned_total", marks0),
        trace.marks_scanned()
    );
    assert_eq!(
        delta("predindex_non_indexable_scanned_total", sweeps0),
        trace.non_indexable_scanned as u64
    );
    assert_eq!(
        delta("predindex_residual_tests_total", tests0),
        trace.residual_tests() as u64
    );
    assert_eq!(
        delta("predindex_residual_passes_total", passes0),
        trace.matched().len() as u64
    );
}

/// A profiled engine over `emp`, `dept` and `alerts`: `raise-alert`
/// queues an alert for every underpaid employee, `escalate` fires on
/// the alert, and `same-dept` joins employees to floor-1 departments.
fn profiled_engine() -> RuleEngine {
    let mut db = Database::new();
    for schema in [
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("salary", AttrType::Int)
            .attr("dept", AttrType::Str)
            .build(),
        Schema::builder("dept")
            .attr("name", AttrType::Str)
            .attr("floor", AttrType::Int)
            .build(),
        Schema::builder("alerts")
            .attr("kind", AttrType::Str)
            .attr("level", AttrType::Int)
            .build(),
    ] {
        db.create_relation(schema).unwrap();
    }
    let mut engine = RuleEngine::new(db);
    engine.attach_metrics(Telemetry::new(Arc::new(Registry::new())).with_profiling());
    engine
        .add_rule(
            Rule::builder("raise-alert")
                .when("emp.salary < 1000")
                .unwrap()
                .then(Action::callback(|ctx| {
                    ctx.queue(DbOp::Insert {
                        relation: "alerts".into(),
                        values: vec![Value::str("underpaid"), Value::Int(2)],
                    });
                }))
                .build(),
        )
        .unwrap();
    engine
        .add_rule(
            Rule::builder("escalate")
                .when("alerts.level >= 2")
                .unwrap()
                .then(Action::log("escalated"))
                .build(),
        )
        .unwrap();
    engine
        .add_rule(
            Rule::builder("same-dept")
                .when("emp.dept = dept.name and dept.floor = 1")
                .unwrap()
                .then(Action::log("colleagues"))
                .build(),
        )
        .unwrap();
    engine
}

/// The profiler's attribution invariant (DESIGN.md §16): the per-rule
/// accounts *partition* the global §5.2 cost counters. For every cost
/// term, summing the `profile_rule_*_total{rule=...}` cells across all
/// accounts must reproduce the global counter exactly — no work is
/// dropped, none is double-billed — under a workload that exercises
/// every account kind: external inserts, a cascading rule (its queued
/// ops bill *its* account, not external), and a two-relation join rule.
#[test]
fn per_rule_accounts_sum_to_the_global_counters() {
    let mut engine = profiled_engine();
    let registry = engine.metrics().clone();
    let profiler = engine.telemetry().profiler().clone();

    engine
        .insert("dept", vec![Value::str("Shoe"), Value::Int(1)])
        .unwrap();
    for i in 0i64..32 {
        // Every 4th employee is underpaid: raise-alert fires, its
        // queued alert cascades into escalate.
        let salary = if i % 4 == 0 { 500 } else { 5_000 + i };
        engine
            .insert(
                "emp",
                vec![
                    Value::str(format!("e{i}")),
                    Value::Int(salary),
                    Value::str("Shoe"),
                ],
            )
            .unwrap();
    }

    let accounts = profiler.accounts();
    assert!(
        accounts.len() >= 3,
        "expected external + cascading + fired accounts, got {accounts:?}"
    );

    // Sum every account's cost terms and compare against the globals.
    let global = |name: &str| registry.counter_value(name).unwrap_or(0);
    let sum = |f: fn(&predmatch::telemetry::AccountSnapshot) -> u64| -> u64 {
        accounts.iter().map(f).sum()
    };
    for (term, summed, counter) in [
        (
            "ibs_nodes",
            sum(|a| a.cost.ibs_nodes),
            "predindex_ibs_nodes_visited_total",
        ),
        (
            "ibs_marks",
            sum(|a| a.cost.ibs_marks),
            "predindex_ibs_marks_scanned_total",
        ),
        (
            "residual_tests",
            sum(|a| a.cost.residual_tests),
            "predindex_residual_tests_total",
        ),
        (
            "residual_passes",
            sum(|a| a.cost.residual_passes),
            "predindex_residual_passes_total",
        ),
        (
            "non_indexable",
            sum(|a| a.cost.non_indexable),
            "predindex_non_indexable_scanned_total",
        ),
        (
            "join_probes",
            sum(|a| a.cost.join_probes),
            "join_probes_total",
        ),
        (
            "join_retractions",
            sum(|a| a.cost.join_retractions),
            "join_retractions_total",
        ),
        ("firings", sum(|a| a.cost.firings), "rules_fired_total"),
        ("ops", sum(|a| a.cost.ops), "rules_ops_applied_total"),
    ] {
        assert_eq!(
            summed,
            global(counter),
            "accounts do not partition {counter} ({term})"
        );
    }

    // The workload really exercised every attribution path.
    let by_name = |wanted: &str| {
        accounts
            .iter()
            .find(|a| a.name.as_deref() == Some(wanted))
            .unwrap_or_else(|| panic!("no account named {wanted:?} in {accounts:?}"))
    };
    let external = accounts
        .iter()
        .find(|a| a.rule.is_none())
        .expect("external account exists");
    // 33 client-injected inserts bill the external account; the alerts
    // the cascade queued bill raise-alert, the rule that caused them.
    assert_eq!(external.cost.ops, 33);
    assert_eq!(by_name("raise-alert").cost.ops, 8);
    assert_eq!(by_name("raise-alert").cost.firings, 8);
    assert_eq!(by_name("escalate").cost.firings, 8);
    assert!(by_name("same-dept").cost.join_probes > 0);
    assert!(external.cost.ibs_nodes > 0 && external.cost.stab_nanos > 0);

    // /profile reads the same cells.
    let json = profiler.profile_json(&registry);
    assert!(
        json.contains("\"schema\":\"telemetry/profile-v2\""),
        "{json}"
    );
    assert!(
        json.contains(&format!("\"rule\":\"{EXTERNAL_ACCOUNT}\"")),
        "{json}"
    );
    assert!(json.contains("\"name\":\"raise-alert\""), "{json}");
}

/// The §5.2 terms `registry`'s global counters hold.
fn counted(registry: &Registry) -> [u64; 9] {
    [
        "predindex_ibs_nodes_visited_total",
        "predindex_ibs_marks_scanned_total",
        "predindex_residual_tests_total",
        "predindex_residual_passes_total",
        "predindex_non_indexable_scanned_total",
        "join_probes_total",
        "join_retractions_total",
        "rules_fired_total",
        "rules_ops_applied_total",
    ]
    .map(|name| registry.counter_value(name).unwrap_or(0))
}

/// A record's work, in [`counted`]'s order.
fn work(record: &StageRecord) -> [u64; 9] {
    let w = record.work;
    [
        w.ibs_nodes,
        w.ibs_marks,
        w.residual_tests,
        w.residual_passes,
        w.non_indexable,
        w.join_probes,
        w.join_retractions,
        w.firings,
        w.ops,
    ]
}

/// `record`'s stages sum to its total, which fits inside `outer`, the
/// clock pair around the call.
fn partitions(record: &StageRecord, outer: u64) {
    let stages: u64 = Stage::ALL.iter().map(|&s| record.nanos(s)).sum();
    assert_eq!(stages, record.total());
    assert!(record.total() <= outer, "{} > {outer}", record.total());
}

/// The time partition in process (DESIGN.md §16): an op's stages sum
/// to its record's total, which a clock pair around the call encloses;
/// every stage the op crosses took time; and the record's work is what
/// the op added to the global counters.
#[test]
fn an_op_record_partitions_its_time_and_its_work() {
    let mut engine = profiled_engine();
    let registry = engine.metrics().clone();
    engine
        .insert("dept", vec![Value::str("Shoe"), Value::Int(1)])
        .unwrap();
    // An underpaid employee of a floor-1 department: a match, a join
    // premise, two firings, and the alert they cascade into.
    let emp = vec![Value::str("ann"), Value::Int(500), Value::str("Shoe")];
    let before = counted(&registry);
    let started = Instant::now();
    let report = engine.insert("emp", emp.clone()).unwrap();
    let outer = nanos(started.elapsed());
    let record = *engine.last_record();
    partitions(&record, outer);
    for stage in [
        Stage::Stab,
        Stage::Residual,
        Stage::Join,
        Stage::Agenda,
        Stage::Fire,
    ] {
        assert!(record.nanos(stage) > 0, "no {}: {record:?}", stage.name());
    }
    assert_eq!(report.fired.len(), 3);
    let after = counted(&registry);
    let added: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(work(&record).to_vec(), added);
    assert_eq!(
        record.work.stab_nanos,
        record.nanos(Stage::Stab) + record.nanos(Stage::Residual)
    );

    // Updating her retracts her join tokens: the join stage again.
    let tid = predmatch::relation::TupleId(0);
    engine.update("emp", tid, emp).unwrap();
    assert!(engine.last_record().work.join_retractions > 0);
    assert!(engine.last_record().nanos(Stage::Join) > 0);
    // An op that runs no chain leaves an empty record.
    engine
        .add_rule(
            Rule::builder("idle")
                .when("emp.salary > 9999999")
                .unwrap()
                .build(),
        )
        .unwrap();
    assert_eq!(*engine.last_record(), StageRecord::default());

    // The durable engine folds the rule engine's record into its own,
    // beside the WAL append.
    let dir = std::env::temp_dir().join(format!("observability-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::new(Arc::new(Registry::new())).with_profiling();
    let mut durable = DurableRuleEngine::open_with_metrics(
        &dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options::default(),
        telemetry,
    )
    .unwrap();
    durable
        .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
        .unwrap();
    durable
        .add_rule(RuleSpec {
            name: "big".into(),
            condition: "t.v > 3".into(),
            mask: EventMask::ALL,
            priority: 0,
            action: ActionSpec::Log("big".into()),
        })
        .unwrap();
    let started = Instant::now();
    durable.insert("t", vec![Value::Int(5)]).unwrap();
    let outer = nanos(started.elapsed());
    let record = *durable.last_record();
    partitions(&record, outer);
    for stage in [Stage::Wal, Stage::Stab, Stage::Residual, Stage::Fire] {
        assert!(record.nanos(stage) > 0, "no {}: {record:?}", stage.name());
    }
    assert_eq!(record.work.firings, 1);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
