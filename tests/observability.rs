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
use predmatch::rules::{DbOp, EngineError, EventMask};
use predmatch::telemetry::{nanos, CostSnapshot, Stage, StageRecord, EXTERNAL_ACCOUNT};
use std::collections::BTreeSet;
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
    let registry = engine.telemetry().registry().clone();

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
/// term, summing that term of every account's cost in `/profile`'s
/// ledger must reproduce the global counter exactly — no work is
/// dropped, none is double-billed — under a workload that exercises
/// every account kind: external inserts, a cascading rule (its queued
/// ops bill *its* account, not external), and a two-relation join rule.
#[test]
fn per_rule_accounts_sum_to_the_global_counters() {
    let mut engine = profiled_engine();
    let registry = engine.telemetry().registry().clone();
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

/// An aborted chain bills what it did: a rule that feeds itself runs
/// the op into the firing limit, and the op's one bill, made after its
/// last lap, still partitions every global counter and equals the
/// work its record holds.
#[test]
fn an_aborted_chain_bills_once_and_partitions_exactly() {
    let mut engine = profiled_engine();
    engine.set_firing_limit(40);
    let echo = Rule::builder("echo")
        .when("alerts.level >= 2")
        .unwrap()
        .then(Action::callback(|ctx| {
            ctx.queue(DbOp::Insert {
                relation: "alerts".into(),
                values: vec![Value::str("echo"), Value::Int(2)],
            });
        }));
    engine.add_rule(echo.build()).unwrap();
    let registry = engine.telemetry().registry().clone();
    let profiler = engine.telemetry().profiler().clone();

    let underpaid = vec![Value::str("al"), Value::Int(500), Value::str("Shoe")];
    let err = engine.insert("emp", underpaid).unwrap_err();
    assert!(
        matches!(err, EngineError::FiringLimit { limit: 40 }),
        "{err}"
    );
    assert_eq!(profiler.bills(), 1, "one bill for the aborted op");
    let mut billed = [0u64; 9];
    for a in profiler.accounts() {
        for (sum, term) in billed.iter_mut().zip(terms(&a.cost)) {
            *sum += term;
        }
    }
    assert_eq!(billed, counted(&registry));
    assert_eq!(work(engine.last_record()), billed);
    assert!(billed[7] >= 40, "{billed:?}: the chain ran to the limit");
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
    terms(&record.work)
}

/// Cost terms in [`counted`]'s order.
fn terms(w: &CostSnapshot) -> [u64; 9] {
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
    let registry = engine.telemetry().registry().clone();
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

/// The (family, kind) of each row of DESIGN.md §11's `Metric families`
/// table: its first cell's backticked name and its second cell.
fn metric_families_table() -> Vec<(String, String)> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md");
    let (_, table) = design
        .split_once("\n### Metric families\n")
        .expect("§11 has `Metric families`");
    let table = table.split("\n## ").next().expect("text");
    let row = |l: &str| {
        let (family, rest) = l.strip_prefix("| `")?.split_once('`')?;
        let kind = rest.split('|').nth(1)?.trim();
        Some((family.to_string(), kind.to_string()))
    };
    table.lines().filter_map(row).collect()
}

/// §11's table is there and every row reads: a unique family, a kind
/// that is `counter` or `histogram`, and a name the kind allows.
#[test]
fn design_md_table_is_present_and_parsed() {
    let rows = metric_families_table();
    assert!(rows.len() >= 40, "§11's table has {} rows", rows.len());
    let families: BTreeSet<&str> = rows.iter().map(|(f, _)| f.as_str()).collect();
    assert_eq!(families.len(), rows.len(), "a family is listed twice");
    for (family, kind) in &rows {
        let counter = match kind.as_str() {
            "counter" => true,
            "histogram" => false,
            other => panic!("`{family}` has kind `{other}`"),
        };
        assert_eq!(
            family.ends_with("_total"),
            counter,
            "`{family}` is a {kind}: counters end `_total` and histograms do not"
        );
    }
}

/// DESIGN.md §11's metric-families table, both ways. A profiled durable
/// engine runs a single-relation rule, a join rule and an insert into a
/// relation no predicate names, takes a snapshot, reopens (replaying
/// the WAL after it), and serves; the families the registry then holds
/// are exactly the table's first column. A family minted only on a path
/// this does not drive is not seen here.
#[test]
fn the_registry_mints_exactly_the_metric_families_table() {
    let table = metric_families_table();
    let listed: BTreeSet<&str> = table.iter().map(|(family, _)| family.as_str()).collect();

    let dir = std::env::temp_dir().join(format!("observability-families-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(Registry::new());
    let open = || {
        DurableRuleEngine::open_with_metrics(
            &dir,
            FunctionRegistry::default(),
            ActionRegistry::new(),
            Options::default(),
            Telemetry::new(registry.clone()).with_profiling(),
        )
        .unwrap()
    };
    let mut engine = open();
    for schema in [
        Schema::builder("emp")
            .attr("salary", AttrType::Int)
            .attr("dept", AttrType::Str)
            .build(),
        Schema::builder("dept")
            .attr("name", AttrType::Str)
            .attr("floor", AttrType::Int)
            .build(),
        Schema::builder("audit").attr("v", AttrType::Int).build(),
    ] {
        engine.create_relation(schema).unwrap();
    }
    for (name, condition) in [
        ("underpaid", "emp.salary < 1000"),
        ("same-dept", "emp.dept = dept.name and dept.floor = 1"),
    ] {
        engine
            .add_rule(RuleSpec {
                name: name.into(),
                condition: condition.into(),
                mask: EventMask::ALL,
                priority: 0,
                action: ActionSpec::Log(name.into()),
            })
            .unwrap();
    }
    engine
        .insert("dept", vec![Value::str("Shoe"), Value::Int(1)])
        .unwrap();
    engine
        .insert("emp", vec![Value::Int(500), Value::str("Shoe")])
        .unwrap();
    engine.insert("audit", vec![Value::Int(1)]).unwrap();
    engine.snapshot().unwrap();
    engine.insert("audit", vec![Value::Int(2)]).unwrap();
    drop(engine);
    let server = ruleserv::serve("127.0.0.1:0", open(), ruleserv::ServerOptions::default())
        .expect("the server binds");
    server
        .shutdown()
        .expect("the engine thread returns the engine");
    let _ = std::fs::remove_dir_all(&dir);

    let names = registry.names();
    let family = |name: &str| name.split('{').next().expect("a name").to_string();
    let minted: BTreeSet<String> = names.iter().map(|n| family(n)).collect();
    let missing: Vec<_> = listed.iter().filter(|f| !minted.contains(**f)).collect();
    let unlisted: Vec<_> = minted
        .iter()
        .filter(|f| !listed.contains(f.as_str()))
        .collect();
    assert!(
        missing.is_empty() && unlisted.is_empty(),
        "§11 rows no code minted: {missing:?}; families §11 does not list: {unlisted:?}"
    );
    let snapshots = registry.histogram_snapshots();
    let histograms: BTreeSet<String> = snapshots.iter().map(|h| family(&h.0)).collect();
    for family in &minted {
        let snake = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        assert!(
            family.chars().all(snake),
            "`{family}` is not snake_case ASCII"
        );
        let counter = !histograms.contains(family);
        assert_eq!(
            family.ends_with("_total"),
            counter,
            "`{family}`: counters end `_total` and histograms do not"
        );
    }
}
