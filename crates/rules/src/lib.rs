//! # Forward-chaining rule engine (database triggers)
//!
//! The application layer the paper's index exists for: production rules
//! `if condition then action` over a main-memory database, with every
//! tuple change matched against all rule conditions through the
//! Figure 1 discrimination network — a plain
//! [`predindex::PredicateIndex`]: the engine is serial (`&mut self`),
//! so the index takes no lock and spawns no thread, and each
//! recognize-act cycle matches all events queued at that level before
//! any rule fires (see [`RuleEngine::insert_batch`] for the bulk-load
//! entry point).
//!
//! ```
//! use rules::{Action, EventMask, Rule, RuleEngine};
//! use relation::{AttrType, Database, Schema, Value};
//!
//! let mut db = Database::new();
//! db.create_relation(
//!     Schema::builder("emp")
//!         .attr("name", AttrType::Str)
//!         .attr("salary", AttrType::Int)
//!         .build(),
//! )
//! .unwrap();
//!
//! let mut engine = RuleEngine::new(db);
//! engine
//!     .add_rule(
//!         Rule::builder("underpaid")
//!             .when("emp.salary < 15000").unwrap()
//!             .then(Action::log("below minimum"))
//!             .build(),
//!     )
//!     .unwrap();
//!
//! let report = engine
//!     .insert("emp", vec![Value::str("al"), Value::Int(9_000)])
//!     .unwrap();
//! assert_eq!(report.fired.len(), 1);
//! // An action's lines are output: they come back in the report of
//! // the operation that fired them, and the engine keeps no copy.
//! assert!(report.log[0].contains("below minimum"));
//!
//! // A report names each firing by the rule's own `RuleName` — one
//! // reference-counted string per rule, shared, never copied — which
//! // reads and compares as a `&str`.
//! let (id, name) = &report.fired[0];
//! assert_eq!(name.as_str(), "underpaid");
//! assert!(*name == "underpaid" && name.starts_with("under"));
//! assert_eq!(engine.rule(*id).unwrap().name, *name);
//! ```
//!
//! One recognize-act chain owns its buffers — the level's matches in
//! one flat vector, one agenda, one queue of pending operations — and a
//! firing borrows the event, the rule's name and its action where they
//! live, so a chain allocates for the tuples it writes (an event's
//! relation name and tuple), not per event matched or rule fired
//! (`tests/alloc_budget.rs` counts it).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod engine;
mod rule;

pub use engine::{EngineError, FireReport, RuleEngine};
pub use rule::{Action, DbOp, EventMask, Rule, RuleBuilder, RuleContext, RuleId, RuleName};
// The join vocabulary, re-exported so applications can hold join
// conditions, bound tuples and memo stats without naming the lower
// crates.
pub use joinmemo::{BoundTuple, MemoStats};
pub use predicate::{JoinCondition, ParsedCondition};
// The observability vocabulary, re-exported so applications can hold
// traces and registries without naming the lower crates.
pub use predindex::{IndexStats, MatchTrace, ResidualTrace, StabTrace};
pub use telemetry::{Registry, Telemetry, Tracer};

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{AttrType, Database, Schema, Value};

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
        db.create_relation(
            Schema::builder("alerts")
                .attr("message", AttrType::Str)
                .attr("level", AttrType::Int)
                .build(),
        )
        .unwrap();
        RuleEngine::new(db)
    }

    #[test]
    fn simple_trigger_fires_on_matching_insert() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("senior")
                .when("emp.age > 60")
                .unwrap()
                .then(Action::log("senior employee"))
                .build(),
        )
        .unwrap();
        let r = e
            .insert("emp", vec![Value::str("al"), Value::Int(65), Value::Int(0)])
            .unwrap();
        assert_eq!(r.fired.len(), 1);
        let r = e
            .insert("emp", vec![Value::str("bo"), Value::Int(30), Value::Int(0)])
            .unwrap();
        assert_eq!(r.fired.len(), 0);
        assert_eq!(e.total_fired(), 1);
    }

    #[test]
    fn update_and_delete_masks() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("on-delete-only")
                .when("emp.salary > 0")
                .unwrap()
                .on(EventMask {
                    on_insert: false,
                    on_update: false,
                    on_delete: true,
                })
                .then(Action::log("gone"))
                .build(),
        )
        .unwrap();
        let ev = e
            .insert("emp", vec![Value::str("c"), Value::Int(30), Value::Int(10)])
            .unwrap();
        assert_eq!(ev.fired.len(), 0, "insert must not fire a delete rule");

        // Find the tuple id and delete it.
        let id = e
            .db()
            .catalog()
            .relation("emp")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .0;
        let ev = e.delete("emp", id).unwrap();
        assert_eq!(ev.fired.len(), 1);
        assert!(ev.log[0].contains("gone"));
    }

    #[test]
    fn priority_orders_firing() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("low")
                .when("emp.age > 0")
                .unwrap()
                .priority(1)
                .then(Action::log("low"))
                .build(),
        )
        .unwrap();
        e.add_rule(
            Rule::builder("high")
                .when("emp.age > 0")
                .unwrap()
                .priority(9)
                .then(Action::log("high"))
                .build(),
        )
        .unwrap();
        let r = e
            .insert("emp", vec![Value::str("d"), Value::Int(1), Value::Int(0)])
            .unwrap();
        assert_eq!(
            r.fired.iter().map(|(_, n)| n.as_str()).collect::<Vec<_>>(),
            vec!["high", "low"]
        );
    }

    #[test]
    fn forward_chaining_cascades() {
        let mut e = engine();
        // Underpaid employees raise an alert tuple; level-2 alerts raise
        // a level-3 escalation log.
        e.add_rule(
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
        e.add_rule(
            Rule::builder("escalate")
                .when("alerts.level >= 2")
                .unwrap()
                .then(Action::log("escalated"))
                .build(),
        )
        .unwrap();
        let r = e
            .insert(
                "emp",
                vec![Value::str("e"), Value::Int(20), Value::Int(500)],
            )
            .unwrap();
        assert_eq!(r.fired.len(), 2, "both rules fire through the chain");
        assert_eq!(r.ops_applied, 2, "external insert + cascaded insert");
        assert_eq!(
            e.db().catalog().relation("alerts").unwrap().len(),
            1,
            "the cascaded tuple landed"
        );
        assert!(r.log.iter().any(|l| l.contains("escalated")));
    }

    #[test]
    fn runaway_chain_hits_firing_limit() {
        let mut e = engine();
        e.set_firing_limit(50);
        // Every alert insert re-inserts an alert: infinite loop.
        e.add_rule(
            Rule::builder("loop")
                .when("alerts.level >= 0")
                .unwrap()
                .then(Action::callback(|ctx| {
                    ctx.queue(DbOp::Insert {
                        relation: "alerts".into(),
                        values: vec![Value::str("again"), Value::Int(1)],
                    });
                }))
                .build(),
        )
        .unwrap();
        let err = e
            .insert("alerts", vec![Value::str("start"), Value::Int(1)])
            .unwrap_err();
        assert!(matches!(err, EngineError::FiringLimit { limit: 50 }));
    }

    #[test]
    fn update_current_action() {
        let mut e = engine();
        // Clamp salaries above 100k down to 100k. The rewritten tuple
        // re-enters matching but no longer satisfies the condition.
        e.add_rule(
            Rule::builder("salary-cap")
                .when("emp.salary > 100000")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let t = ctx.event.current().expect("insert/update event").clone();
                    ctx.queue(DbOp::UpdateCurrent {
                        values: vec![t.get(0).clone(), t.get(1).clone(), Value::Int(100_000)],
                    });
                }))
                .build(),
        )
        .unwrap();
        e.insert(
            "emp",
            vec![Value::str("f"), Value::Int(40), Value::Int(150_000)],
        )
        .unwrap();
        let rel = e.db().catalog().relation("emp").unwrap();
        let (_, t) = rel.iter().next().unwrap();
        assert_eq!(t.get(2), &Value::Int(100_000));
    }

    #[test]
    fn disjunctive_condition_fires_once() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("extremes")
                .when("emp.age < 20 or emp.salary < 100")
                .unwrap()
                .then(Action::log("extreme"))
                .build(),
        )
        .unwrap();
        // Tuple matching BOTH disjuncts still fires the rule once.
        let r = e
            .insert("emp", vec![Value::str("g"), Value::Int(18), Value::Int(50)])
            .unwrap();
        assert_eq!(r.fired.len(), 1);
    }

    #[test]
    fn remove_rule_stops_firing() {
        let mut e = engine();
        let id = e
            .add_rule(
                Rule::builder("r")
                    .when("emp.age > 0")
                    .unwrap()
                    .then(Action::log("x"))
                    .build(),
            )
            .unwrap();
        assert_eq!(e.rule_count(), 1);
        e.remove_rule(id).unwrap();
        assert_eq!(e.rule_count(), 0);
        let r = e
            .insert("emp", vec![Value::str("h"), Value::Int(5), Value::Int(5)])
            .unwrap();
        assert_eq!(r.fired.len(), 0);
        assert!(matches!(e.remove_rule(id), Err(EngineError::NoSuchRule(_))));
    }

    #[test]
    fn bad_condition_is_rejected_and_rolled_back() {
        let mut e = engine();
        let err = e
            .add_rule(
                Rule::builder("bad")
                    .when("emp.age > 0 or ghost.x = 1")
                    .unwrap()
                    .build(),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Index(_)));
        // The valid disjunct must not linger in the index.
        let r = e
            .insert("emp", vec![Value::str("i"), Value::Int(9), Value::Int(9)])
            .unwrap();
        assert_eq!(r.fired.len(), 0);
    }
}

#[cfg(test)]
mod agenda_tests {
    use super::*;
    use relation::{AttrType, Database, Schema, Value};

    fn engine() -> RuleEngine {
        let mut db = Database::new();
        db.create_relation(Schema::builder("t").attr("x", AttrType::Int).build())
            .unwrap();
        RuleEngine::new(db)
    }

    #[test]
    fn equal_priority_fires_newest_first() {
        // OPS5-flavoured recency: at equal priority the most recently
        // registered rule fires first.
        let mut e = engine();
        for name in ["first", "second", "third"] {
            e.add_rule(
                Rule::builder(name)
                    .when("t.x > 0")
                    .unwrap()
                    .then(Action::log(name))
                    .build(),
            )
            .unwrap();
        }
        let r = e.insert("t", vec![Value::Int(1)]).unwrap();
        let order: Vec<&str> = r.fired.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(order, vec!["third", "second", "first"]);
    }

    #[test]
    fn priority_beats_recency() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("old-but-urgent")
                .when("t.x > 0")
                .unwrap()
                .priority(5)
                .then(Action::log("urgent"))
                .build(),
        )
        .unwrap();
        e.add_rule(
            Rule::builder("new-but-lazy")
                .when("t.x > 0")
                .unwrap()
                .priority(-5)
                .then(Action::log("lazy"))
                .build(),
        )
        .unwrap();
        let r = e.insert("t", vec![Value::Int(1)]).unwrap();
        let order: Vec<&str> = r.fired.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(order, vec!["old-but-urgent", "new-but-lazy"]);
    }

    #[test]
    fn rules_listing() {
        let mut e = engine();
        let a = e
            .add_rule(Rule::builder("a").when("t.x > 0").unwrap().build())
            .unwrap();
        let _b = e
            .add_rule(Rule::builder("b").when("t.x < 0").unwrap().build())
            .unwrap();
        let mut names: Vec<String> = e.rules().map(|(_, n)| n.to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        e.remove_rule(a).unwrap();
        assert_eq!(e.rules().count(), 1);
    }

    #[test]
    fn non_matching_events_fire_nothing_and_cost_no_log() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("never")
                .when("t.x > 1000000")
                .unwrap()
                .then(Action::log("?"))
                .build(),
        )
        .unwrap();
        for i in 0..50 {
            let r = e.insert("t", vec![Value::Int(i)]).unwrap();
            assert!(r.fired.is_empty() && r.log.is_empty());
        }
        assert_eq!(e.total_fired(), 0);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use relation::{AttrType, Database, Schema, Value};

    fn engine() -> RuleEngine {
        let mut db = Database::new();
        db.create_relation(Schema::builder("t").attr("x", AttrType::Int).build())
            .unwrap();
        db.create_relation(Schema::builder("log").attr("x", AttrType::Int).build())
            .unwrap();
        RuleEngine::new(db)
    }

    #[test]
    fn insert_batch_fires_like_serial_inserts() {
        let rule = |e: &mut RuleEngine| {
            e.add_rule(
                Rule::builder("pos")
                    .when("t.x > 0")
                    .unwrap()
                    .then(Action::log("pos"))
                    .build(),
            )
            .unwrap();
            e.add_rule(
                Rule::builder("big")
                    .when("t.x > 5")
                    .unwrap()
                    .priority(9)
                    .then(Action::log("big"))
                    .build(),
            )
            .unwrap();
        };
        let rows: Vec<Vec<Value>> = (-3..10).map(|i| vec![Value::Int(i)]).collect();

        let mut serial = engine();
        rule(&mut serial);
        let (mut serial_fired, mut serial_log) = (Vec::new(), Vec::new());
        for row in rows.clone() {
            let r = serial.insert("t", vec![row[0].clone()]).unwrap();
            serial_fired.extend(r.fired);
            serial_log.extend(r.log);
        }

        let mut batched = engine();
        rule(&mut batched);
        let r = batched.insert_batch("t", rows).unwrap();

        assert_eq!(r.fired, serial_fired, "batch must fire in serial order");
        assert_eq!(r.ops_applied, 13);
        assert_eq!(r.log, serial_log);
    }

    #[test]
    fn insert_batch_cascades_breadth_first() {
        let mut e = engine();
        // Every t-insert spawns a log-insert; log rules then fire.
        e.add_rule(
            Rule::builder("spawn")
                .when("t.x >= 0")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let t = ctx.event.current().expect("insert").clone();
                    ctx.queue(DbOp::Insert {
                        relation: "log".into(),
                        values: vec![t.get(0).clone()],
                    });
                }))
                .build(),
        )
        .unwrap();
        e.add_rule(
            Rule::builder("seen")
                .when("log.x >= 0")
                .unwrap()
                .then(Action::log("seen"))
                .build(),
        )
        .unwrap();
        let r = e
            .insert_batch("t", (0..4).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
        // 4 spawns, then 4 seens — the spawns all precede the seens
        // because cascaded events form the next matching level.
        let names: Vec<&str> = r.fired.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["spawn", "spawn", "spawn", "spawn", "seen", "seen", "seen", "seen"]
        );
        assert_eq!(r.ops_applied, 8);
        assert_eq!(e.db().catalog().relation("log").unwrap().len(), 4);
    }

    #[test]
    fn insert_batch_respects_firing_limit() {
        let mut e = engine();
        e.set_firing_limit(3);
        e.add_rule(
            Rule::builder("any")
                .when("t.x >= 0")
                .unwrap()
                .then(Action::log("x"))
                .build(),
        )
        .unwrap();
        let err = e
            .insert_batch("t", (0..10).map(|i| vec![Value::Int(i)]).collect())
            .unwrap_err();
        assert!(matches!(err, EngineError::FiringLimit { limit: 3 }));
    }

    #[test]
    fn a_rejected_row_leaves_the_join_memos_in_step() {
        let mut db = Database::new();
        for (relation, other) in [("emp", "name"), ("dept", "floor")] {
            let schema = Schema::builder(relation)
                .attr(other, AttrType::Str)
                .attr("dno", AttrType::Int);
            db.create_relation(schema.build()).unwrap();
        }
        let mut e = RuleEngine::new(db);
        let id = e
            .add_rule(
                Rule::builder("same-dept")
                    .when("emp.dno = dept.dno")
                    .unwrap()
                    .then(Action::log("joined"))
                    .build(),
            )
            .unwrap();
        // The second row has the wrong arity: the batch fails after the
        // first is stored.
        let err = e
            .insert_batch(
                "dept",
                vec![vec![Value::str("one"), Value::Int(4)], vec![Value::Int(5)]],
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Catalog(_)), "{err}");
        assert_eq!(e.db().catalog().relation("dept").unwrap().len(), 1);
        // The stored row is in the beta layer: an employee joins it.
        let r = e
            .insert("emp", vec![Value::str("al"), Value::Int(4)])
            .unwrap();
        assert_eq!(r.fired.len(), 1);
        assert_eq!(e.join_matches(id).unwrap()[0].len(), 1);
        e.check_join_invariants().unwrap();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = engine();
        let r = e.insert_batch("t", Vec::new()).unwrap();
        assert!(r.fired.is_empty());
        assert_eq!(r.ops_applied, 0);
    }
}

#[cfg(test)]
mod counter_tests {
    use super::*;
    use relation::{AttrType, Database, Schema, Value};

    #[test]
    fn per_rule_fire_counts() {
        let mut db = Database::new();
        db.create_relation(Schema::builder("t").attr("x", AttrType::Int).build())
            .unwrap();
        let mut e = RuleEngine::new(db);
        let hot = e
            .add_rule(Rule::builder("hot").when("t.x >= 0").unwrap().build())
            .unwrap();
        let cold = e
            .add_rule(Rule::builder("cold").when("t.x < 0").unwrap().build())
            .unwrap();
        for i in 0..10 {
            e.insert("t", vec![Value::Int(i)]).unwrap();
        }
        e.insert("t", vec![Value::Int(-1)]).unwrap();
        let counts: std::collections::HashMap<RuleId, u64> =
            e.fire_counts().map(|(id, _, n)| (id, n)).collect();
        assert_eq!(counts[&hot], 10);
        assert_eq!(counts[&cold], 1);
        assert_eq!(e.total_fired(), 11);
    }
}

#[cfg(test)]
mod join_tests {
    use super::*;
    use relation::{AttrType, Database, Schema, TupleId, Value};

    fn engine() -> RuleEngine {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("dno", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        db.create_relation(
            Schema::builder("dept")
                .attr("dno", AttrType::Int)
                .attr("floor", AttrType::Int)
                .build(),
        )
        .unwrap();
        RuleEngine::new(db)
    }

    fn emp(name: &str, dno: i64, salary: i64) -> Vec<Value> {
        vec![Value::str(name), Value::Int(dno), Value::Int(salary)]
    }

    fn dept(dno: i64, floor: i64) -> Vec<Value> {
        vec![Value::Int(dno), Value::Int(floor)]
    }

    #[test]
    fn join_rule_fires_when_match_completes() {
        let mut e = engine();
        let id = e
            .add_rule(
                Rule::builder("same-dept")
                    .when("emp.dno = dept.dno and dept.floor = 1")
                    .unwrap()
                    .then(Action::log("first-floor employee"))
                    .build(),
            )
            .unwrap();
        // dept arrives first: partial match only.
        assert!(e.insert("dept", dept(4, 1)).unwrap().fired.is_empty());
        // emp completes it.
        let r = e.insert("emp", emp("al", 4, 100)).unwrap();
        assert_eq!(r.fired, vec![(id, "same-dept".into())]);
        // The log line names both bound tuples.
        assert!(r.log[0].contains("dept#"), "log: {:?}", r.log);
        assert!(r.log[0].contains("emp#"), "log: {:?}", r.log);
        // Wrong floor or wrong dno never completes.
        assert!(e.insert("dept", dept(5, 2)).unwrap().fired.is_empty());
        assert!(e.insert("emp", emp("bo", 5, 1)).unwrap().fired.is_empty());
        assert_eq!(e.join_matches(id).unwrap()[0].len(), 1);
    }

    #[test]
    fn join_rule_fires_in_reverse_arrival_order() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("same-dept")
                .when("emp.dno = dept.dno")
                .unwrap()
                .then(Action::log("joined"))
                .build(),
        )
        .unwrap();
        assert!(e.insert("emp", emp("al", 4, 100)).unwrap().fired.is_empty());
        let r = e.insert("dept", dept(4, 1)).unwrap();
        assert_eq!(r.fired.len(), 1);
    }

    #[test]
    fn callback_sees_all_bound_tuples() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("pair")
                .when("emp.dno = dept.dno")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let names: Vec<String> = ctx
                        .bindings
                        .iter()
                        .map(|b| format!("{}#{}", b.relation, b.id.0))
                        .collect();
                    ctx.log(names.join("+"));
                }))
                .build(),
        )
        .unwrap();
        e.insert("dept", dept(4, 1)).unwrap();
        let r = e.insert("emp", emp("al", 4, 100)).unwrap();
        // Premises are sorted by relation name: dept before emp.
        assert_eq!(r.log, ["dept#0+emp#0"]);
    }

    #[test]
    fn delete_retracts_and_reinsert_fires_once() {
        let mut e = engine();
        let id = e
            .add_rule(
                Rule::builder("j")
                    .when("emp.dno = dept.dno")
                    .unwrap()
                    .then(Action::log("match"))
                    .build(),
            )
            .unwrap();
        e.insert("dept", dept(4, 1)).unwrap();
        let r = e.insert("emp", emp("al", 4, 100)).unwrap();
        assert_eq!(r.fired.len(), 1);
        // Delete the emp tuple: the complete match is retracted.
        e.delete("emp", TupleId(0)).unwrap();
        assert!(e.join_matches(id).unwrap()[0].is_empty());
        // Reinsert: exactly ONE new firing, not two (the regression the
        // retraction protocol exists to prevent).
        let r = e.insert("emp", emp("al", 4, 100)).unwrap();
        assert_eq!(r.fired.len(), 1);
        assert_eq!(e.join_matches(id).unwrap()[0].len(), 1);
        assert_eq!(e.total_fired(), 2);
    }

    #[test]
    fn update_rebinds_the_join() {
        let mut e = engine();
        let id = e
            .add_rule(
                Rule::builder("j")
                    .when("emp.dno = dept.dno")
                    .unwrap()
                    .then(Action::log("match"))
                    .build(),
            )
            .unwrap();
        e.insert("dept", dept(4, 1)).unwrap();
        e.insert("dept", dept(5, 2)).unwrap();
        e.insert("emp", emp("al", 4, 100)).unwrap();
        assert_eq!(e.join_matches(id).unwrap()[0], vec![vec![0, 0]]);
        // Move al to dept 5: old match retracts, new one forms and
        // fires again (an update is a retract + extend).
        let r = e.update("emp", TupleId(0), emp("al", 5, 100)).unwrap();
        assert_eq!(r.fired.len(), 1);
        assert_eq!(e.join_matches(id).unwrap()[0], vec![vec![1, 0]]);
        // Move al to a dept with no tuple: no matches at all.
        e.update("emp", TupleId(0), emp("al", 9, 100)).unwrap();
        assert!(e.join_matches(id).unwrap()[0].is_empty());
    }

    #[test]
    fn interval_join_condition() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("earns-more-than-floor")
                .when("emp.dno = dept.dno and emp.salary > dept.floor")
                .unwrap()
                .then(Action::log("above"))
                .build(),
        )
        .unwrap();
        e.insert("dept", dept(4, 50)).unwrap();
        assert!(e.insert("emp", emp("lo", 4, 10)).unwrap().fired.is_empty());
        assert_eq!(e.insert("emp", emp("hi", 4, 90)).unwrap().fired.len(), 1);
    }

    #[test]
    fn abort_repairs_the_join_memos() {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        db.create_relation(Schema::builder("alerts").attr("who", AttrType::Str).build())
            .unwrap();
        let mut e = RuleEngine::new(db);
        e.add_rule(
            Rule::builder("alerted-employee")
                .when("emp.name = alerts.who")
                .unwrap()
                .then(Action::log("joined"))
                .build(),
        )
        .unwrap();
        // The first queued op lands a tuple in `alerts`, the second is
        // refused: the chain aborts mid-level with a tuple the join memo
        // on `alerts` never saw an event for.
        e.add_rule(
            Rule::builder("flag-then-fail")
                .when("emp.salary < 1000")
                .unwrap()
                .then(Action::callback(|ctx| {
                    let t = ctx.event.current().expect("insert").clone();
                    ctx.queue(DbOp::Insert {
                        relation: "alerts".into(),
                        values: vec![t.get(0).clone()],
                    });
                    ctx.queue(DbOp::Insert {
                        relation: "alerts".into(),
                        values: Vec::new(),
                    });
                }))
                .build(),
        )
        .unwrap();
        let err = e
            .insert("emp", vec![Value::str("al"), Value::Int(900)])
            .expect_err("the bad-arity insert aborts the chain");
        assert!(matches!(err, EngineError::Catalog(_)), "{err:?}");
        assert_eq!(e.db().catalog().relation("alerts").unwrap().len(), 1);
        e.check_join_invariants()
            .expect("memos are rebuilt from the post-abort database");
    }

    #[test]
    fn plain_add_rule_seeds_memo_without_firing() {
        let mut e = engine();
        e.insert("dept", dept(1, 1)).unwrap();
        e.insert("emp", emp("al", 1, 100)).unwrap();
        let id = e
            .add_rule(
                Rule::builder("j")
                    .when("emp.dno = dept.dno")
                    .unwrap()
                    .then(Action::log("m"))
                    .build(),
            )
            .unwrap();
        // The existing pair is memoized (so deletes retract correctly)
        // but did NOT fire.
        assert_eq!(e.total_fired(), 0);
        assert_eq!(e.join_matches(id).unwrap()[0].len(), 1);
        // A later emp extends against the seeded dept token.
        assert_eq!(e.insert("emp", emp("bo", 1, 1)).unwrap().fired.len(), 1);
    }

    #[test]
    fn remove_rule_unregisters_join_premises() {
        let mut e = engine();
        let id = e
            .add_rule(
                Rule::builder("j")
                    .when("emp.dno = dept.dno")
                    .unwrap()
                    .then(Action::log("m"))
                    .build(),
            )
            .unwrap();
        e.insert("dept", dept(4, 1)).unwrap();
        e.remove_rule(id).unwrap();
        assert!(e.insert("emp", emp("al", 4, 1)).unwrap().fired.is_empty());
        assert!(e.join_stats().is_empty());
    }

    #[test]
    fn drop_relation_unregisters_whole_join_condition() {
        let mut e = engine();
        let id = e
            .add_rule(
                Rule::builder("j")
                    .when("emp.dno = dept.dno")
                    .unwrap()
                    .then(Action::log("m"))
                    .build(),
            )
            .unwrap();
        e.insert("dept", dept(4, 1)).unwrap();
        e.drop_relation("dept").unwrap();
        // The join can never complete again — emp inserts are inert.
        assert!(e.insert("emp", emp("al", 4, 1)).unwrap().fired.is_empty());
        assert!(e.rule(id).unwrap().joins.is_empty());
        assert!(e.join_stats().is_empty());
    }

    #[test]
    fn restore_reseeds_memo_with_identical_fingerprint() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("j")
                .when("emp.dno = dept.dno and dept.floor = 1")
                .unwrap()
                .then(Action::log("m"))
                .build(),
        )
        .unwrap();
        e.insert("dept", dept(1, 1)).unwrap();
        e.insert("dept", dept(2, 2)).unwrap();
        e.insert("emp", emp("al", 1, 100)).unwrap();
        e.insert("emp", emp("bo", 2, 100)).unwrap();
        let fp = e.join_fingerprint();

        let rules: Vec<(RuleId, Rule, u64)> = e
            .rules_detail()
            .map(|(id, r, n)| (id, r.clone(), n))
            .collect();
        let mut restored =
            RuleEngine::restore(e.db().clone(), rules, e.next_rule_id(), e.total_fired()).unwrap();
        assert_eq!(restored.join_fingerprint(), fp);
        assert_eq!(
            restored.join_matches(RuleId(0)).unwrap(),
            e.join_matches(RuleId(0)).unwrap()
        );
        // The restored memo keeps extending incrementally.
        assert_eq!(
            restored.insert("emp", emp("cy", 1, 1)).unwrap().fired.len(),
            1
        );
        assert_ne!(restored.join_fingerprint(), fp);
    }

    #[test]
    fn mixed_plain_and_join_rule_alternatives() {
        // One rule: a plain disjunct OR a join disjunct.
        let mut e = engine();
        let id = e
            .add_rule(
                Rule::builder("either")
                    .when("emp.salary > 1000000 or emp.dno = dept.dno")
                    .unwrap()
                    .then(Action::log("hit"))
                    .build(),
            )
            .unwrap();
        assert_eq!(e.rule(id).unwrap().conditions.len(), 1);
        assert_eq!(e.rule(id).unwrap().joins.len(), 1);
        // Plain disjunct fires alone.
        assert_eq!(
            e.insert("emp", emp("rich", 9, 2_000_000))
                .unwrap()
                .fired
                .len(),
            1
        );
        // Join disjunct completes independently.
        e.insert("dept", dept(4, 1)).unwrap();
        assert_eq!(e.insert("emp", emp("al", 4, 10)).unwrap().fired.len(), 1);
    }

    #[test]
    fn three_premise_chain() {
        let mut e = engine();
        e.create_relation(
            Schema::builder("proj")
                .attr("dno", AttrType::Int)
                .attr("budget", AttrType::Int)
                .build(),
        )
        .unwrap();
        let id = e
            .add_rule(
                Rule::builder("triple")
                    .when("emp.dno = dept.dno and dept.dno = proj.dno")
                    .unwrap()
                    .then(Action::log("3-way"))
                    .build(),
            )
            .unwrap();
        e.insert("emp", emp("al", 4, 1)).unwrap();
        e.insert("proj", vec![Value::Int(4), Value::Int(9)])
            .unwrap();
        // Last arrival completes the 3-way join.
        let r = e.insert("dept", dept(4, 1)).unwrap();
        assert_eq!(r.fired.len(), 1);
        assert_eq!(r.bindings[0].len(), 3);
        assert_eq!(e.join_matches(id).unwrap()[0], vec![vec![0, 0, 0]]);
    }

    #[test]
    fn explain_insert_narrates_join_steps() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("same-dept")
                .when("emp.dno = dept.dno")
                .unwrap()
                .then(Action::log("m"))
                .build(),
        )
        .unwrap();
        let (trace, _) = e.explain_insert("dept", dept(4, 1)).unwrap();
        assert!(
            trace
                .join_steps
                .iter()
                .any(|s| s.contains("premise 1 of rule \"same-dept\"")),
            "join steps: {:?}",
            trace.join_steps
        );
        let (trace, report) = e.explain_insert("emp", emp("al", 4, 1)).unwrap();
        assert_eq!(report.fired.len(), 1);
        assert!(
            trace
                .join_steps
                .iter()
                .any(|s| s.contains("complete match fired rule \"same-dept\"")),
            "join steps: {:?}",
            trace.join_steps
        );
        assert!(trace.to_string().contains("join memo (beta layer)"));
    }

    #[test]
    fn join_metrics_families_record() {
        let mut e = engine();
        e.attach_metrics(std::sync::Arc::new(Registry::new()));
        e.add_rule(
            Rule::builder("j")
                .when("emp.dno = dept.dno")
                .unwrap()
                .then(Action::log("m"))
                .build(),
        )
        .unwrap();
        e.insert("dept", dept(4, 1)).unwrap();
        e.insert("emp", emp("al", 4, 1)).unwrap();
        e.delete("emp", TupleId(0)).unwrap();
        let m = e.telemetry().registry();
        assert!(m.counter_value("join_probes_total").unwrap() >= 1);
        assert!(m.counter_value("join_retractions_total").unwrap() >= 1);
        let (samples, _) = m.histogram_totals("join_partial_matches").unwrap();
        assert!(samples >= 2);
        assert!(m.histogram_totals("join_memo_bytes").is_some());
    }

    #[test]
    fn a_retraction_samples_only_the_memos_it_retracted_from() {
        let mut e = engine();
        e.attach_metrics(std::sync::Arc::new(Registry::new()));
        e.add_rule(
            Rule::builder("j")
                .when("emp.dno = dept.dno and dept.floor = 1")
                .unwrap()
                .then(Action::log("m"))
                .build(),
        )
        .unwrap();
        e.insert("dept", dept(4, 2)).unwrap(); // fails the alpha filter
        e.insert("dept", dept(5, 1)).unwrap();
        let samples = |e: &RuleEngine| {
            let m = e.telemetry().registry();
            m.histogram_totals("join_partial_matches").unwrap().0
        };
        let before = samples(&e);
        e.delete("dept", TupleId(0)).unwrap();
        assert_eq!(samples(&e), before, "no memo held the filtered tuple");
        e.delete("dept", TupleId(1)).unwrap();
        assert_eq!(samples(&e), before + 1, "one memo retracted the other");
    }
}

#[cfg(test)]
mod drop_restore_tests {
    use super::*;
    use relation::{AttrType, Database, Schema, Value};

    fn engine() -> RuleEngine {
        let mut db = Database::new();
        db.create_relation(Schema::builder("emp").attr("x", AttrType::Int).build())
            .unwrap();
        db.create_relation(Schema::builder("dept").attr("y", AttrType::Int).build())
            .unwrap();
        RuleEngine::new(db)
    }

    #[test]
    fn dropped_relation_stops_matching() {
        let mut e = engine();
        let emp_only = e
            .add_rule(Rule::builder("emp-only").when("emp.x > 0").unwrap().build())
            .unwrap();
        let both = e
            .add_rule(
                Rule::builder("both")
                    .when("emp.x > 5 or dept.y > 5")
                    .unwrap()
                    .build(),
            )
            .unwrap();
        assert_eq!(e.insert("emp", vec![Value::Int(9)]).unwrap().fired.len(), 2);
        assert_eq!(
            e.insert("dept", vec![Value::Int(9)]).unwrap().fired.len(),
            1
        );

        let rel = e.drop_relation("emp").unwrap();
        assert_eq!(rel.schema().name(), "emp");
        assert!(matches!(
            e.drop_relation("emp"),
            Err(EngineError::Catalog(_))
        ));

        // The surviving disjunct of "both" still matches.
        let report = e.insert("dept", vec![Value::Int(9)]).unwrap();
        assert_eq!(report.fired, vec![(both, "both".into())]);

        // Mutating the dropped relation is a catalog error, and
        // recreating the name does NOT resurrect the old conditions.
        assert!(e.insert("emp", vec![Value::Int(9)]).is_err());
        e.create_relation(Schema::builder("emp").attr("x", AttrType::Int).build())
            .unwrap();
        assert!(e
            .insert("emp", vec![Value::Int(9)])
            .unwrap()
            .fired
            .is_empty());

        // Both rules survive as registered (one dormant), and new rules
        // against the recreated relation work.
        assert_eq!(e.rule_count(), 2);
        assert!(e.rule(emp_only).unwrap().conditions.is_empty());
        e.add_rule(Rule::builder("fresh").when("emp.x > 0").unwrap().build())
            .unwrap();
        assert_eq!(e.insert("emp", vec![Value::Int(1)]).unwrap().fired.len(), 1);
    }

    #[test]
    fn restore_round_trips_engine_state() {
        let mut e = engine();
        e.add_rule(
            Rule::builder("a")
                .when("emp.x > 0")
                .unwrap()
                .then(Action::log("pos"))
                .build(),
        )
        .unwrap();
        e.add_rule(
            Rule::builder("b")
                .when("dept.y < 0")
                .unwrap()
                .then(Action::log("neg"))
                .build(),
        )
        .unwrap();
        e.insert("emp", vec![Value::Int(3)]).unwrap();
        e.insert("dept", vec![Value::Int(-3)]).unwrap();

        let rules: Vec<(RuleId, Rule, u64)> = e
            .rules_detail()
            .map(|(id, r, n)| (id, r.clone(), n))
            .collect();
        let mut r =
            RuleEngine::restore(e.db().clone(), rules, e.next_rule_id(), e.total_fired()).unwrap();

        assert_eq!(r.rule_count(), 2);
        assert_eq!(r.total_fired(), 2);
        // Matching behaves identically after the rebuild...
        assert_eq!(r.insert("emp", vec![Value::Int(7)]).unwrap().fired.len(), 1);
        assert!(r
            .insert("emp", vec![Value::Int(-7)])
            .unwrap()
            .fired
            .is_empty());
        // ...and id allocation continues where the original left off.
        let next = r
            .add_rule(Rule::builder("c").when("emp.x = 0").unwrap().build())
            .unwrap();
        assert_eq!(next, RuleId(e.next_rule_id()));
    }

    #[test]
    fn exhausted_rule_ids_are_an_error_before_anything_registers() {
        let rule = |name: &str| Rule::builder(name).when("emp.x > 0").unwrap().build();
        let e = engine();
        let db = e.db().clone();
        let mut e = RuleEngine::restore(db, vec![(RuleId(0), rule("a"), 0)], u32::MAX, 0).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                e.add_rule(rule("late")),
                Err(EngineError::RuleIdsExhausted)
            ));
        }
        assert_eq!(e.rule_count(), 1);
        assert_eq!(e.next_rule_id(), u32::MAX);
        // The refused rules left no predicate behind: one rule fires.
        assert_eq!(e.insert("emp", vec![Value::Int(1)]).unwrap().fired.len(), 1);
    }

    #[test]
    fn restore_refuses_duplicate_and_exhausted_rule_ids() {
        let rule = |name: &str| Rule::builder(name).when("emp.x > 0").unwrap().build();
        let db = engine().db().clone();
        let twice = vec![(RuleId(4), rule("a"), 0), (RuleId(4), rule("b"), 0)];
        assert!(matches!(
            RuleEngine::restore(db.clone(), twice, 5, 0),
            Err(EngineError::DuplicateRule(RuleId(4)))
        ));
        let last = vec![(RuleId(u32::MAX), rule("a"), 0)];
        assert!(matches!(
            RuleEngine::restore(db, last, 0, 0),
            Err(EngineError::RuleIdsExhausted)
        ));
    }

    #[test]
    fn metrics_count_firings_cascades_and_match_work() {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        db.create_relation(
            Schema::builder("alerts")
                .attr("message", AttrType::Str)
                .attr("level", AttrType::Int)
                .build(),
        )
        .unwrap();
        let mut e = RuleEngine::new(db);
        e.attach_metrics(std::sync::Arc::new(Registry::new()));
        e.add_rule(
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
        e.add_rule(
            Rule::builder("escalate")
                .when("alerts.level >= 2")
                .unwrap()
                .then(Action::log("escalated"))
                .build(),
        )
        .unwrap();

        e.insert(
            "emp",
            vec![Value::str("al"), Value::Int(30), Value::Int(500)],
        )
        .unwrap();

        let m = e.telemetry().registry();
        assert_eq!(m.counter_value("rules_fired_total"), Some(2));
        // 1 external insert + 1 cascaded alert insert.
        assert_eq!(m.counter_value("rules_ops_applied_total"), Some(2));
        // One chain, two levels deep, one event per level.
        assert_eq!(m.histogram_totals("rules_cascade_depth"), Some((1, 2)));
        assert_eq!(m.histogram_totals("rules_events_per_level"), Some((2, 2)));
        // The index recorded through the same registry: both tuples
        // were matched, and the emp stab did real IBS-tree work.
        assert_eq!(m.counter_value("predindex_match_tuples_total"), Some(2));
        assert!(
            m.counter_value("predindex_ibs_nodes_visited_total")
                .unwrap()
                >= 1
        );
        let text = m.render_text();
        assert!(text.contains("rules_fired_total 2"));
    }

    #[test]
    fn reattaching_telemetry_replaces_every_facility() {
        use std::sync::Arc;
        let mut db = Database::new();
        db.create_relation(Schema::builder("emp").attr("x", AttrType::Int).build())
            .unwrap();
        db.create_relation(Schema::builder("dept").attr("x", AttrType::Int).build())
            .unwrap();
        let mut e = RuleEngine::new(db);
        e.add_rule(
            Rule::builder("pos")
                .when("emp.x > 0")
                .unwrap()
                .then(Action::log("pos"))
                .build(),
        )
        .unwrap();
        e.add_rule(Rule::builder("j").when("emp.x = dept.x").unwrap().build())
            .unwrap();

        let first = Telemetry::new(Arc::new(Registry::new()))
            .with_tracer(Tracer::new(256))
            .with_profiling();
        e.attach_metrics(first.clone());
        e.insert("emp", vec![Value::Int(1)]).unwrap();
        let a = first.registry();
        assert_eq!(a.counter_value("rules_fired_total"), Some(1));
        assert_eq!(a.counter_value("predindex_match_tuples_total"), Some(1));
        assert!(a.counter_value("join_probes_total").is_some());
        let spans = first.tracer().events().len();
        assert!(spans > 0);
        let billed =
            |t: &Telemetry| -> Vec<_> { t.profiler().accounts().iter().map(|a| a.cost).collect() };
        let accounts = billed(&first);
        assert!(!accounts.is_empty());

        // A bare registry: every layer moves to it, and the tracer and
        // profiler of the old handle go quiet
        // rather than staying half attached.
        let b = Arc::new(Registry::new());
        e.attach_metrics(Arc::clone(&b));
        e.insert("emp", vec![Value::Int(2)]).unwrap();
        e.insert("dept", vec![Value::Int(2)]).unwrap();
        // `pos` on emp 2, then `j` when dept 2 completes the join.
        assert_eq!(b.counter_value("rules_fired_total"), Some(2));
        assert_eq!(b.counter_value("predindex_match_tuples_total"), Some(2));
        assert!(b.counter_value("join_probes_total").unwrap() > 0);
        assert_eq!(a.counter_value("rules_fired_total"), Some(1));
        assert_eq!(a.counter_value("predindex_match_tuples_total"), Some(1));
        assert_eq!(first.tracer().events().len(), spans);
        assert_eq!(billed(&first), accounts);
        let now = e.telemetry();
        assert!(!now.tracer().is_enabled());
        assert!(!now.profiler().is_enabled());
    }

    #[test]
    fn explain_insert_traces_the_match_and_still_chains() {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        let mut e = RuleEngine::new(db);
        e.add_rule(
            Rule::builder("senior-underpaid")
                .when("emp.age > 60 and emp.salary < 20000")
                .unwrap()
                .then(Action::log("flagged"))
                .build(),
        )
        .unwrap();
        e.add_rule(
            Rule::builder("rich")
                .when("emp.salary >= 90000")
                .unwrap()
                .then(Action::log("rich"))
                .build(),
        )
        .unwrap();

        let (trace, report) = e
            .explain_insert(
                "emp",
                vec![Value::str("al"), Value::Int(65), Value::Int(12_000)],
            )
            .unwrap();
        assert_eq!(report.fired.len(), 1);
        assert!(trace.relation_indexed);
        // Attribute names come from the schema, not positions.
        let names: Vec<&str> = trace.stabs.iter().map(|s| s.attr_name.as_str()).collect();
        assert!(names.contains(&"age") || names.contains(&"salary"));
        // Only senior-underpaid partially matches, and it passes.
        assert_eq!(trace.partial_matches(), 1);
        assert_eq!(trace.matched().len(), 1);
        let shown = trace.to_string();
        assert!(shown.contains("EXPLAIN match emp"));
        assert!(shown.contains("residual tests"));
        // The tuple really was inserted and the chain really ran.
        assert!(report.log[0].contains("flagged"));
    }
}
