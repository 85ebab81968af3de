//! The recognize-act cycle's heap-allocation budget, counted, not
//! timed: a cascade level allocates for the tuples it *writes* (an
//! event's relation name, a written row's one shared block), not per
//! event matched or rule fired. A counting global allocator reads one
//! `insert_batch` on a `match_stab`-shaped engine (`bench::stab_shape`,
//! included by path — the same shape and seed `bench_json`'s gated
//! `engine/allocs_per_event/batch128` row counts), checks the match
//! path alone — a tuple at a time or a run in lock-step — allocates
//! nothing into warm buffers — with the profiler's stage clock running
//! as well — and drives the
//! firing paths that still format (`Action::Log`) or bind (a join
//! rule) against an engine fed one tuple at a time. The counter is
//! per thread, so the cases can run side by side.

#[path = "../../bench/src/stab_shape.rs"]
mod stab_shape;

use predindex::{MatchLanes, Matcher, PredicateIndex};
use relation::{AttrType, Database, Schema, Value};
use rules::{Action, FireReport, Registry, Rule, RuleEngine, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use telemetry::{CostSnapshot, StageClock};

thread_local! {
    /// Allocator calls that obtained memory (`alloc`, `realloc`) on
    /// this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the thread-local beside it is a plain
// `Cell<u64>` with no destructor and touches no memory the allocator
// hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Inserts `rows` one tuple at a time and concatenates the reports.
fn one_at_a_time(engine: &mut RuleEngine, relation: &str, rows: Vec<Vec<Value>>) -> FireReport {
    let mut whole = FireReport::default();
    for row in rows {
        let r = engine.insert(relation, row).expect("a well-typed row");
        whole.fired.extend(r.fired);
        whole.firings.extend(r.firings);
        whole.ops_applied += r.ops_applied;
    }
    whole
}

const RULES: usize = 2_000;
const BATCH: usize = 128;

#[test]
fn a_batch_allocates_for_the_tuples_it_writes() {
    let mut engine = stab_shape::engine(RULES, 1);
    // Warm: the relation's slots and free list, the maps' tables.
    engine
        .insert_batch(stab_shape::RELATION, stab_shape::rows(BATCH, 2))
        .expect("warm-up batch");

    let rows = stab_shape::rows(BATCH, 3);
    let (report, allocations) = counted({
        let rows = rows.clone();
        || engine.insert_batch(stab_shape::RELATION, rows)
    });
    let report = report.expect("measured batch");

    // Every row is inserted, about half are rewritten, all are deleted.
    let events = report.ops_applied as u64;
    assert!(events > 2 * BATCH as u64, "{events} events");
    assert!(
        report.fired.len() as u64 > events,
        "{} firings over {events} events: the band rules never fire",
        report.fired.len()
    );
    // 10 per event (3,208 here) before the chain owned its buffers;
    // what is left is 1.9 per event (604): the event's relation name,
    // the block `Tuple::new` moves each written row into (the relation,
    // the event and every memo share it), and the values the touch
    // action rewrites.
    assert!(
        allocations <= 4 * events + 64,
        "{allocations} allocations for {events} events ({} firings)",
        report.fired.len()
    );
    let db = engine.db().catalog();
    assert!(db
        .relation(stab_shape::RELATION)
        .is_some_and(|r| r.is_empty()));

    // The same rows one at a time: each row's cascade finishes before
    // the next row arrives instead of sharing its levels with the
    // batch, so the firing order differs; the fired multiset and the
    // op count do not.
    let mut serial = stab_shape::engine(RULES, 1);
    let serial = one_at_a_time(&mut serial, stab_shape::RELATION, rows);
    assert_eq!(report.ops_applied, serial.ops_applied);
    let sorted = |r: &FireReport| {
        let mut fired = r.fired.clone();
        fired.sort();
        fired
    };
    assert_eq!(sorted(&report), sorted(&serial));
}

#[test]
fn matching_into_a_warm_buffer_allocates_nothing() {
    let engine = stab_shape::engine(RULES, 1);
    let catalog = engine.db().catalog();
    let mut index = PredicateIndex::new();
    for (_, rule, _) in engine.rules_detail() {
        for condition in &rule.conditions {
            index
                .insert(condition.clone(), catalog)
                .expect("the engine already bound this condition");
        }
    }
    let tuples: Vec<_> = stab_shape::rows(BATCH, 3)
        .into_iter()
        .map(relation::Tuple::new)
        .collect();
    let mut out = Vec::with_capacity(1024);
    let ((), allocations) = counted(|| {
        for tuple in &tuples {
            index.match_tuple_into(stab_shape::RELATION, tuple, &mut out);
        }
    });
    // One flat buffer for the whole level, as the engine matches it.
    assert!(out.len() >= BATCH, "{} matches", out.len());
    assert!(out.len() <= 1024, "the buffer grew: {} matches", out.len());
    assert_eq!(allocations, 0);

    // The level as one run, as the engine hands it over: the same ids;
    // the lanes' candidate buffers warm up on the first run and are
    // reused after. Then again with the profiler on, as the engine runs
    // it then: metered, the clock lapping each group, each tuple's work
    // kept.
    let one_at_a_time = out.clone();
    let mut lanes = MatchLanes::default();
    let mut bounds = Vec::with_capacity(BATCH);
    let mut work: Vec<CostSnapshot> = Vec::with_capacity(BATCH);
    for profiled in [false, true] {
        if profiled {
            let registry = Arc::new(Registry::new());
            index.attach_metrics(Telemetry::new(registry).with_profiling());
        }
        let mut run = |out: &mut Vec<_>, bounds: &mut Vec<_>, work: &mut Vec<_>| {
            out.clear();
            bounds.clear();
            work.clear();
            let clock = &mut StageClock::start(profiled);
            index.match_run_into(
                stab_shape::RELATION,
                &tuples,
                &mut lanes,
                out,
                clock,
                |r, w| {
                    bounds.push(r);
                    work.push(*w);
                },
            );
            clock.record().total()
        };
        run(&mut out, &mut bounds, &mut work);
        assert_eq!(out, one_at_a_time);
        let (lapped, allocations) = counted(|| run(&mut out, &mut bounds, &mut work));
        assert_eq!(out, one_at_a_time);
        assert_eq!(bounds.len(), BATCH);
        assert_eq!(allocations, 0, "profiled: {profiled}");
        assert_eq!(lapped > 0, profiled);
        assert_eq!(work.iter().any(|w| w.ibs_nodes > 0), profiled);
    }
}

fn emp_dept() -> RuleEngine {
    let mut db = Database::new();
    for (relation, other) in [("emp", "salary"), ("dept", "floor")] {
        let schema = Schema::builder(relation)
            .attr("dno", AttrType::Int)
            .attr(other, AttrType::Int);
        db.create_relation(schema.build()).expect("fresh relation");
    }
    RuleEngine::new(db)
}

#[test]
fn a_log_action_prints_the_borrowed_tuple() {
    let build = || {
        let mut engine = emp_dept();
        for (name, condition) in [("paid", "emp.salary > 10"), ("dno1", "emp.dno = 1")] {
            let rule = Rule::builder(name).when(condition).expect("parses");
            engine
                .add_rule(rule.then(Action::log("seen")).build())
                .expect("emp has these attributes");
        }
        engine
    };
    let rows: Vec<Vec<Value>> = (0..BATCH as i64)
        .map(|i| vec![Value::Int(i % 3), Value::Int(i % 20)])
        .collect();

    let mut batched = build();
    let (report, allocations) = counted({
        let rows = rows.clone();
        || batched.insert_batch("emp", rows)
    });
    let report = report.expect("batch");
    let mut serial = build();
    assert_eq!(report, one_at_a_time(&mut serial, "emp", rows));
    assert_eq!(batched.log(), serial.log());
    assert_eq!(batched.log()[0], "[dno1] seen: emp(1, 1)");
    // No cascade: per event its name and tuple, per firing the line
    // (`format!` grows it a few times) — and nothing per rule name.
    let (events, firings) = (report.ops_applied as u64, report.fired.len() as u64);
    assert!(
        allocations <= 2 * events + 4 * firings + 64,
        "{allocations} allocations for {events} events, {firings} firings"
    );
}

#[test]
fn a_join_firing_moves_its_bindings_into_the_report() {
    let build = || {
        let mut engine = emp_dept();
        let rule = Rule::builder("same-dept")
            .when("emp.dno = dept.dno and dept.floor > 1")
            .expect("parses")
            .then(Action::callback(|ctx| {
                let bound: Vec<String> = ctx
                    .bindings
                    .iter()
                    .map(|b| format!("{}#{}", b.relation, b.id.0))
                    .collect();
                ctx.log(format!("{} {}", ctx.rule_name, bound.join(" ")));
            }));
        engine.add_rule(rule.build()).expect("a valid join");
        for dno in 0..4 {
            engine
                .insert("dept", vec![Value::Int(dno), Value::Int(dno)])
                .expect("dept row");
        }
        engine
    };
    let rows: Vec<Vec<Value>> = (0..BATCH as i64)
        .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
        .collect();

    let mut batched = build();
    let report = batched.insert_batch("emp", rows.clone()).expect("batch");
    let mut serial = build();
    assert_eq!(report, one_at_a_time(&mut serial, "emp", rows));
    assert_eq!(batched.log(), serial.log());
    assert_eq!(batched.log()[0], "same-dept dept#2 emp#2");
    // Departments 2 and 3 are above floor 1; dno 4 has no department.
    let expected = (0..BATCH).filter(|i| matches!(i % 5, 2 | 3)).count();
    assert_eq!(report.firings.len(), expected);
    assert!(report.firings.iter().all(|f| f.bindings.len() == 2));
}
