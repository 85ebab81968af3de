//! The profiler's one lock, raced: the accounts, the rule names and the
//! slow-op ring live in one ledger, and nothing else is locked while it
//! is held (DESIGN.md §18). Four threads bill whole ops — minting
//! accounts, some of them the same ones at once — name rules, record
//! requests into the slow-op ring, snapshot the accounts, and render
//! `/profile` and `/metrics`, and add to the global counters the
//! accounts partition. The run must finish, each op must have taken
//! the ledger once, and the accounts must then sum to every global
//! counter exactly (DESIGN.md §16).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use telemetry::{CostSnapshot, Profiler, Registry, StageRecord, SLOW_OP_CAPACITY};

const THREADS: u64 = 4;
const ROUNDS: u64 = 3_000;
/// Rule ids billed; each thread walks them from its own offset, so
/// first bills of one id race across threads.
const RULES: u64 = 600;

/// The op round `r` of thread `t` bills: its event, charged to the
/// external account or to a rule, its firing, charged to another rule,
/// and every third op a charge of nothing, which mints no account.
fn op_of(t: u64, r: u64) -> Vec<(Option<u32>, CostSnapshot)> {
    let rule = |k: u64| ((r + t * 150 + k) % RULES) as u32;
    let event = CostSnapshot {
        ibs_nodes: 1 + (r + t) % 17,
        residual_tests: r % 5,
        ops: 1,
        ..CostSnapshot::default()
    };
    let firing = CostSnapshot {
        firings: 1,
        join_probes: r % 3,
        ..CostSnapshot::default()
    };
    let mut op = vec![
        ((!r.is_multiple_of(9)).then(|| rule(0)), event),
        (Some(rule(1)), firing),
    ];
    if r.is_multiple_of(3) {
        op.push((Some(rule(2) + RULES as u32), CostSnapshot::default()));
    }
    op
}

#[test]
fn minting_under_the_ledger_lock_finishes_and_partitions_exactly() {
    let registry = Arc::new(Registry::new());
    let profiler = Profiler::new(&registry);
    // Every request is slow: each one takes the ledger for the ring.
    profiler.set_slow_threshold_nanos(0);
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (registry, profiler) = (Arc::clone(&registry), profiler.clone());
            thread::spawn(move || {
                let nodes = registry.counter("predindex_ibs_nodes_visited_total");
                let tests = registry.counter("predindex_residual_tests_total");
                let probes = registry.counter("join_probes_total");
                let fired = registry.counter("rules_fired_total");
                let ops = registry.counter("rules_ops_applied_total");
                for r in 0..ROUNDS {
                    let op = op_of(t, r);
                    profiler.bill(&op);
                    for (_, cost) in &op {
                        nodes.add(cost.ibs_nodes);
                        tests.add(cost.residual_tests);
                        probes.add(cost.join_probes);
                        fired.add(cost.firings);
                        ops.add(cost.ops);
                    }
                    profiler.name_rule(((r * 7 + t) % RULES) as u32, &format!("rule-{r}"));
                    let record = StageRecord::default();
                    profiler.record_request("insert", Some(t << 32 | r), &record);
                    match r % 128 {
                        0 => assert!(profiler.accounts().len() <= RULES as usize + 1),
                        32 => assert!(profiler.profile_json(&registry).contains("\"accounts\"")),
                        64 => assert!(registry.render_text().contains("rules_fired_total")),
                        96 => assert!(profiler.slow_ops().len() <= SLOW_OP_CAPACITY),
                        _ => {}
                    }
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    while !workers.iter().all(|w| w.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "the workers did not finish: a lock cycle?"
        );
        thread::sleep(Duration::from_millis(5));
    }
    for w in workers {
        w.join().expect("a worker panicked");
    }

    let mut expected = CostSnapshot::default();
    let mut rules = std::collections::BTreeSet::new();
    for t in 0..THREADS {
        for r in 0..ROUNDS {
            for (rule, cost) in op_of(t, r) {
                if cost != CostSnapshot::default() {
                    rules.insert(rule);
                }
                expected.add(&cost);
            }
        }
    }
    assert_eq!(profiler.bills(), THREADS * ROUNDS, "one acquisition per op");
    assert_eq!(profiler.slow_ops().len(), SLOW_OP_CAPACITY);
    let accounts = profiler.accounts();
    assert_eq!(accounts.len(), rules.len(), "one account per rule billed");
    let mut billed = CostSnapshot::default();
    accounts.iter().for_each(|a| billed.add(&a.cost));
    assert_eq!(billed, expected);
    for (global, total) in [
        ("predindex_ibs_nodes_visited_total", expected.ibs_nodes),
        ("predindex_residual_tests_total", expected.residual_tests),
        ("join_probes_total", expected.join_probes),
        ("rules_fired_total", expected.firings),
        ("rules_ops_applied_total", expected.ops),
    ] {
        assert_eq!(registry.counter_value(global), Some(total), "{global}");
    }
    // The accounts are summed from the ledger, not from the registry:
    // it holds the globals and nothing else.
    assert_eq!(registry.names().len(), 5, "{:?}", registry.names());
}
