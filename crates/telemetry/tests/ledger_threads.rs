//! The workspace's one nested acquisition, raced: `Profiler::bill`
//! mints a new account's counters through the registry's lock while it
//! holds the ledger lock (DESIGN.md §18). Four threads bill — minting
//! accounts, some of them the same ones at once — name rules, snapshot
//! the accounts, render `/profile` and `/metrics`, and add to the
//! global counters the accounts partition. The run must finish, and
//! every account family must then sum to its global counter exactly
//! (DESIGN.md §16).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use telemetry::{CostSnapshot, Profiler, Registry};

const THREADS: u64 = 4;
const ROUNDS: u64 = 3_000;
/// Rule ids billed; each thread walks them from its own offset, so
/// first bills of one id race across threads.
const RULES: u64 = 600;

/// The cost round `r` of thread `t` bills, and the account it bills.
fn bill_of(t: u64, r: u64) -> (Option<u32>, CostSnapshot) {
    let rule = (!r.is_multiple_of(9)).then(|| ((r + t * 150) % RULES) as u32);
    let cost = CostSnapshot {
        ibs_nodes: 1 + (r + t) % 17,
        residual_tests: r % 5,
        firings: 1,
        ..CostSnapshot::default()
    };
    (rule, cost)
}

#[test]
fn minting_under_the_ledger_lock_finishes_and_partitions_exactly() {
    let registry = Arc::new(Registry::new());
    let profiler = Profiler::new(&registry);
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (registry, profiler) = (Arc::clone(&registry), profiler.clone());
            thread::spawn(move || {
                let nodes = registry.counter("predindex_ibs_nodes_visited_total");
                let tests = registry.counter("predindex_residual_tests_total");
                let fired = registry.counter("rules_fired_total");
                for r in 0..ROUNDS {
                    let (rule, cost) = bill_of(t, r);
                    profiler.bill(rule, &cost);
                    nodes.add(cost.ibs_nodes);
                    tests.add(cost.residual_tests);
                    fired.add(cost.firings);
                    profiler.name_rule(((r * 7 + t) % RULES) as u32, &format!("rule-{r}"));
                    match r % 128 {
                        0 => assert!(profiler.accounts().len() <= RULES as usize + 1),
                        32 => assert!(profiler.profile_json(&registry).contains("\"accounts\"")),
                        64 => assert!(registry.render_text().contains("rules_fired_total")),
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
            let (rule, cost) = bill_of(t, r);
            expected.add(&cost);
            rules.insert(rule);
        }
    }
    assert_eq!(profiler.bills(), THREADS * ROUNDS);
    let accounts = profiler.accounts();
    assert_eq!(accounts.len(), rules.len(), "one account per rule billed");
    let mut billed = CostSnapshot::default();
    accounts.iter().for_each(|a| billed.add(&a.cost));
    assert_eq!(billed, expected);
    for (family, global, total) in [
        (
            "profile_rule_ibs_nodes_total",
            "predindex_ibs_nodes_visited_total",
            expected.ibs_nodes,
        ),
        (
            "profile_rule_residual_tests_total",
            "predindex_residual_tests_total",
            expected.residual_tests,
        ),
        (
            "profile_rule_firings_total",
            "rules_fired_total",
            expected.firings,
        ),
    ] {
        assert_eq!(registry.counter_value(global), Some(total), "{global}");
        assert_eq!(registry.counter_family_total(family), total, "{family}");
    }
}
