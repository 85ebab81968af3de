//! Differential testing across every matching strategy.
//!
//! All five matchers implement the same contract ("determine exactly
//! those P_i's that match t"), so on any predicate set and any tuple
//! they must return identical id sets. Random schemas, random predicate
//! programs (including conjunctions, function clauses, shared
//! attributes, inserts and removals), random tuples.

use interval::{Interval, Lower, Upper};
use predicate::{Clause, FunctionRegistry, Predicate};
use predindex::{
    HashSequentialMatcher, Matcher, PhysicalLockingMatcher, PredicateId, PredicateIndex,
    RTreeMatcher, SequentialMatcher, ShardedPredicateIndex,
};
use proptest::prelude::*;
use relation::{AttrType, Database, Schema, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use telemetry::{Registry, Telemetry};

const RELS: [&str; 2] = ["emp", "item"];
const INT_ATTRS: [&str; 3] = ["a", "b", "c"];

fn test_db() -> Database {
    let mut db = Database::new();
    for rel in RELS {
        db.create_relation(
            Schema::builder(rel)
                .attr("a", AttrType::Int)
                .attr("b", AttrType::Int)
                .attr("c", AttrType::Int)
                .attr("tag", AttrType::Str)
                .build(),
        )
        .unwrap();
    }
    db
}

fn arb_value_interval() -> impl Strategy<Value = Interval<Value>> {
    let k = 0i64..50;
    prop_oneof![
        2 => k.clone().prop_map(|v| Interval::point(Value::Int(v))),
        3 => (k.clone(), k.clone(), any::<(bool, bool)>()).prop_filter_map(
            "non-empty",
            |(a, b, (li, hi))| {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                let lo = if li { Lower::Inclusive(Value::Int(a)) } else { Lower::Exclusive(Value::Int(a)) };
                let up = if hi { Upper::Inclusive(Value::Int(b)) } else { Upper::Exclusive(Value::Int(b)) };
                Interval::new(lo, up).ok()
            }
        ),
        1 => k.clone().prop_map(|v| Interval::at_least(Value::Int(v))),
        1 => k.prop_map(|v| Interval::less_than(Value::Int(v))),
    ]
}

fn arb_clause() -> impl Strategy<Value = Clause> {
    prop_oneof![
        6 => (0usize..3, arb_value_interval()).prop_map(|(a, interval)| Clause::Range {
            attr: INT_ATTRS[a].to_string(),
            interval,
        }),
        1 => (0usize..3).prop_map(|a| {
            let reg = FunctionRegistry::default();
            Clause::Func {
                name: "isodd".into(),
                attr: INT_ATTRS[a].to_string(),
                func: reg.get("isodd").expect("builtin"),
            }
        }),
        1 => prop::collection::vec(0u8..26, 1..3).prop_map(|chars| {
            let s: String = chars.iter().map(|c| (b'a' + c) as char).collect();
            Clause::Range {
                attr: "tag".into(),
                interval: Interval::point(Value::str(s)),
            }
        }),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (0usize..2, prop::collection::vec(arb_clause(), 1..4))
        .prop_map(|(r, clauses)| Predicate::new(RELS[r], clauses))
}

fn arb_tuple() -> impl Strategy<Value = (usize, Tuple)> {
    (
        0usize..2,
        0i64..50,
        0i64..50,
        0i64..50,
        prop::collection::vec(0u8..26, 1..3),
    )
        .prop_map(|(r, a, b, c, chars)| {
            let s: String = chars.iter().map(|c| (b'a' + c) as char).collect();
            (
                r,
                Tuple::new(vec![
                    Value::Int(a),
                    Value::Int(b),
                    Value::Int(c),
                    Value::str(s),
                ]),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_strategies_agree(
        preds in prop::collection::vec(arb_predicate(), 1..25),
        removals in prop::collection::vec(0usize..25, 0..8),
        tuples in prop::collection::vec(arb_tuple(), 1..15),
    ) {
        let db = test_db();
        let mut matchers: Vec<Box<dyn Matcher>> = vec![
            Box::new(PredicateIndex::new()),
            Box::new(SequentialMatcher::new()),
            Box::new(HashSequentialMatcher::new()),
            Box::new(PhysicalLockingMatcher::new()),
            Box::new(PhysicalLockingMatcher::with_indexed_attrs(
                db.catalog(),
                [("emp", "a"), ("item", "b")],
            )),
            Box::new(RTreeMatcher::new()),
            Box::new(ShardedPredicateIndex::new()),
            Box::new(ShardedPredicateIndex::with_shards(1)),
        ];

        let mut ids: Vec<PredicateId> = Vec::new();
        for p in &preds {
            let mut got: Option<PredicateId> = None;
            for m in matchers.iter_mut() {
                let id = m.insert(p.clone(), db.catalog()).expect("valid predicate");
                match got {
                    None => got = Some(id),
                    Some(prev) => prop_assert_eq!(prev, id, "id assignment must agree"),
                }
            }
            ids.push(got.expect("at least one matcher"));
        }
        for &r in &removals {
            if ids.is_empty() { break; }
            let id = ids.remove(r % ids.len());
            for m in matchers.iter_mut() {
                prop_assert!(m.remove(id).is_some(), "{}", m.strategy());
            }
        }

        for (r, t) in &tuples {
            let expected = matchers[1].match_tuple(RELS[*r], t); // sequential = oracle
            for m in &matchers {
                let got = m.match_tuple(RELS[*r], t);
                prop_assert_eq!(
                    &got, &expected,
                    "strategy {} diverged on {:?}", m.strategy(), t
                );
            }
        }
    }

    /// The concurrent front-end against the paper's index, at one shard
    /// and at N: both are the same index core, so after the same
    /// insert/remove/match script they must agree on everything the
    /// core does — id assignment, match sets, every `predindex_*`
    /// counter (lock waits aside: only the sharded front-end locks) and
    /// every workload account. The index spawns no threads, so the
    /// concurrency is the test's own: 1, 2 and 4 scoped callers of
    /// `match_tuple_into` share each front-end through `&self`.
    #[test]
    fn sharded_batch_matches_sequential_index(
        preds in prop::collection::vec(arb_predicate(), 1..30),
        removals in prop::collection::vec(0usize..30, 0..10),
        tuples in prop::collection::vec(arb_tuple(), 1..40),
        shards in 2usize..9,
    ) {
        let db = test_db();
        let enabled = || Telemetry::new(Arc::new(Registry::new())).with_workload_accounts();
        let seq_telemetry = enabled();
        let mut seq = PredicateIndex::new();
        seq.attach_metrics(seq_telemetry.clone());
        let fronts: Vec<(ShardedPredicateIndex, Telemetry)> = [1, shards]
            .into_iter()
            .map(|n| {
                let telemetry = enabled();
                let mut index = ShardedPredicateIndex::with_shards(n);
                index.attach_metrics(telemetry.clone());
                (index, telemetry)
            })
            .collect();

        let mut ids: Vec<PredicateId> = Vec::new();
        for p in &preds {
            let a = seq.insert(p.clone(), db.catalog()).expect("valid predicate");
            for (sharded, _) in &fronts {
                let b = sharded.insert_shared(p.clone(), db.catalog()).expect("valid predicate");
                prop_assert_eq!(a, b, "id assignment must agree");
            }
            ids.push(a);
        }
        for &r in &removals {
            if ids.is_empty() { break; }
            let id = ids.remove(r % ids.len());
            prop_assert!(seq.remove(id).is_some());
            for (sharded, _) in &fronts {
                prop_assert!(sharded.remove_shared(id).is_some());
            }
        }

        let batch: Vec<(&str, &Tuple)> =
            tuples.iter().map(|(r, t)| (RELS[*r], t)).collect();
        // One sequential pass and one concurrent pass per front-end per
        // round, so the accounts must be equal after every round.
        for callers in [1usize, 2, 4] {
            let expected: Vec<Vec<PredicateId>> = batch
                .iter()
                .map(|(r, t)| seq.match_tuple(r, t))
                .collect();
            for (sharded, telemetry) in &fronts {
                let n = sharded.shard_count();
                let mut got: Vec<Vec<PredicateId>> = vec![Vec::new(); batch.len()];
                let chunk = batch.len().div_ceil(callers);
                std::thread::scope(|scope| {
                    for (items, slots) in batch.chunks(chunk).zip(got.chunks_mut(chunk)) {
                        scope.spawn(move || {
                            for ((r, t), slot) in items.iter().zip(slots) {
                                sharded.match_tuple_into(r, t, slot);
                            }
                        });
                    }
                });
                prop_assert_eq!(
                    &got, &expected,
                    "{} caller(s) diverged at {} shard(s)", callers, n
                );
                prop_assert_eq!(
                    core_counters(telemetry), core_counters(&seq_telemetry),
                    "counters diverged at {} shard(s)", n
                );
                prop_assert_eq!(
                    telemetry.workload().lifetime(), seq_telemetry.workload().lifetime(),
                    "workload accounts diverged at {} shard(s)", n
                );
            }
        }
    }
}

/// Every `predindex_*` counter in the handle's registry except the
/// lock-wait families, by name.
fn core_counters(telemetry: &Telemetry) -> BTreeMap<String, u64> {
    let registry = telemetry.registry();
    registry
        .names()
        .into_iter()
        .filter(|n| n.starts_with("predindex_") && !n.contains("lock_wait"))
        .filter_map(|n| registry.counter_value(&n).map(|v| (n, v)))
        .collect()
}
