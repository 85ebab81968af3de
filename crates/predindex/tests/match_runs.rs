//! The batch match body against the batch of one: matching a level's
//! runs of same-relation tuples with `PredicateIndex::match_run_into`
//! (each IBS-tree stabbed by up to `LANES` tuples in lock-step) must
//! give every tuple the ids, the range and the counts that one
//! `match_tuple_into` call per tuple gives.
//!
//! Each seed registers random predicates — ranges and points on every
//! attribute, conjunctions whose residual the tree candidates run, and
//! opaque-only predicates sharing clause sets (the non-indexable
//! groups) — on two relations, and matches levels that mix them with a
//! relation no predicate names, in runs longer and shorter than a
//! group, with some tuples shorter than the schema. Two indexes hold
//! the same predicates under separate telemetry: one matches tuple by
//! tuple, the other run by run, and afterwards every counter of their
//! registries must read the same.
//! `HashSequentialMatcher` checks the ids themselves. The work each
//! tuple's callback is handed must add up to the counters too, and be
//! the same whether the tuple stabbed in a lock-step group or alone.

use predicate::parse_predicate;
use predindex::{HashSequentialMatcher, MatchLanes, Matcher, PredicateId, PredicateIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, Tuple, Value};
use std::ops::Range;
use std::sync::Arc;
use telemetry::{CostSnapshot, Registry, StageClock, Telemetry};

const RELS: [&str; 3] = ["emp", "item", "ghost"];
const ATTRS: [&str; 3] = ["a", "b", "c"];

fn test_db() -> Database {
    let mut db = Database::new();
    for rel in RELS {
        let schema = ATTRS
            .iter()
            .fold(Schema::builder(rel), |s, a| s.attr(*a, AttrType::Int));
        db.create_relation(schema.build()).expect("fresh relation");
    }
    db
}

/// One random condition over `emp` or `item` (never `ghost`).
fn condition(rng: &mut StdRng) -> String {
    let rel = RELS[rng.gen_range(0..2)];
    let attr = |rng: &mut StdRng| ATTRS[rng.gen_range(0..3)];
    let range = |rng: &mut StdRng| {
        let x = attr(rng);
        let lo = rng.gen_range(0..40);
        match rng.gen_range(0..4) {
            0 => format!("{rel}.{x} = {lo}"),
            1 => format!("{rel}.{x} < {lo}"),
            2 => format!("{rel}.{x} > {lo}"),
            _ => format!("{lo} <= {rel}.{x} <= {}", lo + rng.gen_range(0..12)),
        }
    };
    let opaque = |rng: &mut StdRng| {
        let f = ["isodd", "iseven"][rng.gen_range(0..2)];
        format!("{f}({rel}.{})", attr(rng))
    };
    match rng.gen_range(0..10) {
        0..4 => range(rng),
        4..6 => format!("{} and {}", range(rng), range(rng)),
        6..8 => format!("{} and {}", range(rng), opaque(rng)),
        8 => opaque(rng),
        _ => format!("{} and {}", opaque(rng), opaque(rng)),
    }
}

/// A level of `(relation, tuple)`: runs of random length on random
/// relations, about one tuple in eight shorter than the schema.
fn level(rng: &mut StdRng) -> Vec<(&'static str, Tuple)> {
    let mut level = Vec::new();
    while level.len() < 60 {
        let rel = RELS[rng.gen_range(0..3)];
        let run = match rng.gen_range(0..4) {
            0 => 1,
            1 => rng.gen_range(2..16),
            _ => rng.gen_range(16..40),
        };
        for _ in 0..run {
            let arity = if rng.gen_range(0..8) == 0 {
                rng.gen_range(0..3)
            } else {
                3
            };
            let values = (0..arity)
                .map(|_| Value::Int(rng.gen_range(-2..45)))
                .collect();
            level.push((rel, Tuple::new(values)));
        }
    }
    level
}

/// The §5.2 terms `registry`'s match-path counters have added up.
fn counted(registry: &Registry) -> CostSnapshot {
    let c = |name: &str| registry.counter_value(name).unwrap_or(0);
    CostSnapshot {
        ibs_nodes: c("predindex_ibs_nodes_visited_total"),
        ibs_marks: c("predindex_ibs_marks_scanned_total"),
        residual_tests: c("predindex_residual_tests_total"),
        residual_passes: c("predindex_residual_passes_total"),
        non_indexable: c("predindex_non_indexable_scanned_total"),
        ..CostSnapshot::default()
    }
}

/// An index holding `conditions`, counting into its own registry.
fn counted_index(db: &Database, conditions: &[String]) -> (PredicateIndex, Telemetry) {
    let mut index = PredicateIndex::new();
    for c in conditions {
        index
            .insert(parse_predicate(c).expect("parses"), db.catalog())
            .expect("binds");
    }
    let telemetry = Telemetry::new(Arc::new(Registry::new()));
    index.attach_metrics(telemetry.clone());
    (index, telemetry)
}

#[test]
fn runs_match_like_one_tuple_at_a_time() {
    let db = test_db();
    for seed in 0..40 {
        let mut rng = StdRng::seed_from_u64(seed);
        let conditions: Vec<String> = (0..rng.gen_range(1..120))
            .map(|_| condition(&mut rng))
            .collect();
        let (single, single_telemetry) = counted_index(&db, &conditions);
        let (batched, batched_telemetry) = counted_index(&db, &conditions);
        let (lone, lone_telemetry) = counted_index(&db, &conditions);
        let (mut batched_sum, mut lone_sum) = (CostSnapshot::default(), CostSnapshot::default());
        let mut oracle = HashSequentialMatcher::new();
        for c in &conditions {
            oracle
                .insert(parse_predicate(c).expect("parses"), db.catalog())
                .expect("binds");
        }

        // One scratch for every level, as the rule engine keeps one.
        let mut lanes = MatchLanes::default();
        let clock = &mut StageClock::start(true);
        for _ in 0..4 {
            let level = level(&mut rng);
            let mut one = Vec::new();
            let mut one_bounds: Vec<Range<usize>> = Vec::new();
            for (rel, tuple) in &level {
                let from = one.len();
                single.match_tuple_into(rel, tuple, &mut one);
                one_bounds.push(from..one.len());
            }
            let mut run_ids = vec![PredicateId(u32::MAX)];
            let mut run_bounds: Vec<Range<usize>> = Vec::new();
            let mut run_work = Vec::new();
            for run in level.chunk_by(|a, b| a.0 == b.0) {
                let tuples = run.iter().map(|(_, t)| t);
                batched.match_run_into(
                    run[0].0,
                    tuples,
                    &mut lanes,
                    &mut run_ids,
                    clock,
                    |r, w| {
                        run_bounds.push(r.start - 1..r.end - 1);
                        run_work.push(*w);
                    },
                );
            }
            assert_eq!(run_ids[0], PredicateId(u32::MAX), "seed {seed}: prefix");
            assert_eq!(&run_ids[1..], &one[..], "seed {seed}: ids");
            assert_eq!(run_bounds, one_bounds, "seed {seed}: bounds");
            // Each tuple alone, as a run of one: one-lane stabs.
            let (mut lone_ids, mut lone_work) = (Vec::<PredicateId>::new(), Vec::new());
            for (rel, tuple) in &level {
                lone.match_run_into(rel, [tuple], &mut lanes, &mut lone_ids, clock, |_, w| {
                    lone_work.push(*w)
                });
            }
            assert_eq!(lone_ids, one, "seed {seed}: one-lane ids");
            assert_eq!(lone_work, run_work, "seed {seed}: per-tuple work");
            run_work.iter().for_each(|w| batched_sum.add(w));
            lone_work.iter().for_each(|w| lone_sum.add(w));
            for ((rel, tuple), bounds) in level.iter().zip(&one_bounds) {
                let mut want = oracle.match_tuple(rel, tuple);
                want.sort_unstable();
                assert_eq!(&one[bounds.clone()], &want[..], "seed {seed}: {rel}{tuple}");
            }
        }
        let (registry_a, registry_b) = (single_telemetry.registry(), batched_telemetry.registry());
        assert!(registry_a.names().len() > 3, "seed {seed}: nothing counted");
        assert_eq!(registry_a.names(), registry_b.names(), "seed {seed}");
        for name in registry_a.names() {
            assert_eq!(
                registry_a.counter_value(&name),
                registry_b.counter_value(&name),
                "seed {seed}: {name}"
            );
            assert_eq!(
                registry_a.histogram_totals(&name),
                registry_b.histogram_totals(&name),
                "seed {seed}: {name}"
            );
        }
        // The work handed out adds up to what the counters counted, in
        // lock-step groups and in one-lane stabs alike.
        assert_eq!(batched_sum, counted(registry_b), "seed {seed}: group work");
        assert_eq!(
            lone_sum,
            counted(lone_telemetry.registry()),
            "seed {seed}: lone work"
        );
        assert_eq!(
            lone_sum,
            counted(registry_a),
            "seed {seed}: per-tuple counters"
        );
        // The clock lapped the stab and residual stages of every group.
        assert!(clock.record().total() > 0, "seed {seed}: no laps");
    }
}

#[test]
fn a_run_without_predicates_still_counts_its_tuples() {
    let db = test_db();
    let (index, telemetry) = counted_index(&db, &["emp.a > 3".to_string()]);
    let tuples: Vec<Tuple> = (0..20).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
    let mut out: Vec<PredicateId> = Vec::new();
    let mut ranges = Vec::new();
    index.match_run_into(
        "ghost",
        &tuples,
        &mut MatchLanes::default(),
        &mut out,
        &mut StageClock::default(),
        |r, w| {
            assert_eq!(*w, CostSnapshot::default());
            ranges.push(r)
        },
    );
    assert!(out.is_empty());
    assert_eq!(ranges, vec![0..0; 20]);
    let registry = telemetry.registry();
    assert_eq!(
        registry.counter_value("predindex_match_tuples_total"),
        Some(20)
    );
    assert_eq!(
        registry.counter_value("predindex_relation_matches_total{relation=\"ghost\"}"),
        Some(20)
    );
}
