//! Integration: the alpha-memory layer (`MatchMemory`) stays consistent
//! with ground truth while the database churns — the §6 "first layer of
//! a two-layer network" contract.

use predmatch::predindex::{MatchMemory, Matcher, PredicateIndex};
use predmatch::prelude::*;
use predmatch::relation::{TupleEvent, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ground_truth(
    db: &Database,
    index: &PredicateIndex,
    pred: predmatch::predindex::PredicateId,
) -> Vec<TupleId> {
    let source = index.get(pred).expect("registered predicate");
    let rel = db
        .catalog()
        .relation(source.relation())
        .expect("relation exists");
    let bound = source
        .bind(rel.schema())
        .expect("it bound when it was inserted");
    bound.scan(rel).map(|(tid, _)| tid).collect()
}

#[test]
fn memory_tracks_random_churn() {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("m")
            .attr("a", AttrType::Int)
            .attr("b", AttrType::Int)
            .build(),
    )
    .unwrap();

    let mut index = PredicateIndex::new();
    let preds: Vec<_> = [
        "m.a < 250",
        "250 <= m.a < 750",
        "m.a >= 750",
        "m.b = 7",
        "m.a > 100 and m.b < 50",
    ]
    .iter()
    .map(|s| {
        index
            .insert(parse_predicate(s).unwrap(), db.catalog())
            .unwrap()
    })
    .collect();

    let mut mem = MatchMemory::new();
    let mut live: Vec<TupleId> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xa1fa);

    for step in 0..1_500 {
        let roll = rng.gen_range(0..10);
        let ev: TupleEvent = if live.is_empty() || roll < 5 {
            let ev = db
                .insert_event(
                    "m",
                    vec![
                        Value::Int(rng.gen_range(0..1000)),
                        Value::Int(rng.gen_range(0..100)),
                    ],
                )
                .unwrap();
            if let TupleEvent::Inserted { id, .. } = &ev {
                live.push(*id);
            }
            ev
        } else if roll < 8 {
            let id = live[rng.gen_range(0..live.len())];
            db.update_event(
                "m",
                id,
                vec![
                    Value::Int(rng.gen_range(0..1000)),
                    Value::Int(rng.gen_range(0..100)),
                ],
            )
            .unwrap()
        } else {
            let k = rng.gen_range(0..live.len());
            let id = live.swap_remove(k);
            db.delete_event("m", id).unwrap()
        };
        mem.apply(&index, &ev);

        if step % 100 == 99 {
            for &p in &preds {
                let want = ground_truth(&db, &index, p);
                let got: Vec<TupleId> = mem.matches_of(p).collect();
                assert_eq!(got, want, "predicate {p} diverged at step {step}");
            }
        }
    }
    // Final full check.
    let total: usize = preds.iter().map(|&p| mem.count(p)).sum();
    assert_eq!(
        total,
        preds
            .iter()
            .map(|&p| ground_truth(&db, &index, p).len())
            .sum::<usize>()
    );
}

#[test]
fn memory_seed_after_late_registration() {
    // Registering a predicate late: seed its memory from a scan, then
    // keep maintaining incrementally.
    let mut db = Database::new();
    db.create_relation(Schema::builder("m").attr("a", AttrType::Int).build())
        .unwrap();
    for i in 0..100i64 {
        db.insert("m", vec![Value::Int(i)]).unwrap();
    }
    let mut index = PredicateIndex::new();
    let p = index
        .insert(parse_predicate("m.a < 10").unwrap(), db.catalog())
        .unwrap();

    let mut mem = MatchMemory::new();
    // Seed: replay existing tuples as synthetic insert events.
    let seeds: Vec<TupleEvent> = db
        .catalog()
        .relation("m")
        .unwrap()
        .iter()
        .map(|(tid, t)| TupleEvent::Inserted {
            relation: "m".into(),
            id: tid,
            tuple: t.clone(),
        })
        .collect();
    for ev in seeds {
        mem.apply(&index, &ev);
    }
    assert_eq!(mem.count(p), 10);

    // Incremental from here.
    let ev = db.insert_event("m", vec![Value::Int(5)]).unwrap();
    mem.apply(&index, &ev);
    assert_eq!(mem.count(p), 11);
}
