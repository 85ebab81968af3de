//! Predicate remove → reinsert churn against the sharded index:
//! id allocation must stay monotone (ids are never recycled) and
//! [`Matcher::len`] — the sum over the shards — must equal the live
//! predicate set at every step.

use predicate::parse_predicate;
use predindex::{Matcher, PredicateId, ShardedPredicateIndex};
use relation::{AttrType, Database, Schema, Value};

fn db() -> Database {
    let mut db = Database::new();
    for name in ["emp", "dept", "proj"] {
        db.create_relation(
            Schema::builder(name)
                .attr("a", AttrType::Int)
                .attr("b", AttrType::Int)
                .build(),
        )
        .unwrap();
    }
    db
}

fn assert_counters(index: &ShardedPredicateIndex, live: usize) {
    assert_eq!(Matcher::len(index), live);
}

#[test]
fn churn_never_reuses_ids_and_keeps_counters_consistent() {
    let mut db = db();
    let index = ShardedPredicateIndex::new();
    let rels = ["emp", "dept", "proj"];

    let mut max_seen: Option<u32> = None;
    let mut live: Vec<(PredicateId, String, i64)> = Vec::new();

    // Rounds of insert-heavy churn: add three predicates per round,
    // remove every other live predicate, reinsert one of the removed
    // sources verbatim.
    for round in 0..12i64 {
        for (j, rel) in rels.iter().enumerate() {
            let lo = round * 3 + j as i64;
            let id = index
                .insert_shared(
                    parse_predicate(&format!("{rel}.a > {lo}")).unwrap(),
                    db.catalog(),
                )
                .unwrap();
            // Strictly increasing across the whole history.
            assert!(max_seen.is_none_or(|m| id.0 > m), "id {id:?} reused");
            max_seen = Some(id.0);
            live.push((id, rel.to_string(), lo));
        }
        assert_counters(&index, live.len());

        let mut removed_src = None;
        let mut k = 0;
        live.retain(|(id, rel, lo)| {
            k += 1;
            if k % 2 == 0 {
                assert!(index.remove_shared(*id).is_some());
                removed_src = Some(format!("{rel}.a > {lo}"));
                false
            } else {
                true
            }
        });
        assert_counters(&index, live.len());

        if let Some(src) = removed_src {
            let id = index
                .insert_shared(parse_predicate(&src).unwrap(), db.catalog())
                .unwrap();
            assert!(max_seen.is_none_or(|m| id.0 > m), "id {id:?} reused");
            max_seen = Some(id.0);
            let p = parse_predicate(&src).unwrap();
            live.push((id, p.relation().to_string(), 0));
            // Re-derive the bound from the source for matching checks.
            let lo: i64 = src.rsplit(' ').next().unwrap().parse().unwrap();
            live.last_mut().unwrap().2 = lo;
        }
        assert_counters(&index, live.len());
    }

    // Matching reflects exactly the live set, not churn history.
    for probe in [-1i64, 0, 5, 17, 40] {
        for rel in rels {
            let t = db
                .insert(rel, vec![Value::Int(probe), Value::Int(0)])
                .unwrap();
            let mut got = index.match_tuple(rel, &t);
            got.sort_by_key(|id| id.0);
            let mut want: Vec<PredicateId> = live
                .iter()
                .filter(|(_, r, lo)| r == rel && probe > *lo)
                .map(|(id, _, _)| *id)
                .collect();
            want.sort_by_key(|id| id.0);
            assert_eq!(got, want, "wrong matches for {rel}.a = {probe}");
        }
    }

    // Remove everything: the index must report fully empty again.
    for (id, _, _) in live.drain(..) {
        assert!(index.remove_shared(id).is_some());
        // Double-remove is a no-op.
        assert!(index.remove_shared(id).is_none());
    }
    assert_counters(&index, 0);
    assert!(Matcher::is_empty(&index));

    // And the index is still usable after total churn, with ids still
    // monotonically increasing past everything ever allocated.
    let id = index
        .insert_shared(parse_predicate("emp.a > 0").unwrap(), db.catalog())
        .unwrap();
    assert!(id.0 > max_seen.unwrap());
    let t = db
        .insert("emp", vec![Value::Int(1), Value::Int(0)])
        .unwrap();
    assert_eq!(index.match_tuple("emp", &t), vec![id]);
}
