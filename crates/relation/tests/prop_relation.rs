//! Property tests on the relational substrate: total-order axioms for
//! [`Value`] and relation storage round-trips.

use proptest::prelude::*;
use relation::{AttrType, Relation, Schema, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1000i64..1000).prop_map(|i| Value::Float(i as f64 / 4.0)),
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
            .prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Ord` on Value is a total order: antisymmetric, transitive, and
    /// consistent with `Eq` — even with NaN and mixed types in play.
    #[test]
    fn value_order_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Consistency with Eq.
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        // Transitivity (check via sorted triple).
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2]);
        prop_assert!(v[0] <= v[2]);
        // Reflexivity.
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    /// Equal values hash equally.
    #[test]
    fn value_hash_consistent_with_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// The lossy f64 image is monotone (never inverts an ordering),
    /// which is what the R-tree baseline's correctness rests on.
    #[test]
    fn lossy_f64_is_monotone(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        let (va, vb) = (Value::Int(a), Value::Int(b));
        if va < vb {
            prop_assert!(va.as_f64_lossy() <= vb.as_f64_lossy());
        }
    }

    /// Same for strings (prefix order).
    #[test]
    fn lossy_f64_strings_monotone(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        let (va, vb) = (Value::str(a), Value::str(b));
        if va < vb {
            prop_assert!(va.as_f64_lossy() <= vb.as_f64_lossy());
        }
    }

    /// Relation storage: insert/update/delete round-trips arbitrary
    /// value sequences and keeps ids stable.
    #[test]
    fn relation_storage_round_trip(rows in prop::collection::vec((any::<i64>(), "[a-z]{0,5}"), 1..40)) {
        let mut r = Relation::new(
            Schema::builder("t")
                .attr("n", AttrType::Int)
                .attr("s", AttrType::Str)
                .build(),
        );
        let mut ids = Vec::new();
        for (n, s) in &rows {
            let id = r.insert(vec![Value::Int(*n), Value::str(s.clone())]).unwrap();
            ids.push(id);
        }
        prop_assert_eq!(r.len(), rows.len());
        for (id, (n, s)) in ids.iter().zip(&rows) {
            let t = r.get(*id).unwrap();
            prop_assert_eq!(t.get(0), &Value::Int(*n));
            prop_assert_eq!(t.get(1), &Value::str(s.clone()));
        }
        // Delete every other row; survivors stay addressable.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                r.delete(*id).unwrap();
            }
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                prop_assert!(r.get(*id).is_some());
            } else {
                prop_assert!(r.get(*id).is_none());
            }
        }
    }
}
