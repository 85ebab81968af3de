//! The §2 baseline matching strategies, in the paper's order of
//! increasing complexity.

mod hash_seq;
mod locking;
mod rtree_matcher;
mod sequential;

pub use hash_seq::HashSequentialMatcher;
pub use locking::PhysicalLockingMatcher;
pub use rtree_matcher::RTreeMatcher;
pub use sequential::SequentialMatcher;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{IndexError, Matcher, PredicateId, PredicateStore};
    use predicate::parse_predicate;
    use relation::{AttrType, Database, Schema, Value};

    /// Inserts one predicate into `m`, drives its store to the last id,
    /// and checks that further inserts are refused with nothing stored:
    /// a wrapped counter would hand out id 0 again and overwrite it.
    fn refuses_the_last_id<M: Matcher>(mut m: M, store: fn(&mut M) -> &mut PredicateStore) {
        let mut db = Database::new();
        db.create_relation(Schema::builder("emp").attr("a", AttrType::Int).build())
            .unwrap();
        let pred = |lo: i64| parse_predicate(&format!("emp.a > {lo}")).unwrap();
        let first = m.insert(pred(0), db.catalog()).unwrap();
        assert_eq!(first, PredicateId(0), "{}", m.strategy());

        store(&mut m).set_next(u32::MAX);
        for _ in 0..2 {
            assert_eq!(
                m.insert(pred(5), db.catalog()),
                Err(IndexError::IdsExhausted),
                "{}",
                m.strategy()
            );
        }
        assert_eq!(m.len(), 1, "{}", m.strategy());
        let t = db.insert("emp", vec![Value::Int(9)]).unwrap();
        assert_eq!(m.match_tuple("emp", &t), vec![first], "{}", m.strategy());
        assert_eq!(m.remove(first), Some(pred(0)), "{}", m.strategy());
    }

    #[test]
    fn exhausted_ids_are_an_error_not_a_wrap() {
        refuses_the_last_id(SequentialMatcher::new(), |m| &mut m.store);
        refuses_the_last_id(HashSequentialMatcher::new(), |m| &mut m.store);
        refuses_the_last_id(PhysicalLockingMatcher::new(), |m| &mut m.store);
        refuses_the_last_id(RTreeMatcher::new(), |m| &mut m.store);
    }
}
