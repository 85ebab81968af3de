//! §2.1: pure sequential search.
//!
//! "The system traverses a list of predicates sequentially, testing each
//! against the tuple. This has low overhead and works well for small
//! numbers of predicates, but clearly performs badly when the number of
//! predicates is large."

use crate::matcher::{IndexError, Matcher, PredicateId, PredicateStore};
use predicate::Predicate;
use relation::{Catalog, Tuple};

/// One flat list of every predicate in the system; the relation-name
/// check is just the leading conjunct of each predicate test.
#[derive(Debug, Clone, Default)]
pub struct SequentialMatcher {
    pub(super) store: PredicateStore,
    order: Vec<PredicateId>,
}

impl SequentialMatcher {
    /// An empty matcher.
    pub fn new() -> Self {
        SequentialMatcher::default()
    }
}

impl Matcher for SequentialMatcher {
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError> {
        let (id, _) = self.store.register(pred, catalog)?;
        self.order.push(id);
        Ok(id)
    }

    fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        let stored = self.store.unregister(id)?;
        self.order.retain(|&p| p != id);
        Some(stored.source)
    }

    fn match_tuple(&self, relation: &str, tuple: &Tuple) -> Vec<PredicateId> {
        let mut out: Vec<PredicateId> = self
            .order
            .iter()
            .copied()
            .filter(|&id| {
                let p = self
                    .store
                    .get(id)
                    .expect("order and store are updated together");
                p.bound.relation() == relation && p.bound.matches(tuple)
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn strategy(&self) -> &'static str {
        "sequential"
    }
}
