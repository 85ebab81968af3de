//! §2.2: hash on relation name plus sequential search.
//!
//! "This is essentially the algorithm used in many main-memory-based
//! production rule systems including some implementations of OPS5. The
//! algorithm performs well when the average number of predicates per
//! relation is small, and the predicates are distributed evenly over the
//! relations."

use crate::matcher::{IndexError, Matcher, PredicateId, PredicateStore};
use predicate::Predicate;
use relation::fx::FnvHashMap;
use relation::{Catalog, Tuple};

/// One predicate list per relation, located by hashing the relation
/// name; the list is then scanned sequentially.
#[derive(Debug, Clone, Default)]
pub struct HashSequentialMatcher {
    pub(super) store: PredicateStore,
    by_relation: FnvHashMap<String, Vec<PredicateId>>,
}

impl HashSequentialMatcher {
    /// An empty matcher.
    pub fn new() -> Self {
        HashSequentialMatcher::default()
    }
}

impl Matcher for HashSequentialMatcher {
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError> {
        let (id, stored) = self.store.register(pred, catalog)?;
        let relation = stored.bound.relation().to_string();
        self.by_relation.entry(relation).or_default().push(id);
        Ok(id)
    }

    fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        let stored = self.store.unregister(id)?;
        if let Some(list) = self.by_relation.get_mut(stored.bound.relation()) {
            list.retain(|&p| p != id);
        }
        Some(stored.source)
    }

    fn match_tuple(&self, relation: &str, tuple: &Tuple) -> Vec<PredicateId> {
        let Some(list) = self.by_relation.get(relation) else {
            return Vec::new();
        };
        let mut out: Vec<PredicateId> = list
            .iter()
            .copied()
            .filter(|&id| self.store.full_match(id, tuple))
            .collect();
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn strategy(&self) -> &'static str {
        "hash+sequential"
    }
}
