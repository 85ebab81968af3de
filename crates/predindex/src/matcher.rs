//! The common interface all predicate-matching strategies implement,
//! plus the baselines' predicate store (the paper's `PREDICATES` table).

use predicate::{BindError, BoundPredicate, Predicate};
use relation::fx::FnvHashMap;
use relation::{Catalog, Tuple};
use std::fmt;

/// Identifier of a registered predicate. The same id doubles as the
/// interval id inside whichever index structure holds the predicate's
/// indexed clause.
pub use interval::IntervalId as PredicateId;

/// Errors from predicate registration.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// The predicate's relation is not in the catalog.
    NoSuchRelation(String),
    /// Attribute resolution / typing failed.
    Bind(BindError),
    /// Every `u32` predicate id has been handed out. Ids are never
    /// reused, so the index refuses further registrations rather than
    /// wrap onto a live `PREDICATES` entry.
    IdsExhausted,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::NoSuchRelation(r) => write!(f, "no relation named {r:?}"),
            IndexError::Bind(e) => write!(f, "{e}"),
            IndexError::IdsExhausted => write!(f, "predicate ids exhausted"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<BindError> for IndexError {
    fn from(e: BindError) -> Self {
        IndexError::Bind(e)
    }
}

/// One strategy for the paper's predicate testing problem: "given the
/// collection of predicates ... and a tuple t, determine exactly those
/// P_i's that match t".
pub trait Matcher {
    /// Registers a predicate; binding happens against `catalog`.
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError>;

    /// Unregisters a predicate, returning its source form.
    fn remove(&mut self, id: PredicateId) -> Option<Predicate>;

    /// Exactly the registered predicates matching `tuple` (which belongs
    /// to `relation`), as sorted ids.
    fn match_tuple(&self, relation: &str, tuple: &Tuple) -> Vec<PredicateId>;

    /// Number of registered predicates.
    fn len(&self) -> usize;

    /// Is the matcher empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable strategy name (for benches and reports).
    fn strategy(&self) -> &'static str;
}

/// A registered predicate: source form plus bound (evaluable) form.
#[derive(Debug, Clone)]
pub(crate) struct StoredPredicate {
    pub(crate) source: Predicate,
    pub(crate) bound: BoundPredicate,
}

impl StoredPredicate {
    /// Binds `pred` against the catalog without storing it anywhere.
    /// The index front-ends bind first, draw an id only once binding
    /// has succeeded, and then hand the pair to their core.
    pub(crate) fn bind(pred: Predicate, catalog: &Catalog) -> Result<StoredPredicate, IndexError> {
        let rel = catalog
            .relation(pred.relation())
            .ok_or_else(|| IndexError::NoSuchRelation(pred.relation().to_string()))?;
        let bound = pred.bind(rel.schema())?;
        Ok(StoredPredicate {
            source: pred,
            bound,
        })
    }
}

/// The `PREDICATES` side table of the §2 baselines: "a main-memory
/// table called PREDICATES that holds the predicates. When a partial
/// match between a tuple t and a predicate P is found, P is retrieved
/// from PREDICATES and tested against t" (§4). The index keeps its own,
/// split into a hot and a cold table (`index.rs`).
#[derive(Debug, Clone, Default)]
pub(crate) struct PredicateStore {
    preds: FnvHashMap<u32, StoredPredicate>,
    next: u32,
}

impl PredicateStore {
    /// Binds and stores a predicate, assigning the next id. Ids are
    /// never reused: the last one is an error with nothing stored, as
    /// in `PredicateIndex::insert`, not a wrap onto a live entry.
    pub(crate) fn register(
        &mut self,
        pred: Predicate,
        catalog: &Catalog,
    ) -> Result<(PredicateId, &StoredPredicate), IndexError> {
        let stored = StoredPredicate::bind(pred, catalog)?;
        let id = PredicateId(self.next);
        self.next = self.next.checked_add(1).ok_or(IndexError::IdsExhausted)?;
        Ok((id, self.preds.entry(id.0).or_insert(stored)))
    }

    /// Removes a stored predicate.
    pub(crate) fn unregister(&mut self, id: PredicateId) -> Option<StoredPredicate> {
        self.preds.remove(&id.0)
    }

    /// Looks up a stored predicate.
    pub(crate) fn get(&self, id: PredicateId) -> Option<&StoredPredicate> {
        self.preds.get(&id.0)
    }

    /// The residual test: does the full conjunction hold?
    pub(crate) fn full_match(&self, id: PredicateId, tuple: &Tuple) -> bool {
        self.preds
            .get(&id.0)
            .is_some_and(|p| p.bound.matches(tuple))
    }

    /// Number of stored predicates.
    pub(crate) fn len(&self) -> usize {
        self.preds.len()
    }
}

#[cfg(test)]
impl PredicateStore {
    /// Moves the id counter, so a test can reach the last id.
    pub(crate) fn set_next(&mut self, next: u32) {
        self.next = next;
    }
}
