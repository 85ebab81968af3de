//! The common interface all predicate-matching strategies implement,
//! plus the shared predicate store (the paper's `PREDICATES` table).

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
pub struct StoredPredicate {
    pub source: Predicate,
    pub bound: BoundPredicate,
}

impl StoredPredicate {
    /// Binds `pred` against the catalog without storing it anywhere.
    /// Matchers that allocate ids themselves (e.g. the sharded index,
    /// which draws from an atomic counter only after binding succeeds)
    /// bind first, then [`PredicateStore::insert_bound`].
    pub fn bind(pred: Predicate, catalog: &Catalog) -> Result<StoredPredicate, IndexError> {
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

/// The `PREDICATES` side table shared by every matcher implementation:
/// "a main-memory table called PREDICATES that holds the predicates.
/// When a partial match between a tuple t and a predicate P is found, P
/// is retrieved from PREDICATES and tested against t" (§4).
#[derive(Debug, Clone, Default)]
pub struct PredicateStore {
    preds: FnvHashMap<u32, StoredPredicate>,
    next: u32,
}

impl PredicateStore {
    /// An empty store.
    pub fn new() -> Self {
        PredicateStore::default()
    }

    /// Binds and stores a predicate, assigning the next id.
    pub fn register(
        &mut self,
        pred: Predicate,
        catalog: &Catalog,
    ) -> Result<(PredicateId, &StoredPredicate), IndexError> {
        let stored = StoredPredicate::bind(pred, catalog)?;
        let id = PredicateId(self.next);
        self.next += 1;
        self.preds.insert(id.0, stored);
        Ok((id, &self.preds[&id.0]))
    }

    /// Stores an already-bound predicate under a caller-assigned id.
    /// Used by matchers that partition one logical store across several
    /// physical ones but still hand out globally unique ids.
    pub fn insert_bound(&mut self, id: PredicateId, stored: StoredPredicate) -> &StoredPredicate {
        self.preds.insert(id.0, stored);
        &self.preds[&id.0]
    }

    /// Removes a stored predicate.
    pub fn unregister(&mut self, id: PredicateId) -> Option<StoredPredicate> {
        self.preds.remove(&id.0)
    }

    /// Looks up a stored predicate.
    pub fn get(&self, id: PredicateId) -> Option<&StoredPredicate> {
        self.preds.get(&id.0)
    }

    /// The residual test: does the full conjunction hold?
    pub fn full_match(&self, id: PredicateId, tuple: &Tuple) -> bool {
        self.preds
            .get(&id.0)
            .is_some_and(|p| p.bound.matches(tuple))
    }

    /// Number of stored predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Iterates `(id, stored)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PredicateId, &StoredPredicate)> {
        self.preds.iter().map(|(&id, p)| (PredicateId(id), p))
    }
}
