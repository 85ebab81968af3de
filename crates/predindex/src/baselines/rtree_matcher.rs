//! §2.4: multi-dimensional indexing with an R-tree.
//!
//! "Predicates are treated as regions in a k-dimensional space (where k
//! is the number of attributes in the relation on which the predicates
//! are defined), and inserted into a k-dimensional index. Each new or
//! modified tuple is used as a key to search the index to find all
//! predicates that overlap the tuple."
//!
//! Typical predicates restrict only one or two of those k attributes, so
//! their regions are unbounded "slices" — clamped here to world-bound
//! rectangles — which overlap extensively and defeat the R-tree's space
//! partitioning. That degradation is the point of this baseline.
//!
//! Values are flattened to `f64` coordinates monotonically (strings via
//! an 8-byte prefix), so the rectangle test may over-approximate; the
//! residual `PREDICATES` test restores exactness.

use crate::matcher::{IndexError, Matcher, PredicateId, PredicateStore};
use interval::{Lower, Upper};
use predicate::{BoundClause, Predicate};
use relation::fx::FnvHashMap;
use relation::{Catalog, Tuple};
use rtree::{RTree, Rect, WORLD};

/// Keeps every coordinate inside the finite world box; monotone, so the
/// rectangle over-approximation never produces a false negative.
fn clamp(x: f64) -> f64 {
    x.clamp(-WORLD, WORLD)
}

/// Per-relation k-dimensional R-tree over predicate regions.
#[derive(Debug, Clone, Default)]
pub struct RTreeMatcher {
    pub(super) store: PredicateStore,
    by_relation: FnvHashMap<String, RTree>,
    /// Unsatisfiable predicates are stored but indexed nowhere.
    skipped: FnvHashMap<u32, ()>,
}

impl RTreeMatcher {
    /// An empty matcher.
    pub fn new() -> Self {
        RTreeMatcher::default()
    }
}

impl Matcher for RTreeMatcher {
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError> {
        let (id, stored) = self.store.register(pred, catalog)?;
        let relation = stored.bound.relation().to_string();
        if !stored.bound.is_satisfiable() {
            self.skipped.insert(id.0, ());
            return Ok(id);
        }
        let schema = catalog
            .relation(&relation)
            .expect("insert() verified the relation exists before building the rect")
            .schema();
        let dims = schema.arity();
        // Start from the whole world; each range clause narrows its
        // attribute's dimension. Function clauses narrow nothing.
        let mut rect = Rect::world(dims);
        for clause in stored.bound.clauses() {
            if let BoundClause::Range { attr, interval } = clause {
                match interval.lo() {
                    Lower::Unbounded => {}
                    Lower::Inclusive(v) | Lower::Exclusive(v) => {
                        rect.lo[*attr] = rect.lo[*attr].max(clamp(v.as_f64_lossy()));
                    }
                }
                match interval.hi() {
                    Upper::Unbounded => {}
                    Upper::Inclusive(v) | Upper::Exclusive(v) => {
                        rect.hi[*attr] = rect.hi[*attr].min(clamp(v.as_f64_lossy()));
                    }
                }
            }
        }
        self.by_relation
            .entry(relation)
            .or_insert_with(|| RTree::new(dims))
            .insert(id, rect);
        Ok(id)
    }

    fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        let stored = self.store.unregister(id)?;
        if self.skipped.remove(&id.0).is_none() {
            let tree = self
                .by_relation
                .get_mut(stored.bound.relation())
                .expect("a stored, non-skipped id was inserted into its relation's tree");
            tree.remove(id)
                .expect("the tree has held this rect since insertion");
            // Drop the tree once empty: its dimensionality is frozen at
            // creation, and the relation may come back with a different
            // schema arity.
            if tree.is_empty() {
                self.by_relation.remove(stored.bound.relation());
            }
        }
        Some(stored.source)
    }

    fn match_tuple(&self, relation: &str, tuple: &Tuple) -> Vec<PredicateId> {
        let Some(tree) = self.by_relation.get(relation) else {
            return Vec::new();
        };
        let mut point: Vec<f64> = tuple
            .values()
            .iter()
            .map(|v| clamp(v.as_f64_lossy()))
            .collect();
        // Tuples shorter than the schema (projections) still stab: pad
        // missing dimensions with an in-world value so predicates without
        // a clause there (full-world extent) stay candidates. Predicates
        // *with* a clause on a missing attribute may be pruned here, which
        // is sound — the residual test rejects them anyway. Extra values
        // beyond the schema carry no rect dimension, so truncate.
        point.resize(tree.dims(), 0.0);
        let mut out = tree.stab(&point);
        out.retain(|&id| self.store.full_match(id, tuple));
        out.sort_unstable();
        out
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn strategy(&self) -> &'static str {
        "rtree"
    }
}
