//! The paper's predicate indexing scheme (Figure 1).
//!
//! ```text
//! inserted or deleted tuples enter here
//!                │
//!        hash on relation name
//!                │
//!   ┌────────────┴───────────────────────────────┐
//!   │ per-relation second-level index:           │
//!   │   list of non-indexable predicates         │
//!   │   one IBS-tree per attribute with ≥1       │
//!   │     indexable predicate clause             │
//!   └────────────┬───────────────────────────────┘
//!                │ partial matches
//!        PREDICATES table: full residual test
//! ```
//!
//! For a conjunction with several indexable clauses, "the most selective
//! one is placed in the IBS-tree (selectivity estimates are obtained
//! from the query optimizer)"; everything else is verified by the
//! residual test against the `PREDICATES` table.
//!
//! The non-indexable list is kept grouped by clause set: predicates
//! whose opaque clauses are the same functions on the same attributes
//! share one [`OpaqueGroup`], tested once per tuple, and its members
//! pass or fail together without a residual test of their own. A match
//! is therefore: stab the trees, residual-test the tree candidates,
//! sweep the groups, sort the tail once.
//!
//! The whole structure lives in one place, [`IndexCore`]: the relation
//! hash, the `PREDICATES` store and the placement map, with the only
//! insert, remove, match, EXPLAIN and stats bodies in the crate.
//! [`PredicateIndex`] is one core plus a plain id counter; the
//! concurrent front-end in [`crate::sharded`] is several cores behind
//! reader–writer locks plus an atomic counter. The sequential index is
//! literally the one-shard case, so the two cannot drift apart.

use crate::matcher::{IndexError, Matcher, PredicateId, PredicateStore, StoredPredicate};
use crate::metrics::{AttrWork, IndexMetrics};
use crate::stats::{IndexStats, RelationStats, TreeStats};
use ibs::{BalanceMode, IbsTree, StabObserver, StabStats};
use interval::Interval;
use predicate::selectivity::most_selective_indexable;
use predicate::{BoundClause, BoundPredicate, Predicate};
use relation::fx::FnvHashMap;
use relation::{Catalog, Tuple, Value};
use std::sync::Arc;
use telemetry::{
    AttrRecorder, ClauseShape, Counter, MatchTrace, RelationRecorder, ResidualTrace, StabTrace,
    Telemetry,
};

/// Where a registered predicate physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// In the IBS-tree of this attribute (by schema position).
    Tree { attr: usize },
    /// On the relation's non-indexable list.
    NonIndexable,
    /// Nowhere: the predicate is unsatisfiable and can never match.
    Unsatisfiable,
}

/// The placement decision for a freshly bound predicate: [`Location`]
/// plus the interval that goes into the tree, when there is one.
enum Placement {
    Tree {
        attr: usize,
        interval: Interval<Value>,
    },
    NonIndexable,
    Unsatisfiable,
}

/// Classifies an indexed interval into the workload-account clause
/// taxonomy: a point is `=`, a half-open interval is `<` or `>` by
/// which side is unbounded, everything else (both sides bounded, or a
/// universal clause) counts as an interval.
fn clause_shape_of(interval: &Interval<Value>) -> ClauseShape {
    if interval.is_point() {
        return ClauseShape::Eq;
    }
    match (interval.lo().value(), interval.hi().value()) {
        (None, Some(_)) => ClauseShape::Less,
        (Some(_), None) => ClauseShape::Greater,
        _ => ClauseShape::Interval,
    }
}

/// The finite length of an indexed interval for the workload length
/// histogram: 0 for a point, `|hi - lo|` for bounded numeric bounds,
/// `None` when a side is unbounded or the endpoints are not numeric.
fn interval_length_of(interval: &Interval<Value>) -> Option<u64> {
    if interval.is_point() {
        return Some(0);
    }
    match (interval.lo().value(), interval.hi().value()) {
        (Some(Value::Int(a)), Some(Value::Int(b))) => Some(b.abs_diff(*a)),
        (Some(Value::Float(a)), Some(Value::Float(b))) => Some((b - a).abs() as u64),
        _ => None,
    }
}

/// Decides where a bound predicate belongs: the most selective
/// indexable clause's tree, the non-indexable list, or nowhere.
fn place(catalog: &Catalog, stored: &StoredPredicate) -> Placement {
    if !stored.bound.is_satisfiable() {
        return Placement::Unsatisfiable;
    }
    match most_selective_indexable(catalog, &stored.bound) {
        Some(cix) => {
            let BoundClause::Range { attr, interval } = &stored.bound.clauses()[cix] else {
                unreachable!("most_selective_indexable only ever selects Range clauses")
            };
            Placement::Tree {
                attr: *attr,
                interval: interval.clone(),
            }
        }
        None => Placement::NonIndexable,
    }
}

/// The residual test (Figure 1's last stage) on the tree candidates:
/// keeps only ids whose full conjunction holds.
fn residual_filter(store: &PredicateStore, tuple: &Tuple, out: &mut Vec<PredicateId>, from: usize) {
    let mut keep = from;
    for i in from..out.len() {
        if store.full_match(out[i], tuple) {
            out.swap(keep, i);
            keep += 1;
        }
    }
    out.truncate(keep);
}

/// The identity of a non-indexable predicate's clause set: its
/// `(attribute, function address)` pairs, sorted and deduplicated.
/// The address is the `PredFn`'s `Arc`, not its name — a registry can
/// rebind a name, and two functions under one name must not share a
/// test. A group holds its functions, so an address it keys on cannot
/// be reused while the group lives.
type OpaqueKey = Vec<(usize, usize)>;

/// `bound`'s opaque clauses in key order, one per distinct
/// `(attribute, function)`, with the key. Only called on predicates
/// [`place`] sent to the non-indexable list, whose clauses are all
/// functions.
fn opaque_key(bound: &BoundPredicate) -> (OpaqueKey, Vec<&BoundClause>) {
    let mut clauses: Vec<((usize, usize), &BoundClause)> = bound
        .clauses()
        .iter()
        .map(|c| match c {
            BoundClause::Func { attr, func, .. } => {
                ((*attr, Arc::as_ptr(func).cast::<()>() as usize), c)
            }
            BoundClause::Range { .. } => {
                unreachable!("a predicate with a range clause is placed in a tree")
            }
        })
        .collect();
    clauses.sort_unstable_by_key(|(key, _)| *key);
    clauses.dedup_by_key(|(key, _)| *key);
    clauses.into_iter().unzip()
}

/// One distinct clause set of a relation's non-indexable list and the
/// predicates that carry exactly it (Rete's alpha-node sharing applied
/// to Figure 1's list). The sweep tests `clauses` once per tuple and
/// the members pass or fail together: their conjunction *is* the
/// clause set, so a member that passes is fully tested.
#[derive(Debug, Clone)]
struct OpaqueGroup {
    key: OpaqueKey,
    /// One clause per key entry (the empty set holds for every tuple).
    clauses: Vec<BoundClause>,
    /// Members, in registration order.
    ids: Vec<PredicateId>,
}

impl OpaqueGroup {
    /// Does the clause set hold for `tuple`?
    fn holds(&self, tuple: &Tuple) -> bool {
        self.clauses.iter().all(|c| c.test(tuple))
    }
}

/// One attribute's IBS-tree plus its pre-resolved telemetry: the
/// workload account and the per-tree stab-work counters. Both are
/// minted when the tree (or the telemetry attachment) is created, so
/// the stab path records with atomic adds only.
#[derive(Debug, Clone)]
struct AttrTree {
    tree: IbsTree<Value>,
    workload: AttrRecorder,
    work: Option<AttrWork>,
}

/// Second-level index for one relation.
#[derive(Debug, Clone)]
struct RelationIndex {
    /// One IBS-tree per attribute that has at least one indexed clause.
    attr_trees: FnvHashMap<usize, AttrTree>,
    /// Predicates whose clauses are all opaque functions (or empty),
    /// grouped by clause set.
    non_indexable: Vec<OpaqueGroup>,
    /// Cached per-relation workload account (tuples matched).
    tuple_recorder: RelationRecorder,
    /// Cached `predindex_relation_matches_total` counter.
    matches: Option<Counter>,
}

impl RelationIndex {
    /// An empty second-level index recording into `metrics`.
    fn new(relation: &str, metrics: &IndexMetrics) -> Self {
        RelationIndex {
            attr_trees: FnvHashMap::default(),
            non_indexable: Vec::new(),
            tuple_recorder: metrics.workload().relation_recorder(relation),
            matches: metrics.relation_matches(relation),
        }
    }

    /// Re-mints every cached handle from `metrics` — called when
    /// telemetry is attached to an index that already holds trees. The
    /// existing population is backfilled into the workload accounts as
    /// inserts so derived live counts are correct for predicates
    /// registered before attachment; attach a given handle to an index
    /// once, or the backfill double-counts.
    fn rebind(&mut self, relation: &str, metrics: &IndexMetrics) {
        let workload = metrics.workload();
        self.matches = metrics.relation_matches(relation);
        self.tuple_recorder = workload.relation_recorder(relation);
        for _ in self.non_indexable.iter().flat_map(|g| &g.ids) {
            self.tuple_recorder.record_non_indexable_insert();
        }
        for (&attr, at) in self.attr_trees.iter_mut() {
            at.work = metrics.attr_work(relation, attr);
            at.workload = workload.attr_recorder(relation, attr);
            for (_, interval) in at.tree.iter() {
                at.workload
                    .record_insert(clause_shape_of(interval), interval_length_of(interval));
            }
        }
    }

    /// Indexes `interval` under `attr`, creating the tree on first use.
    fn insert_tree(
        &mut self,
        relation: &str,
        attr: usize,
        id: PredicateId,
        interval: Interval<Value>,
        mode: BalanceMode,
        metrics: &IndexMetrics,
    ) {
        let at = self.attr_trees.entry(attr).or_insert_with(|| AttrTree {
            tree: IbsTree::with_mode(mode),
            workload: metrics.workload().attr_recorder(relation, attr),
            work: metrics.attr_work(relation, attr),
        });
        if at.workload.is_enabled() {
            at.workload
                .record_insert(clause_shape_of(&interval), interval_length_of(&interval));
        }
        at.tree
            .insert(id, interval)
            .expect("the store just minted this id; the tree cannot already hold it");
    }

    /// Adds `id` to the group of its clause set, opening the group on
    /// first use.
    fn push_non_indexable(&mut self, id: PredicateId, bound: &BoundPredicate) {
        self.tuple_recorder.record_non_indexable_insert();
        let (key, clauses) = opaque_key(bound);
        match self.non_indexable.iter_mut().find(|g| g.key == key) {
            Some(group) => group.ids.push(id),
            None => self.non_indexable.push(OpaqueGroup {
                key,
                clauses: clauses.into_iter().cloned().collect(),
                ids: vec![id],
            }),
        }
    }

    /// Removes an indexed interval, dropping the tree when it empties.
    fn remove_tree(&mut self, attr: usize, id: PredicateId) {
        let at = self
            .attr_trees
            .get_mut(&attr)
            .expect("a Tree placement was recorded for this attribute");
        let interval = at
            .tree
            .remove(id)
            .expect("the tree has held this id since its placement was recorded");
        if at.workload.is_enabled() {
            at.workload.record_delete(clause_shape_of(&interval));
        }
        if at.tree.is_empty() {
            self.attr_trees.remove(&attr);
        }
    }

    /// Removes `id` from its clause set's group, dropping the group when
    /// it empties. `bound` is the predicate's own bound form, so its
    /// functions (and their addresses) are the ones the group keys on.
    fn remove_non_indexable(&mut self, id: PredicateId, bound: &BoundPredicate) {
        self.tuple_recorder.record_non_indexable_delete();
        let (key, _) = opaque_key(bound);
        let gix = self
            .non_indexable
            .iter()
            .position(|g| g.key == key)
            .expect("a NonIndexable predicate is a member of its clause set's group");
        let group = &mut self.non_indexable[gix];
        group.ids.retain(|&p| p != id);
        if group.ids.is_empty() {
            self.non_indexable.swap_remove(gix);
        }
    }

    /// Partial match — the tree half of Figure 1's second level: stabs
    /// every per-attribute IBS-tree with the tuple's value for that
    /// attribute. Each indexable predicate lives in exactly one tree, so
    /// no deduplication is needed; the non-indexable list is
    /// [`sweep`](Self::sweep)'s. Attributes beyond the tuple's arity are
    /// skipped — a clause on a missing attribute cannot hold, and the
    /// residual test agrees (see `BoundClause::test`).
    ///
    /// Each stab reports its §5 work into a fresh `S` and is then handed
    /// to `each` as `(attr, tree, value, ids reported, work)`. With
    /// `S = ()` and an empty closure this monomorphizes to the bare loop
    /// over uninstrumented stabs, as `IbsTree::stab_into_observed` does
    /// one level down.
    fn partial_match<S: StabObserver + Default>(
        &self,
        tuple: &Tuple,
        out: &mut Vec<PredicateId>,
        mut each: impl FnMut(usize, &AttrTree, &Value, usize, S),
    ) {
        for (&attr, at) in &self.attr_trees {
            if let Some(value) = tuple.values().get(attr) {
                let before = out.len();
                let mut work = S::default();
                at.tree.stab_into_observed(value, out, &mut work);
                each(attr, at, value, out.len() - before, work);
            }
        }
    }

    /// The non-indexable sweep: tests each clause set once and appends
    /// every member of a set that holds — full matches, not candidates.
    /// Returns `(sets tested, sets that held)`.
    fn sweep(&self, tuple: &Tuple, out: &mut Vec<PredicateId>) -> (u64, u64) {
        let mut held = 0;
        for group in &self.non_indexable {
            if group.holds(tuple) {
                held += 1;
                out.extend_from_slice(&group.ids);
            }
        }
        (self.non_indexable.len() as u64, held)
    }

    /// Structure snapshot, trees ordered by attribute.
    fn stats(&self, relation: &str) -> RelationStats {
        let mut trees: Vec<TreeStats> = self
            .attr_trees
            .iter()
            .map(|(&attr, at)| TreeStats {
                attr,
                intervals: at.tree.len(),
                nodes: at.tree.node_count(),
                markers: at.tree.marker_count(),
                height: at.tree.height(),
            })
            .collect();
        trees.sort_by_key(|t| t.attr);
        RelationStats {
            relation: relation.to_string(),
            trees,
            non_indexable: self.non_indexable.iter().map(|g| g.ids.len()).sum(),
        }
    }

    /// Number of attribute trees (stats support).
    fn tree_count(&self) -> usize {
        self.attr_trees.len()
    }

    /// Total markers across this relation's trees (§5.1 space metric).
    fn marker_count(&self) -> usize {
        self.attr_trees
            .values()
            .map(|t| t.tree.marker_count())
            .sum()
    }
}

/// The Figure 1 structure itself: relation-name hash → per-relation
/// second-level index, the `PREDICATES` store, and where each stored
/// predicate was placed. Ids are assigned by the owning front-end;
/// everything else — placement, removal, matching, EXPLAIN, stats,
/// workload accounting — happens here and nowhere else.
#[derive(Debug, Clone)]
pub(crate) struct IndexCore {
    relations: FnvHashMap<String, RelationIndex>,
    store: PredicateStore,
    locations: FnvHashMap<u32, (String, Location)>,
    mode: BalanceMode,
}

impl IndexCore {
    /// An empty core whose IBS-trees balance by `mode`.
    pub(crate) fn new(mode: BalanceMode) -> Self {
        IndexCore {
            relations: FnvHashMap::default(),
            store: PredicateStore::new(),
            locations: FnvHashMap::default(),
            mode,
        }
    }

    /// `relation`'s second-level index, created (with its telemetry
    /// handles resolved against `metrics`) on first use.
    fn relation_index(&mut self, relation: &str, metrics: &IndexMetrics) -> &mut RelationIndex {
        self.relations
            .entry(relation.to_string())
            .or_insert_with(|| RelationIndex::new(relation, metrics))
    }

    /// Stores `stored` under the caller-assigned `id` and indexes it
    /// where [`place`] says it belongs.
    pub(crate) fn insert_bound(
        &mut self,
        id: PredicateId,
        stored: StoredPredicate,
        catalog: &Catalog,
        metrics: &IndexMetrics,
    ) {
        let relation = stored.bound.relation().to_string();
        let location = match place(catalog, &stored) {
            Placement::Unsatisfiable => Location::Unsatisfiable,
            Placement::Tree { attr, interval } => {
                let mode = self.mode;
                self.relation_index(&relation, metrics)
                    .insert_tree(&relation, attr, id, interval, mode, metrics);
                Location::Tree { attr }
            }
            Placement::NonIndexable => {
                self.relation_index(&relation, metrics)
                    .push_non_indexable(id, &stored.bound);
                Location::NonIndexable
            }
        };
        self.store.insert_bound(id, stored);
        self.locations.insert(id.0, (relation, location));
    }

    /// Unregisters `id`, returning its source form.
    pub(crate) fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        let stored = self.store.unregister(id)?;
        let (relation, location) = self
            .locations
            .remove(&id.0)
            .expect("store and locations are updated together: a stored predicate has a location");
        match location {
            Location::Tree { attr } => {
                self.relations
                    .get_mut(&relation)
                    .expect("a Tree location implies the relation entry exists")
                    .remove_tree(attr, id);
            }
            Location::NonIndexable => {
                self.relations
                    .get_mut(&relation)
                    .expect("a NonIndexable location implies the relation entry exists")
                    .remove_non_indexable(id, &stored.bound);
            }
            Location::Unsatisfiable => {}
        }
        Some(stored.source)
    }

    /// The full match path: hash on relation name, tree stabs (metered
    /// when counters or workload accounts are on), the residual test on
    /// the tree candidates, the grouped non-indexable sweep, one sort of
    /// the tail and one `record_match`.
    pub(crate) fn match_into(
        &self,
        relation: &str,
        tuple: &Tuple,
        out: &mut Vec<PredicateId>,
        metrics: &IndexMetrics,
    ) {
        let from = out.len();
        let tracer = metrics.tracer();
        if let Some(ri) = self.relations.get(relation) {
            {
                let _stab = tracer.span("predindex_stab");
                if metrics.is_enabled() || metrics.workload().is_enabled() {
                    // Through the handles each tree and relation caches:
                    // atomic adds only, no name lookups on the match
                    // path. (Tuples are counted here, i.e. only for
                    // relations with at least one registered predicate.)
                    ri.tuple_recorder.record_tuple();
                    ri.partial_match(tuple, out, |_, at, _, hits, work: StabStats| {
                        metrics.record_attr_stab(
                            at.work.as_ref(),
                            work.nodes_visited,
                            work.marks_scanned,
                        );
                        at.workload.record_stab(hits as u64);
                    });
                } else {
                    ri.partial_match(tuple, out, |_, _, _, _, ()| {});
                }
            }
            let partials = (out.len() - from) as u64;
            let (swept, passes) = {
                let _residual = tracer.span_with("predindex_residual", || {
                    vec![("partials", partials.to_string())]
                });
                residual_filter(&self.store, tuple, out, from);
                let tree_passes = (out.len() - from) as u64;
                let (swept, held) = ri.sweep(tuple, out);
                out[from..].sort_unstable();
                (swept, tree_passes + held)
            };
            metrics.record_match(ri.matches.as_ref(), partials, swept, passes);
        } else {
            metrics.record_unindexed_match(relation);
        }
    }

    /// Builds the Figure 1 EXPLAIN trace for one tuple: the same walk
    /// as [`match_into`](Self::match_into), but recording per-stage
    /// work and every outcome instead of counters — one `ResidualTrace`
    /// per tree candidate, then one per member of each swept clause
    /// set, carrying its set's outcome.
    pub(crate) fn explain(&self, relation: &str, tuple: &Tuple) -> MatchTrace {
        let mut trace = MatchTrace {
            relation: relation.to_string(),
            tuple: tuple.to_string(),
            ..MatchTrace::default()
        };
        let Some(ri) = self.relations.get(relation) else {
            return trace;
        };
        trace.relation_indexed = true;
        let mut candidates = Vec::new();
        ri.partial_match(
            tuple,
            &mut candidates,
            |attr, at, value, _, work: StabStats| {
                trace.stabs.push(StabTrace {
                    attr,
                    attr_name: format!("#{attr}"),
                    value: value.to_string(),
                    nodes_visited: work.nodes_visited,
                    marks_scanned: work.marks_scanned,
                    less_hits: work.less_hits,
                    eq_hits: work.eq_hits,
                    greater_hits: work.greater_hits,
                    universal_hits: work.universal_hits,
                    tree_intervals: at.tree.len(),
                    tree_height: at.tree.height(),
                })
            },
        );
        trace.stabs.sort_by_key(|s| s.attr);
        let residual = |id: PredicateId, pass: bool| ResidualTrace {
            predicate: id.0,
            pass,
            source: self
                .store
                .get(id)
                .and_then(|p| p.source.to_source())
                .unwrap_or_else(|| "<opaque>".to_string()),
        };
        for &id in &candidates {
            trace
                .residual
                .push(residual(id, self.store.full_match(id, tuple)));
        }
        trace.non_indexable_scanned = ri.non_indexable.len();
        for group in &ri.non_indexable {
            let pass = group.holds(tuple);
            trace.non_indexable_predicates += group.ids.len();
            trace
                .residual
                .extend(group.ids.iter().map(|&id| residual(id, pass)));
        }
        trace
    }

    /// Re-mints every cached telemetry handle and backfills the
    /// existing population (see [`RelationIndex::rebind`]).
    pub(crate) fn rebind(&mut self, metrics: &IndexMetrics) {
        for (relation, ri) in self.relations.iter_mut() {
            ri.rebind(relation, metrics);
        }
    }

    /// The stored form of a registered predicate.
    pub(crate) fn get(&self, id: PredicateId) -> Option<&StoredPredicate> {
        self.store.get(id)
    }

    /// Does this core hold `id`?
    pub(crate) fn contains(&self, id: PredicateId) -> bool {
        self.locations.contains_key(&id.0)
    }

    /// Number of stored predicates (including unsatisfiable ones).
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Number of per-attribute IBS-trees.
    pub(crate) fn tree_count(&self) -> usize {
        self.relations.values().map(|r| r.tree_count()).sum()
    }

    /// Total markers across all IBS-trees (§5.1 space metric).
    pub(crate) fn marker_count(&self) -> usize {
        self.relations.values().map(|r| r.marker_count()).sum()
    }

    /// Structure snapshot, relations sorted by name.
    pub(crate) fn stats(&self) -> IndexStats {
        let mut relations: Vec<RelationStats> = self
            .relations
            .iter()
            .map(|(name, ri)| ri.stats(name))
            .collect();
        relations.sort_by(|a, b| a.relation.cmp(&b.relation));
        IndexStats {
            relations,
            predicates: self.store.len(),
        }
    }
}

/// The paper's predicate index: relation-name hash → per-attribute
/// IBS-trees + non-indexable list → `PREDICATES` residual test.
///
/// ```
/// use predindex::{Matcher, PredicateIndex};
/// use predicate::parse_predicate;
/// use relation::{AttrType, Database, Schema, Value};
///
/// let mut db = Database::new();
/// db.create_relation(
///     Schema::builder("emp")
///         .attr("age", AttrType::Int)
///         .attr("salary", AttrType::Int)
///         .build(),
/// )
/// .unwrap();
///
/// let mut index = PredicateIndex::new();
/// let p = parse_predicate("emp.salary < 20000 and emp.age > 50").unwrap();
/// let id = index.insert(p, db.catalog()).unwrap();
///
/// let t = db.insert("emp", vec![Value::Int(61), Value::Int(12_000)]).unwrap();
/// assert_eq!(index.match_tuple("emp", &t), vec![id]);
/// ```
#[derive(Debug, Clone)]
pub struct PredicateIndex {
    core: IndexCore,
    /// The next id to hand out (0, 1, 2, ... — the sequence the
    /// sharded front-end reproduces with its atomic counter).
    next_id: u32,
    /// Disabled by default; swapped by
    /// [`attach_metrics`](PredicateIndex::attach_metrics) (clones
    /// share the bundle — counters are process totals).
    metrics: Arc<IndexMetrics>,
}

impl Default for PredicateIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl PredicateIndex {
    /// An index whose IBS-trees are AVL-balanced.
    pub fn new() -> Self {
        Self::with_mode(BalanceMode::Avl)
    }

    /// An index with explicit IBS-tree balancing (the paper's empirical
    /// section ran unbalanced trees).
    pub fn with_mode(mode: BalanceMode) -> Self {
        PredicateIndex {
            core: IndexCore::new(mode),
            next_id: 0,
            metrics: IndexMetrics::disabled(),
        }
    }

    /// Points the index at `telemetry` (a bare `Arc<Registry>` converts
    /// into a counters-only handle): match-path counters go to its
    /// registry, `predindex_stab` / `predindex_residual` spans to its
    /// tracer, and per-relation+attribute workload accounts (the
    /// [`crate::advisor`] feed) to its workload handle, backfilled with
    /// the predicates already registered. Whatever was attached before
    /// is replaced whole. Until this is called the index runs with the
    /// no-op bundle: one branch per would-be recording site.
    pub fn attach_metrics(&mut self, telemetry: impl Into<Telemetry>) {
        let telemetry = telemetry.into();
        self.metrics = IndexMetrics::new(&telemetry);
        self.core.rebind(&self.metrics);
    }

    /// The Figure 1 EXPLAIN: the exact path `tuple` takes through the
    /// index, with per-stage work counts and every residual-test
    /// outcome. Independent of metrics — always available, never
    /// touches the registry.
    pub fn explain_tuple(&self, relation: &str, tuple: &Tuple) -> MatchTrace {
        self.core.explain(relation, tuple)
    }

    /// The stored form of a registered predicate.
    pub fn get(&self, id: PredicateId) -> Option<&StoredPredicate> {
        self.core.get(id)
    }

    /// Matching ids appended into a caller-owned buffer (hot path).
    pub fn match_tuple_into(&self, relation: &str, tuple: &Tuple, out: &mut Vec<PredicateId>) {
        self.core.match_into(relation, tuple, out, &self.metrics);
    }

    /// Number of per-attribute IBS-trees across all relations (for
    /// diagnostics and the §5.2 cost model).
    pub fn attribute_tree_count(&self) -> usize {
        self.core.tree_count()
    }

    /// Total markers across all IBS-trees (§5.1 space metric).
    pub fn marker_count(&self) -> usize {
        self.core.marker_count()
    }

    /// Snapshots the index structure.
    pub fn stats(&self) -> IndexStats {
        self.core.stats()
    }
}

impl Matcher for PredicateIndex {
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError> {
        let stored = StoredPredicate::bind(pred, catalog)?;
        // Drawn only after binding succeeds, so failed inserts leave
        // no gap in the id sequence. Ids are never reused: wrapping
        // would overwrite a live `PREDICATES` entry, so the last id is
        // an error, not a restart.
        let id = PredicateId(self.next_id);
        self.next_id = self
            .next_id
            .checked_add(1)
            .ok_or(IndexError::IdsExhausted)?;
        self.core.insert_bound(id, stored, catalog, &self.metrics);
        Ok(id)
    }

    fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        self.core.remove(id)
    }

    fn match_tuple(&self, relation: &str, tuple: &Tuple) -> Vec<PredicateId> {
        let mut out = Vec::new();
        self.match_tuple_into(relation, tuple, &mut out);
        out
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn strategy(&self) -> &'static str {
        "ibs-index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interval::Interval;
    use predicate::parse_predicate;
    use relation::{AttrType, Database, Schema};

    #[test]
    fn exhausted_ids_are_an_error_not_a_wrap() {
        let mut db = Database::new();
        db.create_relation(Schema::builder("emp").attr("a", AttrType::Int).build())
            .unwrap();
        let pred = |lo: i64| parse_predicate(&format!("emp.a > {lo}")).unwrap();
        let mut index = PredicateIndex::new();
        let first = index.insert(pred(0), db.catalog()).unwrap();
        assert_eq!(first, PredicateId(0));

        index.next_id = u32::MAX;
        for _ in 0..2 {
            assert_eq!(
                index.insert(pred(5), db.catalog()),
                Err(IndexError::IdsExhausted)
            );
        }
        // Nothing was inserted and id 0 still holds its own predicate.
        assert_eq!(index.len(), 1);
        assert_eq!(index.stats().relations[0].trees[0].intervals, 1);
        assert_eq!(index.get(first).unwrap().source, pred(0));
        let t = db.insert("emp", vec![Value::Int(9)]).unwrap();
        assert_eq!(index.match_tuple("emp", &t), vec![first]);
    }

    fn closed(lo: i64, hi: i64) -> Interval<Value> {
        Interval::closed(Value::Int(lo), Value::Int(hi))
    }

    #[test]
    fn interval_length_spans_the_whole_i64_range() {
        assert_eq!(interval_length_of(&closed(3, 3)), Some(0));
        assert_eq!(interval_length_of(&closed(-5, 20)), Some(25));
        // `hi - lo` exceeds i64::MAX: wrapping_sub + unsigned_abs got
        // these wrong (1 and ~6.4e18).
        assert_eq!(
            interval_length_of(&closed(i64::MIN, i64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(
            interval_length_of(&closed(
                -6_000_000_000_000_000_000,
                6_000_000_000_000_000_000
            )),
            Some(12_000_000_000_000_000_000)
        );
    }
}
