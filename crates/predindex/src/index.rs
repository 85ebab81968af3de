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
//! `PREDICATES` is a [`Slab`]: each predicate has a dense slot, and
//! the IBS marks and group members name that slot, not the id, so a
//! candidate's residual test is one indexed load. The hot half of a
//! slot holds where the predicate lives, the clauses a match still has
//! to test (a tree candidate's stab has already proved its indexed
//! clause, so a single-clause predicate keeps none), its id and the
//! caller's route word, which a [`Routed`] match hands back. The cold
//! half holds the source form, read by remove, EXPLAIN and `get`; the
//! id → slot map is read only by those.
//!
//! The whole structure lives in one place, [`IndexCore`]: the relation
//! hash and the `PREDICATES` slab, with the only insert, remove, match,
//! EXPLAIN and stats bodies in the crate.
//! [`PredicateIndex`] is one core plus a plain id counter; the
//! concurrent front-end in [`crate::sharded`] is several cores behind
//! reader–writer locks plus an atomic counter. The sequential index is
//! literally the one-shard case, so the two cannot drift apart.

use crate::matcher::{IndexError, Matcher, PredicateId, StoredPredicate};
use crate::metrics::{AttrWork, IndexMetrics};
use crate::slab::{map_bytes, Slab};
use crate::stats::{IndexStats, RelationStats, TreeStats};
use ibs::{IbsTree, StabObserver, StabStats, LANES};
use interval::Interval;
use predicate::selectivity::most_selective_indexable;
use predicate::{BoundClause, BoundPredicate, Clause, Predicate};
use relation::fx::FnvHashMap;
use relation::{Catalog, Tuple, Value};
use std::ops::Range;
use std::sync::Arc;
use telemetry::{
    CostSnapshot, Counter, MatchTrace, ResidualTrace, StabTrace, Stage, StageClock, Telemetry,
};

/// Where a registered predicate physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// In the IBS-tree of this attribute (by schema position; a `u32`
    /// keeps a hot table slot at 32 bytes, two to a cache line).
    Tree { attr: u32 },
    /// On the relation's non-indexable list.
    NonIndexable,
    /// Nowhere: the predicate is unsatisfiable and can never match.
    Unsatisfiable,
}

/// The placement decision for a freshly bound predicate: [`Location`],
/// with the position of the clause that goes into the tree when there
/// is one.
enum Placement {
    Tree { clause: usize },
    NonIndexable,
    Unsatisfiable,
}

/// A predicate's hot `PREDICATES` entry: where it lives, the clauses a
/// match still has to test, and what a match appends for it.
#[derive(Debug, Clone)]
struct Hot {
    location: Location,
    /// In a tree: the bound clauses minus the indexed one, which the
    /// stab proves (empty for a single-clause predicate). On the
    /// non-indexable list: the opaque clauses, from which the group key
    /// is derived. Unsatisfiable: empty.
    residual: Box<[BoundClause]>,
    id: PredicateId,
    /// The caller's word, handed back with every [`Routed`] match.
    route: u32,
}

// A hot slot is half a 64-byte line: no slot straddles two lines.
const _: () = assert!(size_of::<Option<Hot>>() == 32);

impl Hot {
    /// The residual test: do the clauses the stab did not prove hold?
    fn holds(&self, tuple: &Tuple) -> bool {
        self.residual.iter().all(|c| c.test(tuple))
    }
}

/// Heap bytes behind an interval: its endpoints' string contents.
fn interval_heap(interval: &Interval<Value>) -> usize {
    [interval.lo().value(), interval.hi().value()]
        .into_iter()
        .flatten()
        .map(|v| match v {
            Value::Str(s) => s.capacity(),
            _ => 0,
        })
        .sum()
}

/// Heap bytes behind a clause slice: the slots plus what each owns.
fn clauses_heap(clauses: &[BoundClause]) -> usize {
    let owned: usize = clauses
        .iter()
        .map(|c| match c {
            BoundClause::Range { interval, .. } => interval_heap(interval),
            BoundClause::Func { name, .. } => name.capacity(),
        })
        .sum();
    size_of_val(clauses) + owned
}

/// Heap bytes behind a source form: the relation name, the clause list
/// and what each clause owns (a function's code is shared, not owned).
fn source_heap(source: &Predicate) -> usize {
    let owned: usize = source
        .clauses()
        .iter()
        .map(|c| match c {
            Clause::Range { attr, interval } => attr.len() + interval_heap(interval),
            Clause::Func { name, attr, .. } => name.len() + attr.len(),
        })
        .sum();
    source.relation().len() + size_of_val(source.clauses()) + owned
}

/// Decides where a bound predicate belongs: the most selective
/// indexable clause's tree, the non-indexable list, or nowhere.
fn place(catalog: &Catalog, bound: &BoundPredicate) -> Placement {
    if !bound.is_satisfiable() {
        return Placement::Unsatisfiable;
    }
    match most_selective_indexable(catalog, bound) {
        Some(clause) => Placement::Tree { clause },
        None => Placement::NonIndexable,
    }
}

/// What a match appends for each matching predicate: its bare id, or
/// the id with the route word it was inserted under ([`Routed`]).
/// Entries sort by id.
pub trait MatchOut: Copy + Ord {
    /// The entry for predicate `id`, inserted with `route`.
    fn of(id: PredicateId, route: u32) -> Self;

    /// `out` itself when an entry is a bare id: a match without lanes
    /// stabs a tuple's candidate slots straight into it and tests them
    /// in place.
    fn as_ids(out: &mut Vec<Self>) -> Option<&mut Vec<PredicateId>>;
}

impl MatchOut for PredicateId {
    fn of(id: PredicateId, _: u32) -> Self {
        id
    }

    fn as_ids(out: &mut Vec<Self>) -> Option<&mut Vec<PredicateId>> {
        Some(out)
    }
}

/// A match that carries its route: the predicate's id and the word its
/// caller inserted it with ([`PredicateIndex::insert_routed`]), so the
/// caller reaches what the predicate stands for without a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Routed {
    pub id: PredicateId,
    pub route: u32,
}

impl MatchOut for Routed {
    fn of(id: PredicateId, route: u32) -> Self {
        Routed { id, route }
    }

    fn as_ids(_: &mut Vec<Self>) -> Option<&mut Vec<PredicateId>> {
        None
    }
}

/// The `PREDICATES` slab: per slot, the hot entry and the source form.
type Predicates = Slab<Hot, Predicate>;

/// The residual test (Figure 1's last stage) on a tuple's tree
/// candidates, in place: `ids[from..]` holds candidate slots (the
/// marks the stab found), and keeps the ids of those whose full
/// conjunction holds. The stab proved each candidate's indexed clause,
/// so only its hot residual is tested.
fn residual_in_place(preds: &Predicates, tuple: &Tuple, ids: &mut Vec<PredicateId>, from: usize) {
    let mut keep = from;
    for i in from..ids.len() {
        let hot = preds.hot(ids[i].0);
        if hot.holds(tuple) {
            ids[keep] = hot.id;
            keep += 1;
        }
    }
    ids.truncate(keep);
}

/// The residual test on candidate slots held in a lane: appends to `out`
/// the entry of each one whose full conjunction holds.
fn residual_into<T: MatchOut>(
    preds: &Predicates,
    tuple: &Tuple,
    slots: &[PredicateId],
    out: &mut Vec<T>,
) {
    for slot in slots {
        let hot = preds.hot(slot.0);
        if hot.holds(tuple) {
            out.push(T::of(hot.id, hot.route));
        }
    }
}

/// The identity of a non-indexable predicate's clause set: its
/// `(attribute, function address)` pairs, sorted and deduplicated.
/// The address is the `PredFn`'s `Arc`, not its name — a registry can
/// rebind a name, and two functions under one name must not share a
/// test. A group holds its functions, so an address it keys on cannot
/// be reused while the group lives.
type OpaqueKey = Vec<(usize, usize)>;

/// `clauses` in key order, one per distinct `(attribute, function)`,
/// with the key. Only called on predicates [`place`] sent to the
/// non-indexable list, whose clauses are all functions.
fn opaque_key(clauses: &[BoundClause]) -> (OpaqueKey, Vec<&BoundClause>) {
    let mut clauses: Vec<((usize, usize), &BoundClause)> = clauses
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
    /// Members' slots, in registration order.
    slots: Vec<u32>,
}

impl OpaqueGroup {
    /// Does the clause set hold for `tuple`?
    fn holds(&self, tuple: &Tuple) -> bool {
        self.clauses.iter().all(|c| c.test(tuple))
    }

    /// Heap bytes behind the key, the clauses and the member list.
    fn heap_bytes(&self) -> usize {
        self.key.capacity() * size_of::<(usize, usize)>()
            + clauses_heap(&self.clauses)
            + self.slots.capacity() * size_of::<u32>()
    }
}

/// One attribute's IBS-tree plus its pre-resolved stab-work counters,
/// minted when the tree (or the telemetry attachment) is created, so
/// the stab path records with atomic adds only.
#[derive(Debug, Clone)]
struct AttrTree {
    tree: IbsTree<Value>,
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
    /// Cached `predindex_relation_matches_total` counter.
    matches: Option<Counter>,
}

impl RelationIndex {
    /// An empty second-level index recording into `metrics`.
    fn new(relation: &str, metrics: &IndexMetrics) -> Self {
        RelationIndex {
            attr_trees: FnvHashMap::default(),
            non_indexable: Vec::new(),
            matches: metrics.relation_matches(relation),
        }
    }

    /// Re-mints every cached handle from `metrics` — called when
    /// telemetry is attached to an index that already holds trees.
    fn rebind(&mut self, relation: &str, metrics: &IndexMetrics) {
        self.matches = metrics.relation_matches(relation);
        for (&attr, at) in self.attr_trees.iter_mut() {
            at.work = metrics.attr_work(relation, attr);
        }
    }

    /// Indexes `interval` under `attr` with mark `slot`, creating the
    /// tree on first use.
    fn insert_tree(
        &mut self,
        relation: &str,
        attr: usize,
        slot: u32,
        interval: Interval<Value>,
        metrics: &IndexMetrics,
    ) {
        let at = self.attr_trees.entry(attr).or_insert_with(|| AttrTree {
            tree: IbsTree::new(),
            work: metrics.attr_work(relation, attr),
        });
        at.tree
            .insert(PredicateId(slot), interval)
            .expect("the slot was vacant; the tree cannot already hold it");
    }

    /// Adds `slot` to the group of its clause set, opening the group on
    /// first use.
    fn push_non_indexable(&mut self, slot: u32, clauses: &[BoundClause]) {
        let (key, clauses) = opaque_key(clauses);
        match self.non_indexable.iter_mut().find(|g| g.key == key) {
            Some(group) => group.slots.push(slot),
            None => self.non_indexable.push(OpaqueGroup {
                key,
                clauses: clauses.into_iter().cloned().collect(),
                slots: vec![slot],
            }),
        }
    }

    /// Removes the interval marked `slot`, dropping the tree when it
    /// empties, and returns it.
    fn remove_tree(&mut self, attr: usize, slot: u32) -> Interval<Value> {
        let at = self
            .attr_trees
            .get_mut(&attr)
            .expect("a Tree placement was recorded for this attribute");
        let interval = at
            .tree
            .remove(PredicateId(slot))
            .expect("the tree has held this slot since its placement was recorded");
        if at.tree.is_empty() {
            self.attr_trees.remove(&attr);
        }
        interval
    }

    /// Removes `slot` from its clause set's group, dropping the group
    /// when it empties. `clauses` are the predicate's own hot residual,
    /// so its functions (and their addresses) are the ones the group
    /// keys on.
    fn remove_non_indexable(&mut self, slot: u32, clauses: &[BoundClause]) {
        let (key, _) = opaque_key(clauses);
        let gix = self
            .non_indexable
            .iter()
            .position(|g| g.key == key)
            .expect("a NonIndexable predicate is a member of its clause set's group");
        let group = &mut self.non_indexable[gix];
        group.slots.retain(|&s| s != slot);
        if group.slots.is_empty() {
            self.non_indexable.swap_remove(gix);
        }
    }

    /// Partial match — the tree half of Figure 1's second level — for a
    /// group of at most [`LANES`] tuples: stabs every per-attribute
    /// IBS-tree with each tuple's value for that attribute, appending
    /// tuple `l`'s candidate slots to `outs[l]`. The group descends each tree
    /// in lock-step (`IbsTree::stab_lanes_into`). Each indexable
    /// predicate lives in exactly one tree, so no deduplication is
    /// needed; the non-indexable list is
    /// [`sweep`](Self::sweep)'s. Attributes beyond a tuple's arity are
    /// skipped — a clause on a missing attribute cannot hold, and the
    /// residual test agrees (see `BoundClause::test`) — and a group
    /// holding such a tuple, like a group of one, stabs that tree one
    /// lane at a time.
    ///
    /// Each stab reports its §5 work into a fresh `S` and is then handed
    /// to `each` as `(lane, attr, tree, value, work)`, `lane` being the
    /// tuple's position in the group. With `S = ()` and
    /// an empty closure this monomorphizes to the bare loop over
    /// uninstrumented stabs, as `IbsTree::stab_into_observed` does one
    /// level down.
    fn partial_match<S: StabObserver + Default + Copy>(
        &self,
        group: &[&Tuple],
        outs: &mut [Vec<PredicateId>],
        mut each: impl FnMut(usize, usize, &AttrTree, &Value, S),
    ) {
        let n = group.len();
        for (&attr, at) in &self.attr_trees {
            if n > 1 && group.iter().all(|t| attr < t.values().len()) {
                let mut keys = [&group[0].values()[attr]; LANES];
                for (key, tuple) in keys.iter_mut().zip(group) {
                    *key = &tuple.values()[attr];
                }
                let mut work = [S::default(); LANES];
                at.tree
                    .stab_lanes_into(&keys[..n], &mut outs[..n], &mut work[..n]);
                for (lane, (key, work)) in keys[..n].iter().zip(work).enumerate() {
                    each(lane, attr, at, key, work);
                }
            } else {
                for (lane, (tuple, out)) in group.iter().zip(outs.iter_mut()).enumerate() {
                    if let Some(value) = tuple.values().get(attr) {
                        let mut work = S::default();
                        at.tree.stab_into_observed(value, out, &mut work);
                        each(lane, attr, at, value, work);
                    }
                }
            }
        }
    }

    /// The non-indexable sweep: tests each clause set once and appends
    /// every member of a set that holds — full matches, not candidates.
    /// Returns `(sets tested, sets that held)`.
    fn sweep<T: MatchOut>(
        &self,
        preds: &Predicates,
        tuple: &Tuple,
        out: &mut Vec<T>,
    ) -> (u64, u64) {
        let mut held = 0;
        for group in &self.non_indexable {
            if group.holds(tuple) {
                held += 1;
                out.extend(group.slots.iter().map(|&slot| {
                    let hot = preds.hot(slot);
                    T::of(hot.id, hot.route)
                }));
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
            non_indexable: self.non_indexable.iter().map(|g| g.slots.len()).sum(),
        }
    }

    /// Number of attribute trees (stats support).
    fn tree_count(&self) -> usize {
        self.attr_trees.len()
    }

    /// Heap bytes behind the tree table, each tree (string keys aside:
    /// the core counts those per predicate) and the grouped list.
    fn heap_bytes(&self) -> usize {
        let trees: usize = self
            .attr_trees
            .values()
            .map(|at| at.tree.approx_bytes())
            .sum();
        let groups: usize = self.non_indexable.iter().map(OpaqueGroup::heap_bytes).sum();
        map_bytes(&self.attr_trees)
            + trees
            + self.non_indexable.capacity() * size_of::<OpaqueGroup>()
            + groups
    }
}

/// The candidate buffers of one lock-step group, one per lane: where
/// [`PredicateIndex::match_run_into`] stabs a group's tuples (their
/// candidate slots) before each tuple's residual test. Scratch with no
/// meaning between calls; reuse one so a warm run allocates nothing.
#[derive(Debug, Default)]
pub struct MatchLanes {
    bufs: [Vec<PredicateId>; LANES],
}

/// Heap bytes a tree holds for one indexed interval's string keys: a
/// copy in its interval table and one in each endpoint's node (an
/// overcount when two intervals share an endpoint).
fn tree_key_heap(interval: &Interval<Value>) -> usize {
    2 * interval_heap(interval)
}

/// The Figure 1 structure itself: relation-name hash → per-attribute
/// second-level index, and `PREDICATES` as one slab — per slot, the hot
/// entry the match path reads (placement, residual clauses, id, route
/// word) and the source form that only remove, EXPLAIN and `get` read.
/// Ids are assigned by the owning front-end; everything else —
/// placement, removal, matching, EXPLAIN, stats — happens here and
/// nowhere else.
#[derive(Debug, Clone)]
pub(crate) struct IndexCore {
    relations: FnvHashMap<String, RelationIndex>,
    preds: Predicates,
    /// Heap behind the per-predicate entries — source forms, residuals,
    /// tree string keys — counted at insert and remove.
    entry_heap: usize,
}

impl IndexCore {
    /// An empty core; its IBS-trees are AVL-balanced.
    pub(crate) fn new() -> Self {
        IndexCore {
            relations: FnvHashMap::default(),
            preds: Slab::default(),
            entry_heap: 0,
        }
    }

    /// `relation`'s second-level index, created (with its telemetry
    /// handles resolved against `metrics`) on first use. The name is
    /// copied only then.
    fn relation_index(&mut self, relation: &str, metrics: &IndexMetrics) -> &mut RelationIndex {
        if !self.relations.contains_key(relation) {
            self.relations
                .insert(relation.to_string(), RelationIndex::new(relation, metrics));
        }
        self.relations
            .get_mut(relation)
            .expect("the entry was created above if it was missing")
    }

    /// Stores `stored` under the caller-assigned `id` with its `route`
    /// word in the next free slot, and indexes the slot where [`place`]
    /// says it belongs. The bound clauses are moved, not copied: the
    /// indexed one into its tree, the rest into the hot entry.
    pub(crate) fn insert_bound(
        &mut self,
        id: PredicateId,
        route: u32,
        stored: StoredPredicate,
        catalog: &Catalog,
        metrics: &IndexMetrics,
    ) {
        let StoredPredicate { source, bound } = stored;
        let placement = place(catalog, &bound);
        let mut clauses = bound.into_clauses();
        let relation = source.relation();
        let slot = self.preds.next_slot();
        let mut heap = source_heap(&source);
        let location = match placement {
            Placement::Unsatisfiable => {
                clauses.clear();
                Location::Unsatisfiable
            }
            Placement::Tree { clause } => {
                let BoundClause::Range { attr, interval } = clauses.remove(clause) else {
                    unreachable!("most_selective_indexable only ever selects Range clauses")
                };
                heap += tree_key_heap(&interval);
                self.relation_index(relation, metrics)
                    .insert_tree(relation, attr, slot, interval, metrics);
                Location::Tree {
                    attr: u32::try_from(attr).expect("a schema has fewer than 2^32 attributes"),
                }
            }
            Placement::NonIndexable => {
                self.relation_index(relation, metrics)
                    .push_non_indexable(slot, &clauses);
                Location::NonIndexable
            }
        };
        let residual = clauses.into_boxed_slice();
        self.entry_heap += heap + clauses_heap(&residual);
        let hot = Hot {
            location,
            residual,
            id,
            route,
        };
        self.preds.insert(id.0, hot, source);
    }

    /// Unregisters `id`, returning its source form.
    pub(crate) fn remove(&mut self, id: PredicateId) -> Option<Predicate> {
        let (
            slot,
            Hot {
                location, residual, ..
            },
            source,
        ) = self.preds.remove(id.0)?;
        let mut heap = source_heap(&source) + clauses_heap(&residual);
        match location {
            Location::Tree { attr } => {
                let interval = self
                    .relations
                    .get_mut(source.relation())
                    .expect("a Tree location implies the relation entry exists")
                    .remove_tree(attr as usize, slot);
                heap += tree_key_heap(&interval);
            }
            Location::NonIndexable => {
                self.relations
                    .get_mut(source.relation())
                    .expect("a NonIndexable location implies the relation entry exists")
                    .remove_non_indexable(slot, &residual);
            }
            Location::Unsatisfiable => {}
        }
        self.entry_heap -= heap;
        Some(source)
    }

    /// The full match path over a run of tuples of `relation`: hash on
    /// the relation name once, then per group of tuples — as many as
    /// there are `lanes`, at most [`LANES`], one without lanes — the
    /// tree stabs in lock-step (metered when counters are on), then per
    /// tuple the residual test on its candidate slots, the grouped
    /// non-indexable sweep, one sort of its matches and one
    /// `record_match`. Each tuple's matches are
    /// appended to `out` and their range handed to `matched` with the
    /// tuple's work counts, in run order. `clock` laps `stab` and
    /// `residual` once per group. Without lanes a tuple stabs straight
    /// into `out` (bare ids only) and is tested in place; with lanes it
    /// stabs into its lane, and the residual test appends its matches.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn match_into<'t, T: MatchOut>(
        &self,
        relation: &str,
        tuples: impl IntoIterator<Item = &'t Tuple>,
        lanes: &mut [Vec<PredicateId>],
        out: &mut Vec<T>,
        metrics: &IndexMetrics,
        clock: &mut StageClock,
        mut matched: impl FnMut(Range<usize>, &CostSnapshot),
    ) {
        let width = lanes.len().min(LANES);
        let lanes = &mut lanes[..width];
        let direct = lanes.is_empty();
        let mut tuples = tuples.into_iter();
        let Some(ri) = self.relations.get(relation) else {
            for _ in tuples {
                metrics.record_unindexed_match(relation);
                matched(out.len()..out.len(), &CostSnapshot::default());
            }
            return;
        };
        let tracer = metrics.tracer();
        while let Some(first) = tuples.next() {
            let mut group = [first; LANES];
            let mut n = 1;
            for tuple in tuples.by_ref().take(lanes.len().saturating_sub(1)) {
                group[n] = tuple;
                n += 1;
            }
            let group = &group[..n];
            let from = out.len();
            // Per lane, its tuple's stab work (nodes, marks), when metered.
            let mut stabbed = [(0, 0); LANES];
            {
                let _stab = tracer.span("predindex_stab");
                let outs = if direct {
                    std::slice::from_mut(
                        T::as_ids(out).expect("a match without lanes appends bare ids"),
                    )
                } else {
                    lanes[..n].iter_mut().for_each(Vec::clear);
                    &mut lanes[..n]
                };
                if metrics.is_enabled() {
                    // Through the handles each tree and relation caches:
                    // atomic adds only, no name lookups on the match path.
                    ri.partial_match(group, outs, |lane, _, at, _, work: StabStats| {
                        metrics.record_attr_stab(
                            at.work.as_ref(),
                            work.nodes_visited,
                            work.marks_scanned,
                        );
                        stabbed[lane].0 += work.nodes_visited;
                        stabbed[lane].1 += work.marks_scanned;
                    });
                } else {
                    ri.partial_match(group, outs, |_, _, _, _, ()| {});
                }
            }
            clock.lap(Stage::Stab);
            for (lane, tuple) in group.iter().enumerate() {
                let from = if direct { from } else { out.len() };
                let partials = if direct {
                    out.len() - from
                } else {
                    lanes[lane].len()
                } as u64;
                let (swept, passes) = {
                    let _residual = tracer.span_with("predindex_residual", || {
                        vec![("partials", partials.to_string())]
                    });
                    if direct {
                        let ids = T::as_ids(out).expect("a match without lanes appends bare ids");
                        residual_in_place(&self.preds, tuple, ids, from);
                    } else {
                        residual_into(&self.preds, tuple, &lanes[lane], out);
                    }
                    let tree_passes = (out.len() - from) as u64;
                    let (swept, held) = ri.sweep(&self.preds, tuple, out);
                    out[from..].sort_unstable();
                    (swept, tree_passes + held)
                };
                metrics.record_match(ri.matches.as_ref(), partials, swept, passes);
                let (ibs_nodes, ibs_marks) = stabbed[lane];
                let work = CostSnapshot {
                    ibs_nodes,
                    ibs_marks,
                    residual_tests: partials + swept,
                    residual_passes: passes,
                    non_indexable: swept,
                    ..CostSnapshot::default()
                };
                matched(from..out.len(), &work);
            }
            clock.lap(Stage::Residual);
        }
    }

    /// Builds the Figure 1 EXPLAIN trace for one tuple: the same walk
    /// as [`match_into`](Self::match_into), but recording per-stage
    /// work and every outcome instead of counters — one `ResidualTrace`
    /// per tree candidate, then one per member of each swept clause
    /// set, carrying its set's outcome. A slot is named by the id that
    /// lives in it now.
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
            &[tuple],
            std::slice::from_mut(&mut candidates),
            |_, attr, at, value, work: StabStats| {
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
        let residual = |slot: u32, pass: bool| ResidualTrace {
            predicate: self.preds.hot(slot).id.0,
            pass,
            source: self
                .preds
                .cold(slot)
                .to_source()
                .unwrap_or_else(|| "<opaque>".to_string()),
        };
        for slot in candidates {
            let pass = self.preds.hot(slot.0).holds(tuple);
            trace.residual.push(residual(slot.0, pass));
        }
        trace.non_indexable_scanned = ri.non_indexable.len();
        for group in &ri.non_indexable {
            let pass = group.holds(tuple);
            trace.non_indexable_predicates += group.slots.len();
            trace
                .residual
                .extend(group.slots.iter().map(|&slot| residual(slot, pass)));
        }
        trace
    }

    /// Re-mints every cached telemetry handle (see
    /// [`RelationIndex::rebind`]).
    pub(crate) fn rebind(&mut self, metrics: &IndexMetrics) {
        for (relation, ri) in self.relations.iter_mut() {
            ri.rebind(relation, metrics);
        }
    }

    /// The source form of a registered predicate.
    pub(crate) fn get(&self, id: PredicateId) -> Option<&Predicate> {
        Some(self.preds.cold(self.preds.slot(id.0)?))
    }

    /// The route word a registered predicate was inserted with.
    pub(crate) fn route(&self, id: PredicateId) -> Option<u32> {
        Some(self.preds.hot(self.preds.slot(id.0)?).route)
    }

    /// Does this core hold `id`?
    pub(crate) fn contains(&self, id: PredicateId) -> bool {
        self.preds.slot(id.0).is_some()
    }

    /// Number of stored predicates (including unsatisfiable ones).
    pub(crate) fn len(&self) -> usize {
        self.preds.len()
    }

    /// Resident bytes: every table at capacity, each tree's
    /// `approx_bytes`, the grouped lists, and the per-predicate heap
    /// counted at insert and remove. What the allocator rounds up is not
    /// in it.
    pub(crate) fn approx_bytes(&self) -> usize {
        let relations: usize = self
            .relations
            .iter()
            .map(|(name, ri)| name.capacity() + ri.heap_bytes())
            .sum();
        map_bytes(&self.relations) + relations + self.preds.table_bytes() + self.entry_heap
    }

    /// Number of per-attribute IBS-trees.
    pub(crate) fn tree_count(&self) -> usize {
        self.relations.values().map(|r| r.tree_count()).sum()
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
            predicates: self.preds.len(),
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
        PredicateIndex {
            core: IndexCore::new(),
            next_id: 0,
            metrics: IndexMetrics::disabled(),
        }
    }

    /// Points the index at `telemetry` (a bare `Arc<Registry>` converts
    /// into a counters-only handle): match-path counters go to its
    /// registry and `predindex_stab` / `predindex_residual` spans to its
    /// tracer. Whatever was attached before is replaced whole. Until
    /// this is called the index runs with the no-op bundle: one branch
    /// per would-be recording site.
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

    /// The source form of a registered predicate, as it was inserted.
    pub fn get(&self, id: PredicateId) -> Option<&Predicate> {
        self.core.get(id)
    }

    /// Registers `pred` like [`Matcher::insert`], with a `route` word
    /// that every [`Routed`] match of it carries — what a caller needs
    /// to act on the match (a rule engine: the rule's slot), handed
    /// back without a lookup.
    pub fn insert_routed(
        &mut self,
        pred: Predicate,
        catalog: &Catalog,
        route: u32,
    ) -> Result<PredicateId, IndexError> {
        let stored = StoredPredicate::bind(pred, catalog)?;
        // Drawn only after binding succeeds, so failed inserts leave
        // no gap in the id sequence. Ids are never reused: a stale id
        // must not name a newer predicate, so the last id is an error,
        // not a restart.
        let id = PredicateId(self.next_id);
        self.next_id = self
            .next_id
            .checked_add(1)
            .ok_or(IndexError::IdsExhausted)?;
        self.core
            .insert_bound(id, route, stored, catalog, &self.metrics);
        Ok(id)
    }

    /// The route word `id` was registered with (0 through
    /// [`Matcher::insert`]).
    pub fn route(&self, id: PredicateId) -> Option<u32> {
        self.core.route(id)
    }

    /// Approximate resident bytes of the index: its tables at capacity,
    /// its IBS-trees, and the heap behind every registered predicate
    /// (counted when it is inserted and removed, so this is a sum on
    /// read, not a walk of the predicates). Shared function code and the
    /// metric bundle are not counted.
    pub fn approx_bytes(&self) -> usize {
        self.core.approx_bytes()
    }

    /// Matching ids appended into a caller-owned buffer (hot path): the
    /// run of one tuple.
    pub fn match_tuple_into(&self, relation: &str, tuple: &Tuple, out: &mut Vec<PredicateId>) {
        let clock = &mut StageClock::default();
        self.core.match_into(
            relation,
            [tuple],
            &mut [],
            out,
            &self.metrics,
            clock,
            |_, _| {},
        );
    }

    /// Matches a run of tuples of one relation — what a rule engine's
    /// matching level holds — as that many
    /// [`match_tuple_into`](Self::match_tuple_into) calls would, with
    /// the same ids, counters and spans, but descending each IBS-tree
    /// with up to [`LANES`] of the tuples in lock-step. Each tuple's
    /// matches — bare ids, or [`Routed`] ids with their route words —
    /// are appended to `out`, sorted by id, and their range is handed
    /// to `matched`, in run order, with the tuple's own work: its stab
    /// counts (zero unless the index is metered), residual tests, passes
    /// and sweeps — the same counts the registry's counters add up.
    /// `clock` laps the `stab` and `residual` stages once per lock-step
    /// group (an inert clock costs one branch). `lanes` is scratch: keep
    /// one and reuse it, so a warm run allocates nothing.
    ///
    /// ```
    /// use predindex::{MatchLanes, PredicateIndex, Routed};
    /// use predicate::parse_predicate;
    /// use relation::{AttrType, Database, Schema, Value};
    /// use telemetry::StageClock;
    ///
    /// let mut db = Database::new();
    /// db.create_relation(Schema::builder("emp").attr("age", AttrType::Int).build())
    ///     .unwrap();
    /// let mut index = PredicateIndex::new();
    /// let pred = parse_predicate("emp.age > 50").unwrap();
    /// let old = index.insert_routed(pred, db.catalog(), 7).unwrap();
    /// let run: Vec<_> = [61, 30]
    ///     .map(|age| db.insert("emp", vec![Value::Int(age)]).unwrap())
    ///     .to_vec();
    ///
    /// let mut out: Vec<Routed> = Vec::new();
    /// let (mut ranges, mut tests) = (Vec::new(), 0);
    /// let (lanes, clock) = (&mut MatchLanes::default(), &mut StageClock::default());
    /// index.match_run_into("emp", &run, lanes, &mut out, clock, |r, work| {
    ///     ranges.push(r);
    ///     tests += work.residual_tests;
    /// });
    /// assert_eq!(out, vec![Routed { id: old, route: 7 }]);
    /// assert_eq!(ranges, vec![0..1, 1..1]);
    /// assert_eq!(tests, 1); // 61 found the tree's one candidate; 30 found none
    /// ```
    pub fn match_run_into<'t, T: MatchOut>(
        &self,
        relation: &str,
        tuples: impl IntoIterator<Item = &'t Tuple>,
        lanes: &mut MatchLanes,
        out: &mut Vec<T>,
        clock: &mut StageClock,
        matched: impl FnMut(Range<usize>, &CostSnapshot),
    ) {
        self.core.match_into(
            relation,
            tuples,
            &mut lanes.bufs,
            out,
            &self.metrics,
            clock,
            matched,
        );
    }

    /// Number of per-attribute IBS-trees across all relations (for
    /// diagnostics and the §5.2 cost model).
    pub fn attribute_tree_count(&self) -> usize {
        self.core.tree_count()
    }

    /// Snapshots the index structure.
    pub fn stats(&self) -> IndexStats {
        self.core.stats()
    }
}

impl Matcher for PredicateIndex {
    fn insert(&mut self, pred: Predicate, catalog: &Catalog) -> Result<PredicateId, IndexError> {
        self.insert_routed(pred, catalog, 0)
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
        assert_eq!(index.get(first), Some(&pred(0)));
        let t = db.insert("emp", vec![Value::Int(9)]).unwrap();
        assert_eq!(index.match_tuple("emp", &t), vec![first]);
    }
}
