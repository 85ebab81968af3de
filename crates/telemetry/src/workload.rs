//! Per-relation+attribute workload accounts: the observation half of
//! the ROADMAP's adaptive-index-selection loop.
//!
//! The §5.2 cost model prices an index by op mix (stabs vs inserts vs
//! deletes), live predicate population, and stab selectivity — all
//! quantities a running matcher can observe. [`WorkloadStats`] is the
//! clonable handle the predicate index records into: one counter cell
//! bundle per `(relation, attribute)` (stab count, stab hits, insert /
//! delete counts split by clause shape, an interval-length histogram
//! and a hits-per-stab overlap histogram), plus per-relation accounts
//! for the non-indexable list and tuple arrivals.
//!
//! Totals are monotone registry counters (so they show up on
//! `/metrics` like everything else); *rates* come from
//! [`WorkloadStats::sample_window`], which snapshots the totals,
//! diffs them against the previous snapshot, and pushes the delta
//! into a bounded ring of [`WorkloadWindow`]s. An advisor reading
//! [`WorkloadStats::summary`] therefore sees the recent op mix, not
//! the since-boot average.
//!
//! The disabled handle follows the crate contract: every recording
//! call is one predictable branch and nothing else.

use crate::counter::Counter;
use crate::histogram::{quantile, Histogram};
use crate::registry::Registry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Bounded window-ring capacity: enough history for a trend, small
/// enough that sampling every scrape never grows memory.
pub const WORKLOAD_WINDOW_CAPACITY: usize = 32;

/// The shape of the clause a predicate contributes to its attribute's
/// interval index — the paper's `<` / `=` / `>` / interval taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClauseShape {
    /// Open-ended below: `x < b` / `x <= b`.
    Less,
    /// A point: `x = k`.
    Eq,
    /// Open-ended above: `x > a` / `x >= a`.
    Greater,
    /// Bounded on both sides (or unbounded on both — a universal
    /// clause behaves like a maximal interval).
    Interval,
}

impl ClauseShape {
    /// Every shape, in label order.
    pub const ALL: [ClauseShape; 4] = [
        ClauseShape::Less,
        ClauseShape::Eq,
        ClauseShape::Greater,
        ClauseShape::Interval,
    ];

    /// The metric-label value for this shape.
    pub fn label(self) -> &'static str {
        match self {
            ClauseShape::Less => "less",
            ClauseShape::Eq => "eq",
            ClauseShape::Greater => "greater",
            ClauseShape::Interval => "interval",
        }
    }

    /// Array slot for per-shape tallies (matches [`ClauseShape::ALL`]).
    pub fn index(self) -> usize {
        match self {
            ClauseShape::Less => 0,
            ClauseShape::Eq => 1,
            ClauseShape::Greater => 2,
            ClauseShape::Interval => 3,
        }
    }
}

/// Registry cells for one `(relation, attribute)` account.
#[derive(Debug)]
struct AttrCells {
    stabs: Counter,
    stab_hits: Counter,
    shape_inserts: [Counter; 4],
    shape_deletes: [Counter; 4],
    /// Finite interval lengths at insert time (points record 0;
    /// open-ended and non-numeric intervals are not recorded).
    length: Histogram,
    /// Hits per stab — the observed overlap / selectivity histogram.
    overlap: Histogram,
}

/// Registry cells for one relation's non-attribute accounts.
#[derive(Debug)]
struct RelationCells {
    tuples: Counter,
    non_indexable_inserts: Counter,
    non_indexable_deletes: Counter,
}

/// Monotone tallies of one attribute account, used for window deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct AttrTotals {
    stabs: u64,
    stab_hits: u64,
    shape_inserts: [u64; 4],
    shape_deletes: [u64; 4],
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RelationTotals {
    tuples: u64,
    non_indexable_inserts: u64,
    non_indexable_deletes: u64,
}

/// One `(relation, attribute)` account as a reader sees it: either
/// lifetime totals, or one window's deltas (in a window the monotone
/// fields are deltas while `live` and the histogram-derived fields are
/// the state at sample time).
#[derive(Debug, Clone, PartialEq)]
pub struct AttrUsage {
    pub relation: String,
    /// Schema position of the attribute.
    pub attr: usize,
    /// Stabs against this attribute's tree.
    pub stabs: u64,
    /// Total ids those stabs reported.
    pub stab_hits: u64,
    /// Predicate inserts split by clause shape ([`ClauseShape::ALL`]
    /// order).
    pub shape_inserts: [u64; 4],
    /// Predicate deletes, same split.
    pub shape_deletes: [u64; 4],
    /// Live predicates by clause shape (lifetime inserts − deletes).
    pub live: [u64; 4],
    /// Observations in the interval-length histogram (lifetime).
    pub length_count: u64,
    /// Sum of recorded interval lengths (lifetime).
    pub length_sum: u64,
    /// Median recorded interval length (lifetime).
    pub p50_length: u64,
    /// p99 of hits-per-stab (lifetime).
    pub p99_overlap: u64,
}

impl AttrUsage {
    /// Total predicate inserts across shapes.
    pub fn inserts(&self) -> u64 {
        self.shape_inserts.iter().sum()
    }

    /// Total predicate deletes across shapes.
    pub fn deletes(&self) -> u64 {
        self.shape_deletes.iter().sum()
    }

    /// Live predicates across shapes.
    pub fn live_total(&self) -> u64 {
        self.live.iter().sum()
    }

    /// Mean ids reported per stab — the observed overlap at the stab
    /// points, the §5.2 `L` term per probe.
    pub fn mean_hits(&self) -> f64 {
        if self.stabs == 0 {
            0.0
        } else {
            self.stab_hits as f64 / self.stabs as f64
        }
    }
}

/// One relation's non-attribute account (same delta-vs-lifetime
/// convention as [`AttrUsage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationUsage {
    pub relation: String,
    /// Tuples presented to the matcher for this relation.
    pub tuples: u64,
    /// Predicates appended to the non-indexable list.
    pub non_indexable_inserts: u64,
    /// Predicates removed from the non-indexable list.
    pub non_indexable_deletes: u64,
    /// Live non-indexable predicates (lifetime inserts − deletes).
    pub live_non_indexable: u64,
}

/// One sampled window: the account deltas since the previous sample.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadWindow {
    /// 1-based sample sequence number.
    pub seq: u64,
    /// Wall-clock span of the window.
    pub elapsed_nanos: u64,
    /// Per-attribute deltas (sorted by relation, then attribute).
    pub attrs: Vec<AttrUsage>,
    /// Per-relation deltas (sorted by relation).
    pub relations: Vec<RelationUsage>,
}

/// The rolled-up view an advisor consumes: every window currently in
/// the ring summed together, or the lifetime totals when nothing has
/// been sampled yet.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// True when the summary came from sampled windows (rates), false
    /// when it fell back to lifetime totals.
    pub windowed: bool,
    /// Windows aggregated (0 on the lifetime fallback).
    pub windows: usize,
    /// Wall-clock span covered.
    pub elapsed_nanos: u64,
    pub attrs: Vec<AttrUsage>,
    pub relations: Vec<RelationUsage>,
}

#[derive(Debug)]
struct WindowState {
    ring: VecDeque<WorkloadWindow>,
    last_attr: BTreeMap<(String, usize), AttrTotals>,
    last_rel: BTreeMap<String, RelationTotals>,
    last_at: Instant,
    seq: u64,
}

#[derive(Debug)]
struct Inner {
    registry: Arc<Registry>,
    attrs: RwLock<HashMap<String, HashMap<usize, Arc<AttrCells>>>>,
    relations: RwLock<HashMap<String, Arc<RelationCells>>>,
    windows: Mutex<WindowState>,
    windows_sampled: Counter,
}

/// A pre-resolved handle onto one `(relation, attr)` account. Minting
/// ([`WorkloadStats::attr_recorder`]) pays the lock-and-map lookup
/// once; recording through the handle is a few atomic adds, which is
/// what lets the match path keep per-stab accounting without hashing
/// the relation name on every tuple. The default handle is a no-op.
#[derive(Debug, Clone, Default)]
pub struct AttrRecorder {
    cells: Option<Arc<AttrCells>>,
}

impl AttrRecorder {
    /// Does this handle record anywhere?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// One stab of the account's tree reporting `hits` ids.
    #[inline]
    pub fn record_stab(&self, hits: u64) {
        if let Some(cells) = &self.cells {
            cells.stabs.inc();
            cells.stab_hits.add(hits);
            cells.overlap.record(hits);
        }
    }

    /// One predicate placed into the account's tree.
    pub fn record_insert(&self, shape: ClauseShape, length: Option<u64>) {
        if let Some(cells) = &self.cells {
            cells.shape_inserts[shape.index()].inc();
            if let Some(len) = length {
                cells.length.record(len);
            }
        }
    }

    /// One predicate removed from the account's tree.
    pub fn record_delete(&self, shape: ClauseShape) {
        if let Some(cells) = &self.cells {
            cells.shape_deletes[shape.index()].inc();
        }
    }
}

/// A pre-resolved handle onto one relation's account — the
/// per-relation counterpart of [`AttrRecorder`]. Default is a no-op.
#[derive(Debug, Clone, Default)]
pub struct RelationRecorder {
    cells: Option<Arc<RelationCells>>,
}

impl RelationRecorder {
    /// Does this handle record anywhere?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// One tuple presented to the matcher for this relation.
    #[inline]
    pub fn record_tuple(&self) {
        if let Some(cells) = &self.cells {
            cells.tuples.inc();
        }
    }

    /// One predicate appended to the relation's non-indexable list.
    pub fn record_non_indexable_insert(&self) {
        if let Some(cells) = &self.cells {
            cells.non_indexable_inserts.inc();
        }
    }

    /// One predicate removed from the relation's non-indexable list.
    pub fn record_non_indexable_delete(&self) {
        if let Some(cells) = &self.cells {
            cells.non_indexable_deletes.inc();
        }
    }
}

/// The clonable workload-account handle. Like
/// [`Counter`](crate::Counter), the enabled flag travels by value: a
/// disabled handle costs one branch per recording call.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    enabled: bool,
    inner: Arc<Inner>,
}

impl WorkloadStats {
    /// A permanently no-op handle.
    pub fn disabled() -> WorkloadStats {
        WorkloadStats {
            enabled: false,
            inner: Arc::new(Inner::new(Arc::new(Registry::disabled()))),
        }
    }

    /// A live handle recording into `registry` (a disabled registry
    /// yields the no-op handle).
    pub fn new(registry: &Arc<Registry>) -> WorkloadStats {
        if !registry.is_enabled() {
            return WorkloadStats::disabled();
        }
        WorkloadStats {
            enabled: true,
            inner: Arc::new(Inner::new(Arc::clone(registry))),
        }
    }

    /// Does this handle record anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The registry the accounts live in (disabled on a no-op handle).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Mints a cached handle onto `relation`/`attr`'s account for
    /// hot-path recording (no-op when this handle is disabled).
    pub fn attr_recorder(&self, relation: &str, attr: usize) -> AttrRecorder {
        if !self.enabled {
            return AttrRecorder::default();
        }
        AttrRecorder {
            cells: Some(self.inner.attr_cells(relation, attr)),
        }
    }

    /// Mints a cached handle onto `relation`'s account for hot-path
    /// recording (no-op when this handle is disabled).
    pub fn relation_recorder(&self, relation: &str) -> RelationRecorder {
        if !self.enabled {
            return RelationRecorder::default();
        }
        RelationRecorder {
            cells: Some(self.inner.relation_cells(relation)),
        }
    }

    /// Lifetime account snapshots (sorted by relation, then attribute).
    pub fn lifetime(&self) -> (Vec<AttrUsage>, Vec<RelationUsage>) {
        if !self.enabled {
            return (Vec::new(), Vec::new());
        }
        (self.inner.attr_lifetime(), self.inner.relation_lifetime())
    }

    /// Closes the current window: diffs the lifetime totals against
    /// the previous sample and pushes the delta into the bounded ring.
    /// Returns the new window (`None` on a disabled handle).
    pub fn sample_window(&self) -> Option<WorkloadWindow> {
        if !self.enabled {
            return None;
        }
        let attrs = self.inner.attr_lifetime();
        let relations = self.inner.relation_lifetime();
        let mut state = self
            .inner
            .windows
            .lock()
            .expect("window ring poisoned: a holder panicked");
        let now = Instant::now();
        let elapsed =
            u64::try_from(now.duration_since(state.last_at).as_nanos()).unwrap_or(u64::MAX);
        state.last_at = now;
        state.seq += 1;

        let mut window = WorkloadWindow {
            seq: state.seq,
            elapsed_nanos: elapsed,
            attrs: Vec::with_capacity(attrs.len()),
            relations: Vec::with_capacity(relations.len()),
        };
        for usage in attrs {
            let key = (usage.relation.clone(), usage.attr);
            let totals = AttrTotals {
                stabs: usage.stabs,
                stab_hits: usage.stab_hits,
                shape_inserts: usage.shape_inserts,
                shape_deletes: usage.shape_deletes,
            };
            let prev = state.last_attr.insert(key, totals).unwrap_or_default();
            let mut delta = usage;
            delta.stabs = totals.stabs.saturating_sub(prev.stabs);
            delta.stab_hits = totals.stab_hits.saturating_sub(prev.stab_hits);
            for i in 0..4 {
                delta.shape_inserts[i] =
                    totals.shape_inserts[i].saturating_sub(prev.shape_inserts[i]);
                delta.shape_deletes[i] =
                    totals.shape_deletes[i].saturating_sub(prev.shape_deletes[i]);
            }
            window.attrs.push(delta);
        }
        for usage in relations {
            let totals = RelationTotals {
                tuples: usage.tuples,
                non_indexable_inserts: usage.non_indexable_inserts,
                non_indexable_deletes: usage.non_indexable_deletes,
            };
            let prev = state
                .last_rel
                .insert(usage.relation.clone(), totals)
                .unwrap_or_default();
            let mut delta = usage;
            delta.tuples = totals.tuples.saturating_sub(prev.tuples);
            delta.non_indexable_inserts = totals
                .non_indexable_inserts
                .saturating_sub(prev.non_indexable_inserts);
            delta.non_indexable_deletes = totals
                .non_indexable_deletes
                .saturating_sub(prev.non_indexable_deletes);
            window.relations.push(delta);
        }
        if state.ring.len() == WORKLOAD_WINDOW_CAPACITY {
            state.ring.pop_front();
        }
        state.ring.push_back(window.clone());
        drop(state);
        self.inner.windows_sampled.inc();
        Some(window)
    }

    /// Rebases the window clock: current lifetime totals become the
    /// next window's baseline and the ring is emptied, so everything
    /// recorded so far (e.g. setup/load traffic) is excluded from
    /// every future window and [`summary`](Self::summary). Live
    /// populations are unaffected — they are derived from lifetime
    /// counters, not window deltas.
    pub fn rebase(&self) {
        if !self.enabled {
            return;
        }
        self.sample_window();
        let mut state = self
            .inner
            .windows
            .lock()
            .expect("window ring poisoned: a holder panicked");
        state.ring.clear();
    }

    /// The windows currently in the ring, oldest first.
    pub fn windows(&self) -> Vec<WorkloadWindow> {
        if !self.enabled {
            return Vec::new();
        }
        let state = self
            .inner
            .windows
            .lock()
            .expect("window ring poisoned: a holder panicked");
        state.ring.iter().cloned().collect()
    }

    /// The ring rolled up into one view: window deltas summed (with
    /// `live` and histogram-derived fields taken from the newest
    /// window), falling back to lifetime totals before the first
    /// sample.
    pub fn summary(&self) -> WorkloadSummary {
        let windows = self.windows();
        if windows.is_empty() {
            let (attrs, relations) = self.lifetime();
            return WorkloadSummary {
                windowed: false,
                windows: 0,
                elapsed_nanos: 0,
                attrs,
                relations,
            };
        }
        let mut elapsed = 0u64;
        let mut attrs: BTreeMap<(String, usize), AttrUsage> = BTreeMap::new();
        let mut relations: BTreeMap<String, RelationUsage> = BTreeMap::new();
        for window in &windows {
            elapsed = elapsed.saturating_add(window.elapsed_nanos);
            for usage in &window.attrs {
                let key = (usage.relation.clone(), usage.attr);
                match attrs.entry(key) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(usage.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let agg = e.get_mut();
                        agg.stabs += usage.stabs;
                        agg.stab_hits += usage.stab_hits;
                        for i in 0..4 {
                            agg.shape_inserts[i] += usage.shape_inserts[i];
                            agg.shape_deletes[i] += usage.shape_deletes[i];
                        }
                        // State-at-sample fields track the newest window.
                        agg.live = usage.live;
                        agg.length_count = usage.length_count;
                        agg.length_sum = usage.length_sum;
                        agg.p50_length = usage.p50_length;
                        agg.p99_overlap = usage.p99_overlap;
                    }
                }
            }
            for usage in &window.relations {
                match relations.entry(usage.relation.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(usage.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let agg = e.get_mut();
                        agg.tuples += usage.tuples;
                        agg.non_indexable_inserts += usage.non_indexable_inserts;
                        agg.non_indexable_deletes += usage.non_indexable_deletes;
                        agg.live_non_indexable = usage.live_non_indexable;
                    }
                }
            }
        }
        WorkloadSummary {
            windowed: true,
            windows: windows.len(),
            elapsed_nanos: elapsed,
            attrs: attrs.into_values().collect(),
            relations: relations.into_values().collect(),
        }
    }
}

impl Default for WorkloadStats {
    fn default() -> Self {
        WorkloadStats::disabled()
    }
}

impl Inner {
    fn new(registry: Arc<Registry>) -> Inner {
        let windows_sampled = registry.counter("workload_windows_sampled_total");
        Inner {
            registry,
            attrs: RwLock::new(HashMap::new()),
            relations: RwLock::new(HashMap::new()),
            windows: Mutex::new(WindowState {
                ring: VecDeque::new(),
                last_attr: BTreeMap::new(),
                last_rel: BTreeMap::new(),
                last_at: Instant::now(),
                seq: 0,
            }),
            windows_sampled,
        }
    }

    /// Read-probe-then-write-mint, the same discipline as
    /// `IndexMetrics`' lazy families: the hot path pays one shared
    /// lock and a hash probe once the cells exist.
    fn attr_cells(&self, relation: &str, attr: usize) -> Arc<AttrCells> {
        {
            let map = self
                .attrs
                .read()
                .expect("workload map poisoned: a holder panicked");
            if let Some(cells) = map.get(relation).and_then(|inner| inner.get(&attr)) {
                return Arc::clone(cells);
            }
        }
        let r = &self.registry;
        let cells = Arc::new(AttrCells {
            stabs: r.counter(&format!(
                "workload_stabs_total{{relation=\"{relation}\",attr=\"{attr}\"}}"
            )),
            stab_hits: r.counter(&format!(
                "workload_stab_hits_total{{relation=\"{relation}\",attr=\"{attr}\"}}"
            )),
            shape_inserts: std::array::from_fn(|i| {
                let shape = ClauseShape::ALL[i].label();
                r.counter(&format!(
                    "workload_shape_inserts_total{{relation=\"{relation}\",attr=\"{attr}\",shape=\"{shape}\"}}"
                ))
            }),
            shape_deletes: std::array::from_fn(|i| {
                let shape = ClauseShape::ALL[i].label();
                r.counter(&format!(
                    "workload_shape_deletes_total{{relation=\"{relation}\",attr=\"{attr}\",shape=\"{shape}\"}}"
                ))
            }),
            length: r.histogram(&format!(
                "workload_interval_length{{relation=\"{relation}\",attr=\"{attr}\"}}"
            )),
            overlap: r.histogram(&format!(
                "workload_stab_overlap{{relation=\"{relation}\",attr=\"{attr}\"}}"
            )),
        });
        self.attrs
            // srclint:allow(lock-order): strictly sequential — the probe's read guard is dropped at its block end before the mint takes the write lock
            .write()
            .expect("workload map poisoned: a holder panicked")
            .entry(relation.to_string())
            .or_default()
            .entry(attr)
            .or_insert(cells)
            .clone()
    }

    fn relation_cells(&self, relation: &str) -> Arc<RelationCells> {
        {
            let map = self
                .relations
                .read()
                .expect("workload map poisoned: a holder panicked");
            if let Some(cells) = map.get(relation) {
                return Arc::clone(cells);
            }
        }
        let r = &self.registry;
        let cells = Arc::new(RelationCells {
            tuples: r.counter(&format!("workload_tuples_total{{relation=\"{relation}\"}}")),
            non_indexable_inserts: r.counter(&format!(
                "workload_non_indexable_inserts_total{{relation=\"{relation}\"}}"
            )),
            non_indexable_deletes: r.counter(&format!(
                "workload_non_indexable_deletes_total{{relation=\"{relation}\"}}"
            )),
        });
        self.relations
            // srclint:allow(lock-order): strictly sequential — the probe's read guard is dropped at its block end before the mint takes the write lock
            .write()
            .expect("workload map poisoned: a holder panicked")
            .entry(relation.to_string())
            .or_insert(cells)
            .clone()
    }

    fn attr_lifetime(&self) -> Vec<AttrUsage> {
        let map = self
            .attrs
            .read()
            .expect("workload map poisoned: a holder panicked");
        let mut out = Vec::new();
        for (relation, inner) in map.iter() {
            for (&attr, cells) in inner.iter() {
                let shape_inserts: [u64; 4] = std::array::from_fn(|i| cells.shape_inserts[i].get());
                let shape_deletes: [u64; 4] = std::array::from_fn(|i| cells.shape_deletes[i].get());
                let overlap_buckets = cells.overlap.buckets();
                let length_buckets = cells.length.buckets();
                out.push(AttrUsage {
                    relation: relation.clone(),
                    attr,
                    stabs: cells.stabs.get(),
                    stab_hits: cells.stab_hits.get(),
                    shape_inserts,
                    shape_deletes,
                    live: std::array::from_fn(|i| {
                        shape_inserts[i].saturating_sub(shape_deletes[i])
                    }),
                    length_count: cells.length.count(),
                    length_sum: cells.length.sum(),
                    p50_length: quantile(&length_buckets, 0.5),
                    p99_overlap: quantile(&overlap_buckets, 0.99),
                });
            }
        }
        out.sort_by(|a, b| (&a.relation, a.attr).cmp(&(&b.relation, b.attr)));
        out
    }

    fn relation_lifetime(&self) -> Vec<RelationUsage> {
        let map = self
            .relations
            .read()
            .expect("workload map poisoned: a holder panicked");
        let mut out: Vec<RelationUsage> = map
            .iter()
            .map(|(relation, cells)| {
                let inserts = cells.non_indexable_inserts.get();
                let deletes = cells.non_indexable_deletes.get();
                RelationUsage {
                    relation: relation.clone(),
                    tuples: cells.tuples.get(),
                    non_indexable_inserts: inserts,
                    non_indexable_deletes: deletes,
                    live_non_indexable: inserts.saturating_sub(deletes),
                }
            })
            .collect();
        out.sort_by(|a, b| a.relation.cmp(&b.relation));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live() -> WorkloadStats {
        WorkloadStats::new(&Arc::new(Registry::new()))
    }

    #[test]
    fn disabled_records_nothing() {
        let w = WorkloadStats::disabled();
        assert!(!w.is_enabled());
        let age = w.attr_recorder("emp", 0);
        assert!(!age.is_enabled() && !w.relation_recorder("emp").is_enabled());
        age.record_stab(3);
        age.record_insert(ClauseShape::Eq, Some(0));
        w.relation_recorder("emp").record_tuple();
        assert!(w.sample_window().is_none());
        assert!(w.windows().is_empty());
        let (attrs, rels) = w.lifetime();
        assert!(attrs.is_empty() && rels.is_empty());
        let s = w.summary();
        assert!(!s.windowed && s.attrs.is_empty());
        // A disabled registry also yields the no-op handle.
        assert!(!WorkloadStats::new(&Arc::new(Registry::disabled())).is_enabled());
    }

    #[test]
    fn accounts_accumulate_per_attribute() {
        let w = live();
        let (age, salary) = (w.attr_recorder("emp", 0), w.attr_recorder("emp", 1));
        let emp = w.relation_recorder("emp");
        age.record_insert(ClauseShape::Greater, None);
        age.record_insert(ClauseShape::Interval, Some(40));
        salary.record_insert(ClauseShape::Eq, Some(0));
        age.record_delete(ClauseShape::Greater);
        age.record_stab(2);
        // A second handle onto the same account lands on the same cells.
        w.attr_recorder("emp", 0).record_stab(0);
        emp.record_tuple();
        emp.record_non_indexable_insert();

        let (attrs, rels) = w.lifetime();
        assert_eq!(attrs.len(), 2);
        let a0 = &attrs[0];
        assert_eq!((a0.relation.as_str(), a0.attr), ("emp", 0));
        assert_eq!(a0.stabs, 2);
        assert_eq!(a0.stab_hits, 2);
        assert_eq!(a0.inserts(), 2);
        assert_eq!(a0.deletes(), 1);
        assert_eq!(a0.live, [0, 0, 0, 1]);
        assert_eq!(a0.live_total(), 1);
        assert_eq!(a0.mean_hits(), 1.0);
        assert_eq!(a0.length_count, 1);
        assert_eq!(a0.length_sum, 40);
        assert_eq!(attrs[1].attr, 1);
        assert_eq!(attrs[1].live, [0, 1, 0, 0]);

        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].tuples, 1);
        assert_eq!(rels[0].live_non_indexable, 1);
    }

    #[test]
    fn accounts_surface_as_metric_families() {
        let registry = Arc::new(Registry::new());
        let w = WorkloadStats::new(&registry);
        let age = w.attr_recorder("emp", 0);
        age.record_insert(ClauseShape::Less, Some(7));
        age.record_stab(5);
        w.relation_recorder("emp").record_tuple();
        w.sample_window();
        let text = registry.render_text();
        for needle in [
            "workload_stabs_total{relation=\"emp\",attr=\"0\"} 1",
            "workload_stab_hits_total{relation=\"emp\",attr=\"0\"} 5",
            "workload_shape_inserts_total{relation=\"emp\",attr=\"0\",shape=\"less\"} 1",
            "workload_tuples_total{relation=\"emp\"} 1",
            "workload_windows_sampled_total 1",
            "workload_interval_length{relation=\"emp\",attr=\"0\"}_count 1",
            "workload_stab_overlap{relation=\"emp\",attr=\"0\"}_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn windows_report_deltas_not_totals() {
        let w = live();
        let age = w.attr_recorder("emp", 0);
        age.record_stab(4);
        age.record_insert(ClauseShape::Eq, Some(0));
        let w1 = w.sample_window().unwrap();
        assert_eq!(w1.seq, 1);
        assert_eq!(w1.attrs[0].stabs, 1);
        assert_eq!(w1.attrs[0].inserts(), 1);

        age.record_stab(1);
        age.record_stab(1);
        let w2 = w.sample_window().unwrap();
        assert_eq!(w2.seq, 2);
        // The second window holds only the two new stabs...
        assert_eq!(w2.attrs[0].stabs, 2);
        assert_eq!(w2.attrs[0].inserts(), 0);
        // ...while live population is the state at sample time.
        assert_eq!(w2.attrs[0].live_total(), 1);
        assert_eq!(w.windows().len(), 2);
    }

    #[test]
    fn window_ring_is_bounded() {
        let w = live();
        w.relation_recorder("emp").record_tuple();
        for _ in 0..(WORKLOAD_WINDOW_CAPACITY + 5) {
            w.sample_window();
        }
        let windows = w.windows();
        assert_eq!(windows.len(), WORKLOAD_WINDOW_CAPACITY);
        // Oldest windows were evicted: sequence numbers keep counting.
        assert_eq!(windows[0].seq, 6);
        assert_eq!(
            w.registry().counter_value("workload_windows_sampled_total"),
            Some((WORKLOAD_WINDOW_CAPACITY + 5) as u64)
        );
    }

    #[test]
    fn summary_rolls_the_ring_up() {
        let w = live();
        let age = w.attr_recorder("emp", 0);
        // Before any sample: lifetime fallback.
        age.record_stab(1);
        let s = w.summary();
        assert!(!s.windowed);
        assert_eq!(s.attrs[0].stabs, 1);

        w.sample_window();
        age.record_stab(3);
        age.record_insert(ClauseShape::Greater, None);
        w.sample_window();
        let s = w.summary();
        assert!(s.windowed);
        assert_eq!(s.windows, 2);
        // Both windows summed: 1 stab in the first, 1 in the second.
        assert_eq!(s.attrs[0].stabs, 2);
        assert_eq!(s.attrs[0].stab_hits, 4);
        // Live comes from the newest window.
        assert_eq!(s.attrs[0].live_total(), 1);
    }

    #[test]
    fn clause_shape_labels_are_stable() {
        assert_eq!(
            ClauseShape::ALL.map(|s| s.label()),
            ["less", "eq", "greater", "interval"]
        );
        for (i, s) in ClauseShape::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
