//! Metric handles for the predicate indexes.
//!
//! One [`IndexMetrics`] bundle holds every counter the matching path
//! touches, pre-resolved at attach time so the hot path never takes
//! the registry lock for the fixed-name metrics. The labelled families
//! are resolved where the structure they describe is created — each
//! per-attribute tree carries its [`AttrWork`] pair and each relation
//! its matches counter (see `index.rs`) — so a counted stab is atomic
//! adds only. A relation no predicate mentions has no such structure:
//! its counter is resolved when the relation is declared to the index,
//! and a run of an undeclared one mints it through the registry, which
//! hands back one cell per name, once per run. None of it runs when the
//! bundle is disabled: every recording helper starts with the same
//! single branch the `telemetry` handles use.

use std::sync::Arc;
use telemetry::{Counter, Registry, Telemetry};

/// The stab-work counters of one `(relation, attribute)` IBS-tree.
#[derive(Debug, Clone)]
pub(crate) struct AttrWork {
    nodes: Counter,
    marks: Counter,
}

/// Everything the index core records into: the counters of one
/// [`Telemetry`] handle's registry. `PredicateIndex` attaches one; the
/// sharded front-end keeps the disabled bundle.
#[derive(Debug)]
pub(crate) struct IndexMetrics {
    /// Is the counter registry live?
    enabled: bool,
    /// Needed to mint the lazy per-relation / per-attribute families.
    registry: Arc<Registry>,
    /// Tuples matched (`match_tuple*` calls, one per tuple).
    match_tuples: Counter,
    /// Tests run: one per tree candidate plus one per clause set swept.
    residual_tests: Counter,
    /// Tests that held.
    residual_passes: Counter,
    /// IBS-tree endpoint nodes visited across all stabs.
    ibs_nodes: Counter,
    /// Marks collected across all stabs.
    ibs_marks: Counter,
    /// Clause sets tested by the non-indexable sweep.
    non_indexable_scanned: Counter,
}

impl IndexMetrics {
    /// The no-op bundle every index starts with.
    pub(crate) fn disabled() -> Arc<IndexMetrics> {
        Self::new(&Telemetry::disabled())
    }

    /// Resolves the bundle against `telemetry`. A disabled registry
    /// hands out no-op handles, so the counter half is inert exactly
    /// when the registry is.
    pub(crate) fn new(telemetry: &Telemetry) -> Arc<IndexMetrics> {
        let registry = telemetry.registry();
        Arc::new(IndexMetrics {
            enabled: registry.is_enabled(),
            registry: Arc::clone(registry),
            match_tuples: registry.counter("predindex_match_tuples_total"),
            residual_tests: registry.counter("predindex_residual_tests_total"),
            residual_passes: registry.counter("predindex_residual_passes_total"),
            ibs_nodes: registry.counter("predindex_ibs_nodes_visited_total"),
            ibs_marks: registry.counter("predindex_ibs_marks_scanned_total"),
            non_indexable_scanned: registry.counter("predindex_non_indexable_scanned_total"),
        })
    }

    /// Does this bundle record counters?
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Resolves the stab-work pair of `relation`'s tree on `attr`
    /// (`None` when counters are off, so a dark index mints nothing).
    pub(crate) fn attr_work(&self, relation: &str, attr: usize) -> Option<AttrWork> {
        self.enabled.then(|| AttrWork {
            nodes: self.registry.counter(&format!(
                "predindex_attr_stab_nodes_total{{relation=\"{relation}\",attr=\"{attr}\"}}"
            )),
            marks: self.registry.counter(&format!(
                "predindex_attr_stab_marks_total{{relation=\"{relation}\",attr=\"{attr}\"}}"
            )),
        })
    }

    /// Resolves `relation`'s matches counter (`None` when counters are
    /// off).
    pub(crate) fn relation_matches(&self, relation: &str) -> Option<Counter> {
        self.enabled.then(|| {
            self.registry.counter(&format!(
                "predindex_relation_matches_total{{relation=\"{relation}\"}}"
            ))
        })
    }

    /// One matched tuple of a relation that holds predicates: its tree
    /// candidates and swept clause sets (together, the tests run), how
    /// many of those tests held, and the relation's cached matches
    /// counter.
    pub(crate) fn record_match(
        &self,
        relation_matches: Option<&Counter>,
        partials: u64,
        swept: u64,
        passes: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.match_tuples.inc();
        self.non_indexable_scanned.add(swept);
        self.residual_tests.add(partials + swept);
        self.residual_passes.add(passes);
        if let Some(c) = relation_matches {
            c.inc();
        }
    }

    /// A run of `tuples` matched tuples of a relation no predicate
    /// mentions: nothing to test, but each tuple still counts, against
    /// the relation's matches counter (`None` when counters are off).
    pub(crate) fn record_unindexed_run(&self, relation_matches: Option<&Counter>, tuples: u64) {
        if let Some(c) = relation_matches {
            self.match_tuples.add(tuples);
            c.add(tuples);
        }
    }

    /// One per-attribute stab's work, attributed globally and to the
    /// tree's own pair.
    pub(crate) fn record_attr_stab(&self, work: Option<&AttrWork>, nodes: u64, marks: u64) {
        if !self.enabled {
            return;
        }
        self.ibs_nodes.add(nodes);
        self.ibs_marks.add(marks);
        if let Some(work) = work {
            work.nodes.add(nodes);
            work.marks.add(marks);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Matcher, PredicateIndex, ShardedPredicateIndex};
    use predicate::parse_predicate;
    use relation::{AttrType, Database, Schema, Value};
    use std::sync::Arc;
    use telemetry::Registry;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn sequential_index_records_match_path_counters() {
        let mut db = db();
        let mut index = PredicateIndex::new();
        // Two-clause conjunction: one clause indexed, one residual.
        index
            .insert(
                parse_predicate("emp.age > 50 and emp.salary < 20000").unwrap(),
                db.catalog(),
            )
            .unwrap();
        index
            .insert(parse_predicate("isodd(emp.age)").unwrap(), db.catalog())
            .unwrap();

        let registry = Arc::new(Registry::new());
        index.attach_metrics(Arc::clone(&registry));

        // age 61 partial-matches the range clause but fails residual on
        // salary; isodd(61) passes from the non-indexable list.
        let t = db
            .insert("emp", vec![Value::Int(61), Value::Int(99_000)])
            .unwrap();
        let hits = index.match_tuple("emp", &t);
        assert_eq!(hits.len(), 1);

        assert_eq!(
            registry.counter_value("predindex_match_tuples_total"),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("predindex_residual_tests_total"),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("predindex_residual_passes_total"),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("predindex_non_indexable_scanned_total"),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("predindex_relation_matches_total{relation=\"emp\"}"),
            Some(1)
        );
        assert!(
            registry
                .counter_value("predindex_ibs_nodes_visited_total")
                .unwrap()
                >= 1
        );
        assert_eq!(
            registry.counter_family_total("predindex_attr_stab_nodes_total"),
            registry
                .counter_value("predindex_ibs_nodes_visited_total")
                .unwrap()
        );
    }

    #[test]
    fn explain_agrees_with_match_on_both_indexes() {
        let mut db = db();
        let srcs = [
            "emp.age > 50 and emp.salary < 20000",
            "emp.salary >= 90000",
            "isodd(emp.age)",
        ];
        let mut seq = PredicateIndex::new();
        let sharded = ShardedPredicateIndex::new();
        for s in &srcs {
            let p = parse_predicate(s).unwrap();
            seq.insert(p.clone(), db.catalog()).unwrap();
            sharded.insert_shared(p, db.catalog()).unwrap();
        }
        let t = db
            .insert("emp", vec![Value::Int(61), Value::Int(99_000)])
            .unwrap();

        let trace = seq.explain_tuple("emp", &t);
        assert!(trace.relation_indexed);
        let mut got = trace.matched();
        got.sort_unstable();
        for index in [&seq as &dyn Matcher, &sharded] {
            let expect: Vec<u32> = index.match_tuple("emp", &t).iter().map(|id| id.0).collect();
            assert_eq!(got, expect, "{}", index.strategy());
        }
        assert_eq!(trace.partial_matches(), 3);
        assert_eq!(trace.non_indexable_scanned, 1);
        assert!(trace.nodes_visited() >= 1);
        // Unknown relation: an honest empty trace, not a panic.
        let ghost = seq.explain_tuple("ghost", &t);
        assert!(!ghost.relation_indexed);
        assert_eq!(ghost.partial_matches(), 0);
    }

    #[test]
    fn a_declared_relation_counts_like_an_undeclared_one() {
        let mut db = db();
        for name in ["dept", "ghost"] {
            db.create_relation(Schema::builder(name).attr("n", AttrType::Int).build())
                .unwrap();
        }
        let mut index = PredicateIndex::new();
        index
            .insert(parse_predicate("emp.age > 50").unwrap(), db.catalog())
            .unwrap();
        // Declared before counters are on: attaching resolves it.
        index.declare_relation("dept");
        let registry = Arc::new(Registry::new());
        index.attach_metrics(Arc::clone(&registry));
        let mut lanes = crate::MatchLanes::default();
        let mut out: Vec<crate::PredicateId> = Vec::new();
        let mut clock = telemetry::StageClock::default();
        for name in ["dept", "ghost"] {
            let t = db.insert(name, vec![Value::Int(1)]).unwrap();
            let run = [&t, &t, &t];
            index.match_run_into(name, run, &mut lanes, &mut out, &mut clock, |r, _| {
                assert!(r.is_empty());
            });
            let family = format!("predindex_relation_matches_total{{relation=\"{name}\"}}");
            assert_eq!(registry.counter_value(&family), Some(3), "{name}");
        }
        assert_eq!(
            registry.counter_value("predindex_match_tuples_total"),
            Some(6)
        );
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let mut db = db();
        let mut index = PredicateIndex::new();
        index
            .insert(parse_predicate("emp.age > 50").unwrap(), db.catalog())
            .unwrap();
        let registry = Arc::new(Registry::disabled());
        index.attach_metrics(Arc::clone(&registry));
        let t = db
            .insert("emp", vec![Value::Int(61), Value::Int(0)])
            .unwrap();
        assert_eq!(index.match_tuple("emp", &t).len(), 1);
        assert!(registry.names().is_empty());
        assert_eq!(registry.counter_value("predindex_match_tuples_total"), None);
    }
}
