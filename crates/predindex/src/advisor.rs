//! The index advisor: §5.2 cost projection over observed workload.
//!
//! The paper prices the predicate index analytically — cost per tuple
//! as a function of live predicate population, stab selectivity, and
//! op mix. [`Advisor`] turns that model into a running recommendation
//! engine: it reads the per-relation+attribute accounts a
//! [`WorkloadStats`] handle collected (see
//! [`PredicateIndex::attach_metrics`](crate::PredicateIndex::attach_metrics)),
//! plugs each attribute's observed statistics into per-backend cost
//! formulas, and emits a ranked [`Recommendation`] per attribute with
//! an estimated crossover margin. The backends priced are the §4.1
//! comparator family:
//!
//! | backend | stab | insert | delete |
//! |---|---|---|---|
//! | IBS-tree      | `c·log₂(n+2)` | `c·log₂(n+2)` | `c·log₂(n+2)` |
//! | skip list     | `c·log₂(n+2)` | `c·log₂(n+2)` | `c·log₂(n+2)` |
//! | interval tree | `c·log₂(n+2)` | `c·(n+1)` rebuild | `c·n` rebuild |
//! | naive list    | `c·n` scan    | `c` push      | `c·n/2` scan |
//!
//! plus a common `hit_ns · hits` term per stab (reporting a match
//! costs the same everywhere). The `c` unit constants come from
//! [`AdvisorConstants::default`]. This module is formulas + ranking
//! and nothing else: the experiment that validates them — calibrating
//! the constants against the real structures and replaying recorded op
//! logs with a wall clock — is `bench::lab`, reported by
//! `bench_json --suite advisor`.

use telemetry::json::JsonWriter;
use telemetry::{Counter, WorkloadStats, WorkloadSummary};

/// The candidate index backends the advisor prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The paper's interval binary search tree (the current backend).
    Ibs,
    /// Hanson's §6 successor structure (`altindex::IntervalSkipList`).
    SkipList,
    /// Static centered interval tree: fastest stabs, rebuilds on churn.
    IntervalTree,
    /// The §2.1 sequential list: O(1) insert, O(n) stab and delete.
    Naive,
}

impl Backend {
    /// Every backend, in ranking-table order.
    pub const ALL: [Backend; 4] = [
        Backend::Ibs,
        Backend::SkipList,
        Backend::IntervalTree,
        Backend::Naive,
    ];

    /// Stable machine-readable name (used in JSON and bench baselines).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ibs => "ibs",
            Backend::SkipList => "skiplist",
            Backend::IntervalTree => "interval_tree",
            Backend::Naive => "naive",
        }
    }

    /// Work units one stab costs at live population `n`.
    pub fn stab_units(self, n: f64) -> f64 {
        match self {
            Backend::Naive => n.max(1.0),
            _ => (n + 2.0).log2(),
        }
    }

    /// Work units one insert costs at live population `n`.
    pub fn insert_units(self, n: f64) -> f64 {
        match self {
            Backend::Ibs | Backend::SkipList => (n + 2.0).log2(),
            // A static structure "inserts" by rebuilding over n+1 items.
            Backend::IntervalTree => n + 1.0,
            Backend::Naive => 1.0,
        }
    }

    /// Work units one delete costs at live population `n`.
    pub fn delete_units(self, n: f64) -> f64 {
        match self {
            Backend::Ibs | Backend::SkipList => (n + 2.0).log2(),
            Backend::IntervalTree => n.max(1.0),
            // Average scan distance of an unordered list removal.
            Backend::Naive => (n / 2.0).max(1.0),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-backend unit costs (nanoseconds per work unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCost {
    pub unit_stab_ns: f64,
    pub unit_insert_ns: f64,
    pub unit_delete_ns: f64,
}

/// The advisor's calibration: per-backend unit costs plus the common
/// per-reported-hit cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorConstants {
    /// Cost of collecting one matching id, identical across backends.
    pub hit_ns: f64,
    pub ibs: BackendCost,
    pub skiplist: BackendCost,
    pub interval_tree: BackendCost,
    pub naive: BackendCost,
}

impl AdvisorConstants {
    /// The unit costs for one backend.
    pub fn cost(&self, backend: Backend) -> &BackendCost {
        match backend {
            Backend::Ibs => &self.ibs,
            Backend::SkipList => &self.skiplist,
            Backend::IntervalTree => &self.interval_tree,
            Backend::Naive => &self.naive,
        }
    }
}

impl Default for AdvisorConstants {
    /// Representative constants measured once on a development machine
    /// (release build, `bench::lab::calibrate_constants` at n=512).
    /// Rankings are driven by the asymptotic work-unit shapes far more
    /// than by these; the validation lab calibrates live instead.
    fn default() -> Self {
        AdvisorConstants {
            hit_ns: 4.0,
            ibs: BackendCost {
                unit_stab_ns: 18.0,
                unit_insert_ns: 150.0,
                unit_delete_ns: 150.0,
            },
            skiplist: BackendCost {
                unit_stab_ns: 30.0,
                unit_insert_ns: 110.0,
                unit_delete_ns: 110.0,
            },
            interval_tree: BackendCost {
                unit_stab_ns: 14.0,
                unit_insert_ns: 60.0,
                unit_delete_ns: 60.0,
            },
            naive: BackendCost {
                unit_stab_ns: 1.5,
                unit_insert_ns: 25.0,
                unit_delete_ns: 2.0,
            },
        }
    }
}

/// One backend's projected window cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendProjection {
    pub backend: Backend,
    pub projected_nanos: f64,
}

/// The advisor's verdict for one `(relation, attribute)` account.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    pub relation: String,
    pub attr: usize,
    /// Live predicates under this attribute at sample time.
    pub live: u64,
    /// Window op mix.
    pub stabs: u64,
    pub inserts: u64,
    pub deletes: u64,
    /// Mean ids reported per stab (observed overlap).
    pub mean_hits: f64,
    /// Live non-indexable predicates / total live on this relation —
    /// high values mean no backend choice helps much.
    pub non_indexable_share: f64,
    /// Backends by ascending projected cost.
    pub ranked: Vec<BackendProjection>,
    /// Estimated crossover margin: second-cheapest over cheapest
    /// projected cost (1.0 means a dead heat).
    pub margin: f64,
}

impl Recommendation {
    /// The projected-cheapest backend.
    pub fn best(&self) -> Backend {
        self.ranked.first().map_or(Backend::Ibs, |p| p.backend)
    }

    /// The backend the index actually runs today.
    pub fn current(&self) -> Backend {
        Backend::Ibs
    }
}

/// Projects per-backend cost from observed workload accounts and emits
/// ranked recommendations; see the module docs for the model.
#[derive(Debug, Clone)]
pub struct Advisor {
    workload: WorkloadStats,
    constants: AdvisorConstants,
    reports: Counter,
}

impl Advisor {
    /// An advisor over `workload` with the default constants.
    pub fn new(workload: WorkloadStats) -> Advisor {
        Advisor::with_constants(workload, AdvisorConstants::default())
    }

    /// An advisor with explicit (e.g. freshly calibrated) constants.
    pub fn with_constants(workload: WorkloadStats, constants: AdvisorConstants) -> Advisor {
        let reports = workload.registry().counter("advisor_reports_total");
        Advisor {
            workload,
            constants,
            reports,
        }
    }

    /// The constants in use.
    pub fn constants(&self) -> &AdvisorConstants {
        &self.constants
    }

    /// The workload accounts this advisor reads.
    pub fn workload(&self) -> &WorkloadStats {
        &self.workload
    }

    /// Samples a fresh workload window (each report is a window
    /// boundary, so back-to-back reports see rates, not lifetime
    /// averages), rolls up the ring, and prices every observed
    /// attribute. Sorted by relation then attribute.
    pub fn recommendations(&self) -> Vec<Recommendation> {
        self.workload.sample_window();
        let summary = self.workload.summary();
        self.reports.inc();
        self.recommend_from(&summary)
    }

    /// The pure projection step, usable on any summary (tests).
    fn recommend_from(&self, summary: &WorkloadSummary) -> Vec<Recommendation> {
        summary
            .attrs
            .iter()
            .map(|a| {
                let relation_live: u64 = summary
                    .attrs
                    .iter()
                    .filter(|b| b.relation == a.relation)
                    .map(|b| b.live_total())
                    .sum();
                let non_indexable = summary
                    .relations
                    .iter()
                    .find(|r| r.relation == a.relation)
                    .map_or(0, |r| r.live_non_indexable);
                let denom = (relation_live + non_indexable) as f64;
                let share = if denom > 0.0 {
                    non_indexable as f64 / denom
                } else {
                    0.0
                };

                let n = a.live_total() as f64;
                let hits = a.mean_hits();
                let (s, i, d) = (a.stabs as f64, a.inserts() as f64, a.deletes() as f64);
                let mut ranked: Vec<BackendProjection> = Backend::ALL
                    .iter()
                    .map(|&b| {
                        let c = self.constants.cost(b);
                        let projected_nanos = s
                            * (c.unit_stab_ns * b.stab_units(n) + self.constants.hit_ns * hits)
                            + i * c.unit_insert_ns * b.insert_units(n)
                            + d * c.unit_delete_ns * b.delete_units(n);
                        BackendProjection {
                            backend: b,
                            projected_nanos,
                        }
                    })
                    .collect();
                ranked.sort_by(|x, y| x.projected_nanos.total_cmp(&y.projected_nanos));
                let margin = match &ranked[..] {
                    [best, second, ..] if best.projected_nanos > 0.0 => {
                        second.projected_nanos / best.projected_nanos
                    }
                    _ => 1.0,
                };
                Recommendation {
                    relation: a.relation.clone(),
                    attr: a.attr,
                    live: a.live_total(),
                    stabs: a.stabs,
                    inserts: a.inserts(),
                    deletes: a.deletes(),
                    mean_hits: hits,
                    non_indexable_share: share,
                    ranked,
                    margin,
                }
            })
            .collect()
    }

    /// The `telemetry/advisor-v1` JSON document served at `/advisor`.
    pub fn report_json(&self) -> String {
        let recs = self.recommendations();
        let summary = self.workload.summary();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("telemetry/advisor-v1");
        w.key("windowed").bool(summary.windowed);
        w.key("windows").uint(summary.windows as u64);
        w.key("elapsed_nanos").uint(summary.elapsed_nanos);
        w.key("recommendations").begin_array();
        for r in &recs {
            w.begin_object();
            w.key("relation").string(&r.relation);
            w.key("attr").uint(r.attr as u64);
            w.key("live").uint(r.live);
            w.key("stabs").uint(r.stabs);
            w.key("inserts").uint(r.inserts);
            w.key("deletes").uint(r.deletes);
            w.key("mean_hits").float(r.mean_hits, 2);
            w.key("non_indexable_share").float(r.non_indexable_share, 3);
            w.key("current").string(r.current().name());
            w.key("best").string(r.best().name());
            w.key("margin").float(r.margin, 2);
            w.key("ranked").begin_array();
            for p in &r.ranked {
                w.begin_object();
                w.key("backend").string(p.backend.name());
                w.key("projected_nanos").float(p.projected_nanos, 1);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("relations").begin_array();
        for r in &summary.relations {
            w.begin_object();
            w.key("relation").string(&r.relation);
            w.key("tuples").uint(r.tuples);
            w.key("live_non_indexable").uint(r.live_non_indexable);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Human-readable report (`:advise`, flight-recorder section).
    pub fn render_text(&self) -> String {
        let recs = self.recommendations();
        let summary = self.workload.summary();
        let mut out = String::new();
        if summary.windowed {
            out.push_str(&format!(
                "index advisor: {} window(s), {:.2}s observed\n",
                summary.windows,
                summary.elapsed_nanos as f64 / 1e9
            ));
        } else {
            out.push_str("index advisor: lifetime totals (no windows sampled)\n");
        }
        if recs.is_empty() {
            out.push_str("  (no per-attribute workload observed yet)\n");
            return out;
        }
        for r in &recs {
            out.push_str(&format!(
                "  {}.attr{}: live={} stabs={} ins={} del={} hits/stab={:.2} non_indexable={:.0}%\n",
                r.relation,
                r.attr,
                r.live,
                r.stabs,
                r.inserts,
                r.deletes,
                r.mean_hits,
                r.non_indexable_share * 100.0
            ));
            for (rank, p) in r.ranked.iter().enumerate() {
                let marker = if rank == 0 { "->" } else { "  " };
                out.push_str(&format!(
                    "    {marker} {}. {:<13} {:>14.0} ns projected\n",
                    rank + 1,
                    p.backend.name(),
                    p.projected_nanos
                ));
            }
            out.push_str(&format!(
                "    recommendation: {} (current {}), margin {:.2}x\n",
                r.best().name(),
                r.current().name(),
                r.margin
            ));
        }
        out
    }

    /// `# advisor ...` comment lines appended to `/metrics` — one line
    /// per attribute, `#`-prefixed so scrapers skip them.
    pub fn metrics_comment_lines(&self) -> String {
        let mut out = String::new();
        for r in self.recommendations() {
            out.push_str(&format!(
                "# advisor {}.{} best={} current={} margin={:.2}x live={} stabs={} ins={} del={}\n",
                r.relation,
                r.attr,
                r.best().name(),
                r.current().name(),
                r.margin,
                r.live,
                r.stabs,
                r.inserts,
                r.deletes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use telemetry::{ClauseShape, Registry};

    fn summary_with(attrs: Vec<telemetry::AttrUsage>) -> WorkloadSummary {
        WorkloadSummary {
            windowed: true,
            windows: 1,
            elapsed_nanos: 1,
            attrs,
            relations: Vec::new(),
        }
    }

    fn usage(stabs: u64, hits: u64, inserts: u64, deletes: u64, live: u64) -> telemetry::AttrUsage {
        telemetry::AttrUsage {
            relation: "emp".into(),
            attr: 0,
            stabs,
            stab_hits: hits,
            shape_inserts: [0, 0, 0, inserts],
            shape_deletes: [0, 0, 0, deletes],
            live: [0, 0, 0, live],
            length_count: 0,
            length_sum: 0,
            p50_length: 0,
            p99_overlap: 0,
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(
            Backend::ALL.map(|b| b.name()),
            ["ibs", "skiplist", "interval_tree", "naive"]
        );
        assert_eq!(Backend::SkipList.to_string(), "skiplist");
    }

    #[test]
    fn stab_heavy_projection_penalises_the_naive_scan() {
        let advisor = Advisor::new(WorkloadStats::disabled());
        let recs = advisor.recommend_from(&summary_with(vec![usage(10_000, 1_000, 0, 0, 4_000)]));
        let rec = &recs[0];
        // With 4k live predicates a linear scan per stab must rank last.
        assert_eq!(rec.ranked.last().unwrap().backend, Backend::Naive);
        // No mutations: the static structure's rebuild penalty never
        // bites, so it must beat the naive list at least.
        assert!(rec.margin >= 1.0);
        assert_eq!(rec.live, 4_000);
    }

    #[test]
    fn churn_heavy_projection_penalises_the_static_rebuild() {
        let advisor = Advisor::new(WorkloadStats::disabled());
        let recs = advisor.recommend_from(&summary_with(vec![usage(10, 5, 3_000, 3_000, 300)]));
        let rec = &recs[0];
        assert_eq!(rec.ranked.last().unwrap().backend, Backend::IntervalTree);
        // O(1) inserts + tiny stab traffic: the naive list wins.
        assert_eq!(rec.best(), Backend::Naive);
        assert_eq!(rec.current(), Backend::Ibs);
    }

    #[test]
    fn tiny_population_prefers_the_naive_scan() {
        let advisor = Advisor::new(WorkloadStats::disabled());
        let recs = advisor.recommend_from(&summary_with(vec![usage(5_000, 100, 0, 0, 4)]));
        assert_eq!(recs[0].best(), Backend::Naive);
    }

    #[test]
    fn report_json_shape() {
        let registry = Arc::new(Registry::new());
        let workload = WorkloadStats::new(&registry);
        let age = workload.attr_recorder("emp", 0);
        age.record_insert(ClauseShape::Interval, Some(40));
        age.record_stab(1);
        workload.relation_recorder("emp").record_tuple();
        let advisor = Advisor::new(workload);
        let json = advisor.report_json();
        for needle in [
            "\"schema\":\"telemetry/advisor-v1\"",
            "\"relation\":\"emp\"",
            "\"attr\":0",
            "\"current\":\"ibs\"",
            "\"ranked\":[",
            "\"projected_nanos\":",
            "\"relations\":[",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Each report samples a window and counts itself.
        assert_eq!(registry.counter_value("advisor_reports_total"), Some(1));
        assert!(registry
            .counter_value("workload_windows_sampled_total")
            .is_some_and(|v| v >= 1));
    }

    #[test]
    fn render_text_and_comments_mention_the_pick() {
        let registry = Arc::new(Registry::new());
        let workload = WorkloadStats::new(&registry);
        let age = workload.attr_recorder("emp", 0);
        for _ in 0..10 {
            age.record_stab(0);
        }
        age.record_insert(ClauseShape::Eq, Some(0));
        let advisor = Advisor::new(workload);
        let text = advisor.render_text();
        assert!(text.contains("index advisor"));
        assert!(text.contains("emp.attr0"));
        assert!(text.contains("recommendation:"));
        let comments = advisor.metrics_comment_lines();
        for line in comments.lines() {
            assert!(line.starts_with("# advisor "), "unprefixed line {line:?}");
        }
        assert!(comments.contains("best="));
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let advisor = Advisor::new(WorkloadStats::disabled());
        assert!(advisor.recommendations().is_empty());
        let json = advisor.report_json();
        assert!(json.contains("\"recommendations\":[]"));
        assert!(advisor.render_text().contains("no per-attribute workload"));
        assert!(advisor.metrics_comment_lines().is_empty());
    }
}
