//! The index advisor: §5.2 cost projection over observed workload.
//!
//! The paper prices the predicate index analytically — cost per tuple
//! as a function of live predicate population, stab selectivity, and
//! op mix. [`Advisor`] turns that model into a running recommendation
//! engine: it reads the per-relation+attribute accounts a
//! [`WorkloadStats`](telemetry::WorkloadStats) handle collected (see
//! [`PredicateIndex::attach_metrics`](crate::PredicateIndex::attach_metrics)),
//! plugs each attribute's observed statistics into per-backend cost
//! formulas, and emits a ranked [`Recommendation`] per attribute with
//! an estimated crossover margin. The backends priced are the §4.1
//! comparator family behind `altindex`'s traits:
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
//! [`AdvisorConstants::default`] or, for validation, from
//! [`calibrate_constants`] which micro-benchmarks every backend
//! in-process; [`measure_backends`] replays a recorded op log against
//! the real structures so projected and measured cost can be compared
//! (the `advisor_report` bench bin and `BENCH_advisor.json`).

use crate::matcher::Matcher;
use altindex::{BulkBuild, CenteredIntervalTree, DynamicStabIndex, IntervalSkipList, StabIndex};
use ibs::IbsTree;
use interval::{Interval, IntervalId};
use relation::{AttrType, Database, Schema, Tuple, Value};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Counter, Registry, Telemetry, WorkloadStats, WorkloadSummary};

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
    fn stab_units(self, n: f64) -> f64 {
        match self {
            Backend::Naive => n.max(1.0),
            _ => (n + 2.0).log2(),
        }
    }

    /// Work units one insert costs at live population `n`.
    fn insert_units(self, n: f64) -> f64 {
        match self {
            Backend::Ibs | Backend::SkipList => (n + 2.0).log2(),
            // A static structure "inserts" by rebuilding over n+1 items.
            Backend::IntervalTree => n + 1.0,
            Backend::Naive => 1.0,
        }
    }

    /// Work units one delete costs at live population `n`.
    fn delete_units(self, n: f64) -> f64 {
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
    /// (release build, `calibrate_constants` at n=512). Rankings are
    /// driven by the asymptotic work-unit shapes far more than by
    /// these; validation paths calibrate live instead.
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
        let mut out = String::with_capacity(512);
        out.push_str("{\"schema\":\"telemetry/advisor-v1\"");
        out.push_str(&format!(
            ",\"windowed\":{},\"windows\":{},\"elapsed_nanos\":{}",
            summary.windowed, summary.windows, summary.elapsed_nanos
        ));
        out.push_str(",\"recommendations\":[");
        for (i, r) in recs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"relation\":\"{}\",\"attr\":{},\"live\":{},\"stabs\":{},\
                 \"inserts\":{},\"deletes\":{},\"mean_hits\":{:.2},\
                 \"non_indexable_share\":{:.3},\"current\":\"{}\",\"best\":\"{}\",\
                 \"margin\":{:.2},\"ranked\":[",
                escape_json(&r.relation),
                r.attr,
                r.live,
                r.stabs,
                r.inserts,
                r.deletes,
                r.mean_hits,
                r.non_indexable_share,
                r.current().name(),
                r.best().name(),
                r.margin,
            ));
            for (j, p) in r.ranked.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"backend\":\"{}\",\"projected_nanos\":{:.1}}}",
                    p.backend.name(),
                    p.projected_nanos
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"relations\":[");
        for (i, r) in summary.relations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"relation\":\"{}\",\"tuples\":{},\"live_non_indexable\":{}}}",
                escape_json(&r.relation),
                r.tuples,
                r.live_non_indexable
            ));
        }
        out.push_str("]}\n");
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

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Validation harness: op logs, calibration, and measured replay.
// ---------------------------------------------------------------------

/// One operation of a recorded single-attribute workload, replayable
/// both through the real [`PredicateIndex`](crate::PredicateIndex) (to
/// feed the workload accounts) and against each raw backend (to
/// measure true cost).
#[derive(Debug, Clone)]
pub enum WorkloadOp {
    /// Register a predicate whose indexed clause is `interval`;
    /// `source` is the equivalent predicate text for the real index.
    Insert {
        id: IntervalId,
        interval: Interval<Value>,
        source: String,
    },
    /// Unregister the predicate inserted under `id`.
    Delete { id: IntervalId },
    /// Match one tuple whose indexed attribute equals `value`.
    Stab { value: Value },
}

/// A canonical single-attribute workload shape: a setup population
/// (excluded from the measured window) plus the window's op log.
#[derive(Debug, Clone)]
pub struct ShapeSpec {
    pub name: &'static str,
    /// Predicates live before the window opens.
    pub setup: Vec<(IntervalId, Interval<Value>)>,
    /// Opaque (non-indexable) predicates registered during setup.
    pub non_indexable: usize,
    /// The measured window.
    pub ops: Vec<WorkloadOp>,
}

fn closed(lo: i64, hi: i64) -> Interval<Value> {
    Interval::closed(Value::Int(lo), Value::Int(hi))
}

fn source_for(lo: i64, hi: i64) -> String {
    format!("{lo} <= emp.a <= {hi}")
}

/// Deterministic LCG so shapes are identical across runs and machines.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Stab-heavy: a large static population read hard and never churned —
/// the regime where a bulk-built static structure earns its keep.
/// `scale` 250 is the committed bench size (2000 live, 5000 stabs).
pub fn stab_heavy_shape(scale: usize) -> ShapeSpec {
    let n = 8 * scale;
    let setup: Vec<(IntervalId, Interval<Value>)> = (0..n)
        .map(|i| {
            let lo = 4 * i as i64;
            (IntervalId(i as u32), closed(lo, lo + 40))
        })
        .collect();
    let mut rng = Lcg(0x5eed_0001);
    let span = 4 * n as i64 + 40;
    let ops = (0..20 * scale)
        .map(|_| WorkloadOp::Stab {
            value: Value::Int((rng.next() % span as u64) as i64),
        })
        .collect();
    ShapeSpec {
        name: "stab_heavy",
        setup,
        non_indexable: 0,
        ops,
    }
}

/// Churn-heavy: a small population with relentless insert/delete
/// traffic and rare stabs — O(1) list insertion beats any tree, and a
/// rebuild-per-mutation static structure is hopeless. `scale` 300 is
/// the committed bench size (300 live, 900 insert/delete pairs).
pub fn churn_heavy_shape(scale: usize) -> ShapeSpec {
    let n = scale;
    let width = 20i64;
    let setup: Vec<(IntervalId, Interval<Value>)> = (0..n)
        .map(|i| {
            let lo = 7 * i as i64;
            (IntervalId(i as u32), closed(lo, lo + width))
        })
        .collect();
    let mut rng = Lcg(0x5eed_0002);
    let span = 7 * n as i64 + width;
    let mut ops = Vec::new();
    for k in 0..3 * n {
        let lo = (rng.next() % span as u64) as i64;
        ops.push(WorkloadOp::Insert {
            id: IntervalId((n + k) as u32),
            interval: closed(lo, lo + width),
            source: source_for(lo, lo + width),
        });
        // FIFO delete keeps the live population pinned at n.
        ops.push(WorkloadOp::Delete {
            id: IntervalId(k as u32),
        });
        if k % 30 == 0 {
            ops.push(WorkloadOp::Stab {
                value: Value::Int((rng.next() % span as u64) as i64),
            });
        }
    }
    ShapeSpec {
        name: "churn_heavy",
        setup,
        non_indexable: 0,
        ops,
    }
}

/// Non-indexable-heavy: almost every predicate is an opaque function
/// the index can't help with — match cost is dominated by the residual
/// scan no backend choice affects. The indexable population is a
/// handful of churned intervals, so among the backends the O(1)-insert
/// list wins and any tree's rebalancing/rebuild work is pure loss.
/// `scale` 200 is the committed bench size (4 indexable + 200 opaque,
/// 2000 stabs, 400 insert/delete pairs).
pub fn non_indexable_heavy_shape(scale: usize) -> ShapeSpec {
    let setup: Vec<(IntervalId, Interval<Value>)> = (0..4)
        .map(|i| {
            let lo = 100 * i as i64;
            (IntervalId(i as u32), closed(lo, lo + 50))
        })
        .collect();
    let mut rng = Lcg(0x5eed_0003);
    let mut ops = Vec::new();
    let mut next_id = 1_000u32;
    for k in 0..10 * scale {
        ops.push(WorkloadOp::Stab {
            value: Value::Int((rng.next() % 400) as i64),
        });
        if k % 5 == 2 {
            // The opaque predicates come and go; so do their rare
            // indexable companions. At four live intervals a scan is
            // free while every tree still pays its mutation costs.
            let lo = (rng.next() % 400) as i64;
            ops.push(WorkloadOp::Insert {
                id: IntervalId(next_id),
                interval: closed(lo, lo + 10),
                source: source_for(lo, lo + 10),
            });
            ops.push(WorkloadOp::Delete {
                id: IntervalId(next_id),
            });
            next_id += 1;
        }
    }
    ShapeSpec {
        name: "non_indexable_heavy",
        setup,
        non_indexable: scale,
        ops,
    }
}

/// The three committed bench shapes at full scale.
pub fn bench_shapes() -> Vec<ShapeSpec> {
    vec![
        stab_heavy_shape(250),
        churn_heavy_shape(300),
        non_indexable_heavy_shape(200),
    ]
}

/// The same shapes scaled down for quick runs and the integration test.
pub fn quick_shapes() -> Vec<ShapeSpec> {
    vec![
        stab_heavy_shape(60),
        churn_heavy_shape(80),
        non_indexable_heavy_shape(50),
    ]
}

fn calibration_intervals(n: usize) -> Vec<(IntervalId, Interval<Value>)> {
    // Disjoint intervals ([10i+1, 10i+5]) probed between the gaps, so
    // the stab term is measured with a near-zero hit term.
    (0..n)
        .map(|i| {
            let lo = 10 * i as i64 + 1;
            (IntervalId(i as u32), closed(lo, lo + 4))
        })
        .collect()
}

fn calibration_points(n: usize, m: usize) -> Vec<Value> {
    let mut rng = Lcg(0xca11_b8a7e);
    (0..m)
        .map(|_| Value::Int(10 * (rng.next() % n as u64) as i64 + 8))
        .collect()
}

/// Sum of `f(i)` for the live population growing 0..n (insert order).
fn growth_units(n: usize, f: impl Fn(f64) -> f64) -> f64 {
    (0..n).map(|i| f(i as f64)).sum()
}

/// Times `f` as a whole, `runs` times; returns the last value and the
/// fastest wall-clock — for closures whose entire body is the measured
/// region.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best_ns = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let v = f();
        let ns = t0.elapsed().as_nanos() as f64;
        if ns < best_ns {
            best_ns = ns;
        }
        last = Some(v);
    }
    // srclint:allow(no-panic-in-lib): runs >= 1 always produces a value
    (last.expect("at least one run"), best_ns)
}

/// Minimum of `runs` self-timed measurements — for closures that do
/// untimed setup and return only their measured region's nanoseconds.
fn min_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        best = best.min(f());
    }
    best
}

fn calibrate_dynamic<T: DynamicStabIndex<Value>>(
    backend: Backend,
    mk: impl Fn() -> T,
    n: usize,
    stabs: usize,
) -> BackendCost {
    let items = calibration_intervals(n);
    let points = calibration_points(n, stabs);

    let (built, insert_ns) = best_of(3, || {
        let mut idx = mk();
        for (id, iv) in &items {
            idx.insert(*id, iv.clone());
        }
        idx
    });
    let unit_insert_ns = insert_ns / growth_units(n, |i| backend.insert_units(i));

    let (_, stab_ns) = best_of(3, || {
        let mut scratch = Vec::new();
        for p in &points {
            scratch.clear();
            built.stab_into(p, &mut scratch);
        }
    });
    let unit_stab_ns = stab_ns / (stabs as f64 * backend.stab_units(n as f64));

    // Remove in a scrambled order so the naive list's scan distance
    // averages out the way the n/2 model assumes.
    let mut order: Vec<IntervalId> = items.iter().map(|(id, _)| *id).collect();
    let mut rng = Lcg(0xdead_beef);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let delete_ns = min_of(3, || {
        let mut idx = mk();
        for (id, iv) in &items {
            idx.insert(*id, iv.clone());
        }
        let t0 = Instant::now();
        for id in &order {
            idx.remove(*id);
        }
        t0.elapsed().as_nanos() as f64
    });
    let unit_delete_ns = delete_ns / growth_units(n, |i| backend.delete_units(i + 1.0)).max(1.0);

    BackendCost {
        unit_stab_ns,
        unit_insert_ns,
        unit_delete_ns,
    }
}

fn calibrate_interval_tree(n: usize, stabs: usize) -> BackendCost {
    let items = calibration_intervals(n);
    let points = calibration_points(n, stabs);
    let (built, build_ns) = best_of(3, || CenteredIntervalTree::build(items.clone()));
    // One rebuild over n items: the per-item build constant prices both
    // "insert" (rebuild at n+1) and "delete" (rebuild at n-1).
    let per_item = build_ns / n as f64;
    let (_, stab_ns) = best_of(3, || {
        let mut scratch = Vec::new();
        for p in &points {
            scratch.clear();
            built.stab_into(p, &mut scratch);
        }
    });
    BackendCost {
        unit_stab_ns: stab_ns / (stabs as f64 * Backend::IntervalTree.stab_units(n as f64)),
        unit_insert_ns: per_item,
        unit_delete_ns: per_item,
    }
}

/// Micro-benchmarks every backend in-process and solves for the unit
/// constants of the module's cost model, so projections and
/// measurements share one machine and one build. Takes ~100ms.
pub fn calibrate_constants() -> AdvisorConstants {
    const N: usize = 512;
    const STABS: usize = 2_000;
    AdvisorConstants {
        hit_ns: AdvisorConstants::default().hit_ns,
        ibs: calibrate_dynamic(Backend::Ibs, IbsTree::<Value>::new, N, STABS),
        skiplist: calibrate_dynamic(Backend::SkipList, IntervalSkipList::<Value>::new, N, STABS),
        interval_tree: calibrate_interval_tree(N, STABS),
        naive: calibrate_dynamic(
            Backend::Naive,
            altindex::NaiveIntervalList::<Value>::new,
            N,
            STABS,
        ),
    }
}

fn replay_dynamic<T: DynamicStabIndex<Value>>(
    mk: impl Fn() -> T,
    setup: &[(IntervalId, Interval<Value>)],
    ops: &[WorkloadOp],
) -> f64 {
    min_of(2, || {
        let mut idx = mk();
        for (id, iv) in setup {
            idx.insert(*id, iv.clone());
        }
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        for op in ops {
            match op {
                WorkloadOp::Insert { id, interval, .. } => idx.insert(*id, interval.clone()),
                WorkloadOp::Delete { id } => {
                    idx.remove(*id);
                }
                WorkloadOp::Stab { value } => {
                    scratch.clear();
                    idx.stab_into(value, &mut scratch);
                }
            }
        }
        t0.elapsed().as_nanos() as f64
    })
}

fn replay_interval_tree(setup: &[(IntervalId, Interval<Value>)], ops: &[WorkloadOp]) -> f64 {
    min_of(2, || {
        let mut items = setup.to_vec();
        let mut tree = CenteredIntervalTree::build(items.clone());
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        for op in ops {
            match op {
                WorkloadOp::Insert { id, interval, .. } => {
                    items.push((*id, interval.clone()));
                    tree = CenteredIntervalTree::build(items.clone());
                }
                WorkloadOp::Delete { id } => {
                    items.retain(|(i, _)| i != id);
                    tree = CenteredIntervalTree::build(items.clone());
                }
                WorkloadOp::Stab { value } => {
                    scratch.clear();
                    tree.stab_into(value, &mut scratch);
                }
            }
        }
        t0.elapsed().as_nanos() as f64
    })
}

/// Replays `ops` (after an untimed `setup` load) against each real
/// backend and returns measured window cost, ascending — the ground
/// truth the advisor's projection is validated against. Each backend
/// runs best-of-2, timing the replay loop only (setup excluded).
pub fn measure_backends(
    setup: &[(IntervalId, Interval<Value>)],
    ops: &[WorkloadOp],
) -> Vec<(Backend, f64)> {
    let mut measured = vec![
        (
            Backend::Ibs,
            replay_dynamic(IbsTree::<Value>::new, setup, ops),
        ),
        (
            Backend::SkipList,
            replay_dynamic(IntervalSkipList::<Value>::new, setup, ops),
        ),
        (Backend::IntervalTree, replay_interval_tree(setup, ops)),
        (
            Backend::Naive,
            replay_dynamic(altindex::NaiveIntervalList::<Value>::new, setup, ops),
        ),
    ];
    measured.sort_by(|a, b| a.1.total_cmp(&b.1));
    measured
}

/// The outcome of driving one shape end-to-end: the advisor's ranked
/// projection (via real workload accounts on a real index) next to the
/// measured per-backend cost.
#[derive(Debug, Clone)]
pub struct ShapeOutcome {
    pub name: &'static str,
    pub recommendation: Recommendation,
    /// Measured window cost per backend, ascending.
    pub measured: Vec<(Backend, f64)>,
}

impl ShapeOutcome {
    /// The measured-cheapest backend.
    pub fn measured_cheapest(&self) -> Backend {
        self.measured.first().map_or(Backend::Ibs, |m| m.0)
    }

    /// Did the advisor's top pick match the measured-cheapest backend?
    pub fn agree(&self) -> bool {
        self.recommendation.best() == self.measured_cheapest()
    }
}

/// Drives `spec` through a real [`PredicateIndex`](crate::PredicateIndex)
/// with workload accounts attached (setup excluded from the sampled
/// window), asks an [`Advisor`] with `constants` for its ranking, then
/// replays the same window against every raw backend. This is the
/// whole pipeline under test: record → window → project → compare.
pub fn run_shape(spec: &ShapeSpec, constants: &AdvisorConstants) -> ShapeOutcome {
    let mut db = Database::new();
    db.create_relation(Schema::builder("emp").attr("a", AttrType::Int).build())
        // srclint:allow(no-panic-in-lib): fresh database, the schema cannot collide
        .expect("fresh schema");
    let telemetry = Telemetry::new(Arc::new(Registry::new())).with_workload_accounts();
    let workload = telemetry.workload().clone();
    let mut index = crate::PredicateIndex::new();
    index.attach_metrics(telemetry);

    fn register(
        index: &mut crate::PredicateIndex,
        db: &Database,
        ids: &mut relation::fx::FnvHashMap<u32, crate::PredicateId>,
        id: IntervalId,
        source: &str,
    ) {
        let pred = predicate::parse_predicate(source)
            // srclint:allow(no-panic-in-lib): shape sources are generated by this module and always parse
            .expect("generated predicate parses");
        let pid = index
            .insert(pred, db.catalog())
            // srclint:allow(no-panic-in-lib): generated predicates bind against the generated schema
            .expect("generated predicate binds");
        ids.insert(id.0, pid);
    }
    let mut ids = relation::fx::FnvHashMap::default();
    for (id, iv) in &spec.setup {
        let (lo, hi) = int_bounds(iv);
        register(&mut index, &db, &mut ids, *id, &source_for(lo, hi));
    }
    for _ in 0..spec.non_indexable {
        let pred = predicate::parse_predicate("isodd(emp.a)")
            // srclint:allow(no-panic-in-lib): constant source always parses
            .expect("opaque predicate parses");
        index
            .insert(pred, db.catalog())
            // srclint:allow(no-panic-in-lib): opaque predicates always bind
            .expect("opaque predicate binds");
    }
    // Rebase the window clock so the advisor sees only the op log,
    // not the setup load.
    workload.rebase();

    let mut scratch = Vec::new();
    for op in &spec.ops {
        match op {
            WorkloadOp::Insert { id, source, .. } => {
                register(&mut index, &db, &mut ids, *id, source)
            }
            WorkloadOp::Delete { id } => {
                let pid = ids
                    .remove(&id.0)
                    // srclint:allow(no-panic-in-lib): shape op logs only delete previously inserted ids
                    .expect("deleted id was inserted");
                index.remove(pid);
            }
            WorkloadOp::Stab { value } => {
                scratch.clear();
                index.match_tuple_into("emp", &Tuple::new(vec![value.clone()]), &mut scratch);
            }
        }
    }

    let advisor = Advisor::with_constants(workload, *constants);
    let recs = advisor.recommendations();
    let recommendation = recs
        .into_iter()
        .find(|r| r.relation == "emp" && r.attr == 0)
        // srclint:allow(no-panic-in-lib): every shape stabs or inserts on emp.a, so the account exists
        .expect("emp.a account observed");
    let measured = measure_backends(&spec.setup, &spec.ops);
    ShapeOutcome {
        name: spec.name,
        recommendation,
        measured,
    }
}

fn int_bounds(iv: &Interval<Value>) -> (i64, i64) {
    let lo = match iv.lo().value() {
        Some(Value::Int(v)) => *v,
        _ => 0,
    };
    let hi = match iv.hi().value() {
        Some(Value::Int(v)) => *v,
        _ => lo,
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::ClauseShape;

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
        workload.record_insert("emp", 0, ClauseShape::Interval, Some(40));
        workload.record_stab("emp", 0, 1);
        workload.record_tuple("emp");
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
        for _ in 0..10 {
            workload.record_stab("emp", 0, 0);
        }
        workload.record_insert("emp", 0, ClauseShape::Eq, Some(0));
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

    #[test]
    fn shapes_are_deterministic() {
        let a = stab_heavy_shape(10);
        let b = stab_heavy_shape(10);
        assert_eq!(a.setup.len(), b.setup.len());
        assert_eq!(a.ops.len(), b.ops.len());
        let (Some(WorkloadOp::Stab { value: va }), Some(WorkloadOp::Stab { value: vb })) =
            (a.ops.first(), b.ops.first())
        else {
            panic!("stab-heavy opens with stabs");
        };
        assert_eq!(va, vb);
        // Churn keeps the live population pinned at n.
        let churn = churn_heavy_shape(20);
        let ins = churn
            .ops
            .iter()
            .filter(|o| matches!(o, WorkloadOp::Insert { .. }))
            .count();
        let del = churn
            .ops
            .iter()
            .filter(|o| matches!(o, WorkloadOp::Delete { .. }))
            .count();
        assert_eq!(ins, del);
    }

    #[test]
    fn measure_backends_covers_every_backend() {
        let spec = stab_heavy_shape(4);
        let measured = measure_backends(&spec.setup, &spec.ops);
        assert_eq!(measured.len(), Backend::ALL.len());
        // Ascending order.
        for pair in measured.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        for b in Backend::ALL {
            assert!(measured.iter().any(|(m, _)| *m == b));
        }
    }

    #[test]
    fn run_shape_feeds_real_workload_accounts() {
        let spec = non_indexable_heavy_shape(10);
        let outcome = run_shape(&spec, &AdvisorConstants::default());
        let rec = &outcome.recommendation;
        assert_eq!(rec.relation, "emp");
        assert_eq!(rec.attr, 0);
        assert_eq!(rec.stabs, 100);
        // 10 opaque vs 4 indexable live predicates.
        assert!(rec.non_indexable_share > 0.5, "{}", rec.non_indexable_share);
        assert_eq!(outcome.measured.len(), 4);
    }
}
