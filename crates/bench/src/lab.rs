//! The advisor's validation lab: op logs, calibration, measured replay.
//!
//! `predindex::advisor` is formulas + ranking; this module is the
//! experiment around it. Three canonical single-attribute workload
//! shapes are driven through a real [`PredicateIndex`] with workload
//! accounts attached, the [`Advisor`] ranks the backends from what the
//! accounts observed, and the same op log is then replayed against
//! every raw backend with a wall clock ([`run_shape`]). The unit
//! constants the projection uses are solved in-process from the same
//! structures ([`calibrate_constants`]), so projection and measurement
//! share one machine and one build.
//!
//! Every backend enters calibration and replay through one trait,
//! [`DynamicStabIndex`]; the static interval tree does so behind
//! [`RebuildOnMutation`], which is exactly the cost the advisor's
//! model charges it (a rebuild per insert or delete).

use crate::timing::{min_ns, time_ns};
use altindex::{
    BulkBuild, CenteredIntervalTree, DynamicStabIndex, IntervalSkipList, NaiveIntervalList,
    RebuildOnMutation,
};
use ibs::IbsTree;
use interval::{Interval, IntervalId};
use predindex::advisor::BackendCost;
use predindex::{
    Advisor, AdvisorConstants, Backend, Matcher, PredicateId, PredicateIndex, Recommendation,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relation::fx::FnvHashMap;
use relation::{AttrType, Database, Schema, Tuple, Value};
use std::sync::Arc;
use telemetry::{Registry, Telemetry};

/// One operation of a recorded single-attribute workload, replayable
/// both through the real [`PredicateIndex`] (to feed the workload
/// accounts) and against each raw backend (to measure true cost).
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
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let span = 4 * n as i64 + 40;
    let ops = (0..20 * scale)
        .map(|_| WorkloadOp::Stab {
            value: Value::Int(rng.gen_range(0..span)),
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
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let span = 7 * n as i64 + width;
    let mut ops = Vec::new();
    for k in 0..3 * n {
        let lo = rng.gen_range(0..span);
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
                value: Value::Int(rng.gen_range(0..span)),
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
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    let mut ops = Vec::new();
    let mut next_id = 1_000u32;
    for k in 0..10 * scale {
        ops.push(WorkloadOp::Stab {
            value: Value::Int(rng.gen_range(0..400)),
        });
        if k % 5 == 2 {
            // The opaque predicates come and go; so do their rare
            // indexable companions. At four live intervals a scan is
            // free while every tree still pays its mutation costs.
            let lo = rng.gen_range(0..400);
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

/// The static centered interval tree as the advisor's model prices it:
/// rebuilt on every insert and delete.
type RebuiltIntervalTree = RebuildOnMutation<Value, CenteredIntervalTree<Value>>;

/// Sum of `f(i)` for the live population growing 0..n (insert order).
fn growth_units(n: usize, f: impl Fn(f64) -> f64) -> f64 {
    (0..n).map(|i| f(i as f64)).sum()
}

/// Solves one backend's unit constants: times `n` inserts into an
/// empty `T`, `stabs` stabs of the full structure and `n` removes, and
/// divides each by the work units the advisor's model assigns it.
fn calibrate<T>(backend: Backend, n: usize, stabs: usize) -> BackendCost
where
    T: DynamicStabIndex<Value> + BulkBuild<Value>,
{
    // Disjoint intervals ([10i+1, 10i+5]) probed between the gaps, so
    // the stab term is measured with a near-zero hit term.
    let items: Vec<(IntervalId, Interval<Value>)> = (0..n)
        .map(|i| {
            let lo = 10 * i as i64 + 1;
            (IntervalId(i as u32), closed(lo, lo + 4))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xca11_b8a7e);
    let points: Vec<Value> = (0..stabs)
        .map(|_| Value::Int(10 * rng.gen_range(0..n as i64) + 8))
        .collect();

    let insert_ns = min_ns(3, || {
        let mut idx = T::build(Vec::new());
        time_ns(|| {
            for (id, iv) in &items {
                idx.insert(*id, iv.clone());
            }
        })
    });

    let built = T::build(items.clone());
    let mut scratch = Vec::new();
    let stab_ns = min_ns(3, || {
        time_ns(|| {
            for p in &points {
                scratch.clear();
                built.stab_into(p, &mut scratch);
            }
        })
    });

    // Remove in a scrambled order so the naive list's scan distance
    // averages out the way the n/2 model assumes.
    let mut order: Vec<IntervalId> = items.iter().map(|(id, _)| *id).collect();
    order.shuffle(&mut rng);
    let delete_ns = min_ns(3, || {
        let mut idx = T::build(items.clone());
        time_ns(|| {
            for id in &order {
                idx.remove(*id);
            }
        })
    });

    BackendCost {
        unit_stab_ns: stab_ns / (stabs as f64 * backend.stab_units(n as f64)),
        unit_insert_ns: insert_ns / growth_units(n, |i| backend.insert_units(i)),
        unit_delete_ns: delete_ns / growth_units(n, |i| backend.delete_units(i + 1.0)).max(1.0),
    }
}

/// Micro-benchmarks every backend in-process and solves for the unit
/// constants of the advisor's cost model, so projections and
/// measurements share one machine and one build. Takes ~200ms.
pub fn calibrate_constants() -> AdvisorConstants {
    const N: usize = 512;
    const STABS: usize = 2_000;
    AdvisorConstants {
        hit_ns: AdvisorConstants::default().hit_ns,
        ibs: calibrate::<IbsTree<Value>>(Backend::Ibs, N, STABS),
        skiplist: calibrate::<IntervalSkipList<Value>>(Backend::SkipList, N, STABS),
        interval_tree: calibrate::<RebuiltIntervalTree>(Backend::IntervalTree, N, STABS),
        naive: calibrate::<NaiveIntervalList<Value>>(Backend::Naive, N, STABS),
    }
}

/// Replays `ops` against a `T` bulk-loaded with `setup`; best of two
/// runs, timing the replay loop only.
fn replay<T>(setup: &[(IntervalId, Interval<Value>)], ops: &[WorkloadOp]) -> f64
where
    T: DynamicStabIndex<Value> + BulkBuild<Value>,
{
    let mut scratch = Vec::new();
    min_ns(2, || {
        let mut idx = T::build(setup.to_vec());
        time_ns(|| {
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
        })
    })
}

/// Replays `ops` (after an untimed `setup` load) against each real
/// backend and returns measured window cost, ascending — the ground
/// truth the advisor's projection is validated against.
pub fn measure_backends(
    setup: &[(IntervalId, Interval<Value>)],
    ops: &[WorkloadOp],
) -> Vec<(Backend, f64)> {
    let mut measured = vec![
        (Backend::Ibs, replay::<IbsTree<Value>>(setup, ops)),
        (
            Backend::SkipList,
            replay::<IntervalSkipList<Value>>(setup, ops),
        ),
        (
            Backend::IntervalTree,
            replay::<RebuiltIntervalTree>(setup, ops),
        ),
        (
            Backend::Naive,
            replay::<NaiveIntervalList<Value>>(setup, ops),
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
}

/// Drives `spec` through a real [`PredicateIndex`] with workload
/// accounts attached (setup excluded from the sampled window), asks an
/// [`Advisor`] with `constants` for its ranking, then replays the same
/// window against every raw backend. This is the whole pipeline under
/// test: record → window → project → compare.
pub fn run_shape(spec: &ShapeSpec, constants: &AdvisorConstants) -> ShapeOutcome {
    let mut db = Database::new();
    db.create_relation(Schema::builder("emp").attr("a", AttrType::Int).build())
        .expect("fresh schema");
    let telemetry = Telemetry::new(Arc::new(Registry::new())).with_workload_accounts();
    let workload = telemetry.workload().clone();
    let mut index = PredicateIndex::new();
    index.attach_metrics(telemetry);

    fn register(
        index: &mut PredicateIndex,
        db: &Database,
        ids: &mut FnvHashMap<u32, PredicateId>,
        id: IntervalId,
        source: &str,
    ) {
        let pred = predicate::parse_predicate(source).expect("generated predicate parses");
        let pid = index
            .insert(pred, db.catalog())
            .expect("generated predicate binds");
        ids.insert(id.0, pid);
    }
    let mut ids = FnvHashMap::default();
    for (id, iv) in &spec.setup {
        let (lo, hi) = int_bounds(iv);
        register(&mut index, &db, &mut ids, *id, &source_for(lo, hi));
    }
    for _ in 0..spec.non_indexable {
        let pred = predicate::parse_predicate("isodd(emp.a)").expect("opaque predicate parses");
        index
            .insert(pred, db.catalog())
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
                let pid = ids.remove(&id.0).expect("deleted id was inserted");
                index.remove(pid);
            }
            WorkloadOp::Stab { value } => {
                scratch.clear();
                index.match_tuple_into("emp", &Tuple::new(vec![value.clone()]), &mut scratch);
            }
        }
    }

    let recommendation = Advisor::with_constants(workload, *constants)
        .recommendations()
        .into_iter()
        .find(|r| r.relation == "emp" && r.attr == 0)
        .expect("emp.a account observed");
    ShapeOutcome {
        name: spec.name,
        recommendation,
        measured: measure_backends(&spec.setup, &spec.ops),
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
