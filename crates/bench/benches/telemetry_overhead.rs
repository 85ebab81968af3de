//! Overhead guard for the telemetry layer.
//!
//! Three comparisons, all over the §5.2 scenario shape:
//!
//! * `sequential_match`: the single-threaded scheme with a disabled
//!   recorder (the seed configuration — every hook is one branch)
//!   versus a live registry recording every counter and histogram;
//! * `sharded_match`: the same pair through the sharded front-end,
//!   which additionally times lock waits when enabled;
//! * `primitive`: the raw cost of one counter increment and one
//!   histogram record, disabled and enabled;
//! * `attribution`: the full rule-chain insert path with the cost
//!   profiler detached (every hook one branch) versus attached
//!   (per-rule accounts billed per event) — the ≤ +15% budget.
//!
//! The disabled rows are the regression guard: they must match the
//! pre-telemetry baseline, since a disabled handle never touches an
//! atomic.

use bench::scheme::SchemeWorkload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use predindex::{Matcher, PredicateIndex, ShardedPredicateIndex};
use relation::{AttrType, Database, Schema, Value};
use rules::{Action, Rule, RuleEngine};
use std::hint::black_box;
use std::sync::Arc;
use telemetry::{Counter, Histogram, Registry, Telemetry};

const MODES: [&str; 2] = ["disabled", "enabled"];

fn registry_for(mode: &str) -> Arc<Registry> {
    match mode {
        "disabled" => Arc::new(Registry::disabled()),
        _ => Arc::new(Registry::new()),
    }
}

fn match_overhead(c: &mut Criterion) {
    let w = SchemeWorkload::default();
    let db = w.database();
    let tuples = w.tuples(512);

    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(tuples.len() as u64));

    for mode in MODES {
        let mut index = PredicateIndex::new();
        index.attach_metrics(registry_for(mode));
        for p in w.predicates() {
            index
                .insert(p, db.catalog())
                .expect("valid scenario predicate");
        }
        group.bench_with_input(
            BenchmarkId::new("sequential_match", mode),
            &tuples,
            |b, tuples| {
                let mut out = Vec::with_capacity(64);
                b.iter(|| {
                    let mut total = 0usize;
                    for t in tuples {
                        out.clear();
                        index.match_tuple_into(SchemeWorkload::RELATION, t, &mut out);
                        total += out.len();
                    }
                    black_box(total)
                })
            },
        );
    }

    for mode in MODES {
        let mut index = ShardedPredicateIndex::new();
        index.attach_metrics(registry_for(mode));
        for p in w.predicates() {
            index
                .insert(p, db.catalog())
                .expect("valid scenario predicate");
        }
        group.bench_with_input(
            BenchmarkId::new("sharded_match", mode),
            &tuples,
            |b, tuples| {
                let mut out = Vec::with_capacity(64);
                b.iter(|| {
                    let mut total = 0usize;
                    for t in tuples {
                        out.clear();
                        index.match_tuple_into(SchemeWorkload::RELATION, t, &mut out);
                        total += out.len();
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

fn primitive_overhead(c: &mut Criterion) {
    let registry = Registry::new();
    let cases: [(&str, Counter, Histogram); 2] = [
        ("disabled", Counter::disabled(), Histogram::disabled()),
        (
            "enabled",
            registry.counter("bench_counter_total"),
            registry.histogram("bench_histogram"),
        ),
    ];
    let mut group = c.benchmark_group("telemetry_primitive");
    group.throughput(Throughput::Elements(1024));
    for (mode, counter, histogram) in cases {
        group.bench_function(BenchmarkId::new("counter_inc", mode), |b| {
            b.iter(|| {
                for _ in 0..1024 {
                    counter.inc();
                }
                black_box(counter.get())
            })
        });
        group.bench_function(BenchmarkId::new("histogram_record", mode), |b| {
            b.iter(|| {
                for v in 0..1024u64 {
                    histogram.record(black_box(v));
                }
                black_box(histogram.count())
            })
        });
    }
    group.finish();
}

fn attribution_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_attribution");
    group.throughput(Throughput::Elements(256));
    for (mode, profiled) in [("baseline", false), ("profiled", true)] {
        let mut telemetry = Telemetry::new(Arc::new(Registry::new()));
        if profiled {
            telemetry = telemetry.with_profiling();
        }
        let mut engine = RuleEngine::new(Database::new());
        engine.attach_metrics(telemetry);
        engine
            .create_relation(
                Schema::builder("emp")
                    .attr("name", AttrType::Str)
                    .attr("salary", AttrType::Int)
                    .build(),
            )
            .expect("create emp");
        for i in 0i64..16 {
            let rule = Rule::builder(format!("band{i}"))
                .when(&format!(
                    "emp.salary >= {} and emp.salary < {}",
                    i * 1000,
                    (i + 1) * 1000
                ))
                .expect("valid band condition")
                .then(Action::log("hit"))
                .build();
            engine.add_rule(rule).expect("add band rule");
        }
        let mut i = 0i64;
        group.bench_function(BenchmarkId::new("rule_chain_insert", mode), |b| {
            b.iter(|| {
                let mut fired = 0usize;
                for _ in 0..256 {
                    let report = engine
                        .insert("emp", vec![Value::str("e"), Value::Int((i * 37) % 16_000)])
                        .expect("band insert");
                    fired += report.firings.len();
                    i += 1;
                }
                black_box(fired)
            })
        });
    }
    group.finish();
}

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = match_overhead, primitive_overhead, attribution_overhead
}
criterion_main!(benches);
