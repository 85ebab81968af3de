//! Machine-readable benchmark harness.
//!
//! Runs the §5.2 scheme-cost sweep, the telemetry-overhead comparison,
//! and the profiler attribution-overhead comparison, and writes one
//! JSON document (see EXPERIMENTS.md for the format) so CI and
//! regression scripts can diff numbers without scraping Criterion's
//! human output:
//!
//! ```text
//! cargo run --release -p bench --bin bench_json -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` trims the sweep and the run counts for smoke tests;
//! `--out` overrides the default `BENCH_observability.json`.
//!
//! The JSON is hand-rolled (no serde in this workspace); every result
//! row carries the median ns/op and, for runs with live counters, the
//! final counter totals so shape regressions (more residual tests, more
//! nodes visited) are visible even when wall-clock noise hides them.

use bench::scheme::SchemeWorkload;
use bench::timing::median_ns_per_op;
use predindex::{Matcher, PredicateIndex};
use relation::{AttrType, Database, Schema, Value};
use rules::{Action, Rule, RuleEngine};
use std::sync::Arc;
use telemetry::{Registry, Telemetry, Tracer};

/// One benchmark row.
struct BenchResult {
    name: String,
    ns_per_op: f64,
    /// Counter name → final total (empty when telemetry was disabled).
    counters: Vec<(String, u64)>,
}

struct Config {
    quick: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        quick: false,
        out: "BENCH_observability.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--out" => {
                cfg.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown flag {other:?}; usage: bench_json [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// Builds a loaded index for `workload`, recording into `registry` and
/// `tracer` (either may be disabled).
fn loaded_index(w: &SchemeWorkload, registry: &Arc<Registry>, tracer: Tracer) -> PredicateIndex {
    let db = w.database();
    let mut index = PredicateIndex::new();
    index.attach_metrics(Telemetry::new(Arc::clone(registry)).with_tracer(tracer));
    for p in w.predicates() {
        index
            .insert(p, db.catalog())
            .expect("valid scenario predicate");
    }
    index
}

/// Times matching `tuples` through `index`, returning median ns/tuple.
fn time_matches(index: &PredicateIndex, tuples: &[relation::Tuple], runs: usize) -> f64 {
    let mut out = Vec::with_capacity(64);
    median_ns_per_op(runs, tuples.len(), || {
        for t in tuples {
            out.clear();
            index.match_tuple_into(SchemeWorkload::RELATION, t, &mut out);
        }
    })
}

/// Snapshots every counter in `registry` (sorted by name).
fn counter_totals(registry: &Registry) -> Vec<(String, u64)> {
    registry
        .names()
        .into_iter()
        .filter_map(|n| registry.counter_value(&n).map(|v| (n, v)))
        .collect()
}

fn scheme_cost(cfg: &Config, results: &mut Vec<BenchResult>) {
    let sweep: &[usize] = if cfg.quick {
        &[200, 1000]
    } else {
        &[200, 1000, 5000]
    };
    let runs = if cfg.quick { 5 } else { 9 };
    for &preds in sweep {
        let w = SchemeWorkload {
            predicates: preds,
            ..SchemeWorkload::default()
        };
        let registry = Arc::new(Registry::disabled());
        let index = loaded_index(&w, &registry, Tracer::disabled());
        let tuples = w.tuples(if cfg.quick { 128 } else { 512 });
        let ns = time_matches(&index, &tuples, runs);
        eprintln!("scheme_cost/preds{preds}: {ns:.1} ns/op");
        results.push(BenchResult {
            name: format!("scheme_cost/preds{preds}"),
            ns_per_op: ns,
            counters: Vec::new(),
        });
    }
}

fn telemetry_overhead(cfg: &Config, results: &mut Vec<BenchResult>) {
    let runs = if cfg.quick { 5 } else { 9 };
    let w = SchemeWorkload::default();
    let tuples = w.tuples(if cfg.quick { 128 } else { 512 });
    // disabled: the regression guard — every hook is one branch.
    // counters: live registry, tracing off.
    // tracing: live registry plus a span ring (wraps freely).
    let modes: [(&str, bool, bool); 3] = [
        ("disabled", false, false),
        ("counters", true, false),
        ("tracing", true, true),
    ];
    for (mode, counters_on, tracing_on) in modes {
        let registry = if counters_on {
            Arc::new(Registry::new())
        } else {
            Arc::new(Registry::disabled())
        };
        let tracer = if tracing_on {
            Tracer::new(telemetry::DEFAULT_TRACE_CAPACITY)
        } else {
            Tracer::disabled()
        };
        let index = loaded_index(&w, &registry, tracer);
        let ns = time_matches(&index, &tuples, runs);
        eprintln!("telemetry_overhead/{mode}: {ns:.1} ns/op");
        results.push(BenchResult {
            name: format!("telemetry_overhead/{mode}"),
            ns_per_op: ns,
            counters: counter_totals(&registry),
        });
    }
}

/// A rule engine loaded with salary-band rules: the attribution
/// workload. `profiled` attaches live per-rule cost accounts.
fn band_engine(profiled: bool, registry: &Arc<Registry>) -> RuleEngine {
    let mut telemetry = Telemetry::new(Arc::clone(registry));
    if profiled {
        telemetry = telemetry.with_profiling();
    }
    let mut engine = RuleEngine::new(Database::new());
    engine.attach_metrics(telemetry);
    engine
        .create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
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
    engine
}

/// The cost-attribution guard: the full rule-chain insert path with the
/// profiler detached (`baseline` — every profiler hook is one branch)
/// versus attached (`profiled` — per-rule accounts billed per event).
/// The acceptance bound lives in CI: the profiled/baseline ratio,
/// with slack, against the committed BENCH_observability.json ratio.
fn attribution_overhead(cfg: &Config, results: &mut Vec<BenchResult>) {
    let runs = if cfg.quick { 5 } else { 9 };
    let inserts = if cfg.quick { 128 } else { 512 };
    for (mode, profiled) in [("baseline", false), ("profiled", true)] {
        let registry = Arc::new(Registry::new());
        let mut engine = band_engine(profiled, &registry);
        let mut i = 0i64;
        let ns = median_ns_per_op(runs, inserts, || {
            for _ in 0..inserts {
                engine
                    .insert(
                        "emp",
                        vec![
                            Value::str("e"),
                            Value::Int(20 + (i % 50)),
                            Value::Int((i * 37) % 16_000),
                        ],
                    )
                    .expect("band insert");
                i += 1;
            }
        });
        eprintln!("attribution_overhead/{mode}: {ns:.1} ns/op");
        results.push(BenchResult {
            name: format!("attribution_overhead/{mode}"),
            ns_per_op: ns,
            counters: counter_totals(&registry),
        });
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_json(cfg: &Config, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench/observability-v1\",\n");
    out.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"counters\": {{",
            json_escape(&r.name),
            r.ns_per_op
        ));
        for (j, (name, value)) in r.counters.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json_escape(name), value));
        }
        out.push_str("}}");
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let cfg = parse_args();
    let mut results = Vec::new();
    scheme_cost(&cfg, &mut results);
    telemetry_overhead(&cfg, &mut results);
    attribution_overhead(&cfg, &mut results);
    let json = render_json(&cfg, &results);
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", cfg.out);
        std::process::exit(1);
    });
    eprintln!("wrote {} ({} results)", cfg.out, results.len());
}
