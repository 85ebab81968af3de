//! Advisor validation harness: projected vs measured backend cost.
//!
//! For each of three canonical workload shapes (stab-heavy,
//! churn-heavy, non-indexable-heavy) this drives a real
//! `PredicateIndex` with workload accounts attached, asks the index
//! advisor for its §5.2-ranked projection, then replays the same op
//! log against every raw backend and times it. The committed
//! `BENCH_advisor.json` asserts the advisor's top pick matches the
//! measured-cheapest backend on every shape:
//!
//! ```text
//! cargo run --release -p bench --bin advisor_report -- [--quick] [--out PATH]
//! ```
//!
//! The run also measures workload-account overhead on the match path
//! (disabled vs enabled; the acceptance bound — enabled ≤ +10% — is
//! enforced by CI with slack against the committed ratio) and unit
//! constants are calibrated in-process so projection and measurement
//! share one machine and one build.

use bench::scheme::SchemeWorkload;
use bench::timing::median_ns_per_op;
use predindex::advisor::{
    bench_shapes, calibrate_constants, quick_shapes, run_shape, ShapeOutcome,
};
use predindex::{Backend, Matcher, PredicateIndex};
use std::sync::Arc;
use telemetry::{Registry, Telemetry};

struct Config {
    quick: bool,
    out: String,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        quick: false,
        out: "BENCH_advisor.json".to_string(),
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
                eprintln!("unknown flag {other:?}; usage: advisor_report [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// Match-path cost with workload accounts off vs on, counters on in
/// both modes (the accounts live in the registry, so they cannot be on
/// without it) — the delta is the workload hooks alone.
fn workload_overhead(cfg: &Config) -> (f64, f64) {
    let runs = if cfg.quick { 5 } else { 9 };
    let w = SchemeWorkload::default();
    let tuples = w.tuples(if cfg.quick { 128 } else { 512 });
    let mut costs = [0.0f64; 2];
    for (slot, enabled) in [(0, false), (1, true)] {
        let db = w.database();
        let mut telemetry = Telemetry::new(Arc::new(Registry::new()));
        if enabled {
            telemetry = telemetry.with_workload_accounts();
        }
        let mut index = PredicateIndex::new();
        index.attach_metrics(telemetry);
        for p in w.predicates() {
            index
                .insert(p, db.catalog())
                .expect("valid scenario predicate");
        }
        let mut out = Vec::with_capacity(64);
        costs[slot] = median_ns_per_op(runs, tuples.len(), || {
            for t in &tuples {
                out.clear();
                index.match_tuple_into(SchemeWorkload::RELATION, t, &mut out);
            }
        });
    }
    (costs[0], costs[1])
}

fn backend_map(pairs: impl Iterator<Item = (Backend, f64)>) -> String {
    let mut out = String::from("{");
    for (i, (b, ns)) in pairs.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {:.1}", b.name(), ns));
    }
    out.push('}');
    out
}

fn shape_json(o: &ShapeOutcome) -> String {
    let rec = &o.recommendation;
    let projected = backend_map(rec.ranked.iter().map(|p| (p.backend, p.projected_nanos)));
    let measured = backend_map(o.measured.iter().copied());
    let winner = rec.best();
    let projected_winner = rec
        .ranked
        .iter()
        .find(|p| p.backend == winner)
        .map_or(0.0, |p| p.projected_nanos);
    let measured_winner = o
        .measured
        .iter()
        .find(|(b, _)| *b == winner)
        .map_or(0.0, |(_, ns)| *ns);
    // Symmetric ratio >= 1: how far off the winner's projection was.
    let err = if projected_winner > 0.0 && measured_winner > 0.0 {
        (projected_winner / measured_winner).max(measured_winner / projected_winner)
    } else {
        1.0
    };
    format!(
        "    {{\"name\": \"{}\", \"advisor_pick\": \"{}\", \"measured_cheapest\": \"{}\", \
         \"agree\": {}, \"margin\": {:.2}, \"live\": {}, \"stabs\": {}, \"inserts\": {}, \
         \"deletes\": {}, \"winner_projection_error\": {:.2},\n     \"projected\": {},\n     \
         \"measured\": {}}}",
        o.name,
        rec.best().name(),
        o.measured_cheapest().name(),
        o.agree(),
        rec.margin,
        rec.live,
        rec.stabs,
        rec.inserts,
        rec.deletes,
        err,
        projected,
        measured,
    )
}

fn main() {
    let cfg = parse_args();
    eprintln!("calibrating backend unit constants...");
    let constants = calibrate_constants();
    eprintln!(
        "  stab ns/unit: ibs {:.1}, skiplist {:.1}, interval_tree {:.1}, naive {:.2}",
        constants.ibs.unit_stab_ns,
        constants.skiplist.unit_stab_ns,
        constants.interval_tree.unit_stab_ns,
        constants.naive.unit_stab_ns,
    );

    let shapes = if cfg.quick {
        quick_shapes()
    } else {
        bench_shapes()
    };
    let mut rows = Vec::new();
    for spec in &shapes {
        let outcome = run_shape(spec, &constants);
        eprintln!(
            "{}: advisor {} / measured {} ({}), margin {:.2}x",
            outcome.name,
            outcome.recommendation.best().name(),
            outcome.measured_cheapest().name(),
            if outcome.agree() { "agree" } else { "DISAGREE" },
            outcome.recommendation.margin,
        );
        rows.push(shape_json(&outcome));
    }

    let (disabled_ns, enabled_ns) = workload_overhead(&cfg);
    let ratio = enabled_ns / disabled_ns;
    eprintln!(
        "workload_overhead: disabled {disabled_ns:.1} ns/op, enabled {enabled_ns:.1} ns/op ({ratio:.3}x)"
    );

    let json = format!(
        "{{\n  \"schema\": \"bench/advisor-v1\",\n  \"quick\": {},\n  \"shapes\": [\n{}\n  ],\n  \
         \"overhead\": {{\"disabled_ns_per_op\": {:.1}, \"enabled_ns_per_op\": {:.1}, \
         \"ratio\": {:.3}}}\n}}\n",
        cfg.quick,
        rows.join(",\n"),
        disabled_ns,
        enabled_ns,
        ratio,
    );
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", cfg.out);
        std::process::exit(1);
    });
    eprintln!("wrote {} ({} shapes)", cfg.out, shapes.len());
}
