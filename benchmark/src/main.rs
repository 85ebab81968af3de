//! `stackbench`: one fixed-work, round-sampled benchmark for the whole
//! stack (`ruleserv` → `durable` → `rules` → `joinmemo`/`predindex` →
//! `ibs`), with a per-layer traced run. See `benchmark/README.md`.
//!
//! ```text
//! stackbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]
//! stackbench --selfcheck [--runs 5] [--seed <n>]
//! stackbench --manifest
//! ```

mod echo;
mod manifest;
mod measure;
mod mirror;
mod rng;
mod selfcheck;
mod trace;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{inmem, join_cascade, serve_mixed, RunConfig, RunResult};

/// `benchmark/`, fixed at build time: the binary is built inside the
/// checkout it measures.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    runs: usize,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
        runs: 5,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?.clamp(1, 60),
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--runs" => args.runs = number("--runs", value("--runs")?)?.clamp(2, 50) as usize,
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    Ok(match name {
        "match_stab" => inmem::run(inmem::Which::MatchStab, cfg),
        "rule_churn" => inmem::run(inmem::Which::RuleChurn, cfg),
        "join_cascade" => join_cascade::run(cfg),
        "serve_mixed" => serve_mixed::run(cfg),
        other => {
            let known: Vec<_> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {other:?}; known: {known:?}"));
        }
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`,
/// `metrics` (plus `"quick": true` on a shrunken run, so such a row is
/// never compared with a full one).
fn result_line(result: &RunResult, trace: bool, quick: bool) -> Result<String, String> {
    let unit_of = |name: &str| -> Option<&'static str> {
        if trace {
            manifest::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        } else {
            manifest::END_TO_END
                .iter()
                .find(|m| m.metric.name == name)
                .map(|m| m.metric.unit)
        }
    };
    let expected = if trace {
        manifest::PER_LAYER.len()
    } else {
        manifest::END_TO_END.len()
    };
    if result.metrics.len() != expected {
        return Err(format!(
            "run produced {} metrics, the manifest lists {expected}",
            result.metrics.len()
        ));
    }
    let mut fields = Vec::new();
    for (name, value) in &result.metrics {
        let unit = unit_of(name).ok_or(format!("metric {name} is not in the manifest"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, {}\"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        if quick { "\"quick\": true, " } else { "" },
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return selfcheck::run(&bench_dir(), args.runs, args.seed, args.quick);
    }
    let Some(workload) = args.workload else {
        eprintln!("stackbench: --workload <name> is required (or --selfcheck, --manifest)");
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir: bench_dir().join("out"),
    };
    let result = match run_workload(&workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &result.notes {
        eprintln!("# {note}");
    }
    for (name, value) in &result.metrics {
        eprintln!("{name:<40} {value:>16.4}");
    }
    match result_line(&result, args.trace, args.quick) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(3);
        }
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("stackbench: correctness gate failed (see notes above)");
        ExitCode::from(1)
    }
}
