//! `--selfcheck`: does the benchmark repeat within its own bounds?
//!
//! Runs every workload `--runs` times on one seed (and once on a second
//! seed, which must also pass its correctness gate), each in a fresh
//! process so `VmHWM` and allocator state start clean, and prints each
//! end-to-end metric's spread beside its bound from `BENCHMARK.json`:
//! the quartile distance ÷ median, computed as Python's
//! `statistics.quantiles(values, n=4)` does — the statistic the driver
//! gates on — and `(max − min) ÷ median` for information. Fails if a
//! quartile spread exceeds its bound (`setup_s` excepted, as in the
//! driver, which compares only its medians), if `attempted` differs
//! between runs of one seed, or if `BENCHMARK.json` is not the manifest
//! this binary was built with.

use crate::manifest::{self, END_TO_END, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode};

/// One child run's parsed result line.
struct Row {
    attempted: u64,
    values: Vec<f64>,
}

/// Pulls `"key": <number>` out of a result line this binary printed.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn run_once(workload: &str, seed: u64, quick: bool) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "0",
    ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}, last line {line:?}",
            out.status.code()
        ));
    }
    let attempted = number_after(line, "\"attempted\": ").ok_or("no attempted")? as u64;
    let values = END_TO_END
        .iter()
        .map(|m| {
            number_after(line, &format!("\"{}\": {{\"value\": ", m.metric.name))
                .ok_or(format!("no {} in {line:?}", m.metric.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Row { attempted, values })
}

/// First and third quartile of ascending `v`, by the "exclusive"
/// method Python's `statistics.quantiles(v, n=4)` defaults to.
fn quartiles(v: &[f64]) -> (f64, f64) {
    let len = v.len();
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

pub fn run(bench_dir: &Path, runs: usize, seed: u64, quick: bool) -> ExitCode {
    let on_disk = std::fs::read_to_string(bench_dir.join("../BENCHMARK.json")).unwrap_or_default();
    if on_disk != manifest::render() {
        eprintln!("selfcheck: BENCHMARK.json differs from `stackbench --manifest`; regenerate it");
        return ExitCode::from(1);
    }
    let mut ok = true;
    for w in &WORKLOADS {
        let mut rows = Vec::new();
        for n in 0..runs {
            match run_once(w.name, seed, quick) {
                Ok(row) => rows.push(row),
                Err(e) => {
                    eprintln!("selfcheck: {e}");
                    return ExitCode::from(1);
                }
            }
            eprintln!("selfcheck: {} run {}/{runs} done", w.name, n + 1);
        }
        if let Err(e) = run_once(w.name, seed + 1, quick) {
            eprintln!("selfcheck: {e}");
            return ExitCode::from(1);
        }
        if rows.iter().any(|r| r.attempted != rows[0].attempted) {
            println!(
                "{:<14} attempted differs between runs of seed {seed}: FAIL",
                w.name
            );
            ok = false;
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let mut v: Vec<f64> = rows.iter().map(|r| r.values[i]).collect();
            v.sort_by(f64::total_cmp);
            let median = v[v.len() / 2];
            let (q1, q3) = quartiles(&v);
            let spread = (q3 - q1) / median;
            let pass = spread <= m.bound || m.metric.name == "setup_s";
            ok &= pass;
            println!(
                "{:<14} {:<18} median {:>14.4} {:<6} quartile spread {:>6.2}%  range {:>6.2}%  bound {:>5.1}%  {}",
                w.name,
                m.metric.name,
                median,
                m.metric.unit,
                spread * 100.0,
                (v[v.len() - 1] - v[0]) / median * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
