//! The benchmark's contract in one place: metric names, units,
//! directions and bounds, the workloads, and the `BENCHMARK.json` text
//! generated from them. `BENCHMARK.json` at the repository root must be
//! byte-identical to [`render`]; `--selfcheck` refuses to run otherwise,
//! so the names the code prints and the names the file lists cannot
//! drift apart.

use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

pub struct Bounded {
    pub metric: Metric,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Nominal seconds one run measures; the round count is a fixed
/// multiple of it (see `RunConfig::rounds`).
pub const RUN_SECONDS: u64 = 16;

/// Open-loop arrival rate of `serve_mixed`, requests per second over
/// both connections: about 20% of the closed-loop capacity measured
/// here at authoring time (~5,200 ops/s), and a third of it when the
/// host is at its slowest, so requests never queue behind one another.
pub const SERVE_OPEN_RATE: u64 = 1_000;

/// The driver appends `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`; the trailing `--` hands those to the binary.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "match_stab",
        why: "in-memory engine, 20k single-relation rules; each op is a 128-row insert_batch whose rows rule actions rewrite and delete: ibs stab + predindex residual dominate; index far larger than L2",
    },
    Workload {
        name: "rule_churn",
        why: "same engine, 2k hot rules; 99% add_rule (fresh text) / remove_rule, 1% small batches: the same ibs/predindex layers used for writes, plus the parser; working set fits in cache",
    },
    Workload {
        name: "join_cascade",
        why: "durable engine, EveryN(64) fsync, snapshot every 4096; 40 rules, half 2-/3-premise joins, cascades up to 3 levels, single-tuple writes: joinmemo, cascade, WAL and snapshot dominate, ibs does little",
    },
    Workload {
        name: "serve_mixed",
        why: "ruleserv over loopback with shipped defaults (fsync per op, snapshot every 1024), 2 connections; closed loop depth 8 then open loop at 1000 req/s: frame decode, engine queue, fsync, reply write",
    },
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

pub const END_TO_END: [Bounded; 5] = [
    Bounded {
        metric: lower("setup_s", "s"),
        bound: 0.25,
    },
    Bounded {
        metric: higher("throughput_ops_s", "ops/s"),
        bound: 0.25,
    },
    Bounded {
        metric: lower("op_p50_us", "us"),
        bound: 0.25,
    },
    Bounded {
        metric: lower("cpu_us_per_op", "us"),
        bound: 0.25,
    },
    Bounded {
        metric: lower("rss_mb", "MB"),
        bound: 0.05,
    },
];

pub const PER_LAYER: [Metric; 50] = [
    lower("ibs.stab_ns", "ns"),
    lower("ibs.nodes_per_stab", "count"),
    lower("ibs.marks_per_stab", "count"),
    lower("ibs.height", "count"),
    lower("ibs.markers_per_interval", "count"),
    lower("ibs.insert_ns", "ns"),
    lower("ibs.remove_ns", "ns"),
    lower("predindex.match_ns", "ns"),
    lower("predindex.self_ns", "ns"),
    lower("predindex.residual_tests_per_match", "count"),
    higher("predindex.residual_pass_ratio", "ratio"),
    lower("predindex.non_indexable_per_match", "count"),
    lower("predindex.lock_wait_ns_per_match", "ns"),
    lower("predindex.insert_ns", "ns"),
    lower("predindex.remove_ns", "ns"),
    lower("predicate.parse_ns", "ns"),
    lower("relation.write_ns", "ns"),
    lower("joinmemo.insert_ns", "ns"),
    lower("joinmemo.retract_ns", "ns"),
    lower("joinmemo.probes_per_event", "count"),
    lower("joinmemo.partials_live", "count"),
    lower("joinmemo.memo_bytes", "bytes"),
    lower("rules.op_ns", "ns"),
    lower("rules.self_ns", "ns"),
    lower("rules.firings_per_op", "count"),
    lower("rules.cascade_depth_mean", "count"),
    lower("rules.add_rule_ns", "ns"),
    lower("rules.remove_rule_ns", "ns"),
    lower("durable.op_ns", "ns"),
    lower("durable.self_ns", "ns"),
    lower("durable.wal_append_ns", "ns"),
    lower("durable.fsync_p50_us", "us"),
    lower("durable.fsyncs_per_op", "count"),
    lower("durable.wal_bytes_per_op", "bytes"),
    lower("durable.snapshot_ms", "ms"),
    lower("durable.snapshots_per_1k_ops", "count"),
    lower("durable.snapshot_bytes_per_tuple", "bytes"),
    higher("durable.replay_frames_per_s", "1/s"),
    lower("durable.recovery_s", "s"),
    lower("ruleserv.encode_ns", "ns"),
    lower("ruleserv.decode_ns", "ns"),
    lower("ruleserv.ping_rtt_us", "us"),
    lower("ruleserv.self_us", "us"),
    lower("ruleserv.bytes_per_op", "bytes"),
    lower("ruleserv.busy_share", "ratio"),
    lower("ruleserv.sojourn_p99_us", "us"),
    lower("ruleserv.generator_late_p99_us", "us"),
    higher("telemetry.overhead_ratio", "ratio"),
    lower("machine.spin_ms", "ms"),
    lower("trace.negative_self_share", "ratio"),
];

fn strings(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The exact text of `BENCHMARK.json`.
pub fn render() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", strings(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.metric.name, m.metric.unit, m.metric.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}
