//! # Benchmark harness
//!
//! Reproduces every evaluation artifact of the paper, each behind one
//! `reproduce` subcommand (DESIGN.md §3 has the table):
//!
//! * **Figures 7–9** — average IBS-tree insertion and search time vs N
//!   for point fractions a ∈ {0, .5, 1}, and IBS-tree vs sequential
//!   list matching cost for small N ([`workload`]),
//! * **§5.2 cost model** — the 2.1 ms/tuple worked example, recomputed
//!   with the paper's constants, re-measured end to end, and its terms
//!   counted off real telemetry counters ([`costmodel`], [`scheme`]),
//! * ablations the paper motivates: balanced vs unbalanced trees,
//!   IBS-tree vs every comparator structure (§6's proposed comparison),
//!   the full scheme vs the §2 baselines, workload skew, the sharded
//!   front-end under caller threads, and WAL replay vs snapshot load.
//!
//! The crate has two front doors and one clock:
//!
//! * `cargo run --release -p bench --bin reproduce [name…]` prints the
//!   paper-style tables EXPERIMENTS.md quotes — tables for people.
//! * `bench_json` — the one report binary, gated rows for CI. `--suite
//!   observability|join|all` appends one `bench/report-v1` line per
//!   suite to `BENCH_history.jsonl`; `.github/bench_gate.py` holds
//!   every bound on those rows.
//! * [`timing`] — the one timing module both share.
//! * [`stab_shape`] — `match_stab` in miniature, the engine whose heap
//!   allocations per event `bench_json` reports and a `rules` test pins.
//!
//! The whole-stack benchmark (`stackbench`, `BENCHMARK.json`) is a
//! package of its own under `benchmark/` and uses nothing from here.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

pub mod costmodel;
pub mod scheme;
pub mod stab_shape;
pub mod timing;
pub mod workload;
