//! # Benchmark harness
//!
//! Reproduces every evaluation artifact of the paper:
//!
//! * **Figure 7** — average IBS-tree insertion time vs N for point
//!   fractions a ∈ {0, .5, 1} (`benches/fig7_insert.rs`),
//! * **Figure 8** — average IBS-tree search time, same sweep
//!   (`benches/fig8_search.rs`),
//! * **Figure 9** — IBS-tree vs sequential list matching cost for small
//!   N (`benches/fig9_sequential.rs`),
//! * **§5.2 cost model** — the 2.1 ms/tuple worked example, recomputed
//!   with the paper's constants and re-measured end to end
//!   ([`costmodel`]),
//! * ablations the paper motivates: balanced vs unbalanced trees,
//!   IBS-tree vs every comparator structure (§6's proposed comparison),
//!   and the full scheme vs the §2 baselines.
//!
//! `cargo run --release -p bench --bin reproduce` prints the full
//! paper-style tables; the Criterion benches provide statistical rigor
//! on individual points.
//!
//! Beside the paper's artifacts the crate is the repo's one harness
//! for everything that is measured and then gated:
//!
//! * `bench_json` — the one report binary. `--suite
//!   observability|advisor|join|all` appends one `bench/report-v1` line
//!   per suite to `BENCH_history.jsonl`; `.github/bench_gate.py` holds
//!   every bound on those rows.
//! * [`lab`] — the index advisor's validation lab (workload shapes,
//!   calibration, measured replay), every backend driven through the one
//!   `altindex::DynamicStabIndex` trait.
//! * [`timing`] — the one timing module all of the above share.
//!
//! The whole-stack benchmark (`stackbench`, `BENCHMARK.json`) is a
//! package of its own under `benchmark/` and uses nothing from here.

#![deny(unreachable_pub)]

pub mod costmodel;
pub mod lab;
pub mod scheme;
pub mod timing;
pub mod workload;
