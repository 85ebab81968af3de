//! # Runtime observability for the predicate-matching stack
//!
//! Section 5 of Hanson et al. analyses the predicate-matching scheme
//! entirely in terms of *countable work*: IBS-tree nodes visited per
//! stab, marks examined, residual (full-conjunction) tests run, and
//! the §5.2 per-tuple cost decomposition. This crate makes that work
//! observable on a live system, in two halves:
//!
//! * **Metrics** — lock-free [`Counter`]s and fixed power-of-two
//!   bucket [`Histogram`]s behind cheap clonable handles, collected in
//!   a named [`Registry`] that renders a Prometheus-style text
//!   exposition ([`Registry::render_text`]). The recorder is chosen at
//!   construction: a [`Registry::disabled`] registry hands out handles
//!   whose per-event cost is a single branch, so instrumentation can
//!   stay compiled into every hot path.
//! * **EXPLAIN traces** — [`MatchTrace`], the Figure 1 path one tuple
//!   actually took (relation hash, per-attribute stab work, the
//!   non-indexable sweep, residual pass/fail per predicate), rendered
//!   as a human-readable report mirroring the paper's §5.2 cost table.
//! * **Span tracing** — a [`Tracer`] ring of closed intervals with
//!   inline numeric args and a Perfetto-loadable Chrome trace-event
//!   JSON export, the same disabled-path contract as the registry.
//!   [`serve`] exposes `/metrics`, `/health`, `/trace` and `/profile`
//!   over a dependency-free HTTP responder; the crate opens no file.
//! * **One JSON writer** — [`json::JsonWriter`] renders every JSON
//!   document the stack serves or commits (`/profile`, the
//!   Chrome trace, the bench report), so escaping and comma placement
//!   exist once.
//!
//! The crate is std-only and dependency-free; the relational layers
//! (`predindex`, `joinmemo`, `rules`, `durable`) each accept one
//! [`Telemetry`] handle — registry, tracer and profiler built over a
//! single registry — and fill in the traces.
//!
//! ```
//! use telemetry::Registry;
//!
//! let registry = Registry::new();
//! let stabs = registry.counter("predindex_ibs_nodes_visited_total");
//! let fsync = registry.histogram("wal_fsync_nanos");
//!
//! stabs.add(17);
//! fsync.record(1_200);
//!
//! let text = registry.render_text();
//! assert!(text.contains("predindex_ibs_nodes_visited_total 17"));
//! assert!(text.contains("wal_fsync_nanos_count 1"));
//!
//! // The disabled recorder: same call sites, one branch per event.
//! let off = Registry::disabled();
//! let noop = off.counter("predindex_ibs_nodes_visited_total");
//! noop.add(17);
//! assert_eq!(noop.get(), 0);
//! assert!(off.render_text().is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod counter;
mod explain;
mod handle;
mod histogram;
pub mod json;
mod profile;
mod registry;
mod server;
mod stages;
mod trace;

pub use counter::{metric_updates, Counter};
pub use explain::{MatchTrace, ResidualTrace, StabTrace};
pub use handle::Telemetry;
pub use histogram::{bucket_index, bucket_upper_bound, quantile, Histogram, HISTOGRAM_BUCKETS};
pub use profile::{
    AccountSnapshot, CostSnapshot, Profiler, SlowOp, EXTERNAL_ACCOUNT, SLOW_OP_CAPACITY,
};
pub use registry::Registry;
pub use server::{serve, wake_addr, HealthFn, ServerHandle};
pub use stages::{nanos, Stage, StageClock, StageRecord};
pub use trace::{
    chrome_trace_json, ArgValue, Args, Span, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let r = Registry::new();
        let c = r.counter("x_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter_value("x_total"), Some(5));
        // Same name, same cell.
        let c2 = r.counter("x_total");
        c2.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        let c = r.counter("x_total");
        let h = r.histogram("y");
        c.add(100);
        h.record(100);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(h.start_timer().is_none());
        assert!(r.render_text().is_empty());
        assert!(r.names().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn render_groups_labelled_families() {
        let r = Registry::new();
        r.counter("f_total{shard=\"0\"}").add(1);
        r.counter("f_total{shard=\"1\"}").add(2);
        let text = r.render_text();
        assert_eq!(text.matches("# TYPE f_total counter").count(), 1);
        assert!(text.contains("f_total{shard=\"0\"} 1"));
        assert!(text.contains("f_total{shard=\"1\"} 2"));
        assert_eq!(r.counter_family_total("f_total"), 3);
    }

    #[test]
    #[should_panic(expected = "registered as a histogram")]
    fn type_clash_panics() {
        let r = Registry::new();
        r.histogram("m");
        r.counter("m");
    }

    #[test]
    fn histogram_render_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(3); // bucket 2
        h.record(3); // bucket 2
        let text = r.render_text();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"0\"} 1"));
        assert!(text.contains("lat_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_bucket{le=\"3\"} 4"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lat_sum 7"));
        assert!(text.contains("lat_count 4"));
    }

    #[test]
    fn render_text_order_is_deterministic() {
        // Insertion order is scrambled on purpose; the exposition must
        // come out name-sorted and byte-identical across renders, so
        // two scrapes diff cleanly.
        let r = Registry::new();
        r.counter("z_total").add(3);
        r.counter("a_total{shard=\"1\"}").add(2);
        r.histogram("m_nanos").record(1);
        r.counter("a_total{shard=\"0\"}").add(1);
        let expected = "\
# TYPE a_total counter
a_total{shard=\"0\"} 1
a_total{shard=\"1\"} 2
# TYPE m_nanos histogram
m_nanos_bucket{le=\"1\"} 1
m_nanos_bucket{le=\"+Inf\"} 1
m_nanos_sum 1
m_nanos_count 1
# quantiles m_nanos p50=1 p95=1 p99=1
# TYPE z_total counter
z_total 3
";
        assert_eq!(r.render_text(), expected);
        assert_eq!(r.render_text(), r.render_text());
    }

    #[test]
    fn trace_display_mentions_every_stage() {
        let trace = MatchTrace {
            relation: "emp".into(),
            tuple: "(61, 12000)".into(),
            relation_indexed: true,
            stabs: vec![StabTrace {
                attr: 1,
                attr_name: "age".into(),
                value: "61".into(),
                nodes_visited: 5,
                marks_scanned: 7,
                less_hits: 1,
                eq_hits: 2,
                greater_hits: 3,
                universal_hits: 1,
                tree_intervals: 40,
                tree_height: 6,
            }],
            non_indexable_scanned: 1,
            non_indexable_predicates: 2,
            residual: vec![
                ResidualTrace {
                    predicate: 9,
                    pass: true,
                    source: "emp.age > 50".into(),
                },
                ResidualTrace {
                    predicate: 11,
                    pass: false,
                    source: "isodd(emp.age)".into(),
                },
                ResidualTrace {
                    predicate: 12,
                    pass: false,
                    source: "isodd(emp.age)".into(),
                },
            ],
            join_steps: Vec::new(),
        };
        assert_eq!(trace.partial_matches(), 3);
        // Two members of one clause set cost one test.
        assert_eq!(trace.residual_tests(), 2);
        assert_eq!(trace.matched(), vec![9]);
        assert_eq!(trace.nodes_visited(), 5);
        assert_eq!(trace.marks_scanned(), 7);
        let text = trace.to_string();
        for needle in [
            "relation hash",
            "IBS-tree stabs",
            "5 nodes visited",
            "non-indexable",
            "residual tests",
            "2 predicate(s) swept in 1 clause set test(s)",
            "3 partial match(es) -> 1 full match(es)",
            "PASS",
            "fail",
            "cost: hash=1",
            "seq_tests=1  residual_tests=2",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
