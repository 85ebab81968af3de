//! Server metric handles, pre-resolved at startup.
//!
//! Families (all registered in DESIGN.md §11's canonical table):
//! `server_connections_total`, `server_requests_total{op=…}`,
//! `server_request_nanos{op=…}`, `server_busy_total`,
//! `server_bytes_total{dir=…}`, `server_events_dropped_total`,
//! `server_queue_depth`, `server_commit_group_size`,
//! `server_engine_dead_total`, and — under the profiler —
//! `server_stage_nanos{stage=…}`. A disabled registry hands out
//! disabled handles, so an unmetered server pays one branch per site.

use crate::proto::OP_NAMES;
use telemetry::{Counter, Histogram, Stage, StageRecord, Telemetry};

/// Per-op request counter + latency histogram.
struct OpMetrics {
    requests: Counter,
    nanos: Histogram,
}

/// The server's metric bundle.
pub(crate) struct ServerMetrics {
    /// Connections accepted (`server_connections_total`).
    pub(crate) connections: Counter,
    /// Requests bounced with `Busy` (`server_busy_total`).
    pub(crate) busy: Counter,
    /// Frame bytes received (`server_bytes_total{dir="in"}`).
    pub(crate) bytes_in: Counter,
    /// Frame bytes sent (`server_bytes_total{dir="out"}`).
    pub(crate) bytes_out: Counter,
    /// Subscription events dropped on full reply queues
    /// (`server_events_dropped_total`).
    pub(crate) events_dropped: Counter,
    /// Engine-queue depth observed at each enqueue
    /// (`server_queue_depth`).
    pub(crate) queue_depth: Histogram,
    /// Requests released per commit group
    /// (`server_commit_group_size`).
    pub(crate) group_size: Histogram,
    /// Engine-thread panics survived just long enough to answer
    /// everyone with an error (`server_engine_dead_total`; 0 or 1).
    pub(crate) engine_dead: Counter,
    /// `server_stage_nanos{stage=…}`, indexed like [`Stage::ALL`];
    /// minted only under the profiler, the only time records carry
    /// stages.
    stages: Vec<Histogram>,
    /// The engine's handle: its profiler owns the slow-op ring, and its
    /// tracer takes each closed record and the `commit_release` instants.
    pub(crate) telemetry: Telemetry,
    /// Indexed like [`OP_NAMES`].
    per_op: Vec<OpMetrics>,
}

impl ServerMetrics {
    pub(crate) fn new(telemetry: &Telemetry) -> ServerMetrics {
        let registry = telemetry.registry();
        let per_op = OP_NAMES
            .iter()
            .map(|op| OpMetrics {
                requests: registry.counter(&format!("server_requests_total{{op=\"{op}\"}}")),
                nanos: registry.histogram(&format!("server_request_nanos{{op=\"{op}\"}}")),
            })
            .collect();
        ServerMetrics {
            connections: registry.counter("server_connections_total"),
            busy: registry.counter("server_busy_total"),
            bytes_in: registry.counter("server_bytes_total{dir=\"in\"}"),
            bytes_out: registry.counter("server_bytes_total{dir=\"out\"}"),
            events_dropped: registry.counter("server_events_dropped_total"),
            queue_depth: registry.histogram("server_queue_depth"),
            group_size: registry.histogram("server_commit_group_size"),
            engine_dead: registry.counter("server_engine_dead_total"),
            stages: match telemetry.profiler().is_enabled() {
                true => Stage::ALL
                    .iter()
                    .map(|s| {
                        registry.histogram(&format!("server_stage_nanos{{stage=\"{}\"}}", s.name()))
                    })
                    .collect(),
                false => Vec::new(),
            },
            telemetry: telemetry.clone(),
            per_op,
        }
    }

    /// One request answered (op `op`, an index into [`OP_NAMES`]):
    /// count it and record its decode-to-flush latency.
    pub(crate) fn record_op(&self, op: usize, nanos: u64) {
        let m = &self.per_op[op];
        m.requests.inc();
        m.nanos.record(nanos);
    }

    /// One closed request record, stage by stage.
    pub(crate) fn record_stages(&self, record: &StageRecord) {
        for (histogram, stage) in self.stages.iter().zip(Stage::ALL) {
            histogram.record(record.nanos(stage));
        }
    }
}
