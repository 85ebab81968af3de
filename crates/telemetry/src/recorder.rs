//! The flight recorder: post-mortem dumps of the trace ring.
//!
//! The [`Tracer`](crate::Tracer) ring always holds the last moments of
//! execution, which makes it exactly the evidence wanted when
//! something goes wrong after hours of healthy traffic. A
//! [`FlightRecorder`] pairs the ring with the metric
//! [`Registry`](crate::Registry) and a dump directory: on demand
//! ([`dump`](FlightRecorder::dump)) it writes one timestamped file
//! holding
//!
//! 1. a header (reason, wall-clock time, event/drop counts),
//! 2. the full Prometheus exposition of the registry, and
//! 3. the ring as Chrome trace-event JSON (extract the final line and
//!    load it in Perfetto).
//!
//! The durable layer wires a recorder into `DurableRuleEngine` so a
//! recovery `Corrupt` refusal ships context instead of just an error
//! string.
//!
//! ```
//! use std::sync::Arc;
//! use telemetry::{FlightRecorder, Registry, Telemetry, Tracer};
//!
//! let dir = std::env::temp_dir().join("telemetry-doc-flight");
//! let telemetry = Telemetry::new(Arc::new(Registry::new())).with_tracer(Tracer::new(256));
//! telemetry.registry().counter("rules_fired_total").add(3);
//! {
//!     let _s = telemetry.tracer().span("durable_snapshot", []);
//! }
//! let recorder = FlightRecorder::new(telemetry, &dir);
//! let path = recorder.dump("doc-example").unwrap();
//! let text = std::fs::read_to_string(&path).unwrap();
//! assert!(text.contains("rules_fired_total 3"));
//! assert!(text.contains("\"traceEvents\""));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::handle::Telemetry;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Pairs the trace ring with the metric registry and knows where to
/// write post-mortem dumps.
pub struct FlightRecorder {
    /// Ring + registry; when its profiler is enabled, dumps also carry
    /// the per-rule cost accounts and the slow-op ring after the
    /// metrics section.
    telemetry: Telemetry,
    dir: PathBuf,
    /// Disambiguates dumps landing in the same wall-clock second.
    seq: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("dir", &self.dir)
            .field("tracer", self.telemetry.tracer())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder over `telemetry` (a bare `Arc<Registry>` converts
    /// into one) that dumps into `dir`, created on first dump.
    pub fn new(telemetry: impl Into<Telemetry>, dir: impl Into<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            telemetry: telemetry.into(),
            dir: dir.into(),
            seq: AtomicU64::new(0),
        }
    }

    /// Renders the dump body without touching the filesystem — the
    /// ring is snapshotted, not drained, so a dump never destroys the
    /// evidence it reports.
    pub fn render(&self, reason: &str) -> String {
        let (tracer, profiler) = (self.telemetry.tracer(), self.telemetry.profiler());
        let events = tracer.events();
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(out, "# flight dump: {reason}");
        let _ = writeln!(out, "# unix_time: {unix}");
        let _ = writeln!(
            out,
            "# events: {} (capacity {}, {} dropped)",
            events.len(),
            tracer.capacity(),
            tracer.dropped()
        );
        out.push_str("\n== metrics ==\n");
        let metrics = self.telemetry.registry().render_text();
        if metrics.is_empty() {
            out.push_str("(registry disabled or empty)\n");
        } else {
            out.push_str(&metrics);
        }
        if profiler.is_enabled() {
            out.push('\n');
            out.push_str(&profiler.render_flight());
        }
        out.push_str("\n== trace (chrome JSON, last line) ==\n");
        out.push_str(&crate::trace::chrome_trace_json(&events));
        out.push('\n');
        out
    }

    /// Writes a dump file and returns its path. `reason` becomes part
    /// of the header and is sanitised into the filename.
    pub fn dump(&self, reason: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(32)
            .collect();
        let path = self.dir.join(format!("flight-{unix}-{n}-{slug}.txt"));
        fs::write(&path, self.render(reason))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, Tracer};
    use std::sync::Arc;

    fn temp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("telemetry-flight-{}-{label}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn dump_contains_metrics_and_trace() {
        let dir = temp_dir("dump");
        let tracer = Tracer::new(64);
        let registry = Arc::new(Registry::new());
        registry.counter("rules_fired_total").add(7);
        {
            let _s = tracer.span("wal_append", [("seq", 1)]);
        }
        let recorder = FlightRecorder::new(Telemetry::new(registry).with_tracer(tracer), &dir);
        let path = recorder.dump("unit test!").unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("flight-"), "bad name {name}");
        assert!(name.contains("unit-test"), "reason not slugged: {name}");
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("# flight dump: unit test!"));
        assert!(text.contains("rules_fired_total 7"));
        assert!(text.contains("\"name\":\"wal_append\""));
        // Dumping snapshots rather than drains: evidence survives.
        assert_eq!(recorder.telemetry.tracer().events().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_includes_profiler_sections_when_attached() {
        let dir = temp_dir("profile");
        let telemetry = Telemetry::new(Arc::new(Registry::new()))
            .with_tracer(Tracer::new(16))
            .with_profiling();
        let profiler = telemetry.profiler();
        let firing = crate::CostSnapshot {
            firings: 1,
            ..Default::default()
        };
        profiler.bill(&[(Some(4), firing)]);
        profiler.name_rule(4, "noisy");
        profiler.set_slow_threshold_nanos(1);
        profiler.record_request("insert", Some(0xbeef), &crate::StageRecord::other(50));
        let recorder = FlightRecorder::new(telemetry, &dir);
        let text = recorder.render("why");
        assert!(text.contains("== profile (per-rule accounts) =="));
        assert!(text.contains("noisy"));
        assert!(text.contains("== slow ops =="));
        assert!(text.contains("0xbeef"));
        // Without a profiler the sections stay out.
        let plain = FlightRecorder::new(Arc::new(Registry::new()), &dir);
        assert!(!plain.render("x").contains("== profile"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequential_dumps_get_distinct_paths() {
        let dir = temp_dir("seq");
        let recorder =
            FlightRecorder::new(Telemetry::disabled().with_tracer(Tracer::new(16)), &dir);
        let a = recorder.dump("x").unwrap();
        let b = recorder.dump("x").unwrap();
        assert_ne!(a, b);
        let text = fs::read_to_string(&a).unwrap();
        assert!(text.contains("(registry disabled or empty)"));
        fs::remove_dir_all(&dir).ok();
    }
}
