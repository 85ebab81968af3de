//! [`Telemetry`]: the one handle every layer accepts.
//!
//! The stack records into three facilities — the metric [`Registry`],
//! the span [`Tracer`] and the cost-attribution [`Profiler`]. The
//! profiler partitions counters that live in the registry, so it is
//! only meaningful when built over the *same* registry the layers
//! record into. This bundle makes that the only constructible state: it
//! is built from one `Arc<Registry>`, and the profiler is switched on
//! *from* it, never passed in.
//!
//! ```
//! use std::sync::Arc;
//! use telemetry::{Registry, Telemetry, Tracer};
//!
//! // Counters only — what `From<Arc<Registry>>` gives.
//! let plain: Telemetry = Arc::new(Registry::new()).into();
//! assert!(plain.registry().is_enabled());
//! assert!(!plain.tracer().is_enabled() && !plain.profiler().is_enabled());
//!
//! // Everything on, all over one registry.
//! let full = Telemetry::new(Arc::new(Registry::new()))
//!     .with_tracer(Tracer::new(1024))
//!     .with_profiling();
//! assert!(full.profiler().is_enabled());
//! ```

use crate::profile::Profiler;
use crate::registry::Registry;
use crate::trace::Tracer;
use std::sync::Arc;

/// Registry + tracer + profiler, handed to each layer once. Cloning
/// shares every underlying cell.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    tracer: Tracer,
    profiler: Profiler,
}

impl Telemetry {
    /// Counters and histograms into `registry`; tracer and profiler off.
    pub fn new(registry: Arc<Registry>) -> Telemetry {
        Telemetry {
            registry,
            tracer: Tracer::disabled(),
            profiler: Profiler::disabled(),
        }
    }

    /// Everything off: one branch per would-be recording site.
    pub fn disabled() -> Telemetry {
        Telemetry::new(Arc::new(Registry::disabled()))
    }

    /// Adds a span tracer (independent of the registry: spans can be
    /// on with counters off).
    pub fn with_tracer(mut self, tracer: Tracer) -> Telemetry {
        self.tracer = tracer;
        self
    }

    /// Switches per-rule cost attribution on, over this bundle's
    /// registry (a disabled registry keeps it off).
    pub fn with_profiling(mut self) -> Telemetry {
        self.profiler = Profiler::new(&self.registry);
        self
    }

    /// The metric registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The cost-attribution profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Does an op's stage clock run? Under the profiler, which bills
    /// from its record, or the tracer, which shows it.
    pub fn times_stages(&self) -> bool {
        self.profiler.is_enabled() || self.tracer.is_enabled()
    }
}

impl From<Arc<Registry>> for Telemetry {
    fn from(registry: Arc<Registry>) -> Self {
        Telemetry::new(registry)
    }
}
