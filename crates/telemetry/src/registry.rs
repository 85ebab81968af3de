//! The named-metric registry and its text exposition.

use crate::counter::Counter;
use crate::histogram::{bucket_upper_bound, Histogram, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

/// A registry of named metrics.
///
/// Construction decides the recorder once: [`Registry::new`] hands out
/// live handles, [`Registry::disabled`] hands out no-op handles whose
/// per-event overhead is a single branch. Instrumented components keep
/// the handles; the registry is only touched to create them and to
/// [render](Registry::render_text) — so the hot path never takes the
/// registry lock.
///
/// Names follow the Prometheus convention: counters end in `_total`,
/// histograms are bare, and a `{label="value"}` suffix partitions one
/// family (e.g. `predindex_shard_lock_wait_nanos_total{shard="3"}`).
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A live registry: every handle it creates records.
    pub fn new() -> Registry {
        Registry {
            enabled: true,
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// The no-op recorder: every handle it creates is a disabled
    /// handle, and [`Registry::render_text`] renders nothing.
    pub fn disabled() -> Registry {
        Registry {
            enabled: false,
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Does this registry hand out live handles?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// Panics if `name` is already registered as a histogram — a
    /// naming bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::disabled();
        }
        let mut metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::live()))
        {
            Metric::Counter(c) => c.clone(),
            Metric::Histogram(_) => panic!("metric {name:?} is registered as a histogram"),
        }
    }

    /// The histogram registered under `name`, created on first use.
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::disabled();
        }
        let mut metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::live()))
        {
            Metric::Histogram(h) => h.clone(),
            Metric::Counter(_) => panic!("metric {name:?} is registered as a counter"),
        }
    }

    /// Current value of a registered counter (test/report convenience).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        match metrics.get(name)? {
            Metric::Counter(c) => Some(c.get()),
            Metric::Histogram(_) => None,
        }
    }

    /// `(count, sum)` of a registered histogram.
    pub fn histogram_totals(&self, name: &str) -> Option<(u64, u64)> {
        let metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        match metrics.get(name)? {
            Metric::Histogram(h) => Some((h.count(), h.sum())),
            Metric::Counter(_) => None,
        }
    }

    /// Sum of every registered counter whose name starts with `prefix`
    /// — collapses a labelled family (`foo_total{shard="..."}`) into
    /// one number.
    pub fn counter_family_total(&self, prefix: &str) -> u64 {
        let metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        metrics
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .filter_map(|(_, m)| match m {
                Metric::Counter(c) => Some(c.get()),
                Metric::Histogram(_) => None,
            })
            .sum()
    }

    /// Snapshot of every registered histogram as
    /// `(name, count, sum, buckets)`, name-sorted — the quantile
    /// estimator's input (see [`crate::quantile`]).
    pub fn histogram_snapshots(&self) -> Vec<(String, u64, u64, [u64; HISTOGRAM_BUCKETS])> {
        let metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        metrics
            .iter()
            .filter_map(|(name, m)| match m {
                Metric::Histogram(h) => Some((name.clone(), h.count(), h.sum(), h.buckets())),
                Metric::Counter(_) => None,
            })
            .collect()
    }

    /// Registered metric names in sorted order.
    pub fn names(&self) -> Vec<String> {
        let metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        metrics.keys().cloned().collect()
    }

    /// Prometheus-style text exposition of every registered metric.
    ///
    /// Histogram buckets are cumulative (`le` is an inclusive upper
    /// bound); empty buckets below the highest occupied one are
    /// skipped, since cumulative counts make them redundant.
    pub fn render_text(&self) -> String {
        let metrics = self
            .metrics
            .lock()
            .expect("registry lock poisoned: a holder panicked");
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, metric) in metrics.iter() {
            // `foo_total{shard="3"}` and `foo_total{shard="4"}` share
            // one family and therefore one TYPE line.
            let family = name.split('{').next().unwrap_or(name);
            match metric {
                Metric::Counter(c) => {
                    if family != last_family {
                        let _ = writeln!(out, "# TYPE {family} counter");
                        last_family = family.to_string();
                    }
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Histogram(h) => {
                    if family != last_family {
                        let _ = writeln!(out, "# TYPE {family} histogram");
                        last_family = family.to_string();
                    }
                    let buckets = h.buckets();
                    let mut cumulative = 0u64;
                    for (i, &n) in buckets.iter().enumerate().take(HISTOGRAM_BUCKETS) {
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cumulative}",
                            bucket_upper_bound(i)
                        );
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                    // Tail-latency comment: estimated from the bucket
                    // snapshot above, as a `#` line so strict
                    // Prometheus parsers skip it.
                    if h.count() > 0 {
                        let _ = writeln!(out, "{}", crate::profile::quantile_line(name, &buckets));
                    }
                }
            }
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::disabled()
    }
}
