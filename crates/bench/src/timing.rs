//! The harness's one timing module — the only clock in the crate.
//!
//! The reproduction tables and the JSON report need stable medians (or
//! minima) over full parameter sweeps, which a few timed runs deliver
//! in seconds; the comparison targets are shapes, orderings and gated
//! ratios, not confidence intervals.

use std::hint::black_box;
use std::time::Instant;

/// Runs `f` (which performs `ops_per_run` operations) `runs` times and
/// returns the median per-operation time in nanoseconds.
pub fn median_ns_per_op(runs: usize, ops_per_run: usize, mut f: impl FnMut()) -> f64 {
    assert!(runs >= 1 && ops_per_run >= 1);
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops_per_run as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

/// Wall-clock nanoseconds one call of `f` took.
pub fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

/// The fastest of `runs` measurements. `f` returns the nanoseconds of
/// its own measured region (see [`time_ns`]), so untimed setup can sit
/// beside it in the same closure.
pub fn min_ns(runs: usize, f: impl FnMut() -> f64) -> f64 {
    std::iter::repeat_with(f)
        .take(runs)
        .fold(f64::INFINITY, f64::min)
}

/// Times a closure returning a value, preventing the value from being
/// optimized away.
pub fn consume<T>(value: T) -> T {
    black_box(value)
}

/// Formats nanoseconds adaptively (ns / µs / ms).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{:.3} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive_and_sane() {
        let ns = median_ns_per_op(5, 1000, || {
            let mut x = 0u64;
            for i in 0..1000u64 {
                x = x.wrapping_add(consume(i));
            }
            consume(x);
        });
        assert!(ns > 0.0 && ns < 1_000_000.0, "ns = {ns}");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 us");
        assert_eq!(fmt_ns(2_500_000.0), "2.500 ms");
    }
}
