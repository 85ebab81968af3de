//! Fixed-bucket latency/size histograms.
//!
//! Buckets are powers of two: bucket 0 holds the value 0 and bucket
//! `i ≥ 1` holds values whose bit length is `i`, i.e. the closed range
//! `[2^(i-1), 2^i - 1]`. Every `u64` lands in exactly one of the 65
//! buckets (`u64::MAX` has bit length 64), recording is one `leading_
//! zeros` plus two relaxed atomic adds, and rendering needs no
//! configuration — the scheme covers nanoseconds to tens of gigabytes
//! at ~2× resolution, which is all a cost counter needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of buckets: the value 0 plus one per bit length 1..=64.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
pub(crate) struct HistogramCells {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) sum: AtomicU64,
    pub(crate) count: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A cheap, clonable handle to one power-of-two histogram.
///
/// Like [`Counter`](crate::Counter), the enabled flag travels in the
/// handle: a disabled histogram costs one branch per record.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: bool,
    /// Also tally each record on the thread
    /// ([`metric_updates`](crate::metric_updates)).
    tally: bool,
    cells: Arc<HistogramCells>,
}

/// The bucket index `v` falls into.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    debug_assert!(i < HISTOGRAM_BUCKETS);
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Estimates the `q`-quantile (`0.0 < q <= 1.0`) of a bucket snapshot
/// by locating the bucket holding the target rank and interpolating
/// linearly inside it — within a factor of 2 of the true value by the
/// bucket geometry, which is all a tail-latency report needs. Returns
/// 0 for an empty histogram.
pub fn quantile(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    // Smallest rank (1-based) whose cumulative count covers q.
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let below = cumulative;
        cumulative += n;
        if cumulative >= rank {
            let lo = if i == 0 {
                0
            } else {
                bucket_upper_bound(i - 1).saturating_add(1)
            };
            let hi = bucket_upper_bound(i);
            // Position of the target rank inside this bucket (1..=n);
            // u128 keeps bucket 64's span from overflowing.
            let pos = rank - below;
            let width = (hi - lo) as u128;
            // Clamp into the bucket: bucket 0 is the single value 0 and
            // the saturated top bucket caps at u64::MAX, so an estimate
            // must never leave [lo, hi] however the interpolation
            // rounds.
            let est = (lo as u128 + width * pos as u128 / n as u128).clamp(lo as u128, hi as u128);
            return u64::try_from(est).unwrap_or(u64::MAX);
        }
    }
    bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// A live histogram with empty buckets, tallying its updates if
    /// `tally` ([`metric_updates`](crate::metric_updates)).
    pub(crate) fn live(tally: bool) -> Histogram {
        Histogram {
            enabled: true,
            tally,
            cells: Arc::new(HistogramCells::default()),
        }
    }

    /// A permanently no-op histogram.
    pub fn disabled() -> Histogram {
        Histogram {
            enabled: false,
            tally: false,
            cells: Arc::new(HistogramCells::default()),
        }
    }

    /// Does this handle record anything?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one observation. Disabled: a branch and nothing else.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled {
            self.cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.cells.sum.fetch_add(v, Ordering::Relaxed);
            self.cells.count.fetch_add(1, Ordering::Relaxed);
            if self.tally {
                crate::counter::note_update();
            }
        }
    }

    /// Starts a wall-clock measurement, or `None` when disabled — so
    /// the disabled path never even reads the clock.
    #[inline]
    pub fn start_timer(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Records the elapsed nanoseconds of a [`Histogram::start_timer`]
    /// measurement (saturating at `u64::MAX`).
    #[inline]
    pub fn stop_timer(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.cells.buckets[i].load(Ordering::Relaxed))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_is_zero() {
        let buckets = [0u64; HISTOGRAM_BUCKETS];
        assert_eq!(quantile(&buckets, 0.5), 0);
        assert_eq!(quantile(&buckets, 0.99), 0);
    }

    #[test]
    fn quantile_lands_in_the_right_bucket() {
        let h = Histogram::live(false);
        // 90 fast observations in [8,15], 10 slow in [1024,2047].
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        let buckets = h.buckets();
        let p50 = quantile(&buckets, 0.50);
        assert!((8..=15).contains(&p50), "p50={p50}");
        let p99 = quantile(&buckets, 0.99);
        assert!((1024..=2047).contains(&p99), "p99={p99}");
        // q=1.0 is the top occupied bucket's upper region.
        assert!(quantile(&buckets, 1.0) <= 2047);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // All mass in one bucket: low quantiles sit near the bucket's
        // lower bound, high quantiles near its upper bound.
        let h = Histogram::live(false);
        for _ in 0..100 {
            h.record(1_000); // bucket [512,1023]
        }
        let buckets = h.buckets();
        let p1 = quantile(&buckets, 0.01);
        let p99 = quantile(&buckets, 0.99);
        assert!((512..=1023).contains(&p1));
        assert!((512..=1023).contains(&p99));
        assert!(p1 < p99, "p1={p1} p99={p99}");
    }

    #[test]
    fn quantile_survives_the_top_bucket() {
        let h = Histogram::live(false);
        h.record(u64::MAX);
        let buckets = h.buckets();
        assert!(quantile(&buckets, 0.5) >= 1u64 << 63);
    }

    #[test]
    fn quantile_in_bucket_zero_is_exactly_zero() {
        // Bucket 0 holds only the value 0: every quantile of an
        // all-zero histogram must be 0, never interpolated past it.
        let h = Histogram::live(false);
        for _ in 0..7 {
            h.record(0);
        }
        let buckets = h.buckets();
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&buckets, q), 0, "q={q}");
        }
    }

    #[test]
    fn quantile_never_leaves_the_saturated_top_bucket() {
        // Many observations in bucket 64 ([2^63, u64::MAX]): every
        // quantile must stay inside the bucket bounds even where the
        // interpolation arithmetic rounds at the extremes.
        let h = Histogram::live(false);
        for _ in 0..100 {
            h.record(u64::MAX);
        }
        let buckets = h.buckets();
        for q in [0.01, 0.5, 0.99, 1.0] {
            let est = quantile(&buckets, q);
            assert!(est >= 1u64 << 63, "q={q} est={est}");
        }
        assert_eq!(quantile(&buckets, 1.0), u64::MAX);
    }

    #[test]
    fn quantile_stays_within_every_occupied_bucket() {
        // Mixed-bucket histogram: each quantile estimate must land
        // inside [lo, hi] of whichever bucket holds its rank.
        let h = Histogram::live(false);
        for v in [0u64, 0, 3, 3, 3, 200, 200, 5_000] {
            h.record(v);
        }
        let buckets = h.buckets();
        for i in 1..=100 {
            let q = i as f64 / 100.0;
            let est = quantile(&buckets, q);
            let b = bucket_index(est);
            assert!(buckets[b] > 0, "q={q} est={est} fell in empty bucket {b}");
        }
    }
}
