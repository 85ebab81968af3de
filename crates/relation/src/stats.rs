//! Optimizer statistics: equi-depth histograms and selectivity
//! estimates.
//!
//! The paper's indexing scheme needs one thing from the query optimizer:
//! when a predicate conjoins several indexable clauses, "the most
//! selective one is placed in the IBS-tree (selectivity estimates are
//! obtained from the query optimizer)" (§4). This module supplies those
//! estimates: an equi-depth histogram plus a distinct-value count per
//! column, with System-R-style magic numbers as the fallback when a
//! column has never been analyzed.

use crate::value::Value;
use interval::{Interval, Lower, Upper};

/// Default selectivities when no statistics exist, in the spirit of
/// Selinger et al. \[S\*79\]: equality is assumed rarest, a two-sided range
/// next, a one-sided range broadest.
pub mod defaults {
    /// `attr = c` with no stats.
    pub const EQUALITY: f64 = 0.01;
    /// `c1 ≤ attr ≤ c2` with no stats.
    pub const CLOSED_RANGE: f64 = 0.05;
    /// `attr ≤ c` / `attr ≥ c` with no stats.
    pub const OPEN_RANGE: f64 = 0.33;
}

/// Per-column statistics built from data.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Equi-depth bucket boundaries: `bounds[0]` = min, last = max, with
    /// approximately equal row counts between consecutive entries.
    bounds: Vec<Value>,
    /// Total rows sampled.
    rows: usize,
    /// Distinct values seen.
    distinct: usize,
}

impl ColumnStats {
    /// Number of histogram buckets built (when enough data exists).
    pub const BUCKETS: usize = 32;

    /// Builds stats from a column of values.
    pub fn from_values(mut values: Vec<Value>) -> Self {
        values.sort();
        let rows = values.len();
        let mut distinct = 0;
        for i in 0..values.len() {
            if i == 0 || values[i] != values[i - 1] {
                distinct += 1;
            }
        }
        let mut bounds = Vec::new();
        if !values.is_empty() {
            let buckets = Self::BUCKETS.min(rows);
            for b in 0..=buckets {
                let ix = (b * (rows - 1)) / buckets.max(1);
                // Duplicate boundaries are deliberately kept: a value
                // spanning many boundaries is exactly how an equi-depth
                // histogram represents a heavy hitter.
                bounds.push(values[ix].clone());
            }
        }
        ColumnStats {
            bounds,
            rows,
            distinct,
        }
    }

    /// Fraction of the column ≤ `v` (0 at/below min, 1 at/above max),
    /// linearly interpolated by bucket position.
    fn fraction_at_most(&self, v: &Value) -> f64 {
        if self.bounds.is_empty() {
            return 0.5;
        }
        if v < &self.bounds[0] {
            return 0.0;
        }
        let last = self.bounds.len() - 1;
        if v >= &self.bounds[last] {
            return 1.0;
        }
        // Position of the first boundary above v.
        let pos = self.bounds.partition_point(|b| b <= v);
        pos as f64 / (last + 1) as f64
    }

    /// Estimated fraction of rows whose value lies in `iv`.
    pub fn selectivity(&self, iv: &Interval<Value>) -> f64 {
        if self.rows == 0 {
            return default_selectivity(iv);
        }
        if iv.is_point() {
            return (1.0 / self.distinct.max(1) as f64).min(1.0);
        }
        let hi_frac = match iv.hi() {
            Upper::Unbounded => 1.0,
            Upper::Inclusive(v) | Upper::Exclusive(v) => self.fraction_at_most(v),
        };
        let lo_frac = match iv.lo() {
            Lower::Unbounded => 0.0,
            Lower::Inclusive(v) | Lower::Exclusive(v) => self.fraction_at_most(v),
        };
        // Clamp away from exactly 0 so "most selective" stays a ranking,
        // not a hard zero that would erase ordering between clauses.
        (hi_frac - lo_frac).max(1.0 / self.rows.max(1) as f64)
    }
}

/// The stats-free fallback estimate for a clause interval.
pub fn default_selectivity(iv: &Interval<Value>) -> f64 {
    if iv.is_point() {
        defaults::EQUALITY
    } else {
        let lo_open = iv.lo().value().is_none();
        let hi_open = iv.hi().value().is_none();
        match (lo_open, hi_open) {
            (false, false) => defaults::CLOSED_RANGE,
            (true, true) => 1.0,
            _ => defaults::OPEN_RANGE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_ints(n: i64) -> ColumnStats {
        ColumnStats::from_values((0..n).map(Value::Int).collect())
    }

    #[test]
    fn equality_uses_distinct_count() {
        let s = uniform_ints(1000);
        let sel = s.selectivity(&Interval::point(Value::Int(42)));
        assert!((sel - 0.001).abs() < 1e-9, "sel = {sel}");
    }

    #[test]
    fn range_selectivity_tracks_width() {
        let s = uniform_ints(1000);
        let quarter = s.selectivity(&Interval::closed(Value::Int(0), Value::Int(250)));
        assert!((0.15..=0.35).contains(&quarter), "quarter = {quarter}");
        let half = s.selectivity(&Interval::closed(Value::Int(250), Value::Int(750)));
        assert!((0.4..=0.6).contains(&half), "half = {half}");
        let all = s.selectivity(&Interval::closed(Value::Int(-10), Value::Int(2000)));
        assert!(all > 0.95, "all = {all}");
    }

    #[test]
    fn open_ended_ranges() {
        let s = uniform_ints(1000);
        let below = s.selectivity(&Interval::at_most(Value::Int(100)));
        assert!((0.05..=0.2).contains(&below), "below = {below}");
        let above = s.selectivity(&Interval::at_least(Value::Int(900)));
        assert!((0.05..=0.2).contains(&above), "above = {above}");
    }

    #[test]
    fn out_of_range_is_minimal() {
        let s = uniform_ints(100);
        let sel = s.selectivity(&Interval::closed(Value::Int(5000), Value::Int(6000)));
        assert!(sel <= 0.011, "sel = {sel}");
    }

    #[test]
    fn empty_column_falls_back() {
        let s = ColumnStats::from_values(vec![]);
        assert_eq!(
            s.selectivity(&Interval::point(Value::Int(1))),
            defaults::EQUALITY
        );
    }

    #[test]
    fn defaults_rank_sensibly() {
        let eq = default_selectivity(&Interval::point(Value::Int(1)));
        let range = default_selectivity(&Interval::closed(Value::Int(1), Value::Int(5)));
        let open = default_selectivity(&Interval::at_least(Value::Int(1)));
        assert!(eq < range && range < open);
    }

    #[test]
    fn skewed_distribution() {
        // 90% of the mass at value 7.
        let mut vals: Vec<Value> = vec![Value::Int(7); 900];
        vals.extend((0..100).map(|i| Value::Int(i * 100)));
        let s = ColumnStats::from_values(vals);
        let tail = s.selectivity(&Interval::closed(Value::Int(5000), Value::Int(9900)));
        assert!(tail < 0.2, "tail = {tail}");
    }
}
