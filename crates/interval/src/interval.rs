//! The [`Interval`] type: a possibly-degenerate, possibly-open-ended
//! interval over a totally ordered domain.

use crate::bound::{Lower, Upper};
use std::fmt;

/// Error returned when constructing an ill-formed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalError {
    /// The lower endpoint is greater than the upper endpoint.
    Inverted,
    /// Both endpoints are at the same value but at least one is exclusive,
    /// so the interval contains no points.
    Empty,
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Inverted => write!(f, "interval endpoints are inverted"),
            IntervalError::Empty => write!(f, "interval is empty"),
        }
    }
}

impl std::error::Error for IntervalError {}

/// An interval over `K`, the exact family the paper's range clauses
/// generate: `const1 ρ1 x ρ2 const2` with ρ ∈ {<, ≤}, equality (a point),
/// and open-ended intervals with an endpoint at ±∞.
///
/// Invariant: the interval is non-empty (enforced at construction).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Interval<K> {
    lo: Lower<K>,
    hi: Upper<K>,
}

impl<K: Ord + Clone> Interval<K> {
    /// Builds an interval from explicit bounds, rejecting empty or
    /// inverted ones.
    pub fn new(lo: Lower<K>, hi: Upper<K>) -> Result<Self, IntervalError> {
        if let (Some(a), Some(b)) = (lo.value(), hi.value()) {
            match a.cmp(b) {
                std::cmp::Ordering::Greater => return Err(IntervalError::Inverted),
                std::cmp::Ordering::Equal => {
                    if !(lo.is_inclusive() && hi.is_inclusive()) {
                        return Err(IntervalError::Empty);
                    }
                }
                std::cmp::Ordering::Less => {}
            }
        }
        Ok(Interval { lo, hi })
    }

    /// The degenerate interval `[k, k]` — an equality predicate.
    pub fn point(k: K) -> Self {
        Interval {
            lo: Lower::Inclusive(k.clone()),
            hi: Upper::Inclusive(k),
        }
    }

    /// `[a, b]`. Panics if `a > b` (programmer error in literals; use
    /// [`Interval::new`] for data-driven construction).
    pub fn closed(a: K, b: K) -> Self {
        Self::new(Lower::Inclusive(a), Upper::Inclusive(b)).expect("closed(a, b) requires a <= b")
    }

    /// `(a, b)`. Panics if empty.
    pub fn open(a: K, b: K) -> Self {
        Self::new(Lower::Exclusive(a), Upper::Exclusive(b)).expect("open(a, b) requires a < b")
    }

    /// `[a, b)`. Panics if empty.
    pub fn closed_open(a: K, b: K) -> Self {
        Self::new(Lower::Inclusive(a), Upper::Exclusive(b))
            .expect("closed_open(a, b) requires a < b")
    }

    /// `[a, +∞)` — the paper's `x ≥ a`.
    pub fn at_least(a: K) -> Self {
        Interval {
            lo: Lower::Inclusive(a),
            hi: Upper::Unbounded,
        }
    }

    /// `(a, +∞)` — `x > a`.
    pub fn greater_than(a: K) -> Self {
        Interval {
            lo: Lower::Exclusive(a),
            hi: Upper::Unbounded,
        }
    }

    /// `(-∞, b]` — `x ≤ b`.
    pub fn at_most(b: K) -> Self {
        Interval {
            lo: Lower::Unbounded,
            hi: Upper::Inclusive(b),
        }
    }

    /// `(-∞, b)` — `x < b`.
    pub fn less_than(b: K) -> Self {
        Interval {
            lo: Lower::Unbounded,
            hi: Upper::Exclusive(b),
        }
    }

    /// `(-∞, +∞)` — matches every value.
    pub fn unbounded() -> Self {
        Interval {
            lo: Lower::Unbounded,
            hi: Upper::Unbounded,
        }
    }

    /// The lower bound.
    #[inline]
    pub fn lo(&self) -> &Lower<K> {
        &self.lo
    }

    /// The upper bound.
    #[inline]
    pub fn hi(&self) -> &Upper<K> {
        &self.hi
    }

    /// Does the interval contain the point `x`? This is the stabbing test
    /// every index structure must agree with.
    #[inline]
    pub fn contains(&self, x: &K) -> bool {
        self.lo.admits(x) && self.hi.admits(x)
    }

    /// Does the interval contain the *entire open range* `(lo_fence,
    /// hi_fence)` (with `None` meaning ∓∞)?
    ///
    /// This is the IBS-tree subtree-coverage test: every key that could
    /// ever be inserted under a tree node lies strictly between the
    /// node's descent fences, so an interval covering that open range may
    /// be recorded with a single `<` or `>` mark on the node.
    #[inline]
    pub fn covers_open_range(&self, lo_fence: Option<&K>, hi_fence: Option<&K>) -> bool {
        self.lo.admits_all_above(lo_fence) && self.hi.admits_all_below(hi_fence)
    }

    /// Does the interval intersect the open range `(lo_fence, hi_fence)`
    /// (with `None` meaning ∓∞)?
    ///
    /// Used by mark placement to decide whether a descent must continue
    /// into a subtree. The test treats the domain as dense; in discrete
    /// domains it can report overlap with a range that contains no
    /// representable key, which costs a vacuous descent but never places
    /// an unsound mark.
    #[inline]
    pub fn overlaps_open_range(&self, lo_fence: Option<&K>, hi_fence: Option<&K>) -> bool {
        let extends_above = match (self.hi.value(), lo_fence) {
            (None, _) | (_, None) => true,
            (Some(h), Some(a)) => h > a,
        };
        let extends_below = match (self.lo.value(), hi_fence) {
            (None, _) | (_, None) => true,
            (Some(l), Some(b)) => l < b,
        };
        extends_above && extends_below
    }

    /// Is this interval a single point (an equality predicate)?
    pub fn is_point(&self) -> bool {
        match (self.lo.value(), self.hi.value()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Do two intervals share at least one point?
    pub fn overlaps(&self, other: &Self) -> bool {
        // A and B overlap iff A's lower end is admitted by B's upper end
        // and vice versa, phrased without materializing a witness point:
        // they are disjoint iff one ends strictly before the other begins.
        !(Self::ends_before(&self.hi, &other.lo) || Self::ends_before(&other.hi, &self.lo))
    }

    /// The intersection of two intervals, or `None` if they share no
    /// point. Used to fold several range clauses on one attribute into a
    /// single interval (`a > 5 and a <= 10` → `(5, 10]`).
    pub fn intersect(&self, other: &Self) -> Option<Self> {
        let lo = std::cmp::max(self.lo.clone(), other.lo.clone());
        let hi = std::cmp::min(self.hi.clone(), other.hi.clone());
        Interval::new(lo, hi).ok()
    }

    /// Does an upper bound end strictly before a lower bound begins
    /// (leaving no common point)?
    fn ends_before(hi: &Upper<K>, lo: &Lower<K>) -> bool {
        match (hi.value(), lo.value()) {
            (Some(h), Some(l)) => match h.cmp(l) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => !(hi.is_inclusive() && lo.is_inclusive()),
                std::cmp::Ordering::Greater => false,
            },
            // An unbounded end never cuts the other interval off.
            _ => false,
        }
    }
}

impl<K: fmt::Display> fmt::Display for Interval<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Lower::Unbounded => write!(f, "(-inf")?,
            Lower::Inclusive(v) => write!(f, "[{v}")?,
            Lower::Exclusive(v) => write!(f, "({v}")?,
        }
        write!(f, ", ")?;
        match &self.hi {
            Upper::Unbounded => write!(f, "+inf)"),
            Upper::Inclusive(v) => write!(f, "{v}]"),
            Upper::Exclusive(v) => write!(f, "{v})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rejects_bad_intervals() {
        assert_eq!(
            Interval::new(Lower::Inclusive(5), Upper::Inclusive(3)),
            Err(IntervalError::Inverted)
        );
        assert_eq!(
            Interval::new(Lower::Exclusive(5), Upper::Inclusive(5)),
            Err(IntervalError::Empty)
        );
        assert_eq!(
            Interval::new(Lower::Inclusive(5), Upper::Exclusive(5)),
            Err(IntervalError::Empty)
        );
        assert!(Interval::new(Lower::Inclusive(5), Upper::Inclusive(5)).is_ok());
    }

    #[test]
    fn contains_respects_openness() {
        let i = Interval::closed_open(2, 7);
        assert!(!i.contains(&1));
        assert!(i.contains(&2));
        assert!(i.contains(&6));
        assert!(!i.contains(&7));

        let p = Interval::point(4);
        assert!(p.contains(&4));
        assert!(!p.contains(&3));
        assert!(p.is_point());
        assert!(!i.is_point());
    }

    #[test]
    fn contains_open_ended() {
        assert!(Interval::at_least(10).contains(&10));
        assert!(!Interval::greater_than(10).contains(&10));
        assert!(Interval::greater_than(10).contains(&11));
        assert!(Interval::at_most(10).contains(&10));
        assert!(!Interval::less_than(10).contains(&10));
        assert!(Interval::<i32>::unbounded().contains(&i32::MIN));
        assert!(Interval::<i32>::unbounded().contains(&i32::MAX));
    }

    #[test]
    fn covers_open_range_basics() {
        let i = Interval::closed(2, 10);
        // (2, 10) is covered by [2, 10].
        assert!(i.covers_open_range(Some(&2), Some(&10)));
        // (1, 10) is not: 1.5-like values below 2 escape.
        assert!(!i.covers_open_range(Some(&1), Some(&10)));
        // (3, 9) is.
        assert!(i.covers_open_range(Some(&3), Some(&9)));
        // Half-infinite ranges need open-ended intervals.
        assert!(!i.covers_open_range(Some(&2), None));
        assert!(Interval::at_least(2).covers_open_range(Some(&2), None));
        assert!(Interval::<i32>::unbounded().covers_open_range(None, None));
        // Open interval (2, 10) also covers open range (2, 10).
        assert!(Interval::open(2, 10).covers_open_range(Some(&2), Some(&10)));
    }

    #[test]
    fn overlaps_cases() {
        let a = Interval::closed(1, 5);
        assert!(a.overlaps(&Interval::closed(5, 9))); // touch at closed ends
        let five_nine = Interval::new(Lower::Exclusive(5), Upper::Inclusive(9)).unwrap();
        assert!(!a.overlaps(&five_nine)); // (5,9] misses 5
        assert!(!Interval::closed_open(1, 5).overlaps(&Interval::closed(5, 9)));
        assert!(a.overlaps(&Interval::closed(0, 1)));
        assert!(!a.overlaps(&Interval::closed(6, 9)));
        assert!(a.overlaps(&Interval::<i32>::unbounded()));
        assert!(Interval::at_most(1).overlaps(&Interval::at_least(1)));
        assert!(!Interval::less_than(1).overlaps(&Interval::at_least(1)));
        assert!(a.overlaps(&Interval::point(3)));
        assert!(!a.overlaps(&Interval::point(6)));
    }

    #[test]
    fn intersection() {
        let a = Interval::greater_than(5);
        let b = Interval::at_most(10);
        assert_eq!(
            a.intersect(&b),
            Interval::new(Lower::Exclusive(5), Upper::Inclusive(10)).ok()
        );
        assert_eq!(
            Interval::closed(1, 5).intersect(&Interval::closed(5, 9)),
            Some(Interval::point(5))
        );
        assert_eq!(
            Interval::closed(1, 4).intersect(&Interval::closed(5, 9)),
            None
        );
        assert_eq!(
            Interval::closed_open(1, 5).intersect(&Interval::closed(5, 9)),
            None
        );
        assert_eq!(
            Interval::<i32>::unbounded().intersect(&Interval::point(3)),
            Some(Interval::point(3))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Interval::closed(1, 2).to_string(), "[1, 2]");
        assert_eq!(Interval::open(1, 2).to_string(), "(1, 2)");
        assert_eq!(Interval::at_least(3).to_string(), "[3, +inf)");
        assert_eq!(Interval::less_than(3).to_string(), "(-inf, 3)");
    }

    #[test]
    fn works_on_strings() {
        let i = Interval::closed("apple".to_string(), "mango".to_string());
        assert!(i.contains(&"banana".to_string()));
        assert!(!i.contains(&"zebra".to_string()));
    }
}
