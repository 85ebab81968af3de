//! Axis-aligned rectangles for the R-tree.
//!
//! Coordinates are `f64`. Open-ended predicate clauses map to "world
//! bound" coordinates (±[`WORLD`]) rather than ±∞ so that the area and
//! enlargement arithmetic of Guttman's heuristics stays finite — this is
//! a concrete instance of the paper's observation that R-trees "cannot
//! accommodate open intervals" natively (§4.1): we *can* clamp them in,
//! but every open-ended predicate then inflates its page regions to the
//! world bounds, which is exactly what degrades R-tree search on
//! low-dimensional "slice" predicates (§2.4).

/// Stand-in for ±∞ that keeps area arithmetic finite.
pub const WORLD: f64 = 1.0e18;

/// An n-dimensional axis-aligned rectangle (closed box).
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    /// Low corner, one coordinate per dimension.
    pub lo: Vec<f64>,
    /// High corner.
    pub hi: Vec<f64>,
}

impl Rect {
    /// A rectangle from corners. Panics if dimensions mismatch or any
    /// `lo > hi`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensions differ");
        assert!(
            lo.iter().zip(&hi).all(|(a, b)| a <= b),
            "inverted rectangle"
        );
        Rect { lo, hi }
    }

    /// The rectangle covering the whole (clamped) world in `dims`
    /// dimensions.
    pub fn world(dims: usize) -> Self {
        Rect {
            lo: vec![-WORLD; dims],
            hi: vec![WORLD; dims],
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Hyper-volume (product of side lengths).
    pub fn area(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(a, b)| b - a).product()
    }

    /// Does this rectangle contain the point `p` (boundaries included)?
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((a, b), x)| a <= x && x <= b)
    }

    /// Do two rectangles share any point?
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((a1, b1), (a2, b2))| a1 <= b2 && a2 <= b1)
    }

    /// The smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Grows this rectangle in place to cover `other`.
    pub fn expand(&mut self, other: &Rect) {
        for (a, b) in self.lo.iter_mut().zip(&other.lo) {
            *a = a.min(*b);
        }
        for (a, b) in self.hi.iter_mut().zip(&other.hi) {
            *a = a.max(*b);
        }
    }

    /// How much would the area grow if expanded to cover `other`?
    /// (Guttman's ChooseLeaf criterion.)
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_union() {
        let a = Rect::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(a.area(), 6.0);
        let b = Rect::new(vec![1.0, 1.0], vec![4.0, 2.0]);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(vec![0.0, 0.0], vec![4.0, 3.0]));
        assert_eq!(a.enlargement(&b), 12.0 - 6.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = Rect::new(vec![0.0], vec![10.0]);
        assert!(a.contains_point(&[0.0]));
        assert!(a.contains_point(&[10.0]));
        assert!(!a.contains_point(&[10.1]));
        assert!(a.intersects(&Rect::new(vec![10.0], vec![20.0])));
        assert!(!a.intersects(&Rect::new(vec![10.5], vec![20.0])));
        let p = Rect::new(vec![5.0], vec![5.0]);
        assert!(a.intersects(&p));
        assert_eq!(p.area(), 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rejected() {
        Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn world_is_finite() {
        let w = Rect::world(2);
        assert!(w.area().is_finite());
        assert!(w.contains_point(&[0.0, 1.0e17]));
    }
}
