//! # R-tree (Guttman 1984)
//!
//! The multi-dimensional index the paper evaluates as a predicate-
//! indexing baseline (§2.4) and as a 1-D dynamic interval comparator
//! (§4.1). Predicates become k-dimensional rectangles (one dimension per
//! relation attribute); a new tuple is a point query.
//!
//! The paper's critique — low-dimensional "slice" predicates over
//! high-dimensional relations overlap extensively and index poorly — is
//! reproduced quantitatively by `reproduce matchers` (ablation C); the
//! inability to represent open intervals natively shows up here as
//! world-bound clamping (see [`WORLD`]).
//!
//! ```
//! use rtree::{Rect, RTree};
//! use interval::IntervalId;
//!
//! let mut t = RTree::new(2);
//! t.insert(IntervalId(0), Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]));
//! t.insert(IntervalId(1), Rect::new(vec![5.0, 5.0], vec![15.0, 15.0]));
//! let mut hits = t.stab(&[7.0, 7.0]);
//! hits.sort();
//! assert_eq!(hits, vec![IntervalId(0), IntervalId(1)]);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

mod rect;
mod tree;

pub use rect::{Rect, WORLD};
pub use tree::RTree;

#[cfg(test)]
mod tests {
    use super::*;
    use interval::IntervalId;

    fn id(n: u32) -> IntervalId {
        IntervalId(n)
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new(2);
        assert!(t.is_empty());
        assert_eq!(t.stab(&[1.0, 2.0]), vec![]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn one_dimensional_intervals() {
        let mut t = RTree::new(1);
        for i in 0..100u32 {
            let a = (i as f64) * 5.0;
            t.insert(id(i), Rect::new(vec![a], vec![a + 20.0]));
        }
        t.check_invariants().unwrap();
        // Point 50 is inside [a, a+20] for a in {30,35,40,45,50}.
        let mut hits = t.stab(&[50.0]);
        hits.sort();
        assert_eq!(hits, (6..=10).map(id).collect::<Vec<_>>());
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut t = RTree::new(2);
        for i in 0..200u32 {
            let x = ((i * 37) % 100) as f64;
            let y = ((i * 61) % 100) as f64;
            t.insert(id(i), Rect::new(vec![x, y], vec![x + 10.0, y + 10.0]));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 200);
        for i in 0..200u32 {
            assert!(t.remove(id(i)).is_some(), "remove {i}");
            if i % 20 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        assert_eq!(t.remove(id(0)), None);
    }

    #[test]
    fn stab_matches_naive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut t = RTree::new(3);
        let mut naive: Vec<(IntervalId, Rect)> = Vec::new();
        for i in 0..500u32 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..90.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|a| a + rng.gen_range(0.0..30.0)).collect();
            let r = Rect::new(lo, hi);
            t.insert(id(i), r.clone());
            naive.push((id(i), r));
        }
        t.check_invariants().unwrap();
        for _ in 0..200 {
            let p: Vec<f64> = (0..3).map(|_| rng.gen_range(-5.0..125.0)).collect();
            let mut got = t.stab(&p);
            got.sort();
            let mut want: Vec<IntervalId> = naive
                .iter()
                .filter(|(_, r)| r.contains_point(&p))
                .map(|(i, _)| *i)
                .collect();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn mixed_insert_delete_stress() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = RTree::new(2);
        let mut naive: Vec<(IntervalId, Rect)> = Vec::new();
        let mut next = 0u32;
        for step in 0..1_500 {
            if naive.is_empty() || rng.gen_bool(0.6) {
                let lo: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..100.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|a| a + rng.gen_range(0.0..20.0)).collect();
                let r = Rect::new(lo, hi);
                t.insert(id(next), r.clone());
                naive.push((id(next), r));
                next += 1;
            } else {
                let k = rng.gen_range(0..naive.len());
                let (i, r) = naive.swap_remove(k);
                assert_eq!(t.remove(i), Some(r));
            }
            if step % 100 == 99 {
                t.check_invariants().unwrap();
                let p = vec![rng.gen_range(0.0..120.0), rng.gen_range(0.0..120.0)];
                let mut got = t.stab(&p);
                got.sort();
                let mut want: Vec<IntervalId> = naive
                    .iter()
                    .filter(|(_, r)| r.contains_point(&p))
                    .map(|(i, _)| *i)
                    .collect();
                want.sort();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn open_ended_via_world_bounds() {
        // salary < 20000 on a 2-attribute relation: a slice through the
        // whole age dimension.
        let mut t = RTree::new(2);
        t.insert(
            id(0),
            Rect::new(vec![-WORLD, -WORLD], vec![20_000.0, WORLD]),
        );
        // age > 50 slice.
        t.insert(id(1), Rect::new(vec![-WORLD, 50.0], vec![WORLD, WORLD]));
        let mut hits = t.stab(&[12_000.0, 61.0]);
        hits.sort();
        assert_eq!(hits, vec![id(0), id(1)]);
        assert_eq!(t.stab(&[25_000.0, 40.0]), vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate rectangle id")]
    fn duplicate_id_panics() {
        let mut t = RTree::new(1);
        t.insert(id(0), Rect::new(vec![0.0], vec![1.0]));
        t.insert(id(0), Rect::new(vec![2.0], vec![3.0]));
    }
}
