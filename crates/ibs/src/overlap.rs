//! Interval-overlap queries: all stored intervals that share at least
//! one point with a query interval.
//!
//! Not part of the paper's API (the rule-matching problem only needs
//! point stabs), but a natural extension for the conclusion's "other
//! applications that deal with geometric data": range invalidation,
//! window queries, and rule analysis ("which predicates could fire for
//! salaries between 20k and 30k?").
//!
//! Strategy: build a candidate superset from (a) a stab at the query's
//! low anchor value — catching every interval that starts at or before
//! the query and reaches into it — and (b) the lower-end owners of every
//! endpoint node whose value falls in the query's closed hull — catching
//! every interval that starts inside the query; then filter the
//! candidates with the exact [`Interval::overlaps`] test. Cost is
//! `O(log N + K + L)` where `K` is the number of endpoint nodes in the
//! query range.

use crate::arena::{End, NodeId};
use crate::IbsTree;
use interval::{Interval, IntervalId, Lower};

impl<K: Ord + Clone> IbsTree<K> {
    /// Returns the ids of all stored intervals overlapping `query`, in
    /// unspecified order (each id exactly once).
    pub fn stab_interval(&self, query: &Interval<K>) -> Vec<IntervalId> {
        let mut out = Vec::new();
        self.stab_interval_into(query, &mut out);
        out
    }

    /// As [`IbsTree::stab_interval`], appending into a caller-owned
    /// buffer.
    pub fn stab_interval_into(&self, query: &Interval<K>, out: &mut Vec<IntervalId>) {
        let from = out.len();

        // (a) Everything alive at the query's low anchor.
        match query.lo() {
            Lower::Inclusive(a) | Lower::Exclusive(a) => {
                self.stab_into(a, out);
            }
            Lower::Unbounded => {
                // The query reaches -inf: every interval unbounded below
                // overlaps it, as does anything starting inside; the
                // range scan below covers starters, this covers the
                // rest. (A stab at "the leftmost point" has no anchor
                // value to use.)
                out.extend_from_slice(&self.core.universal);
                for (id, iv) in self.iter() {
                    if iv.lo().value().is_none() {
                        out.push(id);
                    }
                }
            }
        }

        // (b) Every interval that *starts* within the query's closed
        // hull. Scanning the hull inclusively over-collects at most the
        // boundary cases that the exact filter removes.
        let lo_anchor = query.lo().value();
        let hi_anchor = query.hi().value();
        self.collect_lo_owners_in_hull(self.core.root_id(), lo_anchor, hi_anchor, out);

        // Exact filter + dedupe.
        let tail = &mut out[from..];
        tail.sort_unstable();
        let mut keep = from;
        let mut prev: Option<IntervalId> = None;
        for i in from..out.len() {
            let id = out[i];
            if prev == Some(id) {
                continue;
            }
            prev = Some(id);
            let iv = self
                .get(id)
                .expect("candidate ids were read from the tree's own mark sets");
            if iv.overlaps(query) {
                out[keep] = id;
                keep += 1;
            }
        }
        out.truncate(keep);
    }

    /// Collects the lower-end owners of all nodes with `lo <= value <= hi`
    /// (missing bound = unbounded on that side).
    fn collect_lo_owners_in_hull(
        &self,
        node: NodeId,
        lo: Option<&K>,
        hi: Option<&K>,
        out: &mut Vec<IntervalId>,
    ) {
        if node.is_null() {
            return;
        }
        let n = self.core.node(node);
        let above_lo = lo.is_none_or(|l| &n.value >= l);
        let below_hi = hi.is_none_or(|h| &n.value <= h);
        if above_lo {
            self.collect_lo_owners_in_hull(n.left, lo, hi, out);
        }
        if above_lo && below_hi {
            out.extend(self.core.arena.cold(node).owners(End::Lo));
        }
        if below_hi {
            self.collect_lo_owners_in_hull(n.right, lo, hi, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> IntervalId {
        IntervalId(n)
    }

    fn sample_tree() -> IbsTree<i32> {
        let mut t = IbsTree::new();
        t.insert(id(0), Interval::closed(9, 19)).unwrap();
        t.insert(id(1), Interval::closed(2, 7)).unwrap();
        t.insert(id(2), Interval::closed_open(1, 3)).unwrap();
        t.insert(id(3), Interval::closed(17, 20)).unwrap();
        t.insert(id(4), Interval::closed(7, 12)).unwrap();
        t.insert(id(5), Interval::point(18)).unwrap();
        t.insert(id(6), Interval::at_most(17)).unwrap();
        t
    }

    fn sorted(mut v: Vec<IntervalId>) -> Vec<u32> {
        v.sort_unstable();
        v.into_iter().map(|i| i.0).collect()
    }

    #[test]
    fn overlap_query_matches_naive() {
        let t = sample_tree();
        let queries = [
            Interval::closed(0, 25),
            Interval::closed(8, 10),
            Interval::open(7, 9),
            Interval::point(18),
            Interval::at_least(19),
            Interval::less_than(2),
            Interval::closed(21, 30),
            Interval::unbounded(),
        ];
        for q in queries {
            let want: Vec<u32> = {
                let mut v: Vec<u32> = t
                    .iter()
                    .filter(|(_, iv)| iv.overlaps(&q))
                    .map(|(i, _)| i.0)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(t.stab_interval(&q)), want, "query {q}");
        }
    }

    #[test]
    fn point_query_agrees_with_stab() {
        let t = sample_tree();
        for x in -2..25 {
            assert_eq!(
                sorted(t.stab_interval(&Interval::point(x))),
                sorted(t.stab(&x)),
                "at {x}"
            );
        }
    }

    #[test]
    fn no_duplicates_under_shared_endpoints() {
        let mut t = IbsTree::new();
        for i in 0..20 {
            t.insert(id(i), Interval::closed(5, 10 + i as i32)).unwrap();
        }
        let hits = t.stab_interval(&Interval::closed(0, 100));
        assert_eq!(hits.len(), 20);
        let mut s = hits.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20, "duplicates in overlap result");
    }

    #[test]
    fn unbounded_below_query() {
        let mut t = IbsTree::new();
        t.insert(id(0), Interval::at_most(5)).unwrap();
        t.insert(id(1), Interval::at_least(100)).unwrap();
        t.insert(id(2), Interval::unbounded()).unwrap();
        assert_eq!(sorted(t.stab_interval(&Interval::less_than(0))), vec![0, 2]);
        assert_eq!(sorted(t.stab_interval(&Interval::at_least(50))), vec![1, 2]);
    }
}
