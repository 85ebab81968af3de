//! One differential harness over every interval index in the workspace.
//!
//! For arbitrary interval sets (and, for dynamic structures, arbitrary
//! insert/remove schedules), every structure must report exactly the
//! same stabbing results as the naive list at every key in the domain.
//! This realizes the comparison the paper proposes in §6 ("implement
//! several different techniques for dynamically indexing intervals ...
//! and then compare") at the correctness level; the benchmark harness
//! does the time/space level.

use altindex::{
    BulkBuild, CenteredIntervalTree, DynamicStabIndex, IntervalSkipList, IntervalTreap,
    NaiveIntervalList, SegmentTree, StabIndex,
};
use ibs::IbsTree;
use interval::{Interval, IntervalId, Lower, Upper};
use proptest::prelude::*;

fn arb_interval(max_key: i32) -> impl Strategy<Value = Interval<i32>> {
    let key = 0..=max_key;
    prop_oneof![
        2 => key.clone().prop_map(Interval::point),
        4 => (key.clone(), key.clone(), any::<(bool, bool)>()).prop_filter_map(
            "non-empty",
            |(a, b, (lo_incl, hi_incl))| {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                let lo = if lo_incl { Lower::Inclusive(a) } else { Lower::Exclusive(a) };
                let hi = if hi_incl { Upper::Inclusive(b) } else { Upper::Exclusive(b) };
                Interval::new(lo, hi).ok()
            }
        ),
        1 => key.clone().prop_map(Interval::at_least),
        1 => key.clone().prop_map(Interval::greater_than),
        1 => key.clone().prop_map(Interval::at_most),
        1 => key.prop_map(Interval::less_than),
        1 => Just(Interval::unbounded()),
    ]
}

fn sorted(mut v: Vec<IntervalId>) -> Vec<IntervalId> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Static structures: build once, stab everywhere.
    #[test]
    fn static_structures_agree(ivs in prop::collection::vec(arb_interval(30), 0..40)) {
        let items: Vec<(IntervalId, Interval<i32>)> = ivs
            .into_iter()
            .enumerate()
            .map(|(i, iv)| (IntervalId(i as u32), iv))
            .collect();
        let oracle = NaiveIntervalList::build(items.clone());
        let seg = SegmentTree::build(items.clone());
        let cit = CenteredIntervalTree::build(items.clone());
        let ibs: IbsTree<i32> = BulkBuild::build(items.clone());
        let treap = IntervalTreap::build(items.clone());
        let skip = IntervalSkipList::build(items);

        for x in -2..=32 {
            let want = sorted(oracle.stab(&x));
            prop_assert_eq!(sorted(seg.stab(&x)), want.clone(), "segment tree at {}", x);
            prop_assert_eq!(sorted(cit.stab(&x)), want.clone(), "interval tree at {}", x);
            prop_assert_eq!(sorted(StabIndex::stab(&ibs, &x)), want.clone(), "IBS at {}", x);
            prop_assert_eq!(sorted(treap.stab(&x)), want.clone(), "treap at {}", x);
            prop_assert_eq!(sorted(skip.stab(&x)), want, "skip list at {}", x);
        }
    }

    /// Dynamic structures: arbitrary interleavings of inserts/removes.
    #[test]
    fn dynamic_structures_agree(
        ops in prop::collection::vec((arb_interval(25), any::<bool>(), 0usize..32), 1..50)
    ) {
        let mut oracle = NaiveIntervalList::default();
        let mut ibs: IbsTree<i32> = IbsTree::new();
        let mut treap = IntervalTreap::new();
        let mut skip = IntervalSkipList::new();
        let mut live: Vec<IntervalId> = Vec::new();
        let mut next = 0u32;

        for (iv, is_insert, pick) in ops {
            if is_insert || live.is_empty() {
                let id = IntervalId(next);
                next += 1;
                DynamicStabIndex::insert(&mut oracle, id, iv.clone());
                DynamicStabIndex::insert(&mut ibs, id, iv.clone());
                DynamicStabIndex::insert(&mut treap, id, iv.clone());
                DynamicStabIndex::insert(&mut skip, id, iv);
                live.push(id);
            } else {
                let id = live.remove(pick % live.len());
                let a = DynamicStabIndex::remove(&mut oracle, id);
                let b = DynamicStabIndex::remove(&mut ibs, id);
                let c = DynamicStabIndex::remove(&mut treap, id);
                let d = DynamicStabIndex::remove(&mut skip, id);
                prop_assert_eq!(a.clone(), b);
                prop_assert_eq!(a.clone(), c);
                prop_assert_eq!(a, d);
            }
            skip.assert_invariants();
            for x in -1..=27 {
                let want = sorted(oracle.stab(&x));
                prop_assert_eq!(sorted(StabIndex::stab(&ibs, &x)), want.clone(), "IBS at {}", x);
                prop_assert_eq!(sorted(treap.stab(&x)), want.clone(), "treap at {}", x);
                prop_assert_eq!(sorted(skip.stab(&x)), want, "skip list at {}", x);
            }
        }
    }
}

/// Deterministic high-volume agreement check (larger than proptest cases
/// can affordably be).
#[test]
fn bulk_agreement_large() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(99);
    let items: Vec<(IntervalId, Interval<i32>)> = (0..2_000u32)
        .map(|i| {
            let a = rng.gen_range(0..10_000);
            let iv = match i % 4 {
                0 => Interval::point(a),
                1 => Interval::closed(a, a + rng.gen_range(0..1_000)),
                2 => Interval::closed_open(a, a + rng.gen_range(1..1_000)),
                _ => Interval::new(
                    Lower::Exclusive(a),
                    Upper::Inclusive(a + rng.gen_range(1..1_000)),
                )
                .unwrap(),
            };
            (IntervalId(i), iv)
        })
        .collect();

    let oracle = NaiveIntervalList::build(items.clone());
    let seg = SegmentTree::build(items.clone());
    let cit = CenteredIntervalTree::build(items.clone());
    let ibs: IbsTree<i32> = BulkBuild::build(items.clone());
    let treap = IntervalTreap::build(items.clone());
    let skip = IntervalSkipList::build(items);

    for _ in 0..500 {
        let x = rng.gen_range(-100..11_100);
        let want = sorted(oracle.stab(&x));
        assert_eq!(sorted(seg.stab(&x)), want, "segment tree at {x}");
        assert_eq!(sorted(cit.stab(&x)), want, "interval tree at {x}");
        assert_eq!(sorted(StabIndex::stab(&ibs, &x)), want, "IBS at {x}");
        assert_eq!(sorted(treap.stab(&x)), want, "treap at {x}");
        assert_eq!(sorted(skip.stab(&x)), want, "skip list at {x}");
    }
}
