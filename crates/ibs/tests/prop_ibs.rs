//! Property-based differential testing of the IBS-tree.
//!
//! Strategy: generate arbitrary sequences of insert/remove operations
//! over the full interval family (points, closed/open/half-open, open-
//! ended) on a small integer key space (so collisions, shared endpoints,
//! and heavy overlap are common), replay them against both the IBS-tree
//! and a naive `Vec` oracle, and after every operation
//!
//! * verify every structural invariant (BST order, AVL balance, mark
//!   soundness, mark completeness at every node and gap, registry and
//!   ownership accounting), and
//! * compare stabbing results against the oracle for every key in the
//!   domain.

use ibs::{BalanceMode, IbsTree, StabStats};
use interval::{Interval, IntervalId, Lower, Upper};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Interval<i32>),
    /// Remove the k-th live interval (mod current size).
    Remove(usize),
}

fn arb_interval(max_key: i32) -> impl Strategy<Value = Interval<i32>> {
    let key = 0..=max_key;
    prop_oneof![
        // Points are weighted up: the paper's workloads use a = 0, .5, 1
        // fractions of equality predicates.
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

fn arb_ops(max_key: i32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => arb_interval(max_key).prop_map(Op::Insert),
            2 => (0usize..64).prop_map(Op::Remove),
        ],
        1..len,
    )
}

/// Replays `ops` on a tree in `mode`, checking invariants and the oracle
/// after every step.
fn run_differential(ops: Vec<Op>, mode: BalanceMode, max_key: i32) {
    let mut tree: IbsTree<i32> = IbsTree::with_mode(mode);
    let mut oracle: Vec<(IntervalId, Interval<i32>)> = Vec::new();
    let mut next_id = 0u32;

    for op in ops {
        match op {
            Op::Insert(iv) => {
                let id = IntervalId(next_id);
                next_id += 1;
                tree.insert(id, iv.clone()).expect("fresh id");
                oracle.push((id, iv));
            }
            Op::Remove(k) => {
                if oracle.is_empty() {
                    continue;
                }
                let (id, iv) = oracle.remove(k % oracle.len());
                let got = tree.remove(id).expect("oracle id must be present");
                assert_eq!(got, iv, "removed interval mismatch");
            }
        }
        tree.assert_invariants();
        assert_eq!(tree.len(), oracle.len());

        // Exhaustive stab cross-check over the key domain plus sentinels
        // outside it.
        for x in -1..=(max_key + 1) {
            let mut got = tree.stab(&x);
            got.sort_unstable();
            let mut want: Vec<IntervalId> = oracle
                .iter()
                .filter(|(_, iv)| iv.contains(&x))
                .map(|&(id, _)| id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "stab({x}) diverged from oracle");
            assert_eq!(tree.stab_count(&x), want.len(), "stab_count({x})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn differential_avl_dense_keys(ops in arb_ops(15, 40)) {
        run_differential(ops, BalanceMode::Avl, 15);
    }

    #[test]
    fn differential_unbalanced_dense_keys(ops in arb_ops(15, 40)) {
        run_differential(ops, BalanceMode::None, 15);
    }

    #[test]
    fn differential_avl_sparse_keys(ops in arb_ops(100, 30)) {
        run_differential(ops, BalanceMode::Avl, 100);
    }

    #[test]
    fn marker_count_matches_registry(ops in arb_ops(20, 40)) {
        let mut tree: IbsTree<i32> = IbsTree::new();
        let mut live = Vec::new();
        let mut next = 0u32;
        for op in ops {
            match op {
                Op::Insert(iv) => {
                    let id = IntervalId(next);
                    next += 1;
                    tree.insert(id, iv).unwrap();
                    live.push(id);
                }
                Op::Remove(k) if !live.is_empty() => {
                    let id = live.remove(k % live.len());
                    tree.remove(id).unwrap();
                }
                Op::Remove(_) => {}
            }
        }
        // marker_count is a full arena scan; it must agree with what the
        // invariant checker already proved about the registry.
        tree.assert_invariants();
        prop_assert!(tree.marker_count() <= tree.len() * (2 * (tree.height() as usize + 1)));
    }
}

/// Deterministic stress: a large mixed workload in both modes, with
/// invariants checked at intervals (full checks every step would be
/// quadratic in test time).
#[test]
fn stress_mixed_workload() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for mode in [BalanceMode::Avl, BalanceMode::None] {
        let mut rng = StdRng::seed_from_u64(0x1b5);
        let mut tree: IbsTree<i32> = IbsTree::with_mode(mode);
        let mut oracle: Vec<(IntervalId, Interval<i32>)> = Vec::new();
        let mut next = 0u32;

        for step in 0..2_000 {
            if oracle.is_empty() || rng.gen_bool(0.6) {
                let a = rng.gen_range(0..1_000);
                let len = rng.gen_range(0..120);
                let iv = match rng.gen_range(0..5) {
                    0 => Interval::point(a),
                    1 => Interval::closed(a, a + len),
                    2 => Interval::closed_open(a, a + len + 1),
                    3 => Interval::at_least(a),
                    _ => Interval::less_than(a),
                };
                let id = IntervalId(next);
                next += 1;
                tree.insert(id, iv.clone()).unwrap();
                oracle.push((id, iv));
            } else {
                let k = rng.gen_range(0..oracle.len());
                let (id, _) = oracle.remove(k);
                tree.remove(id).unwrap();
            }
            if step % 200 == 199 {
                tree.assert_invariants();
            }
            // Spot-check a few random stabs every step.
            for _ in 0..3 {
                let x = rng.gen_range(-10..1_200);
                let mut got = tree.stab(&x);
                got.sort_unstable();
                let mut want: Vec<IntervalId> = oracle
                    .iter()
                    .filter(|(_, iv)| iv.contains(&x))
                    .map(|&(id, _)| id)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "mode {mode:?}, step {step}, stab({x})");
            }
        }
        tree.assert_invariants();
    }
}

/// Drain a heavily overlapping set down to empty, exercising the
/// predecessor-swap deletion path with repairs.
#[test]
fn drain_to_empty() {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(7);
    let mut tree: IbsTree<i32> = IbsTree::new();
    let n = 300u32;
    for i in 0..n {
        let a = (i as i32 * 13) % 500;
        tree.insert(IntervalId(i), Interval::closed(a, a + 200))
            .unwrap();
    }
    tree.assert_invariants();
    let mut ids: Vec<u32> = (0..n).collect();
    ids.shuffle(&mut rng);
    for (k, i) in ids.into_iter().enumerate() {
        tree.remove(IntervalId(i)).unwrap();
        if k % 25 == 0 {
            tree.assert_invariants();
        }
    }
    tree.assert_invariants();
    assert!(tree.is_empty());
    assert_eq!(tree.node_count(), 0);
    assert_eq!(tree.marker_count(), 0);
}

/// A churn step: structural mutation or a read, so that stabs are
/// interleaved *between* mutations rather than replayed after each one.
#[derive(Debug, Clone)]
enum ChurnOp {
    Insert(Interval<i32>),
    /// Remove the k-th live interval (mod current size).
    Remove(usize),
    Stab(i32),
    StabInterval(Interval<i32>),
}

fn arb_churn_ops(max_key: i32, len: usize) -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => arb_interval(max_key).prop_map(ChurnOp::Insert),
            2 => (0usize..64).prop_map(ChurnOp::Remove),
            2 => (-1..=max_key + 1).prop_map(ChurnOp::Stab),
            1 => arb_interval(max_key).prop_map(ChurnOp::StabInterval),
        ],
        1..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mode-differential churn: the same interleaved insert/remove/stab
    /// sequence drives an AVL-balanced tree and an unbalanced tree in
    /// lockstep. Balancing is an implementation detail — every read must
    /// agree between the two modes (and with the `Vec` oracle), and both
    /// trees must hold every structural invariant after every op.
    #[test]
    fn churn_avl_agrees_with_unbalanced(ops in arb_churn_ops(25, 60)) {
        let mut avl: IbsTree<i32> = IbsTree::with_mode(BalanceMode::Avl);
        let mut flat: IbsTree<i32> = IbsTree::with_mode(BalanceMode::None);
        let mut oracle: Vec<(IntervalId, Interval<i32>)> = Vec::new();
        let mut next = 0u32;

        for op in ops {
            match op {
                ChurnOp::Insert(iv) => {
                    let id = IntervalId(next);
                    next += 1;
                    avl.insert(id, iv.clone()).expect("fresh id (avl)");
                    flat.insert(id, iv.clone()).expect("fresh id (flat)");
                    oracle.push((id, iv));
                }
                ChurnOp::Remove(k) => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let (id, iv) = oracle.remove(k % oracle.len());
                    prop_assert_eq!(avl.remove(id).expect("live id (avl)"), iv.clone());
                    prop_assert_eq!(flat.remove(id).expect("live id (flat)"), iv);
                }
                ChurnOp::Stab(x) => {
                    let mut a = avl.stab(&x);
                    let mut f = flat.stab(&x);
                    a.sort_unstable();
                    f.sort_unstable();
                    let mut want: Vec<IntervalId> = oracle
                        .iter()
                        .filter(|(_, iv)| iv.contains(&x))
                        .map(|&(id, _)| id)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(&a, &f, "stab({}) diverged between modes", x);
                    prop_assert_eq!(a, want, "stab({}) diverged from oracle", x);
                    prop_assert_eq!(avl.stab_count(&x), flat.stab_count(&x));
                }
                ChurnOp::StabInterval(q) => {
                    let mut a = avl.stab_interval(&q);
                    let mut f = flat.stab_interval(&q);
                    a.sort_unstable();
                    f.sort_unstable();
                    prop_assert_eq!(a, f, "stab_interval({}) diverged between modes", q);
                }
            }
            // Every structural invariant, in both modes, after every op.
            avl.assert_invariants();
            flat.assert_invariants();
            prop_assert_eq!(avl.len(), oracle.len());
            prop_assert_eq!(flat.len(), oracle.len());
        }
    }

    /// Interval-overlap queries agree with the naive definition on
    /// arbitrary stored sets and arbitrary query intervals.
    #[test]
    fn stab_interval_matches_naive(
        stored in prop::collection::vec(arb_interval(20), 0..30),
        queries in prop::collection::vec(arb_interval(20), 1..10),
    ) {
        let mut tree: IbsTree<i32> = IbsTree::new();
        let mut oracle = Vec::new();
        for (i, iv) in stored.into_iter().enumerate() {
            let id = IntervalId(i as u32);
            tree.insert(id, iv.clone()).unwrap();
            oracle.push((id, iv));
        }
        for q in queries {
            let mut got = tree.stab_interval(&q);
            got.sort_unstable();
            let mut want: Vec<IntervalId> = oracle
                .iter()
                .filter(|(_, iv)| iv.overlaps(&q))
                .map(|&(id, _)| id)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "query {}", q);
        }
    }
}

/// A lock-step step: churn, or a group of keys stabbed together.
#[derive(Debug, Clone)]
enum LaneOp {
    Insert(Interval<i32>),
    /// Remove the k-th live interval (mod current size).
    Remove(usize),
    /// Stab a group; each key is a literal or, with `true`, an endpoint
    /// of the k-th live interval (mod size) — a key equal to a node
    /// value. `spare` ids sit in every output first, at exact capacity.
    Group(Vec<(i32, bool)>, usize),
}

fn arb_lane_ops(max_key: i32, len: usize) -> impl Strategy<Value = Vec<LaneOp>> {
    let key = (-1..=max_key + 1, any::<bool>());
    prop::collection::vec(
        prop_oneof![
            3 => arb_interval(max_key).prop_map(LaneOp::Insert),
            1 => (0usize..64).prop_map(LaneOp::Remove),
            2 => (prop::collection::vec(key, 0..ibs::LANES + 1), 0usize..4)
                .prop_map(|(keys, spare)| LaneOp::Group(keys, spare)),
        ],
        1..len,
    )
}

/// An output buffer holding `spare` ids at exactly its capacity, so the
/// first id a stab appends grows it.
fn full_buffer(spare: usize) -> Vec<IntervalId> {
    let mut out = Vec::with_capacity(spare);
    out.extend((0..spare as u32).map(|i| IntervalId(7 + i)));
    out.shrink_to_fit();
    out
}

/// `stab_lanes_into` against one `stab_into_observed` per lane: the same
/// id set after the untouched prefix, and the same `StabStats`; the
/// unobserved lanes report the same ids too.
fn check_lanes(tree: &IbsTree<i32>, keys: &[i32], spare: usize) -> Result<(), TestCaseError> {
    let refs: Vec<&i32> = keys.iter().collect();
    let mut outs: Vec<Vec<IntervalId>> = keys.iter().map(|_| full_buffer(spare)).collect();
    let mut stats = vec![StabStats::default(); keys.len()];
    tree.stab_lanes_into(&refs, &mut outs, &mut stats);
    let mut bare: Vec<Vec<IntervalId>> = keys.iter().map(|_| Vec::new()).collect();
    tree.stab_lanes_into(&refs, &mut bare, &mut vec![(); keys.len()]);
    for (lane, x) in keys.iter().enumerate() {
        let mut want = Vec::new();
        let mut want_stats = StabStats::default();
        tree.stab_into_observed(x, &mut want, &mut want_stats);
        want.sort_unstable();
        prop_assert_eq!(&outs[lane][..spare], &full_buffer(spare)[..]);
        let mut got = outs[lane][spare..].to_vec();
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "lane {} stab({})", lane, x);
        prop_assert_eq!(stats[lane], want_stats, "lane {} stab({})", lane, x);
        bare[lane].sort_unstable();
        prop_assert_eq!(&bare[lane], &want, "lane {} unobserved stab({})", lane, x);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under insert/remove churn, a group of keys stabbed in lock-step
    /// gets per lane exactly what a one-lane stab gets. Ids count down
    /// from `u32::MAX`; keys repeat within a group and hit node values.
    #[test]
    fn lanes_agree_with_one_lane_stabs(ops in arb_lane_ops(20, 50)) {
        for mode in [BalanceMode::Avl, BalanceMode::None] {
            let mut tree: IbsTree<i32> = IbsTree::with_mode(mode);
            let mut live: Vec<(IntervalId, Interval<i32>)> = Vec::new();
            let mut next = 0u32;
            for op in ops.clone() {
                match op {
                    LaneOp::Insert(iv) => {
                        let id = IntervalId(u32::MAX - next);
                        next += 1;
                        tree.insert(id, iv.clone()).expect("fresh id");
                        live.push((id, iv));
                    }
                    LaneOp::Remove(k) if !live.is_empty() => {
                        let (id, _) = live.swap_remove(k % live.len());
                        tree.remove(id).expect("live id");
                    }
                    LaneOp::Remove(_) => {}
                    LaneOp::Group(keys, spare) => {
                        let keys: Vec<i32> = keys
                            .into_iter()
                            .map(|(k, endpoint)| {
                                let iv = live.get(k.unsigned_abs() as usize % live.len().max(1));
                                match iv.map(|(_, iv)| (iv.lo().value(), iv.hi().value())) {
                                    Some((Some(&lo), _)) if endpoint => lo,
                                    Some((_, Some(&hi))) if endpoint => hi,
                                    _ => k,
                                }
                            })
                            .collect();
                        check_lanes(&tree, &keys, spare)?;
                    }
                }
            }
            let all: Vec<i32> = (-1..=21).collect();
            for group in all.chunks(ibs::LANES) {
                check_lanes(&tree, group, 1)?;
            }
        }
    }
}

/// The edges a churn rarely lands on: no key, an empty tree, a one-node
/// tree stabbed at and around its value, a full group of one repeated
/// key, and a spill reached through a buffer at exact capacity.
#[test]
fn lanes_on_empty_and_one_node_trees() {
    let mut tree: IbsTree<i32> = IbsTree::new();
    tree.stab_lanes_into::<()>(&[], &mut [], &mut []);
    check_lanes(&tree, &[3; ibs::LANES], 0).unwrap();
    tree.insert(IntervalId(u32::MAX), Interval::point(5))
        .unwrap();
    check_lanes(&tree, &[5], 2).unwrap();
    check_lanes(&tree, &[4, 5, 6, 5], 0).unwrap();
    check_lanes(&tree, &[5; ibs::LANES], 3).unwrap();
    // Three intervals share the point's `=` slot: two of them spill.
    tree.insert(IntervalId(0), Interval::closed(5, 9)).unwrap();
    tree.insert(IntervalId(1), Interval::closed(1, 5)).unwrap();
    check_lanes(&tree, &[5, 1, 9, 5, 0, 10], 1).unwrap();
    let mut out = full_buffer(2);
    tree.stab_lanes_into(&[&5], std::slice::from_mut(&mut out), &mut [()]);
    assert_eq!(out.len(), 5);
}

#[test]
#[should_panic(expected = "at most 16 keys")]
fn more_keys_than_lanes_is_a_caller_bug() {
    let tree: IbsTree<i32> = IbsTree::new();
    let keys = [&0; ibs::LANES + 1];
    let mut outs = vec![Vec::new(); ibs::LANES + 1];
    tree.stab_lanes_into(&keys, &mut outs, &mut [(); ibs::LANES + 1]);
}
