//! Index advisor end-to-end: on each canonical workload shape, the
//! §5.2 projection's top pick must be the backend that is actually
//! cheapest when the same op log is replayed against real structures.
//!
//! Constants are calibrated in-process, so the test is self-adjusting
//! across machines and build profiles: projection and measurement see
//! the same code on the same box. `churn_heavy` and
//! `non_indexable_heavy` have decisive winners (the measured margins
//! are many-fold), so those demand exact agreement; `stab_heavy`'s top
//! two backends (IBS-tree vs static interval tree) are legitimately
//! within ~1.2x of each other, so there the pick must merely be within
//! 1.5x of the measured cheapest — still a real claim, without flaking
//! on a coin-flip between near-ties.
//!
//! The lab's own unit tests (shapes, replay coverage, account feed) sit
//! below it.

use bench::lab::{
    calibrate_constants, churn_heavy_shape, measure_backends, non_indexable_heavy_shape,
    quick_shapes, run_shape, stab_heavy_shape, WorkloadOp,
};
use predindex::{AdvisorConstants, Backend};

#[test]
fn advisor_pick_is_measured_cheapest_on_the_canonical_shapes() {
    let constants = calibrate_constants();
    let shapes = quick_shapes();
    assert_eq!(shapes.len(), 3);
    for spec in &shapes {
        let outcome = run_shape(spec, &constants);
        let pick = outcome.recommendation.best();
        let cheapest = outcome.measured_cheapest();
        let measured_ns = |b: Backend| {
            outcome
                .measured
                .iter()
                .find(|(x, _)| *x == b)
                .map(|(_, ns)| *ns)
                .unwrap_or(f64::INFINITY)
        };
        if outcome.name == "stab_heavy" {
            assert!(
                measured_ns(pick) <= 1.5 * measured_ns(cheapest),
                "{}: advisor picked {} ({:.0} ns) but {} measured {:.0} ns",
                outcome.name,
                pick.name(),
                measured_ns(pick),
                cheapest.name(),
                measured_ns(cheapest),
            );
        } else {
            assert_eq!(
                pick,
                cheapest,
                "{}: advisor picked {} but {} measured cheapest ({:?})",
                outcome.name,
                pick.name(),
                cheapest.name(),
                outcome.measured,
            );
        }
        // The projection ran on real observed statistics, not defaults.
        assert!(outcome.recommendation.stabs > 0, "{}", outcome.name);
        assert!(
            outcome.recommendation.margin >= 1.0,
            "{}: margin {:.2}",
            outcome.name,
            outcome.recommendation.margin
        );
    }
}

#[test]
fn shapes_are_deterministic() {
    let a = stab_heavy_shape(10);
    let b = stab_heavy_shape(10);
    assert_eq!(a.setup.len(), b.setup.len());
    assert_eq!(a.ops.len(), b.ops.len());
    let (Some(WorkloadOp::Stab { value: va }), Some(WorkloadOp::Stab { value: vb })) =
        (a.ops.first(), b.ops.first())
    else {
        panic!("stab-heavy opens with stabs");
    };
    assert_eq!(va, vb);
    // Churn keeps the live population pinned at n.
    let churn = churn_heavy_shape(20);
    let ins = churn
        .ops
        .iter()
        .filter(|o| matches!(o, WorkloadOp::Insert { .. }))
        .count();
    let del = churn
        .ops
        .iter()
        .filter(|o| matches!(o, WorkloadOp::Delete { .. }))
        .count();
    assert_eq!(ins, del);
}

#[test]
fn measure_backends_covers_every_backend() {
    let spec = stab_heavy_shape(4);
    let measured = measure_backends(&spec.setup, &spec.ops);
    assert_eq!(measured.len(), Backend::ALL.len());
    // Ascending order.
    for pair in measured.windows(2) {
        assert!(pair[0].1 <= pair[1].1);
    }
    for b in Backend::ALL {
        assert!(measured.iter().any(|(m, _)| *m == b));
    }
}

#[test]
fn run_shape_feeds_real_workload_accounts() {
    let spec = non_indexable_heavy_shape(10);
    let outcome = run_shape(&spec, &AdvisorConstants::default());
    let rec = &outcome.recommendation;
    assert_eq!(rec.relation, "emp");
    assert_eq!(rec.attr, 0);
    assert_eq!(rec.stabs, 100);
    // 10 opaque vs 4 indexable live predicates.
    assert!(rec.non_indexable_share > 0.5, "{}", rec.non_indexable_share);
    assert_eq!(outcome.measured.len(), 4);
}
