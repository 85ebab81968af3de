//! Regenerates every table/figure of the paper's evaluation as printed
//! series, paper-vs-measured where the paper reports numbers.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce            # everything
//! cargo run --release -p bench --bin reproduce fig7 fig8  # selected
//! ```
//!
//! Experiments: fig7, fig8, fig9, costmodel, space, scaling, balance,
//! structures, matchers, skew.

use altindex::{
    BulkBuild, CenteredIntervalTree, DynamicStabIndex, IntervalSkipList, IntervalTreap,
    NaiveIntervalList, SegmentTree, StabIndex,
};
use bench::costmodel::{self, PAPER_CONSTANTS};
use bench::scheme::SchemeWorkload;
use bench::timing::{consume, fmt_ns, median_ns_per_op};
use bench::workload::{disjoint_intervals, nested_intervals, ClusteredWorkload, FigureWorkload};
use ibs::{BalanceMode, IbsTree};
use interval::{Interval, IntervalId};
use predindex::{
    HashSequentialMatcher, Matcher, PhysicalLockingMatcher, PredicateIndex, RTreeMatcher,
    SequentialMatcher,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    println!("# Reproduction of Hanson et al., SIGMOD 1990 — evaluation artifacts");
    println!("# (times are medians on this machine; the paper used C++ on a SPARCstation 1,");
    println!("#  so shapes and orderings are the comparison target, not absolute values)\n");

    if want("fig7") {
        fig7();
    }
    if want("fig8") {
        fig8();
    }
    if want("fig9") {
        fig9();
    }
    if want("costmodel") {
        cost_model();
    }
    if want("space") {
        space();
    }
    if want("scaling") {
        scaling();
    }
    if want("balance") {
        balance();
    }
    if want("structures") {
        structures();
    }
    if want("matchers") {
        matchers();
    }
    if want("skew") {
        skew();
    }
}

const FIG_NS: [usize; 6] = [100, 200, 400, 600, 800, 1000];
const AS: [(f64, &str); 3] = [(0.0, "a=0"), (0.5, "a=0.5"), (1.0, "a=1")];

/// Figure 7: average insertion time vs N for a ∈ {0, .5, 1}.
/// Paper (unbalanced, SPARC-1): ~1–3 ms at N=1000, logarithmic growth,
/// a-curves close together with a=1 (all points) cheapest.
fn fig7() {
    println!("## Figure 7 — average IBS-tree insertion time (unbalanced, as in the paper)");
    println!("{:>6} {:>12} {:>12} {:>12}", "N", "a=0", "a=0.5", "a=1");
    for n in FIG_NS {
        let mut row = format!("{n:>6}");
        for (a, _) in AS {
            let items = FigureWorkload { n, a, seed: 7 }.intervals();
            let ns = median_ns_per_op(7, n, || {
                let mut t = IbsTree::with_mode(BalanceMode::None);
                for (id, iv) in &items {
                    t.insert(*id, iv.clone()).unwrap();
                }
                consume(t.node_count());
            });
            row += &format!(" {:>12}", fmt_ns(ns));
        }
        println!("{row}");
    }
    println!();
}

/// Figure 8: average search time vs N for a ∈ {0, .5, 1}.
/// Paper: ~0.05–0.35 ms, logarithmic growth, a-curves nearly coincide.
fn fig8() {
    println!("## Figure 8 — average IBS-tree search time");
    println!("{:>6} {:>12} {:>12} {:>12}", "N", "a=0", "a=0.5", "a=1");
    for n in FIG_NS {
        let mut row = format!("{n:>6}");
        for (a, _) in AS {
            let w = FigureWorkload { n, a, seed: 8 };
            let mut tree = IbsTree::with_mode(BalanceMode::None);
            for (id, iv) in w.intervals() {
                tree.insert(id, iv).unwrap();
            }
            let queries = w.queries(4096);
            let mut out = Vec::with_capacity(128);
            let ns = median_ns_per_op(7, queries.len(), || {
                for q in &queries {
                    out.clear();
                    tree.stab_into(q, &mut out);
                    consume(out.len());
                }
            });
            row += &format!(" {:>12}", fmt_ns(ns));
        }
        println!("{row}");
    }
    println!();
}

/// Figure 9: IBS-tree vs sequential search for small N.
/// Paper: sequential is linear and lies above the IBS curve at every N
/// shown (5..40).
fn fig9() {
    println!("## Figure 9 — predicate test cost, IBS-tree vs sequential search");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "N", "ibs", "sequential", "ratio"
    );
    for n in [5usize, 10, 15, 20, 25, 30, 35, 40] {
        let w = FigureWorkload { n, a: 0.5, seed: 9 };
        let items = w.intervals();
        let queries = w.queries(8192);
        let ibs: IbsTree<i64> = BulkBuild::build(items.clone());
        let seq = NaiveIntervalList::build(items);
        let mut out = Vec::with_capacity(64);
        let t_ibs = median_ns_per_op(9, queries.len(), || {
            for q in &queries {
                out.clear();
                StabIndex::stab_into(&ibs, q, &mut out);
                consume(out.len());
            }
        });
        let t_seq = median_ns_per_op(9, queries.len(), || {
            for q in &queries {
                out.clear();
                seq.stab_into(q, &mut out);
                consume(out.len());
            }
        });
        println!(
            "{n:>6} {:>12} {:>12} {:>8.2}",
            fmt_ns(t_ibs),
            fmt_ns(t_seq),
            t_seq / t_ibs
        );
    }
    println!();
}

/// §5.2 worked cost model: paper constants vs measured constants vs
/// end-to-end measurement.
fn cost_model() {
    println!("## §5.2 cost model — full scheme, paper shape (15 attrs, 200 preds, 90% idx)");
    let w = SchemeWorkload::default();
    let paper = costmodel::evaluate(&w, &PAPER_CONSTANTS);
    println!(
        "paper constants (SPARC-1):  search {:.2} ms + residual {:.2} ms = {:.2} ms/tuple (paper reports ~2.1)",
        paper.search_ms,
        paper.residual_ms,
        paper.total_ms()
    );
    let ours = costmodel::measure_constants(&w);
    let predicted = costmodel::evaluate(&w, &ours);
    println!(
        "measured constants (here): hash {:.5} ms, ibs-search {:.5} ms, test {:.5} ms",
        ours.hash_ms, ours.ibs_search_ms, ours.full_test_ms
    );
    println!(
        "model with measured consts: search {:.4} ms + residual {:.4} ms = {:.4} ms/tuple",
        predicted.search_ms,
        predicted.residual_ms,
        predicted.total_ms()
    );
    let e2e = costmodel::measure_end_to_end(&w);
    println!("measured end-to-end:        {e2e:.4} ms/tuple");
    println!(
        "speedup vs paper estimate:  {:.0}x (hardware generations, as §5.2 predicts)\n",
        paper.total_ms() / e2e
    );
}

/// §5.1 space claim: markers O(N) for disjoint intervals, O(N log N)
/// possible under heavy overlap.
fn space() {
    println!("## §5.1 space — marker count vs N (disjoint = O(N), nested = up to O(N log N))");
    println!(
        "{:>7} {:>10} {:>12} {:>10} {:>12}",
        "N", "disjoint", "markers/N", "nested", "markers/N"
    );
    for n in [100usize, 400, 1600, 6400, 25_600] {
        let mut row = format!("{n:>7}");
        for gen in [disjoint_intervals as fn(usize) -> _, nested_intervals] {
            let mut t = IbsTree::new();
            for (id, iv) in gen(n) {
                t.insert(id, iv).unwrap();
            }
            let m = t.marker_count();
            row += &format!(" {:>10} {:>12.2}", m, m as f64 / n as f64);
        }
        println!("{row}");
    }
    println!();
}

/// §5.1 complexity claims: search O(log N + L), insertion O(log² N) —
/// growth factors across doublings should be far below 2 (the linear
/// alternative).
fn scaling() {
    println!("## §5.1 scaling — per-op time across N doublings (sub-linear growth expected)");
    println!(
        "{:>7} {:>12} {:>12} {:>12}",
        "N", "search", "insert", "delete"
    );
    for n in [1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000] {
        let w = FigureWorkload {
            n,
            a: 0.5,
            seed: 13,
        };
        let items = w.intervals();
        let queries = w.queries(4096);

        let mut tree: IbsTree<i64> = IbsTree::new();
        for (id, iv) in &items {
            tree.insert(*id, iv.clone()).unwrap();
        }
        let mut out = Vec::with_capacity(256);
        let t_search = median_ns_per_op(5, queries.len(), || {
            for q in &queries {
                out.clear();
                tree.stab_into(q, &mut out);
                consume(out.len());
            }
        });
        let t_insert = median_ns_per_op(3, n, || {
            let mut t = IbsTree::new();
            for (id, iv) in &items {
                t.insert(*id, iv.clone()).unwrap();
            }
            consume(t.node_count());
        });
        let t_delete = {
            let built = tree.clone();
            median_ns_per_op(3, n, || {
                let mut t = built.clone();
                for (id, _) in &items {
                    t.remove(*id).unwrap();
                }
                consume(t.node_count());
            })
        };
        println!(
            "{n:>7} {:>12} {:>12} {:>12}",
            fmt_ns(t_search),
            fmt_ns(t_insert),
            fmt_ns(t_delete)
        );
    }
    println!();
}

/// Ablation D (extension): skewed workloads. The paper only evaluates
/// uniform keys; clustered rule bases ("many rules watch the same
/// thresholds") raise the per-query output L at hot spots, which must be
/// the only source of slowdown for an O(log N + L) structure.
fn skew() {
    println!("## Ablation D — uniform vs clustered (80/20) workloads, N = 2000");
    println!(
        "{:>22} {:>12} {:>12} {:>10} {:>10}",
        "workload", "search", "markers/N", "height", "avg hits"
    );
    let n = 2_000usize;
    let uniform = FigureWorkload {
        n,
        a: 0.0,
        seed: 21,
    };
    let clustered = ClusteredWorkload {
        n,
        hot_frac: 0.8,
        seed: 21,
    };
    for (name, items, queries) in [
        ("uniform", uniform.intervals(), uniform.queries(4096)),
        (
            "clustered 80/20",
            clustered.intervals(),
            clustered.queries(4096),
        ),
    ] {
        let mut t: IbsTree<i64> = IbsTree::new();
        for (id, iv) in &items {
            t.insert(*id, iv.clone()).unwrap();
        }
        let mut out = Vec::with_capacity(2048);
        let mut hits = 0usize;
        for q in &queries {
            out.clear();
            t.stab_into(q, &mut out);
            hits += out.len();
        }
        let ns = median_ns_per_op(5, queries.len(), || {
            for q in &queries {
                out.clear();
                t.stab_into(q, &mut out);
                consume(out.len());
            }
        });
        println!(
            "{:>22} {:>12} {:>12.2} {:>10} {:>10.1}",
            name,
            fmt_ns(ns),
            t.marker_count() as f64 / n as f64,
            t.height(),
            hits as f64 / queries.len() as f64
        );
    }
    println!();
}

/// Ablation A: balancing.
fn balance() {
    println!("## Ablation A — AVL balancing vs the paper's unbalanced tree (N = 1000)");
    let n = 1_000usize;
    let random = FigureWorkload { n, a: 0.5, seed: 4 }.intervals();
    let sorted: Vec<(IntervalId, Interval<i64>)> = (0..n as u32)
        .map(|i| {
            (
                IntervalId(i),
                Interval::closed(i as i64 * 11, i as i64 * 11 + 6),
            )
        })
        .collect();
    let queries = FigureWorkload { n, a: 0.5, seed: 4 }.queries(4096);
    println!(
        "{:>22} {:>12} {:>12} {:>8}",
        "workload/mode", "insert", "search", "height"
    );
    for (order, items) in [("random", &random), ("sorted", &sorted)] {
        for (mode_name, mode) in [("unbalanced", BalanceMode::None), ("avl", BalanceMode::Avl)] {
            let t_ins = median_ns_per_op(5, n, || {
                let mut t = IbsTree::with_mode(mode);
                for (id, iv) in items {
                    t.insert(*id, iv.clone()).unwrap();
                }
                consume(t.height());
            });
            let mut tree = IbsTree::with_mode(mode);
            for (id, iv) in items {
                tree.insert(*id, iv.clone()).unwrap();
            }
            let mut out = Vec::with_capacity(128);
            let t_q = median_ns_per_op(5, queries.len(), || {
                for q in &queries {
                    out.clear();
                    tree.stab_into(q, &mut out);
                    consume(out.len());
                }
            });
            println!(
                "{:>22} {:>12} {:>12} {:>8}",
                format!("{order}/{mode_name}"),
                fmt_ns(t_ins),
                fmt_ns(t_q),
                tree.height()
            );
        }
    }
    println!();
}

/// Ablation B: every interval structure on the Figure 8 workload.
fn structures() {
    println!("## Ablation B — stab cost across interval structures (§6's proposed comparison)");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "N", "ibs", "segment", "int-tree", "treap", "skiplist", "naive"
    );
    for n in [100usize, 1_000, 10_000] {
        let w = FigureWorkload {
            n,
            a: 0.5,
            seed: 11,
        };
        let items = w.intervals();
        let queries = w.queries(4096);
        let ibs: IbsTree<i64> = BulkBuild::build(items.clone());
        let seg = SegmentTree::build(items.clone());
        let cit = CenteredIntervalTree::build(items.clone());
        let treap = IntervalTreap::build(items.clone());
        let skip = IntervalSkipList::build(items.clone());
        let naive = NaiveIntervalList::build(items);

        let mut row = format!("{n:>7}");
        let mut out = Vec::with_capacity(256);
        macro_rules! m {
            ($idx:expr) => {{
                let ns = median_ns_per_op(5, queries.len(), || {
                    for q in &queries {
                        out.clear();
                        $idx.stab_into(q, &mut out);
                        consume(out.len());
                    }
                });
                row += &format!(" {:>10}", fmt_ns(ns));
            }};
        }
        m!(ibs);
        m!(seg);
        m!(cit);
        m!(treap);
        m!(skip);
        m!(naive);
        println!("{row}");
    }
    println!();

    // The dynamic half of the comparison: update throughput. The static
    // structures are out by construction — their "update" is a rebuild.
    println!("   update cost per op (insert N then remove N), dynamic structures only:");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "N", "ibs", "treap", "skiplist", "seg(rebuild)"
    );
    for n in [100usize, 1_000, 10_000] {
        let w = FigureWorkload {
            n,
            a: 0.5,
            seed: 12,
        };
        let items = w.intervals();
        let t_ibs = update_ns::<IbsTree<i64>>(&items);
        let t_treap = update_ns::<IntervalTreap<i64>>(&items);
        let t_skip = update_ns::<IntervalSkipList<i64>>(&items);
        // The static structure's only "update" path: rebuild from
        // scratch — charged per logical update for comparability.
        let t_seg = median_ns_per_op(5, 2 * n, || {
            let t = SegmentTree::build(items.clone());
            consume(t.len());
        });
        println!(
            "{n:>7} {:>12} {:>12} {:>12} {:>12}",
            fmt_ns(t_ibs),
            fmt_ns(t_treap),
            fmt_ns(t_skip),
            fmt_ns(t_seg)
        );
    }
    println!();
}

/// Median per-op cost of inserting every item into an empty `T` and
/// removing them all again — the update half of ablation B, one loop
/// for every dynamic structure.
fn update_ns<T: DynamicStabIndex<i64> + Default>(items: &[(IntervalId, Interval<i64>)]) -> f64 {
    median_ns_per_op(5, 2 * items.len(), || {
        let mut t = T::default();
        for (id, iv) in items {
            t.insert(*id, iv.clone());
        }
        for (id, _) in items {
            t.remove(*id).unwrap();
        }
        consume(t.len());
    })
}

/// Ablation C: the full scheme vs every §2 baseline.
fn matchers() {
    println!("## Ablation C — full scheme vs §2 baselines, per-tuple match cost");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "preds", "ibs-index", "sequential", "hash+seq", "lock(idx)", "lock(none)", "rtree"
    );
    for preds in [50usize, 200, 1_000, 5_000] {
        let w = SchemeWorkload {
            predicates: preds,
            ..SchemeWorkload::default()
        };
        let db = w.database();
        let tuples = w.tuples(512);
        let mut row = format!("{preds:>7}");
        let mut matchers: Vec<Box<dyn Matcher>> = vec![
            Box::new(PredicateIndex::new()),
            Box::new(SequentialMatcher::new()),
            Box::new(HashSequentialMatcher::new()),
            Box::new(PhysicalLockingMatcher::with_indexed_attrs(
                db.catalog(),
                [("r", "a0"), ("r", "a1"), ("r", "a2")],
            )),
            Box::new(PhysicalLockingMatcher::new()),
            Box::new(RTreeMatcher::new()),
        ];
        for m in matchers.iter_mut() {
            for p in w.predicates() {
                m.insert(p, db.catalog()).expect("valid scenario predicate");
            }
            let ns = median_ns_per_op(5, tuples.len(), || {
                let mut total = 0usize;
                for t in &tuples {
                    total += m.match_tuple(SchemeWorkload::RELATION, t).len();
                }
                consume(total);
            });
            row += &format!(" {:>12}", fmt_ns(ns));
        }
        println!("{row}");
    }
    println!();
}
