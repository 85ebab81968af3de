//! Workload generators reproducing the paper's evaluation setup.
//!
//! §5.2: "A series of IBS trees were created which contained N
//! predicates for N between 0 and 1,000. A fraction a of predicates were
//! simple points of the form attribute = constant, and the remaining
//! fraction 1 − a were closed intervals. The points and interval
//! boundaries were drawn randomly from a uniform distribution of
//! integers between 1 and 10,000. The length of the intervals was drawn
//! randomly from a uniform distribution of integers between 1 and
//! 1,000."

use crate::scheme::SchemeWorkload;
use interval::{Interval, IntervalId};
use predicate::Predicate;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, Tuple, Value};

/// Key domain bounds from the paper.
pub const DOMAIN_LO: i64 = 1;
/// Upper bound of the paper's uniform endpoint distribution.
pub const DOMAIN_HI: i64 = 10_000;
/// Upper bound of the paper's uniform interval-length distribution.
pub const MAX_LEN: i64 = 1_000;

/// The Figure 7/8 workload: `n` predicates, fraction `a` of which are
/// points, the rest closed intervals.
#[derive(Debug, Clone, Copy)]
pub struct FigureWorkload {
    /// Number of predicates.
    pub n: usize,
    /// Fraction of point (equality) predicates: the paper sweeps
    /// a ∈ {0, 0.5, 1}.
    pub a: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl FigureWorkload {
    /// Generates the interval set.
    pub fn intervals(&self) -> Vec<(IntervalId, Interval<i64>)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.n as u32)
            .map(|i| {
                let iv = if rng.gen_bool(self.a) {
                    Interval::point(rng.gen_range(DOMAIN_LO..=DOMAIN_HI))
                } else {
                    let lo = rng.gen_range(DOMAIN_LO..=DOMAIN_HI);
                    let len = rng.gen_range(1..=MAX_LEN);
                    Interval::closed(lo, lo + len)
                };
                (IntervalId(i), iv)
            })
            .collect()
    }

    /// A stream of query points from the paper's key distribution.
    pub fn queries(&self, count: usize) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xdead_beef);
        (0..count)
            .map(|_| rng.gen_range(DOMAIN_LO..=DOMAIN_HI))
            .collect()
    }
}

/// A clustered ("80/20") interval workload: `hot_frac` of the intervals
/// crowd into a region occupying 5% of the key domain, the rest spread
/// uniformly. The paper evaluates uniform keys only; rule bases in
/// practice cluster (many rules watch the same thresholds), so the skew
/// experiment checks that nothing degrades super-logarithmically.
#[derive(Debug, Clone, Copy)]
pub struct ClusteredWorkload {
    /// Number of intervals.
    pub n: usize,
    /// Fraction of intervals landing in the hot region.
    pub hot_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ClusteredWorkload {
    /// The hot region: 5% of the domain, centered.
    const HOT_LO: i64 = 4_750;
    const HOT_HI: i64 = 5_250;

    /// Generates the interval set.
    pub fn intervals(&self) -> Vec<(IntervalId, Interval<i64>)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.n as u32)
            .map(|i| {
                let (lo_range, max_len) = if rng.gen_bool(self.hot_frac) {
                    (Self::HOT_LO..=Self::HOT_HI, 100)
                } else {
                    (DOMAIN_LO..=DOMAIN_HI, MAX_LEN)
                };
                let lo = rng.gen_range(lo_range);
                let len = rng.gen_range(1..=max_len);
                (IntervalId(i), Interval::closed(lo, lo + len))
            })
            .collect()
    }

    /// Queries skewed the same way: most probes hit the hot region.
    pub fn queries(&self, count: usize) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xabcd);
        (0..count)
            .map(|_| {
                if rng.gen_bool(self.hot_frac) {
                    rng.gen_range(Self::HOT_LO..=Self::HOT_HI)
                } else {
                    rng.gen_range(DOMAIN_LO..=DOMAIN_HI)
                }
            })
            .collect()
    }
}

/// Batch-matching workload for the sharded-index ablation: `relations`
/// relations (named `r0..`), each carrying a §5.2-shaped predicate set,
/// and batches of `(relation, tuple)` pairs interleaved across them in
/// random order — the shape of an event queue drained between rule
/// firings. With `relations = 1` this degenerates to the paper's
/// single-relation §5.2 scenario (every tuple hits one shard, so any
/// speedup comes purely from concurrent readers on that shard's lock).
#[derive(Debug, Clone, Copy)]
pub struct BatchWorkload {
    /// Number of relations the batch spreads across.
    pub relations: usize,
    /// Per-relation predicate-set shape (§5.2 defaults).
    pub scheme: SchemeWorkload,
}

impl BatchWorkload {
    /// The §5.2 scenario spread over `relations` relations.
    pub fn new(relations: usize) -> Self {
        BatchWorkload {
            relations: relations.max(1),
            scheme: SchemeWorkload::default(),
        }
    }

    /// Name of relation `i`.
    pub fn relation_name(i: usize) -> String {
        format!("r{i}")
    }

    /// Builds the database: `relations` copies of the scenario schema.
    pub fn database(&self) -> Database {
        let mut db = Database::new();
        for i in 0..self.relations {
            let mut b = Schema::builder(Self::relation_name(i));
            for a in 0..self.scheme.attrs {
                b = b.attr(format!("a{a}"), AttrType::Int);
            }
            db.create_relation(b.build()).expect("fresh relation");
        }
        db
    }

    /// The full predicate set: one §5.2-shaped set per relation, each
    /// drawn from its own seed so the sets differ.
    pub fn predicates(&self) -> Vec<Predicate> {
        (0..self.relations)
            .flat_map(|i| {
                let scheme = SchemeWorkload {
                    seed: self.scheme.seed.wrapping_add(i as u64),
                    ..self.scheme
                };
                let name = Self::relation_name(i);
                scheme
                    .predicates()
                    .into_iter()
                    .map(move |p| Predicate::new(&name, p.clauses().to_vec()))
            })
            .collect()
    }

    /// A batch of `count` `(relation name, tuple)` pairs: tuples from
    /// the scenario domain, spread evenly over the relations, shuffled
    /// so shard access is interleaved rather than run-length sorted.
    pub fn batch(&self, count: usize) -> Vec<(String, Tuple)> {
        let mut rng = StdRng::seed_from_u64(self.scheme.seed ^ 0xba7c);
        let mut out: Vec<(String, Tuple)> = (0..count)
            .map(|i| {
                let tuple = Tuple::new(
                    (0..self.scheme.attrs)
                        .map(|_| Value::Int(rng.gen_range(1..=crate::scheme::DOMAIN)))
                        .collect(),
                );
                (Self::relation_name(i % self.relations), tuple)
            })
            .collect();
        out.shuffle(&mut rng);
        out
    }
}

/// A non-overlapping interval set of size `n` (the §5.1 O(N)-marker best
/// case: disjoint intervals).
pub fn disjoint_intervals(n: usize) -> Vec<(IntervalId, Interval<i64>)> {
    (0..n as u32)
        .map(|i| {
            let base = i as i64 * 10;
            (IntervalId(i), Interval::closed(base, base + 6))
        })
        .collect()
}

/// A heavily nested interval set of size `n` (a worst case for marker
/// count: every interval overlaps every other).
pub fn nested_intervals(n: usize) -> Vec<(IntervalId, Interval<i64>)> {
    (0..n as u32)
        .map(|i| {
            let k = i as i64;
            (IntervalId(i), Interval::closed(-k, k))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_respected() {
        for (a, lo, hi) in [(0.0, 0, 0), (0.5, 350, 650), (1.0, 1000, 1000)] {
            let w = FigureWorkload {
                n: 1000,
                a,
                seed: 1,
            };
            let points = w.intervals().iter().filter(|(_, iv)| iv.is_point()).count();
            assert!(
                (lo..=hi).contains(&points),
                "a={a}: {points} points outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w = FigureWorkload {
            n: 50,
            a: 0.5,
            seed: 9,
        };
        assert_eq!(w.intervals(), w.intervals());
        assert_eq!(w.queries(10), w.queries(10));
        let other = FigureWorkload {
            n: 50,
            a: 0.5,
            seed: 10,
        };
        assert_ne!(w.intervals(), other.intervals());
    }

    #[test]
    fn endpoints_in_domain() {
        let w = FigureWorkload {
            n: 500,
            a: 0.3,
            seed: 2,
        };
        for (_, iv) in w.intervals() {
            let lo = iv.lo().value().copied().unwrap();
            let hi = iv.hi().value().copied().unwrap();
            assert!((DOMAIN_LO..=DOMAIN_HI).contains(&lo));
            assert!(hi <= DOMAIN_HI + MAX_LEN);
            assert!(hi - lo <= MAX_LEN);
        }
    }

    #[test]
    fn clustered_respects_hot_fraction() {
        let w = ClusteredWorkload {
            n: 2000,
            hot_frac: 0.8,
            seed: 3,
        };
        let hot = w
            .intervals()
            .iter()
            .filter(|(_, iv)| {
                let lo = iv.lo().value().copied().unwrap();
                (4_750..=5_250).contains(&lo)
            })
            .count();
        assert!((1_400..=1_800).contains(&hot), "hot = {hot}");
        assert_eq!(w.intervals(), w.intervals(), "deterministic");
    }

    #[test]
    fn batch_workload_shape() {
        use predindex::{Matcher, PredicateIndex, ShardedPredicateIndex};

        let w = BatchWorkload::new(4);
        let db = w.database();
        let preds = w.predicates();
        assert_eq!(preds.len(), 4 * w.scheme.predicates);

        let mut seq = PredicateIndex::new();
        let sharded = ShardedPredicateIndex::new();
        for p in preds {
            seq.insert(p.clone(), db.catalog()).unwrap();
            sharded.insert_shared(p, db.catalog()).unwrap();
        }

        let batch = w.batch(200);
        assert_eq!(batch.len(), 200);
        // Evenly spread across the four relations.
        for i in 0..4 {
            let name = BatchWorkload::relation_name(i);
            assert_eq!(batch.iter().filter(|(r, _)| *r == name).count(), 50);
        }
        assert_eq!(w.batch(200), batch, "deterministic per seed");

        // The sharded front-end agrees with sequential matching.
        for (r, t) in &batch {
            assert_eq!(sharded.match_tuple(r, t), seq.match_tuple(r, t));
        }
    }

    #[test]
    fn disjoint_really_disjoint() {
        let ivs = disjoint_intervals(100);
        for w in ivs.windows(2) {
            assert!(!w[0].1.overlaps(&w[1].1));
        }
    }
}
