//! Clause selectivity estimation.
//!
//! The indexing scheme needs a *ranking* of a predicate's indexable
//! clauses: "if there is an indexable clause, the most selective one is
//! placed in the IBS-tree (selectivity estimates are obtained from the
//! query optimizer)" (§4). The estimates are System-R's defaults by
//! clause shape. Placement only compares the clauses of one predicate,
//! so an estimate needs the right order, not the right size.

use crate::predicate::{BoundClause, BoundPredicate};
use relation::Catalog;

/// Default selectivities in the spirit of Selinger et al. \[S\*79\]:
/// equality is assumed rarest, a two-sided range next, a one-sided
/// range broadest.
mod defaults {
    /// `attr = c`.
    pub(super) const EQUALITY: f64 = 0.01;
    /// `c1 ≤ attr ≤ c2`.
    pub(super) const CLOSED_RANGE: f64 = 0.05;
    /// `attr ≤ c` / `attr ≥ c`.
    pub(super) const OPEN_RANGE: f64 = 0.33;
}

/// Estimated fraction of tuples a bound clause admits.
pub fn clause_selectivity(clause: &BoundClause) -> f64 {
    match clause {
        BoundClause::Range { interval, .. } if interval.is_point() => defaults::EQUALITY,
        BoundClause::Range { interval, .. } => {
            match (interval.lo().value(), interval.hi().value()) {
                (Some(_), Some(_)) => defaults::CLOSED_RANGE,
                (None, None) => 1.0,
                _ => defaults::OPEN_RANGE,
            }
        }
        // Nothing is known about opaque functions; assume they filter
        // like a one-sided range. They are never indexed anyway.
        BoundClause::Func { .. } => defaults::OPEN_RANGE,
    }
}

/// The position of the most selective *indexable* clause of a predicate,
/// or `None` if every clause is an opaque function (the predicate then
/// goes to the non-indexable list of Figure 1). Of clauses that tie, the
/// first one written is placed.
///
/// `_catalog` is not read, since the estimates depend only on clause
/// shape. It stays in the signature because the benchmark's mirror of
/// the index (`benchmark/src/mirror.rs`) calls this function with it.
pub fn most_selective_indexable(_catalog: &Catalog, pred: &BoundPredicate) -> Option<usize> {
    pred.clauses()
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, BoundClause::Range { .. }))
        .min_by(|(_, a), (_, b)| clause_selectivity(a).total_cmp(&clause_selectivity(b)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_predicate;
    use interval::Interval;
    use relation::{AttrType, Schema, Value};

    /// The clause `src` places, bound over `emp(age, salary)`.
    fn placed(src: &str) -> Option<usize> {
        let schema = Schema::builder("emp")
            .attr("age", AttrType::Int)
            .attr("salary", AttrType::Int)
            .build();
        let p = parse_predicate(src).unwrap().bind(&schema).unwrap();
        most_selective_indexable(&Catalog::new(), &p)
    }

    #[test]
    fn equality_beats_range() {
        assert_eq!(placed("emp.age = 30 and emp.salary > 10000"), Some(0));
    }

    #[test]
    fn narrow_range_beats_wide_range() {
        assert_eq!(
            placed("emp.age > 21 and 10000 <= emp.salary <= 11000"),
            Some(1)
        );
    }

    #[test]
    fn all_function_clauses_is_none() {
        assert_eq!(placed("isodd(emp.age)"), None);
    }

    #[test]
    fn defaults_without_stats() {
        // Equality ranks over a range wherever it is written ...
        assert_eq!(placed("emp.salary > 10000 and emp.age = 30"), Some(1));
        // ... and of two clauses of one shape, the first written is
        // placed, whichever attribute it names.
        assert_eq!(placed("emp.age < 5 and emp.salary > 3"), Some(0));
        assert_eq!(placed("emp.salary > 3 and emp.age < 5"), Some(0));
    }

    #[test]
    fn defaults_rank_sensibly() {
        let range = |interval| clause_selectivity(&BoundClause::Range { attr: 0, interval });
        let eq = range(Interval::point(Value::Int(1)));
        let closed = range(Interval::closed(Value::Int(1), Value::Int(5)));
        let open = range(Interval::at_least(Value::Int(1)));
        assert!(eq < closed && closed < open);
    }
}
