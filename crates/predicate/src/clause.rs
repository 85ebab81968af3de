//! Predicate clauses, exactly the three forms of §1:
//!
//! ```text
//! C ≡ const1 ρ1 t.attribute ρ2 const2      (range, ρ ∈ {<, ≤})
//! C ≡ t.attribute = const                  (equality)
//! C ≡ function(t.attribute)                (opaque boolean function)
//! ```
//!
//! Equality is represented as a degenerate (point) range, as the paper
//! notes ("equality predicates are a special case of interval
//! predicates"); open-ended comparisons set one endpoint to ±∞.

use interval::Interval;
use relation::Value;
use std::fmt;
use std::sync::Arc;

/// An opaque attribute test: "nothing is assumed about the function
/// except that it returns true or false" (§1). Such clauses are never
/// indexable and land on the per-relation non-indexable list.
pub type PredFn = Arc<dyn Fn(&Value) -> bool + Send + Sync>;

/// One conjunct of a predicate.
#[derive(Clone)]
pub enum Clause {
    /// A range or equality clause on one attribute.
    Range {
        /// Attribute name within the predicate's relation.
        attr: String,
        /// The admitted value interval.
        interval: Interval<Value>,
    },
    /// An opaque function clause on one attribute.
    Func {
        /// Function name (for display/equality).
        name: String,
        /// Attribute name the function is applied to.
        attr: String,
        /// The test itself.
        func: PredFn,
    },
}

impl Clause {
    /// The attribute this clause restricts.
    pub fn attr(&self) -> &str {
        match self {
            Clause::Range { attr, .. } | Clause::Func { attr, .. } => attr,
        }
    }

    /// Is this a range/equality clause an IBS-tree can index?
    pub fn is_indexable(&self) -> bool {
        matches!(self, Clause::Range { .. })
    }

    /// Evaluates the clause against a single attribute value.
    pub fn test(&self, value: &Value) -> bool {
        match self {
            Clause::Range { interval, .. } => interval.contains(value),
            Clause::Func { func, .. } => func(value),
        }
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clause::Range { attr, interval } => {
                write!(f, "Range({attr} in {interval})")
            }
            Clause::Func { name, attr, .. } => write!(f, "Func({name}({attr}))"),
        }
    }
}

impl PartialEq for Clause {
    /// Function clauses compare by `(name, attr)`, not by the function:
    /// two clauses parsed through registries that bind one name to
    /// different functions are equal here. The predicate index does not
    /// use this equality to share work; it groups opaque clauses by
    /// function identity (`Arc` address) plus attribute.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Clause::Range {
                    attr: a1,
                    interval: i1,
                },
                Clause::Range {
                    attr: a2,
                    interval: i2,
                },
            ) => a1 == a2 && i1 == i2,
            (
                Clause::Func {
                    name: n1, attr: a1, ..
                },
                Clause::Func {
                    name: n2, attr: a2, ..
                },
            ) => n1 == n2 && a1 == a2,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_clause_tests_interval() {
        let c = Clause::Range {
            attr: "salary".into(),
            interval: Interval::less_than(Value::Int(20_000)),
        };
        assert!(c.test(&Value::Int(19_999)));
        assert!(!c.test(&Value::Int(20_000)));
        assert!(c.is_indexable());
        assert_eq!(c.attr(), "salary");
    }

    #[test]
    fn func_clause_runs_function() {
        let c = Clause::Func {
            name: "isodd".into(),
            attr: "age".into(),
            func: Arc::new(|v| matches!(v, Value::Int(i) if i % 2 != 0)),
        };
        assert!(c.test(&Value::Int(3)));
        assert!(!c.test(&Value::Int(4)));
        assert!(!c.is_indexable());
    }

    #[test]
    fn equality_via_name_and_attr() {
        let f: PredFn = Arc::new(|_| true);
        let a = Clause::Func {
            name: "f".into(),
            attr: "x".into(),
            func: f.clone(),
        };
        let b = Clause::Func {
            name: "f".into(),
            attr: "x".into(),
            func: Arc::new(|_| false),
        };
        assert_eq!(a, b, "function clauses compare by name and attribute");
    }
}
