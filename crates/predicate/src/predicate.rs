//! Conjunctive predicates and their schema-bound, evaluable form.

use crate::clause::Clause;
use interval::Interval;
use relation::{Schema, Tuple, Value};
use std::fmt;

/// A single-relation selection predicate: a conjunction of clauses over
/// one relation's attributes (§1's `P ≡ (t ∈ R) ∧ C1 ∧ … ∧ Cq`).
///
/// Disjunctive conditions are split into several `Predicate`s before
/// they get here ("we assume that any predicate containing a disjunction
/// is broken up into two or more predicates", §1); the parser's
/// [`crate::parse_predicates`] does that split.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    relation: String,
    clauses: Vec<Clause>,
    /// False when range clauses on one attribute intersected to nothing
    /// (`a < 3 and a > 5`): the predicate can never match.
    satisfiable: bool,
}

impl Predicate {
    /// Builds a predicate, folding multiple range clauses on the same
    /// attribute into one interval per attribute.
    pub fn new(relation: impl Into<String>, clauses: Vec<Clause>) -> Self {
        let mut merged: Vec<Clause> = Vec::with_capacity(clauses.len());
        let mut satisfiable = true;
        for clause in clauses {
            match clause {
                Clause::Range { attr, interval } => {
                    let existing = merged.iter_mut().find_map(|c| match c {
                        Clause::Range {
                            attr: a,
                            interval: iv,
                        } if *a == attr => Some(iv),
                        _ => None,
                    });
                    match existing {
                        Some(iv) => match iv.intersect(&interval) {
                            Some(x) => *iv = x,
                            None => satisfiable = false,
                        },
                        None => merged.push(Clause::Range { attr, interval }),
                    }
                }
                func => merged.push(func),
            }
        }
        Predicate {
            relation: relation.into(),
            clauses: merged,
            satisfiable,
        }
    }

    /// An always-false predicate on `relation`.
    pub fn unsatisfiable(relation: impl Into<String>) -> Self {
        Predicate {
            relation: relation.into(),
            clauses: Vec::new(),
            satisfiable: false,
        }
    }

    /// The relation this predicate selects from.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The (normalized) conjunct clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Can the predicate ever match?
    pub fn is_satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// Renders the predicate back to parseable source text (the inverse
    /// of [`crate::parse_predicate`], up to clause normalization).
    /// Returns `None` for unsatisfiable predicates, which have no
    /// clause-level representation, and for constants with no literal
    /// spelling (non-finite floats).
    pub fn to_source(&self) -> Option<String> {
        use interval::{Lower, Upper};
        if !self.satisfiable {
            return None;
        }
        let mut parts = Vec::with_capacity(self.clauses.len());
        for c in &self.clauses {
            match c {
                Clause::Func { name, attr, .. } => {
                    parts.push(format!("{}({}.{})", name, self.relation, attr));
                }
                Clause::Range { attr, interval } => {
                    let a = format!("{}.{}", self.relation, attr);
                    let s = match (interval.lo(), interval.hi()) {
                        // A fully unbounded clause is a tautology with no
                        // source-level spelling.
                        (Lower::Unbounded, Upper::Unbounded) => return None,
                        (Lower::Unbounded, Upper::Inclusive(v)) => {
                            format!("{a} <= {}", source_literal(v)?)
                        }
                        (Lower::Unbounded, Upper::Exclusive(v)) => {
                            format!("{a} < {}", source_literal(v)?)
                        }
                        (Lower::Inclusive(v), Upper::Unbounded) => {
                            format!("{a} >= {}", source_literal(v)?)
                        }
                        (Lower::Exclusive(v), Upper::Unbounded) => {
                            format!("{a} > {}", source_literal(v)?)
                        }
                        (Lower::Inclusive(l), Upper::Inclusive(h)) if l == h => {
                            format!("{a} = {}", source_literal(l)?)
                        }
                        (lo, hi) => {
                            let lop = if lo.is_inclusive() { "<=" } else { "<" };
                            let hop = if hi.is_inclusive() { "<=" } else { "<" };
                            format!(
                                "{} {lop} {a} {hop} {}",
                                source_literal(
                                    lo.value().expect("every Unbounded lo is matched above")
                                )?,
                                source_literal(
                                    hi.value().expect("every Unbounded hi is matched above")
                                )?
                            )
                        }
                    };
                    parts.push(s);
                }
            }
        }
        if parts.is_empty() {
            // A TRUE predicate: emit a tautology on a dummy comparison
            // is impossible without an attribute, so report None.
            return None;
        }
        Some(parts.join(" and "))
    }

    /// Resolves attribute names against `schema` and coerces constants to
    /// the attribute types, producing the evaluable form.
    pub fn bind(&self, schema: &Schema) -> Result<BoundPredicate, BindError> {
        if schema.name() != self.relation {
            return Err(BindError::WrongRelation {
                predicate: self.relation.clone(),
                schema: schema.name().to_string(),
            });
        }
        let mut bound = Vec::with_capacity(self.clauses.len());
        for clause in &self.clauses {
            let attr_name = clause.attr();
            let attr_ix =
                schema
                    .attr_index(attr_name)
                    .ok_or_else(|| BindError::NoSuchAttribute {
                        relation: self.relation.clone(),
                        attr: attr_name.to_string(),
                    })?;
            let ty = schema.attributes()[attr_ix].ty;
            match clause {
                Clause::Range { interval, .. } => {
                    let coerce = |v: &Value| {
                        v.coerce_to(ty).ok_or_else(|| BindError::TypeMismatch {
                            attr: attr_name.to_string(),
                            expected: ty.to_string(),
                            got: v.attr_type().to_string(),
                        })
                    };
                    let lo = match interval.lo() {
                        interval::Lower::Unbounded => interval::Lower::Unbounded,
                        interval::Lower::Inclusive(v) => interval::Lower::Inclusive(coerce(v)?),
                        interval::Lower::Exclusive(v) => interval::Lower::Exclusive(coerce(v)?),
                    };
                    let hi = match interval.hi() {
                        interval::Upper::Unbounded => interval::Upper::Unbounded,
                        interval::Upper::Inclusive(v) => interval::Upper::Inclusive(coerce(v)?),
                        interval::Upper::Exclusive(v) => interval::Upper::Exclusive(coerce(v)?),
                    };
                    match Interval::new(lo, hi) {
                        Ok(iv) => bound.push(BoundClause::Range {
                            attr: attr_ix,
                            interval: iv,
                        }),
                        // Coercion cannot invert a non-empty interval,
                        // but guard anyway.
                        Err(_) => {
                            return Ok(BoundPredicate {
                                relation: self.relation.clone(),
                                clauses: Vec::new(),
                                satisfiable: false,
                            })
                        }
                    }
                }
                Clause::Func { name, func, .. } => bound.push(BoundClause::Func {
                    attr: attr_ix,
                    name: name.clone(),
                    func: func.clone(),
                }),
            }
        }
        Ok(BoundPredicate {
            relation: self.relation.clone(),
            clauses: bound,
            satisfiable: self.satisfiable,
        })
    }
}

/// Renders a constant so the lexer reads back the *same* [`Value`].
/// `Value`'s `Display` is not that inverse on two counts, both of which
/// used to break the recovery round-trip:
///
/// * floats print through `{}`, so `Float(7.0)` became `"7"` and
///   re-parsed as `Int(7)` — `{:?}` always keeps a `.` or an exponent;
///   non-finite floats have no literal spelling at all, hence `Option`;
/// * strings print through Rust's `{:?}`, which escapes control and
///   non-ASCII characters (`\n`, `\u{e9}`) the lexer does not know.
///   The lexer understands exactly two escapes, `\"` and `\\`, and
///   copies every other character verbatim — so that is precisely what
///   gets emitted here.
fn source_literal(v: &Value) -> Option<String> {
    match v {
        Value::Bool(b) => Some(b.to_string()),
        Value::Int(i) => Some(i.to_string()),
        Value::Float(x) => x.is_finite().then(|| format!("{x:?}")),
        Value::Str(s) => {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for ch in s.chars() {
                if ch == '"' || ch == '\\' {
                    out.push('\\');
                }
                out.push(ch);
            }
            out.push('"');
            Some(out)
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.satisfiable {
            return write!(f, "{}: FALSE", self.relation);
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            match c {
                Clause::Range { attr, interval } => {
                    write!(f, "{}.{} in {}", self.relation, attr, interval)?
                }
                Clause::Func { name, attr, .. } => {
                    write!(f, "{}({}.{})", name, self.relation, attr)?
                }
            }
        }
        if self.clauses.is_empty() {
            write!(f, "{}: TRUE", self.relation)?;
        }
        Ok(())
    }
}

/// Errors from [`Predicate::bind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The predicate names a different relation than the schema.
    WrongRelation { predicate: String, schema: String },
    /// The predicate references an attribute the schema lacks.
    NoSuchAttribute { relation: String, attr: String },
    /// A constant cannot be coerced to the attribute type.
    TypeMismatch {
        attr: String,
        expected: String,
        got: String,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::WrongRelation { predicate, schema } => {
                write!(
                    f,
                    "predicate on {predicate:?} bound against schema {schema:?}"
                )
            }
            BindError::NoSuchAttribute { relation, attr } => {
                write!(f, "relation {relation:?} has no attribute {attr:?}")
            }
            BindError::TypeMismatch {
                attr,
                expected,
                got,
            } => write!(f, "attribute {attr}: expected {expected}, got {got}"),
        }
    }
}

impl std::error::Error for BindError {}

/// A schema-resolved clause: attribute by index, constants coerced.
#[derive(Clone)]
pub enum BoundClause {
    /// Range/equality clause.
    Range {
        attr: usize,
        interval: Interval<Value>,
    },
    /// Opaque function clause.
    Func {
        attr: usize,
        name: String,
        func: crate::clause::PredFn,
    },
}

impl BoundClause {
    /// Evaluates the clause against a tuple. A clause over an attribute
    /// the tuple does not carry (arity shorter than the bound schema,
    /// e.g. a projected tuple) holds for no value, so it is `false`
    /// rather than a panic.
    pub fn test(&self, tuple: &Tuple) -> bool {
        match self {
            BoundClause::Range { attr, interval } => tuple
                .values()
                .get(*attr)
                .is_some_and(|v| interval.contains(v)),
            BoundClause::Func { attr, func, .. } => {
                tuple.values().get(*attr).is_some_and(|v| func(v))
            }
        }
    }
}

impl fmt::Debug for BoundClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundClause::Range { attr, interval } => {
                write!(f, "Range(#{attr} in {interval})")
            }
            BoundClause::Func { attr, name, .. } => write!(f, "Func({name}(#{attr}))"),
        }
    }
}

/// The evaluable form of a predicate: what the paper's `PREDICATES`
/// table stores and what runs during the residual full-match test.
#[derive(Debug, Clone)]
pub struct BoundPredicate {
    relation: String,
    clauses: Vec<BoundClause>,
    satisfiable: bool,
}

impl BoundPredicate {
    /// The relation this predicate selects from.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The bound clauses.
    pub fn clauses(&self) -> &[BoundClause] {
        &self.clauses
    }

    /// The bound clauses, moved out (satisfiability is the caller's to
    /// have checked first).
    pub fn into_clauses(self) -> Vec<BoundClause> {
        self.clauses
    }

    /// Can the predicate ever match?
    pub fn is_satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// Does the full conjunction hold for `tuple`?
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.satisfiable && self.clauses.iter().all(|c| c.test(tuple))
    }

    /// Scans a relation for every tuple the predicate matches — the
    /// query-side inverse of tuple-driven matching. Used when a rule is
    /// registered retroactively and must fire on facts already in the
    /// database.
    pub fn scan<'a>(
        &'a self,
        relation: &'a relation::Relation,
    ) -> impl Iterator<Item = (relation::TupleId, &'a Tuple)> + 'a {
        relation.iter().filter(|(_, t)| self.matches(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::AttrType;
    use std::sync::Arc;

    fn emp_schema() -> Schema {
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("age", AttrType::Int)
            .attr("salary", AttrType::Float)
            .build()
    }

    fn tuple(name: &str, age: i64, salary: f64) -> Tuple {
        Tuple::new(vec![
            Value::str(name),
            Value::Int(age),
            Value::Float(salary),
        ])
    }

    #[test]
    fn merge_same_attribute_ranges() {
        let p = Predicate::new(
            "emp",
            vec![
                Clause::Range {
                    attr: "age".into(),
                    interval: Interval::greater_than(Value::Int(30)),
                },
                Clause::Range {
                    attr: "age".into(),
                    interval: Interval::at_most(Value::Int(40)),
                },
            ],
        );
        assert_eq!(p.clauses().len(), 1);
        assert!(p.is_satisfiable());
        let b = p.bind(&emp_schema()).unwrap();
        assert!(b.matches(&tuple("a", 35, 1.0)));
        assert!(!b.matches(&tuple("a", 30, 1.0)));
        assert!(b.matches(&tuple("a", 40, 1.0)));
        assert!(!b.matches(&tuple("a", 41, 1.0)));
    }

    #[test]
    fn contradictory_ranges_are_unsatisfiable() {
        let p = Predicate::new(
            "emp",
            vec![
                Clause::Range {
                    attr: "age".into(),
                    interval: Interval::less_than(Value::Int(3)),
                },
                Clause::Range {
                    attr: "age".into(),
                    interval: Interval::greater_than(Value::Int(5)),
                },
            ],
        );
        assert!(!p.is_satisfiable());
        let b = p.bind(&emp_schema()).unwrap();
        assert!(!b.matches(&tuple("a", 1, 1.0)));
        assert!(!b.matches(&tuple("a", 10, 1.0)));
    }

    #[test]
    fn bind_coerces_int_literal_to_float_attr() {
        let p = Predicate::new(
            "emp",
            vec![Clause::Range {
                attr: "salary".into(),
                interval: Interval::less_than(Value::Int(20_000)),
            }],
        );
        let b = p.bind(&emp_schema()).unwrap();
        assert!(b.matches(&tuple("a", 30, 19_999.5)));
        assert!(!b.matches(&tuple("a", 30, 20_000.0)));
    }

    #[test]
    fn bind_errors() {
        let wrong_rel = Predicate::new("dept", vec![]);
        assert!(matches!(
            wrong_rel.bind(&emp_schema()),
            Err(BindError::WrongRelation { .. })
        ));

        let no_attr = Predicate::new(
            "emp",
            vec![Clause::Range {
                attr: "bogus".into(),
                interval: Interval::point(Value::Int(1)),
            }],
        );
        assert!(matches!(
            no_attr.bind(&emp_schema()),
            Err(BindError::NoSuchAttribute { .. })
        ));

        let bad_type = Predicate::new(
            "emp",
            vec![Clause::Range {
                attr: "age".into(),
                interval: Interval::point(Value::str("x")),
            }],
        );
        assert!(matches!(
            bad_type.bind(&emp_schema()),
            Err(BindError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn conjunction_with_function_clause() {
        // The paper's example: IsOdd(EMP.age) and EMP.dept = "Shoe"
        // (dept stands in as name here).
        let p = Predicate::new(
            "emp",
            vec![
                Clause::Func {
                    name: "isodd".into(),
                    attr: "age".into(),
                    func: Arc::new(|v| matches!(v, Value::Int(i) if i % 2 != 0)),
                },
                Clause::Range {
                    attr: "name".into(),
                    interval: Interval::point(Value::str("shoe")),
                },
            ],
        );
        let b = p.bind(&emp_schema()).unwrap();
        assert!(b.matches(&tuple("shoe", 3, 0.0)));
        assert!(!b.matches(&tuple("shoe", 4, 0.0)));
        assert!(!b.matches(&tuple("hat", 3, 0.0)));
    }

    #[test]
    fn empty_conjunction_matches_everything() {
        let p = Predicate::new("emp", vec![]);
        let b = p.bind(&emp_schema()).unwrap();
        assert!(b.matches(&tuple("x", 0, 0.0)));
    }

    #[test]
    fn to_source_keeps_float_literals_float() {
        // Regression: `Display` prints `Float(7.0)` as `7`, which
        // re-parsed as `Int(7)` — a typed round-trip failure the
        // recovery path would inherit.
        let p = Predicate::new(
            "emp",
            vec![Clause::Range {
                attr: "salary".into(),
                interval: Interval::point(Value::Float(7.0)),
            }],
        );
        assert_eq!(p.to_source().unwrap(), "emp.salary = 7.0");
        let reparsed = crate::parse_predicate(&p.to_source().unwrap()).unwrap();
        assert_eq!(reparsed, p);
    }

    #[test]
    fn to_source_escapes_only_what_the_lexer_reads() {
        // Strings with control/unicode characters must not go through
        // Rust's `{:?}` escaping (the lexer knows only `\"` and `\\`).
        for s in ["new\nline", "héllo", "q\"uote", "back\\slash", "\t éß\""] {
            let p = Predicate::new(
                "emp",
                vec![Clause::Range {
                    attr: "name".into(),
                    interval: Interval::point(Value::str(s)),
                }],
            );
            let src = p.to_source().unwrap();
            let reparsed = crate::parse_predicate(&src)
                .unwrap_or_else(|e| panic!("reparse of {src:?} failed: {e}"));
            assert_eq!(reparsed, p, "via {src:?}");
        }
    }

    #[test]
    fn to_source_refuses_non_finite_floats() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = Predicate::new(
                "emp",
                vec![Clause::Range {
                    attr: "salary".into(),
                    interval: Interval::at_most(Value::Float(x)),
                }],
            );
            assert_eq!(p.to_source(), None, "{x} has no literal spelling");
        }
    }

    #[test]
    fn display() {
        let p = Predicate::new(
            "emp",
            vec![Clause::Range {
                attr: "age".into(),
                interval: Interval::greater_than(Value::Int(50)),
            }],
        );
        assert_eq!(p.to_string(), "emp.age in (50, +inf)");
        assert_eq!(Predicate::unsatisfiable("emp").to_string(), "emp: FALSE");
    }
}
