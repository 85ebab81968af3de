//! Multi-relation (join) conditions.
//!
//! A [`JoinCondition`] is one conjunct of a rule condition that
//! references more than one relation: a list of single-relation
//! *premises* (each an ordinary [`Predicate`], so each premise still
//! resolves through the paper's Figure-1 index — the discrimination
//! network's alpha layer) plus a list of cross-relation [`JoinTest`]s
//! (`EMP.dno = DEPT.dno`, `EMP.salary < MGR.salary`, …).
//!
//! Canonical form, established by the parser and preserved by
//! [`JoinCondition::to_source`]:
//!
//! - premises are sorted by relation name (so a reparse of the rendered
//!   source reproduces the same premise order),
//! - every test has `left < right` (operands are swapped and the
//!   operator mirrored if needed), and tests are sorted and deduped.

use crate::predicate::Predicate;
use relation::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of a [`JoinTest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JoinOp {
    /// `=` — the equality joins that key the beta stores.
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl JoinOp {
    /// Mirrored operator, for swapping operand sides.
    pub fn flip(self) -> JoinOp {
        match self {
            JoinOp::Eq => JoinOp::Eq,
            JoinOp::Lt => JoinOp::Gt,
            JoinOp::Le => JoinOp::Ge,
            JoinOp::Gt => JoinOp::Lt,
            JoinOp::Ge => JoinOp::Le,
        }
    }

    /// Evaluates `left op right` under the total value order.
    pub fn holds(self, left: &Value, right: &Value) -> bool {
        let ord = left.cmp(right);
        match self {
            JoinOp::Eq => ord == Ordering::Equal,
            JoinOp::Lt => ord == Ordering::Less,
            JoinOp::Le => ord != Ordering::Greater,
            JoinOp::Gt => ord == Ordering::Greater,
            JoinOp::Ge => ord != Ordering::Less,
        }
    }

    /// Source spelling.
    pub fn source(self) -> &'static str {
        match self {
            JoinOp::Eq => "=",
            JoinOp::Lt => "<",
            JoinOp::Le => "<=",
            JoinOp::Gt => ">",
            JoinOp::Ge => ">=",
        }
    }
}

impl fmt::Display for JoinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.source())
    }
}

/// One cross-relation comparison between two premises of a
/// [`JoinCondition`]. `left` and `right` index the condition's premise
/// list; the canonical form has `left < right`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinTest {
    /// Premise index of the left operand.
    pub left: usize,
    /// Attribute of the left premise's relation.
    pub left_attr: String,
    /// Comparison operator.
    pub op: JoinOp,
    /// Premise index of the right operand.
    pub right: usize,
    /// Attribute of the right premise's relation.
    pub right_attr: String,
}

/// A multi-relation conjunct: N single-relation premises joined by
/// cross-relation tests. Premises with no clauses (relations mentioned
/// only in tests) are represented as clause-less [`Predicate`]s, which
/// match every tuple of their relation.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCondition {
    premises: Vec<Predicate>,
    tests: Vec<JoinTest>,
}

impl JoinCondition {
    /// Builds a condition from already-canonical parts. The parser is
    /// the usual constructor; this is exposed for programmatic callers
    /// and re-canonicalizes defensively (premises sorted by relation,
    /// tests normalized to `left < right`, sorted, deduped).
    ///
    /// Returns `None` if fewer than two premises remain, a test indexes
    /// out of range, or a test compares a premise with itself.
    pub fn new(mut premises: Vec<Predicate>, tests: Vec<JoinTest>) -> Option<Self> {
        if premises.len() < 2 {
            return None;
        }
        let mut order: Vec<usize> = (0..premises.len()).collect();
        order.sort_by(|&a, &b| premises[a].relation().cmp(premises[b].relation()));
        // old index -> new index
        let mut remap = vec![0usize; premises.len()];
        for (new_ix, &old_ix) in order.iter().enumerate() {
            remap[old_ix] = new_ix;
        }
        premises.sort_by(|a, b| a.relation().cmp(b.relation()));
        for w in premises.windows(2) {
            if w[0].relation() == w[1].relation() {
                return None; // self-joins are not supported
            }
        }
        let mut canon = Vec::with_capacity(tests.len());
        for t in tests {
            if t.left >= remap.len() || t.right >= remap.len() {
                return None;
            }
            let (l, r) = (remap[t.left], remap[t.right]);
            let out = match l.cmp(&r) {
                Ordering::Equal => return None,
                Ordering::Less => JoinTest {
                    left: l,
                    left_attr: t.left_attr,
                    op: t.op,
                    right: r,
                    right_attr: t.right_attr,
                },
                Ordering::Greater => JoinTest {
                    left: r,
                    left_attr: t.right_attr,
                    op: t.op.flip(),
                    right: l,
                    right_attr: t.left_attr,
                },
            };
            canon.push(out);
        }
        canon.sort();
        canon.dedup();
        Some(JoinCondition {
            premises,
            tests: canon,
        })
    }

    /// The single-relation premises, sorted by relation name.
    pub fn premises(&self) -> &[Predicate] {
        &self.premises
    }

    /// The cross-relation tests, canonical (`left < right`, sorted).
    pub fn tests(&self) -> &[JoinTest] {
        &self.tests
    }

    /// Number of premises.
    pub fn arity(&self) -> usize {
        self.premises.len()
    }

    /// Renders the condition back to parser-accepted source. Reparsing
    /// the result reproduces this condition exactly (premises re-sort to
    /// the same order because they are rendered in sorted order).
    ///
    /// Returns `None` if any premise clause is unrepresentable (same
    /// cases as [`Predicate::to_source`], e.g. non-finite floats).
    pub fn to_source(&self) -> Option<String> {
        let mut parts = Vec::new();
        for p in &self.premises {
            if p.clauses().is_empty() {
                continue; // relation is pinned by the tests below
            }
            parts.push(p.to_source()?);
        }
        for t in &self.tests {
            parts.push(format!(
                "{}.{} {} {}.{}",
                self.premises[t.left].relation(),
                t.left_attr,
                t.op.source(),
                self.premises[t.right].relation(),
                t.right_attr,
            ));
        }
        if parts.is_empty() {
            return None;
        }
        Some(parts.join(" and "))
    }
}

/// One conjunct of a parsed rule condition: either a classic
/// single-relation [`Predicate`] or a multi-relation [`JoinCondition`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedCondition {
    /// Single-relation conjunct — everything the paper's §1 grammar
    /// accepts, routed through the Figure-1 index as before.
    Single(Predicate),
    /// Multi-relation conjunct, handled by the join memo layer.
    Join(JoinCondition),
}

impl ParsedCondition {
    /// The contained single-relation predicate, if this is one.
    pub fn as_single(&self) -> Option<&Predicate> {
        match self {
            ParsedCondition::Single(p) => Some(p),
            ParsedCondition::Join(_) => None,
        }
    }

    /// The contained join condition, if this is one.
    pub fn as_join(&self) -> Option<&JoinCondition> {
        match self {
            ParsedCondition::Join(j) => Some(j),
            ParsedCondition::Single(_) => None,
        }
    }
}
