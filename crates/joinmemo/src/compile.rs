//! Premise-chain compilation: a [`JoinCondition`] bound against a
//! catalog.
//!
//! Compilation resolves every premise to a [`BoundPredicate`] (the
//! alpha-layer test, used for seeding and the naive evaluator — at
//! runtime the predicate index performs this test) and lowers every
//! cross-relation [`JoinTest`] into a *step* attached to its right
//! premise: the canonical form has `left < right`, so each premise
//! `j > 0` owns the tests that connect it to earlier premises.
//! Equality steps become the hash keys of the beta stores; ordering
//! steps (`<`, `<=`, `>`, `>=` — the interval joins) are residual
//! filters applied while extending a partial match.

use predicate::{BindError, BoundPredicate, JoinCondition, JoinOp};
use relation::{AttrType, Catalog};
use std::fmt;

/// Compilation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A premise references a relation the catalog does not have.
    NoSuchRelation(String),
    /// A premise failed to bind (bad attribute, type mismatch).
    Bind { relation: String, error: BindError },
    /// A join test references an attribute missing from its relation.
    NoSuchAttribute { relation: String, attr: String },
    /// The two sides of a join test have different attribute types.
    TypeMismatch { left: String, right: String },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoSuchRelation(r) => write!(f, "no relation named {r:?}"),
            CompileError::Bind { relation, error } => {
                write!(f, "premise over {relation:?}: {error}")
            }
            CompileError::NoSuchAttribute { relation, attr } => {
                write!(
                    f,
                    "join test references missing attribute {relation}.{attr}"
                )
            }
            CompileError::TypeMismatch { left, right } => {
                write!(
                    f,
                    "join test compares {left} with {right} (different types)"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// An equality step into premise `right`: partial-match side value
/// `tuples[left_premise][left_attr]` must equal candidate value
/// `tuple[right_attr]`.
#[derive(Debug, Clone)]
pub(crate) struct EqStep {
    pub(crate) left_premise: usize,
    pub(crate) left_attr: usize,
    pub(crate) right_attr: usize,
}

/// A non-equality (interval join) step into premise `right`, applied as
/// a residual filter.
#[derive(Debug, Clone)]
pub(crate) struct ResidualStep {
    pub(crate) left_premise: usize,
    pub(crate) left_attr: usize,
    pub(crate) op: JoinOp,
    pub(crate) right_attr: usize,
}

/// Steps owned by one premise: everything needed to extend a partial
/// match over premises `0..j` with a tuple of premise `j`.
#[derive(Debug, Clone, Default)]
pub(crate) struct PremisePlan {
    pub(crate) eq: Vec<EqStep>,
    pub(crate) residual: Vec<ResidualStep>,
}

/// A join condition compiled against a catalog: bound premises plus
/// per-premise extension plans.
#[derive(Debug, Clone)]
pub struct CompiledJoin {
    pub(crate) cond: JoinCondition,
    alphas: Vec<BoundPredicate>,
    plans: Vec<PremisePlan>,
}

impl CompiledJoin {
    /// Binds `cond` against `catalog`, type-checking every test.
    pub fn compile(cond: &JoinCondition, catalog: &Catalog) -> Result<CompiledJoin, CompileError> {
        let mut alphas = Vec::with_capacity(cond.arity());
        for p in cond.premises() {
            let rel = catalog
                .relation(p.relation())
                .ok_or_else(|| CompileError::NoSuchRelation(p.relation().to_string()))?;
            let bound = p.bind(rel.schema()).map_err(|error| CompileError::Bind {
                relation: p.relation().to_string(),
                error,
            })?;
            alphas.push(bound);
        }
        let mut plans: Vec<PremisePlan> = vec![PremisePlan::default(); cond.arity()];
        for t in cond.tests() {
            let (lix, lty) = resolve(catalog, cond, t.left, &t.left_attr)?;
            let (rix, rty) = resolve(catalog, cond, t.right, &t.right_attr)?;
            if lty != rty {
                return Err(CompileError::TypeMismatch {
                    left: format!(
                        "{}.{} ({lty:?})",
                        cond.premises()[t.left].relation(),
                        t.left_attr
                    ),
                    right: format!(
                        "{}.{} ({rty:?})",
                        cond.premises()[t.right].relation(),
                        t.right_attr
                    ),
                });
            }
            let plan = &mut plans[t.right];
            if t.op == JoinOp::Eq {
                plan.eq.push(EqStep {
                    left_premise: t.left,
                    left_attr: lix,
                    right_attr: rix,
                });
            } else {
                plan.residual.push(ResidualStep {
                    left_premise: t.left,
                    left_attr: lix,
                    op: t.op,
                    right_attr: rix,
                });
            }
        }
        Ok(CompiledJoin {
            cond: cond.clone(),
            alphas,
            plans,
        })
    }

    /// The source-level condition.
    pub fn condition(&self) -> &JoinCondition {
        &self.cond
    }

    /// Number of premises.
    pub fn arity(&self) -> usize {
        self.alphas.len()
    }

    /// Relation of premise `i`.
    pub fn relation(&self, i: usize) -> &str {
        self.cond.premises()[i].relation()
    }

    /// The bound alpha test of premise `i`.
    pub fn alpha(&self, i: usize) -> &BoundPredicate {
        &self.alphas[i]
    }

    pub(crate) fn plan(&self, i: usize) -> &PremisePlan {
        &self.plans[i]
    }
}

fn resolve(
    catalog: &Catalog,
    cond: &JoinCondition,
    premise: usize,
    attr: &str,
) -> Result<(usize, AttrType), CompileError> {
    let rel_name = cond.premises()[premise].relation();
    let rel = catalog
        .relation(rel_name)
        .ok_or_else(|| CompileError::NoSuchRelation(rel_name.to_string()))?;
    let schema = rel.schema();
    let ix = schema
        .attr_index(attr)
        .ok_or_else(|| CompileError::NoSuchAttribute {
            relation: rel_name.to_string(),
            attr: attr.to_string(),
        })?;
    Ok((ix, schema.attributes()[ix].ty))
}
