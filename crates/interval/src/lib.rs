//! Interval algebra shared by every index structure in this workspace.
//!
//! The paper (Hanson et al., SIGMOD 1990, §1) defines range predicate
//! clauses of the form `const1 ρ1 t.attribute ρ2 const2` where each ρ is
//! one of `<` or `≤`, equality clauses `t.attribute = const`, and open
//! intervals obtained by setting an endpoint to ±∞. This crate models
//! exactly that family: an [`Interval`] over any totally ordered domain,
//! with independently open, closed, or unbounded endpoints.
//!
//! No numeric assumptions are made — any `K: Ord + Clone` works, which is
//! the property the paper highlights for the IBS-tree over priority search
//! trees ("IBS-trees work without modification on any totally ordered
//! domain for which the comparison operators {<, =, >} are defined").

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod bound;
mod interval;

pub use bound::{Lower, Upper};
pub use interval::{Interval, IntervalError};

/// Identifier for an interval (in the paper's terms: a predicate id stored
/// in the mark slots of IBS-tree nodes). Plain `u32` newtype so mark sets
/// stay small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntervalId(pub u32);

impl IntervalId {
    /// The id as a usize, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for IntervalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}
