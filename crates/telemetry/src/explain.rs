//! Match EXPLAIN traces: the Figure 1 path one tuple actually took,
//! with the countable work of each stage — the runtime twin of the
//! paper's §5.2 per-tuple cost breakdown.
//!
//! The types here are deliberately plain (strings and integers): this
//! crate sits below the relational stack, so the index layers fill a
//! [`MatchTrace`] in and attach their own meaning to the ids.

use std::fmt;

/// One per-attribute IBS-tree stab.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StabTrace {
    /// Schema position of the stabbed attribute.
    pub attr: usize,
    /// Attribute name when the caller knows the schema (else `#n`).
    pub attr_name: String,
    /// Display form of the tuple value driving the stab.
    pub value: String,
    /// Endpoint nodes visited on the search path.
    pub nodes_visited: u64,
    /// Marks collected across all visited slots.
    pub marks_scanned: u64,
    /// Marks collected from `<` slots (descended left).
    pub less_hits: u64,
    /// Marks collected from `=` slots (exact endpoint hit).
    pub eq_hits: u64,
    /// Marks collected from `>` slots (descended right).
    pub greater_hits: u64,
    /// Universal intervals `(-inf, +inf)` reported unconditionally.
    pub universal_hits: u64,
    /// Intervals indexed in this attribute's tree.
    pub tree_intervals: usize,
    /// Height of this attribute's tree.
    pub tree_height: u32,
}

/// One residual (full-conjunction) test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidualTrace {
    /// The partially matched predicate's id.
    pub predicate: u32,
    /// Did the full conjunction hold?
    pub pass: bool,
    /// Source text of the predicate, when it has one.
    pub source: String,
}

/// The full Figure 1 path for one tuple: hash → per-attribute stabs →
/// non-indexable list → residual tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MatchTrace {
    /// Relation the tuple belongs to.
    pub relation: String,
    /// Display form of the tuple.
    pub tuple: String,
    /// Which shard the relation hashed to (sharded front-end only).
    pub shard: Option<usize>,
    /// Did the relation-name hash find a second-level index?
    pub relation_indexed: bool,
    /// Per-attribute stab work, ordered by attribute.
    pub stabs: Vec<StabTrace>,
    /// Clause sets the non-indexable sweep tested (one test each, shared
    /// by every predicate in the set).
    pub non_indexable_scanned: usize,
    /// Predicates those clause sets cover: the last entries of
    /// `residual`, each carrying its set's outcome.
    pub non_indexable_predicates: usize,
    /// Every predicate with an outcome: the tree candidates in
    /// partial-match order, then the members of each swept clause set.
    pub residual: Vec<ResidualTrace>,
    /// Beta-layer (join memo) narration, one line per step — filled by
    /// engines that route alpha matches into a join layer; empty when
    /// no join conditions are involved.
    pub join_steps: Vec<String>,
}

impl MatchTrace {
    /// Size of the partial-match set: every predicate with an outcome.
    pub fn partial_matches(&self) -> usize {
        self.residual.len()
    }

    /// Tests actually run: one per tree candidate plus one per swept
    /// clause set (what `predindex_residual_tests_total` counts).
    pub fn residual_tests(&self) -> usize {
        self.residual.len() - self.non_indexable_predicates + self.non_indexable_scanned
    }

    /// Ids that survived the residual test.
    pub fn matched(&self) -> Vec<u32> {
        self.residual
            .iter()
            .filter(|r| r.pass)
            .map(|r| r.predicate)
            .collect()
    }

    /// Total IBS-tree nodes visited across all stabs (the paper's
    /// "IBS-tree search cost" term, in countable form).
    pub fn nodes_visited(&self) -> u64 {
        self.stabs.iter().map(|s| s.nodes_visited).sum()
    }

    /// Total marks examined across all stabs.
    pub fn marks_scanned(&self) -> u64 {
        self.stabs.iter().map(|s| s.marks_scanned).sum()
    }
}

impl fmt::Display for MatchTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXPLAIN match {}{}", self.relation, self.tuple)?;
        match self.shard {
            Some(s) => writeln!(
                f,
                "  1. relation hash     {:12} -> shard {s}, {}",
                self.relation,
                if self.relation_indexed {
                    "second-level index found"
                } else {
                    "no predicates registered"
                }
            )?,
            None => writeln!(
                f,
                "  1. relation hash     {:12} -> {}",
                self.relation,
                if self.relation_indexed {
                    "second-level index found"
                } else {
                    "no predicates registered"
                }
            )?,
        }
        if self.stabs.is_empty() {
            writeln!(f, "  2. IBS-tree stabs    (no attribute trees)")?;
        } else {
            writeln!(f, "  2. IBS-tree stabs")?;
            for s in &self.stabs {
                writeln!(
                    f,
                    "       attr {:10} = {:>8}: {} nodes visited, {} marks \
                     (<:{} =:{} >:{} inf:{}) of {} intervals, height {}",
                    s.attr_name,
                    s.value,
                    s.nodes_visited,
                    s.marks_scanned,
                    s.less_hits,
                    s.eq_hits,
                    s.greater_hits,
                    s.universal_hits,
                    s.tree_intervals,
                    s.tree_height,
                )?;
            }
        }
        writeln!(
            f,
            "  3. non-indexable     {} predicate(s) swept in {} clause set test(s)",
            self.non_indexable_predicates, self.non_indexable_scanned
        )?;
        let passed = self.residual.iter().filter(|r| r.pass).count();
        writeln!(
            f,
            "  4. residual tests    {} partial match(es) -> {} full match(es)",
            self.partial_matches(),
            passed
        )?;
        for r in &self.residual {
            writeln!(
                f,
                "       #{:<4} {}  {}",
                r.predicate,
                if r.pass { "PASS" } else { "fail" },
                r.source
            )?;
        }
        if !self.join_steps.is_empty() {
            writeln!(f, "  5. join memo (beta layer)")?;
            for step in &self.join_steps {
                writeln!(f, "       {step}")?;
            }
        }
        // The §5.2 accounting: one line per cost-model term, in units
        // of countable work instead of 1989 milliseconds.
        writeln!(
            f,
            "  cost: hash=1  ibs_nodes={}  marks={}  seq_tests={}  residual_tests={}",
            self.nodes_visited(),
            self.marks_scanned(),
            self.non_indexable_scanned,
            self.residual_tests(),
        )
    }
}
