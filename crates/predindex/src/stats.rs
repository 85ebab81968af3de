//! Introspection over a [`PredicateIndex`](crate::PredicateIndex): the
//! Figure 1 structure as live diagnostics. Useful for operators ("why
//! is matching slow on this relation?") and for the benchmark harness's
//! space reporting. The snapshots are taken by the index core; this
//! module holds their shapes.

use std::fmt;

/// Per-attribute-tree diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeStats {
    /// Schema position of the attribute.
    pub attr: usize,
    /// Predicates indexed under this attribute.
    pub intervals: usize,
    /// Endpoint nodes in the IBS-tree.
    pub nodes: usize,
    /// Total marks (the §5.1 space metric).
    pub markers: usize,
    /// Tree height.
    pub height: u32,
}

/// Per-relation diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    pub relation: String,
    /// One entry per attribute with an IBS-tree, ordered by attribute.
    pub trees: Vec<TreeStats>,
    /// Predicates on the non-indexable list.
    pub non_indexable: usize,
}

/// Whole-index diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// One entry per relation with registered predicates, sorted by
    /// relation name.
    pub relations: Vec<RelationStats>,
    /// Total registered predicates (including unsatisfiable ones, which
    /// live only in the PREDICATES tables).
    pub predicates: usize,
}

impl IndexStats {
    /// Total marks across every tree.
    pub fn total_markers(&self) -> usize {
        self.relations
            .iter()
            .flat_map(|r| &r.trees)
            .map(|t| t.markers)
            .sum()
    }

    /// Total IBS-trees.
    pub fn total_trees(&self) -> usize {
        self.relations.iter().map(|r| r.trees.len()).sum()
    }
}

impl fmt::Display for IndexStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "predicate index: {} predicates, {} trees, {} markers",
            self.predicates,
            self.total_trees(),
            self.total_markers()
        )?;
        for r in &self.relations {
            writeln!(f, "  {} ({} non-indexable)", r.relation, r.non_indexable)?;
            for t in &r.trees {
                writeln!(
                    f,
                    "    attr #{}: {} intervals, {} nodes, {} markers, height {}",
                    t.attr, t.intervals, t.nodes, t.markers, t.height
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Matcher, PredicateIndex};
    use predicate::parse_predicate;
    use relation::{AttrType, Database, Schema};

    #[test]
    fn stats_reflect_structure() {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .unwrap();
        let mut index = PredicateIndex::new();
        index
            .insert(parse_predicate("emp.age > 30").unwrap(), db.catalog())
            .unwrap();
        index
            .insert(parse_predicate("emp.age < 20").unwrap(), db.catalog())
            .unwrap();
        index
            .insert(parse_predicate("emp.salary = 100").unwrap(), db.catalog())
            .unwrap();
        index
            .insert(parse_predicate("isodd(emp.age)").unwrap(), db.catalog())
            .unwrap();

        let s = index.stats();
        assert_eq!(s.predicates, 4);
        assert_eq!(s.relations.len(), 1);
        let r = &s.relations[0];
        assert_eq!(r.relation, "emp");
        assert_eq!(r.non_indexable, 1);
        assert_eq!(r.trees.len(), 2);
        assert_eq!(r.trees[0].attr, 0);
        assert_eq!(r.trees[0].intervals, 2);
        assert_eq!(r.trees[1].attr, 1);
        assert_eq!(r.trees[1].intervals, 1);
        assert!(s.total_markers() > 0);

        let text = s.to_string();
        assert!(text.contains("4 predicates"));
        assert!(text.contains("emp (1 non-indexable)"));
    }

    #[test]
    fn empty_index_stats() {
        let index = PredicateIndex::new();
        let s = index.stats();
        assert_eq!(s.predicates, 0);
        assert!(s.relations.is_empty());
        assert_eq!(s.total_trees(), 0);
    }
}
