//! Introspection over a [`PredicateIndex`](crate::PredicateIndex) or
//! [`ShardedPredicateIndex`](crate::ShardedPredicateIndex): the
//! Figure 1 structure as live diagnostics. Useful for operators ("why
//! is matching slow on this relation?", "are my shards balanced?") and
//! for the benchmark harness's space reporting. The snapshots are
//! taken by the index core; this module holds their shapes.

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
    /// live only in the PREDICATES table).
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

/// Per-shard diagnostics for a
/// [`ShardedPredicateIndex`](crate::ShardedPredicateIndex): which
/// relations a shard owns and how much structure sits behind its lock.
/// A heavily skewed `predicates` distribution means most write traffic
/// contends on one lock (reads still scale: `RwLock` admits parallel
/// readers).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard number (`0..shard_count`).
    pub shard: usize,
    /// Predicates stored in this shard (including unsatisfiable ones).
    pub predicates: usize,
    /// This shard's predicate count relative to the per-shard mean:
    /// 1.0 everywhere is a perfectly balanced index, `shard_count` is
    /// the worst case (every predicate behind one lock), and 0.0 is an
    /// idle shard. A completely empty index is trivially balanced, so
    /// every shard reports 1.0 rather than a 0/0 skew ratio.
    pub imbalance: f64,
    /// Relations hashed to this shard, sorted by name.
    pub relations: Vec<RelationStats>,
}

impl fmt::Display for ShardStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}: {} predicates ({:.2}x mean), {} relations",
            self.shard,
            self.predicates,
            self.imbalance,
            self.relations.len()
        )
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
    fn sharded_stats_merge_shards() {
        let mut db = Database::new();
        for name in ["emp", "dept", "proj"] {
            db.create_relation(Schema::builder(name).attr("a", AttrType::Int).build())
                .unwrap();
        }
        let sharded = crate::ShardedPredicateIndex::with_shards(4);
        for (rel, lo) in [("emp", 1), ("emp", 2), ("dept", 3), ("proj", 4)] {
            sharded
                .insert_shared(
                    parse_predicate(&format!("{rel}.a > {lo}")).unwrap(),
                    db.catalog(),
                )
                .unwrap();
        }

        let per_shard = sharded.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().map(|s| s.predicates).sum::<usize>(), 4);
        assert!(per_shard[0].to_string().starts_with("shard 0:"));

        let merged = sharded.stats();
        assert_eq!(merged.predicates, 4);
        assert_eq!(
            merged
                .relations
                .iter()
                .map(|r| r.relation.as_str())
                .collect::<Vec<_>>(),
            vec!["dept", "emp", "proj"],
        );
        assert_eq!(merged.total_trees(), 3);
    }

    #[test]
    fn skewed_workload_reports_imbalance() {
        // Every predicate names the same relation, so they all hash to
        // one shard: that shard's imbalance must be the worst case
        // (shard_count x the mean) and every other shard must be idle.
        let mut db = Database::new();
        db.create_relation(Schema::builder("emp").attr("a", AttrType::Int).build())
            .unwrap();
        let sharded = crate::ShardedPredicateIndex::with_shards(4);
        for lo in 0..12 {
            sharded
                .insert_shared(
                    parse_predicate(&format!("emp.a > {lo}")).unwrap(),
                    db.catalog(),
                )
                .unwrap();
        }

        let stats = sharded.shard_stats();
        let hot = stats
            .iter()
            .find(|s| s.predicates == 12)
            .expect("hot shard");
        assert_eq!(hot.imbalance, 4.0);
        for s in &stats {
            if s.shard != hot.shard {
                assert_eq!(s.predicates, 0);
                assert_eq!(s.imbalance, 0.0);
            }
        }
        assert!(hot.to_string().contains("(4.00x mean)"));
    }

    #[test]
    fn balanced_workload_has_unit_imbalance() {
        let mut db = Database::new();
        for name in ["emp", "dept", "proj", "acct"] {
            db.create_relation(Schema::builder(name).attr("a", AttrType::Int).build())
                .unwrap();
        }
        // One shard holds everything when only one shard exists.
        let one = crate::ShardedPredicateIndex::with_shards(1);
        for rel in ["emp", "dept", "proj", "acct"] {
            one.insert_shared(
                parse_predicate(&format!("{rel}.a > 0")).unwrap(),
                db.catalog(),
            )
            .unwrap();
        }
        let stats = one.shard_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].imbalance, 1.0);
    }

    #[test]
    fn empty_index_is_trivially_balanced() {
        // 0 predicates over N shards is perfect balance, not skew:
        // every shard must report the balanced value 1.0.
        let sharded = crate::ShardedPredicateIndex::with_shards(4);
        for s in sharded.shard_stats() {
            assert_eq!(s.predicates, 0);
            assert_eq!(s.imbalance, 1.0);
        }
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
