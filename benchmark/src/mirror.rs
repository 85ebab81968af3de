//! Mirror instances of the layers below `rules`, for the traced run.
//!
//! `rules::RuleEngine` calls `relation`, `predindex` (which calls
//! `ibs`) and `joinmemo` privately, so their cost cannot be timed from
//! outside on the engine itself. [`Lower`] holds one public instance of
//! each, replays every operation the engine sees — including the
//! cascaded ones its actions report — through the same public calls the
//! engine makes, and records a span around each. The mirrors therefore
//! hold the same predicates, intervals, tuples and memo tokens as the
//! engine, which the work-count cross-checks in the traced run verify.

use crate::trace::{Kind, OpRecord};
use crate::world::{CascadeOp, Op};
use ibs::{BalanceMode, IbsTree, StabStats};
use interval::IntervalId;
use joinmemo::{CompiledJoin, JoinEngine};
use predicate::selectivity::most_selective_indexable;
use predicate::{parse_rule_conditions, BoundClause, ParsedCondition, Predicate};
use predindex::{PredicateId, ShardedPredicateIndex};
use relation::fx::FnvHashMap;
use relation::{Database, Schema, Tuple, TupleEvent, TupleId, Value};

/// Where one mirrored predicate lives.
struct Placed {
    pid: PredicateId,
    /// `(relation, attribute)` of the IBS-tree holding it, if indexed.
    tree: Option<(String, usize)>,
}

struct MirrorRule {
    placed: Vec<Placed>,
    join_keys: Vec<u64>,
}

/// Work counted by the mirrors, to compare with the engine's registry.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub stabs: u64,
    pub nodes: u64,
    pub marks: u64,
    pub join_inserts: u64,
    pub join_retract_calls: u64,
    pub probes: u64,
    pub tokens_retracted: u64,
}

pub struct Lower {
    db: Database,
    index: ShardedPredicateIndex,
    /// relation -> `(attribute, tree)`: the `ibs` mirror of the index's
    /// per-attribute trees.
    trees: FnvHashMap<String, Vec<(usize, IbsTree<Value>)>>,
    joins: JoinEngine,
    premise_of: FnvHashMap<u32, (u64, usize)>,
    rules: FnvHashMap<u32, MirrorRule>,
    next_rule: u32,
    next_join: u64,
    rel_names: Vec<String>,
    matched: Vec<PredicateId>,
    stabbed: Vec<IntervalId>,
    pub work: Work,
}

impl Lower {
    pub fn new(schemas: &[Schema]) -> Self {
        let mut db = Database::new();
        for s in schemas {
            db.create_relation(s.clone())
                .expect("distinct relation names");
        }
        Lower {
            db,
            index: ShardedPredicateIndex::new(),
            trees: FnvHashMap::default(),
            joins: JoinEngine::new(),
            premise_of: FnvHashMap::default(),
            rules: FnvHashMap::default(),
            next_rule: 0,
            next_join: 0,
            rel_names: schemas.iter().map(|s| s.name().to_string()).collect(),
            matched: Vec::new(),
            stabbed: Vec::new(),
            work: Work::default(),
        }
    }

    /// Registers one predicate in the index mirror and, if the index
    /// places it in a tree, in the matching tree mirror.
    fn place(&mut self, pred: Predicate, rec: &mut OpRecord) -> Placed {
        let catalog = self.db.catalog();
        let relation = pred.relation().to_string();
        let bound = pred
            .bind(
                catalog
                    .relation(&relation)
                    .expect("rule names a known relation")
                    .schema(),
            )
            .expect("generated predicate binds");
        // The same choice `predindex` makes (`index::place`).
        let slot = if bound.is_satisfiable() {
            most_selective_indexable(catalog, &bound).map(|cix| match &bound.clauses()[cix] {
                BoundClause::Range { attr, interval } => (*attr, interval.clone()),
                BoundClause::Func { .. } => unreachable!("only range clauses are indexable"),
            })
        } else {
            None
        };
        let index = &self.index;
        let pid = rec.span(Kind::IndexInsert, || {
            index
                .insert_shared(pred, catalog)
                .expect("generated predicate registers")
        });
        let tree = slot.map(|(attr, interval)| {
            let trees = self.trees.entry(relation.clone()).or_default();
            let at = match trees.iter().position(|(a, _)| *a == attr) {
                Some(at) => at,
                None => {
                    trees.push((attr, IbsTree::with_mode(BalanceMode::Avl)));
                    trees.len() - 1
                }
            };
            let tree = &mut trees[at].1;
            rec.span(Kind::IbsInsert, || {
                tree.insert(pid, interval).expect("fresh predicate id")
            });
            (relation, attr)
        });
        Placed { pid, tree }
    }

    /// Mirrors `RuleEngine::add_rule` on `condition`.
    pub fn add_rule(&mut self, condition: &str, rec: &mut OpRecord) -> u32 {
        let parsed = rec.span(Kind::Parse, || {
            parse_rule_conditions(condition).expect("generated condition parses")
        });
        let mut placed = Vec::new();
        let mut joins = Vec::new();
        for cond in parsed {
            match cond {
                ParsedCondition::Single(p) => placed.push(self.place(p, rec)),
                ParsedCondition::Join(j) => joins.push(j),
            }
        }
        let mut join_keys = Vec::new();
        for join in joins {
            let compiled =
                CompiledJoin::compile(&join, self.db.catalog()).expect("generated join compiles");
            let key = self.next_join;
            self.next_join += 1;
            for (premise, p) in join.premises().iter().enumerate() {
                let at = self.place(p.clone(), rec);
                self.premise_of.insert(at.pid.0, (key, premise));
                placed.push(at);
            }
            let (joins, catalog) = (&mut self.joins, self.db.catalog());
            rec.span(Kind::JoinInsert, || {
                joins.register(key, compiled);
                joins.seed(key, catalog);
            });
            join_keys.push(key);
        }
        let id = self.next_rule;
        self.next_rule += 1;
        self.rules.insert(id, MirrorRule { placed, join_keys });
        id
    }

    /// Mirrors `RuleEngine::remove_rule`.
    pub fn remove_rule(&mut self, id: u32, rec: &mut OpRecord) {
        let rule = self.rules.remove(&id).expect("mirror holds the rule");
        for at in rule.placed {
            let index = &self.index;
            rec.span(Kind::IndexRemove, || index.remove_shared(at.pid));
            self.premise_of.remove(&at.pid.0);
            if let Some((relation, attr)) = at.tree {
                let trees = self.trees.get_mut(&relation).expect("tree mirror exists");
                let pos = trees
                    .iter()
                    .position(|(a, _)| *a == attr)
                    .expect("tree mirror exists");
                let tree = &mut trees[pos].1;
                rec.span(Kind::IbsRemove, || tree.remove(at.pid));
                // `predindex` drops a tree when it empties.
                if tree.is_empty() {
                    trees.swap_remove(pos);
                }
            }
        }
        for key in rule.join_keys {
            self.joins.unregister(key);
        }
    }

    /// One tuple event through relation write, match (with its stabs)
    /// and join-memo maintenance, in the engine's order.
    fn event(&mut self, write: impl FnOnce(&mut Database) -> TupleEvent, rec: &mut OpRecord) {
        let db = &mut self.db;
        let ev = rec.span(Kind::RelWrite, || write(db));
        let (relation, tid, tuple, post): (&str, u32, &Tuple, bool) = match &ev {
            TupleEvent::Inserted {
                relation,
                id,
                tuple,
            } => (relation, id.0, tuple, true),
            TupleEvent::Updated {
                relation, id, new, ..
            } => (relation, id.0, new, true),
            TupleEvent::Deleted {
                relation,
                id,
                tuple,
            } => (relation, id.0, tuple, false),
        };
        self.matched.clear();
        let (index, matched) = (&self.index, &mut self.matched);
        rec.span(Kind::IndexMatch, || {
            index.match_tuple_into(relation, tuple, matched)
        });
        if let Some(trees) = self.trees.get(relation) {
            for (attr, tree) in trees {
                let Some(value) = tuple.values().get(*attr) else {
                    continue;
                };
                self.stabbed.clear();
                let out = &mut self.stabbed;
                rec.span(Kind::IbsStab, || tree.stab_into(value, out));
                // Counted on a second, untimed pass so the timed stab
                // is the uninstrumented loop the engine runs.
                let mut stats = StabStats::default();
                self.stabbed.clear();
                tree.stab_into_observed(value, &mut self.stabbed, &mut stats);
                self.work.stabs += 1;
                self.work.nodes += stats.nodes_visited;
                self.work.marks += stats.marks_scanned;
            }
        }
        if self.joins.is_empty() {
            return;
        }
        if !matches!(ev, TupleEvent::Inserted { .. }) {
            let joins = &mut self.joins;
            let n = rec.span(Kind::JoinRetract, || joins.retract(relation, tid));
            self.work.join_retract_calls += 1;
            self.work.tokens_retracted += n;
        }
        if post {
            for pid in &self.matched {
                if let Some(&(key, premise)) = self.premise_of.get(&pid.0) {
                    let joins = &mut self.joins;
                    let out = rec.span(Kind::JoinInsert, || joins.insert(key, premise, tid, tuple));
                    self.work.join_inserts += 1;
                    self.work.probes += out.probes;
                }
            }
        }
    }

    /// Mirrors one client tuple operation.
    pub fn tuple_op(&mut self, op: &Op, rec: &mut OpRecord) {
        match op {
            Op::Insert { rel, values } => {
                let (name, values) = (self.rel_names[*rel].clone(), values.clone());
                self.event(
                    |db| db.insert_event(&name, values).expect("mirror insert"),
                    rec,
                );
            }
            Op::InsertBatch { rel, rows } => {
                let name = self.rel_names[*rel].clone();
                for values in rows {
                    let values = values.clone();
                    self.event(
                        |db| db.insert_event(&name, values).expect("mirror insert"),
                        rec,
                    );
                }
            }
            Op::Update { rel, id, values } => {
                let (name, id, values) = (self.rel_names[*rel].clone(), *id, values.clone());
                self.event(
                    |db| {
                        db.update_event(&name, TupleId(id), values)
                            .expect("mirror update")
                    },
                    rec,
                );
            }
            Op::Delete { rel, id } => {
                let (name, id) = (self.rel_names[*rel].clone(), *id);
                self.event(
                    |db| db.delete_event(&name, TupleId(id)).expect("mirror delete"),
                    rec,
                );
            }
            Op::AddRule(_) | Op::RemoveRule { .. } | Op::Ping | Op::Health => {}
        }
    }

    /// Mirrors one operation a rule action queued.
    pub fn cascade_op(&mut self, op: &CascadeOp, rec: &mut OpRecord) {
        match op {
            CascadeOp::Insert { relation, values } => {
                let values = values.clone();
                self.event(
                    |db| {
                        db.insert_event(relation, values)
                            .expect("mirror cascade insert")
                    },
                    rec,
                );
            }
            CascadeOp::Update {
                relation,
                id,
                values,
            } => {
                let values = values.clone();
                self.event(
                    |db| {
                        db.update_event(relation, TupleId(*id), values)
                            .expect("mirror cascade update")
                    },
                    rec,
                );
            }
            CascadeOp::Delete { relation, id } => {
                self.event(
                    |db| {
                        db.delete_event(relation, TupleId(*id))
                            .expect("mirror cascade delete")
                    },
                    rec,
                );
            }
        }
    }
}
