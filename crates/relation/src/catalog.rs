//! The catalog (named relations + statistics) and the [`Database`]
//! facade whose mutations emit the tuple events a rule system consumes.

use crate::fx::FnvHashMap;
use crate::relation::{Relation, RelationError, Tuple, TupleId};
use crate::schema::Schema;
use crate::stats::ColumnStats;
use crate::value::Value;
use std::fmt;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A relation with this name already exists.
    Duplicate(String),
    /// No relation with this name.
    NoSuchRelation(String),
    /// Underlying relation mutation failed.
    Relation(RelationError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Duplicate(n) => write!(f, "relation {n:?} already exists"),
            CatalogError::NoSuchRelation(n) => write!(f, "no relation named {n:?}"),
            CatalogError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<RelationError> for CatalogError {
    fn from(e: RelationError) -> Self {
        CatalogError::Relation(e)
    }
}

/// Named relations plus per-column optimizer statistics.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    relations: FnvHashMap<String, Relation>,
    /// `(relation, attr index)` → stats, populated by [`Catalog::analyze`].
    stats: FnvHashMap<(String, usize), ColumnStats>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a new relation.
    pub fn create_relation(&mut self, schema: Schema) -> Result<(), CatalogError> {
        let name = schema.name().to_string();
        if self.relations.contains_key(&name) {
            return Err(CatalogError::Duplicate(name));
        }
        self.relations.insert(name, Relation::new(schema));
        Ok(())
    }

    /// Installs an already-populated relation under its schema name —
    /// the recovery path: a snapshot decodes complete [`Relation`]s
    /// (contents, holes, free list) and adopts them wholesale instead
    /// of re-running every historical insert.
    pub fn adopt_relation(&mut self, rel: Relation) -> Result<(), CatalogError> {
        let name = rel.schema().name().to_string();
        if self.relations.contains_key(&name) {
            return Err(CatalogError::Duplicate(name));
        }
        self.relations.insert(name, rel);
        Ok(())
    }

    /// Drops a relation, returning it, along with its column stats.
    /// Predicates already registered against the relation are the
    /// caller's concern: matchers bind at registration time and keep
    /// matching against their own state, so dropping here neither
    /// unregisters them nor invalidates in-flight matching.
    pub fn drop_relation(&mut self, name: &str) -> Result<Relation, CatalogError> {
        let rel = self
            .relations
            .remove(name)
            .ok_or_else(|| CatalogError::NoSuchRelation(name.to_string()))?;
        self.stats.retain(|(r, _), _| r != name);
        Ok(rel)
    }

    /// The relation called `name`.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutable access to the relation called `name`.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Iterates relations in unspecified order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// (Re)builds column statistics for every relation from current
    /// contents — the stand-in for "selectivity estimates are obtained
    /// from the query optimizer" (§4).
    pub fn analyze(&mut self) {
        self.stats.clear();
        for (name, rel) in &self.relations {
            for i in 0..rel.schema().arity() {
                let column: Vec<Value> = rel.iter().map(|(_, t)| t.get(i).clone()).collect();
                self.stats
                    .insert((name.clone(), i), ColumnStats::from_values(column));
            }
        }
    }

    /// Stats for one column, if analyzed.
    pub fn column_stats(&self, relation: &str, attr: usize) -> Option<&ColumnStats> {
        // Allocation-free lookup would need a borrowed pair key; this
        // path only runs at predicate-registration time, not per tuple.
        self.stats.get(&(relation.to_string(), attr))
    }
}

/// A tuple-level change, as delivered to the rule engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TupleEvent {
    /// A tuple was inserted.
    Inserted {
        relation: String,
        id: TupleId,
        tuple: Tuple,
    },
    /// A tuple was replaced.
    Updated {
        relation: String,
        id: TupleId,
        old: Tuple,
        new: Tuple,
    },
    /// A tuple was deleted.
    Deleted {
        relation: String,
        id: TupleId,
        tuple: Tuple,
    },
}

impl TupleEvent {
    /// The relation the event belongs to.
    pub fn relation(&self) -> &str {
        match self {
            TupleEvent::Inserted { relation, .. }
            | TupleEvent::Updated { relation, .. }
            | TupleEvent::Deleted { relation, .. } => relation,
        }
    }

    /// The tuple as it exists *after* the event (the paper's matching
    /// target: "each new or modified tuple"). `None` for deletions.
    pub fn current(&self) -> Option<&Tuple> {
        match self {
            TupleEvent::Inserted { tuple, .. } => Some(tuple),
            TupleEvent::Updated { new, .. } => Some(new),
            TupleEvent::Deleted { .. } => None,
        }
    }
}

/// A catalog with event-emitting mutations.
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (schema changes, analyze).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Registers a new relation.
    pub fn create_relation(&mut self, schema: Schema) -> Result<(), CatalogError> {
        self.catalog.create_relation(schema)
    }

    /// Drops a relation (see [`Catalog::drop_relation`]).
    pub fn drop_relation(&mut self, name: &str) -> Result<Relation, CatalogError> {
        self.catalog.drop_relation(name)
    }

    /// Inserts a tuple, returning a clone of what was stored (convenient
    /// for immediately matching it against predicates).
    pub fn insert(&mut self, relation: &str, values: Vec<Value>) -> Result<Tuple, CatalogError> {
        match self.insert_event(relation, values)? {
            TupleEvent::Inserted { tuple, .. } => Ok(tuple),
            _ => unreachable!("insert_event builds only Inserted events"),
        }
    }

    /// Inserts a tuple and returns the full event.
    pub fn insert_event(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<TupleEvent, CatalogError> {
        let rel = self
            .catalog
            .relation_mut(relation)
            .ok_or_else(|| CatalogError::NoSuchRelation(relation.to_string()))?;
        let id = rel.insert(values)?;
        Ok(TupleEvent::Inserted {
            relation: relation.to_string(),
            id,
            tuple: rel
                .get(id)
                .expect("rel.insert just returned this id")
                .clone(),
        })
    }

    /// Replaces a tuple and returns the full event.
    pub fn update_event(
        &mut self,
        relation: &str,
        id: TupleId,
        values: Vec<Value>,
    ) -> Result<TupleEvent, CatalogError> {
        let rel = self
            .catalog
            .relation_mut(relation)
            .ok_or_else(|| CatalogError::NoSuchRelation(relation.to_string()))?;
        let old = rel.update(id, values)?;
        Ok(TupleEvent::Updated {
            relation: relation.to_string(),
            id,
            old,
            new: rel
                .get(id)
                .expect("rel.update just succeeded for this id")
                .clone(),
        })
    }

    /// Deletes a tuple and returns the full event.
    pub fn delete_event(
        &mut self,
        relation: &str,
        id: TupleId,
    ) -> Result<TupleEvent, CatalogError> {
        let rel = self
            .catalog
            .relation_mut(relation)
            .ok_or_else(|| CatalogError::NoSuchRelation(relation.to_string()))?;
        let tuple = rel.delete(id)?;
        Ok(TupleEvent::Deleted {
            relation: relation.to_string(),
            id,
            tuple,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrType;
    use interval::Interval;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_duplicate_fails() {
        let mut d = db();
        let err = d
            .create_relation(Schema::builder("emp").attr("x", AttrType::Int).build())
            .unwrap_err();
        assert_eq!(err, CatalogError::Duplicate("emp".into()));
    }

    #[test]
    fn events_carry_old_and_new() {
        let mut d = db();
        let ev = d
            .insert_event("emp", vec![Value::str("al"), Value::Int(30)])
            .unwrap();
        let TupleEvent::Inserted { id, .. } = ev else {
            panic!("expected insert event")
        };
        let ev = d
            .update_event("emp", id, vec![Value::str("al"), Value::Int(31)])
            .unwrap();
        match &ev {
            TupleEvent::Updated { old, new, .. } => {
                assert_eq!(old.get(1), &Value::Int(30));
                assert_eq!(new.get(1), &Value::Int(31));
                assert_eq!(ev.current().unwrap().get(1), &Value::Int(31));
            }
            _ => panic!("expected update event"),
        }
        let ev = d.delete_event("emp", id).unwrap();
        assert!(ev.current().is_none());
        assert_eq!(ev.relation(), "emp");
    }

    #[test]
    fn drop_relation_removes_state_and_stats() {
        let mut d = db();
        d.insert("emp", vec![Value::str("al"), Value::Int(30)])
            .unwrap();
        d.catalog_mut().analyze();
        assert!(d.catalog().column_stats("emp", 1).is_some());

        let rel = d.drop_relation("emp").unwrap();
        assert_eq!(rel.schema().name(), "emp");
        assert!(d.catalog().relation("emp").is_none());
        assert!(d.catalog().column_stats("emp", 1).is_none());
        assert!(matches!(
            d.drop_relation("emp"),
            Err(CatalogError::NoSuchRelation(_))
        ));

        // The name is reusable after the drop.
        d.create_relation(Schema::builder("emp").attr("x", AttrType::Int).build())
            .unwrap();
        assert_eq!(d.catalog().relation("emp").unwrap().schema().arity(), 1);
    }

    #[test]
    fn unknown_relation_errors() {
        let mut d = db();
        assert!(matches!(
            d.insert("nope", vec![]),
            Err(CatalogError::NoSuchRelation(_))
        ));
    }

    #[test]
    fn analyze_builds_stats() {
        let mut d = db();
        for i in 0..100 {
            d.insert("emp", vec![Value::str(format!("e{i}")), Value::Int(i)])
                .unwrap();
        }
        d.catalog_mut().analyze();
        let stats = d.catalog().column_stats("emp", 1).unwrap();
        // Half the column, not the 5% a stats-free closed range gets.
        let half = stats.selectivity(&Interval::closed(Value::Int(0), Value::Int(49)));
        assert!((0.4..=0.6).contains(&half), "half = {half}");
        assert!(d.catalog().column_stats("emp", 5).is_none());
    }
}
