//! Tuples and in-memory relations.

use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple: attribute values in schema order.
///
/// Immutable, and a handle: the values live in one reference-counted
/// block, so a clone shares the row instead of copying it. The
/// relation's slot, every [`TupleEvent`](crate::TupleEvent), each join
/// memo's alpha entry and every firing that binds the row hold the
/// same block; it is freed with the last of them. A write never
/// changes a tuple in place — [`Relation::update`] stores a new one and
/// hands back the old, which holders of the old row keep seeing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Wraps raw values (validated by [`Relation::insert`]). Moves them
    /// into one shared block: the only copy a row ever gets.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// The value at attribute position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Identifier of a stored tuple within its relation (stable across other
/// tuples' deletions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// Errors from relation mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// Tuple arity does not match the schema.
    Arity { expected: usize, got: usize },
    /// A value's type does not match its attribute.
    Type {
        attr: String,
        expected: String,
        got: String,
    },
    /// No tuple with the given id.
    NoSuchTuple(TupleId),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::Arity { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            RelationError::Type {
                attr,
                expected,
                got,
            } => write!(f, "type mismatch on {attr}: expected {expected}, got {got}"),
            RelationError::NoSuchTuple(id) => write!(f, "no tuple with id {}", id.0),
        }
    }
}

impl std::error::Error for RelationError {}

/// A main-memory relation: schema plus slotted tuple storage.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    slots: Vec<Option<Tuple>>,
    free: Vec<u32>,
    len: usize,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn validate(&self, values: &[Value]) -> Result<(), RelationError> {
        if values.len() != self.schema.arity() {
            return Err(RelationError::Arity {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for (attr, v) in self.schema.attributes().iter().zip(values) {
            if v.attr_type() != attr.ty {
                return Err(RelationError::Type {
                    attr: attr.name.clone(),
                    expected: attr.ty.to_string(),
                    got: v.attr_type().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Inserts a tuple, returning its id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<TupleId, RelationError> {
        self.validate(&values)?;
        let tuple = Tuple::new(values);
        self.len += 1;
        if let Some(ix) = self.free.pop() {
            self.slots[ix as usize] = Some(tuple);
            Ok(TupleId(ix))
        } else {
            self.slots.push(Some(tuple));
            Ok(TupleId((self.slots.len() - 1) as u32))
        }
    }

    /// The tuple stored under `id`.
    pub fn get(&self, id: TupleId) -> Option<&Tuple> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Replaces the tuple under `id`, returning the old one.
    pub fn update(&mut self, id: TupleId, values: Vec<Value>) -> Result<Tuple, RelationError> {
        self.validate(&values)?;
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(RelationError::NoSuchTuple(id))?;
        Ok(std::mem::replace(slot, Tuple::new(values)))
    }

    /// Deletes the tuple under `id`, returning it.
    pub fn delete(&mut self, id: TupleId) -> Result<Tuple, RelationError> {
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .ok_or(RelationError::NoSuchTuple(id))?;
        let tuple = slot.take().ok_or(RelationError::NoSuchTuple(id))?;
        self.free.push(id.0);
        self.len -= 1;
        Ok(tuple)
    }

    /// Iterates live `(id, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (TupleId(i as u32), t)))
    }

    /// Raw slot storage, including holes — the serialization view.
    pub(crate) fn slots(&self) -> &[Option<Tuple>] {
        &self.slots
    }

    /// The free-slot stack in pop order (last entry is reused first).
    /// Serialization must preserve this order exactly, or a restored
    /// relation would hand out different `TupleId`s than the original.
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Reassembles a relation from its serialized parts. The caller
    /// ([`crate::codec`]) has already validated tuples against the
    /// schema and checked that `free` lists exactly the empty slots.
    pub(crate) fn from_parts(schema: Schema, slots: Vec<Option<Tuple>>, free: Vec<u32>) -> Self {
        let len = slots.iter().filter(|s| s.is_some()).count();
        debug_assert_eq!(slots.len() - len, free.len());
        Relation {
            schema,
            slots,
            free,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrType;

    fn emp() -> Relation {
        Relation::new(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .build(),
        )
    }

    #[test]
    fn crud() {
        let mut r = emp();
        let id = r.insert(vec![Value::str("al"), Value::Int(40)]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(id).unwrap().get(1), &Value::Int(40));
        let old = r
            .update(id, vec![Value::str("al"), Value::Int(41)])
            .unwrap();
        assert_eq!(old.get(1), &Value::Int(40));
        assert_eq!(r.get(id).unwrap().get(1), &Value::Int(41));
        let gone = r.delete(id).unwrap();
        assert_eq!(gone.get(1), &Value::Int(41));
        assert!(r.is_empty());
        assert_eq!(r.delete(id), Err(RelationError::NoSuchTuple(id)));
    }

    #[test]
    fn validation() {
        let mut r = emp();
        assert!(matches!(
            r.insert(vec![Value::str("al")]),
            Err(RelationError::Arity {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            r.insert(vec![Value::Int(1), Value::Int(2)]),
            Err(RelationError::Type { .. })
        ));
    }

    #[test]
    fn slot_reuse_keeps_other_ids_stable() {
        let mut r = emp();
        let a = r.insert(vec![Value::str("a"), Value::Int(1)]).unwrap();
        let b = r.insert(vec![Value::str("b"), Value::Int(2)]).unwrap();
        r.delete(a).unwrap();
        let c = r.insert(vec![Value::str("c"), Value::Int(3)]).unwrap();
        assert_eq!(c, a, "slot reused");
        assert_eq!(r.get(b).unwrap().get(0), &Value::str("b"));
        let ids: Vec<TupleId> = r.iter().map(|(i, _)| i).collect();
        assert_eq!(ids.len(), 2);
    }
}
