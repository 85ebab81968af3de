//! # Main-memory relational substrate
//!
//! The DBMS context the paper assumes: typed values over totally ordered
//! domains, schemas, tuples, slotted in-memory relations, a catalog, and
//! the two things the predicate-matching layer needs from the engine —
//! **tuple change events** (each new or modified tuple must be matched,
//! §1) and **optimizer selectivity estimates** (used to choose which
//! clause of a conjunctive predicate gets indexed, §4).

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod catalog;
pub mod codec;
pub mod fx;
mod relation;
mod schema;
pub mod stats;
mod value;

pub use catalog::{Catalog, CatalogError, Database, TupleEvent};
pub use relation::{Relation, RelationError, Tuple, TupleId};
pub use schema::{Attribute, Schema, SchemaBuilder};
pub use stats::{default_selectivity, ColumnStats};
pub use value::{AttrType, Value};
