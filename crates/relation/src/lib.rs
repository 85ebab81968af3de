//! # Main-memory relational substrate
//!
//! The DBMS context the paper assumes: typed values over totally ordered
//! domains, schemas, tuples, slotted in-memory relations, a catalog, and
//! the one thing the predicate-matching layer needs from the engine —
//! **tuple change events** (each new or modified tuple must be matched,
//! §1). The selectivity estimates §4 ranks clauses by are System-R
//! defaults and live with the ranking, in `predicate::selectivity`.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod catalog;
pub mod codec;
pub mod fx;
mod relation;
mod schema;
mod value;

pub use catalog::{Catalog, CatalogError, Database, TupleEvent};
pub use relation::{Relation, RelationError, Tuple, TupleId};
pub use schema::{Attribute, Schema, SchemaBuilder};
pub use value::{AttrType, Value};
