//! Relation schemas.

use crate::value::AttrType;
use std::collections::HashSet;
use std::fmt;

/// One attribute: a name and a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: String,
    pub ty: AttrType,
}

/// A relation schema: the relation name and its attributes, in order.
///
/// Real applications "often involve relations with anywhere from one to
/// over 100 attributes, with a large fraction having from 5 to 25" (§2.4,
/// citing \[Col89\]); the workload generators lean on that observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Starts a builder for a relation called `name`.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            attrs: Vec::new(),
        }
    }

    /// A schema from already-collected attributes — the decoder's way
    /// in, where a duplicate name is bad input rather than a bug: it is
    /// handed back as the error, found in time linear in the arity.
    pub(crate) fn from_attributes(name: String, attrs: Vec<Attribute>) -> Result<Schema, String> {
        let mut seen = HashSet::with_capacity(attrs.len());
        match attrs.iter().find(|a| !seen.insert(a.name.as_str())) {
            Some(dup) => Err(dup.name.clone()),
            None => Ok(Schema { name, attrs }),
        }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Index of the attribute called `name`.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ")")
    }
}

/// Builder for [`Schema`].
pub struct SchemaBuilder {
    name: String,
    attrs: Vec<Attribute>,
}

impl SchemaBuilder {
    /// Appends an attribute. Panics on duplicate names (schemas are
    /// program literals; fail fast).
    pub fn attr(mut self, name: impl Into<String>, ty: AttrType) -> Self {
        let name = name.into();
        assert!(
            !self.attrs.iter().any(|a| a.name == name),
            "duplicate attribute {name:?}"
        );
        self.attrs.push(Attribute { name, ty });
        self
    }

    /// Finalizes the schema.
    pub fn build(self) -> Schema {
        Schema {
            name: self.name,
            attrs: self.attrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Schema {
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("age", AttrType::Int)
            .attr("salary", AttrType::Int)
            .attr("dept", AttrType::Str)
            .build()
    }

    #[test]
    fn lookup() {
        let s = emp();
        assert_eq!(s.name(), "emp");
        assert_eq!(s.arity(), 4);
        assert_eq!(s.attr_index("salary"), Some(2));
        assert_eq!(s.attr_index("nope"), None);
        assert_eq!(
            s.attributes()[s.attr_index("age").unwrap()].ty,
            AttrType::Int
        );
    }

    #[test]
    fn display() {
        assert_eq!(
            emp().to_string(),
            "emp(name: str, age: int, salary: int, dept: str)"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attr_panics() {
        Schema::builder("r")
            .attr("a", AttrType::Int)
            .attr("a", AttrType::Int)
            .build();
    }
}
