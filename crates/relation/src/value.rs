//! Typed attribute values with a total order.
//!
//! The paper's predicates run over "totally ordered domains" with only
//! `{<, =, >}` required. [`Value`] provides that order for the SQL-ish
//! scalar types a database rule system needs. Floats use `total_cmp`, so
//! the order is genuinely total (`Eq`/`Ord` are safe to implement);
//! cross-type comparisons fall back to a type-tag order, which a
//! well-typed schema never exercises.

use std::cmp::Ordering;
use std::fmt;

/// Attribute type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    Bool,
    Int,
    Float,
    Str,
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::Bool => write!(f, "bool"),
            AttrType::Int => write!(f, "int"),
            AttrType::Float => write!(f, "float"),
            AttrType::Str => write!(f, "str"),
        }
    }
}

/// A scalar value in a tuple or a predicate constant.
#[derive(Debug, Clone)]
pub enum Value {
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The type of this value.
    pub fn attr_type(&self) -> AttrType {
        match self {
            Value::Bool(_) => AttrType::Bool,
            Value::Int(_) => AttrType::Int,
            Value::Float(_) => AttrType::Float,
            Value::Str(_) => AttrType::Str,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Coerces this value to `ty` where the conversion is exact enough
    /// for predicate constants (`Int` → `Float`). Returns `None` for any
    /// other mismatch.
    pub fn coerce_to(&self, ty: AttrType) -> Option<Value> {
        if self.attr_type() == ty {
            return Some(self.clone());
        }
        match (self, ty) {
            (Value::Int(i), AttrType::Float) => Some(Value::Float(*i as f64)),
            _ => None,
        }
    }

    /// A numeric image of the value for R-tree coordinates. Strings map
    /// through their first eight bytes (order-preserving on the prefix,
    /// scaled to stay inside the R-tree's finite world bounds), which is
    /// the lossy flattening the §2.4 baseline needs; exact comparisons
    /// still happen in the residual predicate test.
    pub fn as_f64_lossy(&self) -> f64 {
        match self {
            Value::Bool(b) => *b as u8 as f64,
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            Value::Str(s) => {
                let mut bytes = [0u8; 8];
                for (i, b) in s.bytes().take(8).enumerate() {
                    bytes[i] = b;
                }
                // >> 14 keeps the image below 1.13e15 (inside any finite
                // world box) while preserving prefix order.
                (u64::from_be_bytes(bytes) >> 14) as f64
            }
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // Mixed numeric comparison: promote the int.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => {
                0u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Float(2.0));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn nan_is_ordered() {
        // total_cmp puts NaN above +inf; what matters is consistency.
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(1.0) < nan);
    }

    #[test]
    fn coercion() {
        assert_eq!(
            Value::Int(3).coerce_to(AttrType::Float),
            Some(Value::Float(3.0))
        );
        assert_eq!(Value::str("x").coerce_to(AttrType::Int), None);
        assert_eq!(Value::Int(3).coerce_to(AttrType::Int), Some(Value::Int(3)));
    }

    #[test]
    fn lossy_f64_preserves_prefix_order() {
        let a = Value::str("apple").as_f64_lossy();
        let b = Value::str("banana").as_f64_lossy();
        assert!(a < b);
    }
}
