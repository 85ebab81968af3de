//! Registry of opaque predicate functions.
//!
//! The paper's example: `IsOdd(EMP.age) and EMP.dept = "Shoe"`. Function
//! clauses are resolved by name at parse time through this registry.
//!
//! A function's identity is its `Arc`, not its name: the built-ins live
//! once per process ([`FunctionRegistry::builtin`]) and every registry
//! that starts from them shares the same `PredFn`s, while
//! [`FunctionRegistry::register`] always mints a new one. The predicate
//! index groups opaque clauses by that identity.

use crate::clause::PredFn;
use relation::Value;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Named boolean functions over a single attribute value.
#[derive(Clone)]
pub struct FunctionRegistry {
    funcs: HashMap<String, PredFn>,
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.funcs.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("FunctionRegistry")
            .field("functions", &names)
            .finish()
    }
}

impl Default for FunctionRegistry {
    /// A registry pre-loaded with the built-ins: a copy of
    /// [`FunctionRegistry::builtin`], sharing its functions.
    fn default() -> Self {
        Self::builtin().clone()
    }
}

impl FunctionRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        FunctionRegistry {
            funcs: HashMap::new(),
        }
    }

    /// The process-wide built-ins, built on first use. The parse entry
    /// points without a registry argument resolve through it, so every
    /// parse, engine and WAL replay shares one `PredFn` per built-in.
    pub fn builtin() -> &'static FunctionRegistry {
        static BUILTIN: OnceLock<FunctionRegistry> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            let mut r = FunctionRegistry::empty();
            r.register(
                "isodd",
                |v| matches!(v, Value::Int(i) if i.rem_euclid(2) == 1),
            );
            r.register(
                "iseven",
                |v| matches!(v, Value::Int(i) if i.rem_euclid(2) == 0),
            );
            r.register("ispositive", |v| match v {
                Value::Int(i) => *i > 0,
                Value::Float(f) => *f > 0.0,
                _ => false,
            });
            r.register("isnegative", |v| match v {
                Value::Int(i) => *i < 0,
                Value::Float(f) => *f < 0.0,
                _ => false,
            });
            r.register("isempty", |v| matches!(v, Value::Str(s) if s.is_empty()));
            r
        })
    }

    /// Registers (or replaces) a function under `name` (lower-cased).
    /// The function gets a new identity even if the name was taken.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) {
        self.funcs.insert(name.into().to_lowercase(), Arc::new(f));
    }

    /// Looks up a function by (case-insensitive) name. Keys are stored
    /// lower-cased, so a name is tried as given first; only a name that
    /// may need folding (upper-case or non-ASCII) is lower-cased, into a
    /// fresh `String`.
    pub fn get(&self, name: &str) -> Option<PredFn> {
        if let Some(f) = self.funcs.get(name) {
            return Some(f.clone());
        }
        if name
            .bytes()
            .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
        {
            return None;
        }
        self.funcs.get(&name.to_lowercase()).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins() {
        let r = FunctionRegistry::default();
        assert!(r.get("isodd").unwrap()(&Value::Int(3)));
        assert!(!r.get("isodd").unwrap()(&Value::Int(4)));
        assert!(!r.get("isodd").unwrap()(&Value::str("3")));
        assert!(r.get("IsOdd").is_some(), "lookup is case-insensitive");
        assert!(r.get("nope").is_none());
        assert!(r.get("NOPE").is_none());
        assert!(r.get("iseven").unwrap()(&Value::Int(-2)));
        assert!(r.get("isnegative").unwrap()(&Value::Float(-0.5)));
        assert!(r.get("isempty").unwrap()(&Value::str("")));
    }

    #[test]
    fn custom_registration() {
        let mut r = FunctionRegistry::empty();
        assert!(r.get("long_name").is_none());
        r.register("long_name", |v| matches!(v, Value::Str(s) if s.len() > 5));
        assert!(r.get("long_name").unwrap()(&Value::str("abcdefg")));
        assert!(!r.get("long_name").unwrap()(&Value::str("abc")));
        assert!(r.get("Long_Name").is_some(), "lookup is case-insensitive");
    }

    #[test]
    fn default_registries_share_the_builtin_functions() {
        let (a, b) = (FunctionRegistry::default(), FunctionRegistry::default());
        for name in ["isodd", "iseven", "ispositive", "isnegative", "isempty"] {
            let shared = FunctionRegistry::builtin().get(name).unwrap();
            assert!(Arc::ptr_eq(&a.get(name).unwrap(), &shared), "{name}");
            assert!(Arc::ptr_eq(&b.get(name).unwrap(), &shared), "{name}");
        }
    }

    #[test]
    fn register_mints_a_new_identity_under_a_taken_name() {
        let mut r = FunctionRegistry::default();
        let builtin = r.get("isodd").unwrap();
        r.register(
            "isodd",
            |v| matches!(v, Value::Int(i) if i.rem_euclid(2) == 1),
        );
        let rebound = r.get("isodd").unwrap();
        assert!(!Arc::ptr_eq(&builtin, &rebound));
        // The process-wide built-in is untouched by a copy's rebind.
        assert!(Arc::ptr_eq(
            &FunctionRegistry::builtin().get("isodd").unwrap(),
            &builtin
        ));

        let (mut x, mut y) = (FunctionRegistry::empty(), FunctionRegistry::empty());
        x.register("f", |_| true);
        y.register("f", |_| true);
        assert!(!Arc::ptr_eq(&x.get("f").unwrap(), &y.get("f").unwrap()));
    }
}
