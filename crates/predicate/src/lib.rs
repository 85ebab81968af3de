//! # Predicate model (§1 of the paper)
//!
//! Single-relation selection predicates: conjunctions of range clauses
//! (`const1 ρ1 t.attr ρ2 const2`, ρ ∈ {<, ≤}), equality clauses
//! (degenerate ranges), and opaque function clauses
//! (`function(t.attr)`), plus a textual predicate language that follows
//! the paper's examples:
//!
//! ```
//! use predicate::parse_predicate;
//!
//! let p = parse_predicate(r#"emp.salary < 20000 and emp.age > 50"#).unwrap();
//! assert_eq!(p.relation(), "emp");
//! assert_eq!(p.clauses().len(), 2);
//!
//! let ranged = parse_predicate("20000 <= emp.salary <= 30000").unwrap();
//! assert_eq!(ranged.clauses().len(), 1);
//!
//! let f = parse_predicate(r#"isodd(emp.age) and emp.dept = "Shoe""#).unwrap();
//! assert!(!f.clauses()[0].is_indexable());
//! ```
//!
//! Disjunctions are split ("broken up into two or more predicates that
//! do not have disjunction", §1) by [`parse_predicates`]:
//!
//! ```
//! use predicate::parse_predicates;
//! let ps = parse_predicates("emp.age < 20 or emp.age > 60").unwrap();
//! assert_eq!(ps.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod clause;
mod functions;
mod join;
mod parser;
mod predicate;
pub mod selectivity;

pub use clause::{Clause, PredFn};
pub use functions::FunctionRegistry;
pub use join::{JoinCondition, JoinOp, JoinTest, ParsedCondition};
use parser::parse_dnf;
pub use parser::{parse_condition, parse_conditions, parse_conjunct, LexError, ParseError};
pub use predicate::{BindError, BoundClause, BoundPredicate, Predicate};

/// Parses a single conjunctive predicate using the built-in function
/// registry.
pub fn parse_predicate(input: &str) -> Result<Predicate, ParseError> {
    parse_conjunct(input, FunctionRegistry::builtin())
}

/// Parses a (possibly disjunctive) condition into its DNF predicates
/// using the built-in function registry.
pub fn parse_predicates(input: &str) -> Result<Vec<Predicate>, ParseError> {
    parse_dnf(input, FunctionRegistry::builtin())
}

/// Join-aware variant of [`parse_predicates`]: conjuncts that reference
/// more than one relation come back as [`ParsedCondition::Join`].
pub fn parse_rule_conditions(input: &str) -> Result<Vec<ParsedCondition>, ParseError> {
    parse_conditions(input, FunctionRegistry::builtin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{AttrType, Schema, Tuple, Value};

    fn emp_schema() -> Schema {
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("age", AttrType::Int)
            .attr("salary", AttrType::Int)
            .attr("dept", AttrType::Str)
            .build()
    }

    fn emp(name: &str, age: i64, salary: i64, dept: &str) -> Tuple {
        Tuple::new(vec![
            Value::str(name),
            Value::Int(age),
            Value::Int(salary),
            Value::str(dept),
        ])
    }

    fn matches(src: &str, t: &Tuple) -> bool {
        parse_predicate(src)
            .unwrap()
            .bind(&emp_schema())
            .unwrap()
            .matches(t)
    }

    #[test]
    fn paper_example_1() {
        let src = "emp.salary < 20000 and emp.age > 50";
        assert!(matches(src, &emp("al", 61, 12_000, "Shoe")));
        assert!(!matches(src, &emp("al", 61, 20_000, "Shoe")));
        assert!(!matches(src, &emp("al", 50, 12_000, "Shoe")));
    }

    #[test]
    fn paper_example_2_double_bound() {
        let src = "20000 <= emp.salary <= 30000";
        assert!(matches(src, &emp("b", 30, 20_000, "x")));
        assert!(matches(src, &emp("b", 30, 30_000, "x")));
        assert!(!matches(src, &emp("b", 30, 19_999, "x")));
        assert!(!matches(src, &emp("b", 30, 30_001, "x")));
    }

    #[test]
    fn paper_example_3_equality() {
        let src = r#"emp.dept = "Salesperson""#;
        assert!(matches(src, &emp("c", 30, 0, "Salesperson")));
        assert!(!matches(src, &emp("c", 30, 0, "salesperson")));
    }

    #[test]
    fn paper_example_4_function() {
        let src = r#"isodd(emp.age) and emp.dept = "Shoe""#;
        assert!(matches(src, &emp("d", 31, 0, "Shoe")));
        assert!(!matches(src, &emp("d", 32, 0, "Shoe")));
        assert!(!matches(src, &emp("d", 31, 0, "Hat")));
    }

    #[test]
    fn reversed_operand_sides() {
        assert!(matches("50 < emp.age", &emp("e", 51, 0, "x")));
        assert!(!matches("50 < emp.age", &emp("e", 50, 0, "x")));
        assert!(matches("50 >= emp.age", &emp("e", 50, 0, "x")));
    }

    #[test]
    fn descending_chain() {
        let src = "30000 >= emp.salary >= 20000";
        assert!(matches(src, &emp("f", 0, 25_000, "x")));
        assert!(!matches(src, &emp("f", 0, 35_000, "x")));
    }

    #[test]
    fn strict_chain() {
        let src = "10 < emp.age < 20";
        assert!(!matches(src, &emp("g", 10, 0, "x")));
        assert!(matches(src, &emp("g", 11, 0, "x")));
        assert!(matches(src, &emp("g", 19, 0, "x")));
        assert!(!matches(src, &emp("g", 20, 0, "x")));
    }

    #[test]
    fn disjunction_splits() {
        let ps = parse_predicates("emp.age < 20 or emp.age > 60 or emp.salary = 0").unwrap();
        assert_eq!(ps.len(), 3);
        assert!(ps.iter().all(|p| p.relation() == "emp"));
    }

    #[test]
    fn dnf_distribution() {
        // (a or b) and (c or d) → 4 conjuncts.
        let ps = parse_predicates(
            "(emp.age < 20 or emp.age > 60) and (emp.salary < 100 or emp.salary > 900)",
        )
        .unwrap();
        assert_eq!(ps.len(), 4);
        assert!(ps.iter().all(|p| p.clauses().len() == 2));
    }

    #[test]
    fn not_equal_desugars() {
        let ps = parse_predicates("emp.age != 30").unwrap();
        assert_eq!(ps.len(), 2);
        let s = emp_schema();
        let hit = |t: &Tuple| ps.iter().any(|p| p.bind(&s).unwrap().matches(t));
        assert!(hit(&emp("h", 29, 0, "x")));
        assert!(!hit(&emp("h", 30, 0, "x")));
        assert!(hit(&emp("h", 31, 0, "x")));
    }

    #[test]
    fn contradiction_is_unsatisfiable() {
        let p = parse_predicate("emp.age < 10 and emp.age > 20").unwrap();
        assert!(!p.is_satisfiable());
        let p = parse_predicate("20 <= emp.age <= 10").unwrap();
        assert!(!p.is_satisfiable());
    }

    /// Condition text is hostile input (an `AddRule` frame carries it):
    /// its size limits answer with an error where the parser used to
    /// overflow its stack (`(` x 100k) or build 2^n predicates.
    #[test]
    fn oversized_conditions_are_errors_not_stack_or_memory_bombs() {
        let too_complex = |text: &str| {
            matches!(
                parse_rule_conditions(text),
                Err(ParseError::TooComplex { .. })
            )
        };
        let nested = |n: usize| format!("{}emp.age < 5{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse_predicates(&nested(64)).unwrap().len(), 1);
        assert!(too_complex(&nested(65)));
        assert!(too_complex(&"(".repeat(100_000)));

        let all_differ = |n: usize| vec!["emp.age != 7"; n].join(" and ");
        assert_eq!(parse_predicates(&all_differ(8)).unwrap().len(), 256);
        assert!(too_complex(&all_differ(9)));
        assert!(too_complex(&all_differ(64)));

        let any_of = |n: usize| vec!["emp.age < 5"; n].join(" or ");
        assert_eq!(parse_predicates(&any_of(256)).unwrap().len(), 256);
        assert!(too_complex(&any_of(257)));
        assert!(too_complex(&vec!["emp.age < 5"; 100_000].join(" and ")));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_predicate("1 < 2"),
            Err(ParseError::BadComparison(_))
        ));
        assert!(matches!(
            parse_predicate("emp.a < emp.b"),
            Err(ParseError::BadComparison(_))
        ));
        assert!(matches!(
            parse_predicate("10 < emp.age > 5"),
            Err(ParseError::BadChain(_))
        ));
        assert!(matches!(
            parse_predicate("nosuchfn(emp.age)"),
            Err(ParseError::UnknownFunction(_))
        ));
        assert!(matches!(
            parse_predicate("emp.age < 5 and dept.size > 3"),
            Err(ParseError::MultipleRelations { .. })
        ));
        assert!(matches!(
            parse_predicate("emp.age < 5 or emp.age > 9"),
            Err(ParseError::DisjunctionNotAllowed)
        ));
        assert!(matches!(parse_predicate(""), Err(ParseError::Empty)));
        assert!(matches!(
            parse_predicate("emp.age <"),
            Err(ParseError::Unexpected { .. })
        ));
    }

    #[test]
    fn custom_function_registry() {
        let mut reg = FunctionRegistry::default();
        reg.register("is_round", |v| matches!(v, Value::Int(i) if i % 100 == 0));
        let p = parse_conjunct("is_round(emp.salary)", &reg).unwrap();
        let b = p.bind(&emp_schema()).unwrap();
        assert!(b.matches(&emp("i", 0, 500, "x")));
        assert!(!b.matches(&emp("i", 0, 550, "x")));
    }

    #[test]
    fn float_and_string_literals() {
        let s = Schema::builder("m")
            .attr("score", AttrType::Float)
            .attr("tag", AttrType::Str)
            .build();
        let p = parse_predicate(r#"m.score >= 2.5 and m.tag < "n""#).unwrap();
        let b = p.bind(&s).unwrap();
        assert!(b.matches(&Tuple::new(vec![Value::Float(2.5), Value::str("abc")])));
        assert!(!b.matches(&Tuple::new(vec![Value::Float(2.4), Value::str("abc")])));
        assert!(!b.matches(&Tuple::new(vec![Value::Float(3.0), Value::str("zzz")])));
    }
}

#[cfg(test)]
mod join_tests {
    use super::*;

    fn cond(src: &str) -> ParsedCondition {
        parse_condition(src, &FunctionRegistry::default()).unwrap()
    }

    #[test]
    fn legacy_entry_points_still_reject_joins() {
        assert!(matches!(
            parse_predicate("emp.a < emp.b"),
            Err(ParseError::BadComparison(_))
        ));
        assert!(matches!(
            parse_predicate("emp.age < 5 and dept.size > 3"),
            Err(ParseError::MultipleRelations { .. })
        ));
    }

    #[test]
    fn single_relation_conjunct_stays_single() {
        let c = cond("emp.age > 50 and emp.salary < 1000");
        let p = c.as_single().unwrap();
        assert_eq!(p.relation(), "emp");
        assert_eq!(p.clauses().len(), 2);
    }

    #[test]
    fn equality_join_parses_with_sorted_premises() {
        let c = cond("emp.dno = dept.dno and dept.floor = 1");
        let j = c.as_join().unwrap();
        assert_eq!(j.arity(), 2);
        // Sorted by relation name: dept before emp.
        assert_eq!(j.premises()[0].relation(), "dept");
        assert_eq!(j.premises()[1].relation(), "emp");
        assert_eq!(j.premises()[0].clauses().len(), 1); // floor = 1
        assert!(j.premises()[1].clauses().is_empty());
        assert_eq!(j.tests().len(), 1);
        let t = &j.tests()[0];
        assert_eq!((t.left, t.right), (0, 1));
        assert_eq!(t.left_attr, "dno");
        assert_eq!(t.right_attr, "dno");
        assert_eq!(t.op, JoinOp::Eq);
    }

    #[test]
    fn interval_join_flips_to_canonical_direction() {
        // emp < mgr stays as-is; mgr > emp flips to emp < mgr.
        let a = cond("emp.salary < mgr.salary");
        let b = cond("mgr.salary > emp.salary");
        assert_eq!(a.as_join().unwrap(), b.as_join().unwrap());
        let t = &a.as_join().unwrap().tests()[0];
        assert_eq!(t.op, JoinOp::Lt);
        assert_eq!(a.as_join().unwrap().premises()[t.left].relation(), "emp");
    }

    #[test]
    fn three_premise_chain() {
        let c = cond("emp.dno = dept.dno and dept.bno = bldg.bno and bldg.floors > 2");
        let j = c.as_join().unwrap();
        assert_eq!(j.arity(), 3);
        let rels: Vec<_> = j.premises().iter().map(|p| p.relation()).collect();
        assert_eq!(rels, vec!["bldg", "dept", "emp"]);
        assert_eq!(j.tests().len(), 2);
    }

    #[test]
    fn join_source_round_trips() {
        for src in [
            "emp.dno = dept.dno and dept.floor = 1",
            "emp.salary < mgr.salary",
            "emp.dno = dept.dno and dept.bno = bldg.bno and bldg.floors > 2",
            "emp.age > 30 and dept.size < 10", // cross product, no tests
        ] {
            let j = cond(src).as_join().unwrap().clone();
            let rendered = j.to_source().unwrap();
            let reparsed = cond(&rendered);
            assert_eq!(reparsed.as_join().unwrap(), &j, "round-trip of {src:?}");
        }
    }

    #[test]
    fn join_not_equal_splits_into_two_conjuncts() {
        let cs = parse_rule_conditions("emp.dno != dept.dno").unwrap();
        assert_eq!(cs.len(), 2);
        let ops: Vec<_> = cs
            .iter()
            .map(|c| c.as_join().unwrap().tests()[0].op)
            .collect();
        assert!(ops.contains(&JoinOp::Lt) && ops.contains(&JoinOp::Gt));
    }

    #[test]
    fn self_join_rejected() {
        assert!(matches!(
            parse_rule_conditions("emp.mgr = emp.id"),
            Err(ParseError::BadComparison(_))
        ));
    }

    #[test]
    fn unsatisfiable_premise_collapses_conjunct() {
        let c = cond("emp.dno = dept.dno and 5 <= dept.floor <= 3");
        let p = c.as_single().unwrap();
        assert!(!p.is_satisfiable());
        assert_eq!(p.relation(), "dept");
    }

    #[test]
    fn disjunction_mixes_single_and_join_conjuncts() {
        let cs = parse_rule_conditions("emp.age > 60 or emp.dno = dept.dno").unwrap();
        assert_eq!(cs.len(), 2);
        assert!(cs[0].as_single().is_some());
        assert!(cs[1].as_join().is_some());
    }
}
