//! `PredicateIndex::approx_bytes` against a counted size: the bytes the
//! allocator holds for an index, read from `bench`'s counting allocator
//! (included by path) from before the index exists, built and then with
//! every other predicate removed. The live bytes are process-wide: one
//! test in this binary, so nothing else allocates while it counts.

#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;
use predicate::parse_predicate;
use predindex::{Matcher, PredicateId, PredicateIndex};
use relation::{AttrType, Database, Schema};

/// A deterministic stream of numbers (SplitMix64), so the shapes need
/// no seeded generator from outside the crate.
struct Keys(u64);

impl Keys {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Registers `n` predicates parsed from `make`, and returns the
/// estimate beside the counted bytes, before and after removing every
/// other one (freed entries, trees and groups that empty, tables that
/// do not shrink).
fn measure(db: &Database, n: u32, mut make: impl FnMut(u32) -> String) -> [(usize, usize); 2] {
    let before = live_bytes();
    let mut index = PredicateIndex::new();
    for i in 0..n {
        let text = make(i);
        let pred = parse_predicate(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        index.insert(pred, db.catalog()).expect("the shape binds");
    }
    let counted = |index: &PredicateIndex| {
        let counted = (live_bytes() - before) as usize;
        (index.approx_bytes(), counted)
    };
    let built = counted(&index);
    for i in (0..n).step_by(2) {
        index.remove(PredicateId(i)).expect("inserted above");
    }
    let halved = counted(&index);
    [built, halved]
}

#[test]
fn approx_bytes_is_within_a_fifth_of_the_allocator_count() {
    let mut db = Database::new();
    db.create_relation(
        ["a", "b", "c", "d"]
            .iter()
            .fold(Schema::builder("r"), |s, a| s.attr(*a, AttrType::Int))
            .build(),
    )
    .expect("fresh relation");
    db.create_relation(
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("dept", AttrType::Str)
            .attr("salary", AttrType::Float)
            .build(),
    )
    .expect("fresh relation");
    // The built-in function registry is process-wide: mint it before
    // anything is counted.
    parse_predicate("isodd(r.a)").expect("a built-in");

    let mut keys = Keys(29);
    // `match_stab`'s rules (a band, a band and an open comparison, or an
    // equality and an open comparison: half the entries keep a
    // residual); string keys in the trees and in the residuals; opaque
    // predicates sharing a few clause sets on the non-indexable list;
    // and predicates spread over both relations with floats and
    // unsatisfiable conjunctions.
    let shapes = [
        (
            "stab_shape",
            measure(&db, 4_000, |_| {
                let lo = keys.below(99_900);
                match keys.below(100) {
                    0..40 => format!("{lo} <= r.a <= {}", lo + 40),
                    40..75 => format!(
                        "{lo} <= r.b <= {} and r.a > {}",
                        lo + 100,
                        keys.below(100_000)
                    ),
                    _ => format!(
                        "r.c = {} and r.a < {}",
                        keys.below(1_000),
                        keys.below(100_000)
                    ),
                }
            }),
        ),
        (
            "strings",
            measure(&db, 3_000, |i| match i % 3 {
                0 => format!(r#"emp.name = "employee-{i:06}""#),
                1 => format!(r#"emp.dept >= "department-{i}" and emp.name < "n{i}""#),
                _ => format!(r#"emp.salary > {i}.5 and emp.dept = "d{}""#, i % 40),
            }),
        ),
        (
            "opaque",
            measure(&db, 3_000, |i| match i % 4 {
                0 => "isodd(r.d) and isnegative(r.c)".to_string(),
                1 => format!("iseven(r.{})", ["a", "b", "c", "d"][i as usize % 4]),
                2 => "ispositive(r.a) and isodd(r.b) and iseven(r.c)".to_string(),
                _ => format!("isodd(r.a) and r.b > {i}"),
            }),
        ),
        (
            "mixed",
            measure(&db, 3_000, |i| match i % 5 {
                0 => format!("r.a < {i} and r.a > {}", i + 10),
                1 => format!("emp.salary <= {i}.25"),
                2 => format!(r#"isempty(emp.name) and emp.dept = "x{i}""#),
                3 => format!("r.d = {} and isodd(r.c) and r.b < {i}", i % 7),
                _ => format!("{i} <= r.c <= {}", i + 3),
            }),
        ),
    ];
    for (shape, counts) in shapes {
        for (when, (approx, counted)) in ["built", "halved"].iter().zip(counts) {
            assert!(counted > 100_000, "{shape} {when}: only {counted} bytes");
            let ratio = approx as f64 / counted as f64;
            assert!(
                (1.0 / 1.2..=1.2).contains(&ratio),
                "{shape} {when}: approx_bytes {approx} vs {counted} counted (x{ratio:.2})"
            );
        }
    }
}
