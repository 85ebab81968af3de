//! A golden fingerprint of the condition parser: every result and every
//! error variant, not just the semantics `prop_parser.rs` checks.
//!
//! A seeded corpus of condition texts — well-formed shapes, token-level
//! mutations of them, and the size limits' edges — goes through
//! `parse_rule_conditions` and `parse_predicates`, and the `Debug` text
//! of every outcome is hashed into one FNV-1a value. A parser change
//! that alters any predicate, any error, or which of two errors an
//! input reports (a syntax error against a DNF overflow, an overflow
//! against an unknown function) changes the hash.

use predicate::{parse_predicates, parse_rule_conditions};
use relation::fx::FnvHasher;
use std::hash::Hasher;

/// The fingerprint of the corpus below, taken from the parser that built
/// an expression tree and expanded it to DNF afterwards.
const GOLDEN: u64 = 0xa415_a4ea_b499_b2a8;

/// Texts in the seeded part of the corpus.
const CORPUS: usize = 24_000;

/// A deterministic stream of numbers (SplitMix64), so the corpus needs
/// no seeded generator from outside the crate.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }

    fn int(&mut self, below: u64) -> String {
        self.below(below).to_string()
    }
}

/// Pieces a mutation inserts, space-separated: every token kind, keywords in odd case,
/// and text the lexer rejects.
const PIECES: &str = r#"and or AND Or ( ) . < <= = == >= > != <> r0 a emp dept dno 5 -3 2.5 1e3 "x" "a\"b" true FALSE isodd IsOdd nosuch ! # - "open "bad\q" 99999999999999999999 é"#;

const RELS: &[&str] = &["r0", "r1", "r2", "r3"];
const OPS: &[&str] = &["<", "<=", "=", "==", ">=", ">", "!=", "<>"];

/// An attribute reference as three tokens.
fn attr(out: &mut Vec<String>, rel: &str, attr: &str) {
    out.extend([rel.to_string(), ".".to_string(), attr.to_string()]);
}

/// `lo <= rel.x <= lo + width`, as tokens.
fn band(rng: &mut Rng, out: &mut Vec<String>, rel: &str, width: u64) {
    let x = rng.pick(&["a", "b"]);
    let lo = rng.below(1_000_000 - width);
    out.extend([lo.to_string(), "<=".to_string()]);
    attr(out, rel, x);
    out.extend(["<=".to_string(), (lo + width).to_string()]);
}

/// One of the workload's six shapes, as tokens.
fn churn_shape(rng: &mut Rng, out: &mut Vec<String>) {
    let r = rng.pick(RELS);
    match rng.below(6) {
        0 => band(rng, out, r, 300),
        1 => {
            band(rng, out, r, 1_000);
            out.push("and".into());
            attr(out, r, rng.pick(&["a", "b"]));
            out.extend([">".to_string(), rng.int(1_000_000)]);
        }
        2 => {
            attr(out, r, "c");
            out.extend(["=".to_string(), rng.int(1_000), "and".to_string()]);
            attr(out, r, "a");
            out.extend(["<".to_string(), rng.int(1_000_000)]);
        }
        3 => {
            attr(out, r, rng.pick(&["a", "b"]));
            out.extend([rng.pick(&["<", ">"]).to_string(), rng.int(1_000)]);
        }
        4 => {
            out.extend(["isodd".to_string(), "(".to_string()]);
            attr(out, r, "d");
            out.extend([")".to_string(), "and".to_string()]);
            band(rng, out, r, 1_000);
        }
        _ => {
            out.extend(["isodd".to_string(), "(".to_string()]);
            attr(out, r, "d");
            out.extend([")".to_string(), "and".to_string()]);
            out.extend(["isnegative".to_string(), "(".to_string()]);
            attr(out, r, "c");
            out.push(")".into());
        }
    }
}

/// A literal of any type.
fn literal(rng: &mut Rng) -> String {
    match rng.below(7) {
        0 | 1 => rng.int(20),
        2 => format!("-{}", rng.int(20)),
        3 => format!("{}.{}", rng.int(20), rng.int(10)),
        4 => format!("\"{}\"", rng.pick(&["", "x", "Shoe", "a\\\"b", "back\\\\"])),
        5 => rng.pick(&["true", "false", "TRUE"]).to_string(),
        _ => format!("{}e{}", rng.int(5), rng.pick(&["2", "-1", "+3"])),
    }
}

/// One comparison, function call or cross-relation test over a small
/// vocabulary, so conjuncts mix relations and repeat attributes.
fn leaf(rng: &mut Rng, out: &mut Vec<String>) {
    let rel = |rng: &mut Rng| rng.pick(&["emp", "dept", "bldg"]);
    let at = |rng: &mut Rng| rng.pick(&["dno", "age", "floor"]);
    match rng.below(10) {
        0..=3 => {
            let (r, a) = (rel(rng), at(rng));
            attr(out, r, a);
            out.extend([rng.pick(OPS).to_string(), literal(rng)]);
        }
        4 => {
            let (r, a) = (rel(rng), at(rng));
            out.extend([literal(rng), rng.pick(OPS).to_string()]);
            attr(out, r, a);
        }
        5 => {
            // A chain, ascending, descending or mixed.
            let (r, a) = (rel(rng), at(rng));
            out.extend([rng.int(30), rng.pick(OPS).to_string()]);
            attr(out, r, a);
            out.extend([rng.pick(OPS).to_string(), rng.int(30)]);
        }
        6 => {
            let f = rng.pick(&["isodd", "IsEven", "ispositive", "isempty", "nosuch"]);
            out.extend([f.to_string(), "(".to_string()]);
            attr(out, rel(rng), at(rng));
            out.push(")".into());
        }
        _ => {
            attr(out, rel(rng), at(rng));
            out.push(rng.pick(OPS).to_string());
            attr(out, rel(rng), at(rng));
        }
    }
}

/// A boolean expression of `leaf`s: `and`, `or` and parentheses.
fn expr(rng: &mut Rng, out: &mut Vec<String>, depth: u32) {
    let terms = 1 + rng.below(3);
    for t in 0..terms {
        if t > 0 {
            out.push(rng.pick(&["and", "and", "or", "AND", "Or"]).to_string());
        }
        if depth < 2 && rng.below(4) == 0 {
            out.push("(".into());
            expr(rng, out, depth + 1);
            out.push(")".into());
        } else {
            leaf(rng, out);
        }
    }
}

/// One token-level mutation: drop, insert, swap or duplicate.
fn mutate(rng: &mut Rng, toks: &mut Vec<String>) {
    let pieces: Vec<&str> = PIECES.split(' ').collect();
    let at = rng.below(toks.len() as u64 + 1) as usize;
    match rng.below(4) {
        0 if at < toks.len() => {
            toks.remove(at);
        }
        1 => toks.insert(at, rng.pick(&pieces).to_string()),
        2 if at + 1 < toks.len() => toks.swap(at, at + 1),
        _ if at < toks.len() => {
            let t = toks[at].clone();
            toks.insert(at, t);
        }
        _ => toks.push(rng.pick(&pieces).to_string()),
    }
}

/// Joins tokens with a space, or with none around `.` and parentheses
/// (where the lexer needs no separator).
fn join(rng: &mut Rng, toks: &[String]) -> String {
    if rng.below(2) == 0 {
        return toks.join(" ");
    }
    let tight = |t: &str| matches!(t, "." | "(" | ")");
    let mut s = String::new();
    for (i, t) in toks.iter().enumerate() {
        if i > 0 && !tight(t) && !tight(&toks[i - 1]) {
            s.push(' ');
        }
        s.push_str(t);
    }
    s
}

fn corpus() -> Vec<String> {
    let mut rng = Rng(0x5eed_0f9a_45e1);
    let mut texts = Vec::with_capacity(CORPUS + 32);
    for _ in 0..CORPUS {
        let mut toks = Vec::new();
        if rng.below(2) == 0 {
            churn_shape(&mut rng, &mut toks);
        } else {
            expr(&mut rng, &mut toks, 0);
        }
        // Two texts in five are well-formed; the rest carry one to
        // three mutations.
        if rng.below(5) >= 2 {
            for _ in 0..1 + rng.below(3) {
                mutate(&mut rng, &mut toks);
            }
        }
        texts.push(join(&mut rng, &toks));
    }

    // The limits' edges.
    let all_differ = |n: usize| vec!["emp.age != 7"; n].join(" and ");
    let any_of = |n: usize| vec!["emp.age < 5"; n].join(" or ");
    let nested = |n: usize| format!("{}emp.age < 5{}", "(".repeat(n), ")".repeat(n));
    for n in [8, 9] {
        texts.push(all_differ(n));
    }
    for n in [256, 257] {
        texts.push(any_of(n));
    }
    for n in [64, 65] {
        texts.push(nested(n));
    }
    texts.extend([
        // A DNF overflow, then a syntax error, an unknown function, a
        // second relation and a trailing token: the later error wins
        // only where it is a syntax error.
        format!("{} and emp.age <", all_differ(9)),
        format!("{} and nosuch(emp.age)", all_differ(9)),
        format!("{} and dept.floor = 1", all_differ(9)),
        format!("{} )", all_differ(9)),
        format!("({}) or emp.age <", any_of(200)),
        format!("({}) and (emp.age = 1 or emp.age = 2)", any_of(129)),
        format!("({}) and (emp.age = 1 or emp.age = 2)", any_of(128)),
        vec!["emp.age < 5"; 257].join(" and "),
        "(".repeat(100_000),
        String::new(),
        "   ".into(),
        "emp.dno = dept.dno and dept.floor = 1".into(),
        "emp.age < 5 or emp.age > 9".into(),
        "emp.dno != dept.dno and emp.age != 3".into(),
        "emp.dno = dept.dno and dept.bno = bldg.bno and bldg.floors > 2".into(),
        "emp.age > 30 and dept.size < 10".into(),
        "emp.dno = dept.dno and 5 <= dept.floor <= 3".into(),
        "emp.age < 3 and emp.age > 5".into(),
        "nosuch(emp.age) and dept.floor = 1".into(),
        "emp.age < 5 and dept.floor = 1 and nosuch(bldg.x)".into(),
        "emp.mgr = emp.id".into(),
        r#"emp.job = "Sales\"person\\" and emp.score >= 2.5e-1"#.into(),
    ]);
    texts
}

#[test]
fn parser_results_and_errors_match_the_golden_fingerprint() {
    let texts = corpus();
    let mut h = FnvHasher::default();
    let mut parsed = 0;
    for text in &texts {
        let conditions = parse_rule_conditions(text);
        parsed += usize::from(conditions.is_ok());
        h.write(text.as_bytes());
        h.write(format!("\u{0}{conditions:?}\u{0}").as_bytes());
        h.write(format!("{:?}\u{0}", parse_predicates(text)).as_bytes());
    }
    assert!(
        parsed * 4 >= texts.len(),
        "only {parsed} of {} texts parse",
        texts.len()
    );
    assert_eq!(
        h.finish(),
        GOLDEN,
        "the parser's results or errors changed ({parsed} of {} texts parse)",
        texts.len()
    );
}
