//! Recursive-descent parser that normalizes to DNF as it goes.
//!
//! The grammar (keywords case-insensitive):
//!
//! ```text
//! expr   := term ('or' term)*
//! term   := factor ('and' factor)*
//! factor := '(' expr ')' | funccall | comparison
//! funccall   := Ident '(' attrref ')'
//! comparison := operand cmp operand (cmp operand)?
//! operand    := literal | attrref
//! attrref    := Ident '.' Ident
//! cmp        := '<' | '<=' | '=' | '>=' | '>' | '!=' | '<>'
//! ```
//!
//! The boolean expression is normalized to disjunctive normal form while
//! it is parsed, over tokens and leaves that borrow the input; each
//! disjunct becomes one [`Predicate`], implementing §1's "any predicate
//! containing a disjunction is broken up into two or more predicates".
//! `!=` desugars to `< or >`, which rides the same mechanism. Names
//! become `String`s once, in the output.

use crate::clause::Clause;
use crate::functions::FunctionRegistry;
use crate::join::{JoinCondition, JoinOp, JoinTest, ParsedCondition};
use crate::parser::lexer::{lex, unescape, LexError, Token};
use crate::predicate::Predicate;
use interval::{Interval, Lower, Upper};
use relation::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenizer failure.
    Lex(LexError),
    /// Unexpected token (or end of input).
    Unexpected {
        got: Option<String>,
        expected: String,
    },
    /// A comparison between two literals or two attributes.
    BadComparison(String),
    /// A chained comparison with inconsistent operator directions.
    BadChain(String),
    /// Unknown function name.
    UnknownFunction(String),
    /// One conjunct references more than one relation (join conditions
    /// are out of scope, as in the paper).
    MultipleRelations { first: String, second: String },
    /// The input contained a disjunction but a single conjunctive
    /// predicate was requested.
    DisjunctionNotAllowed,
    /// Empty input.
    Empty,
    /// The condition holds more than `limit` of `what`. Condition text
    /// arrives over the wire, and without the limits a few hundred
    /// bytes of `(`, or of `and`-ed `!=`, overflow the parser's stack or
    /// expand to 2^n predicates.
    TooComplex { what: &'static str, limit: usize },
}

/// Deepest parenthesis nesting a condition may have.
const MAX_NESTING: usize = 64;

/// Most comparisons a condition may hold, and most conjuncts its DNF
/// may expand to.
const MAX_TERMS: usize = 256;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { got, expected } => match got {
                Some(g) => write!(f, "unexpected {g:?}, expected {expected}"),
                None => write!(f, "unexpected end of input, expected {expected}"),
            },
            ParseError::BadComparison(m) => write!(f, "bad comparison: {m}"),
            ParseError::BadChain(m) => write!(f, "bad chained comparison: {m}"),
            ParseError::UnknownFunction(n) => write!(f, "unknown function {n:?}"),
            ParseError::MultipleRelations { first, second } => write!(
                f,
                "conjunct mixes relations {first:?} and {second:?} (join predicates are not supported)"
            ),
            ParseError::TooComplex { what, limit } => {
                write!(f, "condition too complex: more than {limit} {what}")
            }
            ParseError::DisjunctionNotAllowed => {
                write!(f, "input is a disjunction; use parse_dnf to split it")
            }
            ParseError::Empty => write!(f, "empty predicate"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// A parsed leaf; its names borrow the input.
#[derive(Clone)]
enum Leaf<'a> {
    /// Range clause; `interval = None` means the comparison chain was
    /// contradictory (e.g. `5 <= a <= 3`) — the conjunct is
    /// unsatisfiable.
    Range {
        rel: &'a str,
        attr: &'a str,
        interval: Option<Interval<Value>>,
    },
    /// Function clause.
    Func {
        rel: &'a str,
        attr: &'a str,
        name: &'a str,
    },
    /// Cross-relation comparison (`a.x ρ b.y`), only produced when the
    /// parser runs in join-aware mode ([`parse_conditions`]).
    Join {
        left_rel: &'a str,
        left_attr: &'a str,
        op: JoinOp,
        right_rel: &'a str,
        right_attr: &'a str,
    },
}

/// A condition in disjunctive normal form: conjuncts of leaves.
type Dnf<'a> = Vec<Vec<Leaf<'a>>>;

/// What a factor adds to its term: one leaf, or alternatives (a
/// parenthesized expression's conjuncts, or the two sides of a `!=`).
enum Factor<'a> {
    Leaf(Leaf<'a>),
    Any(Dnf<'a>),
}

/// Lexes and parses `input`, returning its DNF conjuncts as leaf lists.
fn parse_to_conjuncts(input: &str, allow_join: bool) -> Result<Dnf<'_>, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Err(ParseError::Empty);
    }
    let mut p = Parser {
        tokens,
        pos: 0,
        allow_join,
        nesting: 0,
        terms: 0,
        overflow: false,
    };
    let conjuncts = p.expr()?;
    if let Some(t) = p.peek() {
        return Err(unexpected(Some(t), "end of input"));
    }
    if p.overflow {
        return Err(ParseError::TooComplex {
            what: "conjuncts in its DNF",
            limit: MAX_TERMS,
        });
    }
    Ok(conjuncts)
}

/// Parses `input` into one predicate per disjunct of its DNF.
pub(crate) fn parse_dnf(
    input: &str,
    funcs: &FunctionRegistry,
) -> Result<Vec<Predicate>, ParseError> {
    parse_to_conjuncts(input, false)?
        .into_iter()
        .map(|leaves| {
            let (rel, clauses, satisfiable) = lower_one_relation(leaves, funcs)?;
            Ok(if satisfiable {
                Predicate::new(rel, clauses)
            } else {
                Predicate::unsatisfiable(rel)
            })
        })
        .collect()
}

/// Parses `input` as a single conjunctive predicate (no `or`, no `!=`).
pub fn parse_conjunct(input: &str, funcs: &FunctionRegistry) -> Result<Predicate, ParseError> {
    let mut preds = parse_dnf(input, funcs)?;
    match (preds.pop(), preds.is_empty()) {
        (Some(p), true) => Ok(p),
        _ => Err(ParseError::DisjunctionNotAllowed),
    }
}

/// Join-aware DNF parse: each conjunct of `input`'s DNF becomes either
/// a single-relation [`Predicate`] or a multi-relation
/// [`JoinCondition`], depending on how many relations it references.
/// Cross-relation comparisons (`emp.dno = dept.dno`) are accepted here
/// and only here.
pub fn parse_conditions(
    input: &str,
    funcs: &FunctionRegistry,
) -> Result<Vec<ParsedCondition>, ParseError> {
    parse_to_conjuncts(input, true)?
        .into_iter()
        .map(|leaves| build_condition(leaves, funcs))
        .collect()
}

/// Parses `input` as a single join-aware conjunct (no `or`, no `!=`).
pub fn parse_condition(
    input: &str,
    funcs: &FunctionRegistry,
) -> Result<ParsedCondition, ParseError> {
    let mut conds = parse_conditions(input, funcs)?;
    match (conds.pop(), conds.is_empty()) {
        (Some(c), true) => Ok(c),
        _ => Err(ParseError::DisjunctionNotAllowed),
    }
}

/// Lowers a conjunct over one relation to that relation and its
/// clauses, leaf by leaf: an unknown function or a leaf over a second
/// relation is an error. The flag is false when a comparison chain was
/// contradictory.
fn lower_one_relation<'a>(
    leaves: Vec<Leaf<'a>>,
    funcs: &FunctionRegistry,
) -> Result<(&'a str, Vec<Clause>, bool), ParseError> {
    let mut relation: Option<&str> = None;
    let mut clauses = Vec::with_capacity(leaves.len());
    let mut satisfiable = true;
    for leaf in leaves {
        let rel = match leaf {
            Leaf::Range {
                rel,
                attr,
                interval,
            } => {
                match interval {
                    Some(interval) => clauses.push(Clause::Range {
                        attr: attr.to_string(),
                        interval,
                    }),
                    None => satisfiable = false,
                }
                rel
            }
            Leaf::Func { rel, attr, name } => {
                clauses.push(func_clause(name, attr, funcs)?);
                rel
            }
            Leaf::Join {
                left_rel,
                right_rel,
                ..
            } => return Err(multiple_relations(left_rel, right_rel)),
        };
        match relation {
            Some(r) if r != rel => return Err(multiple_relations(r, rel)),
            _ => relation = Some(rel),
        }
    }
    let relation = relation.ok_or(ParseError::Empty)?;
    Ok((relation, clauses, satisfiable))
}

fn func_clause(name: &str, attr: &str, funcs: &FunctionRegistry) -> Result<Clause, ParseError> {
    let func = funcs
        .get(name)
        .ok_or_else(|| ParseError::UnknownFunction(name.to_string()))?;
    Ok(Clause::Func {
        name: name.to_string(),
        attr: attr.to_string(),
        func,
    })
}

fn multiple_relations(first: &str, second: &str) -> ParseError {
    ParseError::MultipleRelations {
        first: first.to_string(),
        second: second.to_string(),
    }
}

/// Join-aware conjunct builder: one relation and no cross-relation
/// tests degrade to a plain [`Predicate`]; otherwise a
/// [`JoinCondition`] is assembled with premises sorted by relation
/// name. A conjunct with any unsatisfiable premise collapses to a
/// single unsatisfiable predicate over the first (sorted) relation.
fn build_condition(
    leaves: Vec<Leaf<'_>>,
    funcs: &FunctionRegistry,
) -> Result<ParsedCondition, ParseError> {
    let first = match leaves.first() {
        Some(Leaf::Range { rel, .. } | Leaf::Func { rel, .. }) => Some(*rel),
        _ => None,
    };
    let one_relation = leaves.iter().all(|leaf| match leaf {
        Leaf::Range { rel, .. } | Leaf::Func { rel, .. } => Some(*rel) == first,
        Leaf::Join { .. } => false,
    });
    if one_relation {
        let (rel, clauses, satisfiable) = lower_one_relation(leaves, funcs)?;
        let p = Predicate::new(rel, clauses);
        return Ok(ParsedCondition::Single(
            if satisfiable && p.is_satisfiable() {
                p
            } else {
                Predicate::unsatisfiable(rel)
            },
        ));
    }

    // Group ordinary clauses per relation (BTreeMap: deterministic,
    // already sorted by relation name — the canonical premise order).
    let mut by_rel: BTreeMap<&str, (Vec<Clause>, bool)> = BTreeMap::new();
    let mut tests = Vec::new();
    for leaf in leaves {
        let (rel, clause, sat) = match leaf {
            Leaf::Range {
                rel,
                attr,
                interval,
            } => match interval {
                Some(interval) => (
                    rel,
                    Some(Clause::Range {
                        attr: attr.to_string(),
                        interval,
                    }),
                    true,
                ),
                None => (rel, None, false),
            },
            Leaf::Func { rel, attr, name } => (rel, Some(func_clause(name, attr, funcs)?), true),
            Leaf::Join {
                left_rel,
                left_attr,
                op,
                right_rel,
                right_attr,
            } => {
                for rel in [left_rel, right_rel] {
                    by_rel.entry(rel).or_insert_with(|| (Vec::new(), true));
                }
                tests.push((left_rel, left_attr, op, right_rel, right_attr));
                continue;
            }
        };
        let entry = by_rel.entry(rel).or_insert_with(|| (Vec::new(), true));
        entry.0.extend(clause);
        entry.1 &= sat;
    }

    let mut premises = Vec::with_capacity(by_rel.len());
    let mut unsat = false;
    for (rel, (clauses, sat)) in by_rel {
        let p = Predicate::new(rel, clauses);
        unsat |= !sat || !p.is_satisfiable();
        premises.push(p);
    }
    if unsat {
        let rel = premises[0].relation();
        return Ok(ParsedCondition::Single(Predicate::unsatisfiable(rel)));
    }
    let index_of = |rel: &str| premises.iter().position(|p| p.relation() == rel);
    let mut join_tests = Vec::with_capacity(tests.len());
    for (lrel, lattr, op, rrel, rattr) in tests {
        let (Some(l), Some(r)) = (index_of(lrel), index_of(rrel)) else {
            return Err(ParseError::Empty);
        };
        join_tests.push(JoinTest {
            left: l,
            left_attr: lattr.to_string(),
            op,
            right: r,
            right_attr: rattr.to_string(),
        });
    }
    match JoinCondition::new(premises, join_tests) {
        Some(j) => Ok(ParsedCondition::Join(j)),
        None => Err(ParseError::BadComparison(
            "degenerate join condition".into(),
        )),
    }
}

/// One of the two comparison operand kinds.
enum Operand<'a> {
    Literal(Value),
    Attr(&'a str, &'a str),
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Accept cross-relation comparisons (`a.x = b.y`) as join leaves
    /// instead of rejecting them. Set by [`parse_conditions`].
    allow_join: bool,
    /// Open parentheses around the current position.
    nesting: usize,
    /// Comparisons and function calls parsed so far.
    terms: usize,
    /// Some `or` or `and` would have expanded to more than
    /// [`MAX_TERMS`] conjuncts. It is reported once the whole input
    /// has parsed, so a syntax error anywhere still wins; from here on
    /// alternatives are dropped, not multiplied out.
    overflow: bool,
}

/// An `Unexpected` error for `got` (`None`: end of input).
fn unexpected(got: Option<Token<'_>>, expected: &str) -> ParseError {
    ParseError::Unexpected {
        got: got.map(|t| t.to_string()),
        expected: expected.to_string(),
    }
}

fn is_cmp(t: Token<'_>) -> bool {
    matches!(
        t,
        Token::Lt | Token::Le | Token::Eq | Token::Ge | Token::Gt | Token::Ne
    )
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the next token if it is `want`.
    fn eat(&mut self, want: Token<'_>) -> bool {
        let hit = self.peek() == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, want: Token<'_>, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            got => Err(unexpected(got, what)),
        }
    }

    /// `expr := term ('or' term)*`: the terms' conjuncts, in order.
    fn expr(&mut self) -> Result<Dnf<'a>, ParseError> {
        let mut conjuncts = self.term()?;
        while self.eat(Token::Or) {
            let more = self.term()?;
            self.overflow |= conjuncts.len() + more.len() > MAX_TERMS;
            if self.overflow {
                conjuncts.clear();
            } else {
                conjuncts.extend(more);
            }
        }
        Ok(conjuncts)
    }

    /// `term := factor ('and' factor)*`: a leaf is appended to every
    /// conjunct; alternatives multiply the conjuncts out, left-major.
    fn term(&mut self) -> Result<Dnf<'a>, ParseError> {
        let mut conjuncts = match self.factor()? {
            Factor::Leaf(leaf) => {
                // Room for a typical rule's conjunct without regrowing.
                let mut conjunct = Vec::with_capacity(4);
                conjunct.push(leaf);
                vec![conjunct]
            }
            Factor::Any(alternatives) => alternatives,
        };
        while self.eat(Token::And) {
            match self.factor()? {
                Factor::Leaf(leaf) => {
                    if let Some((last, rest)) = conjuncts.split_last_mut() {
                        for conjunct in rest {
                            conjunct.push(leaf.clone());
                        }
                        last.push(leaf);
                    }
                }
                Factor::Any(alternatives) => {
                    self.overflow |= conjuncts.len() * alternatives.len() > MAX_TERMS;
                    conjuncts = if self.overflow {
                        Vec::new()
                    } else {
                        conjuncts
                            .iter()
                            .flat_map(|l| alternatives.iter().map(move |r| [&l[..], r].concat()))
                            .collect()
                    };
                }
            }
        }
        Ok(conjuncts)
    }

    /// `factor := '(' expr ')' | funccall | comparison`
    fn factor(&mut self) -> Result<Factor<'a>, ParseError> {
        if self.peek() == Some(Token::LParen) {
            self.nesting += 1;
            if self.nesting > MAX_NESTING {
                return Err(ParseError::TooComplex {
                    what: "nested parentheses",
                    limit: MAX_NESTING,
                });
            }
            self.next();
            let e = self.expr()?;
            self.expect(Token::RParen, "')'")?;
            self.nesting -= 1;
            return Ok(Factor::Any(e));
        }
        self.terms += 1;
        if self.terms > MAX_TERMS {
            return Err(ParseError::TooComplex {
                what: "comparisons",
                limit: MAX_TERMS,
            });
        }
        if let (Some(Token::Ident(name)), Some(Token::LParen)) =
            (self.peek(), self.tokens.get(self.pos + 1))
        {
            // funccall := Ident '(' attrref ')'
            self.pos += 2;
            let (rel, attr) = self.attrref()?;
            self.expect(Token::RParen, "')'")?;
            return Ok(Factor::Leaf(Leaf::Func { rel, attr, name }));
        }
        self.comparison()
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Token::Ident(name)) => Ok(name),
            got => Err(unexpected(got, what)),
        }
    }

    fn attrref(&mut self) -> Result<(&'a str, &'a str), ParseError> {
        let rel = self.ident("relation name")?;
        self.expect(Token::Dot, "'.'")?;
        Ok((rel, self.ident("attribute name")?))
    }

    fn operand(&mut self) -> Result<Operand<'a>, ParseError> {
        let value = match self.peek() {
            Some(Token::Int(i)) => Value::Int(i),
            Some(Token::Float(x)) => Value::Float(x),
            Some(Token::Str(s)) => Value::Str(unescape(s)),
            Some(Token::Bool(b)) => Value::Bool(b),
            Some(Token::Ident(_)) => {
                let (rel, attr) = self.attrref()?;
                return Ok(Operand::Attr(rel, attr));
            }
            got => return Err(unexpected(got, "literal or relation.attribute")),
        };
        self.pos += 1;
        Ok(Operand::Literal(value))
    }

    fn cmp_op(&mut self) -> Result<Token<'a>, ParseError> {
        match self.next() {
            Some(t) if is_cmp(t) => Ok(t),
            got => Err(unexpected(got, "comparison operator")),
        }
    }

    fn comparison(&mut self) -> Result<Factor<'a>, ParseError> {
        let a = self.operand()?;
        let op1 = self.cmp_op()?;
        let b = self.operand()?;

        // Chained form: lit op attr op lit.
        if self.peek().is_some_and(is_cmp) {
            let op2 = self.cmp_op()?;
            let c = self.operand()?;
            return lower_chain(a, op1, b, op2, c);
        }
        self.lower_single(a, op1, b)
    }

    fn lower_single(
        &self,
        a: Operand<'a>,
        op: Token<'a>,
        b: Operand<'a>,
    ) -> Result<Factor<'a>, ParseError> {
        // Normalize to attr-on-the-left.
        let (rel, attr, op, lit) = match (a, b) {
            (Operand::Attr(rel, attr), Operand::Literal(v)) => (rel, attr, op, v),
            (Operand::Literal(v), Operand::Attr(rel, attr)) => (rel, attr, flip(op), v),
            (Operand::Literal(_), Operand::Literal(_)) => {
                return Err(ParseError::BadComparison("both sides are literals".into()))
            }
            (Operand::Attr(left_rel, left_attr), Operand::Attr(right_rel, right_attr)) => {
                if !self.allow_join {
                    return Err(ParseError::BadComparison(
                        "both sides are attributes (join predicates are not supported)".into(),
                    ));
                }
                if left_rel == right_rel {
                    return Err(ParseError::BadComparison(format!(
                        "both sides reference relation {left_rel:?} (self-joins are not supported)"
                    )));
                }
                let join = |op| Leaf::Join {
                    left_rel,
                    left_attr,
                    op,
                    right_rel,
                    right_attr,
                };
                let op = match op {
                    Token::Lt => JoinOp::Lt,
                    Token::Le => JoinOp::Le,
                    Token::Gt => JoinOp::Gt,
                    Token::Ge => JoinOp::Ge,
                    Token::Eq => JoinOp::Eq,
                    Token::Ne => {
                        let either = vec![vec![join(JoinOp::Lt)], vec![join(JoinOp::Gt)]];
                        return Ok(Factor::Any(either));
                    }
                    _ => unreachable!(
                        "comparison() dispatches here only for tokens cmp_op() accepted"
                    ),
                };
                return Ok(Factor::Leaf(join(op)));
            }
        };
        let range = |interval| Leaf::Range {
            rel,
            attr,
            interval: Some(interval),
        };
        let interval = match op {
            Token::Lt => Interval::less_than(lit),
            Token::Le => Interval::at_most(lit),
            Token::Gt => Interval::greater_than(lit),
            Token::Ge => Interval::at_least(lit),
            Token::Eq => Interval::point(lit),
            Token::Ne => {
                let lt = range(Interval::less_than(lit.clone()));
                let gt = range(Interval::greater_than(lit));
                return Ok(Factor::Any(vec![vec![lt], vec![gt]]));
            }
            _ => unreachable!("comparison() dispatches here only for tokens cmp_op() accepted"),
        };
        Ok(Factor::Leaf(range(interval)))
    }
}

/// Lowers `c1 ρ1 attr ρ2 c2` (the paper's general range clause form)
/// to an interval.
fn lower_chain<'a>(
    a: Operand<'a>,
    op1: Token<'a>,
    b: Operand<'a>,
    op2: Token<'a>,
    c: Operand<'a>,
) -> Result<Factor<'a>, ParseError> {
    let (Operand::Literal(lo), Operand::Attr(rel, attr), Operand::Literal(hi)) = (a, b, c) else {
        return Err(ParseError::BadChain(
            "chained comparisons must be literal ρ attr ρ literal".into(),
        ));
    };
    // Both ops ascending (< / <=) or both descending (> / >=).
    let make = |lo: Value, lo_op: Token<'_>, hi: Value, hi_op: Token<'_>| {
        let lower = match lo_op {
            Token::Le => Lower::Inclusive(lo),
            Token::Lt => Lower::Exclusive(lo),
            _ => unreachable!("both call sites normalize descending chains to Lt/Le first"),
        };
        let upper = match hi_op {
            Token::Le => Upper::Inclusive(hi),
            Token::Lt => Upper::Exclusive(hi),
            _ => unreachable!("both call sites normalize descending chains to Lt/Le first"),
        };
        Interval::new(lower, upper).ok()
    };
    let interval = match (op1, op2) {
        (Token::Lt | Token::Le, Token::Lt | Token::Le) => make(lo, op1, hi, op2),
        // c1 >= attr >= c2 reads downward: flip to c2 <= attr <= c1.
        (Token::Gt | Token::Ge, Token::Gt | Token::Ge) => make(hi, flip(op2), lo, flip(op1)),
        _ => {
            return Err(ParseError::BadChain(
                "chained comparison operators must point the same way".into(),
            ))
        }
    };
    Ok(Factor::Leaf(Leaf::Range {
        rel,
        attr,
        interval,
    }))
}

/// Mirror a comparison operator (for swapping operand sides).
fn flip(op: Token<'_>) -> Token<'_> {
    match op {
        Token::Lt => Token::Gt,
        Token::Le => Token::Ge,
        Token::Gt => Token::Lt,
        Token::Ge => Token::Le,
        other => other,
    }
}
