//! Recursive-descent parser and DNF normalization.
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
//! The boolean expression is normalized to disjunctive normal form; each
//! disjunct becomes one [`Predicate`], implementing §1's "any predicate
//! containing a disjunction is broken up into two or more predicates".
//! `!=` desugars to `< or >`, which rides the same mechanism.

use crate::clause::Clause;
use crate::functions::FunctionRegistry;
use crate::join::{JoinCondition, JoinOp, JoinTest, ParsedCondition};
use crate::parser::lexer::{lex, LexError, Token};
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

/// A parsed leaf before DNF expansion.
#[derive(Debug, Clone)]
enum Leaf {
    /// Range clause; `interval = None` means the comparison chain was
    /// contradictory (e.g. `5 <= a <= 3`) — the conjunct is
    /// unsatisfiable.
    Range {
        rel: String,
        attr: String,
        interval: Option<Interval<Value>>,
    },
    /// Function clause.
    Func {
        rel: String,
        attr: String,
        name: String,
    },
    /// `attr != c`, expanded to `< c or > c` during DNF.
    NotEqual {
        rel: String,
        attr: String,
        value: Value,
    },
    /// Cross-relation comparison (`a.x ρ b.y`), only produced when the
    /// parser runs in join-aware mode ([`parse_conditions`]).
    Join {
        left_rel: String,
        left_attr: String,
        op: JoinOp,
        right_rel: String,
        right_attr: String,
    },
    /// `a.x != b.y`, expanded to `< or >` during DNF.
    JoinNotEqual {
        left_rel: String,
        left_attr: String,
        right_rel: String,
        right_attr: String,
    },
}

#[derive(Debug, Clone)]
enum Expr {
    Or(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Leaf(Leaf),
}

/// Lexes and parses `input`, returning its DNF conjuncts as leaf lists.
fn parse_to_conjuncts(input: &str, allow_join: bool) -> Result<Vec<Vec<Leaf>>, ParseError> {
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
    };
    let expr = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::Unexpected {
            got: Some(p.tokens[p.pos].to_string()),
            expected: "end of input".into(),
        });
    }
    dnf(&expr)
}

/// Parses `input` into one predicate per disjunct of its DNF.
pub(crate) fn parse_dnf(
    input: &str,
    funcs: &FunctionRegistry,
) -> Result<Vec<Predicate>, ParseError> {
    parse_to_conjuncts(input, false)?
        .into_iter()
        .map(|leaves| build_predicate(leaves, funcs))
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

/// Expands an expression tree to DNF: a list of conjuncts, each a list
/// of leaves. `NotEqual` leaves split into two alternatives here, so
/// `n` of them `and`-ed together are 2^n conjuncts: no level may
/// return more than [`MAX_TERMS`].
fn dnf(expr: &Expr) -> Result<Vec<Vec<Leaf>>, ParseError> {
    let too_many = ParseError::TooComplex {
        what: "conjuncts in its DNF",
        limit: MAX_TERMS,
    };
    Ok(match expr {
        Expr::Or(a, b) => {
            let mut out = dnf(a)?;
            out.extend(dnf(b)?);
            if out.len() > MAX_TERMS {
                return Err(too_many);
            }
            out
        }
        Expr::And(a, b) => {
            let left = dnf(a)?;
            let right = dnf(b)?;
            if left.len() * right.len() > MAX_TERMS {
                return Err(too_many);
            }
            let mut out = Vec::with_capacity(left.len() * right.len());
            for l in &left {
                for r in &right {
                    let mut c = l.clone();
                    c.extend(r.iter().cloned());
                    out.push(c);
                }
            }
            out
        }
        Expr::Leaf(Leaf::NotEqual { rel, attr, value }) => vec![
            vec![Leaf::Range {
                rel: rel.clone(),
                attr: attr.clone(),
                interval: Some(Interval::less_than(value.clone())),
            }],
            vec![Leaf::Range {
                rel: rel.clone(),
                attr: attr.clone(),
                interval: Some(Interval::greater_than(value.clone())),
            }],
        ],
        Expr::Leaf(Leaf::JoinNotEqual {
            left_rel,
            left_attr,
            right_rel,
            right_attr,
        }) => vec![
            vec![Leaf::Join {
                left_rel: left_rel.clone(),
                left_attr: left_attr.clone(),
                op: JoinOp::Lt,
                right_rel: right_rel.clone(),
                right_attr: right_attr.clone(),
            }],
            vec![Leaf::Join {
                left_rel: left_rel.clone(),
                left_attr: left_attr.clone(),
                op: JoinOp::Gt,
                right_rel: right_rel.clone(),
                right_attr: right_attr.clone(),
            }],
        ],
        Expr::Leaf(l) => vec![vec![l.clone()]],
    })
}

fn build_predicate(leaves: Vec<Leaf>, funcs: &FunctionRegistry) -> Result<Predicate, ParseError> {
    let mut relation: Option<String> = None;
    let mut clauses = Vec::with_capacity(leaves.len());
    let mut satisfiable = true;
    for leaf in leaves {
        let (rel, clause) = match leaf {
            Leaf::Range {
                rel,
                attr,
                interval,
            } => match interval {
                Some(iv) => (rel, Some(Clause::Range { attr, interval: iv })),
                None => {
                    satisfiable = false;
                    (rel, None)
                }
            },
            Leaf::Func { rel, attr, name } => {
                let func = funcs
                    .get(&name)
                    .ok_or_else(|| ParseError::UnknownFunction(name.clone()))?;
                (rel, Some(Clause::Func { name, attr, func }))
            }
            Leaf::NotEqual { .. } | Leaf::JoinNotEqual { .. } => {
                unreachable!("dnf() expands every NotEqual into two Range alternatives")
            }
            Leaf::Join {
                left_rel,
                right_rel,
                ..
            } => {
                return Err(ParseError::MultipleRelations {
                    first: left_rel,
                    second: right_rel,
                })
            }
        };
        match &relation {
            None => relation = Some(rel),
            Some(r) if *r != rel => {
                return Err(ParseError::MultipleRelations {
                    first: r.clone(),
                    second: rel,
                })
            }
            Some(_) => {}
        }
        if let Some(c) = clause {
            clauses.push(c);
        }
    }
    let relation = relation.ok_or(ParseError::Empty)?;
    let p = Predicate::new(relation.clone(), clauses);
    Ok(if satisfiable {
        p
    } else {
        Predicate::unsatisfiable(relation)
    })
}

/// Join-aware conjunct builder: one relation and no cross-relation
/// tests degrade to a plain [`Predicate`]; otherwise a
/// [`JoinCondition`] is assembled with premises sorted by relation
/// name. A conjunct with any unsatisfiable premise collapses to a
/// single unsatisfiable predicate over the first (sorted) relation.
fn build_condition(
    leaves: Vec<Leaf>,
    funcs: &FunctionRegistry,
) -> Result<ParsedCondition, ParseError> {
    let mut tests = Vec::new();
    let mut simple = Vec::new();
    for leaf in leaves {
        match leaf {
            Leaf::Join {
                left_rel,
                left_attr,
                op,
                right_rel,
                right_attr,
            } => tests.push((left_rel, left_attr, op, right_rel, right_attr)),
            other => simple.push(other),
        }
    }

    // Group ordinary clauses per relation (BTreeMap: deterministic,
    // already sorted by relation name — the canonical premise order).
    let mut by_rel: BTreeMap<String, (Vec<Clause>, bool)> = BTreeMap::new();
    for leaf in simple {
        let (rel, clause, sat) = match leaf {
            Leaf::Range {
                rel,
                attr,
                interval,
            } => match interval {
                Some(iv) => (rel, Some(Clause::Range { attr, interval: iv }), true),
                None => (rel, None, false),
            },
            Leaf::Func { rel, attr, name } => {
                let func = funcs
                    .get(&name)
                    .ok_or_else(|| ParseError::UnknownFunction(name.clone()))?;
                (rel, Some(Clause::Func { name, attr, func }), true)
            }
            Leaf::NotEqual { .. } | Leaf::Join { .. } | Leaf::JoinNotEqual { .. } => {
                unreachable!("dnf() expands NotEqual leaves and the loop above diverts Join leaves")
            }
        };
        let entry = by_rel.entry(rel).or_insert_with(|| (Vec::new(), true));
        if let Some(c) = clause {
            entry.0.push(c);
        }
        entry.1 &= sat;
    }
    for (lrel, _, _, rrel, _) in &tests {
        by_rel
            .entry(lrel.clone())
            .or_insert_with(|| (Vec::new(), true));
        by_rel
            .entry(rrel.clone())
            .or_insert_with(|| (Vec::new(), true));
    }

    if by_rel.is_empty() {
        return Err(ParseError::Empty);
    }
    if by_rel.len() == 1 && tests.is_empty() {
        let (rel, (clauses, sat)) = by_rel.into_iter().next().ok_or(ParseError::Empty)?;
        let p = Predicate::new(rel.clone(), clauses);
        return Ok(ParsedCondition::Single(if sat && p.is_satisfiable() {
            p
        } else {
            Predicate::unsatisfiable(rel)
        }));
    }

    let mut premises = Vec::with_capacity(by_rel.len());
    let mut unsat = false;
    for (rel, (clauses, sat)) in by_rel {
        let p = Predicate::new(rel, clauses);
        unsat |= !sat || !p.is_satisfiable();
        premises.push(p);
    }
    if unsat {
        let rel = premises[0].relation().to_string();
        return Ok(ParsedCondition::Single(Predicate::unsatisfiable(rel)));
    }
    let index_of = |rel: &str| premises.iter().position(|p| p.relation() == rel);
    let mut join_tests = Vec::with_capacity(tests.len());
    for (lrel, lattr, op, rrel, rattr) in tests {
        let (Some(l), Some(r)) = (index_of(&lrel), index_of(&rrel)) else {
            return Err(ParseError::Empty);
        };
        join_tests.push(JoinTest {
            left: l,
            left_attr: lattr,
            op,
            right: r,
            right_attr: rattr,
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
#[derive(Debug, Clone)]
enum Operand {
    Literal(Value),
    Attr { rel: String, attr: String },
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Accept cross-relation comparisons (`a.x = b.y`) as join leaves
    /// instead of rejecting them. Set by [`parse_conditions`].
    allow_join: bool,
    /// Open parentheses around the current position.
    nesting: usize,
    /// Comparisons and function calls parsed so far.
    terms: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == *want => Ok(()),
            got => Err(ParseError::Unexpected {
                got: got.map(|t| t.to_string()),
                expected: what.to_string(),
            }),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.term()?;
        while self.peek() == Some(&Token::Or) {
            self.next();
            let right = self.term()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.factor()?;
        while self.peek() == Some(&Token::And) {
            self.next();
            let right = self.factor()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(&Token::LParen) {
            self.nesting += 1;
            if self.nesting > MAX_NESTING {
                return Err(ParseError::TooComplex {
                    what: "nested parentheses",
                    limit: MAX_NESTING,
                });
            }
            self.next();
            let e = self.expr()?;
            self.expect(&Token::RParen, "')'")?;
            self.nesting -= 1;
            return Ok(e);
        }
        self.terms += 1;
        if self.terms > MAX_TERMS {
            return Err(ParseError::TooComplex {
                what: "comparisons",
                limit: MAX_TERMS,
            });
        }
        match self.peek() {
            Some(Token::Ident(_))
                if matches!(self.tokens.get(self.pos + 1), Some(Token::LParen)) =>
            {
                self.funccall()
            }
            _ => self.comparison(),
        }
    }

    fn funccall(&mut self) -> Result<Expr, ParseError> {
        let name = match self.next() {
            Some(Token::Ident(name)) => name,
            got => {
                return Err(ParseError::Unexpected {
                    got: got.map(|t| t.to_string()),
                    expected: "function name".into(),
                })
            }
        };
        self.expect(&Token::LParen, "'('")?;
        let (rel, attr) = self.attrref()?;
        self.expect(&Token::RParen, "')'")?;
        Ok(Expr::Leaf(Leaf::Func { rel, attr, name }))
    }

    fn attrref(&mut self) -> Result<(String, String), ParseError> {
        let rel = match self.next() {
            Some(Token::Ident(r)) => r,
            got => {
                return Err(ParseError::Unexpected {
                    got: got.map(|t| t.to_string()),
                    expected: "relation name".into(),
                })
            }
        };
        self.expect(&Token::Dot, "'.'")?;
        match self.next() {
            Some(Token::Ident(a)) => Ok((rel, a)),
            got => Err(ParseError::Unexpected {
                got: got.map(|t| t.to_string()),
                expected: "attribute name".into(),
            }),
        }
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.next();
                Ok(Operand::Literal(Value::Int(i)))
            }
            Some(Token::Float(x)) => {
                self.next();
                Ok(Operand::Literal(Value::Float(x)))
            }
            Some(Token::Str(s)) => {
                self.next();
                Ok(Operand::Literal(Value::Str(s)))
            }
            Some(Token::Bool(b)) => {
                self.next();
                Ok(Operand::Literal(Value::Bool(b)))
            }
            Some(Token::Ident(_)) => {
                let (rel, attr) = self.attrref()?;
                Ok(Operand::Attr { rel, attr })
            }
            got => Err(ParseError::Unexpected {
                got: got.map(|t| t.to_string()),
                expected: "literal or relation.attribute".into(),
            }),
        }
    }

    fn cmp_op(&mut self) -> Result<Token, ParseError> {
        match self.next() {
            Some(t @ (Token::Lt | Token::Le | Token::Eq | Token::Ge | Token::Gt | Token::Ne)) => {
                Ok(t)
            }
            got => Err(ParseError::Unexpected {
                got: got.map(|t| t.to_string()),
                expected: "comparison operator".into(),
            }),
        }
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let a = self.operand()?;
        let op1 = self.cmp_op()?;
        let b = self.operand()?;

        // Chained form: lit op attr op lit.
        let chained = matches!(
            self.peek(),
            Some(Token::Lt | Token::Le | Token::Eq | Token::Ge | Token::Gt | Token::Ne)
        );
        if chained {
            let op2 = self.cmp_op()?;
            let c = self.operand()?;
            return self.lower_chain(a, op1, b, op2, c);
        }
        self.lower_single(a, op1, b)
    }

    fn lower_single(&self, a: Operand, op: Token, b: Operand) -> Result<Expr, ParseError> {
        // Normalize to attr-on-the-left.
        let (rel, attr, op, lit) = match (a, b) {
            (Operand::Attr { rel, attr }, Operand::Literal(v)) => (rel, attr, op, v),
            (Operand::Literal(v), Operand::Attr { rel, attr }) => (rel, attr, flip(op), v),
            (Operand::Literal(_), Operand::Literal(_)) => {
                return Err(ParseError::BadComparison("both sides are literals".into()))
            }
            (
                Operand::Attr {
                    rel: left_rel,
                    attr: left_attr,
                },
                Operand::Attr {
                    rel: right_rel,
                    attr: right_attr,
                },
            ) => {
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
                let leaf = match op {
                    Token::Lt => join_leaf(left_rel, left_attr, JoinOp::Lt, right_rel, right_attr),
                    Token::Le => join_leaf(left_rel, left_attr, JoinOp::Le, right_rel, right_attr),
                    Token::Gt => join_leaf(left_rel, left_attr, JoinOp::Gt, right_rel, right_attr),
                    Token::Ge => join_leaf(left_rel, left_attr, JoinOp::Ge, right_rel, right_attr),
                    Token::Eq => join_leaf(left_rel, left_attr, JoinOp::Eq, right_rel, right_attr),
                    Token::Ne => Leaf::JoinNotEqual {
                        left_rel,
                        left_attr,
                        right_rel,
                        right_attr,
                    },
                    _ => unreachable!(
                        "comparison() dispatches here only for tokens cmp_op() accepted"
                    ),
                };
                return Ok(Expr::Leaf(leaf));
            }
        };
        let leaf = match op {
            Token::Lt => Leaf::Range {
                rel,
                attr,
                interval: Some(Interval::less_than(lit)),
            },
            Token::Le => Leaf::Range {
                rel,
                attr,
                interval: Some(Interval::at_most(lit)),
            },
            Token::Gt => Leaf::Range {
                rel,
                attr,
                interval: Some(Interval::greater_than(lit)),
            },
            Token::Ge => Leaf::Range {
                rel,
                attr,
                interval: Some(Interval::at_least(lit)),
            },
            Token::Eq => Leaf::Range {
                rel,
                attr,
                interval: Some(Interval::point(lit)),
            },
            Token::Ne => Leaf::NotEqual {
                rel,
                attr,
                value: lit,
            },
            _ => unreachable!("comparison() dispatches here only for tokens cmp_op() accepted"),
        };
        Ok(Expr::Leaf(leaf))
    }

    /// Lowers `c1 ρ1 attr ρ2 c2` (the paper's general range clause form)
    /// to an interval.
    fn lower_chain(
        &self,
        a: Operand,
        op1: Token,
        b: Operand,
        op2: Token,
        c: Operand,
    ) -> Result<Expr, ParseError> {
        let (lo_lit, rel, attr, hi_lit, op_lo, op_hi) = match (a, b, c) {
            (Operand::Literal(lo), Operand::Attr { rel, attr }, Operand::Literal(hi)) => {
                (lo, rel, attr, hi, op1, op2)
            }
            _ => {
                return Err(ParseError::BadChain(
                    "chained comparisons must be literal ρ attr ρ literal".into(),
                ))
            }
        };
        // Both ops ascending (< / <=) or both descending (> / >=).
        let make = |lo: Value, lo_op: &Token, hi: Value, hi_op: &Token| {
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
        let interval = match (&op_lo, &op_hi) {
            (Token::Lt | Token::Le, Token::Lt | Token::Le) => make(lo_lit, &op_lo, hi_lit, &op_hi),
            (Token::Gt | Token::Ge, Token::Gt | Token::Ge) => {
                // c1 >= attr >= c2 reads downward: flip to c2 <= attr <= c1.
                make(hi_lit, &flip(op_hi), lo_lit, &flip(op_lo))
            }
            _ => {
                return Err(ParseError::BadChain(
                    "chained comparison operators must point the same way".into(),
                ))
            }
        };
        Ok(Expr::Leaf(Leaf::Range {
            rel,
            attr,
            interval,
        }))
    }
}

fn join_leaf(
    left_rel: String,
    left_attr: String,
    op: JoinOp,
    right_rel: String,
    right_attr: String,
) -> Leaf {
    Leaf::Join {
        left_rel,
        left_attr,
        op,
        right_rel,
        right_attr,
    }
}

/// Mirror a comparison operator (for swapping operand sides).
fn flip(op: Token) -> Token {
    match op {
        Token::Lt => Token::Gt,
        Token::Le => Token::Ge,
        Token::Gt => Token::Lt,
        Token::Ge => Token::Le,
        other => other,
    }
}
