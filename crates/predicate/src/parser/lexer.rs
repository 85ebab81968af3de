//! Tokenizer for the predicate language.
//!
//! The surface syntax follows the paper's examples:
//!
//! ```text
//! EMP.salary < 20000 and EMP.age > 50
//! 20000 <= EMP.salary <= 30000
//! EMP.job = "Salesperson"
//! IsOdd(EMP.age) and EMP.dept = "Shoe"
//! ```

use std::fmt;

/// A lexical token. Identifiers and string literals borrow the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    /// Identifier (relation, attribute, or function name).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Double-quoted string literal, as written between the quotes:
    /// its escapes (`\"` and `\\`) are checked, not yet resolved
    /// ([`unescape`]).
    Str(&'a str),
    /// Boolean literal.
    Bool(bool),
    Lt,
    Le,
    Eq,
    Ge,
    Gt,
    Ne,
    And,
    Or,
    LParen,
    RParen,
    Dot,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "{:?}", unescape(s)),
            Token::Bool(b) => write!(f, "{b}"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Eq => write!(f, "="),
            Token::Ge => write!(f, ">="),
            Token::Gt => write!(f, ">"),
            Token::Ne => write!(f, "!="),
            Token::And => write!(f, "and"),
            Token::Or => write!(f, "or"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Dot => write!(f, "."),
        }
    }
}

/// Lexing errors with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

/// Tokenizes `input`. A token takes at least one byte, so the list is
/// sized once, from the input's length.
pub(crate) fn lex(input: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(input.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b'.' => {
                out.push(Token::Dot);
                i += 1;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            b'=' => {
                // Accept both `=` and `==`.
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                } else {
                    i += 1;
                }
                out.push(Token::Eq);
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(LexError {
                        pos: i,
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            b'"' => {
                let (s, next) = lex_string(input, i)?;
                out.push(Token::Str(s));
                i = next;
            }
            b'-' | b'0'..=b'9' => {
                let (tok, next) = lex_number(input, i)?;
                out.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &input[start..i];
                let is = |keyword: &str| word.eq_ignore_ascii_case(keyword);
                out.push(if is("and") {
                    Token::And
                } else if is("or") {
                    Token::Or
                } else if is("true") {
                    Token::Bool(true)
                } else if is("false") {
                    Token::Bool(false)
                } else {
                    Token::Ident(word)
                });
            }
            _ => {
                return Err(LexError {
                    pos: i,
                    message: format!(
                        "unexpected character {:?}",
                        // Guarded by the loop bound; placeholder keeps
                        // the error path panic-free regardless.
                        input[i..]
                            .chars()
                            .next()
                            .unwrap_or(char::REPLACEMENT_CHARACTER)
                    ),
                });
            }
        }
    }
    Ok(out)
}

/// Finds the end of the string literal opening at `start`, checking
/// its escapes; returns its body and the byte after the closing quote.
fn lex_string(input: &str, start: usize) -> Result<(&str, usize), LexError> {
    let bytes = input.as_bytes();
    let mut i = start + 1; // skip opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((&input[start + 1..i], i + 1)),
            b'\\' => match bytes.get(i + 1) {
                Some(b'"' | b'\\') => i += 2,
                _ => {
                    return Err(LexError {
                        pos: i,
                        message: "bad escape".into(),
                    })
                }
            },
            // A quote or backslash is never a UTF-8 continuation byte,
            // so stepping by bytes finds them.
            _ => i += 1,
        }
    }
    Err(LexError {
        pos: start,
        message: "unterminated string".into(),
    })
}

/// Resolves the escapes of a string literal's body (`lex_string`
/// checked them).
pub(crate) fn unescape(body: &str) -> String {
    if !body.contains('\\') {
        return body.to_string();
    }
    let mut s = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        s.push(match c {
            '\\' => chars.next().unwrap_or('\\'),
            c => c,
        });
    }
    s
}

fn lex_number(input: &str, start: usize) -> Result<(Token<'_>, usize), LexError> {
    let bytes = input.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
        if i >= bytes.len() || !bytes[i].is_ascii_digit() {
            return Err(LexError {
                pos: start,
                message: "expected digits after '-'".into(),
            });
        }
    }
    let mut is_float = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' if !is_float && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit()) => {
                is_float = true;
                i += 1;
            }
            b'e' | b'E'
                if bytes
                    .get(i + 1)
                    .is_some_and(|c| c.is_ascii_digit() || *c == b'-' || *c == b'+') =>
            {
                is_float = true;
                i += 2;
            }
            _ => break,
        }
    }
    let text = &input[start..i];
    let tok = if is_float {
        Token::Float(text.parse().map_err(|e| LexError {
            pos: start,
            message: format!("bad float literal: {e}"),
        })?)
    } else {
        Token::Int(text.parse().map_err(|e| LexError {
            pos: start,
            message: format!("bad int literal: {e}"),
        })?)
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples_lex() {
        let toks = lex("EMP.salary < 20000 and EMP.age > 50").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("EMP"),
                Token::Dot,
                Token::Ident("salary"),
                Token::Lt,
                Token::Int(20000),
                Token::And,
                Token::Ident("EMP"),
                Token::Dot,
                Token::Ident("age"),
                Token::Gt,
                Token::Int(50),
            ]
        );
    }

    #[test]
    fn operators() {
        let toks = lex("< <= = == >= > != <>").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Eq,
                Token::Eq,
                Token::Ge,
                Token::Gt,
                Token::Ne,
                Token::Ne,
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        let toks = lex(r#"emp.job = "Sales\"person\\" "#).unwrap();
        assert_eq!(toks[4], Token::Str(r#"Sales\"person\\"#));
        assert_eq!(unescape(r#"Sales\"person\\"#), "Sales\"person\\");
        assert_eq!(toks[4].to_string(), r#""Sales\"person\\""#);
    }

    #[test]
    fn numbers() {
        let toks = lex("42 -7 3.5 -0.25 1e3 2.5e-2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Int(-7),
                Token::Float(3.5),
                Token::Float(-0.25),
                Token::Float(1e3),
                Token::Float(2.5e-2),
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = lex("AND Or TRUE false").unwrap();
        assert_eq!(
            toks,
            vec![Token::And, Token::Or, Token::Bool(true), Token::Bool(false)]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("a # b").is_err());
        assert!(lex(r#""unterminated"#).is_err());
        assert!(lex("! x").is_err());
        assert!(lex("- x").is_err());
    }
}
