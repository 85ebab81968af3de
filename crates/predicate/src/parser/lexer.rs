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

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Identifier (relation, attribute, or function name).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Double-quoted string literal (supports `\"` and `\\`).
    Str(String),
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

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "{s:?}"),
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

/// Tokenizes `input`.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
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
                out.push(match word.to_ascii_lowercase().as_str() {
                    "and" => Token::And,
                    "or" => Token::Or,
                    "true" => Token::Bool(true),
                    "false" => Token::Bool(false),
                    _ => Token::Ident(word.to_string()),
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

fn lex_string(input: &str, start: usize) -> Result<(String, usize), LexError> {
    let bytes = input.as_bytes();
    let mut s = String::new();
    let mut i = start + 1; // skip opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((s, i + 1)),
            b'\\' => {
                match bytes.get(i + 1) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    _ => {
                        return Err(LexError {
                            pos: i,
                            message: "bad escape".into(),
                        })
                    }
                }
                i += 2;
            }
            _ => {
                // Copy one full UTF-8 character; `i` always sits on a
                // char boundary, but exiting to the unterminated-string
                // error beats panicking if that ever breaks.
                let Some(ch) = input[i..].chars().next() else {
                    break;
                };
                s.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    Err(LexError {
        pos: start,
        message: "unterminated string".into(),
    })
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize), LexError> {
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
                Token::Ident("EMP".into()),
                Token::Dot,
                Token::Ident("salary".into()),
                Token::Lt,
                Token::Int(20000),
                Token::And,
                Token::Ident("EMP".into()),
                Token::Dot,
                Token::Ident("age".into()),
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
        assert_eq!(toks[4], Token::Str("Sales\"person\\".into()));
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
