//! The predicate language: lexer, parser, and DNF normalization.

mod lexer;
mod parse;

pub use lexer::LexError;
pub(crate) use parse::parse_dnf;
pub use parse::{parse_condition, parse_conditions, parse_conjunct, ParseError};
