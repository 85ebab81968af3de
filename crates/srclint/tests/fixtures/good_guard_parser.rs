// srclint-fixture: path=crates/predicate/src/parser/lex.rs
// Tokens borrow the condition text, and a keyword matches without a
// copy.

pub enum Token<'a> {
    Ident(&'a str),
}

pub fn is_and(word: &str) -> bool {
    word.eq_ignore_ascii_case("and")
}
