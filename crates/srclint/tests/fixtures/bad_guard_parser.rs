// srclint-fixture: path=crates/predicate/src/parser/lex.rs
// An owned identifier token and a keyword test that lowercases into a
// new `String`.

pub enum Token {
    Ident(String),
}

pub fn is_and(word: &str) -> bool {
    word.to_ascii_lowercase() == "and"
}
