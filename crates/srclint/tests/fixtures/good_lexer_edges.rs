// srclint-fixture: path=crates/predicate/src/good_lexer_edges.rs
// A fixture, not compiled: lexer edge cases that would surface false
// positives if mishandled. Everything below is clean.

/* A block comment /* with a nested block */ still inside the outer:
   unsafe { } and x.unwrap() are comment text, not code. */

fn lifetimes_are_not_chars<'a>(x: &'a str) -> &'a str {
    // 'a above must lex as a lifetime; the literals below as chars.
    let _tick: char = '\'';
    let _escaped: char = '\u{7f}';
    let _plain: char = 'u';
    x
}

fn raw_strings_hide_everything() -> &'static str {
    r##"r#"nested quote"# and panic!("text") and unsafe { }"##
}

fn byte_strings_too() -> &'static [u8] {
    br#"b.unwrap() // not a comment either"#
}

fn r_is_a_normal_ident(r: i32) -> i32 {
    let r#match = r; // raw ident keyword
    r#match
}

fn raw_strings_hide_line_comments() -> &'static str {
    // The `//` inside must NOT start a comment: if it did, the
    // closing delimiter would be swallowed and `panic!` below would
    // leak into code.
    r#"scheme://host/path // still string text, panic!("never code")"#
}

#[doc = "A doc attribute whose string holds /* a block comment /* nested */ opener */ as text."]
fn doc_attr_string_is_not_a_comment() -> i32 {
    // If the lexer treated the attribute string's `/*` as a comment
    // opener, everything to here would be comment text.
    0
}

#[doc = r"raw doc strings too: /* unterminated-looking and // markers"]
fn raw_doc_attr_edge() -> i32 {
    0
}
