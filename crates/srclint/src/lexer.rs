//! A hand-rolled Rust lexer: just enough token structure for lexical
//! lints, with the hard parts done properly — nested block comments,
//! raw strings (any `#` count), byte/raw-byte strings, and the
//! `'a'`-char versus `'a`-lifetime ambiguity. No syn, no proc-macro:
//! the whole analyzer stays std-only so it builds against an
//! unreachable registry.
//!
//! Comments are kept in the token stream (the lints skip them by
//! kind); whitespace is dropped. Every token carries a byte span and a 1-based `line:col`
//! so diagnostics point at real source positions.

/// What a token is. Literal sub-flavours that no lint distinguishes
/// (byte vs unicode strings, ints vs floats) are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unsafe`, `fn`, `unwrap`, ...); raw
    /// identifiers (`r#type`) land here with the `r#` included.
    Ident,
    /// `'a`, `'static`, `'_` — but never `'a'` (that is a [`Char`]).
    ///
    /// [`Char`]: TokenKind::Char
    Lifetime,
    /// Integer or float literal, suffix included.
    Num,
    /// `"..."` or `b"..."` with escapes.
    Str,
    /// `r"..."`, `r#"..."#`, `br##"..."##`, any hash depth.
    RawStr,
    /// `'x'`, `'\n'`, `'\u{1F980}'`, `b'x'`.
    Char,
    /// `// ...` (incl. `///` and `//!`) up to the newline.
    LineComment,
    /// `/* ... */`, nested pairs balanced like rustc does.
    BlockComment,
    /// Any single punctuation byte (`.`, `(`, `#`, `!`, ...).
    Punct,
}

/// One token: kind plus byte span and 1-based source position.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the token's first byte in the source.
    pub start: usize,
    /// Byte length.
    pub len: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's text, sliced out of the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.start + self.len]
    }

    /// Is this token the identifier `word`?
    pub fn is_ident(&self, src: &str, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(src) == word
    }

    /// Is this token the punctuation byte `p`?
    pub fn is_punct(&self, src: &str, p: char) -> bool {
        self.kind == TokenKind::Punct && self.text(src).starts_with(p)
    }

    /// Is this a line or block comment?
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Byte-level cursor over the source. Decisions are ASCII-driven;
/// non-ASCII bytes are treated as identifier/comment filler, which is
/// correct for every position they can legally occupy in Rust source.
struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        b
    }

    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into a token vector. Never fails: unterminated
/// literals and comments are closed by end-of-file, which is the
/// right behaviour for a linter that must keep going on odd input.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while !cur.eof() {
        let (start, line, col) = (cur.pos, cur.line, cur.col);
        let b = cur.peek(0);
        let kind = if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        } else if b == b'/' && cur.peek(1) == b'/' {
            lex_line_comment(&mut cur)
        } else if b == b'/' && cur.peek(1) == b'*' {
            lex_block_comment(&mut cur)
        } else if let Some(kind) = try_lex_prefixed_literal(&mut cur) {
            kind
        } else if is_ident_start(b) {
            lex_ident(&mut cur)
        } else if b.is_ascii_digit() {
            lex_number(&mut cur)
        } else if b == b'"' {
            lex_string(&mut cur)
        } else if b == b'\'' {
            lex_tick(&mut cur)
        } else {
            cur.bump();
            TokenKind::Punct
        };
        out.push(Token {
            kind,
            start,
            len: cur.pos - start,
            line,
            col,
        });
    }
    out
}

fn lex_line_comment(cur: &mut Cursor) -> TokenKind {
    while !cur.eof() && cur.peek(0) != b'\n' {
        cur.bump();
    }
    TokenKind::LineComment
}

fn lex_block_comment(cur: &mut Cursor) -> TokenKind {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    while !cur.eof() && depth > 0 {
        if cur.peek(0) == b'/' && cur.peek(1) == b'*' {
            cur.bump();
            cur.bump();
            depth += 1;
        } else if cur.peek(0) == b'*' && cur.peek(1) == b'/' {
            cur.bump();
            cur.bump();
            depth -= 1;
        } else {
            cur.bump();
        }
    }
    TokenKind::BlockComment
}

/// Handles every literal form that *starts* with an identifier byte:
/// `r"` / `r#"` raw strings, `b"` byte strings, `br#"` raw byte
/// strings, `b'x'` byte chars, and `r#ident` raw identifiers. Returns
/// `None` when the lookahead says this is a plain identifier after
/// all (`radius`, `broken`, ...).
fn try_lex_prefixed_literal(cur: &mut Cursor) -> Option<TokenKind> {
    let (b0, b1) = (cur.peek(0), cur.peek(1));
    match (b0, b1) {
        (b'r', b'"') | (b'r', b'#') | (b'b', b'r') if raw_string_follows(cur) => {
            cur.bump(); // 'r' or 'b'
            if b1 == b'r' {
                cur.bump(); // 'r' of "br"
            }
            let hashes = count_hashes(cur);
            Some(lex_raw_string_body(cur, hashes))
        }
        (b'r', b'#') if is_ident_start(cur.peek(2)) => {
            // Raw identifier `r#type`: consume prefix, fall through to
            // ident rules.
            cur.bump();
            cur.bump();
            while is_ident_continue(cur.peek(0)) {
                cur.bump();
            }
            Some(TokenKind::Ident)
        }
        (b'b', b'"') => {
            cur.bump();
            Some(lex_string(cur))
        }
        (b'b', b'\'') => {
            cur.bump();
            Some(lex_char_body(cur))
        }
        _ => None,
    }
}

/// Past the `r`/`br` prefix, do we see `#* "` — i.e. the rest of a
/// raw-string opener? Distinguishes `r#"..."#` from the raw ident
/// `r#type` and `br#"..."#` from an ident starting with `br`.
fn raw_string_follows(cur: &Cursor) -> bool {
    let mut i = if cur.peek(0) == b'b' { 2 } else { 1 };
    if cur.peek(0) == b'b' && cur.peek(1) != b'r' {
        return false;
    }
    while cur.peek(i) == b'#' {
        i += 1;
    }
    cur.peek(i) == b'"'
}

/// Counts `#`s at the cursor (which sits just past `r`/`br`),
/// consuming them and the opening quote.
fn count_hashes(cur: &mut Cursor) -> usize {
    let mut n = 0;
    while cur.peek(0) == b'#' {
        cur.bump();
        n += 1;
    }
    cur.bump(); // opening '"'
    n
}

/// Scans a raw-string body until `"` followed by `hashes` `#`s. No
/// escapes exist in raw strings — a lone `\` or an interior `"` with
/// too few hashes is content, which is exactly why `r#"unsafe"#`
/// must never fool the `unsafe` lint.
fn lex_raw_string_body(cur: &mut Cursor, hashes: usize) -> TokenKind {
    while !cur.eof() {
        if cur.bump() == b'"' {
            let mut seen = 0;
            while seen < hashes && cur.peek(0) == b'#' {
                cur.bump();
                seen += 1;
            }
            if seen == hashes {
                return TokenKind::RawStr;
            }
        }
    }
    TokenKind::RawStr
}

fn lex_ident(cur: &mut Cursor) -> TokenKind {
    while is_ident_continue(cur.peek(0)) {
        cur.bump();
    }
    TokenKind::Ident
}

fn lex_number(cur: &mut Cursor) -> TokenKind {
    // Digits, underscores, radix prefixes and suffixes all lex as
    // ident-continue bytes; a `.` joins only when a digit follows, so
    // `0..n` stays three tokens while `1.5` stays one.
    while is_ident_continue(cur.peek(0)) {
        cur.bump();
    }
    if cur.peek(0) == b'.' && cur.peek(1).is_ascii_digit() {
        cur.bump();
        while is_ident_continue(cur.peek(0)) {
            cur.bump();
        }
    }
    TokenKind::Num
}

fn lex_string(cur: &mut Cursor) -> TokenKind {
    cur.bump(); // opening '"'
    while !cur.eof() {
        match cur.bump() {
            // Any escaped byte is content, including `\"` and `\\`.
            b'\\' if !cur.eof() => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
    TokenKind::Str
}

/// A `'` starts either a char literal or a lifetime. Disambiguation,
/// matching rustc: an escape (`'\...`) is always a char; otherwise
/// one character followed by a closing `'` is a char (`'a'`, `'∞'`);
/// anything else is a lifetime (`'a`, `'static`, `'_`).
fn lex_tick(cur: &mut Cursor) -> TokenKind {
    if cur.peek(1) == b'\\' {
        return lex_char_body(cur);
    }
    // Width of the single character after the tick (UTF-8 leading
    // byte tells us), then check for the closing tick.
    let w = match cur.peek(1) {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    };
    if cur.peek(1 + w) == b'\'' && cur.peek(1) != b'\'' {
        return lex_char_body(cur);
    }
    // Lifetime: consume the tick and the label.
    cur.bump();
    while is_ident_continue(cur.peek(0)) {
        cur.bump();
    }
    TokenKind::Lifetime
}

/// Consumes a char literal starting at the opening `'`.
fn lex_char_body(cur: &mut Cursor) -> TokenKind {
    cur.bump(); // opening '\''
    while !cur.eof() {
        match cur.bump() {
            b'\\' if !cur.eof() => {
                cur.bump();
            }
            b'\'' => break,
            _ => {}
        }
    }
    TokenKind::Char
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("fn main() { x.y }");
        assert_eq!(ks[0], (TokenKind::Ident, "fn".into()));
        assert_eq!(ks[1], (TokenKind::Ident, "main".into()));
        assert!(ks.iter().any(|(k, t)| *k == TokenKind::Punct && t == "."));
    }

    #[test]
    fn raw_string_hides_keywords() {
        let src = r##"let s = r#"unsafe { unwrap() }"#;"##;
        let ks = kinds(src);
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("unsafe")));
        // The `unsafe` inside the raw string must NOT surface as an ident.
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unsafe"));
    }

    #[test]
    fn char_vs_lifetime() {
        let ks = kinds("let c: char = 'a'; fn f<'a>(x: &'a str) {} let n = '\\n';");
        let chars: Vec<_> = ks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        let lifes: Vec<_> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        assert_eq!(chars.len(), 2, "{chars:?}");
        assert_eq!(lifes.len(), 2, "{lifes:?}");
        assert_eq!(lifes[0].1, "'a");
    }

    #[test]
    fn nested_block_comments() {
        let ks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(ks.len(), 3);
        assert_eq!(ks[1].0, TokenKind::BlockComment);
        assert!(ks[1].1.contains("still comment"));
        assert_eq!(ks[2], (TokenKind::Ident, "b".into()));
    }

    #[test]
    fn line_positions() {
        let src = "a\n  bb\n";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let ks = kinds(r###"let a = b"bytes"; let b = br#"raw unsafe"#; let c = b'x';"###);
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("bytes")));
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("raw unsafe")));
        assert!(ks.iter().any(|(k, t)| *k == TokenKind::Char && t == "b'x'"));
        assert!(!ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unsafe"));
    }

    #[test]
    fn raw_ident_is_ident() {
        let ks = kinds("let r#type = 1; radius");
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#type"));
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "radius"));
    }

    #[test]
    fn string_escapes() {
        let ks = kinds(r#"let s = "quote \" backslash \\ done"; after"#);
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "after"));
    }

    #[test]
    fn numbers_and_ranges() {
        let ks = kinds("0..n 1.5 0xff_u32");
        assert_eq!(ks[0], (TokenKind::Num, "0".into()));
        assert_eq!(ks[1], (TokenKind::Punct, ".".into()));
        assert_eq!(ks[2], (TokenKind::Punct, ".".into()));
        assert!(ks.iter().any(|(k, t)| *k == TokenKind::Num && t == "1.5"));
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Num && t == "0xff_u32"));
    }
}
