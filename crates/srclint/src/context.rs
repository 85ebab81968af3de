//! Per-file analysis context shared by every lint: the token stream,
//! which crate/section the file belongs to, which token ranges are
//! test-only (`#[cfg(test)]` / `#[test]` items), and where each `fn`
//! body and named item begins and ends.

use crate::lexer::{lex, Token, TokenKind};
use std::path::{Path, PathBuf};

/// Which part of a crate a file lives in. Lints use this to scope
/// themselves: library invariants apply to `Src`, not to test or
/// bench code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    Src,
    Tests,
    Benches,
    Examples,
    Other,
}

/// A function span: name plus the token-index range of its body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token-index range `[body_start, body_end)` of the braced body,
    /// including the braces themselves. Zero-length for bodyless fns
    /// (trait methods, extern decls).
    pub body: (usize, usize),
}

/// Everything a lint needs to know about one file.
pub struct FileContext {
    pub path: PathBuf,
    pub src: String,
    pub tokens: Vec<Token>,
    /// Crate the file belongs to (`predindex`, ...); the root package
    /// is `predmatch`; files outside any crate get the empty string.
    pub krate: String,
    pub section: Section,
    /// The workspace path a fixture poses as, which guard rows match
    /// instead of `path`.
    pub posed: Option<PathBuf>,
    /// Token-index ranges belonging to `#[cfg(test)]` / `#[test]`
    /// items — exempt from library-path lints.
    test_ranges: Vec<(usize, usize)>,
    /// All fn spans, in source order.
    pub fns: Vec<FnSpan>,
}

impl FileContext {
    /// Builds the context for `src` at `path`. Crate and section are
    /// inferred from the path, or from the workspace path a
    /// `// srclint-fixture: path=<path>` first line names (how the
    /// fixture corpus poses as real workspace files).
    pub fn new(path: &Path, src: String) -> FileContext {
        let tokens = lex(&src);
        let posed = fixture_directive(&src);
        let (krate, section) = classify(posed.as_deref().unwrap_or(path));
        let test_ranges = find_test_ranges(&src, &tokens);
        let fns = find_fns(&src, &tokens);
        FileContext {
            path: path.to_path_buf(),
            src,
            tokens,
            krate,
            section,
            posed,
            test_ranges,
            fns,
        }
    }

    /// Is token `i` inside a test-only item?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| i >= a && i < b)
    }

    /// The first and last line of the item `kind name` (`struct
    /// ColdRule`, `fn f`): from its keyword to its closing brace or `;`.
    pub fn item(&self, kind: &str, name: &str) -> Option<(u32, u32)> {
        let named = |i| {
            self.next_code(i)
                .is_some_and(|n| self.tokens[n].is_ident(&self.src, name))
        };
        let at = self
            .code_tokens()
            .find(|&i| self.tokens[i].is_ident(&self.src, kind) && named(i))?;
        let last = &self.tokens[item_end(&self.src, &self.tokens, at) - 1];
        Some((self.tokens[at].line, last.line))
    }

    /// Iterator over code-token indices (comments skipped).
    pub fn code_tokens(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| !self.tokens[i].is_comment())
    }

    /// The previous code token before `i`, if any.
    pub fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !self.tokens[j].is_comment())
    }

    /// The next code token after `i`, if any.
    pub fn next_code(&self, i: usize) -> Option<usize> {
        (i + 1..self.tokens.len()).find(|&j| !self.tokens[j].is_comment())
    }
}

/// Infers `(crate, section)` from a workspace-relative or absolute
/// path: `crates/<name>/<section>/...`, with the repository root's
/// own `src`/`tests` belonging to the root package.
fn classify(path: &Path) -> (String, Section) {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    for (i, c) in comps.iter().enumerate() {
        if *c == "crates" && i + 2 < comps.len() {
            let krate = comps[i + 1].to_string();
            let section = match comps[i + 2] {
                "src" => Section::Src,
                "tests" => Section::Tests,
                "benches" => Section::Benches,
                "examples" => Section::Examples,
                _ => Section::Other,
            };
            return (krate, section);
        }
    }
    // Root package layout: src/, tests/, examples/ directly under the
    // workspace root.
    for (i, c) in comps.iter().enumerate() {
        let section = match *c {
            "src" => Section::Src,
            "tests" => Section::Tests,
            "benches" => Section::Benches,
            "examples" => Section::Examples,
            _ => continue,
        };
        if i + 1 < comps.len() {
            return ("predmatch".to_string(), section);
        }
    }
    (String::new(), Section::Other)
}

/// The path the fixture header `// srclint-fixture: path=<workspace
/// path>` on the file's first line names.
fn fixture_directive(src: &str) -> Option<PathBuf> {
    let first = src.lines().next()?.trim();
    first
        .strip_prefix("// srclint-fixture: path=")
        .map(PathBuf::from)
}

/// Finds token ranges covered by test-only items: an outer attribute
/// containing the ident `test` (and not `not`, so `#[cfg(not(test))]`
/// stays live code) followed by an item, covered to the item's end —
/// the matching `}` of its first body brace, or a `;` for bodyless
/// items.
fn find_test_ranges(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct(src, '#') && next_is(src, tokens, i, '[') {
            let attr_start = i;
            let (has_test, has_not, after_attr) = scan_attr(src, tokens, i);
            if has_test && !has_not {
                let end = item_end(src, tokens, after_attr);
                out.push((attr_start, end));
                i = end;
                continue;
            }
            i = after_attr;
            continue;
        }
        i += 1;
    }
    out
}

fn next_is(src: &str, tokens: &[Token], i: usize, p: char) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(src, p))
}

/// Scans an attribute starting at the `#` token; returns whether it
/// mentions `test`, whether it mentions `not`, and the index just
/// past the closing `]`.
fn scan_attr(src: &str, tokens: &[Token], hash: usize) -> (bool, bool, usize) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = hash + 1;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct(src, '[') {
            depth += 1;
        } else if t.is_punct(src, ']') {
            depth -= 1;
            if depth == 0 {
                return (has_test, has_not, i + 1);
            }
        } else if t.kind == TokenKind::Ident {
            match t.text(src) {
                "test" => has_test = true,
                "not" => has_not = true,
                _ => {}
            }
        }
        i += 1;
    }
    (has_test, has_not, i)
}

/// From the first token of an item (past its attributes), the token
/// index just after the item ends. Skips any further attributes, then
/// runs to the matching `}` of the first open brace — or to a `;`
/// seen before any brace (e.g. `#[cfg(test)] use helpers;`).
fn item_end(src: &str, tokens: &[Token], mut i: usize) -> usize {
    // Skip stacked attributes (`#[cfg(test)] #[allow(...)] mod t {}`).
    while i < tokens.len() && tokens[i].is_punct(src, '#') && next_is(src, tokens, i, '[') {
        let (_, _, after) = scan_attr(src, tokens, i);
        i = after;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct(src, '{') {
            depth += 1;
        } else if t.is_punct(src, '}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        } else if t.is_punct(src, ';') && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// Records every `fn` with its braced body range. Body detection is
/// deliberately simple: the first `{` after the `fn` keyword at zero
/// paren/bracket nesting opens the body. (Const-generic braces in
/// signatures would fool this; the workspace has none.)
fn find_fns(src: &str, tokens: &[Token]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident(src, "fn") {
            // Name is the next code token (comments can intervene).
            let name_ix = (i + 1..tokens.len()).find(|&j| !tokens[j].is_comment());
            let name = match name_ix {
                Some(j) if tokens[j].kind == TokenKind::Ident => tokens[j].text(src).to_string(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            let fn_tok = i;
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut j = name_ix.unwrap_or(i) + 1;
            let mut body = (0usize, 0usize);
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct(src, '(') {
                    paren += 1;
                } else if t.is_punct(src, ')') {
                    paren -= 1;
                } else if t.is_punct(src, '[') {
                    bracket += 1;
                } else if t.is_punct(src, ']') {
                    bracket -= 1;
                } else if t.is_punct(src, ';') && paren == 0 && bracket == 0 {
                    // Bodyless: trait method signature or extern decl.
                    break;
                } else if t.is_punct(src, '{') && paren == 0 && bracket == 0 {
                    let mut depth = 0i32;
                    let start = j;
                    while j < tokens.len() {
                        if tokens[j].is_punct(src, '{') {
                            depth += 1;
                        } else if tokens[j].is_punct(src, '}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    body = (start, (j + 1).min(tokens.len()));
                    break;
                }
                j += 1;
            }
            out.push(FnSpan { name, fn_tok, body });
            // Continue from just inside the body so nested fns are
            // found too.
            i = body.0.max(fn_tok) + 1;
            continue;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileContext {
        FileContext::new(Path::new("crates/demo/src/lib.rs"), src.to_string())
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify(Path::new("crates/predindex/src/sharded.rs")),
            ("predindex".to_string(), Section::Src)
        );
        assert_eq!(
            classify(Path::new("/abs/repo/crates/ibs/tests/prop.rs")).1,
            Section::Tests
        );
        assert_eq!(
            classify(Path::new("tests/end_to_end.rs")),
            ("predmatch".to_string(), Section::Tests)
        );
    }

    #[test]
    fn test_mod_ranges_cover_bodies() {
        let c = ctx(
            "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\n",
        );
        let unwraps: Vec<usize> = c
            .code_tokens()
            .filter(|&i| c.tokens[i].is_ident(&c.src, "unwrap"))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!c.in_test(unwraps[0]));
        assert!(c.in_test(unwraps[1]));
    }

    #[test]
    fn cfg_not_test_is_live() {
        let c = ctx("#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        let i = c
            .code_tokens()
            .find(|&i| c.tokens[i].is_ident(&c.src, "unwrap"))
            .expect("token");
        assert!(!c.in_test(i));
    }

    #[test]
    fn fn_spans_and_nesting() {
        let c = ctx("fn outer() { if x { fn inner() { b(); } } }\nfn flat() {}\n");
        let names: Vec<&str> = c.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "flat"]);
        let b_ix = c
            .code_tokens()
            .find(|&i| c.tokens[i].is_ident(&c.src, "b"))
            .expect("token");
        let (outer, inner) = (c.fns[0].body, c.fns[1].body);
        assert!(
            outer.0 < inner.0 && inner.1 < outer.1,
            "{outer:?} {inner:?}"
        );
        assert!((inner.0..inner.1).contains(&b_ix));
    }

    #[test]
    fn fixture_directive_overrides_path() {
        let c = FileContext::new(
            Path::new("crates/srclint/tests/fixtures/x.rs"),
            "// srclint-fixture: path=crates/predindex/src/lib.rs\nfn f() {}\n".to_string(),
        );
        assert_eq!(c.krate, "predindex");
        assert_eq!(c.section, Section::Src);
        assert_eq!(
            c.posed.as_deref(),
            Some(Path::new("crates/predindex/src/lib.rs"))
        );
    }

    #[test]
    fn bodyless_fn_has_empty_body() {
        let c = ctx("trait T { fn sig(&self); fn has_body(&self) { self.sig() } }");
        assert_eq!(c.fns[0].name, "sig");
        assert_eq!(c.fns[0].body, (0, 0));
        assert_eq!(c.fns[1].name, "has_body");
        assert!(c.fns[1].body.1 > c.fns[1].body.0);
    }
}
