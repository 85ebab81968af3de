//! Per-file analysis context shared by every lint: the token stream,
//! which crate/section the file belongs to, which token ranges are
//! test-only (`#[cfg(test)]` / `#[test]` items), where each `fn` body
//! begins and ends, and which lines carry `srclint:allow(...)`
//! suppressions.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
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
    /// Token-index ranges of closure bodies (`|..| { .. }` and
    /// `|..| expr`), in source order. A closure is its own scope:
    /// code inside one — a `thread::scope` spawn, say — runs on its
    /// own schedule and must not be attributed to the enclosing fn.
    pub closures: Vec<(usize, usize)>,
    /// line -> lints allowed on that line (an allow comment covers its
    /// own line and the next).
    allows: BTreeMap<u32, BTreeSet<String>>,
}

/// A scope a token belongs to: either a named `fn` body or an
/// anonymous closure body. Lints that count per-scope facts (lock
/// acquisitions, most prominently) key on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Index into [`FileContext::fns`].
    Fn(usize),
    /// Index into [`FileContext::closures`].
    Closure(usize),
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
        let closures = find_closures(&src, &tokens);
        let allows = find_allows(&src, &tokens);
        FileContext {
            path: path.to_path_buf(),
            src,
            tokens,
            krate,
            section,
            posed,
            test_ranges,
            fns,
            closures,
            allows,
        }
    }

    /// Is token `i` inside a test-only item?
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| i >= a && i < b)
    }

    /// Is `lint` suppressed at `line` by an allow comment on that
    /// line or the line above?
    pub fn is_allowed(&self, lint: &str, line: u32) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|s| s.contains(lint) || s.contains("all"))
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

    /// The innermost fn whose body contains token `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| i >= f.body.0 && i < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// The innermost scope — fn body or closure body — containing
    /// token `i`. A closure nested in a fn wins over the fn.
    pub fn enclosing_scope(&self, i: usize) -> Option<Scope> {
        let fn_ix = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| i >= f.body.0 && i < f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0);
        let cl_ix = self
            .closures
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| i >= a && i < b)
            .min_by_key(|(_, &(a, b))| b - a);
        match (fn_ix, cl_ix) {
            (Some((fi, f)), Some((ci, &(a, b)))) => {
                if b - a < f.body.1 - f.body.0 {
                    Some(Scope::Closure(ci))
                } else {
                    Some(Scope::Fn(fi))
                }
            }
            (Some((fi, _)), None) => Some(Scope::Fn(fi)),
            (None, Some((ci, _))) => Some(Scope::Closure(ci)),
            (None, None) => None,
        }
    }

    /// Human-readable name for a scope: the fn name, or
    /// `{closure in <fn>}` for closures.
    pub fn scope_name(&self, s: Scope) -> String {
        match s {
            Scope::Fn(i) => self.fns[i].name.clone(),
            Scope::Closure(i) => {
                let start = self.closures[i].0;
                match self.enclosing_fn(start) {
                    Some(f) => format!("{{closure in {}}}", f.name),
                    None => "{closure}".to_string(),
                }
            }
        }
    }

    /// How many `srclint:allow` suppression comments the file carries:
    /// one per comment naming at least one registered lint, however
    /// many it names. A comment that only *describes* the syntax
    /// (`srclint:allow(<lint>)`, or any mention in a doc comment)
    /// names none and is not a suppression.
    pub fn suppression_count(&self) -> usize {
        self.tokens
            .iter()
            .filter(|t| t.is_comment())
            .filter(|t| allow_names(t.text(&self.src)).any(crate::lints::is_registered))
            .count()
    }

    /// Allow comments naming a lint that is not registered — a retired
    /// lint's leftovers, or a typo that suppresses nothing — as
    /// `(comment token, name)`. Only slug-shaped names count, so prose
    /// that describes the syntax (`<lint>`, `...`) stays silent.
    pub fn stale_allows(&self) -> impl Iterator<Item = (&Token, &str)> + '_ {
        self.tokens
            .iter()
            .filter(|t| t.is_comment())
            .flat_map(|t| allow_names(t.text(&self.src)).map(move |name| (t, name)))
            .filter(|(_, name)| {
                name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
                    && !crate::lints::is_registered(name)
            })
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

/// Records closure bodies. A `|` opens a closure's parameter list
/// when the previous code token is `move`, `(`, `,`, or `=` — the
/// positions where an expression (and therefore a closure literal)
/// begins and bitwise-or cannot. Params run to the matching `|` on
/// the same statement; the body is the braced block after it, or,
/// for expression-bodied closures (`move || self.work(x)`), the
/// token run up to the `,`/`)`/`;` that ends the expression. Or-
/// patterns inside closure params would fool the param scan; the
/// workspace has none.
fn find_closures(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct(src, '|') {
            i += 1;
            continue;
        }
        let prev = (0..i).rev().find(|&j| !tokens[j].is_comment());
        let opens = match prev {
            None => true,
            Some(p) => {
                let t = &tokens[p];
                t.is_ident(src, "move")
                    || t.is_punct(src, '(')
                    || t.is_punct(src, ',')
                    || t.is_punct(src, '=')
            }
        };
        if !opens {
            i += 1;
            continue;
        }
        // Find the closing `|` of the parameter list; give up at
        // statement boundaries (then it was a bitwise-or after all).
        let mut close = None;
        for (j, t) in tokens
            .iter()
            .enumerate()
            .take(tokens.len().min(i + 40))
            .skip(i + 1)
        {
            if t.is_punct(src, '|') {
                close = Some(j);
                break;
            }
            if t.is_punct(src, ';') || t.is_punct(src, '{') || t.is_punct(src, '}') {
                break;
            }
        }
        let Some(close) = close else {
            i += 1;
            continue;
        };
        // Body start: past an optional `-> Type` return annotation.
        let mut b = close + 1;
        while b < tokens.len() && tokens[b].is_comment() {
            b += 1;
        }
        if b + 1 < tokens.len() && tokens[b].is_punct(src, '-') && tokens[b + 1].is_punct(src, '>')
        {
            while b < tokens.len() && !tokens[b].is_punct(src, '{') {
                b += 1;
            }
        }
        if b >= tokens.len() {
            i = close + 1;
            continue;
        }
        let end = if tokens[b].is_punct(src, '{') {
            // Braced body: to the matching `}`.
            let mut depth = 0i32;
            let mut j = b;
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
            (j + 1).min(tokens.len())
        } else {
            // Expression body: to the `,`, `;`, or unbalanced closer
            // that ends the expression.
            let mut depth = 0i32;
            let mut j = b;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct(src, '(') || t.is_punct(src, '[') || t.is_punct(src, '{') {
                    depth += 1;
                } else if t.is_punct(src, ')') || t.is_punct(src, ']') || t.is_punct(src, '}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0 && (t.is_punct(src, ',') || t.is_punct(src, ';')) {
                    break;
                }
                j += 1;
            }
            j.min(tokens.len())
        };
        out.push((b, end));
        i = close + 1;
    }
    out
}

/// Collects `srclint:allow(a, b)` comments into a line -> lints map.
/// An allow on line L covers L (trailing form) and L+1 (preceding
/// form).
fn find_allows(src: &str, tokens: &[Token]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut out: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        for name in allow_names(t.text(src)) {
            out.entry(t.line).or_default().insert(name.to_string());
            out.entry(t.line + 1).or_default().insert(name.to_string());
        }
    }
    out
}

/// Every name listed by the `srclint:allow(a, b)` markers in one
/// comment's text. Doc comments list none: they document an item (the
/// lint modules' own docs quote the marker), they do not annotate a
/// line.
fn allow_names(comment: &str) -> impl Iterator<Item = &str> {
    let is_doc = ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|p| comment.starts_with(p));
    let markers = if is_doc { "" } else { comment };
    markers.split("srclint:allow(").skip(1).flat_map(|rest| {
        let listed = rest.find(')').map_or("", |close| &rest[..close]);
        listed.split(',').map(str::trim).filter(|n| !n.is_empty())
    })
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
        assert_eq!(c.enclosing_fn(b_ix).map(|f| f.name.as_str()), Some("inner"));
    }

    #[test]
    fn allow_covers_own_and_next_line() {
        let c = ctx(
            "// srclint:allow(lock-order): fine here\nfn f() { x.lock(); }\nfn g() { y.lock(); }\n",
        );
        assert!(c.is_allowed("lock-order", 1));
        assert!(c.is_allowed("lock-order", 2));
        assert!(!c.is_allowed("lock-order", 3));
        assert!(!c.is_allowed("atomic-ordering", 2));
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

    #[test]
    fn spawn_closures_are_found_and_own_their_tokens() {
        let c = ctx(
            "fn outer(s: &S) { let a = go(); s.spawn(move || { let b = work(); }); let d = tail(); }",
        );
        assert_eq!(c.closures.len(), 1, "{:?}", c.closures);
        let b_ix = c
            .code_tokens()
            .find(|&i| c.tokens[i].is_ident(&c.src, "b"))
            .expect("b token");
        let a_ix = c
            .code_tokens()
            .find(|&i| c.tokens[i].is_ident(&c.src, "a"))
            .expect("a token");
        // `b` belongs to the closure, `a` to the fn — and the closure
        // scope wins over the enclosing fn for its own tokens.
        assert_eq!(c.enclosing_scope(b_ix), Some(Scope::Closure(0)));
        assert_eq!(c.enclosing_scope(a_ix), Some(Scope::Fn(0)));
        assert_eq!(c.scope_name(Scope::Closure(0)), "{closure in outer}");
    }

    #[test]
    fn or_operators_are_not_closures() {
        let c =
            ctx("fn f(a: bool, b: bool) -> bool { let x = a | b; if a || b { true } else { x } }");
        assert!(c.closures.is_empty(), "{:?}", c.closures);
    }

    #[test]
    fn expression_bodied_closure_ends_at_comma() {
        let c = ctx("fn f(v: Vec<i32>) { v.iter().map(|x| x + 1, ); let y = after(); }");
        assert_eq!(c.closures.len(), 1);
        let y_ix = c
            .code_tokens()
            .find(|&i| c.tokens[i].is_ident(&c.src, "y"))
            .expect("y token");
        assert_eq!(c.enclosing_scope(y_ix), Some(Scope::Fn(0)));
    }

    #[test]
    fn suppression_count_counts_allow_comments() {
        let c = ctx(
            "// srclint:allow(atomic-ordering): one\nfn f() {}\n// srclint:allow(atomic-ordering, lock-order): two lints, one comment\nfn g() {}\n// plain comment\n",
        );
        assert_eq!(c.suppression_count(), 2);
    }

    #[test]
    fn suppression_count_skips_comments_that_only_describe_the_syntax() {
        let c = ctx(concat!(
            "//! Suppress with `// srclint:allow(<lint>): <why>`.\n",
            "// as in srclint:allow(<lint>) or srclint:allow(...)\n",
            "/// e.g. `// srclint:allow(lock-order): <why>`\n",
            "fn f() { x.lock(); }\n",
            "// srclint:allow(lock-order): a real one\n",
            "fn g() { y.lock(); }\n",
        ));
        assert_eq!(c.suppression_count(), 1);
        // Only the real one suppresses: the doc comment above `f`
        // names a registered lint and still covers nothing.
        assert!(!c.is_allowed("lock-order", 4));
        assert!(c.is_allowed("lock-order", 6));
        assert_eq!(c.stale_allows().count(), 0);
    }

    #[test]
    fn an_allow_naming_no_registered_lint_is_stale() {
        let c = ctx(concat!(
            "// srclint:allow(retired-lint): the lint retired, the comment stayed\n",
            "fn f() {}\n",
            "// srclint:allow(lock-order, lock-ordr): one live name, one typo\n",
            "fn g() {}\n",
        ));
        let stale: Vec<(u32, &str)> = c.stale_allows().map(|(t, n)| (t.line, n)).collect();
        assert_eq!(stale, [(1, "retired-lint"), (3, "lock-ordr")]);
        assert_eq!(c.suppression_count(), 1);
    }
}
