//! The lint suite. One rule decides what is in it: srclint keeps a
//! check only if rustc, clippy or a tier-1 unit test cannot make it.
//! What is left needs a lexer over the whole workspace: facts about
//! which file syncs before it renames and which string literal names a
//! metric. (`unsafe` without a `// SAFETY:` comment, `unwrap()` in
//! library code and unbounded `mpsc::channel()` are clippy's; codec
//! arms and DESIGN.md §14's tables are exhaustive `match`es and
//! `ruleserv/tests/wire_contract.rs`; atomic orderings are guard rows.)
//! Each lint is scoped to the crates and sections where its invariant
//! holds.

mod fsync_rename;
mod metric_names;

pub use metric_names::design_families as metric_names_design_families;

use crate::context::FileContext;
use crate::diag::Diagnostic;
use std::collections::BTreeSet;

/// Workspace-level facts lints can consult (beyond the single file
/// they are looking at).
pub struct WorkspaceMeta {
    /// Metric families declared in DESIGN.md's canonical table;
    /// `None` when DESIGN.md (or the table) is absent, which turns
    /// the registry cross-check off rather than failing every site.
    pub metric_families: Option<BTreeSet<String>>,
}

/// One lint: a stable slug and a checker.
pub struct Lint {
    pub name: &'static str,
    pub summary: &'static str,
    pub check: fn(&FileContext, &WorkspaceMeta, &mut Vec<Diagnostic>),
}

/// The full suite, in reporting order.
pub fn all() -> Vec<Lint> {
    vec![
        Lint {
            name: "fsync-before-rename",
            summary: "durable fns that rename must sync file contents first",
            check: fsync_rename::check,
        },
        Lint {
            name: "metric-name-registry",
            summary: "metric families are snake_case literals listed in DESIGN.md",
            check: metric_names::check,
        },
    ]
}

/// Is token `i` the identifier `name` invoked as a method
/// (`recv.name(...)`)?
pub(crate) fn is_method_call(ctx: &FileContext, i: usize, name: &str) -> bool {
    ctx.tokens[i].is_ident(&ctx.src, name)
        && ctx
            .prev_code(i)
            .is_some_and(|p| ctx.tokens[p].is_punct(&ctx.src, '.'))
        && ctx
            .next_code(i)
            .is_some_and(|n| ctx.tokens[n].is_punct(&ctx.src, '('))
}

/// Is token `i` the identifier `name` called as a plain or path-
/// qualified function (`name(...)`, `fs::name(...)`)? Method-call
/// receivers also pass — the distinction never matters to callers.
pub(crate) fn is_call(ctx: &FileContext, i: usize, name: &str) -> bool {
    ctx.tokens[i].is_ident(&ctx.src, name)
        && ctx
            .next_code(i)
            .is_some_and(|n| ctx.tokens[n].is_punct(&ctx.src, '('))
}

/// Emits `msg` at token `i`.
pub(crate) fn emit(
    ctx: &FileContext,
    diags: &mut Vec<Diagnostic>,
    lint: &'static str,
    i: usize,
    msg: String,
) {
    let t = &ctx.tokens[i];
    diags.push(Diagnostic {
        lint,
        file: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
    });
}
