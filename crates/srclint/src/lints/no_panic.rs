//! `no-panic-in-lib`: library code paths must not reach for
//! `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!` or
//! `unimplemented!`. A predicate index embedded in a rule engine is
//! infrastructure — the engine is serial, so a stray panic on the
//! request path unwinds the rule server's one engine thread: every
//! held, queued and later request is answered with an error and the
//! daemon stops serving. Fallible paths return `Result`; invariant
//! checks use `debug_assert!`; the few deliberate panics (poisoned
//! locks, documented API misuse) carry a
//! `// srclint:allow(no-panic-in-lib): <why>` justification.
//!
//! Scope: `src/` of the long-lived library crates only. Tests,
//! benches, examples, bins of the bench crate, and `#[cfg(test)]`
//! modules are exempt — panicking is how tests fail.

use super::{emit, is_macro_call, is_method_call, WorkspaceMeta};
use crate::context::{FileContext, Section};
use crate::diag::Diagnostic;

const LINT: &str = "no-panic-in-lib";

/// Crates whose `src/` trees are library paths. `altindex`, `rtree`
/// and `bench` are experiment baselines/harnesses, not serving code;
/// `srclint` holds itself to its own rule.
const LIB_CRATES: &[&str] = &[
    "interval",
    "ibs",
    "predicate",
    "predindex",
    "relation",
    "rules",
    "joinmemo",
    "durable",
    "telemetry",
    "ruleserv",
    "srclint",
];

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// `self.expect(...)` / `self.unwrap(...)` is a user-defined method
/// on the enclosing type (e.g. the predicate parser's Result-
/// returning `expect(&Token, ..)`), never `Option`/`Result`'s
/// panicking one — `self` itself is not an `Option` in a method body.
fn receiver_is_self(ctx: &FileContext, call: usize) -> bool {
    let Some(dot) = ctx.prev_code(call) else {
        return false;
    };
    ctx.prev_code(dot)
        .is_some_and(|r| ctx.tokens[r].is_ident(&ctx.src, "self"))
}
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub(super) fn check(ctx: &FileContext, _meta: &WorkspaceMeta, diags: &mut Vec<Diagnostic>) {
    if ctx.section != Section::Src || !LIB_CRATES.contains(&ctx.krate.as_str()) {
        return;
    }
    for i in ctx.code_tokens() {
        if ctx.in_test(i) {
            continue;
        }
        for m in PANIC_METHODS {
            if is_method_call(ctx, i, m) && !receiver_is_self(ctx, i) {
                emit(
                    ctx,
                    diags,
                    LINT,
                    i,
                    format!(
                        "`.{m}()` in a library path — return a `Result`, use `unwrap_or*`, \
                         or justify with `srclint:allow({LINT})`"
                    ),
                );
            }
        }
        for m in PANIC_MACROS {
            if is_macro_call(ctx, i, m) {
                emit(
                    ctx,
                    diags,
                    LINT,
                    i,
                    format!(
                        "`{m}!` in a library path — return an error or use `debug_assert!`, \
                         or justify with `srclint:allow({LINT})`"
                    ),
                );
            }
        }
    }
}
