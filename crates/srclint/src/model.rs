//! The workspace model — the cross-file stage's view of the code.
//! Where [`FileContext`](crate::context::FileContext) knows one file's
//! tokens, the model knows every atomic-operation site in the linted
//! set, with its receiver field and memory ordering, for the
//! atomic-ordering pass (DESIGN.md §18).
//!
//! The model is lexical, like everything in srclint: no types, no
//! name resolution beyond "same identifier". A site's field is the
//! ident its receiver chain ends in; a field reached through a local
//! rebinding is classified under the local's name.

use crate::context::{FileContext, Section};
use crate::lexer::TokenKind;

/// Crates whose `src/` trees the atomic-ordering pass reasons about:
/// the ones that own atomics.
pub const CONCURRENCY_CRATES: &[&str] = &["predindex", "telemetry", "ruleserv", "durable"];

/// The shape of one atomic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    Load,
    Store,
    /// `fetch_add`, `fetch_sub`, `swap`, `compare_exchange*`, ...
    Rmw,
}

/// One atomic-operation call site.
#[derive(Debug)]
pub struct AtomicSite {
    pub file: usize,
    pub tok: usize,
    pub krate: String,
    /// Receiver field ident — the classification key.
    pub field: String,
    pub op: AtomicOp,
    /// `SeqCst` / `Relaxed` / `Acquire` / `Release` / `AcqRel`.
    pub ordering: String,
    /// `store(true, ..)` / `store(false, ..)` — the flag signature.
    pub stores_bool: bool,
}

const ATOMIC_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

const MEM_ORDERINGS: &[&str] = &["SeqCst", "Relaxed", "Acquire", "Release", "AcqRel"];

/// Builds the model over every context: its atomic sites. Only `src/`
/// of the concurrency crates contributes; test ranges are skipped.
pub fn build(ctxs: &[FileContext]) -> Vec<AtomicSite> {
    let mut atomics = Vec::new();
    for (file, ctx) in ctxs.iter().enumerate() {
        if ctx.section != Section::Src || !CONCURRENCY_CRATES.contains(&ctx.krate.as_str()) {
            continue;
        }
        let sites = ctx.code_tokens().filter(|&i| !ctx.in_test(i));
        atomics.extend(sites.filter_map(|i| atomic_site(ctx, i, file)));
    }
    atomics
}

/// The field ident a method call's receiver chain ends in:
/// `self.shards[sid].read()` -> `shards`,
/// `self.inner.ring.lock()` -> `ring`. Balanced `[..]` / `(..)`
/// groups directly before the final `.` are skipped.
fn receiver_field(ctx: &FileContext, call: usize) -> Option<String> {
    let dot = ctx.prev_code(call)?;
    if !ctx.tokens[dot].is_punct(&ctx.src, '.') {
        return None;
    }
    let mut i = ctx.prev_code(dot)?;
    // Skip one balanced bracket/paren group (`[sid]`, `(x)`).
    for (open, close) in [('[', ']'), ('(', ')')] {
        if ctx.tokens[i].is_punct(&ctx.src, close) {
            let mut depth = 0i32;
            loop {
                let t = &ctx.tokens[i];
                if t.is_punct(&ctx.src, close) {
                    depth += 1;
                } else if t.is_punct(&ctx.src, open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i = ctx.prev_code(i)?;
            }
            i = ctx.prev_code(i)?;
        }
    }
    let t = &ctx.tokens[i];
    (t.kind == TokenKind::Ident).then(|| t.text(&ctx.src).to_string())
}

/// Is token `i` an atomic operation with an explicit `Ordering`?
fn atomic_site(ctx: &FileContext, i: usize, file: usize) -> Option<AtomicSite> {
    let t = &ctx.tokens[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let text = t.text(&ctx.src);
    let op = if text == "load" {
        AtomicOp::Load
    } else if text == "store" {
        AtomicOp::Store
    } else if ATOMIC_RMW.contains(&text) {
        AtomicOp::Rmw
    } else {
        return None;
    };
    let open = ctx.next_code(i)?;
    if !ctx.tokens[open].is_punct(&ctx.src, '(') {
        return None;
    }
    // Scan the argument list for a memory-ordering ident; its
    // presence is what distinguishes `AtomicU64::load` from any other
    // method that happens to be called `load`.
    let mut ordering = None;
    let mut stores_bool = false;
    let mut depth = 0i32;
    let mut j = open;
    let mut first_arg = true;
    while j < ctx.tokens.len() {
        let t = &ctx.tokens[j];
        if t.is_punct(&ctx.src, '(') {
            depth += 1;
        } else if t.is_punct(&ctx.src, ')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            let w = t.text(&ctx.src);
            if MEM_ORDERINGS.contains(&w) && ordering.is_none() {
                ordering = Some(w.to_string());
            }
            if first_arg && depth == 1 && (w == "true" || w == "false") {
                stores_bool = op == AtomicOp::Store;
            }
            if depth == 1 {
                first_arg = false;
            }
        }
        j += 1;
    }
    let ordering = ordering?;
    let field = receiver_field(ctx, i).unwrap_or_else(|| "?".to_string());
    Some(AtomicSite {
        file,
        tok: i,
        krate: ctx.krate.clone(),
        field,
        op,
        ordering,
        stores_bool,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn model_of(src: &str) -> Vec<AtomicSite> {
        let ctx = FileContext::new(Path::new("crates/telemetry/src/x.rs"), src.to_string());
        build(std::slice::from_ref(&ctx))
    }

    #[test]
    fn atomic_sites_classify_ops_and_orderings() {
        let m = model_of(
            "fn f(&self) { self.stop.store(true, Ordering::SeqCst); \
             let n = self.hits.fetch_add(1, Ordering::Relaxed); \
             let v = self.stop.load(Ordering::SeqCst); }\n",
        );
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].field, "stop");
        assert_eq!(m[0].op, AtomicOp::Store);
        assert!(m[0].stores_bool);
        assert_eq!(m[0].ordering, "SeqCst");
        assert_eq!(m[1].op, AtomicOp::Rmw);
        assert_eq!(m[1].ordering, "Relaxed");
        assert_eq!(m[2].op, AtomicOp::Load);
    }
}
