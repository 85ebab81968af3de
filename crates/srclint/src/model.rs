//! The workspace item model — the cross-file stage's view of the
//! code. Where [`FileContext`](crate::context::FileContext) knows one
//! file's tokens, the model knows every function (and closure) in the
//! linted set, and for each one the ordered sequence of *events* the
//! concurrency passes care about: lock acquisitions and calls to
//! other functions. It also collects every atomic-operation site with
//! its memory ordering, for the atomic-ordering pass.
//!
//! The model is lexical, like everything in srclint: no types, no
//! name resolution beyond "same identifier". Its approximations are
//! documented in DESIGN.md §18 and recapped where they are made:
//!
//! * A lock *class* is `(crate, receiver field ident)` — the ident
//!   the guard is taken from (`shards`, `ring`, `metrics`, ...).
//!   Locks reached through a local rebinding of the field are missed
//!   unless the binding statement names the field.
//! * A guard is assumed live from its acquisition to the end of the
//!   enclosing scope (over-approximation: early `drop(guard)` is
//!   invisible).
//! * Closure bodies are separate scopes: a `thread::scope` spawn runs
//!   concurrently, so its acquisitions belong to the worker, not the
//!   spawning fn (and a closure, having no name, is never a call
//!   target — an under-approximation for same-thread closures).

use crate::context::{FileContext, Scope, Section};
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

/// Crates whose `src/` trees the concurrency passes reason about:
/// the ones that own locks or atomics.
pub const CONCURRENCY_CRATES: &[&str] = &["predindex", "telemetry", "ruleserv", "durable"];

/// A lock class: the crate that owns the lock and the field ident it
/// is acquired through.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockClass {
    pub krate: String,
    pub ident: String,
}

impl std::fmt::Display for LockClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.krate, self.ident)
    }
}

/// One thing a function does that the lock-order pass must know
/// about, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// A guard is acquired: a raw `.lock()`/`.read()`/`.write()` with
    /// empty args, or a call to predindex's `lock_read`/`lock_write`
    /// helpers (which *return* the guard to the caller).
    Lock { class: usize, tok: usize },
    /// A call by name; the callee may transitively acquire locks.
    Call { callee: String, tok: usize },
}

/// One function or closure body in the linted set.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the context slice the model was built from.
    pub file: usize,
    pub krate: String,
    /// The fn name, or `{closure in f}` — only fns are call targets.
    pub name: String,
    pub named: bool,
    pub scope: Scope,
    pub events: Vec<Event>,
}

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

/// The whole linted set, digested for the cross-file passes.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub classes: Vec<LockClass>,
    pub fns: Vec<FnNode>,
    pub atomics: Vec<AtomicSite>,
}

impl WorkspaceModel {
    pub fn class(&self, id: usize) -> &LockClass {
        &self.classes[id]
    }
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

/// Call-shaped tokens that are control flow, not calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "fn", "move", "else", "impl",
    "where", "use", "pub",
];

/// Builds the model over every context. Only `src/` of the
/// concurrency crates contributes events and atomics; test ranges are
/// skipped everywhere.
pub fn build(ctxs: &[FileContext]) -> WorkspaceModel {
    let mut model = WorkspaceModel::default();
    let mut class_ids: BTreeMap<LockClass, usize> = BTreeMap::new();
    for (file, ctx) in ctxs.iter().enumerate() {
        if ctx.section != Section::Src || !CONCURRENCY_CRATES.contains(&ctx.krate.as_str()) {
            continue;
        }
        // One node per fn body and per closure body, then a map from
        // scope to node for event attribution.
        let mut node_of: BTreeMap<Scope, usize> = BTreeMap::new();
        for (i, f) in ctx.fns.iter().enumerate() {
            if f.body.1 > f.body.0 {
                node_of.insert(Scope::Fn(i), model.fns.len());
                model.fns.push(FnNode {
                    file,
                    krate: ctx.krate.clone(),
                    name: f.name.clone(),
                    named: true,
                    scope: Scope::Fn(i),
                    events: Vec::new(),
                });
            }
        }
        for i in 0..ctx.closures.len() {
            node_of.insert(Scope::Closure(i), model.fns.len());
            model.fns.push(FnNode {
                file,
                krate: ctx.krate.clone(),
                name: ctx.scope_name(Scope::Closure(i)),
                named: false,
                scope: Scope::Closure(i),
                events: Vec::new(),
            });
        }

        for i in ctx.code_tokens() {
            if ctx.in_test(i) {
                continue;
            }
            if let Some(site) = atomic_site(ctx, i, file) {
                model.atomics.push(site);
                continue;
            }
            if let Some(class) = lock_acquisition(ctx, i) {
                let id = *class_ids.entry(class.clone()).or_insert_with(|| {
                    model.classes.push(class);
                    model.classes.len() - 1
                });
                push_event(
                    ctx,
                    &node_of,
                    &mut model,
                    i,
                    Event::Lock { class: id, tok: i },
                );
                continue;
            }
            if let Some(callee) = call_target(ctx, i) {
                push_event(ctx, &node_of, &mut model, i, Event::Call { callee, tok: i });
            }
        }
    }
    model
}

fn push_event(
    ctx: &FileContext,
    node_of: &BTreeMap<Scope, usize>,
    model: &mut WorkspaceModel,
    tok: usize,
    event: Event,
) {
    if let Some(scope) = ctx.enclosing_scope(tok) {
        if let Some(&n) = node_of.get(&scope) {
            model.fns[n].events.push(event);
        }
    }
}

/// Is token `i` a lock acquisition? Returns its class. Raw
/// acquisitions are empty-arg `.lock()`/`.read()`/`.write()` (the
/// arg-taking `io::Read::read(buf)` / `io::Write::write(buf)` never
/// collide); predindex's `lock_read`/`lock_write` helpers count as
/// acquisitions of `predindex.shards` because they return the guard.
fn lock_acquisition(ctx: &FileContext, i: usize) -> Option<LockClass> {
    let t = &ctx.tokens[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let text = t.text(&ctx.src);
    let is_method = ctx
        .prev_code(i)
        .is_some_and(|p| ctx.tokens[p].is_punct(&ctx.src, '.'));
    if ctx.krate == "predindex" && is_method && (text == "lock_read" || text == "lock_write") {
        return Some(LockClass {
            krate: ctx.krate.clone(),
            ident: "shards".to_string(),
        });
    }
    if !matches!(text, "lock" | "read" | "write") || !is_method {
        return None;
    }
    // Empty argument list: `(` directly followed by `)`.
    let open = ctx.next_code(i)?;
    if !ctx.tokens[open].is_punct(&ctx.src, '(') {
        return None;
    }
    let close = ctx.next_code(open)?;
    if !ctx.tokens[close].is_punct(&ctx.src, ')') {
        return None;
    }
    let ident = receiver_field(ctx, i)?;
    Some(LockClass {
        krate: ctx.krate.clone(),
        ident,
    })
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

/// Is token `i` a call by name (`f(..)`, `recv.f(..)`, `T::f(..)`)?
/// Definitions (`fn f(`), keywords, and macros (`f!(`) are not calls.
fn call_target(ctx: &FileContext, i: usize) -> Option<String> {
    let t = &ctx.tokens[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let text = t.text(&ctx.src);
    if KEYWORDS.contains(&text) {
        return None;
    }
    let next = ctx.next_code(i)?;
    if !ctx.tokens[next].is_punct(&ctx.src, '(') {
        return None;
    }
    if let Some(p) = ctx.prev_code(i) {
        if ctx.tokens[p].is_ident(&ctx.src, "fn") {
            return None;
        }
    }
    Some(text.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn model_of(src: &str) -> WorkspaceModel {
        let ctx = FileContext::new(Path::new("crates/telemetry/src/x.rs"), src.to_string());
        build(std::slice::from_ref(&ctx))
    }

    #[test]
    fn lock_and_call_events_in_order() {
        let m = model_of(
            "fn f(&self) { let g = self.inner.ring.lock(); self.render(); }\n\
             fn render(&self) { let m = self.metrics.lock(); }\n",
        );
        let f = &m.fns[0];
        assert_eq!(f.name, "f");
        assert!(matches!(f.events[0], Event::Lock { .. }));
        assert!(matches!(f.events[1], Event::Call { ref callee, .. } if callee == "render"));
        let render = &m.fns[1];
        assert!(matches!(render.events[0], Event::Lock { .. }));
        assert_eq!(m.classes.len(), 2);
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let m = model_of("fn f(r: &mut impl std::io::Read) { r.read(&mut buf); }\n");
        assert!(m.classes.is_empty());
    }

    #[test]
    fn closure_events_stay_out_of_the_fn() {
        let m = model_of(
            "fn f(&self) { std::thread::scope(|s| { s.spawn(move || { let g = self.ring.lock(); }); }); }\n",
        );
        let f = m.fns.iter().find(|n| n.name == "f").expect("fn node");
        assert!(
            !f.events.iter().any(|e| matches!(e, Event::Lock { .. })),
            "{:?}",
            f.events
        );
        let total_locks: usize = m
            .fns
            .iter()
            .flat_map(|n| &n.events)
            .filter(|e| matches!(e, Event::Lock { .. }))
            .count();
        assert_eq!(total_locks, 1);
    }

    #[test]
    fn atomic_sites_classify_ops_and_orderings() {
        let m = model_of(
            "fn f(&self) { self.stop.store(true, Ordering::SeqCst); \
             let n = self.hits.fetch_add(1, Ordering::Relaxed); \
             let v = self.stop.load(Ordering::SeqCst); }\n",
        );
        assert_eq!(m.atomics.len(), 3);
        assert_eq!(m.atomics[0].field, "stop");
        assert_eq!(m.atomics[0].op, AtomicOp::Store);
        assert!(m.atomics[0].stores_bool);
        assert_eq!(m.atomics[0].ordering, "SeqCst");
        assert_eq!(m.atomics[1].op, AtomicOp::Rmw);
        assert_eq!(m.atomics[1].ordering, "Relaxed");
        assert_eq!(m.atomics[2].op, AtomicOp::Load);
    }

    #[test]
    fn helper_calls_are_shard_acquisitions() {
        let ctx = FileContext::new(
            Path::new("crates/predindex/src/x.rs"),
            "fn f(&self) { let g = self.lock_read(0); }\n".to_string(),
        );
        let m = build(std::slice::from_ref(&ctx));
        assert_eq!(m.classes.len(), 1);
        assert_eq!(m.classes[0].ident, "shards");
    }
}
