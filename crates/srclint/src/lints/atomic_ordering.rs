//! `atomic-ordering`: classifies every atomic field by its observed
//! usage pattern across the whole linted set, then checks each site's
//! memory ordering against the class:
//!
//! * **counter** — every write is an RMW (`fetch_add`/`fetch_sub`/..).
//!   RMWs are atomic at any ordering, and nobody reads *other* data
//!   through a counter, so `SeqCst` here is a pure fence tax on the
//!   hot path: a perf finding.
//! * **flag** — some site stores a `bool` literal. A polled
//!   stop/active flag synchronizes nothing but itself, so `SeqCst` is
//!   again wasted; a flag that *guards data* needs `Release` store /
//!   `Acquire` load — either way `SeqCst` is the wrong answer, and
//!   the finding says which fix applies.
//! * **publication** — a plain store of a non-bool value that other
//!   threads load. `Relaxed` here is a *correctness* finding: readers
//!   get no happens-before edge to whatever the value points at.
//!   (`SeqCst`/`Release` publication is left alone.)
//! * **unclassified** — load-only fields (the writer is out of the
//!   linted set or aliased under another name): `SeqCst` is still
//!   flagged, since whatever the class turns out to be, `SeqCst` is
//!   never the cheap right answer in this workspace.
//!
//! Independent config words (a sampling threshold, say) legitimately
//! use `Relaxed` despite matching the publication shape — that is
//! what `// srclint:allow(atomic-ordering): <why>` is for.

use super::{emit, WorkspaceMeta};
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::model::{AtomicOp, AtomicSite};
use std::collections::BTreeMap;

const LINT: &str = "atomic-ordering";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Counter,
    Flag,
    Publication,
    Unclassified,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Counter => "counter",
            Class::Flag => "flag",
            Class::Publication => "publication",
            Class::Unclassified => "unclassified",
        }
    }
}

pub(super) fn check(
    ctxs: &[FileContext],
    atomics: &[AtomicSite],
    _meta: &WorkspaceMeta,
    diags: &mut Vec<Diagnostic>,
) {
    // Classify per (crate, field): usage anywhere in the linted set
    // determines the class every site is held to.
    let mut groups: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, s) in atomics.iter().enumerate() {
        groups
            .entry((s.krate.clone(), s.field.clone()))
            .or_default()
            .push(i);
    }
    for sites in groups.values() {
        let class = classify(atomics, sites);
        for &i in sites {
            let s = &atomics[i];
            let ctx = &ctxs[s.file];
            match (s.ordering.as_str(), class) {
                ("SeqCst", Class::Counter) => emit(
                    ctx,
                    diags,
                    LINT,
                    s.tok,
                    format!(
                        "`SeqCst` on `{}`, a counter (all writes are RMW) — the full \
                         fence buys nothing; use `Relaxed`",
                        s.field
                    ),
                ),
                ("SeqCst", Class::Flag) | ("SeqCst", Class::Unclassified) => emit(
                    ctx,
                    diags,
                    LINT,
                    s.tok,
                    format!(
                        "`SeqCst` on `{}` ({}) — a polled flag needs only `Relaxed`; \
                         a flag that guards data needs `Release`/`Acquire`, not `SeqCst`",
                        s.field,
                        class.name()
                    ),
                ),
                ("Relaxed", Class::Publication) => emit(
                    ctx,
                    diags,
                    LINT,
                    s.tok,
                    format!(
                        "`Relaxed` {} on `{}`, which publishes a value (plain store \
                         observed) — readers get no happens-before edge; use \
                         `Release`/`Acquire`, or justify an independent config word \
                         with `srclint:allow({LINT})`",
                        if s.op == AtomicOp::Store {
                            "store"
                        } else {
                            "load"
                        },
                        s.field
                    ),
                ),
                _ => {}
            }
        }
    }
}

fn classify(atomics: &[AtomicSite], sites: &[usize]) -> Class {
    let mut any_bool_store = false;
    let mut any_plain_store = false;
    let mut any_rmw = false;
    for &i in sites {
        let s = &atomics[i];
        match s.op {
            AtomicOp::Store if s.stores_bool => any_bool_store = true,
            AtomicOp::Store => any_plain_store = true,
            AtomicOp::Rmw => any_rmw = true,
            AtomicOp::Load => {}
        }
    }
    if any_bool_store {
        Class::Flag
    } else if any_plain_store {
        Class::Publication
    } else if any_rmw {
        Class::Counter
    } else {
        Class::Unclassified
    }
}
