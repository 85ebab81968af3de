//! `lock-order`: the cross-file deadlock guard. From the workspace
//! model it builds the nested-acquisition graph — an edge `A -> B`
//! whenever some scope may acquire lock class `B` (directly, or
//! transitively through a call) while a guard of class `A` from the
//! same scope may still be live — and checks every edge against the
//! canonical lock order documented in DESIGN.md §18. An edge that
//! runs backwards (or sideways: `A -> A` re-acquisition) is a
//! deadlock candidate and a finding; a class missing from the table
//! is a finding too, so the table cannot silently rot.
//!
//! The analysis over-approximates guard lifetimes (a guard is assumed
//! live to the end of its scope — early `drop` is invisible), so
//! genuinely sequential acquisitions get a
//! `// srclint:allow(lock-order): <why>` at the second site.

use super::{emit, WorkspaceMeta};
use crate::callgraph::CallGraph;
use crate::context::FileContext;
use crate::diag::{Diagnostic, Severity};
use crate::model::{Event, WorkspaceModel};
use std::collections::BTreeMap;

const LINT: &str = "lock-order";

pub(super) fn check(
    ctxs: &[FileContext],
    model: &WorkspaceModel,
    meta: &WorkspaceMeta,
    diags: &mut Vec<Diagnostic>,
) {
    if model.classes.is_empty() {
        return;
    }
    let graph = CallGraph::build(model);

    // Nested-acquisition edges: (held class, acquired class) -> first
    // site that creates the edge, as (file, token).
    let mut edges: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    for (i, f) in model.fns.iter().enumerate() {
        let mut held: Vec<usize> = Vec::new();
        for e in &f.events {
            match e {
                Event::Lock { class, tok } => {
                    for &a in &held {
                        edges.entry((a, *class)).or_insert((f.file, *tok));
                    }
                    held.push(*class);
                }
                Event::Call { callee, tok } => {
                    if held.is_empty() {
                        continue;
                    }
                    for c in graph.resolve(model, i, callee) {
                        for &b in graph.locks_of(c) {
                            for &a in &held {
                                edges.entry((a, b)).or_insert((f.file, *tok));
                            }
                        }
                    }
                }
            }
        }
    }
    if edges.is_empty() {
        return;
    }

    // The table's maintenance hatch: dump the discovered graph so the
    // DESIGN.md ranks can be written from evidence, not memory.
    if std::env::var_os("SRCLINT_LOCK_EDGES").is_some() {
        for (&(a, b), &(file, tok)) in &edges {
            let t = &ctxs[file].tokens[tok];
            eprintln!(
                "lock-edge: {} -> {} at {}:{}",
                model.class(a),
                model.class(b),
                ctxs[file].path.display(),
                t.line
            );
        }
    }

    let Some(order) = canonical_order(meta) else {
        // No parseable canonical-order table: the pass is disarmed,
        // which must itself be a failure — otherwise deleting the
        // table silently turns the deadlock guard off.
        diags.push(Diagnostic {
            lint: LINT,
            severity: Severity::Deny,
            file: meta.root.join("DESIGN.md"),
            line: 1,
            col: 1,
            message: format!(
                "nested lock acquisitions exist but DESIGN.md has no parseable \
                 \"Canonical lock order\" table (§18) — {} edge(s) unchecked",
                edges.len()
            ),
        });
        return;
    };

    for (&(a, b), &(file, tok)) in &edges {
        let (ca, cb) = (model.class(a), model.class(b));
        let ra = order.get(&(ca.krate.clone(), ca.ident.clone()));
        let rb = order.get(&(cb.krate.clone(), cb.ident.clone()));
        let ctx = &ctxs[file];
        match (ra, rb) {
            (None, _) => emit(
                ctx,
                diags,
                LINT,
                tok,
                format!(
                    "lock class `{ca}` is nested with `{cb}` but missing from \
                     DESIGN.md §18's canonical lock-order table — rank it there"
                ),
            ),
            (_, None) => emit(
                ctx,
                diags,
                LINT,
                tok,
                format!(
                    "lock class `{cb}` is acquired while `{ca}` is held but missing \
                     from DESIGN.md §18's canonical lock-order table — rank it there"
                ),
            ),
            (Some(x), Some(y)) if x >= y => {
                let shape = if a == b {
                    format!("`{ca}` may be re-acquired while already held")
                } else {
                    format!(
                        "`{cb}` (rank {y}) is acquired while `{ca}` (rank {x}) is held \
                         — against the canonical order"
                    )
                };
                emit(
                    ctx,
                    diags,
                    LINT,
                    tok,
                    format!(
                        "{shape}; a deadlock candidate — reorder the acquisitions, or \
                         justify strictly-sequential guards with `srclint:allow({LINT})`"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Parses the canonical lock order out of DESIGN.md: the rows of the
/// table under the heading containing "Canonical lock order", as
/// `| <rank> | <crate> | `ident` [, `ident`]* | why |`. Returns
/// `(crate, ident) -> rank`.
pub fn canonical_order(meta: &WorkspaceMeta) -> Option<BTreeMap<(String, String), u32>> {
    let design = meta.design.as_deref()?;
    let mut in_section = false;
    let mut out = BTreeMap::new();
    for line in design.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            in_section = trimmed.contains("Canonical lock order");
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 3 {
            continue;
        }
        let Ok(rank) = cells[0].trim().parse::<u32>() else {
            continue; // header or separator row
        };
        let krate = cells[1].trim().trim_matches('`').to_string();
        for ident in cells[2].split(',') {
            let ident = ident.trim().trim_matches('`').to_string();
            if !ident.is_empty() {
                out.insert((krate.clone(), ident), rank);
            }
        }
    }
    (!out.is_empty()).then_some(out)
}
