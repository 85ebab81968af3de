//! `codec-conformance`: the wire/WAL codec's armed registry. The
//! `durable::Record` enum and the `ruleserv::proto` opcode constants
//! are each a three-way contract — every variant/opcode needs an
//! encode arm, a decode arm, and a row in DESIGN.md §14's canonical
//! tables — and this pass fails the build when any leg drifts:
//!
//! * a `Record` variant with no arm in `encode` or `decode_prefix`
//!   (a grown variant the recovery path would refuse),
//! * an `OP_*` constant never written by an `encode` fn or matched by
//!   a `decode*` fn,
//! * a variant/opcode missing from (or disagreeing with) the
//!   `Record tags` / `Opcodes` tables in DESIGN.md — and, when the
//!   authoritative source files are in the linted set, a doc row with
//!   no code behind it.
//!
//! Same pattern as `metric-name-registry`: the doc table is parsed
//! live, and an integration test asserts it stays parseable so the
//! findings cannot silently vanish.

use super::WorkspaceMeta;
use crate::context::{FileContext, Section};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::model::WorkspaceModel;

const LINT: &str = "codec-conformance";

pub(super) fn check(
    ctxs: &[FileContext],
    _model: &WorkspaceModel,
    meta: &WorkspaceMeta,
    diags: &mut Vec<Diagnostic>,
) {
    for ctx in ctxs {
        if ctx.section != Section::Src {
            continue;
        }
        if ctx.krate == "durable" {
            check_record(ctx, meta, diags);
        }
        if ctx.krate == "ruleserv" {
            check_opcodes(ctx, ctxs, meta, diags);
        }
    }
}

// ------------------------------------------------------------ Record

fn check_record(ctx: &FileContext, meta: &WorkspaceMeta, diags: &mut Vec<Diagnostic>) {
    let variants = enum_variants(ctx, "Record");
    if variants.is_empty() {
        return;
    }
    let tags = const_defs(ctx, "TAG_");
    let doc_rows = design_rows(meta, "Record tags");
    let authoritative = ctx.path.ends_with("crates/durable/src/record.rs");

    for (variant, tok) in &variants {
        if !any_fn_mentions_path(ctx, |n| n == "encode", "Record", variant) {
            push(
                ctx,
                diags,
                *tok,
                format!(
                    "`Record::{variant}` has no arm in `encode` — WAL frames and wire payloads \
                 cannot carry it"
                ),
            );
        }
        if !any_fn_mentions_path(ctx, |n| n.starts_with("decode"), "Record", variant) {
            push(
                ctx,
                diags,
                *tok,
                format!(
                    "`Record::{variant}` has no arm in `decode_prefix` — recovery would refuse \
                 frames holding it"
                ),
            );
        }
        let tag_name = format!("TAG_{}", camel_to_const(variant));
        let tag = tags.iter().find(|(n, _, _)| *n == tag_name);
        match (tag, &doc_rows) {
            (None, _) => push(
                ctx,
                diags,
                *tok,
                format!("`Record::{variant}` has no `{tag_name}` constant"),
            ),
            (Some((_, value, _)), Some(rows)) => match rows.iter().find(|(n, _, _)| n == variant) {
                None => push(
                    ctx,
                    diags,
                    *tok,
                    format!(
                        "`Record::{variant}` is missing from DESIGN.md §14's `Record tags` \
                         table — add its row"
                    ),
                ),
                Some((_, doc_value, _)) if doc_value != value => push(
                    ctx,
                    diags,
                    *tok,
                    format!(
                        "`Record::{variant}`: code tag {value} but DESIGN.md documents \
                         {doc_value} — fix whichever is wrong"
                    ),
                ),
                _ => {}
            },
            (Some(_), None) => push_design(
                meta,
                diags,
                1,
                "`Record` variants exist but DESIGN.md has no parseable `Record tags` table \
                 (§14) — the codec registry is disarmed"
                    .to_string(),
            ),
        }
    }

    // Doc rows with no variant behind them: only judged when the real
    // record.rs is in the linted set (a fixture's mini-enum must not
    // indict the real table).
    if authoritative {
        if let Some(rows) = &doc_rows {
            for (name, _, line) in rows {
                if !variants.iter().any(|(v, _)| v == name) {
                    push_design(
                        meta,
                        diags,
                        *line,
                        format!(
                            "DESIGN.md documents record tag `{name}` but `durable::Record` has \
                         no such variant — stale row"
                        ),
                    );
                }
            }
        }
    }
}

// ----------------------------------------------------------- opcodes

fn check_opcodes(
    ctx: &FileContext,
    ctxs: &[FileContext],
    meta: &WorkspaceMeta,
    diags: &mut Vec<Diagnostic>,
) {
    let ops: Vec<(String, u64, usize)> = const_defs(ctx, "OP_")
        .into_iter()
        .filter(|(n, _, _)| n != "OP_NAMES")
        .collect();
    if ops.is_empty() {
        return;
    }
    let doc_rows = design_rows(meta, "Opcodes");
    let authoritative = ctx.path.ends_with("crates/ruleserv/src/proto.rs");
    let peers: Vec<&FileContext> = ctxs
        .iter()
        .filter(|c| c.krate == "ruleserv" && c.section == Section::Src)
        .collect();

    for (name, value, tok) in &ops {
        let covered = |pred: &dyn Fn(&str) -> bool| {
            peers.iter().any(|c| any_fn_mentions_ident(c, pred, name))
        };
        if !covered(&|n: &str| n.starts_with("encode")) {
            push(
                ctx,
                diags,
                *tok,
                format!(
                    "opcode `{name}` is never written by an `encode` fn — no frame can carry it"
                ),
            );
        }
        if !covered(&|n: &str| n.starts_with("decode")) {
            push(
                ctx,
                diags,
                *tok,
                format!(
                    "opcode `{name}` is never matched by a `decode` fn — peers sending it get \
                 a protocol error"
                ),
            );
        }
        let doc_name = name.strip_prefix("OP_").unwrap_or(name);
        match &doc_rows {
            Some(rows) => match rows.iter().find(|(n, _, _)| n == doc_name) {
                None => push(
                    ctx,
                    diags,
                    *tok,
                    format!(
                        "opcode `{name}` (0x{value:02x}) is missing from DESIGN.md §14's \
                     `Opcodes` table — add its row"
                    ),
                ),
                Some((_, doc_value, _)) if doc_value != value => push(
                    ctx,
                    diags,
                    *tok,
                    format!(
                        "opcode `{name}`: code says 0x{value:02x} but DESIGN.md documents \
                     0x{doc_value:02x} — fix whichever is wrong"
                    ),
                ),
                _ => {}
            },
            None => push_design(
                meta,
                diags,
                1,
                "proto opcodes exist but DESIGN.md has no parseable `Opcodes` table (§14) \
                 — the codec registry is disarmed"
                    .to_string(),
            ),
        }
    }

    if authoritative {
        if let Some(rows) = &doc_rows {
            for (name, value, line) in rows {
                if !ops
                    .iter()
                    .any(|(n, _, _)| n.strip_prefix("OP_").unwrap_or(n) == name)
                {
                    push_design(
                        meta,
                        diags,
                        *line,
                        format!(
                            "DESIGN.md documents opcode `{name}` (0x{value:02x}) but \
                         `ruleserv::proto` defines no such constant — stale row"
                        ),
                    );
                }
            }
        }
    }
}

// ----------------------------------------------------------- helpers

fn push(ctx: &FileContext, diags: &mut Vec<Diagnostic>, tok: usize, message: String) {
    super::emit(ctx, diags, LINT, tok, message);
}

fn push_design(meta: &WorkspaceMeta, diags: &mut Vec<Diagnostic>, line: u32, message: String) {
    let d = Diagnostic {
        lint: LINT,
        severity: Severity::Deny,
        file: meta.root.join("DESIGN.md"),
        line,
        col: 1,
        message,
    };
    // The same disarmed-table message would otherwise repeat per item.
    if !diags
        .iter()
        .any(|e| e.lint == LINT && e.file == d.file && e.message == d.message)
    {
        diags.push(d);
    }
}

/// The variants of `enum <name>` in this file, with their tokens.
fn enum_variants(ctx: &FileContext, name: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let Some(kw) = ctx.code_tokens().find(|&i| {
        ctx.tokens[i].is_ident(&ctx.src, "enum") && {
            ctx.next_code(i)
                .is_some_and(|n| ctx.tokens[n].is_ident(&ctx.src, name))
        }
    }) else {
        return out;
    };
    // Walk the enum body; variant names are idents at brace depth 1
    // whose previous code token is `{` or `,` (payload braces/parens
    // push the depth past 1).
    let mut depth = 0i32;
    let mut i = kw;
    while i < ctx.tokens.len() {
        let t = &ctx.tokens[i];
        if t.is_punct(&ctx.src, '{') || t.is_punct(&ctx.src, '(') {
            depth += 1;
        } else if t.is_punct(&ctx.src, '}') || t.is_punct(&ctx.src, ')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.kind == TokenKind::Ident && !t.is_comment() {
            let starts_variant = ctx.prev_code(i).is_some_and(|p| {
                ctx.tokens[p].is_punct(&ctx.src, '{') || ctx.tokens[p].is_punct(&ctx.src, ',')
            });
            if starts_variant {
                out.push((t.text(&ctx.src).to_string(), i));
            }
        }
        i += 1;
    }
    out
}

/// `const <PREFIX..>: _ = <number>;` definitions in this file.
fn const_defs(ctx: &FileContext, prefix: &str) -> Vec<(String, u64, usize)> {
    let mut out = Vec::new();
    for i in ctx.code_tokens() {
        if !ctx.tokens[i].is_ident(&ctx.src, "const") {
            continue;
        }
        let Some(name_ix) = ctx.next_code(i) else {
            continue;
        };
        let name_tok = &ctx.tokens[name_ix];
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        let name = name_tok.text(&ctx.src);
        if !name.starts_with(prefix) {
            continue;
        }
        // Scan a short window for `= <num>`.
        let mut j = name_ix;
        let mut value = None;
        for _ in 0..8 {
            let Some(n) = ctx.next_code(j) else { break };
            if ctx.tokens[j].is_punct(&ctx.src, '=') && ctx.tokens[n].kind == TokenKind::Num {
                value = parse_num(ctx.tokens[n].text(&ctx.src));
                break;
            }
            j = n;
        }
        if let Some(v) = value {
            out.push((name.to_string(), v, name_ix));
        }
    }
    out
}

fn parse_num(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Does any fn whose name satisfies `pred` mention `a::b` in its body?
fn any_fn_mentions_path(ctx: &FileContext, pred: impl Fn(&str) -> bool, a: &str, b: &str) -> bool {
    ctx.fns
        .iter()
        .filter(|f| pred(&f.name))
        .any(|f| body_mentions_path(ctx, f.body, a, b))
}

fn body_mentions_path(ctx: &FileContext, body: (usize, usize), a: &str, b: &str) -> bool {
    (body.0..body.1).any(|i| {
        ctx.tokens[i].is_ident(&ctx.src, a)
            && ctx.next_code(i).is_some_and(|c1| {
                ctx.tokens[c1].is_punct(&ctx.src, ':')
                    && ctx.next_code(c1).is_some_and(|c2| {
                        ctx.tokens[c2].is_punct(&ctx.src, ':')
                            && ctx
                                .next_code(c2)
                                .is_some_and(|n| ctx.tokens[n].is_ident(&ctx.src, b))
                    })
            })
    })
}

/// Does any fn whose name satisfies `pred` mention ident `name`?
fn any_fn_mentions_ident(ctx: &FileContext, pred: &dyn Fn(&str) -> bool, name: &str) -> bool {
    ctx.fns
        .iter()
        .filter(|f| pred(&f.name))
        .any(|f| (f.body.0..f.body.1).any(|i| ctx.tokens[i].is_ident(&ctx.src, name)))
}

/// `CreateRelation` -> `CREATE_RELATION`.
fn camel_to_const(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

/// Rows of the DESIGN.md table under the heading containing `marker`:
/// `(first backticked cell, numeric second backticked cell, line)`.
fn design_rows(meta: &WorkspaceMeta, marker: &str) -> Option<Vec<(String, u64, u32)>> {
    let design = meta.design.as_deref()?;
    let mut in_section = false;
    let mut out = Vec::new();
    for (ix, line) in design.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            in_section = trimmed.contains(marker);
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let name = cells[0].trim().trim_matches('`');
        let value = cells[1].trim().trim_matches('`');
        if name.is_empty() || !cells[0].contains('`') {
            continue; // header or separator row
        }
        if let Some(v) = parse_num(value) {
            out.push((name.to_string(), v, ix as u32 + 1));
        }
    }
    (!out.is_empty()).then_some(out)
}
