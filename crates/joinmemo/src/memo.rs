//! Beta-node partial-match stores for one compiled join.
//!
//! A *token* is a partial match: tuple ids for premises `0..=k` (its
//! *level* is `k`). The memo maintains the invariant that the token set
//! equals **every** valid prefix over the currently known alpha tuples:
//! seeding a fresh memo from the same database state therefore
//! reproduces the exact token set an incremental run arrived at, which
//! is what makes the [`fingerprint`](JoinMemo::fingerprint) comparable
//! across crash/recovery boundaries.
//!
//! The alpha memories are not the memo's: each premise is a column of
//! the shared table of its relation ([`crate::alpha`]), which holds the
//! tuple's row once for every memo, and the memo keeps only `(table,
//! column)`, the slot of the table's index it probes, and an entry
//! count per premise. Tokens and key-store buckets name rows, so
//! reading a bound tuple is an index, not a lookup; the digest still
//! hashes tuple ids.
//!
//! Tokens form a forest in a slab (`Vec` + free list, id = slot): a
//! token holds only the row of its own level and a link to its parent,
//! the token over premises `0..k`; its row vector is the path to the
//! root. Each token also sits in up to three lists, and leaves every
//! one of them in O(1):
//!
//! - its parent's child list and its row's *owner* list (the tokens
//!   whose last premise is that row, headed in the row's cell) — walked
//!   only to delete, so threaded through the tokens themselves
//!   ([`Link`]);
//! - at levels `1..n-1`, the `level_key` bucket a later premise probes
//!   from the right — scanned on every probe, so a plain array the
//!   token leaves by `swap_remove` at its stored position.
//!
//! The key stores whose members are rows of one table are the table's
//! shared indexes ([`crate::keys`]), one per `(relation, key
//! attributes)`: every premise `j ≥ 1` probes its relation's index on
//! the attributes its equality steps read, and so does premise 1's
//! leftward probe of level 0, whose tokens are premise 0's rows one to
//! one — a live premise-0 cell heads an owner list of exactly one
//! token. A memo keeps only the key rows live in its own column, so
//! what it sees is what a store of its own would hold. Its own stores
//! are the beta stores `level_key[k ≥ 1]`, keyed by tokens that span
//! more than one row.
//!
//! Stores are hash-keyed by join values (the equality steps of the
//! premise being extended); ordering steps filter candidates as they
//! are probed. Insertion at premise `k` extends *left* (probing level
//! `k-1` for prefixes that accept the new tuple) and then *right*
//! (probing the indexes of premises `k+1..` to grow the newly created
//! tokens as far as the known tuples allow). Deletion removes the
//! subtree under every token the tuple owns — exactly the tokens that
//! contain it — and then its cell, so a retraction costs the tokens it
//! removes, whatever the size of the stores around them.

use crate::alpha::{Table, ABSENT};
use crate::compile::CompiledJoin;
use crate::keys::{self, bucket, bucket_push, bucket_remove, map_bytes, KeyStore};
use relation::fx::{FnvHasher, FxHashMap};
use relation::{Catalog, Tuple, TupleId, Value};
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// One premise's bound tuple in a complete match. The rule engine hands
/// it to the firing's action and report as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTuple {
    /// The premise's relation, shared with the compiled join.
    pub relation: Arc<str>,
    /// Id of the bound tuple.
    pub id: TupleId,
    /// The bound tuple's values at binding time.
    pub tuple: Tuple,
}

/// One complete match: the bound tuple of every premise, in premise
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// One bound tuple per premise.
    pub tuples: Vec<BoundTuple>,
}

impl Binding {
    /// The premise tuple ids, in premise order.
    pub fn tuple_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.tuples.iter().map(|b| b.id.0)
    }
}

/// Effect of one insertion, for metrics and EXPLAIN narration.
#[derive(Debug, Clone, Default)]
pub struct InsertOutcome {
    /// Complete matches created by this insertion, sorted by tuple-id
    /// vector.
    pub bindings: Vec<Binding>,
    /// Candidate partial matches / tuples examined.
    pub probes: u64,
    /// Tokens created (all levels, including complete ones).
    pub created: u64,
}

/// "No token": list ends, the parent of a level-0 token.
pub(crate) const NIL: u32 = u32::MAX;
/// `Token::level` of a slot on the free list.
const FREE: u32 = u32::MAX;

/// Neighbours in a list threaded through the token slab.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone)]
struct Token {
    /// The row of premise `level` this token binds (its owner).
    row: u32,
    /// The token over premises `0..level`, `NIL` at level 0.
    parent: u32,
    level: u32,
    /// Head of the child list: this token extended by one premise.
    first_child: u32,
    /// Place in the parent's child list.
    sibling: Link,
    /// Place in the owner list of `(level, row)`.
    owned: Link,
    /// Position in its `level_key` bucket (levels `1..n-1`).
    key_pos: u32,
}

fn sibling(t: &mut Token) -> &mut Link {
    &mut t.sibling
}

fn owned(t: &mut Token) -> &mut Link {
    &mut t.owned
}

/// Puts `id` at the front of the list whose head is `head`; the caller
/// stores `id` as the new head.
fn push_front(tokens: &mut [Token], head: u32, id: u32, link: fn(&mut Token) -> &mut Link) {
    *link(&mut tokens[id as usize]) = Link {
        prev: NIL,
        next: head,
    };
    if head != NIL {
        link(&mut tokens[head as usize]).prev = id;
    }
}

/// Takes `id` out of its list. `Some(head)` if `id` was the head and
/// the caller must store the new one.
fn unlink(tokens: &mut [Token], id: u32, link: fn(&mut Token) -> &mut Link) -> Option<u32> {
    let Link { prev, next } = *link(&mut tokens[id as usize]);
    if next != NIL {
        link(&mut tokens[next as usize]).prev = prev;
    }
    if prev == NIL {
        return Some(next);
    }
    link(&mut tokens[prev as usize]).next = next;
    None
}

/// Where a premise's alpha memory lives: a column of a shared table,
/// and the table's index the premise probes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Column {
    /// The table's slot in the engine.
    pub(crate) table: u32,
    pub(crate) column: u32,
    /// The slot of the table's index on
    /// [`CompiledJoin::index_attrs`].
    pub(crate) index: u32,
}

/// The memo for one compiled join condition.
#[derive(Debug)]
pub(crate) struct JoinMemo {
    pub(crate) plan: CompiledJoin,
    /// Per premise: its column of the relation's shared table.
    columns: Vec<Column>,
    /// Per premise: rows live in its column (the alpha-memory size).
    alpha_counts: Vec<usize>,
    /// The token slab; `free` lists the slots whose level is `FREE`.
    tokens: Vec<Token>,
    free: Vec<u32>,
    /// Per level `0..n-1`: equality-key -> token ids, keyed for
    /// extension into premise `level + 1` (the beta stores). Level 0's
    /// tokens are premise 0's rows, which its column's shared index
    /// holds, so `level_key[0]` stays empty.
    level_key: Vec<KeyStore>,
    /// Token count per level.
    level_counts: Vec<usize>,
    /// The running [`fingerprint`](Self::fingerprint).
    digest: u64,
    /// Heap bytes the beta stores point at (key values, bucket
    /// arrays), maintained incrementally.
    heap_bytes: u64,
    scratch: Scratch,
}

/// Buffers one insertion or retraction fills and the next reuses.
#[derive(Debug, Default)]
struct Scratch {
    /// A probe key.
    key: Vec<Value>,
    /// A token's tuple-id vector.
    tids: Vec<u32>,
    /// The `(parent, row)` extensions an insertion has yet to store.
    work: Vec<(u32, u32)>,
    /// The tokens a retraction removes.
    doomed: Vec<u32>,
}

/// Digest of a memo holding nothing.
const DIGEST_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// An alpha entry's term of the digest. The memos read it through
/// their table ([`Table::digest_term`]), which hashes it once per row
/// and premise position.
pub(crate) fn alpha_digest(premise: usize, tid: u32, tuple: &Tuple) -> u64 {
    let mut h = FnvHasher::default();
    0u8.hash(&mut h);
    premise.hash(&mut h);
    tid.hash(&mut h);
    tuple.values().hash(&mut h);
    mix(h.finish())
}

/// A token's term of the digest, from its tuple-id vector.
fn token_digest(tids: &[u32]) -> u64 {
    let mut h = FnvHasher::default();
    1u8.hash(&mut h);
    tids.hash(&mut h);
    mix(h.finish())
}

impl JoinMemo {
    /// A memo over `columns`, one per premise, which the engine has
    /// added to the tables.
    pub(crate) fn new(plan: CompiledJoin, columns: Vec<Column>) -> JoinMemo {
        let n = plan.arity();
        debug_assert_eq!(columns.len(), n, "one column per premise");
        JoinMemo {
            plan,
            columns,
            alpha_counts: vec![0; n],
            tokens: Vec::new(),
            free: Vec::new(),
            level_key: vec![FxHashMap::default(); n.saturating_sub(1)],
            level_counts: vec![0; n],
            digest: DIGEST_SEED,
            heap_bytes: 0,
            scratch: Scratch::default(),
        }
    }

    pub(crate) fn plan(&self) -> &CompiledJoin {
        &self.plan
    }

    /// Each premise's column.
    pub(crate) fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Discards every token and the alpha counts, keeping the plan and
    /// the columns — the first step of a from-scratch reseed, once the
    /// engine has cleared the tables.
    pub(crate) fn reset(&mut self) {
        *self = JoinMemo::new(self.plan.clone(), std::mem::take(&mut self.columns));
    }

    /// Token count per level (`counts[k]` = partial matches over
    /// premises `0..=k`; the last entry counts complete matches).
    pub(crate) fn level_counts(&self) -> &[usize] {
        &self.level_counts
    }

    /// Alpha-memory size per premise.
    pub(crate) fn alpha_counts(&self) -> &[usize] {
        &self.alpha_counts
    }

    /// Partial (non-complete) token count.
    pub(crate) fn partial_count(&self) -> usize {
        let n = self.level_counts.len();
        self.level_counts[..n - 1].iter().sum()
    }

    /// Resident size as the containers account for it: the token
    /// slab and free list at capacity (a slab never shrinks), each beta
    /// store's table at capacity, the heap behind the beta stores'
    /// entries — key values, bucket arrays — and each column's share
    /// of its table, shared indexes included ([`Table::share`]), so the
    /// memos' figures sum to the engine's. A row's tuple counts as its
    /// handle: the row behind it belongs to the relation and is shared
    /// by every memo and event that holds it. What the allocator rounds
    /// up is not in it.
    pub(crate) fn approx_bytes(&self, tables: &[Table]) -> u64 {
        let columns = self.columns.iter();
        let shares: u64 = columns
            .map(|c| tables[c.table as usize].share(c.column))
            .sum();
        self.own_bytes() + shares
    }

    /// [`approx_bytes`](Self::approx_bytes) less the table shares.
    pub(crate) fn own_bytes(&self) -> u64 {
        let slab =
            self.tokens.capacity() * size_of::<Token>() + self.free.capacity() * size_of::<u32>();
        let stores: u64 = self.level_key.iter().map(map_bytes).sum();
        slab as u64 + stores + self.heap_bytes
    }

    fn token(&self, id: u32) -> &Token {
        &self.tokens[id as usize]
    }

    /// The table premise `premise`'s rows live in.
    fn table<'t>(&self, tables: &'t [Table], premise: usize) -> &'t Table {
        &tables[self.columns[premise].table as usize]
    }

    /// The tuple `token` binds at `premise` (at or below its level).
    fn tuple_at<'t>(&self, tables: &'t [Table], token: u32, premise: usize) -> &'t Tuple {
        let mut t = self.token(token);
        while t.level as usize != premise {
            t = self.token(t.parent);
        }
        self.table(tables, premise).tuple(t.row)
    }

    /// Fills `tids` with `token`'s tuple-id vector, premise order.
    fn tids_into(&self, tables: &[Table], token: u32, tids: &mut Vec<u32>) {
        tids.clear();
        let mut at = token;
        while at != NIL {
            let t = self.token(at);
            tids.push(self.table(tables, t.level as usize).tid(t.row));
            at = t.parent;
        }
        tids.reverse();
    }

    /// Fills `key` with the equality-key of a premise-`j` tuple, the
    /// one it probes level `j - 1` with.
    fn tuple_key_into(&self, j: usize, tuple: &Tuple, key: &mut Vec<Value>) {
        key.clear();
        let eq = &self.plan.plan(j).eq;
        key.extend(eq.iter().map(|s| tuple.get(s.right_attr).clone()));
    }

    /// Fills `key` with the equality-key `token` (over `0..j`)
    /// presents to premise `j`.
    fn probe_key_into(&self, tables: &[Table], j: usize, token: u32, key: &mut Vec<Value>) {
        key.clear();
        let eq = &self.plan.plan(j).eq;
        key.extend(eq.iter().map(|s| {
            self.tuple_at(tables, token, s.left_premise)
                .get(s.left_attr)
                .clone()
        }));
    }

    /// Ordering steps of premise `j` against candidate `tuple`.
    fn residual_ok(&self, tables: &[Table], j: usize, token: u32, tuple: &Tuple) -> bool {
        self.plan.plan(j).residual.iter().all(|s| {
            let left = self
                .tuple_at(tables, token, s.left_premise)
                .get(s.left_attr);
            s.op.holds(left, tuple.get(s.right_attr))
        })
    }

    /// Allocates the token `parent` + `row` and links it to its parent
    /// and its owner; the caller files it under its `level_key`.
    fn alloc_token(&mut self, tables: &mut [Table], parent: u32, row: u32) -> u32 {
        let level = match parent {
            NIL => 0,
            p => self.token(p).level + 1,
        };
        let token = Token {
            row,
            parent,
            level,
            first_child: NIL,
            sibling: Link {
                prev: NIL,
                next: NIL,
            },
            owned: Link {
                prev: NIL,
                next: NIL,
            },
            key_pos: 0,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.tokens[id as usize] = token;
                id
            }
            None => {
                self.tokens.push(token);
                self.tokens.len() as u32 - 1
            }
        };
        debug_assert!(id < ABSENT, "a token id reads as an absent cell");
        if parent != NIL {
            let head = self.token(parent).first_child;
            push_front(&mut self.tokens, head, id, sibling);
            self.tokens[parent as usize].first_child = id;
        }
        let Column { table, column, .. } = self.columns[level as usize];
        let owner = tables[table as usize].cell_mut(row, column);
        push_front(&mut self.tokens, owner.first_owned, id, owned);
        owner.first_owned = id;
        self.level_counts[level as usize] += 1;
        id
    }

    fn binding_of(&self, tables: &[Table], token: u32) -> Binding {
        let mut tuples = Vec::with_capacity(self.plan.arity());
        let mut at = token;
        while at != NIL {
            let t = self.token(at);
            let p = t.level as usize;
            let table = self.table(tables, p);
            tuples.push(BoundTuple {
                relation: Arc::clone(&self.plan.names[p]),
                id: TupleId(table.tid(t.row)),
                tuple: table.tuple(t.row).clone(),
            });
            at = t.parent;
        }
        tuples.reverse();
        Binding { tuples }
    }

    /// Feeds one alpha-matching tuple of premise `k` into the memo.
    /// The caller is responsible for the alpha test (at runtime the
    /// predicate index performs it; seeding uses the premise's bound
    /// predicate).
    pub(crate) fn insert(
        &mut self,
        tables: &mut [Table],
        k: usize,
        tid: u32,
        tuple: &Tuple,
    ) -> InsertOutcome {
        let n = self.plan.arity();
        let mut out = InsertOutcome::default();
        let Column { table, column, .. } = self.columns[k];
        let Some(row) = tables[table as usize].enter(column, tid, tuple) else {
            return out; // duplicate feed (e.g. two premise pids) — ignore
        };
        self.alpha_counts[k] += 1;
        let mut s = std::mem::take(&mut self.scratch);

        if k == 0 {
            s.work.push((NIL, row));
        } else {
            // Leftward: prefixes over 0..k that accept the new tuple.
            self.tuple_key_into(k, tuple, &mut s.key);
            if k == 1 {
                // Level 0's tokens are premise 0's rows: each live row
                // in the index owns exactly one.
                let Column {
                    table,
                    column,
                    index,
                } = self.columns[0];
                let rows = &tables[table as usize];
                for &c in rows.bucket(index, &s.key) {
                    let cell = rows.cell(c, column);
                    if cell.is_live() {
                        out.probes += 1;
                        let token = cell.first_owned;
                        if self.residual_ok(tables, k, token, tuple) {
                            s.work.push((token, row));
                        }
                    }
                }
            } else {
                let cands = bucket(&self.level_key[k - 1], &s.key);
                out.probes += cands.len() as u64;
                let accepted = cands
                    .iter()
                    .filter(|&&c| self.residual_ok(tables, k, c, tuple));
                s.work.extend(accepted.map(|&c| (c, row)));
            }
        }
        let term = tables[table as usize].digest_term(row, k);
        self.digest = self.digest.wrapping_add(term);

        // Store each extension, then grow it rightward across the
        // premises after its own as far as the known tuples allow.
        while let Some((parent, last)) = s.work.pop() {
            let id = self.alloc_token(tables, parent, last);
            out.created += 1;
            self.tids_into(tables, id, &mut s.tids);
            self.digest = self.digest.wrapping_add(token_digest(&s.tids));
            let j = s.tids.len();
            if j == n {
                out.bindings.push(self.binding_of(tables, id));
                continue;
            }
            self.probe_key_into(tables, j, id, &mut s.key);
            if j > 1 {
                let (pos, grew) = bucket_push(&mut self.level_key[j - 1], &s.key, id);
                self.tokens[id as usize].key_pos = pos;
                self.heap_bytes += grew;
            }
            let Column {
                table,
                column,
                index,
            } = self.columns[j];
            let rows = &tables[table as usize];
            // The candidate's tuple is read only for an ordering step.
            let residual = &self.plan.plan(j).residual;
            for &c in rows.bucket(index, &s.key) {
                if rows.cell(c, column).is_live() {
                    out.probes += 1;
                    if residual.is_empty() || self.residual_ok(tables, j, id, rows.tuple(c)) {
                        s.work.push((id, c));
                    }
                }
            }
        }
        self.scratch = s;
        out.bindings
            .sort_by(|a, b| a.tuple_ids().cmp(b.tuple_ids()));
        out
    }

    /// Feeds every tuple of `catalog` that passes a premise's alpha
    /// test, premise by premise in ascending tuple-id order; `each`
    /// sees the memo after every insertion, with its outcome.
    pub(crate) fn seed(
        &mut self,
        tables: &mut [Table],
        catalog: &Catalog,
        mut each: impl FnMut(&JoinMemo, &[Table], InsertOutcome),
    ) {
        for i in 0..self.plan.arity() {
            let Some(rel) = catalog.relation(self.plan.relation(i)) else {
                continue;
            };
            let alpha = self.plan.condition().premises()[i]
                .bind(rel.schema())
                .expect("a compiled premise binds against its relation's schema");
            for (tid, tuple) in alpha.scan(rel) {
                let out = self.insert(tables, i, tid.0, tuple);
                each(self, tables, out);
            }
        }
    }

    /// Retracts `row` from premise `k`: removes every token containing
    /// it — the subtrees under the tokens it owns — and then its cell.
    /// Returns the number of tokens retracted.
    pub(crate) fn retract(&mut self, tables: &mut [Table], k: usize, row: u32) -> u64 {
        let n = self.plan.arity();
        let Column { table, column, .. } = self.columns[k];
        let entry = tables[table as usize].cell(row, column);
        if !entry.is_live() {
            return 0;
        }
        let mut s = std::mem::take(&mut self.scratch);

        // Owned tokens first, each followed (breadth first) by its
        // descendants ...
        s.doomed.clear();
        let mut at = entry.first_owned;
        while at != NIL {
            s.doomed.push(at);
            at = self.token(at).owned.next;
        }
        let mut next = 0;
        while let Some(&id) = s.doomed.get(next) {
            let mut child = self.token(id).first_child;
            while child != NIL {
                s.doomed.push(child);
                child = self.token(child).sibling.next;
            }
            next += 1;
        }
        // ... then removed children before parents, so a token's path
        // (its key and digest term) is intact when its turn comes.
        for &id in s.doomed.iter().rev() {
            self.tids_into(tables, id, &mut s.tids);
            self.digest = self.digest.wrapping_sub(token_digest(&s.tids));
            let level = s.tids.len() - 1;
            self.level_counts[level] -= 1;
            if level > 0 && level + 1 < n {
                self.probe_key_into(tables, level + 1, id, &mut s.key);
                let pos = self.token(id).key_pos;
                let (moved, shrank) = bucket_remove(&mut self.level_key[level], &s.key, pos);
                if let Some(moved) = moved {
                    self.tokens[moved as usize].key_pos = pos;
                }
                self.heap_bytes -= shrank;
            }
            let Token {
                parent, row: last, ..
            } = *self.token(id);
            if level == k {
                // The subtree's root: its parent lives on. (Its owner
                // list goes with the alpha entry.)
                if let Some(head) = unlink(&mut self.tokens, id, sibling) {
                    if parent != NIL {
                        self.tokens[parent as usize].first_child = head;
                    }
                }
            } else if let Some(head) = unlink(&mut self.tokens, id, owned) {
                // A descendant: its parent goes too, its owner stays.
                let owner = self.columns[level];
                tables[owner.table as usize]
                    .cell_mut(last, owner.column)
                    .first_owned = head;
            }
            self.tokens[id as usize].level = FREE;
            self.free.push(id);
        }
        let retracted = s.doomed.len() as u64;

        let term = tables[table as usize].digest_term(row, k);
        self.digest = self.digest.wrapping_sub(term);
        tables[table as usize].leave(row, column);
        self.alpha_counts[k] -= 1;
        self.scratch = s;
        retracted
    }

    /// All complete matches as tuple-id vectors, sorted.
    pub(crate) fn complete_matches(&self, tables: &[Table]) -> Vec<Vec<u32>> {
        let last = self.plan.arity() as u32 - 1;
        let mut out = Vec::with_capacity(self.level_counts[last as usize]);
        for (id, t) in self.tokens.iter().enumerate() {
            if t.level == last {
                let mut tids = Vec::new();
                self.tids_into(tables, id as u32, &mut tids);
                out.push(tids);
            }
        }
        out.sort();
        out
    }

    /// Order-independent digest of the memo state (alpha memories and
    /// the full token set, token ids excluded). Two memos over the same
    /// condition hold identical state iff their fingerprints match: the
    /// digest is a wrapping sum of one term per item, so it is
    /// insensitive to insertion order, and kept running — each term is
    /// added when its item is stored and subtracted when it is removed,
    /// which leaves exactly the sum a memo seeded with the surviving
    /// items would have.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.digest
    }

    /// [`fingerprint`](Self::fingerprint) recomputed from every stored
    /// item — the oracle the running digest is tested against.
    fn fingerprint_recomputed(&self, tables: &[Table]) -> u64 {
        let mut acc = DIGEST_SEED;
        for (p, c) in self.columns.iter().enumerate() {
            let rows = &tables[c.table as usize];
            for row in rows.rows_in(c.column) {
                acc = acc.wrapping_add(alpha_digest(p, rows.tid(row), rows.tuple(row)));
            }
        }
        let mut tids = Vec::new();
        for (id, t) in self.tokens.iter().enumerate() {
            if t.level != FREE {
                self.tids_into(tables, id as u32, &mut tids);
                acc = acc.wrapping_add(token_digest(&tids));
            }
        }
        acc
    }

    /// Walks the whole memo and checks what the O(1) paths rely on:
    /// free list = the `FREE` slots, every stored position and link
    /// points back at its holder, every live token sits in exactly the
    /// lists its path says it should, a live premise-0 cell owns
    /// exactly one token, the counters, the beta stores' heap bytes
    /// and the running digest equal a recount.
    pub(crate) fn check_structure(&self, tables: &[Table]) -> Result<(), String> {
        let n = self.plan.arity();
        let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };

        let free_slots = self.tokens.iter().filter(|t| t.level == FREE).count();
        ensure(free_slots == self.free.len(), "free list length")?;
        let mut on_free_list = vec![false; self.tokens.len()];
        for &id in &self.free {
            let slot = on_free_list
                .get_mut(id as usize)
                .ok_or("free id out of range")?;
            ensure(!std::mem::replace(slot, true), "slot freed twice")?;
            ensure(self.token(id).level == FREE, "live slot on the free list")?;
        }

        let mut level_counts = vec![0usize; n];
        let mut owned_seen = 0usize;
        let mut child_seen = 0usize;
        let mut key = Vec::new();
        for (p, c) in self.columns.iter().enumerate() {
            let rows = &tables[c.table as usize];
            let mut entries = 0;
            for row in rows.rows_in(c.column) {
                entries += 1;
                let (mut prev, mut at) = (NIL, rows.cell(row, c.column).first_owned);
                let owners = owned_seen;
                while at != NIL {
                    let t = self
                        .tokens
                        .get(at as usize)
                        .ok_or("owned id out of range")?;
                    ensure(t.level as usize == p && t.row == row, "owner list member")?;
                    ensure(t.owned.prev == prev, "owner list back link")?;
                    owned_seen += 1;
                    (prev, at) = (at, t.owned.next);
                }
                if p == 0 {
                    ensure(owned_seen == owners + 1, "a premise-0 row owns one token")?;
                }
            }
            ensure(entries == self.alpha_counts[p], "alpha count")?;
        }
        for (id, t) in self.tokens.iter().enumerate() {
            if t.level == FREE {
                continue;
            }
            let id = id as u32;
            let level = t.level as usize;
            ensure(level < n, "token level")?;
            level_counts[level] += 1;
            let c = self.columns[level];
            ensure(
                tables[c.table as usize].holds(t.row, c.column),
                "token tuple unknown",
            )?;
            match t.parent {
                NIL => ensure(level == 0, "root above level 0")?,
                p => {
                    let parent = self.tokens.get(p as usize).ok_or("parent out of range")?;
                    ensure(parent.level as usize + 1 == level, "parent level")?;
                }
            }
            if level > 0 && level + 1 < n {
                self.probe_key_into(tables, level + 1, id, &mut key);
                let at = self.level_key[level]
                    .get(key.as_slice())
                    .and_then(|b| b.get(t.key_pos as usize));
                ensure(at == Some(&id), "level key position")?;
            }
            let (mut prev, mut at) = (NIL, t.first_child);
            while at != NIL {
                let c = self.tokens.get(at as usize).ok_or("child out of range")?;
                ensure(c.level != FREE && c.parent == id, "child list member")?;
                ensure(c.sibling.prev == prev, "child list back link")?;
                child_seen += 1;
                (prev, at) = (at, c.sibling.next);
            }
        }
        let live = self.tokens.len() - self.free.len();
        ensure(owned_seen == live, "tokens on owner lists")?;
        ensure(
            child_seen == live - level_counts[0],
            "tokens on child lists",
        )?;
        ensure(level_counts == self.level_counts, "level counts")?;
        for (level, store) in self.level_key.iter().enumerate() {
            let members: usize = store.values().map(|b| b.len()).sum();
            let expect = if level == 0 { 0 } else { level_counts[level] };
            ensure(members == expect, "level key members")?;
            ensure(store.values().all(|b| !b.is_empty()), "empty level bucket")?;
        }
        let heap: u64 = self.level_key.iter().map(keys::heap_bytes).sum();
        ensure(heap == self.heap_bytes, "beta store heap bytes")?;
        ensure(
            self.digest == self.fingerprint_recomputed(tables),
            "running digest differs from the recomputed one",
        )
    }
}

/// Final avalanche (SplitMix64 tail) so the wrapping sum mixes well.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
