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
//! Tokens form a forest in a slab (`Vec` + free list, id = slot): a
//! token holds only the tuple of its own level and a link to its
//! parent, the token over premises `0..k`; its tuple-id vector is the
//! path to the root. Each token also sits in three lists, and leaves
//! every one of them in O(1):
//!
//! - its parent's child list and its tuple's *owner* list (the tokens
//!   whose last premise is that tuple) — walked only to delete, so
//!   threaded through the tokens themselves ([`Link`]);
//! - the `level_key` bucket a later premise probes from the right —
//!   scanned on every probe, so a plain `Vec` the token leaves by
//!   `swap_remove` at its stored position.
//!
//! Stores are hash-keyed by join values (the equality steps of the
//! premise being extended); ordering steps filter candidates as they
//! are probed. Insertion at premise `k` extends *left* (probing the
//! level `k-1` store for prefixes that accept the new tuple) and then
//! *right* (probing the alpha stores of premises `k+1..` to grow the
//! newly created tokens as far as the known tuples allow). Deletion
//! removes the alpha entry and the subtree under every token the tuple
//! owns — exactly the tokens that contain it — so a retraction costs
//! the tokens it removes, whatever the size of the stores around them.

use crate::compile::CompiledJoin;
use relation::fx::{FnvHashMap, FnvHasher};
use relation::{Catalog, Tuple, TupleId, Value};
use std::hash::{Hash, Hasher};
use std::mem::size_of;

/// One complete match: the bound tuple of every premise, in premise
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// `(relation, tuple id, tuple)` per premise.
    pub tuples: Vec<(String, TupleId, Tuple)>,
}

impl Binding {
    /// The premise tuple ids, in premise order.
    pub fn tuple_ids(&self) -> Vec<u32> {
        self.tuples.iter().map(|(_, id, _)| id.0).collect()
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
const NIL: u32 = u32::MAX;
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
    /// The tuple of premise `level` this token binds (its owner).
    tid: u32,
    /// The token over premises `0..level`, `NIL` at level 0.
    parent: u32,
    level: u32,
    /// Head of the child list: this token extended by one premise.
    first_child: u32,
    /// Place in the parent's child list.
    sibling: Link,
    /// Place in the owner list of `(level, tid)`.
    owned: Link,
    /// Position in its `level_key` bucket (levels below the last).
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

/// One alpha-memory entry.
#[derive(Debug, Clone)]
struct AlphaEntry {
    /// A handle on the row the relation stored — shared with the
    /// relation and every other memo, not a copy. It keeps the values
    /// the memo saw after the relation replaces or deletes the row,
    /// until the retraction has used them.
    tuple: Tuple,
    /// Position in its `alpha_key` bucket (premises `1..`).
    key_pos: u32,
    /// Head of the owner list: tokens whose last premise is this tuple.
    first_owned: u32,
}

/// Equality-key -> ids, each id knowing its position in the bucket.
type KeyStore = FnvHashMap<Vec<Value>, Vec<u32>>;

/// Heap bytes behind a value slice: the slots plus string contents.
fn values_bytes(vs: &[Value]) -> u64 {
    let strings: usize = vs
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    (std::mem::size_of_val(vs) + strings) as u64
}

/// Table bytes of a hash map: its capacity is 7/8 of its slots, and
/// each slot carries one control byte.
fn map_bytes<K, V>(m: &FnvHashMap<K, V>) -> u64 {
    (m.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)) as u64
}

fn slots_bytes(bucket: &Vec<u32>) -> u64 {
    (bucket.capacity() * size_of::<u32>()) as u64
}

/// Appends `id` to the bucket of `key`. Returns its position and the
/// heap bytes the store grew by.
fn bucket_push(store: &mut KeyStore, key: &[Value], id: u32) -> (u32, u64) {
    if let Some(bucket) = store.get_mut(key) {
        let before = slots_bytes(bucket);
        bucket.push(id);
        return (bucket.len() as u32 - 1, slots_bytes(bucket) - before);
    }
    let bucket = vec![id];
    let grew = values_bytes(key) + slots_bytes(&bucket);
    store.insert(key.to_vec(), bucket);
    (0, grew)
}

/// Removes the id at `pos` of the bucket of `key` by `swap_remove`.
/// Returns the id that moved into `pos` (its stored position is now
/// stale) and the heap bytes the store shrank by — a bucket gives its
/// array back only when it empties.
fn bucket_remove(store: &mut KeyStore, key: &[Value], pos: u32) -> (Option<u32>, u64) {
    let Some(bucket) = store.get_mut(key) else {
        debug_assert!(false, "keyed member without a bucket");
        return (None, 0);
    };
    bucket.swap_remove(pos as usize);
    if bucket.is_empty() {
        let shrank = values_bytes(key) + slots_bytes(bucket);
        store.remove(key);
        return (None, shrank);
    }
    (bucket.get(pos as usize).copied(), 0)
}

/// The memo for one compiled join condition.
#[derive(Debug)]
pub(crate) struct JoinMemo {
    pub(crate) plan: CompiledJoin,
    /// Per premise: tuple id -> entry (the alpha memory).
    alpha: Vec<FnvHashMap<u32, AlphaEntry>>,
    /// Per premise `1..`: equality-key -> tuple ids, for rightward
    /// probes. Premise 0 is never probed (a probe extends a token,
    /// and every token already binds premise 0), so its store stays
    /// empty.
    alpha_key: Vec<KeyStore>,
    /// The token slab; `free` lists the slots whose level is `FREE`.
    tokens: Vec<Token>,
    free: Vec<u32>,
    /// Per level `0..n-1`: equality-key -> token ids, keyed for
    /// extension into premise `level + 1` (the beta stores).
    level_key: Vec<KeyStore>,
    /// Token count per level.
    level_counts: Vec<usize>,
    /// The running [`fingerprint`](Self::fingerprint).
    digest: u64,
    /// Heap bytes the key stores point at (key values, bucket
    /// arrays), maintained incrementally. An alpha entry's tuple is a
    /// shared handle, counted in its table slot.
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
    /// The `(parent, tuple)` extensions an insertion has yet to store.
    work: Vec<(u32, u32)>,
    /// The tokens a retraction removes.
    doomed: Vec<u32>,
}

/// Digest of a memo holding nothing.
const DIGEST_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// An alpha entry's term of the digest.
fn alpha_digest(premise: usize, tid: u32, tuple: &Tuple) -> u64 {
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
    pub(crate) fn new(plan: CompiledJoin) -> JoinMemo {
        let n = plan.arity();
        JoinMemo {
            plan,
            alpha: vec![FnvHashMap::default(); n],
            alpha_key: vec![FnvHashMap::default(); n],
            tokens: Vec::new(),
            free: Vec::new(),
            level_key: vec![FnvHashMap::default(); n.saturating_sub(1)],
            level_counts: vec![0; n],
            digest: DIGEST_SEED,
            heap_bytes: 0,
            scratch: Scratch::default(),
        }
    }

    pub(crate) fn plan(&self) -> &CompiledJoin {
        &self.plan
    }

    /// Discards every alpha entry and token, keeping the plan — the
    /// first step of a from-scratch reseed.
    pub(crate) fn reset(&mut self) {
        *self = JoinMemo::new(self.plan.clone());
    }

    /// Token count per level (`counts[k]` = partial matches over
    /// premises `0..=k`; the last entry counts complete matches).
    pub(crate) fn level_counts(&self) -> &[usize] {
        &self.level_counts
    }

    /// Alpha-memory size per premise.
    pub(crate) fn alpha_counts(&self) -> Vec<usize> {
        self.alpha.iter().map(|m| m.len()).collect()
    }

    /// Partial (non-complete) token count.
    pub(crate) fn partial_count(&self) -> usize {
        let n = self.level_counts.len();
        self.level_counts[..n - 1].iter().sum()
    }

    /// Resident size as the containers account for it: the token
    /// slab and free list at capacity (a slab never shrinks), each
    /// alpha and key-store table at capacity, and the heap behind the
    /// key stores' entries — key values, bucket arrays. An alpha
    /// entry's tuple counts as its handle (in the table slot): the row
    /// behind it belongs to the relation and is shared by every memo
    /// and event that holds it. What the allocator rounds up is not in
    /// it.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let slab =
            self.tokens.capacity() * size_of::<Token>() + self.free.capacity() * size_of::<u32>();
        let alpha: u64 = self.alpha.iter().map(map_bytes).sum();
        let stores = self.alpha_key.iter().chain(&self.level_key);
        slab as u64 + alpha + stores.map(map_bytes).sum::<u64>() + self.heap_bytes
    }

    fn token(&self, id: u32) -> &Token {
        &self.tokens[id as usize]
    }

    /// The tuple `token` binds at `premise` (at or below its level).
    fn tuple_at(&self, token: u32, premise: usize) -> &Tuple {
        let mut t = self.token(token);
        while t.level as usize != premise {
            t = self.token(t.parent);
        }
        &self.alpha[premise][&t.tid].tuple
    }

    /// Fills `tids` with `token`'s tuple-id vector, premise order.
    fn tids_into(&self, token: u32, tids: &mut Vec<u32>) {
        tids.clear();
        let mut at = token;
        while at != NIL {
            let t = self.token(at);
            tids.push(t.tid);
            at = t.parent;
        }
        tids.reverse();
    }

    /// Fills `key` with the equality-key of a premise-`j` tuple when
    /// probed from the left.
    fn alpha_key_into(&self, j: usize, tuple: &Tuple, key: &mut Vec<Value>) {
        key.clear();
        let eq = &self.plan.plan(j).eq;
        key.extend(eq.iter().map(|s| tuple.get(s.right_attr).clone()));
    }

    /// Fills `key` with the equality-key `token` (over `0..j`)
    /// presents to premise `j`.
    fn probe_key_into(&self, j: usize, token: u32, key: &mut Vec<Value>) {
        key.clear();
        let eq = &self.plan.plan(j).eq;
        key.extend(eq.iter().map(|s| {
            self.tuple_at(token, s.left_premise)
                .get(s.left_attr)
                .clone()
        }));
    }

    /// Ordering steps of premise `j` against candidate `tuple`.
    fn residual_ok(&self, j: usize, token: u32, tuple: &Tuple) -> bool {
        self.plan.plan(j).residual.iter().all(|s| {
            let left = self.tuple_at(token, s.left_premise).get(s.left_attr);
            s.op.holds(left, tuple.get(s.right_attr))
        })
    }

    /// Allocates the token `parent` + `tid` and links it to its parent
    /// and its owner; the caller files it under its `level_key`.
    fn alloc_token(&mut self, parent: u32, tid: u32) -> u32 {
        let level = match parent {
            NIL => 0,
            p => self.token(p).level + 1,
        };
        let token = Token {
            tid,
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
        if parent != NIL {
            let head = self.token(parent).first_child;
            push_front(&mut self.tokens, head, id, sibling);
            self.tokens[parent as usize].first_child = id;
        }
        let owners = &mut self.alpha[level as usize];
        let owner = owners
            .get_mut(&tid)
            .expect("insert stores the tuple before any token over it");
        push_front(&mut self.tokens, owner.first_owned, id, owned);
        owner.first_owned = id;
        self.level_counts[level as usize] += 1;
        id
    }

    fn binding_of(&self, token: u32) -> Binding {
        let mut tuples = Vec::with_capacity(self.plan.arity());
        let mut at = token;
        while at != NIL {
            let t = self.token(at);
            let p = t.level as usize;
            tuples.push((
                self.plan.relation(p).to_string(),
                TupleId(t.tid),
                self.alpha[p][&t.tid].tuple.clone(),
            ));
            at = t.parent;
        }
        tuples.reverse();
        Binding { tuples }
    }

    /// Feeds one alpha-matching tuple of premise `k` into the memo.
    /// The caller is responsible for the alpha test (at runtime the
    /// predicate index performs it; seeding uses
    /// [`CompiledJoin::alpha`]).
    pub(crate) fn insert(&mut self, k: usize, tid: u32, tuple: &Tuple) -> InsertOutcome {
        let n = self.plan.arity();
        let mut out = InsertOutcome::default();
        if self.alpha[k].contains_key(&tid) {
            return out; // duplicate feed (e.g. two premise pids) — ignore
        }
        let mut s = std::mem::take(&mut self.scratch);

        let mut key_pos = 0;
        if k == 0 {
            s.work.push((NIL, tid));
        } else {
            self.alpha_key_into(k, tuple, &mut s.key);
            let (pos, grew) = bucket_push(&mut self.alpha_key[k], &s.key, tid);
            key_pos = pos;
            self.heap_bytes += grew;
            // Leftward: prefixes over 0..k that accept the new tuple.
            if let Some(cands) = self.level_key[k - 1].get(s.key.as_slice()) {
                out.probes += cands.len() as u64;
                let accepted = cands.iter().filter(|&&c| self.residual_ok(k, c, tuple));
                s.work.extend(accepted.map(|&c| (c, tid)));
            }
        }
        self.alpha[k].insert(
            tid,
            AlphaEntry {
                tuple: tuple.clone(),
                key_pos,
                first_owned: NIL,
            },
        );
        self.digest = self.digest.wrapping_add(alpha_digest(k, tid, tuple));

        // Store each extension, then grow it rightward across the
        // premises after its own as far as the known tuples allow.
        while let Some((parent, last)) = s.work.pop() {
            let id = self.alloc_token(parent, last);
            out.created += 1;
            self.tids_into(id, &mut s.tids);
            self.digest = self.digest.wrapping_add(token_digest(&s.tids));
            let j = s.tids.len();
            if j == n {
                out.bindings.push(self.binding_of(id));
                continue;
            }
            self.probe_key_into(j, id, &mut s.key);
            let (pos, grew) = bucket_push(&mut self.level_key[j - 1], &s.key, id);
            self.tokens[id as usize].key_pos = pos;
            self.heap_bytes += grew;
            if let Some(cands) = self.alpha_key[j].get(s.key.as_slice()) {
                out.probes += cands.len() as u64;
                let accepted = cands
                    .iter()
                    .filter(|&&c| self.residual_ok(j, id, &self.alpha[j][&c].tuple));
                s.work.extend(accepted.map(|&c| (id, c)));
            }
        }
        self.scratch = s;
        out.bindings.sort_by_key(|b| b.tuple_ids());
        out
    }

    /// Feeds every tuple of `catalog` that passes a premise's alpha
    /// test, premise by premise in ascending tuple-id order; `each`
    /// sees the memo after every insertion, with its outcome.
    pub(crate) fn seed(
        &mut self,
        catalog: &Catalog,
        mut each: impl FnMut(&JoinMemo, InsertOutcome),
    ) {
        for i in 0..self.plan.arity() {
            let Some(rel) = catalog.relation(self.plan.relation(i)) else {
                continue;
            };
            // Its own copy: the scan would keep the plan borrowed.
            let alpha = self.plan.alpha(i).clone();
            for (tid, tuple) in alpha.scan(rel) {
                let out = self.insert(i, tid.0, tuple);
                each(self, out);
            }
        }
    }

    /// Retracts a tuple of premise `k`: removes its alpha entry and
    /// every token containing it — the subtrees under the tokens it
    /// owns. Returns the number of tokens retracted.
    pub(crate) fn retract(&mut self, k: usize, tid: u32) -> u64 {
        let n = self.plan.arity();
        let Some(entry) = self.alpha[k].get(&tid) else {
            return 0;
        };
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
            self.tids_into(id, &mut s.tids);
            self.digest = self.digest.wrapping_sub(token_digest(&s.tids));
            let level = s.tids.len() - 1;
            self.level_counts[level] -= 1;
            if level + 1 < n {
                self.probe_key_into(level + 1, id, &mut s.key);
                let pos = self.token(id).key_pos;
                let (moved, shrank) = bucket_remove(&mut self.level_key[level], &s.key, pos);
                if let Some(moved) = moved {
                    self.tokens[moved as usize].key_pos = pos;
                }
                self.heap_bytes -= shrank;
            }
            let Token {
                parent, tid: last, ..
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
                if let Some(owner) = self.alpha[level].get_mut(&last) {
                    owner.first_owned = head;
                }
            }
            self.tokens[id as usize].level = FREE;
            self.free.push(id);
        }
        let retracted = s.doomed.len() as u64;

        if let Some(entry) = self.alpha[k].remove(&tid) {
            self.digest = self.digest.wrapping_sub(alpha_digest(k, tid, &entry.tuple));
            if k > 0 {
                self.alpha_key_into(k, &entry.tuple, &mut s.key);
                let (moved, shrank) = bucket_remove(&mut self.alpha_key[k], &s.key, entry.key_pos);
                if let Some(moved) = moved {
                    if let Some(e) = self.alpha[k].get_mut(&moved) {
                        e.key_pos = entry.key_pos;
                    }
                }
                self.heap_bytes -= shrank;
            }
        }
        self.scratch = s;
        retracted
    }

    /// All complete matches as tuple-id vectors, sorted.
    pub(crate) fn complete_matches(&self) -> Vec<Vec<u32>> {
        let last = self.plan.arity() as u32 - 1;
        let mut out = Vec::with_capacity(self.level_counts[last as usize]);
        for (id, t) in self.tokens.iter().enumerate() {
            if t.level == last {
                let mut tids = Vec::new();
                self.tids_into(id as u32, &mut tids);
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
    fn fingerprint_recomputed(&self) -> u64 {
        let mut acc = DIGEST_SEED;
        for (p, m) in self.alpha.iter().enumerate() {
            for (&tid, entry) in m {
                acc = acc.wrapping_add(alpha_digest(p, tid, &entry.tuple));
            }
        }
        let mut tids = Vec::new();
        for (id, t) in self.tokens.iter().enumerate() {
            if t.level != FREE {
                self.tids_into(id as u32, &mut tids);
                acc = acc.wrapping_add(token_digest(&tids));
            }
        }
        acc
    }

    /// Walks the whole memo and checks what the O(1) paths rely on:
    /// free list = the `FREE` slots, every stored position and link
    /// points back at its holder, every live token sits in exactly the
    /// lists its path says it should, the counters and the running
    /// digest equal a recount.
    pub(crate) fn check_structure(&self) -> Result<(), String> {
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
        for (p, m) in self.alpha.iter().enumerate() {
            for (&tid, entry) in m {
                if p > 0 {
                    self.alpha_key_into(p, &entry.tuple, &mut key);
                    let at = self.alpha_key[p]
                        .get(key.as_slice())
                        .and_then(|b| b.get(entry.key_pos as usize));
                    ensure(at == Some(&tid), "alpha key position")?;
                }
                let (mut prev, mut at) = (NIL, entry.first_owned);
                while at != NIL {
                    let t = self
                        .tokens
                        .get(at as usize)
                        .ok_or("owned id out of range")?;
                    ensure(t.level as usize == p && t.tid == tid, "owner list member")?;
                    ensure(t.owned.prev == prev, "owner list back link")?;
                    owned_seen += 1;
                    (prev, at) = (at, t.owned.next);
                }
            }
        }
        for (id, t) in self.tokens.iter().enumerate() {
            if t.level == FREE {
                continue;
            }
            let id = id as u32;
            let level = t.level as usize;
            ensure(level < n, "token level")?;
            level_counts[level] += 1;
            ensure(
                self.alpha[level].contains_key(&t.tid),
                "token tuple unknown",
            )?;
            match t.parent {
                NIL => ensure(level == 0, "root above level 0")?,
                p => {
                    let parent = self.tokens.get(p as usize).ok_or("parent out of range")?;
                    ensure(parent.level as usize + 1 == level, "parent level")?;
                }
            }
            if level + 1 < n {
                self.probe_key_into(level + 1, id, &mut key);
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
            let members: usize = store.values().map(Vec::len).sum();
            ensure(members == level_counts[level], "level key members")?;
            ensure(store.values().all(|b| !b.is_empty()), "empty level bucket")?;
        }
        for (p, store) in self.alpha_key.iter().enumerate() {
            let members: usize = store.values().map(Vec::len).sum();
            let expect = if p == 0 { 0 } else { self.alpha[p].len() };
            ensure(members == expect, "alpha key members")?;
            ensure(store.values().all(|b| !b.is_empty()), "empty alpha bucket")?;
        }
        ensure(
            self.digest == self.fingerprint_recomputed(),
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
