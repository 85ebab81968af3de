//! The shared alpha memories: one table per relation that some premise
//! names, owned by the [`JoinEngine`](crate::JoinEngine) and shared by
//! every memo with a premise over that relation — Rete's alpha-memory
//! sharing (Forgy 1982), as DESIGN.md §9 applies it to the paper's
//! non-indexable list.
//!
//! A table maps a tuple id to a *row* once. The row holds the tuple's
//! handle once, a count of its live cells, and one [`Cell`] per
//! registered `(condition, premise)` *column*: what each memo kept per
//! premise in a tuple-id map of its own. A cell that is [`ABSENT`] says
//! the tuple is not in that premise. A row lives while one of its cells
//! does, so a table is sized by the tuples some premise holds, not by
//! the relation, and an event finds its row with one lookup and reads
//! its columns side by side.
//!
//! The table also holds the key stores whose members are its rows: one
//! *index* per distinct list of key attributes that some premise joins
//! on (`orders.cust`, `customers.id`), shared by every memo that names
//! it. An index holds every row in use under the row's values at its
//! attributes; a row enters each index when it is made and leaves when
//! it is freed, once per row and not once per memo. A memo probing an
//! index keeps only the rows live in its own column.
//!
//! Last, the table keeps the digest terms of the row an event last
//! asked about, one per premise position: the memos an event reaches
//! add (or subtract) the same term for the same row at the same
//! position, so each is hashed once per event and not once per memo.
//! The terms go when their row is freed or the table is cleared.

use crate::keys::{self, bucket, bucket_push, bucket_remove, map_bytes, KeyStore};
use crate::memo::{alpha_digest, NIL};
use relation::fx::FxHashMap;
use relation::{Tuple, Value};
use std::collections::hash_map::Entry;
use std::mem::size_of;

/// A [`Cell`] whose row is not in the column's premise. One below
/// [`NIL`], so no token id reaches it.
pub(crate) const ABSENT: u32 = NIL - 1;

/// One row's state in one premise: the head of its owner list, the
/// memo's tokens whose last premise is this row ([`NIL`] if none), or
/// [`ABSENT`] if the row is not in the premise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) first_owned: u32,
}

const _: () = assert!(size_of::<Cell>() == 4);

impl Cell {
    const EMPTY: Cell = Cell {
        first_owned: ABSENT,
    };

    pub(crate) fn is_live(self) -> bool {
        self.first_owned != ABSENT
    }
}

#[derive(Debug)]
struct Row {
    tid: u32,
    /// Live cells; 0 on the free list.
    live: u32,
    /// A handle on the row the relation stored — shared with the
    /// relation, not a copy; `None` on the free list. It keeps the
    /// values the memos saw after the relation replaces or deletes the
    /// row, until the last retraction has used them.
    tuple: Option<Tuple>,
}

/// The rows in use, bucketed by their values at `attrs`.
#[derive(Debug)]
struct Index {
    attrs: Box<[usize]>,
    /// The memo premises that name it.
    users: u32,
    store: KeyStore,
    /// Per row: its position in its bucket (stale on a free row).
    pos: Vec<u32>,
    /// Heap bytes behind the store's entries, kept as they change.
    heap_bytes: u64,
}

/// `tuple`'s values at `attrs`: the one value in place, more than one
/// gathered into `scratch`.
fn key_of<'k>(attrs: &[usize], tuple: &'k Tuple, scratch: &'k mut Vec<Value>) -> &'k [Value] {
    if let [attr] = attrs {
        return std::slice::from_ref(tuple.get(*attr));
    }
    scratch.clear();
    scratch.extend(attrs.iter().map(|&a| tuple.get(a).clone()));
    scratch
}

impl Index {
    fn push(&mut self, row: u32, tuple: &Tuple, scratch: &mut Vec<Value>) {
        let key = key_of(&self.attrs, tuple, scratch);
        let (pos, grew) = bucket_push(&mut self.store, key, row);
        if self.pos.len() <= row as usize {
            self.pos.resize(row as usize + 1, 0);
        }
        self.pos[row as usize] = pos;
        self.heap_bytes += grew;
    }

    fn remove(&mut self, row: u32, tuple: &Tuple, scratch: &mut Vec<Value>) {
        let key = key_of(&self.attrs, tuple, scratch);
        let pos = self.pos[row as usize];
        let (moved, shrank) = bucket_remove(&mut self.store, key, pos);
        if let Some(moved) = moved {
            self.pos[moved as usize] = pos;
        }
        self.heap_bytes -= shrank;
    }

    fn approx_bytes(&self) -> u64 {
        let vecs = self.attrs.len() * size_of::<usize>() + self.pos.capacity() * size_of::<u32>();
        map_bytes(&self.store) + self.heap_bytes + vecs as u64
    }
}

/// One relation's alpha memory.
#[derive(Debug, Default)]
pub(crate) struct Table {
    /// Tuple id -> row, for the rows in use.
    by_tid: FxHashMap<u32, u32>,
    rows: Vec<Row>,
    free_rows: Vec<u32>,
    /// `width` cells per row, row after row (free rows' all `EMPTY`).
    cells: Vec<Cell>,
    width: usize,
    /// The live columns as `(condition key, premise, column)`, sorted:
    /// the order a retraction visits them in.
    order: Vec<(u64, u32, u32)>,
    /// Columns `remove_column` freed, all [`ABSENT`], for the next
    /// `add_column`.
    free_columns: Vec<u32>,
    /// The indexes by slot; a slot whose index lost its last user is
    /// `None`, for the next `add_index`.
    indexes: Vec<Option<Index>>,
    /// A key of more than one value, gathered.
    scratch: Vec<Value>,
    /// The row whose digest terms `terms` holds, if any.
    terms_of: Option<u32>,
    /// That row's `(premise, term)` pairs, one per premise position
    /// some memo asked for.
    terms: Vec<(usize, u64)>,
}

impl Table {
    /// Adds the column of premise `premise` of condition `key`: one
    /// freed earlier, else a new one, which re-lays every row out —
    /// O(rows × width), the order of the `seed` that follows it.
    pub(crate) fn add_column(&mut self, key: u64, premise: u32) -> u32 {
        let column = self.free_columns.pop().unwrap_or_else(|| {
            let width = self.width;
            let mut cells = Vec::with_capacity(self.rows.len() * (width + 1));
            for row in 0..self.rows.len() {
                cells.extend_from_slice(&self.cells[row * width..(row + 1) * width]);
                cells.push(Cell::EMPTY);
            }
            self.cells = cells;
            self.width += 1;
            width as u32
        });
        let at = self
            .order
            .partition_point(|&(k, p, _)| (k, p) < (key, premise));
        self.order.insert(at, (key, premise, column));
        column
    }

    /// Clears `column` and frees it for reuse; a row goes with its last
    /// live cell.
    pub(crate) fn remove_column(&mut self, column: u32) {
        for row in 0..self.rows.len() as u32 {
            if self.cell(row, column).is_live() {
                self.leave(row, column);
            }
        }
        if let Some(at) = self.order.iter().position(|&(.., c)| c == column) {
            self.order.remove(at);
        }
        self.free_columns.push(column);
    }

    /// Names the index on `attrs` for one more premise, and returns its
    /// slot: the index there is, else one built over the rows in use —
    /// O(rows), like the `seed` that follows it.
    pub(crate) fn add_index(&mut self, attrs: &[usize]) -> u32 {
        let named = self.indexes.iter_mut().zip(0..).find_map(|(ix, slot)| {
            let ix = ix.as_mut().filter(|ix| *ix.attrs == *attrs)?;
            Some((ix, slot))
        });
        if let Some((ix, slot)) = named {
            ix.users += 1;
            return slot;
        }
        let mut ix = Index {
            attrs: attrs.into(),
            users: 1,
            store: KeyStore::default(),
            pos: Vec::new(),
            heap_bytes: 0,
        };
        for (row, r) in (0..).zip(&self.rows) {
            if let Some(tuple) = &r.tuple {
                ix.push(row, tuple, &mut self.scratch);
            }
        }
        match self.indexes.iter().position(Option::is_none) {
            Some(slot) => {
                self.indexes[slot] = Some(ix);
                slot as u32
            }
            None => {
                self.indexes.push(Some(ix));
                self.indexes.len() as u32 - 1
            }
        }
    }

    /// Drops one premise's name on the index in `slot`; the index goes
    /// with its last.
    pub(crate) fn remove_index(&mut self, slot: u32) {
        let ix = &mut self.indexes[slot as usize];
        let index = ix.as_mut().expect("a named index is live");
        index.users -= 1;
        if index.users == 0 {
            *ix = None;
        }
    }

    /// True once no column is live: the engine drops the table.
    pub(crate) fn is_unused(&self) -> bool {
        self.order.is_empty()
    }

    /// Drops every row, keeping the columns and the (emptied) indexes —
    /// the first step of a from-scratch reseed.
    pub(crate) fn clear(&mut self) {
        self.terms_of = None;
        self.by_tid.clear();
        self.rows.clear();
        self.free_rows.clear();
        self.cells.clear();
        for ix in self.indexes.iter_mut().flatten() {
            ix.store.clear();
            ix.pos.clear();
            ix.heap_bytes = 0;
        }
    }

    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The live columns, in retraction order.
    pub(crate) fn columns(&self) -> &[(u64, u32, u32)] {
        &self.order
    }

    /// The row of tuple `tid`, if some premise holds it.
    pub(crate) fn row(&self, tid: u32) -> Option<u32> {
        self.by_tid.get(&tid).copied()
    }

    pub(crate) fn cell(&self, row: u32, column: u32) -> Cell {
        self.cells[row as usize * self.width + column as usize]
    }

    /// True if `row` is a row of the table that `column` holds.
    pub(crate) fn holds(&self, row: u32, column: u32) -> bool {
        (row as usize) < self.rows.len() && self.cell(row, column).is_live()
    }

    pub(crate) fn cell_mut(&mut self, row: u32, column: u32) -> &mut Cell {
        &mut self.cells[row as usize * self.width + column as usize]
    }

    pub(crate) fn tid(&self, row: u32) -> u32 {
        self.rows[row as usize].tid
    }

    pub(crate) fn tuple(&self, row: u32) -> &Tuple {
        self.rows[row as usize]
            .tuple
            .as_ref()
            .expect("a row in use holds its tuple")
    }

    /// `row`'s term of a memo digest at premise position `premise`,
    /// hashed once while `row` is the last row asked about.
    pub(crate) fn digest_term(&mut self, row: u32, premise: usize) -> u64 {
        if self.terms_of != Some(row) {
            self.terms_of = Some(row);
            self.terms.clear();
        }
        if let Some(&(_, term)) = self.terms.iter().find(|&&(p, _)| p == premise) {
            return term;
        }
        let term = alpha_digest(premise, self.tid(row), self.tuple(row));
        self.terms.push((premise, term));
        term
    }

    /// The rows in use whose values at the attributes of the index in
    /// `slot` are `key`, live in some column or other.
    pub(crate) fn bucket(&self, slot: u32, key: &[Value]) -> &[u32] {
        let ix = self.indexes[slot as usize].as_ref();
        bucket(&ix.expect("a named index is live").store, key)
    }

    /// The attributes of the index in `slot`, if it has a user.
    pub(crate) fn index_attrs(&self, slot: u32) -> Option<&[usize]> {
        let ix = self.indexes.get(slot as usize)?.as_ref()?;
        Some(&ix.attrs)
    }

    /// The rows live in `column`.
    pub(crate) fn rows_in(&self, column: u32) -> impl Iterator<Item = u32> + '_ {
        (0..self.rows.len() as u32).filter(move |&row| self.cell(row, column).is_live())
    }

    /// Enters tuple `tid` into `column`, its row made (and entered into
    /// every index) if no other column holds it. `None` if the column
    /// holds it already.
    pub(crate) fn enter(&mut self, column: u32, tid: u32, tuple: &Tuple) -> Option<u32> {
        let row = match self.by_tid.entry(tid) {
            Entry::Occupied(e) => {
                let row = *e.get();
                let at = row as usize * self.width + column as usize;
                if self.cells[at].is_live() {
                    return None;
                }
                debug_assert!(
                    self.rows[row as usize].tuple.as_ref() == Some(tuple),
                    "tuple {tid} entered with values other than its row's"
                );
                row
            }
            Entry::Vacant(e) => {
                let fresh = Row {
                    tid,
                    live: 0,
                    tuple: Some(tuple.clone()),
                };
                let row = match self.free_rows.pop() {
                    Some(row) => {
                        self.rows[row as usize] = fresh;
                        row
                    }
                    None => {
                        self.rows.push(fresh);
                        let len = self.cells.len() + self.width;
                        self.cells.resize(len, Cell::EMPTY);
                        self.rows.len() as u32 - 1
                    }
                };
                for ix in self.indexes.iter_mut().flatten() {
                    ix.push(row, tuple, &mut self.scratch);
                }
                *e.insert(row)
            }
        };
        self.rows[row as usize].live += 1;
        *self.cell_mut(row, column) = Cell { first_owned: NIL };
        Some(row)
    }

    /// Takes `row` out of `column`; the row goes with its last live
    /// cell, and leaves every index as it goes.
    pub(crate) fn leave(&mut self, row: u32, column: u32) {
        *self.cell_mut(row, column) = Cell::EMPTY;
        let r = &mut self.rows[row as usize];
        r.live -= 1;
        if r.live == 0 {
            let tuple = r.tuple.take().expect("a row in use holds its tuple");
            self.by_tid.remove(&r.tid);
            for ix in self.indexes.iter_mut().flatten() {
                ix.remove(row, &tuple, &mut self.scratch);
            }
            self.free_rows.push(row);
            if self.terms_of == Some(row) {
                self.terms_of = None;
            }
        }
    }

    /// Resident size as the containers account for it, at capacity:
    /// the rows and the indexes over them.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let vecs = self.rows.capacity() * size_of::<Row>()
            + self.free_rows.capacity() * size_of::<u32>()
            + self.cells.capacity() * size_of::<Cell>()
            + self.order.capacity() * size_of::<(u64, u32, u32)>()
            + self.free_columns.capacity() * size_of::<u32>()
            + self.indexes.capacity() * size_of::<Option<Index>>()
            + self.scratch.capacity() * size_of::<Value>()
            + self.terms.capacity() * size_of::<(usize, u64)>();
        let indexes: u64 = self.indexes.iter().flatten().map(Index::approx_bytes).sum();
        map_bytes(&self.by_tid) + vecs as u64 + indexes
    }

    /// `column`'s share of [`approx_bytes`](Self::approx_bytes): the
    /// live columns split it evenly, and the first takes the remainder,
    /// so the shares sum to the table's bytes. While the table has no
    /// freed column, that is the column's cells and 1/width of the row
    /// overhead and of the indexes.
    pub(crate) fn share(&self, column: u32) -> u64 {
        let (total, live) = (self.approx_bytes(), self.order.len() as u64);
        let first = self.order.first().is_some_and(|&(.., c)| c == column);
        total / live + if first { total % live } else { 0 }
    }

    /// Checks what the O(1) paths rely on: each row's live count equals
    /// its live cells, no row in use is without one, the tuple-id map
    /// names exactly the rows in use, and a freed column is all
    /// [`ABSENT`]. Per index: each row in use sits in it once, under
    /// the key its tuple gives, at its stored position, and no free row
    /// does; its heap bytes equal a recount; its user count is
    /// `users[slot]`, the premises that name it, and an index with none
    /// is gone. Kept digest terms belong to a row in use and equal a
    /// rehash.
    pub(crate) fn check(&self, users: &[u32]) -> Result<(), String> {
        let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        ensure(
            self.cells.len() == self.rows.len() * self.width,
            "cells per row",
        )?;
        let mut columns: Vec<u32> = self.order.iter().map(|&(.., c)| c).collect();
        columns.extend(&self.free_columns);
        columns.sort_unstable();
        ensure(
            columns.iter().copied().eq(0..self.width as u32),
            "each column live or freed, once",
        )?;
        ensure(
            self.order.windows(2).all(|p| p[0] < p[1]),
            "columns in retraction order",
        )?;
        for (row, r) in (0..).zip(&self.rows) {
            let cells = &self.cells[row as usize * self.width..][..self.width];
            let live = cells.iter().filter(|c| c.is_live()).count();
            ensure(live == r.live as usize, "row live count = its live cells")?;
            if r.tuple.is_none() {
                ensure(live == 0, "a free row has no live cell")?;
                continue;
            }
            ensure(live > 0, "a row in use has a live cell")?;
            ensure(self.row(r.tid) == Some(row), "tuple-id map names the row")?;
            for &c in &self.free_columns {
                ensure(!cells[c as usize].is_live(), "a freed column is ABSENT")?;
            }
        }
        let in_use = self.rows.len() - self.free_rows.len();
        ensure(
            self.by_tid.len() == in_use,
            "tuple-id map size = rows in use",
        )?;
        ensure(
            self.free_rows
                .iter()
                .all(|&row| self.rows[row as usize].tuple.is_none()),
            "free list names free rows",
        )?;
        ensure(
            users.len() <= self.indexes.len(),
            "a premise names an index slot the table lacks",
        )?;
        if let Some(row) = self.terms_of {
            let r = self.rows.get(row as usize);
            let tuple = r
                .and_then(|r| r.tuple.as_ref())
                .ok_or("terms kept for a free row")?;
            for &(premise, term) in &self.terms {
                let rehash = alpha_digest(premise, self.tid(row), tuple);
                ensure(term == rehash, "a kept digest term = a rehash")?;
            }
        }
        let mut scratch = Vec::new();
        for (slot, ix) in self.indexes.iter().enumerate() {
            let named = users.get(slot).copied().unwrap_or(0);
            let Some(ix) = ix else {
                ensure(named == 0, "a named index is gone")?;
                continue;
            };
            ensure(named > 0, "an index with no user is gone")?;
            ensure(ix.users == named, "index users = the premises that name it")?;
            let twins = self.indexes.iter().flatten();
            ensure(
                twins.filter(|other| other.attrs == ix.attrs).count() == 1,
                "one index per key attributes",
            )?;
            let mut members = 0;
            for ids in ix.store.values() {
                ensure(!ids.is_empty(), "empty index bucket")?;
                members += ids.len();
                let free = |&id: &u32| self.rows.get(id as usize).is_none_or(|r| r.tuple.is_none());
                ensure(!ids.iter().any(free), "a free row in an index")?;
            }
            ensure(members == in_use, "an index holds each row in use once")?;
            for (row, r) in (0..).zip(&self.rows) {
                if let Some(tuple) = &r.tuple {
                    let key = key_of(&ix.attrs, tuple, &mut scratch);
                    let at = ix.pos.get(row as usize).copied();
                    let found = at.and_then(|pos| bucket(&ix.store, key).get(pos as usize));
                    ensure(found == Some(&row), "index position")?;
                }
            }
            ensure(
                ix.heap_bytes == keys::heap_bytes(&ix.store),
                "index heap bytes = a recount",
            )?;
        }
        Ok(())
    }
}
