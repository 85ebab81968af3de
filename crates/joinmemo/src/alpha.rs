//! The shared alpha memories: one table per relation that some premise
//! names, owned by the [`JoinEngine`](crate::JoinEngine) and shared by
//! every memo with a premise over that relation — Rete's alpha-memory
//! sharing (Forgy 1982), as DESIGN.md §9 applies it to the paper's
//! non-indexable list.
//!
//! A table maps a tuple id to a *row* once. The row holds the tuple's
//! handle once, a count of its live cells, and one [`Cell`] per
//! registered `(condition, premise)` *column*: what each memo kept per
//! premise in a tuple-id map of its own. A cell whose `key_pos` is
//! [`ABSENT`] says the tuple is not in that premise. A row lives while
//! one of its cells does, so a table is sized by the tuples some premise
//! holds, not by the relation, and an event finds its row with one
//! lookup and reads its columns side by side.

use crate::memo::{map_bytes, NIL};
use relation::fx::FxHashMap;
use relation::Tuple;
use std::collections::hash_map::Entry;
use std::mem::size_of;

/// [`Cell::key_pos`] of a row that is not in the column's premise.
pub(crate) const ABSENT: u32 = u32::MAX;

/// One row's state in one premise: what a memo keeps per alpha entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    /// Position in the premise's `alpha_key` bucket (0 at premise 0,
    /// which keeps no such store); [`ABSENT`] if the row is not in the
    /// premise.
    pub(crate) key_pos: u32,
    /// Head of the owner list: the memo's tokens whose last premise is
    /// this row.
    pub(crate) first_owned: u32,
}

const _: () = assert!(size_of::<Cell>() == 8);

impl Cell {
    const EMPTY: Cell = Cell {
        key_pos: ABSENT,
        first_owned: NIL,
    };

    pub(crate) fn is_live(self) -> bool {
        self.key_pos != ABSENT
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

/// One relation's alpha memory.
#[derive(Debug, Default)]
pub(crate) struct Table {
    /// Tuple id -> row, for the rows in use.
    index: FxHashMap<u32, u32>,
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

    /// True once no column is live: the engine drops the table.
    pub(crate) fn is_unused(&self) -> bool {
        self.order.is_empty()
    }

    /// Drops every row, keeping the columns — the first step of a
    /// from-scratch reseed.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.rows.clear();
        self.free_rows.clear();
        self.cells.clear();
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
        self.index.get(&tid).copied()
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

    /// The rows live in `column`.
    pub(crate) fn rows_in(&self, column: u32) -> impl Iterator<Item = u32> + '_ {
        (0..self.rows.len() as u32).filter(move |&row| self.cell(row, column).is_live())
    }

    /// Enters tuple `tid` into `column`, its row made if no other column
    /// holds it. `None` if the column holds it already.
    pub(crate) fn enter(&mut self, column: u32, tid: u32, tuple: &Tuple) -> Option<u32> {
        let row = match self.index.entry(tid) {
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
                *e.insert(row)
            }
        };
        self.rows[row as usize].live += 1;
        *self.cell_mut(row, column) = Cell {
            key_pos: 0,
            first_owned: NIL,
        };
        Some(row)
    }

    /// Takes `row` out of `column`; the row goes with its last live
    /// cell.
    pub(crate) fn leave(&mut self, row: u32, column: u32) {
        *self.cell_mut(row, column) = Cell::EMPTY;
        let r = &mut self.rows[row as usize];
        r.live -= 1;
        if r.live == 0 {
            r.tuple = None;
            self.index.remove(&r.tid);
            self.free_rows.push(row);
        }
    }

    /// Resident size as the containers account for it, at capacity.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let vecs = self.rows.capacity() * size_of::<Row>()
            + self.free_rows.capacity() * size_of::<u32>()
            + self.cells.capacity() * size_of::<Cell>()
            + self.order.capacity() * size_of::<(u64, u32, u32)>()
            + self.free_columns.capacity() * size_of::<u32>();
        map_bytes(&self.index) + vecs as u64
    }

    /// `column`'s share of [`approx_bytes`](Self::approx_bytes): the
    /// live columns split it evenly, and the first takes the remainder,
    /// so the shares sum to the table's bytes. While the table has no
    /// freed column, that is the column's cells and 1/width of the row
    /// overhead.
    pub(crate) fn share(&self, column: u32) -> u64 {
        let (total, live) = (self.approx_bytes(), self.order.len() as u64);
        let first = self.order.first().is_some_and(|&(.., c)| c == column);
        total / live + if first { total % live } else { 0 }
    }

    /// Checks what the O(1) paths rely on: each row's live count equals
    /// its live cells, no row in use is without one, the index names
    /// exactly the rows in use, and a freed column is all [`ABSENT`].
    pub(crate) fn check(&self) -> Result<(), String> {
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
            ensure(self.row(r.tid) == Some(row), "index names the row")?;
            for &c in &self.free_columns {
                ensure(!cells[c as usize].is_live(), "a freed column is ABSENT")?;
            }
        }
        let in_use = self.rows.len() - self.free_rows.len();
        ensure(self.index.len() == in_use, "index size = rows in use")?;
        ensure(
            self.free_rows
                .iter()
                .all(|&row| self.rows[row as usize].tuple.is_none()),
            "free list names free rows",
        )
    }
}
