//! The join-memo engine: every registered join condition's memo, the
//! alpha tables they share (one per relation, [`crate::alpha`], with
//! the key indexes over its rows), and the crate's metric families.

use crate::alpha::Table;
use crate::compile::CompiledJoin;
use crate::memo::{Column, InsertOutcome, JoinMemo};
use predicate::JoinCondition;
use relation::fx::FxHashMap;
use relation::{Catalog, Tuple};
use std::hash::{Hash, Hasher};
use telemetry::{Counter, Histogram, Registry, Telemetry};

/// Per-condition statistics, for `:memo`, stats surfaces, and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoStats {
    /// Engine-assigned condition key.
    pub key: u64,
    /// Premise relations, in premise order.
    pub relations: Vec<String>,
    /// Alpha-memory size per premise.
    pub alpha_counts: Vec<usize>,
    /// Token count per level; the last entry is complete matches.
    pub level_counts: Vec<usize>,
    /// Rough resident bytes.
    pub approx_bytes: u64,
}

struct Metrics {
    /// Candidate partial matches / tuples examined while extending.
    probes: Counter,
    /// Tokens removed by deletions.
    retractions: Counter,
    /// Live partial-match count, sampled after each memo mutation.
    partials: Histogram,
    /// Rough resident memo bytes, sampled after each memo mutation.
    bytes: Histogram,
}

impl Metrics {
    /// A disabled registry hands out no-op handles.
    fn from_registry(registry: &Registry) -> Metrics {
        Metrics {
            probes: registry.counter("join_probes_total"),
            retractions: registry.counter("join_retractions_total"),
            partials: registry.histogram("join_partial_matches"),
            bytes: registry.histogram("join_memo_bytes"),
        }
    }

    /// Samples `memo`'s gauges after a mutation. Reading them walks
    /// the memo's tables, so a disabled registry skips the read too.
    fn sample(&self, memo: &JoinMemo, tables: &[Table]) {
        if self.partials.is_enabled() {
            self.partials.record(memo.partial_count() as u64);
            self.bytes.record(memo.approx_bytes(tables));
        }
    }

    /// Counts one insertion into `memo`.
    fn inserted(&self, memo: &JoinMemo, tables: &[Table], out: &InsertOutcome) {
        self.probes.add(out.probes);
        self.sample(memo, tables);
    }
}

/// All join memos of one rule engine, and the alpha tables they share.
pub struct JoinEngine {
    memos: FxHashMap<u64, JoinMemo>,
    /// One table per relation that some premise names; a slot whose
    /// table went with its last column is empty, on `free_tables`.
    tables: Vec<Table>,
    /// relation -> its table's slot.
    by_relation: FxHashMap<String, u32>,
    free_tables: Vec<u32>,
    metrics: Metrics,
}

impl Default for JoinEngine {
    fn default() -> Self {
        JoinEngine::new()
    }
}

impl JoinEngine {
    /// An empty engine with disabled metrics.
    pub fn new() -> JoinEngine {
        JoinEngine {
            memos: FxHashMap::default(),
            tables: Vec::new(),
            by_relation: FxHashMap::default(),
            free_tables: Vec::new(),
            metrics: Metrics::from_registry(&Registry::disabled()),
        }
    }

    /// Mints this crate's metric families from `telemetry`'s registry
    /// (a disabled registry resets the handles to no-ops).
    pub fn attach_metrics(&mut self, telemetry: impl Into<Telemetry>) {
        self.metrics = Metrics::from_registry(telemetry.into().registry());
    }

    /// True if no conditions are registered.
    pub fn is_empty(&self) -> bool {
        self.memos.is_empty()
    }

    /// Registers a compiled condition under the caller-chosen `key`
    /// (the rules engine uses a monotonic counter), replacing any
    /// condition under it. Each premise gets a column of its relation's
    /// table and names the table's index on the attributes it joins on.
    /// The memo starts empty; use [`seed`](Self::seed) to fill it from
    /// existing tuples.
    pub fn register(&mut self, key: u64, compiled: CompiledJoin) {
        self.unregister(key);
        let columns = (0..compiled.arity())
            .map(|i| {
                let table = self.table_for(compiled.relation(i));
                let t = &mut self.tables[table as usize];
                let column = t.add_column(key, i as u32);
                let index = t.add_index(&compiled.index_attrs(i));
                Column {
                    table,
                    column,
                    index,
                }
            })
            .collect();
        self.memos.insert(key, JoinMemo::new(compiled, columns));
    }

    /// The slot of `relation`'s table, made if no premise named it.
    fn table_for(&mut self, relation: &str) -> u32 {
        if let Some(&table) = self.by_relation.get(relation) {
            return table;
        }
        let table = self.free_tables.pop().unwrap_or_else(|| {
            self.tables.push(Table::default());
            self.tables.len() as u32 - 1
        });
        self.by_relation.insert(relation.to_string(), table);
        table
    }

    /// Removes a condition and its memo, clearing its columns and
    /// dropping its names on the indexes, handing back the condition.
    /// An index goes with its last name, a table with its last column.
    pub fn unregister(&mut self, key: u64) -> Option<JoinCondition> {
        let memo = self.memos.remove(&key)?;
        for (i, c) in memo.columns().iter().enumerate() {
            let table = &mut self.tables[c.table as usize];
            table.remove_column(c.column);
            table.remove_index(c.index);
            if table.is_unused() {
                *table = Table::default();
                self.by_relation.remove(memo.plan().relation(i));
                self.free_tables.push(c.table);
            }
        }
        Some(memo.plan.cond)
    }

    /// The condition registered under `key`: its memo holds the only
    /// copy.
    pub fn condition(&self, key: u64) -> Option<&JoinCondition> {
        self.memos.get(&key).map(|memo| memo.plan().condition())
    }

    /// Feeds an alpha-matching tuple into premise `premise` of
    /// condition `key`. Returns the completed matches (sorted by
    /// tuple-id vector) plus probe/creation counts.
    pub fn insert(&mut self, key: u64, premise: usize, tid: u32, tuple: &Tuple) -> InsertOutcome {
        let Some(memo) = self.memos.get_mut(&key) else {
            return InsertOutcome::default();
        };
        let out = memo.insert(&mut self.tables, premise, tid, tuple);
        self.metrics.inserted(memo, &self.tables, &out);
        out
    }

    /// Retracts tuple `tid` of `relation` from every memo with a
    /// premise that holds it, in key order; `each` sees `(condition
    /// key, tokens retracted)` per such premise — how a caller bills
    /// each condition's share without a list built per retraction.
    /// The tuple's row is found once, and only its live cells are
    /// visited. Returns the total.
    pub fn retract_each(
        &mut self,
        relation: &str,
        tid: u32,
        mut each: impl FnMut(u64, u64),
    ) -> u64 {
        let mut total = 0;
        if let Some(&table) = self.by_relation.get(relation) {
            let t = table as usize;
            let row = self.tables[t].row(tid);
            for i in 0..self.tables[t].columns().len() {
                let (key, premise, column) = self.tables[t].columns()[i];
                let held = row.filter(|&row| self.tables[t].cell(row, column).is_live());
                let Some(row) = held else { continue };
                let memo = self
                    .memos
                    .get_mut(&key)
                    .expect("a live column's condition is registered");
                let n = memo.retract(&mut self.tables, premise as usize, row);
                total += n;
                each(key, n);
                self.metrics.sample(memo, &self.tables);
            }
        }
        self.metrics.retractions.add(total);
        total
    }

    /// Retracts tuple `tid` of `relation` from every memo with a
    /// premise over it. Returns the number of tokens retracted.
    pub fn retract(&mut self, relation: &str, tid: u32) -> u64 {
        self.retract_each(relation, tid, |_, _| {})
    }

    /// Seeds condition `key` from every existing tuple of `catalog`
    /// that passes its premises' alpha tests, premise by premise in
    /// ascending tuple-id order. Seeding fires nothing: the complete
    /// matches it builds are only memo state.
    pub fn seed(&mut self, key: u64, catalog: &Catalog) {
        if let Some(memo) = self.memos.get_mut(&key) {
            let metrics = &self.metrics;
            memo.seed(&mut self.tables, catalog, |memo, tables, out| {
                metrics.inserted(memo, tables, &out)
            });
        }
    }

    /// Rebuilds every memo from scratch against the current database:
    /// clear the tables, discard all tokens, then re-seed each
    /// condition from `catalog`. Restores the memo invariant (tokens =
    /// all valid premise prefixes over current tuples) after a caller
    /// mutated the database without driving the corresponding events
    /// through [`insert`](Self::insert)/[`retract`](Self::retract) —
    /// the rules engine uses this when a cascade aborts midway.
    pub fn reseed_all(&mut self, catalog: &Catalog) {
        for table in &mut self.tables {
            table.clear();
        }
        let mut keys: Vec<u64> = self.memos.keys().copied().collect();
        keys.sort_unstable();
        for &key in &keys {
            if let Some(memo) = self.memos.get_mut(&key) {
                memo.reset();
            }
        }
        for key in keys {
            self.seed(key, catalog);
        }
    }

    /// The test oracle for everything the memos maintain incrementally.
    /// Per table: each row's live count equals its live cells, no row
    /// is without one, a freed column is all absent, and the live
    /// columns are exactly the memos' premises; each index holds every
    /// row in use once, at its stored position, counts as its users
    /// exactly the premises that name it, and is gone without one. Per
    /// condition: the slab's links, stored positions, free list and
    /// counters are consistent; the running digest equals a full
    /// recompute and the digest of a fresh memo seeded from `catalog`;
    /// the complete matches equal [`naive::full_matches`].
    ///
    /// [`naive::full_matches`]: crate::naive::full_matches
    pub fn check_invariants(&self, catalog: &Catalog) -> Result<(), String> {
        let mut columns = 0;
        for (relation, &t) in &self.by_relation {
            let fail = |what: &str| format!("table of {relation}: {what}");
            let table = &self.tables[t as usize];
            let mut users = Vec::new();
            for &(key, premise, column) in table.columns() {
                let memo = self.memos.get(&key).ok_or_else(|| fail("orphan column"))?;
                let c = memo.columns().get(premise as usize);
                let Some(c) = c.filter(|c| c.table == t && c.column == column) else {
                    return Err(fail("column not its premise's"));
                };
                let attrs = memo.plan().index_attrs(premise as usize);
                if table.index_attrs(c.index) != Some(&attrs[..]) {
                    return Err(fail("a premise names an index on other attributes"));
                }
                let slot = c.index as usize;
                users.resize(users.len().max(slot + 1), 0);
                users[slot] += 1;
            }
            table.check(&users).map_err(|e| fail(&e))?;
            columns += table.columns().len();
        }
        if columns != self.memos.values().map(|m| m.columns().len()).sum() {
            return Err("a premise without its column".to_string());
        }
        for (key, memo) in &self.memos {
            let fail = |what: &str| format!("condition {key}: {what}");
            memo.check_structure(&self.tables).map_err(|e| fail(&e))?;
            let mut fresh = JoinEngine::new();
            fresh.register(*key, memo.plan().clone());
            fresh.seed(*key, catalog);
            if fresh.memos[key].fingerprint() != memo.fingerprint() {
                return Err(fail("digest differs from a freshly seeded memo's"));
            }
            if memo.complete_matches(&self.tables)
                != crate::naive::full_matches(memo.plan(), catalog)
            {
                return Err(fail("complete matches differ from the naive join"));
            }
        }
        Ok(())
    }

    /// Statistics for every registered condition, sorted by key.
    pub fn stats(&self) -> Vec<MemoStats> {
        let mut out: Vec<MemoStats> = self
            .memos
            .iter()
            .map(|(&key, memo)| memo_stats(key, memo, &self.tables))
            .collect();
        out.sort_by_key(|s| s.key);
        out
    }

    /// Statistics for one condition.
    pub fn stats_for(&self, key: u64) -> Option<MemoStats> {
        self.memos
            .get(&key)
            .map(|memo| memo_stats(key, memo, &self.tables))
    }

    /// Complete matches of condition `key` as sorted tuple-id vectors.
    pub fn complete_matches(&self, key: u64) -> Vec<Vec<u32>> {
        self.memos
            .get(&key)
            .map(|m| m.complete_matches(&self.tables))
            .unwrap_or_default()
    }

    /// Order-independent digest of every memo's state. Keys do not
    /// enter the digest (they are engine-internal and differ across
    /// restores); each memo contributes its condition source plus its
    /// state hash, summed, so identical rule sets over identical
    /// databases digest identically no matter how they were built.
    pub fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0x243f_6a88_85a3_08d3;
        for memo in self.memos.values() {
            let mut h = relation::fx::FnvHasher::default();
            memo.plan()
                .condition()
                .to_source()
                .unwrap_or_default()
                .hash(&mut h);
            acc = acc.wrapping_add(h.finish() ^ memo.fingerprint());
        }
        acc
    }

    /// The resident bytes of every memo and table: what the memos'
    /// `approx_bytes` sum to.
    #[cfg(test)]
    pub(crate) fn approx_bytes(&self) -> u64 {
        let memos: u64 = self.memos.values().map(JoinMemo::own_bytes).sum();
        memos + self.tables.iter().map(Table::approx_bytes).sum::<u64>()
    }

    /// The widths of the tables in use, by relation.
    #[cfg(test)]
    pub(crate) fn widths(&self) -> Vec<(String, usize)> {
        let mut out: Vec<_> = self
            .by_relation
            .iter()
            .map(|(r, &t)| (r.clone(), self.tables[t as usize].width()))
            .collect();
        out.sort();
        out
    }
}

/// The statistics of `memo`, registered under `key`.
fn memo_stats(key: u64, memo: &JoinMemo, tables: &[Table]) -> MemoStats {
    MemoStats {
        key,
        relations: (0..memo.plan().arity())
            .map(|i| memo.plan().relation(i).to_string())
            .collect(),
        alpha_counts: memo.alpha_counts().to_vec(),
        level_counts: memo.level_counts().to_vec(),
        approx_bytes: memo.approx_bytes(tables),
    }
}
