//! The forward-chaining rule engine.
//!
//! This is the application layer the paper builds its index for: every
//! inserted, updated, or deleted tuple is matched against all rule
//! selection conditions through a [`PredicateIndex`] (the Figure 1
//! discrimination network), matching rule instantiations go on an
//! agenda ordered by priority then recency, and fired actions may queue
//! further database operations whose events are matched in turn —
//! forward chaining, with a firing limit as the runaway guard.
//!
//! Multi-relation (join) conditions — which the paper left out of scope
//! and §6 sketched as a two-layer network — are handled by the
//! `joinmemo` beta layer: each premise of a join condition registers in
//! the predicate index like any single-relation condition (Figure 1
//! stays the alpha layer), matched premise tuples feed the join memo,
//! and complete matches enter the agenda with all bound tuples.

use crate::rule::{Action, BoundTuple, DbOp, Rule, RuleContext, RuleId, RuleName};
use joinmemo::{Binding, CompileError, CompiledJoin, JoinEngine, MemoStats};
use predicate::JoinCondition;
use predindex::{IndexError, IndexStats, MatchTrace, Matcher, PredicateId, PredicateIndex};
use relation::fx::{FnvHashMap, FnvHashSet};
use relation::{CatalogError, Database, Relation, Schema, Tuple, TupleEvent, TupleId, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Counter, Histogram, Registry, Telemetry};

/// Errors from engine operations.
#[derive(Debug)]
pub enum EngineError {
    /// Rule condition failed to register (unknown relation/attribute,
    /// type error).
    Index(IndexError),
    /// Database mutation failed.
    Catalog(CatalogError),
    /// Forward chaining exceeded the firing limit — almost certainly a
    /// rule loop.
    FiringLimit { limit: usize },
    /// No rule with the given id.
    NoSuchRule(RuleId),
    /// A join condition failed to compile (unknown relation/attribute,
    /// cross-relation type mismatch).
    Join(CompileError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Index(e) => write!(f, "{e}"),
            EngineError::Catalog(e) => write!(f, "{e}"),
            EngineError::FiringLimit { limit } => {
                write!(f, "forward chaining exceeded {limit} firings (rule loop?)")
            }
            EngineError::NoSuchRule(id) => write!(f, "no such rule {id}"),
            EngineError::Join(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Join(e)
    }
}

impl From<IndexError> for EngineError {
    fn from(e: IndexError) -> Self {
        EngineError::Index(e)
    }
}

impl From<CatalogError> for EngineError {
    fn from(e: CatalogError) -> Self {
        EngineError::Catalog(e)
    }
}

/// One rule firing with its bound tuples (empty for single-relation
/// firings) — the detailed counterpart of [`FireReport::fired`].
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// The fired rule.
    pub rule: RuleId,
    /// The rule's name (shared with the [`Rule`], not copied).
    pub name: RuleName,
    /// For multi-premise firings: every premise's bound tuple, in
    /// premise order. Empty for single-relation firings.
    pub bindings: Vec<BoundTuple>,
}

/// What happened while processing one external mutation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FireReport {
    /// `(rule, rule name)` in firing order, across the whole chain. The
    /// name is the rule's own [`RuleName`], shared by reference count.
    pub fired: Vec<(RuleId, RuleName)>,
    /// The same firings with their join bindings attached (parallel to
    /// `fired`).
    pub firings: Vec<Firing>,
    /// Number of database operations applied (1 external + cascaded).
    pub ops_applied: usize,
}

/// What [`RuleEngine::register_joins`] hands back: one memo key per
/// condition, the premise predicate ids entered into the alpha index,
/// and the complete matches discovered while seeding.
type RegisteredJoins = (Vec<u64>, Vec<Vec<PredicateId>>, Vec<Binding>);

/// Where the alpha matches of one predicate id go. Both variants name
/// the owning rule only: a premise's memo key and position are the
/// rule's own (`StoredRule::premise`), so the route stays one word.
enum Route {
    /// A single-relation condition: the rule goes on the agenda.
    Rule(u32),
    /// A join premise: the tuple goes into the beta layer.
    Premise(u32),
}

/// One agenda entry: `(priority, rule, bound tuples)` — the tuples of a
/// completed join match, empty for a single-relation instantiation.
type AgendaEntry = (i32, u32, Vec<BoundTuple>);

/// The buffers one recognize-act chain owns and every level, event and
/// firing in it reuses, so a level allocates for the tuples it writes
/// and not per event matched or rule fired.
#[derive(Default)]
struct ChainBuffers {
    /// The level's matches, flat: event `i`'s are `matched[bounds[i]]`.
    matched: Vec<PredicateId>,
    bounds: Vec<Range<usize>>,
    /// The current event's agenda, and the join instantiations waiting
    /// to be appended behind its plain ones.
    agenda: Vec<AgendaEntry>,
    join_entries: Vec<AgendaEntry>,
    /// The operations the current firing's action queued.
    ops: Vec<DbOp>,
}

struct StoredRule {
    rule: Rule,
    predicate_ids: Vec<PredicateId>,
    /// Per join condition (parallel to `rule.joins`): the engine-wide
    /// memo key and the premise predicate ids registered in the index.
    join_keys: Vec<u64>,
    join_pids: Vec<Vec<PredicateId>>,
    fired: u64,
}

impl StoredRule {
    /// `(memo key, premise index)` of the join premise registered as
    /// `pid`.
    fn premise(&self, pid: PredicateId) -> Option<(u64, usize)> {
        self.join_keys
            .iter()
            .zip(&self.join_pids)
            .find_map(|(&key, pids)| Some((key, pids.iter().position(|&p| p == pid)?)))
    }
}

/// The engine-level metric handles, pre-resolved at attach time.
/// Disabled handles (the default) cost one branch per recording site.
struct EngineMetrics {
    /// Rule firings across all chains.
    fired: Counter,
    /// Database operations applied (external + cascaded).
    ops: Counter,
    /// Levels per recognize-act chain (1 = no cascading).
    cascade_depth: Histogram,
    /// Events matched per chain level.
    events_per_level: Histogram,
    /// Entry comparisons made building agendas (sort plus dedup).
    agenda_comparisons: Counter,
}

impl EngineMetrics {
    /// A disabled registry hands out no-op handles.
    fn from_registry(registry: &Registry) -> Self {
        EngineMetrics {
            fired: registry.counter("rules_fired_total"),
            ops: registry.counter("rules_ops_applied_total"),
            cascade_depth: registry.histogram("rules_cascade_depth"),
            events_per_level: registry.histogram("rules_events_per_level"),
            agenda_comparisons: registry.counter("rules_agenda_comparisons_total"),
        }
    }
}

/// The engine: a [`Database`] plus rules indexed by a
/// [`PredicateIndex`] — the paper's uniprocessor matcher, run as is.
/// Every mutation goes through `&mut self`, so the index needs no lock
/// and each recognize-act cycle matches its level's events one after
/// another on the calling thread.
pub struct RuleEngine {
    db: Database,
    index: PredicateIndex,
    rules: FnvHashMap<u32, StoredRule>,
    /// Predicate id -> where its matches go: every id in the index has
    /// exactly one route.
    routes: FnvHashMap<u32, Route>,
    joins: JoinEngine,
    next_rule: u32,
    /// Engine-wide memo-key counter — keys stay stable across
    /// `drop_relation`'s vector compaction.
    next_join: u64,
    log: Vec<String>,
    firing_limit: usize,
    total_fired: u64,
    /// Registry, tracer, profiler and workload accounts — everything
    /// off by default (one branch per site), replaced whole by
    /// [`attach_metrics`](RuleEngine::attach_metrics).
    telemetry: Telemetry,
    metrics: EngineMetrics,
}

impl RuleEngine {
    /// Wraps a database with an empty rule set. Telemetry starts
    /// disabled; see [`attach_metrics`](Self::attach_metrics).
    pub fn new(db: Database) -> Self {
        RuleEngine {
            db,
            index: PredicateIndex::new(),
            rules: FnvHashMap::default(),
            routes: FnvHashMap::default(),
            joins: JoinEngine::new(),
            next_rule: 0,
            next_join: 0,
            log: Vec::new(),
            firing_limit: 10_000,
            total_fired: 0,
            telemetry: Telemetry::disabled(),
            metrics: EngineMetrics::from_registry(&Registry::disabled()),
        }
    }

    /// Points the engine, its predicate index and its join memos at
    /// `telemetry` — the one way in. A bare `Arc<Registry>` converts
    /// into a counters-only handle; build a [`Telemetry`] to add the
    /// rest:
    ///
    /// * **registry** — all engine-, index- and join-level metric
    ///   families record there (a disabled one turns recording off);
    /// * **tracer** — every recognize-act chain records `cascade` /
    ///   `cascade_level` / `match_level` / `rule_fire` spans, and the
    ///   index adds `predindex_stab` / `predindex_residual`, all into
    ///   one ring;
    /// * **profiler** — per-rule cost attribution; the level's events
    ///   are grouped by billing account only when this is on.
    ///   Already-registered rules get their display names immediately;
    /// * **workload accounts** — per-attribute op mix, clause shapes
    ///   and stab selectivity feeding the index advisor, backfilled
    ///   with the predicates already registered (so attach a given
    ///   handle once).
    ///
    /// Whatever was attached before is replaced whole.
    pub fn attach_metrics(&mut self, telemetry: impl Into<Telemetry>) {
        let telemetry = telemetry.into();
        self.metrics = EngineMetrics::from_registry(telemetry.registry());
        self.index.attach_metrics(telemetry.clone());
        self.joins.attach_metrics(telemetry.clone());
        if telemetry.profiler().is_enabled() {
            for (&rid, s) in &self.rules {
                telemetry.profiler().name_rule(rid, &s.rule.name);
            }
        }
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (everything disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The predicate-index structure (relations → per-attribute tree
    /// sizes) in the list shape external tooling walks
    /// (`.relations[].trees[]`; stackbench's `tree_totals`). The engine
    /// runs one lock-free index core, so the list has one entry.
    pub fn shard_stats(&self) -> Vec<IndexStats> {
        vec![self.index.stats()]
    }

    /// The metrics registry — render it with
    /// [`Registry::render_text`] or query individual values. Disabled
    /// (empty) unless [`attach_metrics`](Self::attach_metrics) was used.
    pub fn metrics(&self) -> &Arc<Registry> {
        self.telemetry.registry()
    }

    /// Changes the per-mutation firing limit (runaway-chain guard).
    pub fn set_firing_limit(&mut self, limit: usize) {
        self.firing_limit = limit;
    }

    /// Read access to the database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Creates a relation in the underlying database.
    pub fn create_relation(&mut self, schema: Schema) -> Result<(), EngineError> {
        self.db.create_relation(schema)?;
        Ok(())
    }

    /// Drops a relation and unregisters every rule condition that
    /// referenced it from the predicate index, so dropped relations
    /// stop matching immediately. Rules keep their identity (and any
    /// conditions on other relations); a rule whose last condition is
    /// removed goes dormant. The removal is permanent: recreating a
    /// relation under the same name does **not** resurrect conditions —
    /// predicates bind against a schema at registration time, and the
    /// new relation's schema need not be compatible.
    pub fn drop_relation(&mut self, name: &str) -> Result<Relation, EngineError> {
        let rel = self.db.drop_relation(name)?;
        for stored in self.rules.values_mut() {
            // `conditions` and `predicate_ids` are parallel vectors.
            let mut i = 0;
            while i < stored.rule.conditions.len() {
                if stored.rule.conditions[i].relation() == name {
                    let pid = stored.predicate_ids.remove(i);
                    stored.rule.conditions.remove(i);
                    self.index.remove(pid);
                    self.routes.remove(&pid.0);
                } else {
                    i += 1;
                }
            }
            // A join condition with *any* premise over the dropped
            // relation can never complete again — unregister it whole
            // (`joins` / `join_keys` / `join_pids` are parallel).
            let mut j = 0;
            while j < stored.rule.joins.len() {
                let touches = stored.rule.joins[j]
                    .premises()
                    .iter()
                    .any(|p| p.relation() == name);
                if touches {
                    let key = stored.join_keys.remove(j);
                    let pids = stored.join_pids.remove(j);
                    stored.rule.joins.remove(j);
                    for pid in pids {
                        self.index.remove(pid);
                        self.routes.remove(&pid.0);
                    }
                    self.joins.unregister(key);
                } else {
                    j += 1;
                }
            }
        }
        Ok(rel)
    }

    /// The engine log (appended to by `Action::Log` and
    /// `RuleContext::log`).
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Total rule firings since construction.
    pub fn total_fired(&self) -> u64 {
        self.total_fired
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Registers a rule; its condition predicates enter the predicate
    /// index. Join conditions additionally register every premise in
    /// the index (alpha layer) and seed a beta memo from the tuples
    /// already in the database — seeding does **not** fire the rule
    /// (see [`add_rule_retroactive`](Self::add_rule_retroactive)), it
    /// only brings the partial-match state up to date so the next
    /// insert extends the right prefixes.
    pub fn add_rule(&mut self, rule: Rule) -> Result<RuleId, EngineError> {
        Ok(self.add_rule_inner(rule)?.0)
    }

    fn add_rule_inner(&mut self, rule: Rule) -> Result<(RuleId, Vec<Binding>), EngineError> {
        let mut predicate_ids = Vec::with_capacity(rule.conditions.len());
        for pred in &rule.conditions {
            match self.index.insert(pred.clone(), self.db.catalog()) {
                Ok(pid) => predicate_ids.push(pid),
                Err(e) => {
                    // Roll back the partial registration.
                    for pid in predicate_ids {
                        self.index.remove(pid);
                    }
                    return Err(e.into());
                }
            }
        }
        match self.register_joins(self.next_rule, &rule.joins) {
            Ok((join_keys, join_pids, seeds)) => {
                let id = RuleId(self.next_rule);
                self.next_rule += 1;
                for &pid in &predicate_ids {
                    self.routes.insert(pid.0, Route::Rule(id.0));
                }
                self.telemetry.profiler().name_rule(id.0, &rule.name);
                self.rules.insert(
                    id.0,
                    StoredRule {
                        rule,
                        predicate_ids,
                        join_keys,
                        join_pids,
                        fired: 0,
                    },
                );
                Ok((id, seeds))
            }
            Err(e) => {
                for pid in predicate_ids {
                    self.index.remove(pid);
                }
                Err(e)
            }
        }
    }

    /// Compiles and registers `joins` for rule `rid`: each premise
    /// enters the predicate index, each condition gets a stable memo
    /// key, and each memo is seeded from the existing tuples. Returns
    /// the keys, premise predicate ids, and the complete matches
    /// seeding discovered. Rolls itself back on failure.
    fn register_joins(
        &mut self,
        rid: u32,
        joins: &[JoinCondition],
    ) -> Result<RegisteredJoins, EngineError> {
        // Compile everything first: compilation is pure, so a failure
        // here leaves nothing to roll back.
        let mut compiled = Vec::with_capacity(joins.len());
        for join in joins {
            compiled.push(CompiledJoin::compile(join, self.db.catalog())?);
        }
        // Alpha layer: every premise is an ordinary single-relation
        // predicate in the Figure 1 index.
        let mut join_pids: Vec<Vec<PredicateId>> = Vec::with_capacity(compiled.len());
        for cj in &compiled {
            let mut pids = Vec::with_capacity(cj.arity());
            for premise in cj.condition().premises() {
                match self.index.insert(premise.clone(), self.db.catalog()) {
                    Ok(pid) => pids.push(pid),
                    Err(e) => {
                        for pid in pids.into_iter().chain(join_pids.into_iter().flatten()) {
                            self.index.remove(pid);
                        }
                        return Err(e.into());
                    }
                }
            }
            join_pids.push(pids);
        }
        // Beta layer: stable keys, premise routing, memo registration,
        // and a silent seed (the memo must hold every valid premise
        // prefix over the current tuples before the next event).
        let mut join_keys = Vec::with_capacity(compiled.len());
        let mut seeds = Vec::new();
        for (cj, pids) in compiled.into_iter().zip(&join_pids) {
            let key = self.next_join;
            self.next_join += 1;
            for pid in pids {
                self.routes.insert(pid.0, Route::Premise(rid));
            }
            self.joins.register(key, cj);
            seeds.extend(self.joins.seed(key, self.db.catalog()));
            join_keys.push(key);
        }
        Ok((join_keys, join_pids, seeds))
    }

    /// Registers a rule and immediately fires it on every tuple already
    /// in the database that satisfies its condition (as if each had just
    /// been inserted). Returns the rule id and the backfill report.
    ///
    /// This is how a trigger system brings a new rule up to date with
    /// existing facts — tuple-driven matching (the paper's problem) only
    /// covers changes arriving *after* registration.
    pub fn add_rule_retroactive(
        &mut self,
        rule: Rule,
    ) -> Result<(RuleId, FireReport), EngineError> {
        let (id, join_seeds) = self.add_rule_inner(rule)?;
        let stored = &self.rules[&id.0];
        // Collect matching existing tuples per condition, deduplicated
        // per tuple (a tuple matching several disjuncts fires once).
        let mut seeds: Vec<(TupleEvent, Vec<BoundTuple>)> = Vec::new();
        let mut seen: FnvHashSet<(&str, TupleId)> = FnvHashSet::default();
        for pred in &stored.rule.conditions {
            let Some(rel) = self.db.catalog().relation(pred.relation()) else {
                continue;
            };
            let schema = rel.schema();
            let Ok(bound) = pred.bind(schema) else {
                continue;
            };
            for (tid, tuple) in bound.scan(rel) {
                if !seen.insert((pred.relation(), tid)) {
                    continue;
                }
                let seed = TupleEvent::Inserted {
                    relation: pred.relation().to_string(),
                    id: tid,
                    tuple: tuple.clone(),
                };
                seeds.push((seed, Vec::new()));
            }
        }
        // Join backfill: every complete match seeding discovered fires
        // once, presented as an insert of its last premise's tuple
        // (seeding runs premises in ascending order, so that is the
        // tuple whose arrival would have completed the match).
        for binding in join_seeds {
            let Some((relation, tid, tuple)) = binding.tuples.last().cloned() else {
                continue;
            };
            let seed = TupleEvent::Inserted {
                relation,
                id: tid,
                tuple,
            };
            let bound = binding
                .tuples
                .into_iter()
                .map(|(relation, id, tuple)| BoundTuple {
                    relation,
                    id,
                    tuple,
                })
                .collect();
            seeds.push((seed, bound));
        }
        let result = self.backfill(id.0, seeds);
        self.repaired(result).map(|report| (id, report))
    }

    /// Fires only rule `rid` on the backfill seeds (other rules already
    /// saw these tuples when they actually arrived); any database
    /// operations the firings queue chain normally through every rule.
    fn backfill(
        &mut self,
        rid: u32,
        seeds: Vec<(TupleEvent, Vec<BoundTuple>)>,
    ) -> Result<FireReport, EngineError> {
        let mut report = FireReport::default();
        if !self.rules[&rid].rule.mask.on_insert {
            return Ok(report);
        }
        let mut ops = Vec::new();
        let mut produced = Vec::new();
        for (seed, bound) in seeds {
            if report.fired.len() >= self.firing_limit {
                return Err(EngineError::FiringLimit {
                    limit: self.firing_limit,
                });
            }
            self.fire_one(rid, &seed, bound, &mut report, &mut ops, &mut produced)?;
            for ev in produced.drain(..) {
                let r = self.chain_level_inner(vec![ev])?;
                report.fired.extend(r.fired);
                report.firings.extend(r.firings);
                report.ops_applied += r.ops_applied;
            }
        }
        Ok(report)
    }

    /// Unregisters a rule and its predicates.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<Rule, EngineError> {
        let stored = self
            .rules
            .remove(&id.0)
            .ok_or(EngineError::NoSuchRule(id))?;
        for pid in &stored.predicate_ids {
            self.index.remove(*pid);
            self.routes.remove(&pid.0);
        }
        for (key, pids) in stored.join_keys.iter().zip(&stored.join_pids) {
            for pid in pids {
                self.index.remove(*pid);
                self.routes.remove(&pid.0);
            }
            self.joins.unregister(*key);
        }
        Ok(stored.rule)
    }

    /// Inserts a tuple and runs the rule chain it triggers.
    pub fn insert(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<FireReport, EngineError> {
        let ev = self.db.insert_event(relation, values)?;
        self.chain(ev)
    }

    /// [`insert`](Self::insert) with an EXPLAIN trace: inserts the
    /// tuple, records the exact Figure 1 path it takes through the
    /// predicate index (relation hash, per-attribute IBS-tree stabs
    /// with attribute names from the schema, non-indexable sweep, every
    /// residual-test outcome), then runs the rule chain as usual.
    ///
    /// The trace covers the seed tuple's matching stage only — cascaded
    /// events match through the ordinary counted path.
    pub fn explain_insert(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<(MatchTrace, FireReport), EngineError> {
        let ev = self.db.insert_event(relation, values)?;
        let TupleEvent::Inserted { tuple, .. } = &ev else {
            unreachable!("insert_event builds only Inserted events")
        };
        let mut trace = self.index.explain_tuple(relation, tuple);
        // The index speaks schema positions; the engine knows names.
        if let Some(rel) = self.db.catalog().relation(relation) {
            let attrs = rel.schema().attributes();
            for stab in &mut trace.stabs {
                if let Some(a) = attrs.get(stab.attr) {
                    stab.attr_name = a.name.clone();
                }
            }
        }
        let report = self.chain(ev)?;
        // Beta-layer narration: which join premises the tuple
        // alpha-matched, the memo state those matches produced, and the
        // complete matches that fired during the chain.
        for pid in trace.matched() {
            let Some(&Route::Premise(rid)) = self.routes.get(&pid) else {
                continue;
            };
            let Some(stored) = self.rules.get(&rid) else {
                continue;
            };
            let Some((key, premise)) = stored.premise(PredicateId(pid)) else {
                continue;
            };
            let mut line = format!(
                "premise {} of rule {:?} matched",
                premise + 1,
                stored.rule.name
            );
            if let Some(stats) = self.joins.stats_for(key) {
                line.push_str(&format!(
                    " ({}); tokens per level {:?}, {} complete",
                    stats.relations.join(" ⋈ "),
                    stats.level_counts,
                    stats.level_counts.last().copied().unwrap_or(0),
                ));
            }
            trace.join_steps.push(line);
        }
        for firing in &report.firings {
            if firing.bindings.is_empty() {
                continue;
            }
            let bound: Vec<String> = firing
                .bindings
                .iter()
                .map(|b| format!("{}#{}{}", b.relation, b.id.0, b.tuple))
                .collect();
            trace.join_steps.push(format!(
                "complete match fired rule {:?}: {}",
                firing.name,
                bound.join(" * ")
            ));
        }
        Ok((trace, report))
    }

    /// Updates a tuple and runs the rule chain it triggers.
    pub fn update(
        &mut self,
        relation: &str,
        id: TupleId,
        values: Vec<Value>,
    ) -> Result<FireReport, EngineError> {
        let ev = self.db.update_event(relation, id, values)?;
        self.chain(ev)
    }

    /// Deletes a tuple and runs the rule chain it triggers.
    pub fn delete(&mut self, relation: &str, id: TupleId) -> Result<FireReport, EngineError> {
        let ev = self.db.delete_event(relation, id)?;
        self.chain(ev)
    }

    /// Inserts a batch of tuples, then runs the rule chain over all of
    /// them as one matching level. Firing order is exactly what
    /// inserting them one at a time would produce (the chain is
    /// breadth-first either way), but the matching stage runs once over
    /// the whole batch before any rule fires — the bulk-load path for
    /// trigger systems.
    pub fn insert_batch(
        &mut self,
        relation: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<FireReport, EngineError> {
        let mut events = Vec::with_capacity(rows.len());
        for values in rows {
            events.push(self.db.insert_event(relation, values)?);
        }
        self.chain_level(events)
    }

    /// The recognize-act cycle for a single seed event.
    fn chain(&mut self, first: TupleEvent) -> Result<FireReport, EngineError> {
        self.chain_level(vec![first])
    }

    /// The recognize-act cycle, level by level, with abort repair.
    fn chain_level(&mut self, level: Vec<TupleEvent>) -> Result<FireReport, EngineError> {
        let result = self.chain_level_inner(level);
        self.repaired(result)
    }

    /// Abort repair: if a chain (or a retroactive backfill) errors
    /// midway (firing limit, bad queued operation), the database holds
    /// tuples whose events never reached the beta layer, so the join
    /// memos are rebuilt wholesale from the post-abort database before
    /// the error propagates. The rebuild is deterministic, so WAL
    /// replay — which re-executes the same command into the same error
    /// — repairs to the same memo.
    fn repaired<T>(&mut self, result: Result<T, EngineError>) -> Result<T, EngineError> {
        if result.is_err() && !self.joins.is_empty() {
            self.joins.reseed_all(self.db.catalog());
        }
        result
    }

    /// The recognize-act cycle, level by level: match every event
    /// queued at this level, then walk the events in arrival order —
    /// agenda, fire, queue the actions' database events for the next
    /// level. Equivalent to the one-event-at-a-time FIFO loop (matching
    /// is pure and the rule set cannot change mid-chain: firing only
    /// queues database operations).
    fn chain_level_inner(&mut self, mut level: Vec<TupleEvent>) -> Result<FireReport, EngineError> {
        let mut report = FireReport::default();
        let mut depth = 0u64;
        // Cheap handle copy so span guards don't hold a `self` borrow.
        let tracer = self.telemetry.tracer().clone();
        let _cascade = tracer.span_with("cascade", || vec![("seeds", level.len().to_string())]);
        // Attribution tags, parallel to `level`: the billing account of
        // each event — `None` (external) for the client-injected level
        // 0, the producing rule for cascaded events. Maintained only
        // when the profiler records, so the disabled path pays exactly
        // the `profiling` branch.
        let profiling = self.telemetry.profiler().is_enabled();
        let mut tags: Vec<Option<u32>> = if profiling {
            vec![None; level.len()]
        } else {
            Vec::new()
        };
        let mut buf = ChainBuffers::default();
        let mut next: Vec<TupleEvent> = Vec::new();
        let mut next_tags: Vec<Option<u32>> = Vec::new();
        while !level.is_empty() {
            depth += 1;
            let _level_span = tracer.span_with("cascade_level", || {
                vec![
                    ("level", depth.to_string()),
                    ("events", level.len().to_string()),
                ]
            });
            self.metrics.events_per_level.record(level.len() as u64);
            {
                let _match =
                    tracer.span_with("match_level", || vec![("tuples", level.len().to_string())]);
                self.match_level(&level, &tags, &mut buf.matched, &mut buf.bounds);
            }

            for (pos, event) in level.iter().enumerate() {
                let account = tags.get(pos).copied().flatten();
                report.ops_applied += 1;
                self.metrics.ops.inc();
                self.telemetry.profiler().credit_op(account);

                // Beta-layer maintenance runs on *every* event,
                // regardless of rule masks (masks gate firing, not
                // memo consistency): updates and deletes first retract
                // the tuple's old tokens, then the insert/update
                // post-state extends partial matches through every
                // premise it alpha-matched.
                let (tid, post): (u32, Option<&Tuple>) = match event {
                    TupleEvent::Inserted { id, tuple, .. } => (id.0, Some(tuple)),
                    TupleEvent::Updated { id, new, .. } => (id.0, Some(new)),
                    TupleEvent::Deleted { id, .. } => (id.0, None),
                };
                if !matches!(event, TupleEvent::Inserted { .. }) && !self.joins.is_empty() {
                    if profiling {
                        // Bill each condition's retractions to the
                        // rule owning it.
                        for (key, n) in self.joins.retract_counted(event.relation(), tid) {
                            if let Some(rid) = self.join_owner(key) {
                                self.telemetry.profiler().credit_join_retractions(rid, n);
                            }
                        }
                    } else {
                        self.joins.retract(event.relation(), tid);
                    }
                }

                // Build the agenda: one instantiation per *rule* for
                // single-relation conditions (a rule whose DNF has
                // several matching disjuncts still fires once), plus
                // one instantiation per newly *completed join match*,
                // ordered by priority descending, then registration
                // recency (newest first), OPS5-style. The stable sort
                // keeps a rule's plain instantiations ahead of its join
                // instantiations at equal (priority, rule) — and next
                // to each other, so the disjunct duplicates fall to one
                // pass over the sorted agenda (a lookup per matched
                // predicate made a tuple firing F rules cost F²). Both
                // passes count their comparisons, so the agenda's cost is
                // a number a test can bound.
                for &pid in &buf.matched[buf.bounds[pos].clone()] {
                    match self.routes.get(&pid.0) {
                        Some(&Route::Rule(rid)) => {
                            let stored = &self.rules[&rid];
                            if stored.rule.mask.accepts(event) {
                                buf.agenda.push((stored.rule.priority, rid, Vec::new()));
                            }
                        }
                        Some(&Route::Premise(rid)) => {
                            let Some(tuple) = post else {
                                continue; // deletes only retract
                            };
                            let stored = &self.rules[&rid];
                            let (key, premise) = stored
                                .premise(pid)
                                .expect("a premise route names a rule that registered the premise");
                            let out = self.joins.insert(key, premise, tid, tuple);
                            self.telemetry
                                .profiler()
                                .credit_join_probes(rid, out.probes);
                            if !stored.rule.mask.accepts(event) {
                                continue;
                            }
                            for binding in out.bindings {
                                let bound = binding
                                    .tuples
                                    .into_iter()
                                    .map(|(relation, id, tuple)| BoundTuple {
                                        relation,
                                        id,
                                        tuple,
                                    })
                                    .collect();
                                buf.join_entries.push((stored.rule.priority, rid, bound));
                            }
                        }
                        None => {}
                    }
                }
                buf.agenda.append(&mut buf.join_entries);
                let mut comparisons = 0;
                buf.agenda.sort_by(|a, b| {
                    comparisons += 1;
                    b.0.cmp(&a.0).then(b.1.cmp(&a.1))
                });
                buf.agenda.dedup_by(|later, kept| {
                    comparisons += 1;
                    later.1 == kept.1 && later.2.is_empty() && kept.2.is_empty()
                });
                self.metrics.agenda_comparisons.add(comparisons);

                for (_, rid, bindings) in buf.agenda.drain(..) {
                    if report.fired.len() >= self.firing_limit {
                        return Err(EngineError::FiringLimit {
                            limit: self.firing_limit,
                        });
                    }
                    let before = next.len();
                    self.fire_one(rid, event, bindings, &mut report, &mut buf.ops, &mut next)?;
                    if profiling {
                        // Cascaded events bill their producing rule.
                        next_tags.extend(std::iter::repeat_n(Some(rid), next.len() - before));
                    }
                }
            }
            level.clear();
            tags.clear();
            std::mem::swap(&mut level, &mut next);
            std::mem::swap(&mut tags, &mut next_tags);
        }
        self.metrics.cascade_depth.record(depth);
        Ok(report)
    }

    /// The matching stage of one level, into the chain's flat buffer:
    /// event `i`'s matching predicates end up at `matched[bounds[i]]`.
    ///
    /// With the profiler on, the level's events are grouped by billing
    /// account (`tags`, parallel to `level`), each group matched with
    /// the global cost counters snapshotted around it (exact deltas —
    /// the engine is serial), and the delta plus wall-clock credited to
    /// the account. Matching is pure, so regrouping changes no result
    /// and no global counter.
    fn match_level(
        &self,
        level: &[TupleEvent],
        tags: &[Option<u32>],
        matched: &mut Vec<PredicateId>,
        bounds: &mut Vec<Range<usize>>,
    ) {
        matched.clear();
        bounds.clear();
        let mut match_event = |event: &TupleEvent| {
            let from = matched.len();
            self.index
                .match_tuple_into(event.relation(), matched_tuple(event), matched);
            from..matched.len()
        };
        let profiler = self.telemetry.profiler();
        if !profiler.is_enabled() {
            bounds.extend(level.iter().map(match_event));
            return;
        }
        let mut groups: BTreeMap<Option<u32>, Vec<usize>> = BTreeMap::new();
        for (i, &t) in tags.iter().enumerate() {
            groups.entry(t).or_default().push(i);
        }
        bounds.resize(level.len(), 0..0);
        for (account, positions) in groups {
            let before = profiler.source_snapshot();
            let started = Instant::now();
            for i in positions {
                bounds[i] = match_event(&level[i]);
            }
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut delta = profiler.source_snapshot().delta_since(&before);
            delta.stab_nanos = nanos;
            profiler.credit_match(account, &delta);
        }
    }

    /// The rule owning join-condition `key` (retraction-attribution
    /// cold path).
    fn join_owner(&self, key: u64) -> Option<u32> {
        self.rules
            .iter()
            .find(|(_, s)| s.join_keys.contains(&key))
            .map(|(&rid, _)| rid)
    }

    /// Fires one rule on one event: runs the action, applies the
    /// database operations it queued (through `ops`, the chain's
    /// scratch, left empty) and appends the resulting events to `out`
    /// for the caller to feed back into the chain. The event, the
    /// rule's name and its action are borrowed where they live; only
    /// the report entry (a shared name, the moved `bindings`) is new.
    fn fire_one(
        &mut self,
        rid: u32,
        event: &TupleEvent,
        bindings: Vec<BoundTuple>,
        report: &mut FireReport,
        ops: &mut Vec<DbOp>,
        out: &mut Vec<TupleEvent>,
    ) -> Result<(), EngineError> {
        let stored = self
            .rules
            .get_mut(&rid)
            .expect("the agenda only holds ids of registered rules");
        stored.fired += 1;
        let rule = &stored.rule;
        self.total_fired += 1;
        self.metrics.fired.inc();
        self.telemetry.profiler().credit_firing(rid);
        let _fire = self
            .telemetry
            .tracer()
            .span_with("rule_fire", || vec![("rule", rule.name.to_string())]);

        match &rule.action {
            Action::Log(msg) => {
                let mut line = format!(
                    "[{}] {msg}: {}{}",
                    rule.name,
                    event.relation(),
                    matched_tuple(event)
                );
                if !bindings.is_empty() {
                    let parts: Vec<String> = bindings
                        .iter()
                        .map(|b| format!("{}#{}{}", b.relation, b.id.0, b.tuple))
                        .collect();
                    line.push_str(&format!(" [{}]", parts.join(" * ")));
                }
                self.log.push(line);
            }
            Action::Callback(f) => {
                let mut ctx = RuleContext {
                    event,
                    rule_name: &rule.name,
                    bindings: &bindings,
                    log: &mut self.log,
                    ops,
                };
                f(&mut ctx);
            }
        }
        for op in ops.drain(..) {
            let ev = match op {
                DbOp::Insert { relation, values } => self.db.insert_event(&relation, values)?,
                DbOp::UpdateCurrent { values } => {
                    let (rel, id) = current_target(event)?;
                    self.db.update_event(rel, id, values)?
                }
                DbOp::DeleteCurrent => {
                    let (rel, id) = current_target(event)?;
                    self.db.delete_event(rel, id)?
                }
            };
            out.push(ev);
        }
        report.fired.push((RuleId(rid), rule.name.clone()));
        report.firings.push(Firing {
            rule: RuleId(rid),
            name: rule.name.clone(),
            bindings,
        });
        Ok(())
    }
}

/// The tuple an event is matched on: the post-state for insert/update,
/// the removed tuple for delete (so cleanup rules can see it).
fn matched_tuple(event: &TupleEvent) -> &Tuple {
    match event {
        TupleEvent::Inserted { tuple, .. } | TupleEvent::Deleted { tuple, .. } => tuple,
        TupleEvent::Updated { new, .. } => new,
    }
}

/// The `(relation, tuple id)` a `*Current` operation applies to.
fn current_target(event: &TupleEvent) -> Result<(&str, TupleId), EngineError> {
    match event {
        TupleEvent::Inserted { relation, id, .. } | TupleEvent::Updated { relation, id, .. } => {
            Ok((relation, *id))
        }
        TupleEvent::Deleted { relation, .. } => {
            Err(EngineError::Catalog(CatalogError::NoSuchRelation(format!(
                "cannot modify the current tuple of a delete event on {relation}"
            ))))
        }
    }
}

/// A rule whose `RuleId` is attached — returned by rule listing.
impl RuleEngine {
    /// Iterates `(id, rule name)` pairs.
    pub fn rules(&self) -> impl Iterator<Item = (RuleId, &str)> {
        self.rules
            .iter()
            .map(|(&id, s)| (RuleId(id), s.rule.name.as_str()))
    }

    /// Iterates `(id, rule name, firings)` — per-rule activity counters
    /// for conflict-set tuning and dead-rule detection.
    pub fn fire_counts(&self) -> impl Iterator<Item = (RuleId, &str, u64)> {
        self.rules
            .iter()
            .map(|(&id, s)| (RuleId(id), s.rule.name.as_str(), s.fired))
    }

    /// The rule registered under `id`, if any.
    pub fn rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id.0).map(|s| &s.rule)
    }

    /// Iterates `(id, rule, firings)` in unspecified order — the full
    /// per-rule state a snapshot needs to capture.
    pub fn rules_detail(&self) -> impl Iterator<Item = (RuleId, &Rule, u64)> {
        self.rules
            .iter()
            .map(|(&id, s)| (RuleId(id), &s.rule, s.fired))
    }

    /// The current per-mutation firing limit.
    pub fn firing_limit(&self) -> usize {
        self.firing_limit
    }

    /// The id the next registered rule will receive.
    pub fn next_rule_id(&self) -> u32 {
        self.next_rule
    }

    /// Rebuilds an engine from externally persisted state: a restored
    /// database, the surviving rules with their original ids and fire
    /// counts, and the engine counters. Condition predicates are
    /// re-registered one by one, in the order given; the predicate ids
    /// themselves are fresh (they never escape the engine, so only the
    /// rule↔predicate wiring must be rebuilt).
    pub fn restore(
        db: Database,
        rules: Vec<(RuleId, Rule, u64)>,
        next_rule: u32,
        total_fired: u64,
        log: Vec<String>,
    ) -> Result<Self, EngineError> {
        let mut engine = RuleEngine {
            next_rule,
            log,
            total_fired,
            ..RuleEngine::new(db)
        };
        for (rid, rule, fired) in rules {
            let mut predicate_ids = Vec::with_capacity(rule.conditions.len());
            for pred in &rule.conditions {
                let pid = engine.index.insert(pred.clone(), engine.db.catalog())?;
                engine.routes.insert(pid.0, Route::Rule(rid.0));
                predicate_ids.push(pid);
            }
            engine.next_rule = engine.next_rule.max(rid.0 + 1);
            engine.rules.insert(
                rid.0,
                StoredRule {
                    rule,
                    predicate_ids,
                    join_keys: Vec::new(),
                    join_pids: Vec::new(),
                    fired,
                },
            );
        }
        // Re-register join conditions and reseed their memos from the
        // restored database (in rule-id order for determinism). The
        // memo invariant — tokens are exactly the valid premise
        // prefixes over the current tuples — makes the reseeded state
        // identical to the pre-crash incremental state, which
        // [`join_fingerprint`](Self::join_fingerprint) lets callers
        // verify.
        let mut rids: Vec<u32> = engine.rules.keys().copied().collect();
        rids.sort_unstable();
        for rid in rids {
            let joins = engine.rules[&rid].rule.joins.clone();
            if joins.is_empty() {
                continue;
            }
            let (join_keys, join_pids, _) = engine.register_joins(rid, &joins)?;
            let s = engine
                .rules
                .get_mut(&rid)
                .expect("rid came from this map's own keys");
            s.join_keys = join_keys;
            s.join_pids = join_pids;
        }
        Ok(engine)
    }

    /// Per-rule join-memo statistics, sorted by rule id: one
    /// [`MemoStats`] per join condition. Rules without join conditions
    /// are omitted.
    pub fn join_stats(&self) -> Vec<(RuleId, String, Vec<MemoStats>)> {
        let mut out: Vec<(RuleId, String, Vec<MemoStats>)> = self
            .rules
            .iter()
            .filter(|(_, s)| !s.join_keys.is_empty())
            .map(|(&rid, s)| {
                let stats = s
                    .join_keys
                    .iter()
                    .filter_map(|&k| self.joins.stats_for(k))
                    .collect();
                (RuleId(rid), s.rule.name.to_string(), stats)
            })
            .collect();
        out.sort_by_key(|(rid, _, _)| *rid);
        out
    }

    /// Order-independent digest of the whole join-memo state —
    /// identical rule sets over identical databases digest identically
    /// no matter how the state was built (incrementally or reseeded),
    /// which is what the durable layer checks after crash recovery.
    pub fn join_fingerprint(&self) -> u64 {
        self.joins.fingerprint()
    }

    /// The join memos' test oracle
    /// ([`JoinEngine::check_invariants`]) against this engine's
    /// database: internal consistency, running digest = recomputed =
    /// freshly seeded, complete matches = the naive join.
    pub fn check_join_invariants(&self) -> Result<(), String> {
        self.joins.check_invariants(self.db.catalog())
    }

    /// Complete join matches of rule `id`: per join condition, the
    /// sorted tuple-id vectors (premise order) currently complete in
    /// the memo. `None` for unknown rules.
    pub fn join_matches(&self, id: RuleId) -> Option<Vec<Vec<Vec<u32>>>> {
        self.rules.get(&id.0).map(|s| {
            s.join_keys
                .iter()
                .map(|&k| self.joins.complete_matches(k))
                .collect()
        })
    }
}
