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

use crate::rule::{Action, BoundTuple, DbOp, EventMask, Rule, RuleContext, RuleId, RuleName};
use joinmemo::{CompileError, CompiledJoin, JoinEngine, MemoStats};
use predicate::{JoinCondition, Predicate};
use predindex::{
    IndexError, IndexStats, MatchLanes, MatchTrace, Matcher, PredicateId, PredicateIndex, Routed,
    Slab,
};
use relation::{CatalogError, Database, Relation, Schema, Tuple, TupleEvent, TupleId, Value};
use std::fmt;
use std::ops::Range;
use telemetry::{
    CostSnapshot, Counter, Histogram, Profiler, Registry, Stage, StageClock, StageRecord, Telemetry,
};

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
    /// A rule with this id is already registered (a restored rule set
    /// named it twice).
    DuplicateRule(RuleId),
    /// Every `u32` rule id has been handed out. Ids are never reused,
    /// so the engine refuses further rules rather than wrap onto a
    /// live one.
    RuleIdsExhausted,
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
            EngineError::DuplicateRule(id) => write!(f, "rule {id} is already registered"),
            EngineError::RuleIdsExhausted => write!(f, "rule ids exhausted"),
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

/// The premise bit of a route word. Every predicate the engine
/// registers carries its rule's slot as its route word, so a match
/// names the rule it belongs to without a lookup; the bit is set when
/// the predicate is a join premise (the tuple goes into the beta
/// layer) and clear for a single-relation condition (the rule goes on
/// the agenda). Slots stay below it: each live rule holds far more
/// than the two bytes 2^31 of them would leave it.
const PREMISE: u32 = 1 << 31;

/// The invariant behind every read of a live rule's condition ids.
const REGISTERED: &str = "a live rule's condition is registered in the index";

/// The invariant behind every read of a live rule's memo keys.
const MEMO: &str = "a live rule's join condition has a registered memo";

/// One agenda entry: `(priority, rule id, rule slot, bound tuples)` —
/// the tuples of a completed join match, empty for a single-relation
/// instantiation.
type AgendaEntry = (i32, u32, u32, Vec<BoundTuple>);

/// The buffers one recognize-act chain owns and every level, event and
/// firing in it reuses, so a level allocates for the tuples it writes
/// and not per event matched or rule fired.
#[derive(Default)]
struct ChainBuffers {
    /// The level's matches with their routes, flat: event `i`'s are
    /// `matched[bounds[i]]`.
    matched: Vec<Routed>,
    bounds: Vec<Range<usize>>,
    /// Event `i`'s match work, with its share of the level's matching
    /// time (kept only while the profiler records).
    work: Vec<CostSnapshot>,
    /// The index's per-lane candidate buffers for lock-step stabs.
    lanes: MatchLanes,
    /// The current event's agenda, and the join instantiations waiting
    /// to be appended behind its plain ones.
    agenda: Vec<AgendaEntry>,
    join_entries: Vec<AgendaEntry>,
    /// The operations the current firing's action queued.
    ops: Vec<DbOp>,
}

/// The hot half of a registered rule: everything the agenda and a
/// firing read, in one slot of one cache line.
#[derive(Clone)]
struct HotRule {
    id: u32,
    priority: i32,
    mask: EventMask,
    name: RuleName,
    action: Action,
    fired: u64,
}

const _: () = assert!(size_of::<Option<HotRule>>() == 64);

impl HotRule {
    /// The hot half of `rule`, whose conditions and join conditions
    /// have already moved into the index and the memos.
    fn new(id: u32, rule: Rule, fired: u64) -> HotRule {
        debug_assert!(
            rule.conditions.is_empty() && rule.joins.is_empty(),
            "the conditions live in the index, the join conditions in their memos"
        );
        HotRule {
            id,
            priority: rule.priority,
            mask: rule.mask,
            name: rule.name,
            action: rule.action,
            fired,
        }
    }
}

/// The cold half: ids only. A single-relation condition lives only in
/// the index (§4's `PREDICATES`), read back through its id; a join
/// condition lives only in its memo, read back through its key.
struct ColdRule {
    /// The rule's conditions' ids in the index, in the rule's order.
    predicate_ids: Vec<PredicateId>,
    /// Per join condition, in the rule's order: the engine-wide memo
    /// key and the premise predicate ids registered in the index.
    joins: Vec<(u64, Vec<PredicateId>)>,
}

/// The rule a slot's hot half, join conditions (read back from their
/// memos) and conditions (read back from the index) make, whole again.
fn unsplit(hot: HotRule, joins: Vec<JoinCondition>, conditions: Vec<Predicate>) -> Rule {
    Rule {
        name: hot.name,
        conditions,
        joins,
        mask: hot.mask,
        action: hot.action,
        priority: hot.priority,
    }
}

impl ColdRule {
    /// `(memo key, premise index)` of the join premise registered as
    /// `pid`.
    fn premise(&self, pid: PredicateId) -> Option<(u64, usize)> {
        self.joins
            .iter()
            .find_map(|(key, pids)| Some((*key, pids.iter().position(|&p| p == pid)?)))
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
    /// Registered rules by slot (reused), found from a `RuleId` through
    /// the slab's id map by the public calls and from a match by its
    /// route word.
    rules: Slab<HotRule, ColdRule>,
    joins: JoinEngine,
    next_rule: u32,
    log: Vec<String>,
    firing_limit: usize,
    total_fired: u64,
    /// Registry, tracer and profiler — everything off by default (one
    /// branch per site), replaced whole by
    /// [`attach_metrics`](RuleEngine::attach_metrics).
    telemetry: Telemetry,
    metrics: EngineMetrics,
    /// The stage clock of the latest public operation; its record is
    /// [`last_record`](RuleEngine::last_record). Runs only under the
    /// profiler.
    clock: StageClock,
}

impl RuleEngine {
    /// Wraps a database with an empty rule set. Telemetry starts
    /// disabled; see [`attach_metrics`](Self::attach_metrics).
    pub fn new(db: Database) -> Self {
        RuleEngine {
            db,
            index: PredicateIndex::new(),
            rules: Slab::default(),
            joins: JoinEngine::new(),
            next_rule: 0,
            log: Vec::new(),
            firing_limit: 10_000,
            total_fired: 0,
            telemetry: Telemetry::disabled(),
            metrics: EngineMetrics::from_registry(&Registry::disabled()),
            clock: StageClock::default(),
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
    /// * **profiler** — per-rule cost attribution, billed per event
    ///   from the work its own match and memo calls did, and a stage
    ///   record per operation ([`last_record`](Self::last_record)).
    ///   Already-registered rules get their display names immediately.
    ///
    /// Whatever was attached before is replaced whole.
    pub fn attach_metrics(&mut self, telemetry: impl Into<Telemetry>) {
        let telemetry = telemetry.into();
        self.metrics = EngineMetrics::from_registry(telemetry.registry());
        self.index.attach_metrics(telemetry.clone());
        self.joins.attach_metrics(telemetry.clone());
        if telemetry.profiler().is_enabled() {
            for (_, rule, _) in self.rules.iter() {
                telemetry.profiler().name_rule(rule.id, &rule.name);
            }
        }
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (everything disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The stage record of the latest operation: nanoseconds in `stab`,
    /// `residual`, `join`, `agenda`, `fire` and `other`, and the work
    /// its events were billed, from where its recognize-act chain
    /// starts to its last firing. Timed only under the profiler; an
    /// operation that runs no chain leaves an empty record.
    pub fn last_record(&self) -> &StageRecord {
        self.clock.record()
    }

    /// Opens the record of one public operation, empty. Every mutating
    /// entry point calls this first, so
    /// [`last_record`](Self::last_record) never describes an earlier
    /// operation.
    fn open_record(&mut self) {
        self.clock = StageClock::default();
    }

    /// A boundary before a chain level: starts the operation's clock
    /// there under the profiler, and later laps the time since the last
    /// boundary as `other`.
    fn chain_boundary(&mut self) {
        if self.clock.is_on() {
            self.clock.lap(Stage::Other);
        } else if self.telemetry.profiler().is_enabled() {
            self.clock = StageClock::start(true);
        }
    }

    /// The predicate-index structure (relations → per-attribute tree
    /// sizes) in the list shape external tooling walks
    /// (`.relations[].trees[]`; stackbench's `tree_totals`). The engine
    /// runs one lock-free index core, so the list has one entry.
    pub fn shard_stats(&self) -> Vec<IndexStats> {
        vec![self.index.stats()]
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
        self.open_record();
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
        self.open_record();
        let rel = self.db.drop_relation(name)?;
        for (_, stored) in self.rules.iter_mut() {
            stored.predicate_ids.retain(|&pid| {
                let source = self.index.get(pid).expect(REGISTERED);
                if source.relation() != name {
                    return true;
                }
                self.index.remove(pid);
                false
            });
            // A join condition with *any* premise over the dropped
            // relation can never complete again — unregister it whole.
            stored.joins.retain(|(key, pids)| {
                let touches = pids
                    .iter()
                    .any(|&pid| self.index.get(pid).expect(REGISTERED).relation() == name);
                if !touches {
                    return true;
                }
                for &pid in pids {
                    self.index.remove(pid);
                }
                self.joins.unregister(*key);
                false
            });
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

    /// Registers a rule in the slot the rule slab hands out next, which
    /// every predicate it registers carries as its route; its condition
    /// predicates enter the predicate index. Join conditions
    /// additionally register every premise in the index (alpha layer)
    /// and seed a beta memo from the tuples already in the database —
    /// seeding does **not** fire the rule, it only brings the
    /// partial-match state up to date so the next insert extends the
    /// right prefixes. A rule fires on changes that arrive after it.
    pub fn add_rule(&mut self, mut rule: Rule) -> Result<RuleId, EngineError> {
        self.open_record();
        let id = RuleId(self.next_rule);
        let next = self.check_fresh(id)?;
        let slot = self.rules.next_slot();
        let predicate_ids = self.register_conditions(slot, std::mem::take(&mut rule.conditions))?;
        match self.register_joins(id.0, slot, std::mem::take(&mut rule.joins)) {
            Ok(joins) => {
                self.next_rule = next;
                self.telemetry.profiler().name_rule(id.0, &rule.name);
                let cold = ColdRule {
                    predicate_ids,
                    joins,
                };
                let taken = self.rules.insert(id.0, HotRule::new(id.0, rule, 0), cold);
                debug_assert_eq!(taken, slot, "the slab handed out the slot it promised");
                Ok(id)
            }
            Err(e) => {
                for pid in predicate_ids {
                    self.index.remove(pid);
                }
                Err(e)
            }
        }
    }

    /// Checks that rule `id` may be registered: it is not live, and it
    /// is not the last `u32`, so the id after it exists. Returns that
    /// id. Runs before anything is registered.
    fn check_fresh(&self, id: RuleId) -> Result<u32, EngineError> {
        if self.rules.slot(id.0).is_some() {
            return Err(EngineError::DuplicateRule(id));
        }
        id.0.checked_add(1).ok_or(EngineError::RuleIdsExhausted)
    }

    /// Moves a rule's condition predicates into the index, each routed
    /// to `slot`; the index holds the only copy. Rolls itself back on
    /// failure.
    fn register_conditions(
        &mut self,
        slot: u32,
        conditions: Vec<Predicate>,
    ) -> Result<Vec<PredicateId>, EngineError> {
        let mut predicate_ids = Vec::with_capacity(conditions.len());
        for pred in conditions {
            match self.index.insert_routed(pred, self.db.catalog(), slot) {
                Ok(pid) => predicate_ids.push(pid),
                Err(e) => {
                    for pid in predicate_ids {
                        self.index.remove(pid);
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(predicate_ids)
    }

    /// Compiles and registers `joins` for rule `rid` in `slot`: each
    /// premise enters the predicate index routed to the slot, each
    /// condition gets a stable memo key and moves into its memo, and
    /// each memo is seeded from the existing tuples. Returns each
    /// condition's key and premise predicate ids. Rolls itself back on
    /// failure.
    fn register_joins(
        &mut self,
        rid: u32,
        slot: u32,
        joins: Vec<JoinCondition>,
    ) -> Result<Vec<(u64, Vec<PredicateId>)>, EngineError> {
        // Compile everything first: compilation is pure, so a failure
        // here leaves nothing to roll back.
        let mut compiled = Vec::with_capacity(joins.len());
        for join in &joins {
            compiled.push(CompiledJoin::compile(join, self.db.catalog())?);
        }
        // Alpha layer: every premise is an ordinary single-relation
        // predicate in the Figure 1 index.
        let mut registered: Vec<(u64, Vec<PredicateId>)> = Vec::with_capacity(compiled.len());
        for (j, cj) in compiled.iter().enumerate() {
            let mut pids = Vec::with_capacity(cj.arity());
            for premise in cj.condition().premises() {
                let route = slot | PREMISE;
                match self
                    .index
                    .insert_routed(premise.clone(), self.db.catalog(), route)
                {
                    Ok(pid) => pids.push(pid),
                    Err(e) => {
                        let earlier = registered.into_iter().flat_map(|(_, pids)| pids);
                        for pid in pids.into_iter().chain(earlier) {
                            self.index.remove(pid);
                        }
                        return Err(e.into());
                    }
                }
            }
            registered.push((join_key(rid, j), pids));
        }
        // Beta layer: memo registration and a silent seed (the memo
        // must hold every valid premise prefix over the current tuples
        // before the next event).
        for (&(key, _), cj) in registered.iter().zip(compiled) {
            self.joins.register(key, cj);
            self.joins.seed(key, self.db.catalog());
        }
        Ok(registered)
    }

    /// Unregisters a rule and its predicates, handing back the rule with
    /// the conditions the index held.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<Rule, EngineError> {
        self.open_record();
        let (_, hot, cold) = self.rules.remove(id.0).ok_or(EngineError::NoSuchRule(id))?;
        let conditions = cold
            .predicate_ids
            .iter()
            .map(|&pid| self.index.remove(pid).expect(REGISTERED))
            .collect();
        let joins = cold
            .joins
            .into_iter()
            .map(|(key, pids)| {
                for pid in pids {
                    self.index.remove(pid);
                }
                self.joins.unregister(key).expect(MEMO)
            })
            .collect();
        Ok(unsplit(hot, joins, conditions))
    }

    /// Inserts a tuple and runs the rule chain it triggers.
    pub fn insert(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<FireReport, EngineError> {
        self.open_record();
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
        self.open_record();
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
            let Some(route) = self.index.route(PredicateId(pid)) else {
                continue;
            };
            if route & PREMISE == 0 {
                continue;
            }
            let slot = route & !PREMISE;
            let Some((key, premise)) = self.rules.cold(slot).premise(PredicateId(pid)) else {
                continue;
            };
            let mut line = format!(
                "premise {} of rule {:?} matched",
                premise + 1,
                self.rules.hot(slot).name
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
        self.open_record();
        let ev = self.db.update_event(relation, id, values)?;
        self.chain(ev)
    }

    /// Deletes a tuple and runs the rule chain it triggers.
    pub fn delete(&mut self, relation: &str, id: TupleId) -> Result<FireReport, EngineError> {
        self.open_record();
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
        self.open_record();
        let mut events = Vec::with_capacity(rows.len());
        for values in rows {
            match self.db.insert_event(relation, values) {
                Ok(event) => events.push(event),
                // The rows before this one are stored but their events
                // never reach the beta layer: repair as a chain abort.
                Err(e) => return self.repaired(Err(e.into())),
            }
        }
        self.chain_level(events)
    }

    /// The recognize-act cycle for a single seed event.
    fn chain(&mut self, first: TupleEvent) -> Result<FireReport, EngineError> {
        self.chain_level(vec![first])
    }

    /// The recognize-act cycle, level by level, with abort repair.
    fn chain_level(&mut self, level: Vec<TupleEvent>) -> Result<FireReport, EngineError> {
        let mut report = FireReport::default();
        let result = self.chain_level_inner(level, &mut report);
        self.repaired(result).map(|()| report)
    }

    /// Abort repair: if a chain errors midway (firing limit, bad queued
    /// operation), or a batch rejects a row after storing the rows
    /// before it, the database holds
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
    /// queues database operations). Firings are appended to `report`,
    /// whose length is what the firing limit bounds.
    fn chain_level_inner(
        &mut self,
        mut level: Vec<TupleEvent>,
        report: &mut FireReport,
    ) -> Result<(), EngineError> {
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
            self.chain_boundary();
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
                self.match_level(&level, &mut buf);
            }

            for (pos, event) in level.iter().enumerate() {
                report.ops_applied += 1;
                self.metrics.ops.inc();
                if profiling {
                    // The event bills its account for itself and for
                    // its own match work.
                    let account = tags[pos];
                    let cost = CostSnapshot {
                        ops: 1,
                        ..buf.work[pos]
                    };
                    charge(self.telemetry.profiler(), &mut self.clock, account, cost);
                }

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
                    // Each condition's retractions bill the rule owning
                    // it, which its key names.
                    let (profiler, clock) = (self.telemetry.profiler(), &mut self.clock);
                    self.joins.retract_each(event.relation(), tid, |key, n| {
                        let cost = CostSnapshot {
                            join_retractions: n,
                            ..CostSnapshot::default()
                        };
                        charge(profiler, clock, Some(join_owner(key)), cost);
                    });
                    self.clock.lap(Stage::Join);
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
                // Each match's route names its rule's slot: the agenda
                // reads priority, mask and id from the slot's hot half.
                for m in &buf.matched[buf.bounds[pos].clone()] {
                    let slot = m.route & !PREMISE;
                    if m.route & PREMISE == 0 {
                        let rule = self.rules.hot(slot);
                        if rule.mask.accepts(event) {
                            buf.agenda.push((rule.priority, rule.id, slot, Vec::new()));
                        }
                        continue;
                    }
                    let Some(tuple) = post else {
                        continue; // deletes only retract
                    };
                    let (key, premise) = self
                        .rules
                        .cold(slot)
                        .premise(m.id)
                        .expect("a premise route names a rule that registered the premise");
                    self.clock.lap(Stage::Agenda);
                    let out = self.joins.insert(key, premise, tid, tuple);
                    self.clock.lap(Stage::Join);
                    let rule = self.rules.hot(slot);
                    let cost = CostSnapshot {
                        join_probes: out.probes,
                        ..CostSnapshot::default()
                    };
                    charge(
                        self.telemetry.profiler(),
                        &mut self.clock,
                        Some(rule.id),
                        cost,
                    );
                    if !rule.mask.accepts(event) {
                        continue;
                    }
                    for binding in out.bindings {
                        let bindings = binding
                            .tuples
                            .into_iter()
                            .map(|(relation, id, tuple)| BoundTuple {
                                relation,
                                id,
                                tuple,
                            })
                            .collect();
                        buf.join_entries
                            .push((rule.priority, rule.id, slot, bindings));
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
                    later.1 == kept.1 && later.3.is_empty() && kept.3.is_empty()
                });
                self.metrics.agenda_comparisons.add(comparisons);
                self.clock.lap(Stage::Agenda);

                for (_, rid, slot, bindings) in buf.agenda.drain(..) {
                    if report.fired.len() >= self.firing_limit {
                        return Err(EngineError::FiringLimit {
                            limit: self.firing_limit,
                        });
                    }
                    let before = next.len();
                    self.fire_one(slot, event, bindings, report, &mut buf.ops, &mut next)?;
                    if profiling {
                        // Cascaded events bill their producing rule.
                        next_tags.extend(std::iter::repeat_n(Some(rid), next.len() - before));
                    }
                }
                self.clock.lap(Stage::Fire);
            }
            level.clear();
            tags.clear();
            std::mem::swap(&mut level, &mut next);
            std::mem::swap(&mut tags, &mut next_tags);
        }
        self.metrics.cascade_depth.record(depth);
        Ok(())
    }

    /// The matching stage of one level, into the chain's flat buffer:
    /// event `i`'s matching predicates end up at `matched[bounds[i]]`.
    /// Each run of consecutive events on one relation is matched as one
    /// run, so the index descends its trees with a group of them in
    /// lock-step (`PredicateIndex::match_run_into`), whatever accounts
    /// the events bill. With the profiler on, the index laps `stab` and
    /// `residual` once per group and hands back each tuple's work
    /// (`work[i]`), and the level's matching time is split across the
    /// events by that work.
    fn match_level(&mut self, level: &[TupleEvent], buf: &mut ChainBuffers) {
        let ChainBuffers {
            matched,
            bounds,
            work,
            lanes,
            ..
        } = buf;
        matched.clear();
        bounds.clear();
        work.clear();
        let profiling = self.clock.is_on();
        let matching =
            |c: &StageClock| c.record().nanos(Stage::Stab) + c.record().nanos(Stage::Residual);
        let before = matching(&self.clock);
        for run in level.chunk_by(|a, b| a.relation() == b.relation()) {
            let tuples = run.iter().map(matched_tuple);
            let clock = &mut self.clock;
            self.index
                .match_run_into(run[0].relation(), tuples, lanes, matched, clock, |r, w| {
                    bounds.push(r);
                    if profiling {
                        work.push(*w);
                    }
                });
        }
        if profiling {
            apportion(matching(&self.clock) - before, work);
        }
    }

    /// Fires the rule in `slot` on one event: runs the action, applies
    /// the database operations it queued (through `ops`, the chain's
    /// scratch, left empty) and appends the resulting events to `out`
    /// for the caller to feed back into the chain. The event and the
    /// rule's hot half — name, action, fire count — are read where
    /// they live; only the report entry (a shared name, the moved
    /// `bindings`) is new.
    fn fire_one(
        &mut self,
        slot: u32,
        event: &TupleEvent,
        bindings: Vec<BoundTuple>,
        report: &mut FireReport,
        ops: &mut Vec<DbOp>,
        out: &mut Vec<TupleEvent>,
    ) -> Result<(), EngineError> {
        let rule = self.rules.hot_mut(slot);
        rule.fired += 1;
        let rid = rule.id;
        let rule = &*rule;
        self.total_fired += 1;
        self.metrics.fired.inc();
        let firing = CostSnapshot {
            firings: 1,
            ..CostSnapshot::default()
        };
        charge(
            self.telemetry.profiler(),
            &mut self.clock,
            Some(rid),
            firing,
        );
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

/// Bills `cost` to `account` and adds it to the operation's record —
/// the one way the engine's work reaches the profiler. One branch when
/// the profiler is off.
fn charge(profiler: &Profiler, clock: &mut StageClock, account: Option<u32>, cost: CostSnapshot) {
    if clock.is_on() {
        profiler.bill(account, &cost);
        clock.add_work(&cost);
    }
}

/// Splits a level's matching time across its events in proportion to
/// each one's match work plus one (a tuple that found nothing still
/// rode in its group), as their `stab_nanos`. The shares sum to `nanos`
/// exactly.
fn apportion(nanos: u64, work: &mut [CostSnapshot]) {
    let weight = |w: &CostSnapshot| w.work() + 1;
    let total: u64 = work.iter().map(weight).sum();
    let (mut upto, mut given) = (0, 0);
    for w in work {
        upto += weight(w);
        let share = match nanos.checked_mul(upto) {
            Some(product) => product / total,
            None => (u128::from(nanos) * u128::from(upto) / u128::from(total)) as u64,
        };
        w.stab_nanos = share - given;
        given = share;
    }
}

/// The memo key of rule `rid`'s `j`-th join condition: the rule in the
/// high half, so a retraction's key names the rule it bills. Unique
/// (rule ids are never reused) and stable across `drop_relation`'s
/// vector compaction.
fn join_key(rid: u32, j: usize) -> u64 {
    (u64::from(rid) << 32) | j as u64
}

/// The rule owning join condition `key`.
fn join_owner(key: u64) -> u32 {
    (key >> 32) as u32
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
            .map(|(_, h, _)| (RuleId(h.id), h.name.as_str()))
    }

    /// Iterates `(id, rule name, firings)` — per-rule activity counters
    /// for conflict-set tuning and dead-rule detection.
    pub fn fire_counts(&self) -> impl Iterator<Item = (RuleId, &str, u64)> {
        self.rules
            .iter()
            .map(|(_, h, _)| (RuleId(h.id), h.name.as_str(), h.fired))
    }

    /// The rule registered under `id`, if any, reassembled from its
    /// slot's two halves and its conditions in the index.
    pub fn rule(&self, id: RuleId) -> Option<Rule> {
        let slot = self.rules.slot(id.0)?;
        Some(self.reassemble(self.rules.hot(slot), self.rules.cold(slot)))
    }

    /// Iterates `(id, rule, firings)` in unspecified order — the full
    /// per-rule state a snapshot needs to capture, each rule
    /// reassembled from its slot's two halves and its conditions in the
    /// index.
    pub fn rules_detail(&self) -> impl Iterator<Item = (RuleId, Rule, u64)> + '_ {
        self.rules
            .iter()
            .map(|(_, h, c)| (RuleId(h.id), self.reassemble(h, c), h.fired))
    }

    /// A copy of the rule a slot holds, its conditions cloned from the
    /// index.
    fn reassemble(&self, hot: &HotRule, cold: &ColdRule) -> Rule {
        let conditions = cold
            .predicate_ids
            .iter()
            .map(|&pid| self.index.get(pid).expect(REGISTERED).clone())
            .collect();
        let joins = cold
            .joins
            .iter()
            .map(|&(key, _)| self.joins.condition(key).expect(MEMO).clone())
            .collect();
        unsplit(hot.clone(), joins, conditions)
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
        // Join conditions are held aside until every rule's conditions
        // are registered.
        let mut held = Vec::new();
        for (rid, mut rule, fired) in rules {
            let next = engine.check_fresh(rid)?;
            let slot = engine.rules.next_slot();
            let predicate_ids =
                engine.register_conditions(slot, std::mem::take(&mut rule.conditions))?;
            engine.next_rule = engine.next_rule.max(next);
            if !rule.joins.is_empty() {
                held.push((rid.0, slot, std::mem::take(&mut rule.joins)));
            }
            let hot = HotRule::new(rid.0, rule, fired);
            let cold = ColdRule {
                predicate_ids,
                joins: Vec::new(),
            };
            engine.rules.insert(rid.0, hot, cold);
        }
        // Re-register join conditions and reseed their memos from the
        // restored database (in rule-id order for determinism). The
        // memo invariant — tokens are exactly the valid premise
        // prefixes over the current tuples — makes the reseeded state
        // identical to the pre-crash incremental state, which
        // [`join_fingerprint`](Self::join_fingerprint) lets callers
        // verify.
        held.sort_unstable_by_key(|&(rid, ..)| rid);
        for (rid, slot, joins) in held {
            engine.rules.cold_mut(slot).joins = engine.register_joins(rid, slot, joins)?;
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
            .filter(|(_, _, c)| !c.joins.is_empty())
            .map(|(_, h, c)| {
                let stats = c
                    .joins
                    .iter()
                    .filter_map(|&(k, _)| self.joins.stats_for(k))
                    .collect();
                (RuleId(h.id), h.name.to_string(), stats)
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
        let slot = self.rules.slot(id.0)?;
        Some(
            self.rules
                .cold(slot)
                .joins
                .iter()
                .map(|&(k, _)| self.joins.complete_matches(k))
                .collect(),
        )
    }
}
