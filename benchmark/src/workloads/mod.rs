//! What the four workloads share: the systems under test behind one
//! `apply` call, world construction, the closed-loop round runner, and
//! the traced stack of mirrors.

pub mod inmem;
pub mod join_cascade;
pub mod serve_mixed;

use crate::measure::{self, Round};
use crate::mirror::Lower;
use crate::trace::{self, Class, Kind, OpRecord};
use crate::world::{
    action_registry, build_rule, rule_spec, CascadeLog, CascadeOp, Model, Op, RuleDef,
};
use durable::{DurableRuleEngine, Options, Record, SyncPolicy, Wal};
use predicate::FunctionRegistry;
use relation::{Database, Schema, TupleId, Value};
use rules::{FireReport, RuleEngine, RuleId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use telemetry::Registry;

/// One invocation's settings.
pub struct RunConfig {
    pub seed: u64,
    /// Nominal measuring time. Every workload runs a fixed number of
    /// rounds per nominal second, each round a frozen op count, so the
    /// work done depends on this number and on nothing measured.
    pub seconds: u64,
    pub trace: bool,
    /// Shrinks every op count 16-fold for smoke use; such a run's
    /// numbers are never comparable with a full run's.
    pub quick: bool,
    /// `benchmark/out`: data directories and trace files.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Rounds to run: `per_second` for every nominal second (at least
    /// eight, so the quartile has something to choose from), or
    /// [`TRACE_ROUNDS`] in a traced run.
    pub fn rounds(&self, per_second: u64) -> usize {
        if self.trace {
            TRACE_ROUNDS
        } else if self.quick {
            (self.seconds * per_second / 4).max(8) as usize
        } else {
            (self.seconds * per_second).max(8) as usize
        }
    }

    /// `full`, or a sixteenth of it under `--quick`, kept a multiple of
    /// `unit` (the snapshot cadence, where a workload has one).
    pub fn scaled(&self, full: usize, unit: usize) -> usize {
        if self.quick {
            (full / 16 / unit).max(1) * unit
        } else {
            full
        }
    }

    /// A fresh, empty data directory on the checkout's disk.
    pub fn data_dir(&self, label: &str) -> PathBuf {
        let dir = self
            .out_dir
            .join("data")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data directory under benchmark/out");
        dir
    }
}

/// Rounds in a traced run: the per-layer numbers have no bound to
/// defend, and every op runs on up to five instances.
pub const TRACE_ROUNDS: usize = 3;
/// How many times the world is built; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// What a run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context for stderr (sizes, counts, rates).
    pub notes: Vec<String>,
}

/// The relations, rules and initial tuples of a workload.
pub struct World {
    pub schemas: Vec<Schema>,
    pub rules: Vec<RuleDef>,
    /// `(relation index, rows)`, loaded in order.
    pub preload: Vec<(usize, Vec<Vec<Value>>)>,
    /// Rules registered after the bulk load: the ones that consume the
    /// tuples they match, which must not see the preloaded rows.
    pub late_rules: Vec<RuleDef>,
}

impl World {
    pub fn rel_names(&self) -> Vec<String> {
        self.schemas.iter().map(|s| s.name().to_string()).collect()
    }
}

const LOAD_CHUNK: usize = 1024;

/// What one call did.
#[derive(Default)]
pub struct Outcome {
    /// Ids of the rules fired across the whole chain, in firing order.
    pub fired: Vec<u32>,
    /// The id a successful `AddRule` was given.
    pub rule_id: Option<u32>,
}

fn fired_of(report: FireReport) -> Outcome {
    Outcome {
        fired: report.fired.iter().map(|(id, _)| id.0).collect(),
        rule_id: None,
    }
}

/// A system under test, driven one client-visible call at a time.
pub trait Target {
    fn apply(&mut self, op: &Op) -> Result<Outcome, String>;
}

/// `rules::RuleEngine` in process.
pub struct InMem {
    pub engine: RuleEngine,
    rel_names: Vec<String>,
    log: Option<CascadeLog>,
}

impl InMem {
    pub fn build(world: &World, registry: Option<Arc<Registry>>, log: Option<CascadeLog>) -> InMem {
        let mut db = Database::new();
        for s in &world.schemas {
            db.create_relation(s.clone())
                .expect("distinct relation names");
        }
        let mut engine = RuleEngine::new(db);
        if let Some(registry) = registry {
            engine.attach_metrics(registry);
        }
        for def in &world.rules {
            let rule = build_rule(def, log.clone()).expect("generated rule parses");
            engine.add_rule(rule).expect("generated rule registers");
        }
        let rel_names = world.rel_names();
        for (rel, rows) in &world.preload {
            for chunk in rows.chunks(LOAD_CHUNK) {
                engine
                    .insert_batch(&rel_names[*rel], chunk.to_vec())
                    .expect("bulk load");
            }
        }
        for def in &world.late_rules {
            let rule = build_rule(def, log.clone()).expect("generated rule parses");
            engine.add_rule(rule).expect("generated rule registers");
        }
        InMem {
            engine,
            rel_names,
            log,
        }
    }
}

impl Target for InMem {
    fn apply(&mut self, op: &Op) -> Result<Outcome, String> {
        let e = &mut self.engine;
        match op {
            Op::Insert { rel, values } => e.insert(&self.rel_names[*rel], values.clone()),
            Op::InsertBatch { rel, rows } => e.insert_batch(&self.rel_names[*rel], rows.clone()),
            Op::Update { rel, id, values } => {
                e.update(&self.rel_names[*rel], TupleId(*id), values.clone())
            }
            Op::Delete { rel, id } => e.delete(&self.rel_names[*rel], TupleId(*id)),
            Op::AddRule(def) => {
                let rule = build_rule(def, self.log.clone())?;
                return e
                    .add_rule(rule)
                    .map(|id| Outcome {
                        fired: Vec::new(),
                        rule_id: Some(id.0),
                    })
                    .map_err(|e| e.to_string());
            }
            Op::RemoveRule { id } => {
                return e
                    .remove_rule(RuleId(*id))
                    .map(|_| Outcome::default())
                    .map_err(|e| e.to_string())
            }
            Op::Ping | Op::Health => return Err("not an engine operation".into()),
        }
        .map(fired_of)
        .map_err(|e| e.to_string())
    }
}

/// `durable::DurableRuleEngine` in process.
pub struct Dur {
    pub engine: DurableRuleEngine,
    rel_names: Vec<String>,
}

impl Dur {
    /// Opens an empty directory and builds `world` in it through the
    /// logged entry points.
    pub fn build(
        dir: &Path,
        world: &World,
        opts: Options,
        registry: Option<Arc<Registry>>,
        log: Option<CascadeLog>,
    ) -> Dur {
        let mut engine = DurableRuleEngine::open_with_metrics(
            dir,
            FunctionRegistry::default(),
            action_registry(log),
            opts,
            registry.unwrap_or_else(|| Arc::new(Registry::disabled())),
        )
        .expect("open durable engine");
        for s in &world.schemas {
            engine.create_relation(s.clone()).expect("create relation");
        }
        for def in &world.rules {
            engine
                .add_rule(rule_spec(def))
                .expect("generated rule registers");
        }
        let rel_names = world.rel_names();
        for (rel, rows) in &world.preload {
            for chunk in rows.chunks(LOAD_CHUNK) {
                engine
                    .insert_batch(&rel_names[*rel], chunk.to_vec())
                    .expect("bulk load");
            }
        }
        for def in &world.late_rules {
            engine
                .add_rule(rule_spec(def))
                .expect("generated rule registers");
        }
        // Start the measured part from a snapshot boundary, so every
        // round holds the same number of snapshots.
        engine.snapshot().expect("snapshot after load");
        Dur { engine, rel_names }
    }
}

impl Target for Dur {
    fn apply(&mut self, op: &Op) -> Result<Outcome, String> {
        let e = &mut self.engine;
        match op {
            Op::Insert { rel, values } => e.insert(&self.rel_names[*rel], values.clone()),
            Op::Update { rel, id, values } => {
                e.update(&self.rel_names[*rel], TupleId(*id), values.clone())
            }
            Op::Delete { rel, id } => e.delete(&self.rel_names[*rel], TupleId(*id)),
            _ => return Err("not a single-tuple operation".into()),
        }
        .map(fired_of)
        .map_err(|e| e.to_string())
    }
}

/// The WAL record a single-tuple operation is logged as.
pub fn record_of(op: &Op, rel_names: &[String]) -> Option<Record> {
    Some(match op {
        Op::Insert { rel, values } => Record::Insert {
            relation: rel_names[*rel].clone(),
            values: values.clone(),
        },
        Op::Update { rel, id, values } => Record::Update {
            relation: rel_names[*rel].clone(),
            id: *id,
            values: values.clone(),
        },
        Op::Delete { rel, id } => Record::Delete {
            relation: rel_names[*rel].clone(),
            id: *id,
        },
        _ => return None,
    })
}

/// Source of a workload's operations. Generation is never timed.
pub trait Gen {
    fn next_op(&mut self) -> Op;
    /// The models of the relations the client writes, by relation name.
    fn models(&self) -> Vec<(&str, &Model)>;
}

/// Builds the world `SETUP_REPS` times and keeps the last; returns it
/// with the median calibrated build time. `build` times its own
/// measured part (input generation stays outside) and returns
/// `(world, seconds)`. Each build is dropped before the next starts so
/// peak memory is one world's.
pub fn timed_setups<W>(
    reference: &mut measure::Reference,
    mut build: impl FnMut(usize) -> (W, f64),
) -> (W, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for rep in 0..SETUP_REPS {
        drop(world.take());
        let ((w, secs), scale) = reference.beside(|| build(rep));
        world = Some(w);
        times.push(secs * scale);
    }
    times.sort_by(f64::total_cmp);
    (world.expect("SETUP_REPS > 0"), times[SETUP_REPS / 2])
}

/// Tallies of a run's operations.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub fired: u64,
}

/// Runs `ops` operations untimed (the fixed warm-up pass of set-up).
pub fn warm_up(target: &mut dyn Target, gen: &mut dyn Gen, ops: usize, tally: &mut Tally) {
    for _ in 0..ops {
        let op = gen.next_op();
        tally.attempted += 1;
        match target.apply(&op) {
            Ok(out) => tally.fired += out.fired.len() as u64,
            Err(_) => tally.failed += 1,
        }
    }
}

/// Buffers a run reuses across rounds.
#[derive(Default)]
pub struct RoundBuffers {
    batch: Vec<Op>,
    outcomes: Vec<Option<Outcome>>,
    samples: Vec<u64>,
    pub reference: measure::Reference,
}

/// One closed-loop round: `ops` calls from one thread, each timed.
/// The round's inputs are generated before its clocks start and
/// `inspect` sees every op with its outcome after they stop, so the
/// process-CPU reading covers the calls and nothing of the harness but
/// the loop itself.
pub fn closed_round(
    target: &mut dyn Target,
    gen: &mut dyn Gen,
    ops: usize,
    buf: &mut RoundBuffers,
    tally: &mut Tally,
    inspect: &mut dyn FnMut(u64, &Op, &Outcome),
) -> Round {
    buf.batch.clear();
    buf.batch.extend((0..ops).map(|_| gen.next_op()));
    buf.outcomes.clear();
    buf.samples.clear();
    let (batch, outcomes, samples) = (&buf.batch, &mut buf.outcomes, &mut buf.samples);
    let ((busy_ns, cpu_ns), scale) = buf.reference.beside(|| {
        let cpu0 = measure::process_cpu_ns();
        let mut busy_ns = 0u64;
        for op in batch {
            let started = Instant::now();
            let out = target.apply(op);
            let ns = started.elapsed().as_nanos() as u64;
            busy_ns += ns;
            samples.push(ns);
            outcomes.push(out.ok());
        }
        (busy_ns, measure::process_cpu_ns() - cpu0)
    });
    for (op, out) in buf.batch.iter().zip(&buf.outcomes) {
        tally.attempted += 1;
        match out {
            Some(out) => {
                tally.fired += out.fired.len() as u64;
                inspect(tally.attempted, op, out);
            }
            None => tally.failed += 1,
        }
    }
    Round {
        ops: ops as u64,
        busy_ns,
        cpu_ns,
        p50_ns: measure::quantile_ns(&mut buf.samples, 0.5),
        scale: measure::Scale::uniform(scale),
    }
}

/// The rounds as a note: the raw material of the estimator.
pub fn rounds_note(rounds: &[Round]) -> String {
    let list = |decimals: usize, f: &dyn Fn(&Round) -> f64| {
        rounds
            .iter()
            .map(|r| format!("{:.decimals$}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "per round, as measured x calibration factor: busy ms [{}] x [{}]; p50 us [{}] x [{}]; cpu us/op [{}] x [{}]",
        list(1, &|r| r.busy_ns as f64 / 1e6),
        list(3, &|r| r.scale.busy),
        list(1, &|r| r.p50_ns / 1e3),
        list(3, &|r| r.scale.p50),
        list(1, &|r| r.cpu_ns as f64 / r.ops as f64 / 1e3),
        list(3, &|r| r.scale.cpu),
    )
}

/// The five end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(setup_s: f64, rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let t = measure::summarize(rounds);
    vec![
        ("setup_s", setup_s),
        ("throughput_ops_s", t.throughput_ops_s),
        ("op_p50_us", t.op_p50_us),
        ("cpu_us_per_op", t.cpu_us_per_op),
        ("rss_mb", measure::peak_rss_mb()),
    ]
}

fn class_of(op: &Op) -> Class {
    match op {
        Op::Insert { .. } | Op::InsertBatch { .. } | Op::Update { .. } | Op::Delete { .. } => {
            Class::Tuple
        }
        Op::AddRule(_) => Class::AddRule,
        Op::RemoveRule { .. } => Class::RemoveRule,
        Op::Ping => Class::Ping,
        Op::Health => Class::Health,
    }
}

/// A `durable::Wal` mirror: appends are timed as spans with syncing
/// left manual, and the sync the workload's policy would issue is timed
/// on its own so the fsync median is exact.
pub struct WalMirror {
    wal: Wal,
    every: u32,
    unsynced: u32,
    pub fsync_ns: Vec<u64>,
}

impl WalMirror {
    pub fn create(dir: &Path, policy: SyncPolicy) -> WalMirror {
        let every = match policy {
            SyncPolicy::Always => 1,
            SyncPolicy::EveryN(n) => n.max(1),
            SyncPolicy::Manual => u32::MAX,
        };
        WalMirror {
            wal: Wal::create(&dir.join("mirror-wal.bin"), 1, SyncPolicy::Manual)
                .expect("create mirror wal"),
            every,
            unsynced: 0,
            fsync_ns: Vec::new(),
        }
    }

    fn append(&mut self, record: &Record, rec: &mut OpRecord) {
        let wal = &mut self.wal;
        rec.span(Kind::WalAppend, || {
            wal.append(record).expect("mirror wal append")
        });
        self.unsynced += 1;
        if self.unsynced >= self.every {
            let started = Instant::now();
            self.wal.sync().expect("mirror wal sync");
            self.fsync_ns.push(started.elapsed().as_nanos() as u64);
            self.unsynced = 0;
        }
    }
}

/// Everything a traced run drives per operation. The *counted*
/// instance has a live `Registry` and supplies work counts and the
/// telemetry-on time; every span is timed on instances with telemetry
/// off — the *twin* of the top layer and one mirror per lower layer —
/// so the spans describe the configuration the end-to-end run measures.
pub struct Traced<'a> {
    pub top: Kind,
    pub counted: &'a mut dyn Target,
    pub twin: &'a mut dyn Target,
    pub durable_mirror: Option<&'a mut Dur>,
    pub wal_mirror: Option<&'a mut WalMirror>,
    pub rules_mirror: Option<&'a mut InMem>,
    pub lower: &'a mut Lower,
    /// Filled by the counted instance's actions.
    pub log: CascadeLog,
    pub rel_names: Vec<String>,
    pub origin: Instant,
    /// Time inside the counted instance's calls, this round.
    pub counted_ns: u64,
    /// Ops whose instances disagreed on what fired, or that failed.
    pub mismatches: u64,
}

impl Traced<'_> {
    /// Ends the warm-up: from here on the counted instance's registry,
    /// the mirrors' work counts and the telemetry-on clock all start
    /// from zero together.
    pub fn start_counting(&mut self, registry: Arc<Registry>) -> Counts {
        self.lower.work = Default::default();
        self.counted_ns = 0;
        Counts::start(registry)
    }

    pub fn op(&mut self, op_id: u32, op: &Op, tally: &mut Tally) -> OpRecord {
        let mut rec = OpRecord::new(op_id, class_of(op), self.top);
        tally.attempted += 1;

        self.log.lock().expect("cascade log poisoned").clear();
        let started = Instant::now();
        let counted = self.counted.apply(op);
        self.counted_ns += started.elapsed().as_nanos() as u64;
        let cascade: Vec<CascadeOp> =
            std::mem::take(&mut *self.log.lock().expect("cascade log poisoned"));

        rec.start_ns = self.origin.elapsed().as_nanos() as u64;
        let twin = &mut *self.twin;
        let timed = rec.span(self.top, || twin.apply(op));

        let (counted, timed) = match (counted, timed) {
            (Ok(c), Ok(t)) => (c, t),
            _ => {
                tally.failed += 1;
                self.mismatches += 1;
                return rec;
            }
        };
        rec.fired = timed.fired.len() as u32;
        tally.fired += rec.fired as u64;
        let mut agree = counted.fired == timed.fired && counted.rule_id == timed.rule_id;

        let engine_op = rec.class == Class::Tuple;
        if engine_op {
            if let Some(d) = self.durable_mirror.as_deref_mut() {
                let out = rec.span(Kind::DurableOp, || d.apply(op));
                agree &= out.is_ok_and(|o| o.fired == timed.fired);
            }
            if let Some(w) = self.wal_mirror.as_deref_mut() {
                let record = record_of(op, &self.rel_names).expect("tuple op has a record");
                w.append(&record, &mut rec);
            }
            if let Some(r) = self.rules_mirror.as_deref_mut() {
                let out = rec.span(Kind::RulesOp, || r.apply(op));
                agree &= out.is_ok_and(|o| o.fired == timed.fired);
            }
        }
        match op {
            Op::AddRule(def) => {
                let id = self.lower.add_rule(&def.condition, &mut rec);
                agree &= timed.rule_id == Some(id);
            }
            Op::RemoveRule { id } => self.lower.remove_rule(*id, &mut rec),
            Op::Ping | Op::Health => {}
            _ => {
                self.lower.tuple_op(op, &mut rec);
                for c in &cascade {
                    self.lower.cascade_op(c, &mut rec);
                }
            }
        }
        if !agree {
            self.mismatches += 1;
        }
        rec
    }
}

/// Replays a freshly built world into the lower-layer mirrors: rules,
/// preloaded rows, then the cascade the counted instance logged while
/// loading them (the cascade's relations are disjoint from the
/// preloaded ones, so the interleaving does not matter).
pub fn mirror_world(lower: &mut Lower, world: &World, log: &CascadeLog) {
    let mut scratch = OpRecord::new(0, trace::Class::Tuple, Kind::RulesOp);
    for def in &world.rules {
        lower.add_rule(&def.condition, &mut scratch);
    }
    for (rel, rows) in &world.preload {
        for row in rows {
            lower.tuple_op(
                &Op::Insert {
                    rel: *rel,
                    values: row.clone(),
                },
                &mut scratch,
            );
        }
    }
    let cascade: Vec<CascadeOp> = std::mem::take(&mut *log.lock().expect("cascade log poisoned"));
    for c in &cascade {
        lower.cascade_op(c, &mut scratch);
    }
    for def in &world.late_rules {
        lower.add_rule(&def.condition, &mut scratch);
    }
}

/// The round whose mean top-level span is the median of the rounds':
/// every per-layer mean is taken from this one round, so the layers'
/// self times still add up to the top-level span they are reported
/// beside.
pub fn median_round(rounds: &[Vec<OpRecord>]) -> &[OpRecord] {
    let mean_top = |rows: &Vec<OpRecord>| {
        rows.iter().map(|r| r.ns[r.top as usize]).sum::<u64>() as f64 / rows.len().max(1) as f64
    };
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|&a, &b| mean_top(&rounds[a]).total_cmp(&mean_top(&rounds[b])));
    &rounds[order[order.len() / 2]]
}

/// The rows of one operation class.
pub fn of_class(rows: &[OpRecord], class: Class) -> Vec<&OpRecord> {
    rows.iter().filter(|r| r.class == class).collect()
}

/// Totals over every IBS-tree of an engine's predicate index.
#[derive(Default)]
pub struct TreeTotals {
    pub intervals: usize,
    pub nodes: usize,
    pub markers: usize,
    pub height: u32,
}

pub fn tree_totals(engine: &RuleEngine) -> TreeTotals {
    let mut t = TreeTotals::default();
    for tree in engine
        .shard_stats()
        .iter()
        .flat_map(|shard| &shard.relations)
        .flat_map(|rel| &rel.trees)
    {
        t.intervals += tree.intervals;
        t.nodes += tree.nodes;
        t.markers += tree.markers;
        t.height = t.height.max(tree.height);
    }
    t
}

/// `num / den`, or 0 when the layer did no such work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A registry read relative to a baseline: the counted instance's
/// counters also saw set-up, which the per-op ratios must not include.
pub struct Counts {
    registry: Arc<Registry>,
    base: HashMap<String, (u64, u64)>,
}

impl Counts {
    /// Baselines every metric registered so far at its current value.
    pub fn start(registry: Arc<Registry>) -> Counts {
        let base = registry
            .names()
            .into_iter()
            .map(|name| {
                let at = Self::read(&registry, &name);
                (name, at)
            })
            .collect();
        Counts { registry, base }
    }

    fn read(registry: &Registry, name: &str) -> (u64, u64) {
        match registry.counter_value(name) {
            Some(v) => (v, 0),
            None => registry.histogram_totals(name).unwrap_or((0, 0)),
        }
    }

    fn since(&self, name: &str) -> (u64, u64) {
        let now = Self::read(&self.registry, name);
        let base = self.base.get(name).copied().unwrap_or((0, 0));
        (now.0 - base.0, now.1 - base.1)
    }

    /// A counter's increase since the baseline.
    pub fn counter(&self, name: &str) -> u64 {
        self.since(name).0
    }

    /// A histogram's `(count, sum)` increase since the baseline.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let (c, s) = self.since(name);
        (c as f64, s as f64)
    }
}

/// Per-layer metrics every workload derives the same way: the span
/// means of the median round, the counted instance's registry, and the
/// mirrors' own work counts.
pub struct LayerInputs<'a> {
    pub rounds: &'a [Vec<OpRecord>],
    pub counts: &'a Counts,
    pub lower: &'a Lower,
    /// The counted instance's engine, for tree shapes.
    pub engine: &'a RuleEngine,
    /// Tuple operations among them.
    pub tuple_ops: u64,
    pub overhead_ratio: f64,
    pub spin_ms: f64,
}

/// Fills every per-layer metric below `durable` (those layers are
/// crossed by all four workloads); the callers add `durable.*` and
/// `ruleserv.*`, zero where the workload never reaches the layer.
pub fn lower_layer_metrics(inp: &LayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let rows = median_round(inp.rounds);
    let tuple_rows = of_class(rows, Class::Tuple);
    let add_rows = of_class(rows, Class::AddRule);
    let remove_rows = of_class(rows, Class::RemoveRule);
    let reg = inp.counts;
    let work = inp.lower.work;

    let counter = |name: &str| reg.counter(name) as f64;
    let matches = counter("predindex_match_tuples_total");
    let residual_tests = counter("predindex_residual_tests_total");
    let (_, lock_wait_ns) = reg.hist("predindex_shard_lock_wait_nanos");
    let (depth_n, depth_sum) = reg.hist("rules_cascade_depth");
    let (partials_n, partials_sum) = reg.hist("join_partial_matches");
    let (bytes_n, bytes_sum) = reg.hist("join_memo_bytes");
    let join_events = (work.join_inserts + work.join_retract_calls) as f64;

    let trees = tree_totals(inp.engine);
    let all: Vec<&OpRecord> = inp.rounds.iter().flatten().collect();
    vec![
        (
            "ibs.stab_ns",
            trace::mean_call_ns(&tuple_rows, Kind::IbsStab),
        ),
        (
            "ibs.nodes_per_stab",
            ratio(work.nodes as f64, work.stabs as f64),
        ),
        (
            "ibs.marks_per_stab",
            ratio(work.marks as f64, work.stabs as f64),
        ),
        ("ibs.height", trees.height as f64),
        (
            "ibs.markers_per_interval",
            ratio(trees.markers as f64, trees.intervals as f64),
        ),
        (
            "ibs.insert_ns",
            trace::mean_call_ns(&add_rows, Kind::IbsInsert),
        ),
        (
            "ibs.remove_ns",
            trace::mean_call_ns(&remove_rows, Kind::IbsRemove),
        ),
        (
            "predindex.match_ns",
            trace::mean_call_ns(&tuple_rows, Kind::IndexMatch),
        ),
        (
            "predindex.self_ns",
            trace::mean_self_ns(&tuple_rows, Kind::IndexMatch),
        ),
        (
            "predindex.residual_tests_per_match",
            ratio(residual_tests, matches),
        ),
        (
            "predindex.residual_pass_ratio",
            ratio(counter("predindex_residual_passes_total"), residual_tests),
        ),
        (
            "predindex.non_indexable_per_match",
            ratio(counter("predindex_non_indexable_scanned_total"), matches),
        ),
        (
            "predindex.lock_wait_ns_per_match",
            ratio(lock_wait_ns, matches),
        ),
        (
            "predindex.insert_ns",
            trace::mean_call_ns(&add_rows, Kind::IndexInsert),
        ),
        (
            "predindex.remove_ns",
            trace::mean_call_ns(&remove_rows, Kind::IndexRemove),
        ),
        (
            "predicate.parse_ns",
            trace::mean_call_ns(&add_rows, Kind::Parse),
        ),
        (
            "relation.write_ns",
            trace::mean_call_ns(&tuple_rows, Kind::RelWrite),
        ),
        (
            "joinmemo.insert_ns",
            trace::mean_call_ns(&tuple_rows, Kind::JoinInsert),
        ),
        (
            "joinmemo.retract_ns",
            trace::mean_call_ns(&tuple_rows, Kind::JoinRetract),
        ),
        (
            "joinmemo.probes_per_event",
            ratio(counter("join_probes_total"), join_events),
        ),
        ("joinmemo.partials_live", ratio(partials_sum, partials_n)),
        ("joinmemo.memo_bytes", ratio(bytes_sum, bytes_n)),
        (
            "rules.op_ns",
            trace::mean_call_ns(&tuple_rows, Kind::RulesOp),
        ),
        (
            "rules.self_ns",
            trace::mean_self_ns(&tuple_rows, Kind::RulesOp),
        ),
        (
            "rules.firings_per_op",
            ratio(counter("rules_fired_total"), inp.tuple_ops as f64),
        ),
        ("rules.cascade_depth_mean", ratio(depth_sum, depth_n)),
        (
            "rules.add_rule_ns",
            trace::mean_call_ns(&add_rows, Kind::RulesOp),
        ),
        (
            "rules.remove_rule_ns",
            trace::mean_call_ns(&remove_rows, Kind::RulesOp),
        ),
        ("telemetry.overhead_ratio", inp.overhead_ratio),
        ("machine.spin_ms", inp.spin_ms),
        (
            "trace.negative_self_share",
            trace::negative_self_share(&all),
        ),
    ]
}

/// Cross-checks the mirrors against the counted engine's registry: the
/// mirrors did exactly the stab and memo work the engine did.
fn mirrors_agree(counts: &Counts, lower: &Lower, notes: &mut Vec<String>) -> bool {
    let w = lower.work;
    let pairs = [
        ("predindex_ibs_nodes_visited_total", w.nodes),
        ("predindex_ibs_marks_scanned_total", w.marks),
        ("join_probes_total", w.probes),
        ("join_retractions_total", w.tokens_retracted),
    ];
    let mut ok = true;
    for (name, mirror) in pairs {
        let engine = counts.counter(name);
        if engine != mirror {
            notes.push(format!(
                "mirror disagrees on {name}: engine {engine}, mirror {mirror}"
            ));
            ok = false;
        }
    }
    ok
}

/// What every traced run ends with: the mirror cross-check, the
/// self-time sum check over every row, and the span file of the first
/// round. Adds one note; true if all of it held.
pub fn close_trace(
    cfg: &RunConfig,
    workload: &str,
    rounds: &[Vec<OpRecord>],
    counts: &Counts,
    lower: &Lower,
    mismatches: u64,
    notes: &mut Vec<String>,
) -> bool {
    let agree = mirrors_agree(counts, lower, notes);
    let all: Vec<&OpRecord> = rounds.iter().flatten().collect();
    let broken = trace::broken_sums(&all);
    let path = cfg.out_dir.join(format!("{workload}.trace.json"));
    let wrote = trace::write_chrome(&path, workload, &rounds[0]);
    notes.push(format!(
        "trace: {} ops in {} rounds, spans written to {} ({}), self-time sums broken in {broken} rows, instance mismatches {mismatches}",
        all.len(),
        rounds.len(),
        path.display(),
        if wrote.is_ok() { "ok" } else { "FAILED" },
    ));
    agree && broken == 0 && mismatches == 0 && wrote.is_ok()
}

/// The per-layer metrics of a layer the workload never reaches
/// (`prefix` is `"durable."` or `"ruleserv."`), all zero.
pub fn zeros(prefix: &str) -> Vec<(&'static str, f64)> {
    crate::manifest::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with(prefix))
        .map(|m| (m.name, 0.0))
        .collect()
}
