//! `match_stab` and `rule_churn`: the in-memory `rules::RuleEngine`
//! over the same four relations, read-heavy and write-heavy, one thread
//! pinned to one CPU.
//!
//! * `match_stab` — 20,000 single-relation rules, 50,000 resident
//!   tuples; every op is one `insert_batch` of 128 rows. Each row is
//!   matched on insert; half the rows are rewritten by a rule action and
//!   matched again as updates; every row is finally deleted by a rule
//!   action and matched once more as a delete. So an op is ~320 trips
//!   down the Figure-1 path (hash on relation, one IBS stab per indexed
//!   attribute, the non-indexable sweep, the residual tests) in three
//!   matching levels, and the resident population never changes.
//! * `rule_churn` — ~2,000 hot rules; 99% of ops are `add_rule` with
//!   fresh condition text (parser, bind, IBS insert with rotations) or
//!   `remove_rule` in equal shares, 1% are `insert_batch` of 16 rows.
//!
//! Why batches and not single-tuple writes: every matching level costs
//! one `std::thread::available_parallelism()` call inside
//! `ShardedPredicateIndex::match_batch` — a dozen `/proc` and cgroup
//! reads, 13–25 µs here and the noisiest 13–25 µs in the sandbox. With
//! one tuple per level that call is 80% of an op and the workload
//! measures the host kernel; with 128 it is under 5% and the workload
//! measures the index. The per-call cost still shows, undiluted, in
//! `rules.self_ns` on `join_cascade` and `serve_mixed`.

use super::{
    close_trace, closed_round, end_to_end, lower_layer_metrics, rounds_note, timed_setups,
    tree_totals, warm_up, zeros, Gen, InMem, LayerInputs, Outcome, RoundBuffers, RunConfig,
    RunResult, Tally, Traced, World,
};
use crate::measure;
use crate::mirror::Lower;
use crate::rng::SplitMix64;
use crate::trace::{self, Kind, OpRecord};
use crate::world::{
    int_schema, relation_matches, ActionKind, CascadeLog, Model, Op, RuleDef, TOUCHED,
};
use predicate::parse_predicate;
use predindex::{HashSequentialMatcher, Matcher, PredicateId};
use relation::{Database, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use telemetry::Registry;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    MatchStab,
    RuleChurn,
}

pub fn name(which: Which) -> &'static str {
    match which {
        Which::MatchStab => "match_stab",
        Which::RuleChurn => "rule_churn",
    }
}

const RELATIONS: usize = 4;
const ATTRS: [&str; 4] = ["a", "b", "c", "d"];
/// Domain of `a` and `b`; `c` and `d` draw from `0..SMALL`.
const WIDE: i64 = 1_000_000;
const SMALL: i64 = 1_000;

/// Rounds per nominal second: a round is about 100 ms of work here.
const ROUNDS_PER_SECOND: u64 = 10;

/// Frozen sizes, calibrated once on the 2-CPU authoring container.
struct Sizes {
    rules: usize,
    tuples: usize,
    batch_rows: usize,
    ops_per_round: usize,
    warmup_ops: usize,
    /// Every this many batches the fired set is checked against a
    /// baseline.
    check_every: u64,
}

fn sizes(which: Which) -> Sizes {
    match which {
        Which::MatchStab => Sizes {
            rules: 20_000,
            tuples: 50_000,
            batch_rows: 128,
            ops_per_round: 90,
            warmup_ops: 300,
            check_every: 256,
        },
        Which::RuleChurn => Sizes {
            rules: 2_000,
            tuples: 1_000,
            batch_rows: 16,
            ops_per_round: 15_000,
            warmup_ops: 30_000,
            check_every: 8,
        },
    }
}

fn rel_name(rel: usize) -> String {
    format!("r{rel}")
}

fn tuple_values(rng: &mut SplitMix64) -> Vec<Value> {
    vec![
        Value::Int(rng.range(0, WIDE)),
        Value::Int(rng.range(0, WIDE)),
        Value::Int(rng.range(0, SMALL)),
        Value::Int(rng.range(0, SMALL)),
    ]
}

/// One rule condition over `rel`. The shapes and their shares:
/// 30% a narrow band on `a`/`b`; 25% a band and an open comparison
/// (the band is indexed, the comparison is residual); 15% an equality
/// on `c` and an open comparison; 18% a one-sided comparison near a
/// domain edge; 10% a band and an opaque `isodd` clause; 2‰ two opaque
/// clauses (the non-indexable list). Widths are tuned so a tuple fires
/// about 1.5 of a relation's 5,000 rules.
fn condition(rng: &mut SplitMix64, rel: usize) -> String {
    let r = rel_name(rel);
    let wide = |rng: &mut SplitMix64| if rng.chance(1, 2) { "a" } else { "b" };
    let band = |rng: &mut SplitMix64, x: &str, width: i64| {
        let lo = rng.range(0, WIDE - width);
        format!("{lo} <= {r}.{x} <= {}", lo + width)
    };
    let shape = rng.below(1000);
    if shape < 300 {
        let x = wide(rng);
        band(rng, x, 300)
    } else if shape < 550 {
        let x = wide(rng);
        let y = if x == "a" { "b" } else { "a" };
        let b = band(rng, x, 1_000);
        format!("{b} and {r}.{y} > {}", rng.range(0, WIDE))
    } else if shape < 700 {
        format!(
            "{r}.c = {} and {r}.a < {}",
            rng.range(0, SMALL),
            rng.range(0, WIDE)
        )
    } else if shape < 880 {
        let x = wide(rng);
        let edge = rng.range(0, 1_000);
        if rng.chance(1, 2) {
            format!("{r}.{x} < {edge}")
        } else {
            format!("{r}.{x} > {}", WIDE - edge)
        }
    } else if shape < 998 {
        let x = wide(rng);
        let b = band(rng, x, 1_000);
        format!("isodd({r}.d) and {b}")
    } else {
        format!("isodd({r}.d) and isnegative({r}.c)")
    }
}

fn rule_def(rng: &mut SplitMix64, serial: u64) -> RuleDef {
    let rel = (serial % RELATIONS as u64) as usize;
    RuleDef {
        name: format!("m{serial}"),
        condition: condition(rng, rel),
        action: ActionKind::Noop,
        priority: 0,
    }
}

/// Per relation: rows with `d` in the lower half are rewritten
/// (`d += TOUCHED`), every row with `d` in the upper half or rewritten
/// is deleted — each batch row is deleted exactly once.
fn plumbing() -> Vec<RuleDef> {
    (0..RELATIONS)
        .flat_map(|rel| {
            let r = rel_name(rel);
            [
                RuleDef {
                    name: format!("touch-{r}"),
                    condition: format!("{r}.d < {}", SMALL / 2),
                    action: ActionKind::Touch,
                    priority: 0,
                },
                RuleDef {
                    name: format!("consume-{r}"),
                    condition: format!("{r}.d >= {}", SMALL / 2),
                    action: ActionKind::Consume,
                    priority: 0,
                },
            ]
        })
        .collect()
}

fn world(seed: u64, s: &Sizes) -> World {
    let mut rng = SplitMix64::fork(seed, 1);
    let schemas = (0..RELATIONS)
        .map(|rel| int_schema(&rel_name(rel), &ATTRS))
        .collect();
    let rules = (0..s.rules as u64).map(|n| rule_def(&mut rng, n)).collect();
    let mut rng = SplitMix64::fork(seed, 2);
    let preload = (0..RELATIONS)
        .map(|rel| {
            let rows = (0..s.tuples / RELATIONS)
                .map(|_| tuple_values(&mut rng))
                .collect();
            (rel, rows)
        })
        .collect();
    World {
        schemas,
        rules,
        preload,
        late_rules: plumbing(),
    }
}

/// The op stream of either workload. The resident tuples are never
/// touched, so the models hold the preload and nothing else.
struct Stream {
    which: Which,
    rng: SplitMix64,
    names: Vec<String>,
    models: Vec<Model>,
    batch_rows: usize,
    /// Live ids of the churned rules (the plumbing stays).
    live_rules: Vec<u32>,
    next_rule: u32,
    target_rules: usize,
    serial: u64,
}

impl Stream {
    fn new(which: Which, seed: u64, world: &World, s: &Sizes) -> Stream {
        let mut models: Vec<Model> = world.schemas.iter().cloned().map(Model::new).collect();
        for (rel, rows) in &world.preload {
            for row in rows {
                models[*rel].insert(row.clone());
            }
        }
        let rules = world.rules.len();
        Stream {
            which,
            rng: SplitMix64::fork(seed, 3),
            names: world.rel_names(),
            models,
            batch_rows: s.batch_rows,
            live_rules: (0..rules as u32).collect(),
            next_rule: (rules + world.late_rules.len()) as u32,
            target_rules: rules,
            serial: rules as u64,
        }
    }

    fn batch(&mut self) -> Op {
        let rel = self.rng.below(RELATIONS as u64) as usize;
        let rows = (0..self.batch_rows)
            .map(|_| tuple_values(&mut self.rng))
            .collect();
        Op::InsertBatch { rel, rows }
    }
}

impl Gen for Stream {
    fn next_op(&mut self) -> Op {
        if self.which == Which::MatchStab || self.rng.chance(1, 100) {
            return self.batch();
        }
        // Add and remove with equal odds, reflected at ±5% so the hot
        // set stays the size that fits in cache.
        let low = self.live_rules.len() <= self.target_rules * 95 / 100;
        let high = self.live_rules.len() >= self.target_rules * 105 / 100;
        if low || (self.rng.chance(1, 2) && !high) {
            let def = rule_def(&mut self.rng, self.serial);
            self.serial += 1;
            self.live_rules.push(self.next_rule);
            self.next_rule += 1;
            Op::AddRule(def)
        } else {
            let at = self.rng.below(self.live_rules.len() as u64) as usize;
            Op::RemoveRule {
                id: self.live_rules.swap_remove(at),
            }
        }
    }

    fn models(&self) -> Vec<(&str, &Model)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.models.iter())
            .collect()
    }
}

/// The reference the fired sets are checked against: §2's hash +
/// sequential search over the same rule set, outside every timed
/// section. Tracks `rule_churn`'s adds and removes.
struct Baseline {
    matcher: HashSequentialMatcher,
    db: Database,
    /// Baseline predicate id -> rule id, and back.
    rule_of: HashMap<u32, u32>,
    pid_of: HashMap<u32, u32>,
    next_rule: u32,
    names: Vec<String>,
    checked: u64,
    wrong: u64,
}

impl Baseline {
    fn new(world: &World) -> Baseline {
        let mut db = Database::new();
        for s in &world.schemas {
            db.create_relation(s.clone())
                .expect("distinct relation names");
        }
        let mut b = Baseline {
            matcher: HashSequentialMatcher::new(),
            db,
            rule_of: HashMap::new(),
            pid_of: HashMap::new(),
            next_rule: 0,
            names: world.rel_names(),
            checked: 0,
            wrong: 0,
        };
        for def in world.rules.iter().chain(&world.late_rules) {
            b.add(def);
        }
        b
    }

    fn add(&mut self, def: &RuleDef) {
        let pred = parse_predicate(&def.condition).expect("generated condition parses");
        let pid = self
            .matcher
            .insert(pred, self.db.catalog())
            .expect("generated predicate registers");
        self.rule_of.insert(pid.0, self.next_rule);
        self.pid_of.insert(self.next_rule, pid.0);
        self.next_rule += 1;
    }

    fn fired_by(&self, rel: usize, values: Vec<Value>, into: &mut Vec<u32>) {
        let tuple = Tuple::new(values);
        into.extend(
            self.matcher
                .match_tuple(&self.names[rel], &tuple)
                .iter()
                .map(|pid| self.rule_of[&pid.0]),
        );
    }

    /// Keeps the rule set in step; on a batch, optionally compares the
    /// rules the chain fired with what sequential matching of every
    /// insert and update event predicts (deletes are masked out).
    fn observe(&mut self, op: &Op, out: &Outcome, check: bool) {
        match op {
            Op::AddRule(def) => self.add(def),
            Op::RemoveRule { id } => {
                let pid = self.pid_of.remove(id).expect("baseline holds the rule");
                self.rule_of.remove(&pid);
                self.matcher.remove(PredicateId(pid));
            }
            Op::InsertBatch { rel, rows } if check => {
                let mut expect = Vec::new();
                for row in rows {
                    self.fired_by(*rel, row.clone(), &mut expect);
                    if matches!(row[3], Value::Int(d) if d < SMALL / 2) {
                        let mut touched = row.clone();
                        if let Value::Int(d) = &mut touched[3] {
                            *d += TOUCHED;
                        }
                        self.fired_by(*rel, touched, &mut expect);
                    }
                }
                expect.sort_unstable();
                let mut got = out.fired.clone();
                got.sort_unstable();
                self.checked += 1;
                self.wrong += (got != expect) as u64;
            }
            _ => {}
        }
    }
}

fn describe(which: Which, s: &Sizes, engine: &rules::RuleEngine, notes: &mut Vec<String>) {
    let t = tree_totals(engine);
    notes.push(format!(
        "{}: {} rules ({} indexed intervals, {} tree nodes, {} markers), {} ops/round (= latency samples per round), {} rows per insert_batch",
        name(which),
        engine.rule_count(),
        t.intervals,
        t.nodes,
        t.markers,
        s.ops_per_round,
        s.batch_rows,
    ));
}

pub fn run(which: Which, cfg: &RunConfig) -> RunResult {
    measure::pin_to_one_cpu();
    if cfg.trace {
        run_traced(which, cfg)
    } else {
        run_timed(which, cfg)
    }
}

fn scaled(which: Which, cfg: &RunConfig) -> Sizes {
    let mut s = sizes(which);
    s.ops_per_round = cfg.scaled(s.ops_per_round, 1);
    s.warmup_ops = cfg.scaled(s.warmup_ops, 1);
    s
}

fn run_timed(which: Which, cfg: &RunConfig) -> RunResult {
    let s = scaled(which, cfg);
    let world = world(cfg.seed, &s);
    let mut buf = RoundBuffers::default();
    // Set-up: relations, parse + add every rule, bulk load, warm-up.
    let ((mut target, mut stream, mut tally), setup_s) = timed_setups(&mut buf.reference, |_| {
        let mut stream = Stream::new(which, cfg.seed, &world, &s);
        let mut tally = Tally::default();
        let started = Instant::now();
        let mut target = InMem::build(&world, None, None);
        warm_up(&mut target, &mut stream, s.warmup_ops, &mut tally);
        ((target, stream, tally), started.elapsed().as_secs_f64())
    });

    // The baseline follows the stream from the start, so it must see
    // the warm-up's rule churn too: replay it from a fresh stream.
    let mut baseline = Baseline::new(&world);
    {
        let mut replay = Stream::new(which, cfg.seed, &world, &s);
        let none = Outcome::default();
        for _ in 0..s.warmup_ops {
            baseline.observe(&replay.next_op(), &none, false);
        }
    }

    let mut rounds = Vec::new();
    let mut batches = 0u64;
    for _ in 0..cfg.rounds(ROUNDS_PER_SECOND) {
        let round = closed_round(
            &mut target,
            &mut stream,
            s.ops_per_round,
            &mut buf,
            &mut tally,
            &mut |_, op, out| {
                let batch = matches!(op, Op::InsertBatch { .. });
                batches += batch as u64;
                baseline.observe(
                    op,
                    out,
                    batch && (batches - 1).is_multiple_of(s.check_every),
                );
            },
        );
        rounds.push(round);
    }

    let mut notes = vec![rounds_note(&rounds)];
    describe(which, &s, &target.engine, &mut notes);
    let expected = s.warmup_ops as u64 + (cfg.rounds(ROUNDS_PER_SECOND) * s.ops_per_round) as u64;
    let contents_ok = stream
        .models()
        .iter()
        .all(|(name, model)| relation_matches(&target.engine, name, model));
    notes.push(format!(
        "fired sets checked against hash+sequential baseline: {} batches ({} wrong); resident tuples untouched and every batch row consumed: {contents_ok}; firings/op {:.2}",
        baseline.checked,
        baseline.wrong,
        tally.fired as f64 / tally.attempted as f64,
    ));
    RunResult {
        correct: baseline.wrong == 0
            && baseline.checked > 0
            && contents_ok
            && tally.attempted == expected,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: end_to_end(setup_s, &rounds),
        notes,
    }
}

fn run_traced(which: Which, cfg: &RunConfig) -> RunResult {
    let mut s = scaled(which, cfg);
    // Three long rounds; each op runs on three instances and twice
    // through the stab path.
    s.ops_per_round *= 2;
    let world = world(cfg.seed, &s);
    let registry = Arc::new(Registry::new());
    let log: CascadeLog = Default::default();
    let mut counted = InMem::build(&world, Some(registry.clone()), Some(log.clone()));
    let mut twin = InMem::build(&world, None, None);
    let mut lower = Lower::new(&world.schemas);
    super::mirror_world(&mut lower, &world, &log);
    let mut stream = Stream::new(which, cfg.seed, &world, &s);
    let mut tally = Tally::default();
    let spin_ms = measure::spin_ms();

    let mut stack = Traced {
        top: Kind::RulesOp,
        counted: &mut counted,
        twin: &mut twin,
        durable_mirror: None,
        wal_mirror: None,
        rules_mirror: None,
        lower: &mut lower,
        log,
        rel_names: world.rel_names(),
        origin: Instant::now(),
        counted_ns: 0,
        mismatches: 0,
    };
    for n in 0..s.warmup_ops / 4 {
        stack.op(n as u32, &stream.next_op(), &mut tally);
    }
    let counts = stack.start_counting(registry);

    let mut rounds: Vec<Vec<OpRecord>> = Vec::new();
    let mut twin_ns = 0u64;
    let mut tuple_ops = 0u64;
    let mut op_id = 0u32;
    for _ in 0..cfg.rounds(ROUNDS_PER_SECOND) {
        let mut rows = Vec::with_capacity(s.ops_per_round);
        for _ in 0..s.ops_per_round {
            let op = stream.next_op();
            let rec = stack.op(op_id, &op, &mut tally);
            op_id += 1;
            tuple_ops += (rec.class == trace::Class::Tuple) as u64;
            twin_ns += rec.ns[Kind::RulesOp as usize];
            rows.push(rec);
        }
        rounds.push(rows);
    }
    let counted_ns = stack.counted_ns;
    let mismatches = stack.mismatches;
    drop(stack);

    let mut notes = Vec::new();
    describe(which, &s, &counted.engine, &mut notes);
    let traced_ok = close_trace(
        cfg,
        name(which),
        &rounds,
        &counts,
        &lower,
        mismatches,
        &mut notes,
    );

    let mut metrics = lower_layer_metrics(&LayerInputs {
        rounds: &rounds,
        counts: &counts,
        lower: &lower,
        engine: &counted.engine,
        tuple_ops,
        // Same ops, same process: time with the registry off over time
        // with it on is the throughput ratio on over off.
        overhead_ratio: twin_ns as f64 / counted_ns as f64,
        spin_ms,
    });
    metrics.extend(zeros("durable."));
    metrics.extend(zeros("ruleserv."));
    RunResult {
        correct: traced_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}
