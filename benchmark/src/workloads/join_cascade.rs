//! `join_cascade`: `durable::DurableRuleEngine` in process, group
//! commit every 64 records, a snapshot every 4096, 40 rules of which
//! half are 2- and 3-premise joins, actions that cascade up to three
//! levels, ~30,000 live tuples.
//!
//! Flush policy: `SyncPolicy::EveryN(64)`, `snapshot_every: Some(4096)`;
//! a round is a multiple of 4096 ops and set-up ends on a snapshot
//! boundary, so every round holds the same number of snapshots and
//! fsyncs. Data lives under `benchmark/out/data/` on the checkout's
//! disk.

use super::{
    close_trace, closed_round, end_to_end, lower_layer_metrics, ratio, rounds_note, timed_setups,
    warm_up, zeros, Counts, Dur, Gen, InMem, LayerInputs, RoundBuffers, RunConfig, RunResult,
    Tally, Traced, WalMirror, World,
};
use crate::measure;
use crate::mirror::Lower;
use crate::rng::SplitMix64;
use crate::trace::{self, Kind, OpRecord};
use crate::world::{
    action_registry, engine_fingerprint, int_schema, relation_matches, ActionKind, CascadeLog,
    Model, Op, RuleDef,
};
use durable::{DurableRuleEngine, Options, SyncPolicy};
use joinmemo::CompiledJoin;
use predicate::FunctionRegistry;
use relation::Value;
use rules::RuleEngine;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use telemetry::Registry;

pub const NAME: &str = "join_cascade";

const SNAPSHOT_EVERY: usize = 4096;
pub const OPTIONS: Options = Options {
    sync: SyncPolicy::EveryN(64),
    snapshot_every: Some(SNAPSHOT_EVERY as u64),
};

const ORDERS: usize = 0;
const CUSTOMERS: usize = 1;
const REGIONS: usize = 2;

const N_ORDERS: usize = 20_000;
const N_CUSTOMERS: usize = 10_000;
const N_REGIONS: i64 = 64;
const AMOUNT: i64 = 10_000;
const TIERS: i64 = 8;

/// Frozen op counts: a round is one snapshot period, about a quarter
/// second on the authoring container.
const OPS_PER_ROUND: usize = SNAPSHOT_EVERY;
const ROUNDS_PER_SECOND: u64 = 3;
const WARMUP_OPS: usize = SNAPSHOT_EVERY;
/// Ops after the last round, so the crash leaves WAL frames to replay;
/// a multiple of 64, so every one of them was synced.
const TAIL_OPS: usize = SNAPSHOT_EVERY / 2;
const RECOVERIES: usize = 3;

fn rule(name: String, condition: String, action: ActionKind, priority: i32) -> RuleDef {
    RuleDef {
        name,
        condition,
        action,
        priority,
    }
}

/// 20 single-relation rules (4 of them the cascade's plumbing) and 20
/// join rules (12 two-premise, 8 three-premise). With only 40 rules
/// their constants decide how much every write costs, so they are
/// fixed, not drawn from the seed: the seed picks the tuples and the op
/// stream, and 30,000 tuples average out.
fn rules() -> Vec<RuleDef> {
    use ActionKind::{Consume, Escalate, Noop, Raise};
    let mut out = Vec::new();
    // Level 1: large orders raise an alert (about 7% of order writes
    // fire at least one of these).
    for k in 0..3 {
        let t = AMOUNT - 200 - 100 * k;
        out.push(rule(
            format!("big-order-{k}"),
            format!("orders.amount > {t}"),
            Raise,
            1,
        ));
    }
    for k in 0..3 {
        let t = AMOUNT * 8 / 10 + 300 * k;
        out.push(rule(
            format!("watch-order-{k}"),
            format!("orders.amount > {t}"),
            Noop,
            0,
        ));
    }
    // Level 2: half the alerts escalate to an audit row; every alert is
    // consumed. Level 3: every audit row is consumed. Exactly one
    // consumer per relation — a second would delete a deleted tuple.
    out.push(rule(
        "escalate".into(),
        "alerts.level >= 2".into(),
        Escalate,
        5,
    ));
    out.push(rule(
        "drop-alert".into(),
        "alerts.level >= 0".into(),
        Consume,
        0,
    ));
    out.push(rule(
        "drop-audit".into(),
        "audit.flag >= 0".into(),
        Consume,
        0,
    ));
    out.push(rule("odd-audit".into(), "audit.flag = 1".into(), Noop, 3));
    for k in 0..4 {
        let lo = 10_000 + 20_000 * k;
        out.push(rule(
            format!("credit-band-{k}"),
            format!("{lo} <= customers.credit <= {}", lo + 5_000),
            Noop,
            0,
        ));
    }
    for k in 0..3 {
        out.push(rule(
            format!("region-orders-{k}"),
            format!("orders.region = {}", (7 + 17 * k) % N_REGIONS),
            Noop,
            0,
        ));
    }
    for k in 0..3 {
        out.push(rule(
            format!("tier-{k}"),
            format!("customers.tier = {}", (1 + 3 * k) % TIERS),
            Noop,
            0,
        ));
    }
    for k in 0..12 {
        let tier = k % TIERS;
        let amount = AMOUNT / 2 + (k * 331) % (AMOUNT * 4 / 10);
        out.push(rule(
            format!("join2-{k}"),
            format!(
                "orders.cust = customers.id and customers.tier = {tier} and orders.amount > {amount}"
            ),
            if k < 2 { Raise } else { Noop },
            2,
        ));
    }
    for k in 0..8 {
        let tier = k % (TIERS - 2);
        let amount = AMOUNT / 2 + (k * 577) % (AMOUNT * 4 / 10);
        let risk = 30 + (k * 7) % 50;
        out.push(rule(
            format!("join3-{k}"),
            format!(
                "orders.cust = customers.id and customers.region = regions.id and regions.risk > {risk} and customers.tier >= {tier} and orders.amount > {amount}"
            ),
            Noop,
            2,
        ));
    }
    out
}

fn order(rng: &mut SplitMix64, id: i64, customers: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(rng.range(0, customers)),
        Value::Int(rng.range(0, AMOUNT)),
        Value::Int(rng.range(0, N_REGIONS)),
    ]
}

fn customer(rng: &mut SplitMix64, id: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(rng.range(0, TIERS)),
        Value::Int(rng.range(0, N_REGIONS)),
        Value::Int(rng.range(0, 100_000)),
    ]
}

pub fn world(seed: u64) -> World {
    let schemas = vec![
        int_schema("orders", &["id", "cust", "amount", "region"]),
        int_schema("customers", &["id", "tier", "region", "credit"]),
        int_schema("regions", &["id", "risk", "zone", "pad"]),
        int_schema("alerts", &["ref", "level", "region"]),
        int_schema("audit", &["ref", "level", "flag"]),
    ];
    let rules = rules();
    let mut rng = SplitMix64::fork(seed, 12);
    let regions = (0..N_REGIONS)
        .map(|id| {
            vec![
                Value::Int(id),
                Value::Int(rng.range(0, 100)),
                Value::Int(rng.range(0, 8)),
                Value::Int(0),
            ]
        })
        .collect();
    let customers = (0..N_CUSTOMERS as i64)
        .map(|id| customer(&mut rng, id))
        .collect();
    let orders = (0..N_ORDERS as i64)
        .map(|id| order(&mut rng, id, N_CUSTOMERS as i64))
        .collect();
    // Regions and customers first, so order inserts complete joins.
    World {
        schemas,
        rules,
        preload: vec![(REGIONS, regions), (CUSTOMERS, customers), (ORDERS, orders)],
        late_rules: Vec::new(),
    }
}

/// 70% order writes, 30% customer writes; insert, update and delete in
/// equal thirds, so both populations stay where set-up left them.
pub struct Stream {
    rng: SplitMix64,
    orders: Model,
    customers: Model,
    next_order: i64,
    next_customer: i64,
}

impl Stream {
    pub fn new(seed: u64, world: &World) -> Stream {
        let mut orders = Model::new(world.schemas[ORDERS].clone());
        let mut customers = Model::new(world.schemas[CUSTOMERS].clone());
        for (rel, rows) in &world.preload {
            for row in rows {
                match *rel {
                    ORDERS => orders.insert(row.clone()),
                    CUSTOMERS => customers.insert(row.clone()),
                    _ => continue,
                };
            }
        }
        Stream {
            rng: SplitMix64::fork(seed, 13),
            orders,
            customers,
            next_order: N_ORDERS as i64,
            next_customer: N_CUSTOMERS as i64,
        }
    }

    pub fn live_tuples(&self) -> usize {
        self.orders.len() + self.customers.len() + N_REGIONS as usize
    }
}

impl Gen for Stream {
    fn next_op(&mut self) -> Op {
        let on_orders = self.rng.chance(7, 10);
        let kind = self.rng.below(3);
        let rel = if on_orders { ORDERS } else { CUSTOMERS };
        if kind == 2 {
            let model = if on_orders {
                &mut self.orders
            } else {
                &mut self.customers
            };
            return Op::Delete {
                rel,
                id: model.delete_random(&mut self.rng),
            };
        }
        let values = if on_orders {
            let key = if kind == 0 {
                self.next_order += 1;
                self.next_order - 1
            } else {
                self.rng.range(0, self.next_order)
            };
            order(&mut self.rng, key, self.next_customer)
        } else {
            let key = if kind == 0 {
                self.next_customer += 1;
                self.next_customer - 1
            } else {
                self.rng.range(0, self.next_customer)
            };
            customer(&mut self.rng, key)
        };
        let model = if on_orders {
            &mut self.orders
        } else {
            &mut self.customers
        };
        if kind == 0 {
            model.insert(values.clone());
            Op::Insert { rel, values }
        } else {
            let id = model.update_random(&mut self.rng, values.clone());
            Op::Update { rel, id, values }
        }
    }

    fn models(&self) -> Vec<(&str, &Model)> {
        vec![("orders", &self.orders), ("customers", &self.customers)]
    }
}

/// Every join rule's memo holds exactly what `joinmemo::naive`
/// recomputes from the tables.
pub fn joins_match_naive(engine: &RuleEngine) -> (usize, usize) {
    let (mut checked, mut wrong) = (0, 0);
    let ids: Vec<_> = engine.rules().map(|(id, _)| id).collect();
    for id in ids {
        let rule = engine.rule(id).expect("listed rule exists");
        let Some(memo) = engine.join_matches(id) else {
            continue;
        };
        for (join, mut got) in rule.joins.iter().zip(memo) {
            let compiled = CompiledJoin::compile(join, engine.db().catalog())
                .expect("registered join compiles");
            let mut expect = joinmemo::naive::full_matches(&compiled, engine.db().catalog());
            expect.sort();
            got.sort();
            checked += 1;
            wrong += (got != expect) as usize;
        }
    }
    (checked, wrong)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// What the crash-and-recover step found.
pub struct Recovery {
    /// Median `open` time over the recoveries.
    pub seconds: f64,
    /// WAL frames the first recovery replayed (0 without a registry).
    pub frames: u64,
    pub fingerprint_ok: bool,
}

/// The engine was dropped without a final snapshot; recover `times`
/// times, each on a fresh copy of `dir`, timing `open` until ready.
pub fn recover(
    dir: &Path,
    scratch: &Path,
    opts: Options,
    expect_fingerprint: u64,
    times: usize,
) -> Recovery {
    let mut seconds = Vec::new();
    let mut frames = 0;
    let mut fingerprint_ok = false;
    for n in 0..times {
        copy_dir(dir, scratch).expect("copy crashed directory");
        let registry = Arc::new(Registry::new());
        let started = Instant::now();
        let engine = DurableRuleEngine::open_with_metrics(
            scratch,
            FunctionRegistry::default(),
            action_registry(None),
            opts,
            registry.clone(),
        )
        .expect("recover crashed directory");
        seconds.push(started.elapsed().as_secs_f64());
        if n == 0 {
            frames = registry
                .counter_value("durable_recovery_frames_total")
                .unwrap_or(0);
            fingerprint_ok = engine_fingerprint(engine.engine()) == expect_fingerprint;
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    seconds.sort_by(f64::total_cmp);
    Recovery {
        seconds: seconds[seconds.len() / 2],
        frames,
        fingerprint_ok,
    }
}

pub fn run(cfg: &RunConfig) -> RunResult {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_timed(cfg)
    }
}

fn run_timed(cfg: &RunConfig) -> RunResult {
    let world = world(cfg.seed);
    let ops_per_round = cfg.scaled(OPS_PER_ROUND, SNAPSHOT_EVERY);
    let mut kept: Option<PathBuf> = None;
    let mut buf = RoundBuffers::default();
    let ((mut target, mut stream, mut tally), setup_s) = timed_setups(&mut buf.reference, |rep| {
        let mut stream = Stream::new(cfg.seed, &world);
        let mut tally = Tally::default();
        if let Some(old) = kept.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let dir = cfg.data_dir(&format!("{NAME}-{rep}"));
        let started = Instant::now();
        let mut target = Dur::build(&dir, &world, OPTIONS, None, None);
        warm_up(&mut target, &mut stream, WARMUP_OPS, &mut tally);
        let secs = started.elapsed().as_secs_f64();
        kept = Some(dir);
        ((target, stream, tally), secs)
    });
    let dir = kept.expect("last set-up's directory");

    let mut rounds = Vec::new();
    for _ in 0..cfg.rounds(ROUNDS_PER_SECOND) {
        rounds.push(closed_round(
            &mut target,
            &mut stream,
            ops_per_round,
            &mut buf,
            &mut tally,
            &mut |_, _, _| {},
        ));
    }
    let metrics = end_to_end(setup_s, &rounds);
    warm_up(&mut target, &mut stream, TAIL_OPS, &mut tally);

    let engine = target.engine.engine();
    let (joins_checked, joins_wrong) = joins_match_naive(engine);
    let contents_ok = stream
        .models()
        .iter()
        .all(|(name, model)| relation_matches(engine, name, model));
    let fingerprint = engine_fingerprint(engine);
    let live = stream.live_tuples();
    drop(target);
    let recovery = recover(&dir, &dir.with_extension("copy"), OPTIONS, fingerprint, 1);
    let _ = std::fs::remove_dir_all(&dir);

    let expected = (WARMUP_OPS + cfg.rounds(ROUNDS_PER_SECOND) * ops_per_round + TAIL_OPS) as u64;
    RunResult {
        correct: joins_wrong == 0
            && joins_checked > 0
            && contents_ok
            && recovery.fingerprint_ok
            && tally.attempted == expected,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: vec![rounds_note(&rounds), format!(
            "{NAME}: {} rules, {live} live tuples, {ops_per_round} ops/round (= latency samples per round), firings/op {:.3}; join memos vs naive: {joins_checked} checked, {joins_wrong} wrong; contents match model: {contents_ok}; recovered fingerprint matches: {} ({} frames replayed in {:.3}s)",
            world.rules.len(),
            tally.fired as f64 / tally.attempted as f64,
            recovery.fingerprint_ok,
            recovery.frames,
            recovery.seconds,
        )],
    }
}

/// The `durable.*` per-layer metrics from the counted instance's
/// registry, the spans, the WAL mirror and the recovery step.
pub fn durable_metrics(
    rows: &[&OpRecord],
    counts: &Counts,
    wal: &mut WalMirror,
    tuple_ops: u64,
    live_tuples: usize,
    recovery: &Recovery,
) -> Vec<(&'static str, f64)> {
    let ops = tuple_ops as f64;
    let (fsyncs, _) = counts.hist("wal_fsync_nanos");
    let (snaps, snap_ns) = counts.hist("durable_snapshot_nanos");
    let (snap_files, snap_bytes) = counts.hist("durable_snapshot_bytes");
    let fsync_p50 = if wal.fsync_ns.is_empty() {
        0.0
    } else {
        measure::quantile_ns(&mut wal.fsync_ns, 0.5) / 1e3
    };
    vec![
        ("durable.op_ns", trace::mean_call_ns(rows, Kind::DurableOp)),
        (
            "durable.self_ns",
            trace::mean_self_ns(rows, Kind::DurableOp),
        ),
        (
            "durable.wal_append_ns",
            trace::mean_call_ns(rows, Kind::WalAppend),
        ),
        ("durable.fsync_p50_us", fsync_p50),
        ("durable.fsyncs_per_op", ratio(fsyncs, ops)),
        (
            "durable.wal_bytes_per_op",
            ratio(counts.counter("wal_append_bytes_total") as f64, ops),
        ),
        ("durable.snapshot_ms", ratio(snap_ns, snaps) / 1e6),
        (
            "durable.snapshots_per_1k_ops",
            ratio(counts.counter("durable_snapshots_total") as f64 * 1e3, ops),
        ),
        (
            "durable.snapshot_bytes_per_tuple",
            ratio(ratio(snap_bytes, snap_files), live_tuples as f64),
        ),
        (
            "durable.replay_frames_per_s",
            ratio(recovery.frames as f64, recovery.seconds),
        ),
        ("durable.recovery_s", recovery.seconds),
    ]
}

fn run_traced(cfg: &RunConfig) -> RunResult {
    let world = world(cfg.seed);
    let ops_per_round = cfg.scaled(SNAPSHOT_EVERY, SNAPSHOT_EVERY);
    let registry = Arc::new(Registry::new());
    let log: CascadeLog = Default::default();
    let counted_dir = cfg.data_dir(&format!("{NAME}-counted"));
    let twin_dir = cfg.data_dir(&format!("{NAME}-twin"));
    let mut counted = Dur::build(
        &counted_dir,
        &world,
        OPTIONS,
        Some(registry.clone()),
        Some(log.clone()),
    );
    let mut lower = Lower::new(&world.schemas);
    super::mirror_world(&mut lower, &world, &log);
    let mut twin = Dur::build(&twin_dir, &world, OPTIONS, None, None);
    let mut rules_mirror = InMem::build(&world, None, None);
    let mut wal = WalMirror::create(&twin_dir, OPTIONS.sync);
    let mut stream = Stream::new(cfg.seed, &world);
    let mut tally = Tally::default();
    let spin_ms = measure::spin_ms();

    let mut stack = Traced {
        top: Kind::DurableOp,
        counted: &mut counted,
        twin: &mut twin,
        durable_mirror: None,
        wal_mirror: Some(&mut wal),
        rules_mirror: Some(&mut rules_mirror),
        lower: &mut lower,
        log,
        rel_names: world.rel_names(),
        origin: Instant::now(),
        counted_ns: 0,
        mismatches: 0,
    };
    for n in 0..WARMUP_OPS {
        stack.op(n as u32, &stream.next_op(), &mut tally);
    }
    let counts = stack.start_counting(registry);

    let mut rounds: Vec<Vec<OpRecord>> = Vec::new();
    let mut twin_ns = 0u64;
    let mut ops = 0u64;
    for _ in 0..cfg.rounds(ROUNDS_PER_SECOND) {
        let mut rows = Vec::with_capacity(ops_per_round);
        for _ in 0..ops_per_round {
            let rec = stack.op(ops as u32, &stream.next_op(), &mut tally);
            ops += 1;
            twin_ns += rec.ns[Kind::DurableOp as usize];
            rows.push(rec);
        }
        rounds.push(rows);
    }
    let counted_ns = stack.counted_ns;
    // Leave WAL frames behind for the recovery to replay; these ops are
    // outside the rounds but inside the counts, so count them as ops.
    for _ in 0..TAIL_OPS {
        stack.op(ops as u32, &stream.next_op(), &mut tally);
        ops += 1;
    }
    let mismatches = stack.mismatches;
    drop(stack);

    let mut notes = Vec::new();
    let traced_ok = close_trace(cfg, NAME, &rounds, &counts, &lower, mismatches, &mut notes);

    let fingerprint = engine_fingerprint(twin.engine.engine());
    let same_state = fingerprint == engine_fingerprint(counted.engine.engine())
        && fingerprint == engine_fingerprint(&rules_mirror.engine);
    let (joins_checked, joins_wrong) = joins_match_naive(twin.engine.engine());
    let live = stream.live_tuples();
    let mut metrics = lower_layer_metrics(&LayerInputs {
        rounds: &rounds,
        counts: &counts,
        lower: &lower,
        engine: counted.engine.engine(),
        tuple_ops: ops,
        overhead_ratio: twin_ns as f64 / counted_ns as f64,
        spin_ms,
    });
    drop(twin);
    drop(counted);
    let recovery = recover(
        &twin_dir,
        &twin_dir.with_extension("copy"),
        OPTIONS,
        fingerprint,
        RECOVERIES,
    );
    metrics.extend(durable_metrics(
        &super::of_class(super::median_round(&rounds), trace::Class::Tuple),
        &counts,
        &mut wal,
        ops,
        live,
        &recovery,
    ));
    metrics.extend(zeros("ruleserv."));
    let _ = std::fs::remove_dir_all(&twin_dir);
    let _ = std::fs::remove_dir_all(&counted_dir);
    notes.push(format!(
        "instances end in the same state: {same_state}, join memos vs naive: {joins_checked} checked, {joins_wrong} wrong, recovered fingerprint matches: {}",
        recovery.fingerprint_ok,
    ));
    RunResult {
        correct: traced_ok && same_state && joins_wrong == 0 && recovery.fingerprint_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}
