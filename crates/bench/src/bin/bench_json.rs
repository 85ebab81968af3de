//! The machine-readable benchmark report: one binary, two suites, one
//! schema.
//!
//! ```text
//! cargo run --release -p bench --bin bench_json -- \
//!     [--suite observability|join|all] [--quick] [--out PATH]
//! ```
//!
//! Each suite run appends one line to `--out` (default
//! `BENCH_history.jsonl`, the committed trajectory at the repo root):
//!
//! ```text
//! {"schema":"bench/report-v1","suite":"join","quick":false,"commit":"<git rev-parse HEAD>","rows":[...]}
//! ```
//!
//! * `observability` — the §5.2 scheme-cost sweep, the telemetry and
//!   profiler-attribution overhead pairs, the raw cost of one counter
//!   increment / histogram record, and the heap allocations per event
//!   of one 128-row batch through a `match_stab`-shaped engine (a
//!   count, exact on any host: this binary's allocator is `System`
//!   plus one relaxed add), and the tests one §5.2-scenario match runs
//!   (a count too, read off `predindex_residual_tests_total`), and the
//!   live heap bytes per interval of that engine's IBS-trees, per
//!   predicate of its whole predicate index, and per rule of the engine
//!   beyond that index (counts);
//! * `join` — memoized vs naive per-insert cost for 2- and 3-premise
//!   join rules; the cost of one `JoinEngine::retract` from a premise
//!   no equality step keys, at three alpha-memory sizes; the cost of
//!   one snapshot `capture` at two token counts (these two must stay
//!   flat); and the live heap bytes per alpha entry of 20 memos over
//!   the same 10k rows (a count, like the allocation row: memos share
//!   the rows, so it stays near a table slot).
//!
//! Every row has a `name`; timing rows carry `ns_per_op`, rows of runs
//! with a live registry carry the final `counters` so shape regressions
//! (more residual tests, more nodes visited) show even when wall-clock
//! noise hides them. Ratios and speedups are not stored:
//! `.github/bench_gate.py` derives them from the rows and holds the
//! bounds. `--quick` trims sweeps and run counts for CI. See
//! EXPERIMENTS.md, "Machine-readable results", for the row names.

use bench::costmodel;
use bench::scheme::SchemeWorkload;
use bench::stab_shape;
use bench::timing::{consume, median, median_ns_per_op, min_ns, time_ns};
use ibs::IbsTree;
use interval::{Interval, IntervalId};
use joinmemo::naive::full_matches;
use joinmemo::{CompiledJoin, JoinEngine};
use predicate::selectivity::most_selective_indexable;
use predicate::{parse_predicate, BoundClause};
use predindex::{Matcher, PredicateId, PredicateIndex};
use relation::{AttrType, Catalog, Database, Schema, Tuple, Value};
use rules::{Action, Rule, RuleEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::json::JsonWriter;
use telemetry::{Registry, Telemetry, Tracer};

/// Allocator calls that obtained memory (`alloc`, `realloc`) since the
/// process started — what `engine/allocs_per_event/batch128` reads.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed — what
/// `join/bytes_per_alpha_entry/memos20` reads.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A suite appends its rows to the open `rows` array.
type Suite = fn(&Config, &mut JsonWriter);

const SUITES: [(&str, Suite); 2] = [("observability", observability), ("join", join)];

struct Config {
    suite: String,
    quick: bool,
    out: String,
}

impl Config {
    /// `full` normally, `quick` under `--quick`.
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: bench_json [--suite observability|join|all] [--quick] [--out PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        suite: "all".to_string(),
        quick: false,
        out: "BENCH_history.jsonl".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--suite" => cfg.suite = args.next().unwrap_or_else(|| usage("--suite needs a name")),
            "--out" => cfg.out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cfg.suite != "all" && SUITES.iter().all(|(name, _)| *name != cfg.suite) {
        usage(&format!("unknown suite {:?}", cfg.suite));
    }
    cfg
}

/// `git rev-parse HEAD` of the tree the binary was run in, with a
/// `-dirty` suffix when the tree differs from it — a line measured
/// before its commit exists says so instead of naming the parent.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain"]) {
            Some(changes) if !changes.is_empty() => format!("{head}-dirty"),
            _ => head,
        },
        None => "unknown".to_string(),
    }
}

/// Opens a timing row — `name` and `ns_per_op` — and leaves it open
/// for the caller's extra members and `end_object()`.
fn timing_row<'w>(w: &'w mut JsonWriter, name: &str, ns_per_op: f64) -> &'w mut JsonWriter {
    eprintln!("{name}: {ns_per_op:.1} ns/op");
    w.begin_object();
    w.key("name").string(name);
    w.key("ns_per_op").float(ns_per_op, 1)
}

/// The `counters` member: every counter in `registry`, sorted by name.
fn counters(w: &mut JsonWriter, registry: &Registry) {
    w.key("counters").begin_object();
    for name in registry.names() {
        if let Some(value) = registry.counter_value(&name) {
            w.key(&name).uint(value);
        }
    }
    w.end_object();
}

// ---------------------------------------------------------------------
// observability
// ---------------------------------------------------------------------

/// A §5.2 scenario index recording into `telemetry`.
fn scheme_index(w: &SchemeWorkload, telemetry: Telemetry) -> PredicateIndex {
    let db = w.database();
    let mut index = PredicateIndex::new();
    index.attach_metrics(telemetry);
    for p in w.predicates() {
        index
            .insert(p, db.catalog())
            .expect("valid scenario predicate");
    }
    index
}

/// Nanoseconds per tuple of one pass of `tuples` through `index`.
fn scheme_pass_ns(index: &PredicateIndex, tuples: &[Tuple], out: &mut Vec<PredicateId>) -> f64 {
    let ns = time_ns(|| {
        for t in tuples {
            out.clear();
            index.match_tuple_into(SchemeWorkload::RELATION, t, out);
        }
    });
    ns / tuples.len() as f64
}

fn scheme_cost(cfg: &Config, w: &mut JsonWriter) {
    for &preds in cfg.pick(&[200, 1000][..], &[200, 1000, 5000][..]) {
        let workload = SchemeWorkload {
            predicates: preds,
            ..SchemeWorkload::default()
        };
        let tuples = workload.tuples(cfg.pick(128, 512));
        let index = scheme_index(&workload, Telemetry::disabled());
        let mut out = Vec::with_capacity(64);
        let runs = (0..cfg.pick(5, 9)).map(|_| scheme_pass_ns(&index, &tuples, &mut out));
        let ns = median(runs.collect());
        timing_row(w, &format!("scheme_cost/preds{preds}"), ns).end_object();
    }
}

fn telemetry_overhead(cfg: &Config, w: &mut JsonWriter) {
    let workload = SchemeWorkload::default();
    let tuples = workload.tuples(cfg.pick(128, 512));
    // disabled: the regression guard — every hook is one branch.
    // counters: live registry, tracing off.
    // tracing: live registry plus a span ring (wraps freely).
    let modes = [
        ("disabled", false, false),
        ("counters", true, false),
        ("tracing", true, true),
    ];
    let indexes: Vec<_> = modes
        .iter()
        .map(|&(_, counters_on, tracing_on)| {
            let registry = Arc::new(if counters_on {
                Registry::new()
            } else {
                Registry::disabled()
            });
            let tracer = if tracing_on {
                Tracer::new(telemetry::DEFAULT_TRACE_CAPACITY)
            } else {
                Tracer::disabled()
            };
            let telemetry = Telemetry::new(Arc::clone(&registry)).with_tracer(tracer);
            (registry, scheme_index(&workload, telemetry))
        })
        .collect();
    // One pass of each mode per round, so a neighbour's burst lands on
    // all three modes' samples rather than on one mode's whole block.
    let mut samples = vec![Vec::new(); modes.len()];
    let mut out = Vec::with_capacity(64);
    for _ in 0..cfg.pick(5, 9) {
        for ((_, index), mode_samples) in indexes.iter().zip(&mut samples) {
            mode_samples.push(scheme_pass_ns(index, &tuples, &mut out));
        }
    }
    for ((&(mode, counters_on, _), (registry, _)), mode_samples) in
        modes.iter().zip(&indexes).zip(samples)
    {
        let row = timing_row(
            w,
            &format!("telemetry_overhead/{mode}"),
            median(mode_samples),
        );
        if counters_on {
            counters(row, registry);
        }
        row.end_object();
    }
}

/// The raw cost of the two recording primitives on live handles. (On
/// disabled handles both are one branch the optimizer deletes with the
/// loop; `telemetry_overhead/disabled` against `scheme_cost/preds200`
/// is the guard for that side.)
fn telemetry_primitive(cfg: &Config, w: &mut JsonWriter) {
    const OPS: usize = 1024;
    let registry = Registry::new();
    let counter = registry.counter("bench_counter_total");
    let histogram = registry.histogram("bench_histogram");
    let runs = cfg.pick(9, 31);
    let ns = median_ns_per_op(runs, OPS, || {
        for _ in 0..OPS {
            counter.inc();
        }
        consume(counter.get());
    });
    timing_row(w, "telemetry_primitive/counter_inc", ns).end_object();
    let ns = median_ns_per_op(runs, OPS, || {
        for v in 0..OPS as u64 {
            histogram.record(consume(v));
        }
        consume(histogram.count());
    });
    timing_row(w, "telemetry_primitive/histogram_record", ns).end_object();
}

/// A rule engine loaded with salary-band rules: the attribution
/// workload. `profiled` attaches live per-rule cost accounts.
fn band_engine(profiled: bool, registry: &Arc<Registry>) -> RuleEngine {
    let mut telemetry = Telemetry::new(Arc::clone(registry));
    if profiled {
        telemetry = telemetry.with_profiling();
    }
    let mut engine = RuleEngine::new(Database::new());
    engine.attach_metrics(telemetry);
    engine
        .create_relation(
            Schema::builder("emp")
                .attr("name", AttrType::Str)
                .attr("age", AttrType::Int)
                .attr("salary", AttrType::Int)
                .build(),
        )
        .expect("create emp");
    for i in 0i64..16 {
        let rule = Rule::builder(format!("band{i}"))
            .when(&format!(
                "emp.salary >= {} and emp.salary < {}",
                i * 1000,
                (i + 1) * 1000
            ))
            .expect("valid band condition")
            .then(Action::log("hit"))
            .build();
        engine.add_rule(rule).expect("add band rule");
    }
    engine
}

/// The cost-attribution guard: the full rule-chain insert path with the
/// profiler detached (`baseline` — every profiler hook is one branch)
/// versus attached (`profiled` — per-rule accounts billed per event).
fn attribution_overhead(cfg: &Config, w: &mut JsonWriter) {
    let inserts = cfg.pick(128, 512);
    for (mode, profiled) in [("baseline", false), ("profiled", true)] {
        let registry = Arc::new(Registry::new());
        let mut engine = band_engine(profiled, &registry);
        let mut i = 0i64;
        let ns = median_ns_per_op(cfg.pick(5, 9), inserts, || {
            for _ in 0..inserts {
                engine
                    .insert(
                        "emp",
                        vec![
                            Value::str("e"),
                            Value::Int(20 + (i % 50)),
                            Value::Int((i * 37) % 16_000),
                        ],
                    )
                    .expect("band insert");
                i += 1;
            }
        });
        let row = timing_row(w, &format!("attribution_overhead/{mode}"), ns);
        counters(row, &registry);
        row.end_object();
    }
}

/// The recognize-act cycle's allocation budget: one warmed 128-row
/// `insert_batch` through [`stab_shape`]'s engine — insert, rewrite
/// half, delete all, three matching levels — counted by this binary's
/// allocator. The same shape, seeds and batch the tier-1 test
/// `rules/tests/alloc_budget.rs` pins; not a timing, so `--quick`
/// changes nothing.
fn allocs_per_event(w: &mut JsonWriter) {
    const NAME: &str = "engine/allocs_per_event/batch128";
    let mut engine = stab_shape::engine(2_000, 1);
    engine
        .insert_batch(stab_shape::RELATION, stab_shape::rows(128, 2))
        .expect("warm-up batch");
    let rows = stab_shape::rows(128, 3);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = engine
        .insert_batch(stab_shape::RELATION, rows)
        .expect("measured batch");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let events = report.ops_applied as u64;
    let per_event = allocations as f64 / events as f64;
    eprintln!("{NAME}: {allocations} allocations / {events} events = {per_event:.3}");
    w.begin_object();
    w.key("name").string(NAME);
    w.key("allocs_per_event").float(per_event, 3);
    w.key("allocations").uint(allocations);
    w.key("events").uint(events);
    w.key("firings").uint(report.fired.len() as u64);
    w.end_object();
}

/// The tests one match runs on the §5.2 scenario (200 predicates, 512
/// tuples): `predindex_residual_tests_total` over the match loop, one
/// per tree candidate plus one per opaque clause set swept. A count,
/// exact on any host, so `--quick` changes nothing.
fn residual_tests_per_match(w: &mut JsonWriter) {
    const NAME: &str = "predindex/residual_tests_per_match/scheme200";
    let work = costmodel::measure_work(&SchemeWorkload::default(), 512);
    let per_match = work.residual_tests_per_tuple();
    eprintln!("{NAME}: {per_match:.3} tests per match");
    w.begin_object();
    w.key("name").string(NAME);
    w.key("residual_tests_per_match").float(per_match, 3);
    w.key("tuples").uint(work.tuples);
    w.key("residual_tests").uint(work.residual_tests);
    w.key("sweep_tests").uint(work.seq_tests);
    w.key("matches").uint(work.matches);
    w.end_object();
}

/// Live heap bytes per indexed interval of [`stab_shape`]'s IBS-trees
/// (5,000 band rules: one `match_stab` relation). The trees are rebuilt
/// here from the engine's conditions, each predicate placed as the index
/// places it — under its most selective range clause — and checked equal
/// to the engine's own trees in intervals, nodes and marks; then they
/// are counted by this binary's allocator from before the first insert.
/// `IbsTree::approx_bytes` sits beside the count. Not a timing, so
/// `--quick` changes nothing.
fn ibs_bytes_per_interval(w: &mut JsonWriter) {
    const NAME: &str = "ibs/bytes_per_interval/stab_shape";
    const RULES: usize = 5_000;
    let conditions = stab_shape::conditions(RULES, 1);
    let db = stab_shape::database();
    let catalog = db.catalog();
    let relation = catalog
        .relation(stab_shape::RELATION)
        .expect("the shape's relation");
    let placed: Vec<(usize, Interval<Value>)> = conditions
        .iter()
        .map(|text| {
            let predicate = parse_predicate(text).expect("a generated condition parses");
            let bound = predicate
                .bind(relation.schema())
                .expect("r has the attributes named");
            let clause = most_selective_indexable(catalog, &bound)
                .expect("every shape condition has a range clause");
            match &bound.clauses()[clause] {
                BoundClause::Range { attr, interval } => (*attr, interval.clone()),
                other => panic!("most_selective_indexable picked {other:?}"),
            }
        })
        .collect();
    let mut trees: Vec<IbsTree<Value>> = (0..4).map(|_| IbsTree::new()).collect();
    let before = LIVE.load(Ordering::Relaxed);
    for (id, (attr, interval)) in (0..).zip(&placed) {
        trees[*attr]
            .insert(IntervalId(id), interval.clone())
            .expect("fresh id");
    }
    let live = (LIVE.load(Ordering::Relaxed) - before) as u64;

    let engine = stab_shape::engine(RULES, 1);
    let engine_trees: Vec<(usize, usize, usize, usize)> = engine.shard_stats()[0].relations[0]
        .trees
        .iter()
        .map(|t| (t.attr, t.intervals, t.nodes, t.markers))
        .collect();
    let rebuilt: Vec<(usize, usize, usize, usize)> = (0..)
        .zip(&trees)
        .filter(|(_, t)| !t.is_empty())
        .map(|(attr, t)| (attr, t.len(), t.node_count(), t.marker_count()))
        .collect();
    assert_eq!(rebuilt, engine_trees, "the rebuilt trees are the engine's");
    let sum = |count: fn(&IbsTree<Value>) -> usize| trees.iter().map(count).sum::<usize>();
    let (intervals, approx) = (sum(IbsTree::len), sum(IbsTree::approx_bytes));
    let per_interval = live as f64 / intervals as f64;
    eprintln!(
        "{NAME}: {live} live bytes / {intervals} intervals = {per_interval:.1} (approx_bytes {approx})"
    );
    w.begin_object();
    w.key("name").string(NAME);
    w.key("bytes_per_interval").float(per_interval, 1);
    w.key("live_bytes").uint(live);
    w.key("approx_bytes").uint(approx as u64);
    w.key("intervals").uint(intervals as u64);
    w.key("nodes").uint(sum(IbsTree::node_count) as u64);
    w.key("markers").uint(sum(IbsTree::marker_count) as u64);
    w.end_object();
}

/// Live heap bytes per registered predicate of a [`PredicateIndex`]
/// holding [`stab_shape`]'s conditions (5,000 band rules plus the two
/// plumbing rules: one `match_stab` relation) — trees, both
/// `PREDICATES` tables, source forms and residuals — counted by this
/// binary's allocator from before the index exists, parsing included
/// (a parsed predicate moves into the index). Its structure is checked
/// equal to the engine's own index. `PredicateIndex::approx_bytes` sits
/// beside the count. Not a timing, so `--quick` changes nothing.
fn predindex_bytes_per_predicate(w: &mut JsonWriter) {
    const NAME: &str = "predindex/bytes_per_predicate/stab_shape";
    let (index, live) = stab_shape_index();
    let predicates = index.len();
    let approx = index.approx_bytes();
    let per_predicate = live as f64 / predicates as f64;
    eprintln!(
        "{NAME}: {live} live bytes / {predicates} predicates = {per_predicate:.1} (approx_bytes {approx})"
    );
    w.begin_object();
    w.key("name").string(NAME);
    w.key("bytes_per_predicate").float(per_predicate, 1);
    w.key("live_bytes").uint(live);
    w.key("approx_bytes").uint(approx as u64);
    w.key("predicates").uint(predicates as u64);
    w.end_object();
}

/// Band rules in the byte rows' `stab_shape` engine: one `match_stab`
/// relation.
const STAB_SHAPE_RULES: usize = 5_000;

/// [`stab_shape`]'s conditions at [`STAB_SHAPE_RULES`] band rules,
/// parsed into a bare [`PredicateIndex`], and the live heap bytes the
/// index holds, counted from before it exists (a parsed predicate moves
/// into it). The index is checked equal to the engine's own.
fn stab_shape_index() -> (PredicateIndex, u64) {
    let conditions = stab_shape::conditions(STAB_SHAPE_RULES, 1);
    let db = stab_shape::database();
    let before = LIVE.load(Ordering::Relaxed);
    let mut index = PredicateIndex::new();
    for text in &conditions {
        let predicate = parse_predicate(text).expect("a generated condition parses");
        index
            .insert(predicate, db.catalog())
            .expect("r has the attributes named");
    }
    let live = (LIVE.load(Ordering::Relaxed) - before) as u64;
    let engine = stab_shape::engine(STAB_SHAPE_RULES, 1);
    assert_eq!(
        index.stats(),
        engine.shard_stats()[0],
        "the rebuilt index is the engine's"
    );
    (index, live)
}

/// Live heap bytes per rule that a [`RuleEngine`] holding
/// [`stab_shape`]'s rules (5,000 band rules plus the two plumbing rules)
/// keeps beyond its predicate index: the engine's bytes, counted from
/// before it exists, less those of a bare index over the same
/// conditions. A condition lives once, in the index, so what is left is
/// each rule's slot, name, action and id list. Not a timing, so
/// `--quick` changes nothing.
fn rules_bytes_per_rule(w: &mut JsonWriter) {
    const NAME: &str = "rules/bytes_per_rule/stab_shape";
    let before = LIVE.load(Ordering::Relaxed);
    let engine = stab_shape::engine(STAB_SHAPE_RULES, 1);
    let live = (LIVE.load(Ordering::Relaxed) - before) as u64;
    let (_, index_bytes) = stab_shape_index();
    let rules = engine.rule_count();
    let per_rule = (live - index_bytes) as f64 / rules as f64;
    eprintln!(
        "{NAME}: ({live} engine bytes - {index_bytes} index bytes) / {rules} rules = {per_rule:.1}"
    );
    w.begin_object();
    w.key("name").string(NAME);
    w.key("bytes_per_rule").float(per_rule, 1);
    w.key("live_bytes").uint(live);
    w.key("index_bytes").uint(index_bytes);
    w.key("rules").uint(rules as u64);
    w.end_object();
}

fn observability(cfg: &Config, w: &mut JsonWriter) {
    scheme_cost(cfg, w);
    telemetry_overhead(cfg, w);
    telemetry_primitive(cfg, w);
    attribution_overhead(cfg, w);
    allocs_per_event(w);
    residual_tests_per_match(w);
    ibs_bytes_per_interval(w);
    predindex_bytes_per_predicate(w);
    rules_bytes_per_rule(w);
}

// ---------------------------------------------------------------------
// join
// ---------------------------------------------------------------------

/// One join configuration: a condition and the relations it spans
/// (preload round-robins over them).
struct JoinCase {
    premises: usize,
    condition: &'static str,
    relations: &'static [&'static str],
}

const JOIN_CASES: [JoinCase; 2] = [
    JoinCase {
        premises: 2,
        condition: "emp.dno = dept.dno",
        relations: &["emp", "dept"],
    },
    JoinCase {
        premises: 3,
        condition: "emp.dno = dept.dno and dept.dno = proj.dno",
        relations: &["emp", "dept", "proj"],
    },
];

/// emp(dno, salary) / dept(dno, floor) / proj(dno, badge): all lead
/// with the join key, so one row shape serves every relation.
fn join_db() -> Database {
    let mut db = Database::new();
    for (relation, other) in [("emp", "salary"), ("dept", "floor"), ("proj", "badge")] {
        db.create_relation(
            Schema::builder(relation)
                .attr("dno", AttrType::Int)
                .attr(other, AttrType::Int)
                .build(),
        )
        .expect("fresh database");
    }
    db
}

/// Tuple number `i`: a deterministic well-spread join key from a
/// domain of `keys` (scaled with n, so each key collides with a
/// handful of tuples per relation regardless of database size).
fn join_tuple(i: u64, keys: i64) -> Vec<Value> {
    let key = ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % keys as u64) as i64;
    vec![Value::Int(key), Value::Int((i % 97) as i64)]
}

fn join_rule(condition: &str) -> Rule {
    Rule::builder("join-bench")
        .when(condition)
        .expect("bench condition parses")
        .then(Action::log("joined"))
        .build()
}

/// Inserts `n` tuples round-robin across the case's relations.
fn preload(engine: &mut RuleEngine, case: &JoinCase, n: usize, keys: i64) {
    for i in 0..n as u64 {
        let relation = case.relations[(i % case.relations.len() as u64) as usize];
        engine
            .insert(relation, join_tuple(i, keys))
            .expect("preload");
    }
}

/// Steady-state per-insert cost two ways. **memoized**: the insert
/// flows through an engine whose join memo extends partial matches
/// incrementally. **naive**: the insert lands in a rule-less engine
/// and the full match set is recomputed by a from-scratch hash join —
/// the cost a system without memoization pays per event. Both report
/// their complete-match count after timing; the two must agree.
fn join_case(cfg: &Config, w: &mut JsonWriter, case: &JoinCase, n: usize) {
    // ~8 tuples per key per relation: per-insert fan-out stays flat
    // while the naive evaluator's full scan grows with n.
    let keys = (n as i64 / 8).max(4);
    let probes = cfg.pick(32, 64);
    let runs = cfg.pick(3, 7);
    let base = format!("join/{}premise/n{n}", case.premises);
    let rule = join_rule(case.condition);

    let mut engine = RuleEngine::new(join_db());
    let id = engine.add_rule(rule.clone()).expect("rule adds");
    preload(&mut engine, case, n, keys);
    let mut next = n as u64;
    let ns = median_ns_per_op(runs, probes, || {
        for _ in 0..probes {
            engine
                .insert("emp", join_tuple(next, keys))
                .expect("probe insert");
            next += 1;
        }
    });
    let matches: usize = engine
        .join_matches(id)
        .map_or(0, |per_cond| per_cond.iter().map(Vec::len).sum());
    timing_row(w, &format!("{base}/memoized"), ns)
        .key("complete_matches")
        .uint(matches as u64)
        .end_object();

    let mut engine = RuleEngine::new(join_db());
    preload(&mut engine, case, n, keys);
    let compiled = CompiledJoin::compile(&rule.joins[0], engine.db().catalog())
        .expect("bench condition compiles");
    let mut next = n as u64;
    let mut matches = 0usize;
    let ns = median_ns_per_op(runs, probes, || {
        for _ in 0..probes {
            engine
                .insert("emp", join_tuple(next, keys))
                .expect("probe insert");
            next += 1;
            matches = consume(full_matches(&compiled, engine.db().catalog()).len());
        }
    });
    timing_row(w, &format!("{base}/naive"), ns)
        .key("complete_matches")
        .uint(matches as u64)
        .end_object();
}

/// An engine holding `n` `dept` and `n` `emp` tuples, one of each per
/// join key, and the rule `emp.dno = dept.dno` seeded over them (not
/// fired: the log stays empty). Premises sort by relation, so `dept`
/// is premise 0 — the one no equality step keys — and the memo holds
/// `2n` tokens.
fn paired_engine(n: usize) -> RuleEngine {
    let mut engine = RuleEngine::new(join_db());
    for i in 0..n as i64 {
        for relation in ["dept", "emp"] {
            engine
                .insert(relation, vec![Value::Int(i), Value::Int(i % 97)])
                .expect("preload");
        }
    }
    engine
        .add_rule(join_rule(JOIN_CASES[0].condition))
        .expect("rule adds");
    engine
}

/// One `JoinEngine::retract` of a premise-0 tuple — its own token and
/// the one complete match under it — with `n` tuples in that alpha
/// memory. The memo is driven directly; each run's victims are fed
/// back in, untimed, so every run sees the same memo.
fn join_retract(cfg: &Config, w: &mut JsonWriter, n: usize, label: &str) {
    let engine = paired_engine(n);
    let catalog = engine.db().catalog();
    let condition = join_rule(JOIN_CASES[0].condition).joins.remove(0);
    let compiled = CompiledJoin::compile(&condition, catalog).expect("bench condition compiles");
    let mut memo = JoinEngine::new();
    memo.register(0, compiled);
    memo.seed(0, catalog);

    let dept = catalog.relation("dept").expect("preloaded");
    let calls = cfg.pick(128, 512);
    // Spread over the whole memory, not its most recent corner.
    let victims: Vec<_> = dept.iter().step_by(n / calls).take(calls).collect();
    let mut retracted = 0;
    // Seven runs under `--quick` too: the gate bounds the ratio of two
    // of these minima, and a quick run's calls take ~30 µs, so the
    // runs cost nothing and a fourth to seventh one keeps a neighbour's
    // time slice out of the minimum.
    let ns = min_ns(7, || {
        let ns = time_ns(|| {
            for (id, _) in &victims {
                retracted = consume(memo.retract("dept", id.0));
            }
        });
        for (id, tuple) in &victims {
            memo.insert(0, 0, id.0, tuple);
        }
        ns / calls as f64
    });
    timing_row(w, &format!("join/retract/alpha{label}"), ns)
        .key("tokens_per_call")
        .uint(retracted)
        .end_object();
}

/// One snapshot `capture` of an engine whose memo holds `tokens`
/// tokens: everything a snapshot does before it encodes.
fn join_snapshot_capture(cfg: &Config, w: &mut JsonWriter, tokens: usize, label: &str) {
    let engine = paired_engine(tokens / 2);
    let specs = std::collections::HashMap::new();
    let calls = cfg.pick(16, 64);
    let ns = min_ns(cfg.pick(3, 7), || {
        time_ns(|| {
            for _ in 0..calls {
                let snap = durable::snapshot::capture(&engine, &specs, 0).expect("capturable");
                consume(snap.join_fingerprint);
            }
        }) / calls as f64
    });
    let held: usize = engine
        .join_stats()
        .iter()
        .flat_map(|(_, _, memos)| memos)
        .map(|memo| memo.level_counts.iter().sum::<usize>())
        .sum();
    timing_row(w, &format!("join/snapshot_capture/tokens{label}"), ns)
        .key("tokens")
        .uint(held as u64)
        .end_object();
}

/// Live heap bytes per alpha entry: 20 memos of `customers.id =
/// orders.customer` seeded over the same 10k `orders` rows (four ints,
/// the row `join_cascade` writes) and no `customers` row, so no token —
/// what the memos hold is alpha entries and their key buckets. Counted
/// by this binary's allocator from before the memos exist, so the
/// rows themselves (the catalog's) are in it only if a memo copies
/// them. Not a timing, so `--quick` changes nothing.
fn join_bytes_per_alpha_entry(w: &mut JsonWriter) {
    const NAME: &str = "join/bytes_per_alpha_entry/memos20";
    const MEMOS: u64 = 20;
    const ROWS: i64 = 10_000;
    let mut catalog = Catalog::new();
    for relation in ["customers", "orders"] {
        let schema = ["id", "customer", "amount", "region"]
            .iter()
            .fold(Schema::builder(relation), |s, a| s.attr(*a, AttrType::Int));
        catalog
            .create_relation(schema.build())
            .expect("fresh catalog");
    }
    let orders = catalog.relation_mut("orders").expect("just created");
    for i in 0..ROWS {
        let row = [i, i * 7 % 1_000, i * 37 % 10_000, i % 8].map(Value::Int);
        orders.insert(row.to_vec()).expect("a well-typed row");
    }
    let condition = join_rule("customers.id = orders.customer").joins.remove(0);
    let compiled = CompiledJoin::compile(&condition, &catalog).expect("bench condition compiles");

    let before = LIVE.load(Ordering::Relaxed);
    let mut memos = JoinEngine::new();
    for key in 0..MEMOS {
        memos.register(key, compiled.clone());
        memos.seed(key, &catalog);
    }
    let live = (LIVE.load(Ordering::Relaxed) - before) as u64;
    let stats = memos.stats();
    let entries: usize = stats.iter().flat_map(|s| &s.alpha_counts).sum();
    assert!(
        stats.iter().all(|s| s.level_counts.iter().all(|&n| n == 0)),
        "no customers row, so no token"
    );
    let per_entry = live as f64 / entries as f64;
    eprintln!("{NAME}: {live} live bytes / {entries} alpha entries = {per_entry:.1}");
    w.begin_object();
    w.key("name").string(NAME);
    w.key("bytes_per_entry").float(per_entry, 1);
    w.key("live_bytes").uint(live);
    w.key("alpha_entries").uint(entries as u64);
    w.end_object();
}

fn join(cfg: &Config, w: &mut JsonWriter) {
    for case in &JOIN_CASES {
        for &n in cfg.pick(&[1_000][..], &[1_000, 10_000][..]) {
            join_case(cfg, w, case, n);
        }
    }
    for (n, label) in [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")] {
        join_retract(cfg, w, n, label);
    }
    for (tokens, label) in [(10_000, "10k"), (100_000, "100k")] {
        join_snapshot_capture(cfg, w, tokens, label);
    }
    join_bytes_per_alpha_entry(w);
}

fn main() {
    let cfg = parse_args();
    let commit = commit();
    for (name, suite) in SUITES {
        if cfg.suite != "all" && cfg.suite != name {
            continue;
        }
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("bench/report-v1");
        w.key("suite").string(name);
        w.key("quick").bool(cfg.quick);
        w.key("commit").string(&commit);
        w.key("rows").begin_array();
        suite(&cfg, &mut w);
        w.end_array();
        w.end_object();
        let line = w.finish();
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&cfg.out)
            .and_then(|mut f| writeln!(f, "{line}"))
            .unwrap_or_else(|e| {
                eprintln!("cannot append to {}: {e}", cfg.out);
                std::process::exit(1);
            });
        eprintln!("appended the {name} suite to {}", cfg.out);
    }
}
