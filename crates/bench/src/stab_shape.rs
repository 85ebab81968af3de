//! `match_stab` in miniature: the engine shape whose allocations are
//! budgeted.
//!
//! stackbench's `match_stab` is an in-memory [`RuleEngine`] holding
//! thousands of selective single-relation rules; every op is one
//! `insert_batch` whose rows two plumbing rules rewrite (half of them)
//! and then delete, so a batch of `n` rows is ~2.5 `n` events in three
//! matching levels and the relation ends as it began. This module
//! builds that shape at a size a test can afford. Two readers count
//! heap allocations over one batch of it and must agree to the unit:
//! `bench_json`'s gated `engine/allocs_per_event/batch128` row and the
//! tier-1 test `crates/rules/tests/alloc_budget.rs`, which includes
//! this file by path (`rules` cannot depend on `bench`). A third,
//! `bench_json`'s gated `ibs/bytes_per_interval/stab_shape` row,
//! rebuilds the engine's IBS-trees from [`conditions`] and counts their
//! bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Database, Schema, Value};
use rules::{Action, DbOp, Rule, RuleEngine};

/// The one relation: `a`, `b` over `0..WIDE`, `c`, `d` over `0..SMALL`.
pub const RELATION: &str = "r";
const WIDE: i64 = 100_000;
const SMALL: i64 = 1_000;

/// One band-rule condition: a narrow band on `a`/`b` (40%), a band and
/// an open comparison the residual test checks (35%), or an equality on
/// `c` and an open comparison (25%) — a tuple fires about one of 2,000.
fn condition(rng: &mut StdRng) -> String {
    let (x, y) = if rng.gen_bool(0.5) {
        ("a", "b")
    } else {
        ("b", "a")
    };
    let band = |rng: &mut StdRng, width: i64| {
        let lo = rng.gen_range(0..WIDE - width);
        format!("{lo} <= r.{x} <= {}", lo + width)
    };
    match rng.gen_range(0..100) {
        0..40 => band(rng, 40),
        40..75 => {
            let band = band(rng, 100);
            format!("{band} and r.{y} > {}", rng.gen_range(0..WIDE))
        }
        _ => format!(
            "r.c = {} and r.a < {}",
            rng.gen_range(0..SMALL),
            rng.gen_range(0..WIDE)
        ),
    }
}

/// An empty database holding [`RELATION`].
pub fn database() -> Database {
    let mut db = Database::new();
    let schema = ["a", "b", "c", "d"]
        .iter()
        .fold(Schema::builder(RELATION), |s, a| s.attr(*a, AttrType::Int));
    db.create_relation(schema.build())
        .expect("a fresh database has no relation r");
    db
}

/// The conditions of [`engine`]`(rules, seed)`'s rules, in the order it
/// adds them: `rules` band rules, then `touch` and `consume`.
pub fn conditions(rules: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conditions: Vec<String> = (0..rules).map(|_| condition(&mut rng)).collect();
    conditions.push(format!("r.d < {}", SMALL / 2));
    conditions.push(format!("r.d >= {}", SMALL / 2));
    conditions
}

/// A telemetry-off engine over [`RELATION`] with `rules` no-op band
/// rules and the plumbing: `touch` rewrites rows with `d` in the lower
/// half (`d += SMALL`), `consume` deletes every row with `d` in the
/// upper half or rewritten — each inserted row is deleted exactly once.
pub fn engine(rules: usize, seed: u64) -> RuleEngine {
    let mut engine = RuleEngine::new(database());
    let mut add = |name: String, condition: &str, action: Action| {
        let rule = Rule::builder(name)
            .when(condition)
            .expect("a generated condition parses")
            .then(action)
            .build();
        engine.add_rule(rule).expect("r has the attributes named");
    };
    let conditions = conditions(rules, seed);
    for (n, condition) in conditions[..rules].iter().enumerate() {
        add(format!("m{n}"), condition, Action::callback(|_| {}));
    }
    add(
        "touch".to_string(),
        &conditions[rules],
        Action::callback(|ctx| {
            let Some(tuple) = ctx.event.current() else {
                return;
            };
            let mut values = tuple.values().to_vec();
            if let Some(Value::Int(d)) = values.last_mut() {
                *d += SMALL;
            }
            ctx.queue(DbOp::UpdateCurrent { values });
        }),
    );
    add(
        "consume".to_string(),
        &conditions[rules + 1],
        Action::callback(|ctx| ctx.queue(DbOp::DeleteCurrent)),
    );
    engine
}

/// `count` rows for [`RELATION`], uniform over each attribute's domain.
pub fn rows(count: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            vec![
                Value::Int(rng.gen_range(0..WIDE)),
                Value::Int(rng.gen_range(0..WIDE)),
                Value::Int(rng.gen_range(0..SMALL)),
                Value::Int(rng.gen_range(0..SMALL)),
            ]
        })
        .collect()
}
