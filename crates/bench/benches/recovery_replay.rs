//! Recovery cost: rebuilding a rule engine from its durable home.
//!
//! Two axes:
//!
//! * **WAL length** — `replay` over an empty snapshot plus N logged
//!   inserts. Replay re-executes every logical command (including rule
//!   matching), so this scales with both N and the rule population.
//! * **Snapshot load** — the same state checkpointed first, so
//!   recovery is a single decode plus re-registering every rule
//!   condition in the predicate index and a WAL header read.
//!
//! The gap between the two rows for the same N is the checkpoint
//! dividend: what a snapshot saves the next restart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use durable::{
    replay, ActionRegistry, ActionSpec, DurableRuleEngine, Options, RuleSpec, SyncPolicy,
};
use predicate::FunctionRegistry;
use relation::{AttrType, Schema, Value};
use rules::EventMask;
use std::hint::black_box;
use std::path::PathBuf;

const RULES: usize = 50;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("durable-bench-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a durable dir holding `RULES` rules and `rows` inserts. With
/// `checkpoint`, everything is folded into the snapshot (empty WAL);
/// without, the snapshot is empty and the WAL carries every operation.
fn build_dir(label: &str, rows: usize, checkpoint: bool) -> PathBuf {
    let dir = scratch(label);
    let mut engine = DurableRuleEngine::open(
        &dir,
        FunctionRegistry::default(),
        ActionRegistry::new(),
        Options {
            sync: SyncPolicy::Manual,
            snapshot_every: None,
        },
    )
    .expect("open");
    engine
        .create_relation(
            Schema::builder("emp")
                .attr("a", AttrType::Int)
                .attr("s", AttrType::Str)
                .build(),
        )
        .expect("create");
    for i in 0..RULES {
        let lo = (i * 13) % 900;
        engine
            .add_rule(RuleSpec {
                name: format!("r{i}"),
                condition: format!("emp.a > {lo} and emp.a < {}", lo + 120),
                mask: EventMask::ALL,
                priority: (i % 7) as i32,
                action: ActionSpec::Log(format!("hit {i}")),
            })
            .expect("rule");
    }
    for i in 0..rows {
        engine
            .insert(
                "emp",
                vec![Value::Int((i * 37 % 1000) as i64), Value::str("x")],
            )
            .expect("insert");
    }
    if checkpoint {
        engine.snapshot().expect("snapshot");
    }
    engine.sync().expect("sync");
    dir
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_replay");
    for rows in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(rows as u64));
        let wal_dir = build_dir(&format!("wal-{rows}"), rows, false);
        group.bench_function(BenchmarkId::new("wal_replay", rows), |b| {
            b.iter(|| {
                let r = replay(
                    &wal_dir,
                    &FunctionRegistry::default(),
                    &ActionRegistry::new(),
                )
                .expect("replay");
                black_box(r.engine.total_fired())
            })
        });
        let snap_dir = build_dir(&format!("snap-{rows}"), rows, true);
        group.bench_function(BenchmarkId::new("snapshot_load", rows), |b| {
            b.iter(|| {
                let r = replay(
                    &snap_dir,
                    &FunctionRegistry::default(),
                    &ActionRegistry::new(),
                )
                .expect("load");
                black_box(r.engine.total_fired())
            })
        });
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_dir_all(&snap_dir);
    }
    group.finish();
}

/// Short statistical config, matching the other ablations.
fn fast() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_recovery
}
criterion_main!(benches);
