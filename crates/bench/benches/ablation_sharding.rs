//! Ablation D: the lock-free index vs the sharded front-end.
//!
//! Compares the paper's [`PredicateIndex`] driven one tuple at a time
//! (what the rule engine runs) against [`ShardedPredicateIndex`] on two
//! shapes:
//!
//! * the §5.2 scenario (one relation — every tuple lands on one shard,
//!   so any speedup comes purely from concurrent readers on that
//!   shard's `RwLock`), and
//! * the same shape spread over 8 relations (tuples fan out across
//!   shards, the intended deployment of the sharded front-end).
//!
//! The `sharded@1` row isolates the front-end's fixed overhead (shard
//! hash + one read-lock acquisition per tuple) on one caller thread.
//! The `sharded@N-readers` rows split the batch across N scoped threads
//! spawned *here*, each calling `match_tuple_into` through `&self` —
//! the index itself spawns nothing, so reader scaling is measured where
//! the threads live.
//!
//! Reading the numbers: reader threads only buy wall-clock on a
//! multi-core host — with one hardware thread the `N-readers` rows can
//! at best tie `sequential` (they time-slice one core, paying spawn
//! overhead per batch). The host's parallelism is printed first.

use bench::scheme::SchemeWorkload;
use bench::workload::BatchWorkload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use predindex::{Matcher, PredicateId, PredicateIndex, ShardedPredicateIndex};
use relation::Tuple;
use std::hint::black_box;

/// Tuples per batch: sized like a bulk load / queue drain, large enough
/// that per-batch thread-spawn cost amortizes.
const BATCH: usize = 4096;

/// Matches `refs` from `readers` scoped threads, one contiguous chunk
/// each, so results land in caller order with no scatter step.
fn match_with_readers(
    index: &ShardedPredicateIndex,
    refs: &[(&str, &Tuple)],
    readers: usize,
) -> Vec<Vec<PredicateId>> {
    let mut out: Vec<Vec<PredicateId>> = vec![Vec::new(); refs.len()];
    let chunk = refs.len().div_ceil(readers);
    std::thread::scope(|scope| {
        for (items, slots) in refs.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for ((rel, t), slot) in items.iter().zip(slots) {
                    index.match_tuple_into(rel, t, slot);
                }
            });
        }
    });
    out
}

fn bench_shape(c: &mut Criterion, label: &str, relations: usize) {
    let w = BatchWorkload {
        relations,
        scheme: SchemeWorkload::default(),
    };
    let db = w.database();
    let preds = w.predicates();

    let mut seq = PredicateIndex::new();
    let sharded = ShardedPredicateIndex::new();
    for p in &preds {
        seq.insert(p.clone(), db.catalog())
            .expect("valid predicate");
        sharded
            .insert_shared(p.clone(), db.catalog())
            .expect("valid predicate");
    }

    let batch = w.batch(BATCH);
    let refs: Vec<(&str, &Tuple)> = batch.iter().map(|(r, t)| (r.as_str(), t)).collect();

    let mut group = c.benchmark_group(label);
    group.throughput(Throughput::Elements(BATCH as u64));

    // Every row retains every tuple's match set — a discard-and-reuse
    // loop would be a different (weaker) contract.
    group.bench_function(BenchmarkId::new("sequential", BATCH), |b| {
        b.iter(|| {
            let out: Vec<Vec<PredicateId>> = refs
                .iter()
                .map(|(rel, t)| seq.match_tuple(rel, t))
                .collect();
            black_box(out)
        })
    });

    group.bench_function(BenchmarkId::new("sharded@1", BATCH), |b| {
        b.iter(|| {
            let out: Vec<Vec<PredicateId>> = refs
                .iter()
                .map(|(rel, t)| sharded.match_tuple(rel, t))
                .collect();
            black_box(out)
        })
    });

    for readers in [2usize, 4] {
        group.bench_function(
            BenchmarkId::new(format!("sharded@{readers}-readers"), BATCH),
            |b| b.iter(|| black_box(match_with_readers(&sharded, &refs, readers))),
        );
    }
    group.finish();
}

fn bench_sharding(c: &mut Criterion) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism = {cpus}");
    // §5.2: one relation, 200 predicates, one shard takes all traffic.
    bench_shape(c, "sharding_1rel_scheme52", 1);
    // Spread: 8 relations x 200 predicates across the shards.
    bench_shape(c, "sharding_8rel", 8);
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
    targets = bench_sharding
}
criterion_main!(benches);
