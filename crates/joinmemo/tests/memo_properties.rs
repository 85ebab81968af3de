//! Property test of the memo's incremental upkeep: random streams of
//! insert / retract / update / reseed / late `seed` / unregister over a
//! bare [`JoinEngine`], with [`JoinEngine::check_invariants`] after
//! every operation — slab links, stored bucket positions and the free
//! list consistent; running digest = full recompute = a freshly seeded
//! memo's; complete matches = [`joinmemo::naive::full_matches`].

use joinmemo::{CompiledJoin, JoinEngine};
use predicate::{parse_condition, FunctionRegistry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relation::{AttrType, Catalog, Schema, TupleId, Value};

const RELS: [&str; 3] = ["a", "b", "c"];

/// Every shape the stores take: an equality bucket per key, a premise
/// with no equality step at `k >= 1` (one bucket holding the whole
/// alpha memory, its level store one bucket holding every token), a
/// three-premise chain, the same chain closed by an ordering step, and
/// alpha tests that keep some tuples out of a premise.
const CONDS: [&str; 6] = [
    "a.k = b.k",
    "a.v < b.v",
    "a.k = b.k and b.k = c.k",
    "a.k = b.k and b.v <= c.v",
    "a.k = b.k and a.v > 3 and b.v < 7",
    "a.v >= b.v and b.k = c.k and c.v > 2",
];

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for rel in RELS {
        cat.create_relation(
            Schema::builder(rel)
                .attr("k", AttrType::Int)
                .attr("v", AttrType::Int)
                .attr("tag", AttrType::Str)
                .build(),
        )
        .unwrap();
    }
    cat
}

fn compile(src: &str, cat: &Catalog) -> CompiledJoin {
    let cond = parse_condition(src, &FunctionRegistry::default()).unwrap();
    CompiledJoin::compile(cond.as_join().unwrap(), cat).unwrap()
}

fn row(rng: &mut StdRng) -> Vec<Value> {
    // A narrow key domain so buckets fill and tokens fan out.
    vec![
        Value::Int(rng.gen_range(0..4)),
        Value::Int(rng.gen_range(0..10)),
        Value::str(["x", "yy"][rng.gen_range(0..2)]),
    ]
}

/// The conditions registered right now, as the rules engine keeps
/// them: key -> compiled plan (for the alpha tests the index applies).
struct World {
    cat: Catalog,
    je: JoinEngine,
    live: Vec<(u64, CompiledJoin)>,
    next_key: u64,
}

impl World {
    fn register(&mut self, src: &str) {
        let plan = compile(src, &self.cat);
        self.je.register(self.next_key, plan.clone());
        let seeded = self.je.seed(self.next_key, &self.cat);
        assert_eq!(
            seeded.len(),
            self.je.complete_matches(self.next_key).len(),
            "seed reports every complete match once"
        );
        self.live.push((self.next_key, plan));
        self.next_key += 1;
    }

    /// What the predicate index does at runtime: route the tuple to
    /// every premise over its relation whose alpha test it passes.
    fn feed(&mut self, rel: &str, id: TupleId) {
        let tuple = self.cat.relation(rel).unwrap().get(id).unwrap().clone();
        for (key, plan) in &self.live {
            for premise in 0..plan.arity() {
                if plan.relation(premise) == rel && plan.alpha(premise).matches(&tuple) {
                    self.je.insert(*key, premise, id.0, &tuple);
                }
            }
        }
    }

    fn some_id(&self, rng: &mut StdRng, rel: &str) -> Option<TupleId> {
        let ids: Vec<TupleId> = self.cat.relation(rel)?.iter().map(|(id, _)| id).collect();
        ids.choose(rng).copied()
    }
}

fn run_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = World {
        cat: catalog(),
        je: JoinEngine::new(),
        live: Vec::new(),
        next_key: 0,
    };
    w.register(CONDS[rng.gen_range(0..CONDS.len())]);
    w.register(CONDS[rng.gen_range(0..CONDS.len())]);

    for op in 0..80 {
        let rel = RELS[rng.gen_range(0..RELS.len())];
        let roll = rng.gen_range(0..100);
        if roll < 45 {
            let id = w
                .cat
                .relation_mut(rel)
                .unwrap()
                .insert(row(&mut rng))
                .unwrap();
            w.feed(rel, id);
        } else if roll < 65 {
            if let Some(id) = w.some_id(&mut rng, rel) {
                w.cat.relation_mut(rel).unwrap().delete(id).unwrap();
                w.je.retract(rel, id.0);
            }
        } else if roll < 80 {
            if let Some(id) = w.some_id(&mut rng, rel) {
                let values = row(&mut rng);
                w.cat.relation_mut(rel).unwrap().update(id, values).unwrap();
                let mut split = Vec::new();
                let total = w.je.retract_each(rel, id.0, |key, n| split.push((key, n)));
                assert!(
                    split.windows(2).all(|p| p[0].0 <= p[1].0),
                    "premises in key order"
                );
                assert_eq!(total, split.iter().map(|&(_, n)| n).sum::<u64>());
                w.feed(rel, id);
            }
        } else if roll < 88 {
            // A condition arriving late seeds from the tuples there.
            w.register(CONDS[rng.gen_range(0..CONDS.len())]);
        } else if roll < 94 {
            w.je.reseed_all(&w.cat);
        } else if w.live.len() > 1 {
            let (key, _) = w.live.swap_remove(rng.gen_range(0..w.live.len()));
            w.je.unregister(key);
        }
        if let Err(e) = w.je.check_invariants(&w.cat) {
            panic!("seed {seed} op {op}: {e}");
        }
    }

    // Emptying the database empties every memo, back to the digest of
    // memos that never held anything.
    for rel in RELS {
        while let Some(id) = w.some_id(&mut rng, rel) {
            w.cat.relation_mut(rel).unwrap().delete(id).unwrap();
            w.je.retract(rel, id.0);
        }
    }
    w.je.check_invariants(&w.cat).unwrap();
    let tokens: usize = w.je.stats().iter().flat_map(|s| &s.level_counts).sum();
    assert_eq!(tokens, 0);
    let mut empty = JoinEngine::new();
    for (key, plan) in &w.live {
        empty.register(*key, plan.clone());
    }
    assert_eq!(w.je.fingerprint(), empty.fingerprint());
}

#[test]
fn incremental_upkeep_matches_every_oracle_over_random_streams() {
    for seed in 0..60 {
        run_seed(seed);
    }
}
