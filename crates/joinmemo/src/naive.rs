//! Naive from-scratch join evaluation — the reference the memo is
//! differentially tested (and benchmarked) against.
//!
//! [`full_matches`] recomputes the complete match set of a compiled
//! condition directly from the catalog on every call: filter each
//! premise's relation through its alpha test, then extend partial
//! matches premise by premise using freshly built hash tables for the
//! equality steps and residual filters for the ordering steps. No
//! state is carried between calls — this is exactly the work the memo
//! amortizes.

use crate::compile::CompiledJoin;
use relation::fx::FnvHashMap;
use relation::{Catalog, Tuple, Value};

/// All complete matches of `compiled` against the current catalog
/// state, as sorted tuple-id vectors (premise order).
pub fn full_matches(compiled: &CompiledJoin, catalog: &Catalog) -> Vec<Vec<u32>> {
    let n = compiled.arity();
    // Alpha-filtered tuples per premise.
    let mut alphas: Vec<Vec<(u32, &Tuple)>> = Vec::with_capacity(n);
    for i in 0..n {
        let tuples = match catalog.relation(compiled.relation(i)) {
            Some(rel) => {
                let alpha = compiled.condition().premises()[i]
                    .bind(rel.schema())
                    .expect("a compiled premise binds against its relation's schema");
                rel.iter()
                    .filter(|(_, t)| alpha.matches(t))
                    .map(|(tid, t)| (tid.0, t))
                    .collect()
            }
            None => Vec::new(),
        };
        alphas.push(tuples);
    }

    let maps: Vec<FnvHashMap<u32, &Tuple>> = alphas
        .iter()
        .map(|a| a.iter().map(|&(tid, t)| (tid, t)).collect())
        .collect();
    let mut partials: Vec<Vec<u32>> = alphas[0].iter().map(|&(tid, _)| vec![tid]).collect();
    let tuple_of = |premise: usize, tid: u32| -> &Tuple { maps[premise][&tid] };
    for (j, alpha) in alphas.iter().enumerate().skip(1) {
        let plan = compiled.plan(j);
        // Hash premise j by its equality-step values.
        let mut by_key: FnvHashMap<Vec<Value>, Vec<(u32, &Tuple)>> = FnvHashMap::default();
        for &(tid, t) in alpha {
            let key: Vec<Value> = plan
                .eq
                .iter()
                .map(|s| t.get(s.right_attr).clone())
                .collect();
            by_key.entry(key).or_default().push((tid, t));
        }
        let mut next = Vec::new();
        for tids in &partials {
            let key: Vec<Value> = plan
                .eq
                .iter()
                .map(|s| {
                    tuple_of(s.left_premise, tids[s.left_premise])
                        .get(s.left_attr)
                        .clone()
                })
                .collect();
            if let Some(cands) = by_key.get(&key) {
                for &(tid, t) in cands {
                    let ok = plan.residual.iter().all(|s| {
                        let left = tuple_of(s.left_premise, tids[s.left_premise]).get(s.left_attr);
                        s.op.holds(left, t.get(s.right_attr))
                    });
                    if ok {
                        let mut ext = tids.clone();
                        ext.push(tid);
                        next.push(ext);
                    }
                }
            }
        }
        partials = next;
    }
    partials.sort();
    partials
}
