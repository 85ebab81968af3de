//! A rule's single-relation conditions live only in the predicate index;
//! the engine reads them back through the ids its rule slot keeps. A
//! seeded churn of `add_rule`, `remove_rule`, `drop_relation` and
//! inserts, over rules with multi-relation disjunctions, an
//! unsatisfiable conjunct, opaque function clauses and one join rule
//! (kept to the end, over relations never dropped), holds every
//! read-back to a model of what each rule should still hold: `rule`,
//! `rules_detail`, `remove_rule`'s result, and an engine rebuilt by
//! `restore` from `rules_detail`, which must list the same rules and
//! fire the same ones on a probe batch.

use predicate::{JoinCondition, Predicate};
use relation::{AttrType, Database, Schema, Value};
use rules::{Action, Rule, RuleEngine, RuleId};
use std::collections::BTreeMap;

/// SplitMix64, so the churn depends on the seed alone.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn rel(&mut self) -> String {
        format!("r{}", self.below(RELATIONS))
    }
}

const RELATIONS: u64 = 4;
/// Every attribute draws from `0..DOMAIN`.
const DOMAIN: u64 = 100;

fn schema(name: &str) -> Schema {
    ["a", "b", "c", "d"]
        .iter()
        .fold(Schema::builder(name), |s, a| s.attr(*a, AttrType::Int))
        .build()
}

fn row(rng: &mut Rng) -> Vec<Value> {
    (0..4)
        .map(|_| Value::Int(rng.below(DOMAIN) as i64))
        .collect()
}

/// One rule condition: a band, a disjunction over up to three
/// relations with an opaque clause, an unsatisfiable conjunct beside a
/// satisfiable one, or opaque clauses beside a comparison.
fn condition(rng: &mut Rng) -> String {
    let k = rng.below(DOMAIN);
    let (r, s, t) = (rng.rel(), rng.rel(), rng.rel());
    match rng.below(4) {
        0 => format!("{k} <= {r}.a <= {}", k + 20),
        1 => format!("{r}.a < {k} or {s}.b > {k} or isodd({t}.d)"),
        2 => format!("{r}.a > {k} and {r}.a < {k} or {s}.c = {k}"),
        _ => format!("isodd({r}.d) and isnegative({r}.c) or isodd({s}.b) and {s}.a >= {k}"),
    }
}

/// What a live rule should hold: its conditions and join conditions as
/// built, less those on relations dropped since.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    name: String,
    conditions: Vec<Predicate>,
    joins: Vec<JoinCondition>,
}

fn expected(rule: &Rule) -> Expected {
    Expected {
        name: rule.name.to_string(),
        conditions: rule.conditions.clone(),
        joins: rule.joins.clone(),
    }
}

fn build(name: String, condition: &str) -> Rule {
    Rule::builder(name)
        .when(condition)
        .expect("a generated condition parses")
        .then(Action::callback(|_| {}))
        .build()
}

/// Every rule `engine` lists, by id, as the model sees them.
fn detail(engine: &RuleEngine) -> BTreeMap<RuleId, (Expected, i32, u64)> {
    engine
        .rules_detail()
        .map(|(id, rule, fired)| (id, (expected(&rule), rule.priority, fired)))
        .collect()
}

fn check(engine: &RuleEngine, model: &BTreeMap<RuleId, Expected>) {
    for (id, want) in model {
        let rule = engine.rule(*id).expect("a live rule");
        assert_eq!(&expected(&rule), want, "rule {id:?} read back");
    }
    let listed = detail(engine);
    assert_eq!(listed.len(), model.len(), "rules_detail lists every rule");
    for (id, (rule, _, _)) in &listed {
        assert_eq!(Some(rule), model.get(id), "rules_detail agrees with rule");
    }
}

#[test]
fn conditions_read_back_from_the_index_through_churn() {
    let mut rng = Rng(39);
    let mut db = Database::new();
    for rel in 0..RELATIONS {
        db.create_relation(schema(&format!("r{rel}")))
            .expect("a fresh name");
    }
    let mut engine = RuleEngine::new(db);
    let mut model = BTreeMap::new();
    let join = build("join".to_string(), "r0.c = r1.c and r1.a < 50 or r2.d < 10");
    assert_eq!((join.conditions.len(), join.joins.len()), (1, 1));
    let want = expected(&join);
    let join = engine.add_rule(join).expect("r0..r2 exist");
    model.insert(join, want);
    let mut serial = 0;
    let (mut drops, mut removes) = (0, 0);
    for step in 0..2_000 {
        match rng.below(100) {
            0..55 => {
                let rule = build(format!("m{serial}"), &condition(&mut rng));
                serial += 1;
                let want = expected(&rule);
                model.insert(engine.add_rule(rule).expect("r0..r3 exist"), want);
            }
            55..90 if model.len() > 1 => {
                let at = rng.below(model.len() as u64 - 1) as usize;
                let id = *model
                    .keys()
                    .filter(|&&id| id != join)
                    .nth(at)
                    .expect("at < len - 1");
                let want = model.remove(&id).expect("a live rule");
                let rule = engine.remove_rule(id).expect("a live rule");
                assert_eq!(expected(&rule), want, "remove_rule hands back {id:?}");
                removes += 1;
            }
            90..93 => {
                // r0 and r1 hold the join's premises.
                let name = format!("r{}", 2 + rng.below(2));
                engine.drop_relation(&name).expect("a live relation");
                engine
                    .create_relation(schema(&name))
                    .expect("dropped just now");
                for want in model.values_mut() {
                    want.conditions.retain(|p| p.relation() != name);
                    want.joins
                        .retain(|j| j.premises().iter().all(|p| p.relation() != name));
                }
                drops += 1;
            }
            _ => {
                let rows = (0..4).map(|_| row(&mut rng)).collect();
                engine.insert_batch(&rng.rel(), rows).expect("typed rows");
            }
        }
        if step % 50 == 0 {
            check(&engine, &model);
        }
    }
    check(&engine, &model);
    assert!(
        drops > 10 && removes > 100,
        "{drops} drops, {removes} removes"
    );
    assert!(
        model.values().any(|r| r.conditions.is_empty()),
        "some rule lost every condition to a drop"
    );
    let unsatisfiable = model.values().flat_map(|r| &r.conditions);
    assert!(unsatisfiable.filter(|p| !p.is_satisfiable()).count() > 1);
    assert_eq!(model[&join].joins.len(), 1, "the join rule keeps its join");

    let mut restored = RuleEngine::restore(
        engine.db().clone(),
        engine.rules_detail().collect(),
        engine.next_rule_id(),
        engine.total_fired(),
        engine.log().to_vec(),
    )
    .expect("the engine's own rules restore");
    assert_eq!(
        detail(&restored),
        detail(&engine),
        "restore keeps every rule"
    );
    check(&restored, &model);
    for rel in 0..RELATIONS {
        let name = format!("r{rel}");
        let rows: Vec<Vec<Value>> = (0..16).map(|_| row(&mut rng)).collect();
        let fired = |engine: &mut RuleEngine| {
            let report = engine
                .insert_batch(&name, rows.clone())
                .expect("typed rows");
            report
                .fired
                .into_iter()
                .map(|(id, _)| id)
                .collect::<Vec<_>>()
        };
        let (before, after) = (fired(&mut engine), fired(&mut restored));
        assert!(!before.is_empty(), "the probe batch on {name} fires a rule");
        assert_eq!(before, after, "the restored engine fires alike on {name}");
    }
    assert_eq!(engine.join_fingerprint(), restored.join_fingerprint());
    for engine in [&mut engine, &mut restored] {
        let rule = engine.remove_rule(join).expect("the join rule is live");
        assert_eq!(
            expected(&rule),
            model[&join],
            "remove_rule hands back the join rule"
        );
    }
}
