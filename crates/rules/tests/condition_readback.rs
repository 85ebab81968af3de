//! A rule's single-relation conditions live only in the predicate index,
//! and its join conditions only in their memos; the engine reads them
//! back through the ids its rule slot keeps. A seeded churn of
//! `add_rule`, `remove_rule`, `drop_relation` and inserts, over rules
//! with multi-relation disjunctions, an unsatisfiable conjunct, opaque
//! function clauses and one or two join conditions (on any relation,
//! dropped ones included), holds every read-back to a model of what
//! each rule should still hold: `rule`, `rules_detail`, `remove_rule`'s
//! result, and an engine rebuilt by `restore` from `rules_detail`,
//! which must list the same rules and fire the same ones on a probe
//! batch. After every step, each rule's memos must hold the naive join
//! of the join conditions `rule` reads back.

use joinmemo::naive::full_matches;
use joinmemo::CompiledJoin;
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

    /// Two distinct relations.
    fn two_rels(&mut self) -> (String, String) {
        let r = self.below(RELATIONS);
        let s = (r + 1 + self.below(RELATIONS - 1)) % RELATIONS;
        (format!("r{r}"), format!("r{s}"))
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
/// satisfiable one, opaque clauses beside a comparison, a join beside
/// a single-relation disjunct, or two joins (`A or B`).
fn condition(rng: &mut Rng) -> String {
    let k = rng.below(DOMAIN);
    let (r, s, t) = (rng.rel(), rng.rel(), rng.rel());
    let ((j, l), (m, n)) = (rng.two_rels(), rng.two_rels());
    match rng.below(6) {
        0 => format!("{k} <= {r}.a <= {}", k + 20),
        1 => format!("{r}.a < {k} or {s}.b > {k} or isodd({t}.d)"),
        2 => format!("{r}.a > {k} and {r}.a < {k} or {s}.c = {k}"),
        3 => format!("isodd({r}.d) and isnegative({r}.c) or isodd({s}.b) and {s}.a >= {k}"),
        4 => format!("{j}.a < {l}.b and {l}.c >= {k} or {t}.d < 10"),
        _ => format!("{j}.b > {l}.a or {m}.c = {n}.c and {n}.a < {k}"),
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

/// The contract a join check over the public surface relies on: per
/// rule, `join_matches` lists one entry per join condition `rule`
/// reads back, and entry `j` is the naive join of condition `j`.
/// Returns the number of complete matches compared.
fn check_joins(engine: &RuleEngine, model: &BTreeMap<RuleId, Expected>) -> usize {
    let catalog = engine.db().catalog();
    let mut compared = 0;
    for (id, want) in model {
        let matches = engine.join_matches(*id).expect("a live rule");
        assert_eq!(
            matches.len(),
            want.joins.len(),
            "rule {id:?}: one entry per join"
        );
        if matches.is_empty() {
            continue;
        }
        let rule = engine.rule(*id).expect("a live rule");
        assert_eq!(rule.joins, want.joins, "rule {id:?}: its joins read back");
        for (join, got) in rule.joins.iter().zip(matches) {
            let compiled =
                CompiledJoin::compile(join, catalog).expect("a registered join compiles");
            assert_eq!(
                got,
                full_matches(&compiled, catalog),
                "rule {id:?}: {join:?}"
            );
            compared += got.len();
        }
    }
    compared
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
    let mut serial = 0;
    let (mut drops, mut removes) = (0, 0);
    // Join conditions handed back by `remove_rule`, rules that handed
    // back two, join conditions lost to drops, and complete matches
    // compared with the naive join.
    let (mut joins_removed, mut pairs_removed, mut joins_dropped, mut compared) = (0, 0, 0, 0);
    for step in 0..2_000 {
        match rng.below(100) {
            0..55 => {
                let rule = build(format!("m{serial}"), &condition(&mut rng));
                serial += 1;
                let want = expected(&rule);
                model.insert(engine.add_rule(rule).expect("r0..r3 exist"), want);
            }
            55..90 if !model.is_empty() => {
                let at = rng.below(model.len() as u64) as usize;
                let id = *model.keys().nth(at).expect("at < len");
                let want = model.remove(&id).expect("a live rule");
                let rule = engine.remove_rule(id).expect("a live rule");
                assert_eq!(expected(&rule), want, "remove_rule hands back {id:?}");
                removes += 1;
                joins_removed += rule.joins.len();
                pairs_removed += usize::from(rule.joins.len() == 2);
            }
            90..93 => {
                let name = rng.rel();
                engine.drop_relation(&name).expect("a live relation");
                engine
                    .create_relation(schema(&name))
                    .expect("dropped just now");
                for want in model.values_mut() {
                    want.conditions.retain(|p| p.relation() != name);
                    let before = want.joins.len();
                    want.joins
                        .retain(|j| j.premises().iter().all(|p| p.relation() != name));
                    joins_dropped += before - want.joins.len();
                }
                drops += 1;
            }
            _ => {
                let rows = (0..8).map(|_| row(&mut rng)).collect();
                engine.insert_batch(&rng.rel(), rows).expect("typed rows");
            }
        }
        compared += check_joins(&engine, &model);
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
        joins_removed > 50 && pairs_removed > 10 && joins_dropped > 50 && compared > 100_000,
        "{joins_removed} joins and {pairs_removed} pairs removed, \
         {joins_dropped} joins dropped, {compared} matches compared"
    );
    assert!(
        model.values().any(|r| r.conditions.is_empty()),
        "some rule lost every condition to a drop"
    );
    let unsatisfiable = model.values().flat_map(|r| &r.conditions);
    assert!(unsatisfiable.filter(|p| !p.is_satisfiable()).count() > 1);
    let join_rules: Vec<RuleId> = model
        .iter()
        .filter(|(_, r)| !r.joins.is_empty())
        .map(|(&id, _)| id)
        .collect();
    assert!(
        join_rules.len() > 5 && model.values().any(|r| r.joins.len() == 2),
        "{} live join rules, some with two joins",
        join_rules.len()
    );

    let mut restored = RuleEngine::restore(
        engine.db().clone(),
        engine.rules_detail().collect(),
        engine.next_rule_id(),
        engine.total_fired(),
    )
    .expect("the engine's own rules restore");
    assert_eq!(
        detail(&restored),
        detail(&engine),
        "restore keeps every rule"
    );
    check(&restored, &model);
    assert_eq!(check_joins(&restored, &model), check_joins(&engine, &model));
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
        assert_eq!(check_joins(&restored, &model), check_joins(&engine, &model));
    }
    assert_eq!(engine.join_fingerprint(), restored.join_fingerprint());
    for engine in [&mut engine, &mut restored] {
        for id in &join_rules {
            let rule = engine.remove_rule(*id).expect("a live join rule");
            assert_eq!(expected(&rule), model[id], "remove_rule hands back {id:?}");
        }
    }
}
