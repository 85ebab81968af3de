//! `/profile`'s document, read back: the `telemetry/profile-v2` key
//! sets at every level, ordered quantiles, and slow ops whose stages
//! sum to their nanos.
//!
//! The key lists below are the schema. A field renamed, added or
//! dropped fails here; a change on purpose bumps the version string
//! and these lists together.

use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{CostSnapshot, Profiler, Registry, Stage, StageClock, StageRecord};

const SCHEMA: &str = "telemetry/profile-v2";
const TOP: [&str; 5] = [
    "schema",
    "slow_threshold_nanos",
    "accounts",
    "quantiles",
    "slow_ops",
];
const ACCOUNT: [&str; 3] = ["rule", "name", "cost"];
const COST: [&str; 10] = [
    "stab_nanos",
    "ibs_nodes",
    "ibs_marks",
    "residual_tests",
    "residual_passes",
    "non_indexable",
    "join_probes",
    "join_retractions",
    "firings",
    "ops",
];
const QUANTILE: [&str; 6] = ["name", "count", "sum", "p50", "p95", "p99"];
const SLOW_OP: [&str; 6] = ["seq", "op", "trace_id", "nanos", "stages", "cost"];
const STAGES: [&str; 13] = [
    "decode",
    "queue",
    "wal",
    "stab",
    "residual",
    "join",
    "agenda",
    "fire",
    "snapshot",
    "other",
    "group_wait",
    "handoff",
    "write",
];

/// A JSON value, objects in document order.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no member {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn uint(&self) -> u64 {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => *n as u64,
            other => panic!("not an unsigned integer: {other:?}"),
        }
    }
}

/// A strict reader for what `telemetry::json::JsonWriter` emits:
/// compact, no whitespace, the writer's escapes.
struct Reader<'a> {
    text: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut r = Reader {
            text: text.as_bytes(),
            at: 0,
        };
        let value = r.value();
        assert_eq!(r.at, r.text.len(), "trailing bytes after the document");
        value
    }

    fn peek(&self) -> u8 {
        *self.text.get(self.at).expect("the document ends early")
    }

    fn eat(&mut self, byte: u8) {
        assert_eq!(self.peek() as char, byte as char, "at byte {}", self.at);
        self.at += 1;
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(self.text[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut members = Vec::new();
                while self.peek() != b'}' {
                    if !members.is_empty() {
                        self.eat(b',');
                    }
                    let key = self.string();
                    self.eat(b':');
                    members.push((key, self.value()));
                }
                self.eat(b'}');
                Json::Obj(members)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            _ => {
                let start = self.at;
                while matches!(self.peek(), b'0'..=b'9' | b'-' | b'.' | b'e' | b'E' | b'+') {
                    self.at += 1;
                }
                let digits = std::str::from_utf8(&self.text[start..self.at]).unwrap();
                Json::Num(digits.parse().expect("a number"))
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            match self.peek() {
                b'"' => break,
                b'\\' => {
                    self.at += 1;
                    let escaped = match self.peek() {
                        b'"' => b'"',
                        b'\\' => b'\\',
                        b'n' => b'\n',
                        b'r' => b'\r',
                        b't' => b'\t',
                        b'u' => {
                            let hex = std::str::from_utf8(&self.text[self.at + 1..self.at + 5]);
                            self.at += 4;
                            u8::from_str_radix(hex.unwrap(), 16).expect("a control escape")
                        }
                        other => panic!("unknown escape \\{}", other as char),
                    };
                    out.push(escaped);
                }
                byte => out.push(byte),
            }
            self.at += 1;
        }
        self.eat(b'"');
        String::from_utf8(out).expect("UTF-8")
    }
}

/// A record with time in several stages, laid down by a clock.
fn record(laps: &[(Stage, u64)], work: CostSnapshot) -> StageRecord {
    let start = Instant::now();
    let mut clock = StageClock::start_at(start);
    let mut at = start;
    for &(stage, n) in laps {
        at += Duration::from_nanos(n);
        clock.lap_at(stage, at);
    }
    clock.add_work(&work);
    *clock.record()
}

/// A profiler with named and unnamed rule accounts, the external
/// account, spread histograms and three slow ops.
fn loaded() -> (Arc<Registry>, Profiler) {
    let registry = Arc::new(Registry::new());
    let latency = registry.histogram("server_request_nanos");
    for v in [90, 800, 1_200, 7_000, 7_500, 40_000, 1_000_000, 3] {
        latency.record(v);
    }
    registry.histogram("wal_fsync_nanos").record(250_000);
    let p = Profiler::new(&registry);
    let work = CostSnapshot {
        stab_nanos: 400,
        ibs_nodes: 12,
        ibs_marks: 30,
        residual_tests: 5,
        residual_passes: 2,
        firings: 2,
        ops: 1,
        ..CostSnapshot::default()
    };
    p.bill(&[(Some(1), work), (Some(7), work), (None, work)]);
    p.name_rule(1, "a \"quoted\"\tname");
    p.set_slow_threshold_nanos(100);
    p.record_request(
        "insert",
        Some(0xfeed),
        &record(
            &[
                (Stage::Decode, 310),
                (Stage::Queue, 1_200),
                (Stage::Wal, 5_000),
                (Stage::Stab, 900),
                (Stage::Residual, 150),
                (Stage::Fire, 700),
                (Stage::Write, 222),
            ],
            work,
        ),
    );
    p.record_request(
        "ping",
        None,
        &record(&[(Stage::Write, 4_000)], CostSnapshot::default()),
    );
    // Under the threshold: not captured.
    p.record_request(
        "sync",
        None,
        &record(&[(Stage::Wal, 50)], CostSnapshot::default()),
    );
    p.record_request(
        "insert_batch",
        Some(1),
        &record(
            &[
                (Stage::Join, 11),
                (Stage::Agenda, 13),
                (Stage::Snapshot, 17),
                (Stage::Other, 19),
                (Stage::GroupWait, 23),
                (Stage::Handoff, 29),
            ],
            CostSnapshot::default(),
        ),
    );
    (registry, p)
}

#[test]
fn the_document_has_the_v2_key_sets_at_every_level() {
    let (registry, p) = loaded();
    let doc = Reader::parse(&p.profile_json(&registry));
    assert_eq!(doc.keys(), TOP);
    assert_eq!(doc.get("schema"), &Json::Str(SCHEMA.into()));
    assert_eq!(doc.get("slow_threshold_nanos").uint(), 100);

    let accounts = doc.get("accounts").items();
    assert_eq!(accounts.len(), 3);
    for account in accounts {
        assert_eq!(account.keys(), ACCOUNT);
        assert_eq!(account.get("cost").keys(), COST);
        assert_eq!(account.get("cost").get("ibs_marks").uint(), 30);
    }
    let rule = |a: &Json| a.get("rule").clone();
    let names: Vec<(Json, Json)> = accounts
        .iter()
        .map(|a| (rule(a), a.get("name").clone()))
        .collect();
    assert!(names.contains(&(
        Json::Str("1".into()),
        Json::Str("a \"quoted\"\tname".into())
    )));
    assert!(names.contains(&(Json::Str("7".into()), Json::Null)));
    assert!(names.contains(&(Json::Str("external".into()), Json::Null)));

    let quantiles = doc.get("quantiles").items();
    assert_eq!(quantiles.len(), 2);
    for q in quantiles {
        assert_eq!(q.keys(), QUANTILE);
    }

    let slow = doc.get("slow_ops").items();
    assert_eq!(slow.len(), 3, "the op under the threshold is not kept");
    for s in slow {
        assert_eq!(s.keys(), SLOW_OP);
        assert_eq!(s.get("stages").keys(), STAGES);
        assert_eq!(s.get("cost").keys(), COST);
    }
    assert_eq!(slow[0].get("op"), &Json::Str("insert".into()));
    assert_eq!(slow[0].get("trace_id").uint(), 0xfeed);
    assert_eq!(slow[0].get("cost").get("firings").uint(), 2);
    assert_eq!(slow[1].get("trace_id"), &Json::Null);
}

#[test]
fn quantiles_are_ordered_and_stages_sum_to_nanos() {
    let (registry, p) = loaded();
    let doc = Reader::parse(&p.profile_json(&registry));
    for q in doc.get("quantiles").items() {
        let (p50, p95, p99) = (
            q.get("p50").uint(),
            q.get("p95").uint(),
            q.get("p99").uint(),
        );
        assert!(p50 <= p95 && p95 <= p99, "{q:?}");
    }
    let latency = &doc.get("quantiles").items()[0];
    assert_eq!(latency.get("count").uint(), 8);
    assert!(latency.get("p50").uint() < latency.get("p99").uint());

    let mut totals = Vec::new();
    for s in doc.get("slow_ops").items() {
        let Json::Obj(stages) = s.get("stages") else {
            panic!("stages is an object")
        };
        let sum: u64 = stages.iter().map(|(_, v)| v.uint()).sum();
        assert_eq!(sum, s.get("nanos").uint(), "{s:?}");
        totals.push(sum);
    }
    assert_eq!(totals, [8_482, 4_000, 112]);
}

#[test]
fn an_idle_or_disabled_profiler_keeps_the_shape() {
    let registry = Arc::new(Registry::new());
    for p in [Profiler::new(&registry), Profiler::disabled()] {
        let doc = Reader::parse(&p.profile_json(&registry));
        assert_eq!(doc.keys(), TOP);
        assert_eq!(doc.get("schema"), &Json::Str(SCHEMA.into()));
        assert_eq!(doc.get("slow_threshold_nanos"), &Json::Null);
        for list in ["accounts", "quantiles", "slow_ops"] {
            assert!(doc.get(list).items().is_empty(), "{list}");
        }
    }
}
