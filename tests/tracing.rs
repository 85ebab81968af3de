//! End-to-end span tracing: a two-level rule cascade must come out of
//! the tracer as a correctly parented span tree whose child durations
//! fit inside their parents.

use predmatch::prelude::*;
use predmatch::rules::DbOp;
use predmatch::telemetry::{SpanEventKind, TraceEvent, Tracer, DEFAULT_TRACE_CAPACITY};
use std::collections::HashMap;
use std::sync::Arc;

/// A reconstructed span: name, parent id, and wall duration.
struct SpanRec {
    name: &'static str,
    parent: u64,
    begin: u64,
    end: u64,
}

/// Pairs Begin/End events by span id (panics on an unpaired span —
/// the workload closes everything before the snapshot).
fn reconstruct(events: &[TraceEvent]) -> HashMap<u64, SpanRec> {
    let mut spans: HashMap<u64, SpanRec> = HashMap::new();
    for ev in events {
        match ev.kind {
            SpanEventKind::Begin => {
                spans.insert(
                    ev.span,
                    SpanRec {
                        name: ev.name,
                        parent: ev.parent,
                        begin: ev.nanos,
                        end: 0,
                    },
                );
            }
            SpanEventKind::End => {
                spans
                    .get_mut(&ev.span)
                    .unwrap_or_else(|| panic!("End without Begin for span {}", ev.span))
                    .end = ev.nanos;
            }
            SpanEventKind::Instant => {}
        }
    }
    for (id, s) in &spans {
        assert!(s.end >= s.begin, "span {id} ({}) never ended", s.name);
    }
    spans
}

#[test]
fn two_level_cascade_produces_a_parented_span_tree() {
    let mut db = Database::new();
    db.create_relation(
        Schema::builder("emp")
            .attr("name", AttrType::Str)
            .attr("salary", AttrType::Int)
            .build(),
    )
    .unwrap();
    db.create_relation(
        Schema::builder("alerts")
            .attr("kind", AttrType::Str)
            .attr("level", AttrType::Int)
            .build(),
    )
    .unwrap();

    let tracer = Tracer::new(DEFAULT_TRACE_CAPACITY);
    let mut engine = RuleEngine::new(db);
    engine.attach_metrics(Telemetry::new(Arc::new(Registry::new())).with_tracer(tracer.clone()));

    engine
        .add_rule(
            Rule::builder("raise-alert")
                .when("emp.salary < 1000")
                .unwrap()
                .then(Action::callback(|ctx| {
                    ctx.queue(DbOp::Insert {
                        relation: "alerts".into(),
                        values: vec![Value::str("underpaid"), Value::Int(2)],
                    });
                }))
                .build(),
        )
        .unwrap();
    engine
        .add_rule(
            Rule::builder("escalate")
                .when("alerts.level >= 2")
                .unwrap()
                .then(Action::log("escalated"))
                .build(),
        )
        .unwrap();

    let report = engine
        .insert("emp", vec![Value::str("al"), Value::Int(500)])
        .unwrap();
    assert_eq!(report.fired.len(), 2, "both rules fire through the chain");

    let events = tracer.events();
    let spans = reconstruct(&events);
    let by_name = |name: &str| -> Vec<(&u64, &SpanRec)> {
        spans.iter().filter(|(_, s)| s.name == name).collect()
    };

    // Exactly one cascade root, at top level.
    let cascades = by_name("cascade");
    assert_eq!(cascades.len(), 1, "one insert, one cascade");
    let (&root_id, root) = cascades[0];
    assert_eq!(root.parent, 0, "cascade is a top-level span");

    // Two cascade levels (the external insert, then the alert), both
    // children of the root.
    let levels = by_name("cascade_level");
    assert_eq!(levels.len(), 2, "two-level cascade");
    for (_, level) in &levels {
        assert_eq!(level.parent, root_id, "levels nest under the cascade");
        assert!(level.begin >= root.begin && level.end <= root.end);
    }

    // Each level runs one match pass, parented to its level.
    let level_ids: Vec<u64> = levels.iter().map(|(&id, _)| id).collect();
    let matches = by_name("match_level");
    assert_eq!(matches.len(), 2);
    for (_, m) in &matches {
        assert!(level_ids.contains(&m.parent), "match nests under a level");
    }

    // The index under each match pass recorded its stab, and the chain
    // recorded no span outside the rule layer's and the index's.
    assert_eq!(by_name("predindex_stab").len(), 2);
    for s in spans.values() {
        assert!(
            matches!(
                s.name,
                "cascade"
                    | "cascade_level"
                    | "match_level"
                    | "rule_fire"
                    | "predindex_stab"
                    | "predindex_residual"
            ),
            "unexpected span {}",
            s.name
        );
    }

    // Both firings produced rule_fire spans inside some level.
    let fires = by_name("rule_fire");
    assert_eq!(fires.len(), 2);
    for (_, f) in &fires {
        assert!(level_ids.contains(&f.parent), "firing nests under a level");
    }

    // Durations are consistent: levels are disjoint in time, and their
    // summed duration fits inside the root span.
    let mut level_spans: Vec<&SpanRec> = levels.iter().map(|(_, s)| *s).collect();
    level_spans.sort_by_key(|s| s.begin);
    assert!(
        level_spans[0].end <= level_spans[1].begin,
        "levels run one after another"
    );
    let summed: u64 = level_spans.iter().map(|s| s.end - s.begin).sum();
    assert!(
        summed <= root.end - root.begin,
        "child time {summed} exceeds root {}",
        root.end - root.begin
    );

    // And the whole thing exports as Chrome JSON with the span names.
    let json = tracer.chrome_trace_json();
    for name in ["cascade", "cascade_level", "match_level", "rule_fire"] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "{name} missing"
        );
    }
}
