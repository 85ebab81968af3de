// srclint-fixture: path=crates/telemetry/src/good_metric_names.rs
// A fixture, not compiled: conforming registrations — literal
// snake_case families from DESIGN.md's table, labels after the `{{`
// escape.

fn mint(registry: &telemetry::Registry, relation: &str) {
    let _ = registry.counter("rules_fired_total");
    let _ = registry.histogram("wal_fsync_nanos");
    // Labels may interpolate; the family prefix is still literal.
    let _ = registry.counter(&format!(
        "predindex_relation_matches_total{{relation=\"{relation}\"}}"
    ));
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_metrics_are_exempt() {
        let r = telemetry::Registry::default();
        let _ = r.counter("x_total");
        let _ = r.histogram("lat");
    }
}
