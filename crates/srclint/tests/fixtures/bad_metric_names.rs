// srclint-fixture: path=crates/telemetry/src/bad_metric_names.rs
// A fixture, not compiled: every way a metric name can go wrong.

fn mint(registry: &telemetry::Registry, shard: usize) {
    // Counter family not ending in _total.
    let _ = registry.counter("rules_fired");
    // CamelCase violates the grammar.
    let _ = registry.counter("RulesFired_total");
    // Interpolation inside the family part of the name.
    let _ = registry.counter(&format!("predindex_{shard}_total"));
    // Not a literal at all.
    let name = String::from("rules_fired_total");
    let _ = registry.counter(&name);
    // Conforming but absent from DESIGN.md's table.
    let _ = registry.counter("predindex_never_registered_total");
}
