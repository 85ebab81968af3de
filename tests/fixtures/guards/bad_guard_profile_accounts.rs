// guard-fixture: path=crates/telemetry/src/profile.rs
// An account minted as registry counters under the ledger lock: the
// one nested acquisition, and up to ten `/metrics` series per rule.

struct Account {
    firings: Counter,
    ops: Counter,
}

impl Account {
    fn mint(registry: &Registry, label: &str) -> Account {
        Account {
            firings: registry.counter(&format!("profile_rule_firings_total{{rule=\"{label}\"}}")),
            ops: registry.counter(&format!("profile_rule_ops_total{{rule=\"{label}\"}}")),
        }
    }
}
