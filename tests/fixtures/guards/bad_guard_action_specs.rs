// guard-fixture: path=crates/durable/src/engine.rs
// The durable engine keeps a second copy of each rule's action again,
// beside the one the rule engine holds.

pub struct DurableRuleEngine {
    dir: PathBuf,
    engine: RuleEngine,
    wal: Wal,
    /// Rule id → durable action, what the next snapshot persists.
    pub(crate) specs: HashMap<u32, ActionSpec>,
    funcs: FunctionRegistry,
    actions: ActionRegistry,
}
