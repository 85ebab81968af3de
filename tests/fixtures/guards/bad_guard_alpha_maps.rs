// guard-fixture: path=crates/joinmemo/src/memo.rs
// A memo that keeps its own tuple-id map per premise, as every memo
// did before the relations' alpha tables were shared.

pub(crate) struct JoinMemo {
    pub(crate) plan: CompiledJoin,
    /// Per premise: tuple id -> entry (the alpha memory).
    alpha: Vec<FnvHashMap<u32, AlphaEntry>>,
    alpha_key: Vec<KeyStore>,
}
