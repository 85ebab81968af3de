// guard-fixture: path=crates/joinmemo/src/memo.rs
// A memo that keeps its own alpha-side key store per premise, as every
// memo did before the tables' shared key indexes.

/// The memo for one compiled join condition.
#[derive(Debug)]
pub(crate) struct JoinMemo {
    pub(crate) plan: CompiledJoin,
    /// Per premise: its column of the relation's shared table.
    columns: Vec<Column>,
    /// Per premise: rows live in its column (the alpha-memory size).
    alpha_counts: Vec<usize>,
    /// Per premise `1..`: equality-key -> rows, for rightward probes.
    /// Premise 0 is never probed (a probe extends a token, and every
    /// token already binds premise 0), so its store stays empty.
    alpha_key: Vec<KeyStore>,
    /// The token slab; `free` lists the slots whose level is `FREE`.
    tokens: Vec<Token>,
    free: Vec<u32>,
    /// Per level `0..n-1`: equality-key -> token ids, keyed for
    /// extension into premise `level + 1` (the beta stores).
    level_key: Vec<KeyStore>,
}
