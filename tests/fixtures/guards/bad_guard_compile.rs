// guard-fixture: path=crates/joinmemo/src/compile.rs
// A join premise's bound copy, read only by seeding and the naive join.

pub struct CompiledJoin {
    alphas: Vec<u32>,
}

impl CompiledJoin {
    pub fn alpha(&self, i: usize) -> u32 {
        self.alphas[i]
    }
}
