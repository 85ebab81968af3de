// guard-fixture: path=crates/joinmemo/src/memo.rs
// Leaving an alpha bucket by scanning it.

pub fn leave(bucket: &mut Vec<u32>, id: u32) {
    bucket.retain(|&t| t != id);
}
