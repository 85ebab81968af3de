// srclint-fixture: path=crates/joinmemo/src/memo.rs
// srclint:allow(guard): a guard row is no lint, so this allow names none
pub fn leave(bucket: &mut Vec<u32>, id: u32) {
    bucket.retain(|&t| t != id);
}

pub fn leave_all(bucket: &mut Vec<u32>, id: u32) {
    // srclint:allow(all): not even the wildcard suppresses a guard row
    bucket.retain(|&t| t != id);
}
