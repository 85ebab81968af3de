// srclint-fixture: path=crates/ruleserv/src/server.rs
// The server interpreting a record itself instead of shaping the reply
// to what the durable engine did.

pub fn describe(record: &durable::Record) -> &'static str {
    match record {
        durable::Record::Insert { .. } => "insert",
        _ => "other",
    }
}
