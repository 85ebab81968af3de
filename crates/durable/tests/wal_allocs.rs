//! A warm [`Wal::append`] allocates nothing: it encodes its frame into
//! the log's own buffer, which keeps its capacity across the writes and
//! syncs that empty it. Counted with `bench`'s counting allocator
//! (included by path) over appends that cross syncs under
//! `EveryN(64)` and the buffer's 64 KiB mark under `Manual`.

#[path = "../../bench/src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::counted;
use durable::{Record, SyncPolicy, Wal};
use relation::Value;

/// The log's write mark, `durable::wal`'s `FLUSH_AT`.
const FLUSH_AT: usize = 64 * 1024;

fn insert(v: i64) -> Record {
    Record::Insert {
        relation: "orders".into(),
        values: vec![Value::Int(v), Value::Str("a customer's name".into())],
    }
}

#[test]
fn a_warm_append_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("durable-wal-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let records: Vec<Record> = (0..4_096).map(insert).collect();
    let frame = 16 + records[0].encode().len();
    for (name, policy, appends) in [
        ("every-64", SyncPolicy::EveryN(64), 1_024),
        ("manual", SyncPolicy::Manual, 3 * FLUSH_AT / frame),
    ] {
        let mut wal = Wal::create(&dir.join(name), 1, policy).unwrap();
        wal.append(&records[0]).unwrap();
        let ((), counts) = counted(|| {
            for record in records.iter().cycle().take(appends) {
                wal.append(record).unwrap();
            }
        });
        assert_eq!(counts.calls, 0, "{name}: {appends} warm appends");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
