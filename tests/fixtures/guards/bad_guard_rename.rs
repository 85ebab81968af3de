// guard-fixture: path=crates/durable/src/snapshot.rs
// The two ways to publish a snapshot that a crash can tear: never
// synced, and synced only after the rename.

use std::fs;
use std::io;
use std::path::Path;

pub fn publish_unsynced(tmp: &Path, dst: &Path) -> io::Result<()> {
    fs::write(tmp, b"snapshot body")?;
    fs::rename(tmp, dst)
}

pub fn write_snapshot(tmp: &Path, dst: &Path) -> io::Result<()> {
    let f = fs::File::create(tmp)?;
    fs::rename(tmp, dst)?;
    f.sync_data()
}
