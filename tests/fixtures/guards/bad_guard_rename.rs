// guard-fixture: path=crates/durable/src/snapshot.rs
// The two ways to publish a snapshot that a crash can tear: never
// synced, and synced only after the rename.

use crate::disk;
use std::io;
use std::path::Path;

pub fn publish_unsynced(tmp: &Path, dst: &Path) -> io::Result<()> {
    disk::create(tmp)?.write(b"snapshot body")?;
    disk::rename(tmp, dst)
}

pub fn write_snapshot(tmp: &Path, dst: &Path) -> io::Result<()> {
    let f = disk::create(tmp)?;
    disk::rename(tmp, dst)?;
    f.sync()
}
