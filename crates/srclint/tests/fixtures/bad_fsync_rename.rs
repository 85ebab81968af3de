// srclint-fixture: path=crates/durable/src/bad_fsync_rename.rs
// A fixture, not compiled: publishing a file that was never synced.

use std::fs;
use std::io;
use std::path::Path;

fn publish_unsynced(tmp: &Path, dst: &Path) -> io::Result<()> {
    fs::write(tmp, b"snapshot body")?;
    fs::rename(tmp, dst)
}

fn sync_after_is_too_late(tmp: &Path, dst: &Path) -> io::Result<()> {
    let f = fs::File::create(tmp)?;
    fs::rename(tmp, dst)?;
    f.sync_all()
}
