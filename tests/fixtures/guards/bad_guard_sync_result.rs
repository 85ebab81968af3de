// guard-fixture: path=crates/durable/src/snapshot.rs
// The install stage before a failed directory sync failed the
// snapshot: the log was then truncated behind a rename that a crash
// could still undo.

fn install(tmp: &Path, dir: &Path) -> io::Result<()> {
    disk::rename(&tmp, &dir.join(SNAPSHOT_FILE))?;
    let _ = disk::sync_dir(dir);
    Ok(())
}
