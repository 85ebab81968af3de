// srclint-fixture: path=crates/durable/src/good_fsync_rename.rs
// A fixture, not compiled: write → sync → rename, the only order that
// survives a crash.

use std::fs;
use std::io;
use std::path::Path;

fn publish(tmp: &Path, dst: &Path, body: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(tmp)?;
    io::Write::write_all(&mut f, body)?;
    f.sync_all()?;
    fs::rename(tmp, dst)
}

fn publish_data_only(tmp: &Path, dst: &Path, body: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(tmp)?;
    io::Write::write_all(&mut f, body)?;
    f.sync_data()?;
    fs::rename(tmp, dst)
}

fn no_rename_no_rule(tmp: &Path, body: &[u8]) -> io::Result<()> {
    fs::write(tmp, body)
}
