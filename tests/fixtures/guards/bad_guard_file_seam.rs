// guard-fixture: path=crates/durable/src/wal.rs
// The log creating, syncing and reading its file itself, as it did
// before `disk.rs`: the crash model's tape would see none of it.

use std::fs::{File, OpenOptions};

pub fn create(path: &Path) -> io::Result<File> {
    // A `DiskFile::write` is the seam, not a file call.
    let file = OpenOptions::new().write(true).create(true).open(path)?;
    file.sync_data()?;
    Ok(file)
}

pub fn read_wal(path: &Path) -> io::Result<Vec<u8>> {
    std::fs::read(path)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_back() {
        let bytes = std::fs::read("wal.bin").unwrap();
        assert!(File::open("wal.bin").is_ok());
    }
}
