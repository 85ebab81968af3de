//! The durable crate's file protocol, as the few calls it is made of.
//!
//! Every file operation under `crates/durable/src` goes through this
//! module (a guard row in `tests/guards.rs` holds that): [`create`]
//! (create or truncate), [`DiskFile::write`], [`DiskFile::sync`]
//! (`fdatasync`), [`rename`], [`sync_dir`], [`read`] and
//! [`create_dir`]. The WAL and the snapshot write through the same
//! four calls, so what a crash can leave is the sum of what these calls
//! promise, and nothing else.
//!
//! In a test build each operation that changes the disk is also pushed
//! onto a thread-local tape while one is recording ([`tape::record`]),
//! and a thread-local fault plan ([`tape::fail_next`]) fails the next
//! write, sync or directory sync. A failed write leaves half its bytes
//! in the file, as a short write would. `crashcheck` replays the tape
//! against a model of what survives a crash.

use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;

/// A file opened for writing by [`create`].
#[derive(Debug)]
pub(crate) struct DiskFile {
    file: File,
    /// The handle's number on the tape.
    #[cfg(test)]
    handle: u64,
}

/// Creates the file at `path` for writing, truncating it if it exists.
pub(crate) fn create(path: &Path) -> io::Result<DiskFile> {
    Ok(DiskFile {
        file: File::create(path)?,
        #[cfg(test)]
        handle: tape::created(path),
    })
}

impl DiskFile {
    /// Appends `bytes` in full (buffered by the OS until a sync).
    pub(crate) fn write(&self, bytes: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if tape::fails(tape::Fault::Write) {
            let half = &bytes[..bytes.len() / 2];
            (&self.file).write_all(half)?;
            tape::push(tape::Op::Write(self.handle, half.to_vec()));
            return Err(io::Error::other("injected write fault"));
        }
        (&self.file).write_all(bytes)?;
        #[cfg(test)]
        tape::push(tape::Op::Write(self.handle, bytes.to_vec()));
        Ok(())
    }

    /// `fdatasync`: the file's bytes and length are durable on return;
    /// its name is durable only after a [`sync_dir`].
    pub(crate) fn sync(&self) -> io::Result<()> {
        #[cfg(test)]
        if tape::fails(tape::Fault::Sync) {
            return Err(io::Error::other("injected sync fault"));
        }
        self.file.sync_data()?;
        #[cfg(test)]
        tape::push(tape::Op::Sync(self.handle));
        Ok(())
    }
}

/// Renames `from` to `to`, replacing `to`; durable after a [`sync_dir`].
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::rename(from, to)?;
    #[cfg(test)]
    tape::push(tape::Op::Rename(from.into(), to.into()));
    Ok(())
}

/// Makes the names in `dir` durable: every file created in it and
/// every rename inside it since its last sync.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(test)]
    if tape::fails(tape::Fault::SyncDir) {
        return Err(io::Error::other("injected directory sync fault"));
    }
    File::open(dir)?.sync_all()?;
    #[cfg(test)]
    tape::push(tape::Op::SyncDir(dir.into()));
    Ok(())
}

/// The file's bytes, or `None` if it does not exist.
pub(crate) fn read(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        bytes => bytes.map(Some),
    }
}

/// Creates `dir` and its parents if they are missing. A new directory
/// is a name in the one above it, so that one is synced too, top down:
/// otherwise a crash could take the new home, and every file synced in
/// it, away with the name.
pub(crate) fn create_dir(dir: &Path) -> io::Result<()> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .collect();
    std::fs::create_dir_all(dir)?;
    for new in missing.iter().rev() {
        let parent = new.parent().filter(|p| !p.as_os_str().is_empty());
        sync_dir(parent.unwrap_or(Path::new(".")))?;
    }
    Ok(())
}

/// The test build's record of what changed the disk, and its fault plan.
#[cfg(test)]
pub(crate) mod tape {
    use std::cell::{Cell, RefCell};
    use std::path::{Path, PathBuf};

    /// One operation that changed the disk, as it took effect.
    #[derive(Debug, Clone)]
    pub(crate) enum Op {
        /// `create` of a path, opening the numbered handle.
        Create(PathBuf, u64),
        /// Bytes appended through a handle (half of them, if injected
        /// as failed).
        Write(u64, Vec<u8>),
        /// An `fdatasync` through a handle.
        Sync(u64),
        Rename(PathBuf, PathBuf),
        SyncDir(PathBuf),
    }

    /// The operations a fault plan can fail.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Fault {
        Write,
        Sync,
        SyncDir,
    }

    thread_local! {
        static TAPE: RefCell<Option<Vec<Op>>> = const { RefCell::new(None) };
        static FAULT: Cell<Option<Fault>> = const { Cell::new(None) };
        static HANDLES: Cell<u64> = const { Cell::new(0) };
    }

    /// Fails the next operation of `kind` on this thread.
    pub(crate) fn fail_next(kind: Fault) {
        FAULT.set(Some(kind));
    }

    /// Takes the fault planned and not yet hit, so no later operation
    /// hits it.
    pub(crate) fn take_planned() -> Option<Fault> {
        FAULT.take()
    }

    /// Takes the planned fault if it is for `kind`.
    pub(super) fn fails(kind: Fault) -> bool {
        let hit = FAULT.get() == Some(kind);
        if hit {
            FAULT.set(None);
        }
        hit
    }

    pub(super) fn push(op: Op) {
        TAPE.with_borrow_mut(|tape| tape.as_mut().map(|t| t.push(op)));
    }

    /// Numbers a new handle on `path` and tapes its creation.
    pub(super) fn created(path: &Path) -> u64 {
        let handle = HANDLES.get();
        HANDLES.set(handle + 1);
        push(Op::Create(path.into(), handle));
        handle
    }

    /// The operations taped so far by the recording [`record`] runs.
    pub(crate) fn len() -> usize {
        TAPE.with_borrow(|tape| tape.as_ref().map_or(0, Vec::len))
    }

    /// Runs `body` with the tape on; returns its result and the tape.
    pub(crate) fn record<T>(body: impl FnOnce() -> T) -> (T, Vec<Op>) {
        TAPE.set(Some(Vec::new()));
        let out = body();
        (out, TAPE.take().unwrap_or_default())
    }
}
