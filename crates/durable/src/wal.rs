//! The write-ahead log: an append-only file of checksummed frames.
//!
//! ## On-disk format
//!
//! ```text
//! header:  magic "PMWAL\0\0\0" (8) | version u16 | start_seq u64 | crc u32
//! frame:   len u32 | crc u32 | seq u64 | payload (len - 8 bytes)
//! ```
//!
//! All integers little-endian. The frame checksum covers `seq` and the
//! payload; `len` counts the `seq` field plus the payload, so a frame
//! occupies `8 + len` bytes on disk. Sequence numbers are assigned
//! densely starting at the header's `start_seq`, which lets recovery
//! discard a stale log that survived a crash between snapshot rename
//! and log truncation.
//!
//! ## Torn-tail rule
//!
//! A crash can leave any byte-level prefix of the file. The reader
//! accepts the longest prefix of well-formed frames and **stops** at
//! the first anomaly — short header, short frame, oversized length,
//! checksum mismatch, undecodable payload, or sequence discontinuity —
//! without erroring: everything before the anomaly is intact (the
//! checksum vouches for it), everything after is unreachable anyway
//! because frames are not self-synchronizing. A missing file or an
//! unreadable header is an empty log.
//!
//! ## File operations
//!
//! The log is one file, written through `disk.rs`: created (or
//! truncated by `Wal::restart`), its header written and synced, then
//! frames appended and synced as the [`SyncPolicy`] says. Its name is
//! made durable by the caller's directory sync (the durable engine
//! syncs the directory after it creates the first log, and a snapshot
//! syncs it before a restart truncates the log).
//!
//! ## Where frames wait
//!
//! An append encodes its frame into a buffer the log owns and makes no
//! system call. The buffer reaches the file in one write: at each
//! [`Wal::sync`], just before its `fdatasync`; when it holds
//! `FLUSH_AT` (64 KiB) or more, unsynced (this bounds `Manual`); and
//! when the log is dropped, unsynced, unless it is fail-stopped. A
//! `restart` discards it: the snapshot that precedes a restart is
//! durable and covers every frame the buffer holds. So what a crash
//! can lose is what the policy already allowed it to lose — a frame
//! not yet synced — and a process that ends without a crash loses
//! nothing.

use crate::crc::Crc32;
use crate::disk::{self, DiskFile};
use crate::record::Record;
use relation::codec::Reader;
use std::io;
use std::path::{Path, PathBuf};
use telemetry::{Counter, Histogram, Telemetry, Tracer};

/// File magic for WAL files.
pub const WAL_MAGIC: &[u8; 8] = b"PMWAL\0\0\0";
/// Current format version.
pub const WAL_VERSION: u16 = 1;
/// Header size in bytes.
pub const WAL_HEADER_LEN: usize = 8 + 2 + 8 + 4;
/// The log writes its buffer once it holds this many bytes, synced or
/// not: the most a log holds in memory is this plus one frame.
pub(crate) const FLUSH_AT: usize = 64 * 1024;
/// Upper bound on a single frame's `len` field — anything larger is
/// corruption, not data (no logical record approaches 64 MiB).
pub const MAX_FRAME: u32 = 1 << 26;

/// When `append` pushes bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Durable before acknowledged — zero loss on power failure:
    /// `fdatasync` after every record, or one per
    /// [`DurableRuleEngine::group`](crate::DurableRuleEngine::group)
    /// for a caller that holds its acknowledgements until it returns.
    Always,
    /// Acknowledged before durable: written and `fdatasync`ed once per
    /// `n` appends.
    /// Crash loses at most the last `n - 1` records, each a complete
    /// logical command, so recovered state is always a clean prefix of
    /// history.
    EveryN(u32),
    /// Sync only on explicit [`Wal::sync`] calls (and checkpoints); the
    /// buffer is still written, unsynced, once it holds 64 KiB.
    Manual,
}

/// The log's metric handles. Default (and [`WalMetrics::disabled`]) is
/// the no-op bundle: one branch per append / sync. Cloning shares the
/// underlying cells. A `Wal::restart` keeps them, so the counters stay
/// monotonic across the log truncations a snapshot performs.
#[derive(Debug, Clone, Default)]
pub struct WalMetrics {
    /// Frames appended (`wal_appends_total`).
    appends: Counter,
    /// Frame bytes written, headers included (`wal_append_bytes_total`).
    append_bytes: Counter,
    /// `fdatasync` latency; its count is the fsync total
    /// (`wal_fsync_nanos`).
    fsync_nanos: Histogram,
    /// Span tracer for `wal_append` / `wal_fsync` spans (disabled by
    /// default, like the counters).
    tracer: Tracer,
}

impl WalMetrics {
    /// The no-op bundle.
    pub fn disabled() -> WalMetrics {
        WalMetrics::default()
    }

    /// Resolves the bundle against `telemetry`: counters into its
    /// registry (no-ops if disabled), `wal_append` / `wal_fsync` spans
    /// into its tracer.
    pub fn new(telemetry: &Telemetry) -> WalMetrics {
        let registry = telemetry.registry();
        WalMetrics {
            appends: registry.counter("wal_appends_total"),
            append_bytes: registry.counter("wal_append_bytes_total"),
            fsync_nanos: registry.histogram("wal_fsync_nanos"),
            tracer: telemetry.tracer().clone(),
        }
    }
}

/// An open, append-only log.
///
/// The log is **fail-stop**: the first failed write or sync poisons it,
/// and every later [`append`](Wal::append) / [`sync`](Wal::sync) fails
/// too, and a drop writes nothing. A failed write may have left a
/// partial frame, and a failed sync leaves the file's durable extent
/// unknown; a frame appended *behind* either would be acknowledged and
/// then dropped by the torn-tail rule.
#[derive(Debug)]
pub struct Wal {
    file: DiskFile,
    /// Where [`restart`](Wal::restart) re-creates the log.
    path: PathBuf,
    /// Frames appended and not yet written, whole and in order.
    buffer: Vec<u8>,
    next_seq: u64,
    policy: SyncPolicy,
    unsynced: u32,
    /// Every frame below this sequence number is on stable storage (or
    /// predates this log and is covered by the snapshot it follows).
    durable_next: u64,
    /// Group commit: while set, an append under [`SyncPolicy::Always`]
    /// leaves its write and sync to the caller, who issues one
    /// [`sync`](Wal::sync) for the group.
    pub(crate) deferred: bool,
    /// Kind of the first I/O error; `Some` = fail-stopped.
    poisoned: Option<io::ErrorKind>,
    metrics: WalMetrics,
}

/// Creates (or truncates) the log file at `path` and writes and syncs a
/// header whose first frame is `start_seq`.
fn start(path: &Path, start_seq: u64) -> io::Result<DiskFile> {
    let file = disk::create(path)?;
    let mut header = Vec::with_capacity(WAL_HEADER_LEN);
    header.extend_from_slice(WAL_MAGIC);
    header.extend_from_slice(&WAL_VERSION.to_le_bytes());
    header.extend_from_slice(&start_seq.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&header[8..]);
    header.extend_from_slice(&crc.finish().to_le_bytes());
    file.write(&header)?;
    file.sync()?;
    Ok(file)
}

impl Wal {
    /// Creates (or truncates) the log at `path`, with the first frame
    /// to be appended carrying sequence number `start_seq`. The header
    /// is synced before this returns; the name is not (that is the
    /// directory's sync).
    pub fn create(path: &Path, start_seq: u64, policy: SyncPolicy) -> io::Result<Wal> {
        Ok(Wal {
            file: start(path, start_seq)?,
            path: path.to_path_buf(),
            // A full buffer plus a frame of up to `FLUSH_AT` bytes fit
            // without a reallocation.
            buffer: Vec::with_capacity(2 * FLUSH_AT),
            next_seq: start_seq,
            policy,
            unsynced: 0,
            durable_next: start_seq,
            deferred: false,
            poisoned: None,
            metrics: WalMetrics::disabled(),
        })
    }

    /// Truncates the log to an empty one whose first frame carries
    /// `start_seq`, keeping its policy, metrics and group deferral. A
    /// snapshot covering every earlier frame must already be durable,
    /// name included, so the frames still buffered are dropped unwritten.
    /// A failure may have truncated the file this log appends to, so it
    /// fail-stops the log.
    pub(crate) fn restart(&mut self, start_seq: u64) -> io::Result<()> {
        self.buffer.clear();
        self.file = start(&self.path, start_seq).map_err(|e| self.poison(e))?;
        self.next_seq = start_seq;
        self.durable_next = start_seq;
        self.unsynced = 0;
        Ok(())
    }

    /// Swaps in a metric bundle.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = metrics;
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every frame with a sequence number below this one is on stable
    /// storage.
    pub(crate) fn durable_next(&self) -> u64 {
        self.durable_next
    }

    /// Appends not yet followed by a sync.
    pub(crate) fn unsynced(&self) -> u32 {
        self.unsynced
    }

    /// Fail-stops the log on `error` and hands the error back.
    fn poison(&mut self, error: io::Error) -> io::Error {
        self.poisoned.get_or_insert(error.kind());
        error
    }

    /// Errors once the log is fail-stopped.
    pub(crate) fn check_poisoned(&self) -> io::Result<()> {
        match self.poisoned {
            None => Ok(()),
            Some(kind) => Err(io::Error::new(
                kind,
                "the WAL is fail-stopped after an earlier i/o error",
            )),
        }
    }

    /// Appends one record, returning its sequence number. The frame is
    /// encoded into the log's buffer, which reaches the file at the next
    /// sync, or unsynced once it holds `FLUSH_AT` bytes; whether the
    /// frame is forced to stable storage is the [`SyncPolicy`]'s call.
    /// The `wal_append` span covers the encoding and a write at the
    /// mark; a sync the policy calls for follows it. An error here —
    /// that write's or the sync's — fail-stops the log, and the record
    /// counts as appended.
    pub fn append(&mut self, record: &Record) -> io::Result<u64> {
        self.check_poisoned()?;
        let seq = self.next_seq;
        let span = self.metrics.tracer.span("wal_append", [("seq", seq)]);
        let bytes = encode_frame(&mut self.buffer, seq, record) as u64;
        self.metrics.appends.inc();
        self.metrics.append_bytes.add(bytes);
        self.next_seq += 1;
        self.unsynced += 1;
        let written = if self.buffer.len() >= FLUSH_AT {
            write_out(&self.file, &mut self.buffer)
        } else {
            Ok(())
        };
        span.close([("bytes", bytes)]);
        written.map_err(|e| self.poison(e))?;
        match self.policy {
            SyncPolicy::Always if self.deferred => {}
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) if self.unsynced >= n.max(1) => self.sync()?,
            SyncPolicy::EveryN(_) | SyncPolicy::Manual => {}
        }
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage: the buffer
    /// in one write, then `fdatasync`. The `wal_fsync` span covers both,
    /// `wal_fsync_nanos` the `fdatasync` alone.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        let span = self.metrics.tracer.span("wal_fsync", []);
        let written = write_out(&self.file, &mut self.buffer);
        let timer = self.metrics.fsync_nanos.start_timer();
        let synced = written.and_then(|()| self.file.sync());
        drop(span);
        synced.map_err(|e| self.poison(e))?;
        self.metrics.fsync_nanos.stop_timer(timer);
        self.unsynced = 0;
        self.durable_next = self.next_seq;
        Ok(())
    }
}

impl Drop for Wal {
    /// Writes the buffered frames, unsynced, as a write the OS buffers
    /// would have been: a log dropped without a crash keeps every frame
    /// it took. A fail-stopped log writes nothing behind its failure.
    fn drop(&mut self) {
        if self.poisoned.is_none() {
            let _ = write_out(&self.file, &mut self.buffer);
        }
    }
}

/// Writes `buffer` to `file` in one write, if it holds anything, and
/// empties it. On an error the buffer is left as it was: the log is
/// fail-stopped and writes nothing more.
fn write_out(file: &DiskFile, buffer: &mut Vec<u8>) -> io::Result<()> {
    if !buffer.is_empty() {
        file.write(buffer)?;
        buffer.clear();
    }
    Ok(())
}

/// Encodes one frame, `[len][crc][seq][payload]`, onto the end of
/// `out`; returns its length.
fn encode_frame(out: &mut Vec<u8>, seq: u64, record: &Record) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 8]); // `len` and `crc`, filled in below
    out.extend_from_slice(&seq.to_le_bytes());
    record.encode_into(out);
    let body = &out[start + 8..];
    let len = (body.len() as u32).to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(body);
    let crc = crc.finish().to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + 8].copy_from_slice(&crc);
    out.len() - start
}

/// What a tolerant read of a WAL file yields.
#[derive(Debug, Default)]
pub struct WalSuffix {
    /// The header's `start_seq` (0 for a missing/unreadable log).
    pub start_seq: u64,
    /// Accepted records in log order, with their sequence numbers.
    pub records: Vec<(u64, Record)>,
    /// Byte offset just past each accepted frame — `frame_ends[i]` is
    /// where frame `i` ends in the file. Lets fault-injection tests
    /// map a truncation point to the number of surviving records.
    pub frame_ends: Vec<u64>,
}

/// Reads a WAL file's bytes under the torn-tail rule (recovery reads
/// the file; an absent one is empty bytes).
pub fn parse_wal(bytes: &[u8]) -> WalSuffix {
    let mut out = WalSuffix::default();
    // Header: anything short or mismatched means we cannot trust a
    // single byte of the file — treat as empty.
    let mut r = Reader::new(bytes);
    let (Ok(magic), Ok(version), Ok(start_seq), Ok(stored_crc)) =
        (r.take(WAL_MAGIC.len()), r.u16(), r.u64(), r.u32())
    else {
        return out;
    };
    let mut crc = Crc32::new();
    crc.update(&bytes[8..18]);
    if magic != WAL_MAGIC || version != WAL_VERSION || crc.finish() != stored_crc {
        return out;
    }
    out.start_seq = start_seq;

    let mut expect_seq = start_seq;
    // Torn tail ends the read without error: anything after the first
    // anomaly is unreachable (frames are not self-synchronizing).
    while let (Ok(len), Ok(stored_crc)) = (r.u32(), r.u32()) {
        if !(8..=MAX_FRAME).contains(&len) {
            break; // nonsense length
        }
        let Ok(body) = r.take(len as usize) else {
            break; // frame extends past EOF: torn tail
        };
        let mut crc = Crc32::new();
        crc.update(body);
        if crc.finish() != stored_crc {
            break; // checksum mismatch
        }
        let mut body = Reader::new(body);
        if body.u64() != Ok(expect_seq) {
            break; // sequence discontinuity
        }
        let Ok(record) = body.take(body.remaining()).and_then(Record::decode) else {
            break; // checksummed but undecodable: foreign version data
        };
        out.records.push((expect_seq, record));
        out.frame_ends.push(r.pos() as u64);
        expect_seq += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tape::{self, fail_next, Fault, Op};
    use crate::record::Record;
    use crate::{ActionRegistry, DurableRuleEngine, Options};
    use relation::{AttrType, Schema, Value};
    use std::path::PathBuf;

    /// The log at `path`, as recovery reads it.
    fn read_wal(path: &Path) -> WalSuffix {
        parse_wal(&disk::read(path).unwrap().unwrap_or_default())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("durable-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.bin")
    }

    fn sample(i: u32) -> Record {
        Record::RemoveRule { id: i }
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp("round");
        let mut wal = Wal::create(&path, 5, SyncPolicy::Always).unwrap();
        for i in 0..4 {
            assert_eq!(wal.append(&sample(i)).unwrap(), 5 + i as u64);
        }
        assert_eq!(wal.next_seq(), 9);
        let suffix = read_wal(&path);
        assert_eq!(suffix.start_seq, 5);
        assert_eq!(
            suffix.records,
            (0..4)
                .map(|i| (5 + i as u64, sample(i)))
                .collect::<Vec<_>>()
        );
        assert_eq!(suffix.frame_ends.len(), 4);
    }

    #[test]
    fn missing_file_is_empty() {
        let path = tmp("missing");
        assert!(disk::read(&path).unwrap().is_none());
        let suffix = read_wal(&path);
        assert!(suffix.records.is_empty());
        assert_eq!(suffix.start_seq, 0);
    }

    #[test]
    fn every_truncation_yields_a_prefix() {
        let path = tmp("trunc");
        let mut wal = Wal::create(&path, 0, SyncPolicy::Manual).unwrap();
        for i in 0..6 {
            wal.append(&sample(i)).unwrap();
        }
        wal.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let full = parse_wal(&bytes);
        assert_eq!(full.records.len(), 6);
        for cut in 0..=bytes.len() {
            let part = parse_wal(&bytes[..cut]);
            let k = full.frame_ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(part.records.len(), k, "cut at {cut}");
            assert_eq!(part.records, full.records[..k]);
        }
    }

    #[test]
    fn stale_frames_from_earlier_epoch_stop_the_read() {
        // A header rewritten for start_seq 10 followed by an old frame
        // with seq 3 must yield nothing (sequence discontinuity).
        let path = tmp("stale");
        let mut wal = Wal::create(&path, 3, SyncPolicy::Always).unwrap();
        wal.append(&sample(0)).unwrap();
        let old = std::fs::read(&path).unwrap();
        let mut forged = Vec::new();
        {
            let p2 = tmp("stale2");
            Wal::create(&p2, 10, SyncPolicy::Always).unwrap();
            forged.extend_from_slice(&std::fs::read(&p2).unwrap());
        }
        forged.extend_from_slice(&old[WAL_HEADER_LEN..]);
        let suffix = parse_wal(&forged);
        assert_eq!(suffix.start_seq, 10);
        assert!(suffix.records.is_empty());
    }

    #[test]
    fn a_failed_write_fail_stops_the_log() {
        let path = tmp("write-fault");
        let mut wal = Wal::create(&path, 1, SyncPolicy::Manual).unwrap();
        wal.append(&sample(0)).unwrap();
        wal.sync().unwrap();
        for i in 1..4 {
            wal.append(&sample(i)).unwrap();
        }
        // The sync's one write carries frames 2 to 4 and fails half way.
        fail_next(Fault::Write);
        assert!(wal.sync().is_err());
        let torn = std::fs::metadata(&path).unwrap().len();
        // Half of the write is on disk; nothing may land behind it.
        assert!(
            wal.append(&sample(4)).is_err(),
            "append behind a torn write"
        );
        assert!(wal.sync().is_err(), "sync of a fail-stopped log");
        assert_eq!(wal.next_seq(), 5, "the refused append took no number");
        drop(wal);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            torn,
            "a drop wrote"
        );
        // The half holds frame 2 whole and part of frame 3.
        let suffix = read_wal(&path);
        assert_eq!(suffix.records, vec![(1, sample(0)), (2, sample(1))]);
        assert!(torn > *suffix.frame_ends.last().unwrap(), "a torn tail");
    }

    #[test]
    fn a_failed_sync_fail_stops_the_log() {
        let path = tmp("sync-fault");
        let mut wal = Wal::create(&path, 1, SyncPolicy::Always).unwrap();
        wal.append(&sample(0)).unwrap();
        assert_eq!(wal.durable_next(), 2);
        fail_next(Fault::Sync);
        assert!(wal.append(&sample(1)).is_err());
        assert_eq!(wal.durable_next(), 2, "an unsynced frame is not durable");
        // Frame 2 is in the file but its caller saw an error: a frame
        // 3 behind it would be acknowledged on top of an operation the
        // live engine never applied.
        assert!(wal.append(&sample(2)).is_err());
        assert!(wal.sync().is_err());
        assert_eq!(read_wal(&path).records.len(), 2);
    }

    #[test]
    fn deferred_appends_wait_for_the_callers_sync() {
        let path = tmp("deferred");
        let registry = std::sync::Arc::new(telemetry::Registry::new());
        let mut wal = Wal::create(&path, 1, SyncPolicy::Always).unwrap();
        wal.set_metrics(WalMetrics::new(&Telemetry::new(registry.clone())));
        wal.deferred = true;
        for i in 0..3 {
            wal.append(&sample(i)).unwrap();
        }
        assert_eq!((wal.unsynced(), wal.durable_next()), (3, 1));
        assert_eq!(registry.histogram_totals("wal_fsync_nanos").unwrap().0, 0);
        wal.sync().unwrap();
        assert_eq!((wal.unsynced(), wal.durable_next()), (0, 4));
        assert_eq!(registry.histogram_totals("wal_fsync_nanos").unwrap().0, 1);
        // Disarmed, `Always` is a sync per append again.
        wal.deferred = false;
        wal.append(&sample(3)).unwrap();
        assert_eq!(registry.histogram_totals("wal_fsync_nanos").unwrap().0, 2);
    }

    /// The writes and syncs `body` puts on the tape.
    fn writes_and_syncs(body: impl FnOnce()) -> (usize, usize) {
        let ((), ops) = tape::record(body);
        let writes = ops.iter().filter(|op| matches!(op, Op::Write(..)));
        let syncs = ops.iter().filter(|op| matches!(op, Op::Sync(..)));
        (writes.count(), syncs.count())
    }

    #[test]
    fn each_sync_is_one_write() {
        let mut wal = Wal::create(&tmp("every-64"), 1, SyncPolicy::EveryN(64)).unwrap();
        let counts = writes_and_syncs(|| {
            for i in 0..64 {
                wal.append(&sample(i)).unwrap();
            }
        });
        assert_eq!(counts, (1, 1), "64 appends under EveryN(64)");

        let mut wal = Wal::create(&tmp("always"), 1, SyncPolicy::Always).unwrap();
        let counts = writes_and_syncs(|| {
            wal.append(&sample(0)).unwrap();
        });
        assert_eq!(counts, (1, 1), "a lone append under Always");

        let dir = tmp("group").with_file_name("home");
        let opts = Options {
            sync: SyncPolicy::Always,
            snapshot_every: None,
        };
        let (funcs, actions) = (Default::default(), ActionRegistry::new());
        let mut engine = DurableRuleEngine::open(&dir, funcs, actions, opts).unwrap();
        engine
            .create_relation(Schema::builder("t").attr("v", AttrType::Int).build())
            .unwrap();
        let counts = writes_and_syncs(|| {
            let grouped = engine.group(|e| {
                for v in 0..5 {
                    e.insert("t", vec![Value::Int(v)]).unwrap();
                }
            });
            grouped.unwrap();
        });
        assert_eq!(counts, (1, 1), "a group of 5 under Always");
    }

    #[test]
    fn a_manual_log_holds_at_most_the_mark_and_a_frame() {
        let path = tmp("manual-mark");
        let mut wal = Wal::create(&path, 1, SyncPolicy::Manual).unwrap();
        let frame = 16 + sample(0).encode().len();
        let (writes, syncs) = writes_and_syncs(|| {
            for i in 0..10_000 {
                wal.append(&sample(i)).unwrap();
                assert!(wal.buffer.len() <= FLUSH_AT + frame, "append {i}");
            }
        });
        // Each write is the first whole frame count to reach the mark.
        let per_write = FLUSH_AT.div_ceil(frame) * frame;
        assert_eq!((writes, syncs), (10_000 * frame / per_write, 0));
        // Every frame is in the file or the buffer, once.
        let written = std::fs::metadata(&path).unwrap().len() as usize - WAL_HEADER_LEN;
        assert_eq!(written + wal.buffer.len(), 10_000 * frame);
        drop(wal);
        assert_eq!(read_wal(&path).records.len(), 10_000, "a drop writes");
    }
}
