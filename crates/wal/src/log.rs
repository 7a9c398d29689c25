//! The write-ahead log object: pending-vs-durable buffering, the
//! group-commit force barrier, and the two backing stores.
//!
//! [`Wal::append`] (or [`Wal::append_with`], whose writer encodes the
//! payload in place) frames a payload into a **pending** buffer — bytes
//! a crash simply loses, exactly like a page cache. [`Wal::force`] pushes
//! the whole pending buffer to the backing [`WalStore`] and syncs it;
//! only then are the records durable. A crash *during* a force is
//! modelled by [`Wal::force_torn`], which lands a prefix of the pending
//! bytes and drops the rest — [`crate::record::scan`] then recovers the
//! longest valid record prefix. A checkpoint replaces the durable image
//! with [`Wal::rewrite`], over the scan it planned from.
//!
//! Two stores cover the workspace's needs: [`MemStore`] shares its
//! durable image through an [`Arc`] so a test can harvest the bytes
//! after "killing" the service that owned the log, and [`FileStore`]
//! writes a real file for the CI crash-recovery smoke.

use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::record;

/// Durable media behind a [`Wal`]: receives forced bytes and persists
/// them.
///
/// Methods panic on I/O failure — in this simulation an unwritable log
/// is a harness bug, never a modelled fault (crashes are injected above
/// this layer, via [`Wal::force_torn`] and by dropping pending bytes).
pub trait WalStore: Send {
    /// Appends already-framed bytes to the durable image.
    fn append(&mut self, bytes: &[u8]);
    /// Ensures every appended byte has reached durable media.
    fn sync(&mut self);
    /// Snapshot of the current durable image — a checkpoint scans it
    /// before rewriting.
    fn durable_image(&self) -> Vec<u8>;
    /// Replaces the whole durable image with `bytes` and syncs: the
    /// checkpoint truncation rewrote the log.
    fn reset(&mut self, bytes: &[u8]);
}

/// In-memory store whose durable image is shared through an [`Arc`], so
/// it outlives the service that owned the log — tests harvest it after
/// a simulated kill.
pub struct MemStore {
    durable: Arc<Mutex<Vec<u8>>>,
}

impl MemStore {
    /// Creates an empty store plus the harvest handle onto its durable
    /// image.
    #[must_use]
    pub fn new() -> (Self, MemLog) {
        let durable = Arc::new(Mutex::new(Vec::new()));
        let log = MemLog(Arc::clone(&durable));
        (Self { durable }, log)
    }
}

impl WalStore for MemStore {
    fn append(&mut self, bytes: &[u8]) {
        self.durable.lock().unwrap().extend_from_slice(bytes);
    }

    fn sync(&mut self) {} // reaching the shared Vec IS durability here

    fn durable_image(&self) -> Vec<u8> {
        self.durable.lock().unwrap().clone()
    }

    fn reset(&mut self, bytes: &[u8]) {
        // The harvest handles share this Vec, so they observe the
        // truncated image — exactly what a disk would hold.
        let mut durable = self.durable.lock().unwrap();
        durable.clear();
        durable.extend_from_slice(bytes);
    }
}

/// Harvest handle onto a [`MemStore`]'s durable image: the bytes that
/// survive a crash of the log's owner.
#[derive(Clone)]
pub struct MemLog(Arc<Mutex<Vec<u8>>>);

impl MemLog {
    /// Snapshot of the durable bytes.
    #[must_use]
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }

    /// Durable byte count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    /// Whether nothing has been forced yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for MemLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemLog({} durable bytes)", self.len())
    }
}

impl fmt::Debug for MemStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemStore({} durable bytes)",
            self.durable.lock().unwrap().len()
        )
    }
}

/// File-backed store for the CI crash-recovery smoke: forced bytes are
/// appended to a real file and `sync_data`'d.
#[derive(Debug)]
pub struct FileStore {
    file: File,
}

impl FileStore {
    /// Creates (truncating) the log file at `path`, readable so a
    /// checkpoint can re-scan the durable image in place.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            file: std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?,
        })
    }
}

impl WalStore for FileStore {
    fn append(&mut self, bytes: &[u8]) {
        self.file.write_all(bytes).expect("WAL file write failed");
    }

    fn sync(&mut self) {
        self.file.sync_data().expect("WAL file sync failed");
    }

    fn durable_image(&self) -> Vec<u8> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut file = &self.file;
        file.seek(SeekFrom::Start(0)).expect("WAL file seek failed");
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).expect("WAL file read failed");
        bytes
    }

    fn reset(&mut self, bytes: &[u8]) {
        use std::io::{Seek as _, SeekFrom};
        self.file.set_len(0).expect("WAL file truncate failed");
        self.file
            .seek(SeekFrom::Start(0))
            .expect("WAL file seek failed");
        self.file.write_all(bytes).expect("WAL file write failed");
        self.file.sync_data().expect("WAL file sync failed");
    }
}

/// Counters a [`Wal`] keeps about its own traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (whether or not yet forced).
    pub appends: u64,
    /// Force barriers that actually synced bytes (empty forces are
    /// free no-ops and are not counted — that is the whole point of
    /// group commit).
    pub forces: u64,
    /// Framed bytes appended (header + payload).
    pub bytes: u64,
}

/// What one checkpoint truncation ([`Wal::truncate_before`]) did to the
/// durable image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalTrim {
    /// Records the edit kept (possibly rewritten in place).
    pub records_kept: u64,
    /// Records the edit dropped.
    pub records_dropped: u64,
    /// Durable image size before the truncation, in bytes.
    pub bytes_before: u64,
    /// Durable image size after, in bytes.
    pub bytes_after: u64,
}

impl WalTrim {
    /// Bytes the truncation reclaimed.
    #[must_use]
    pub fn bytes_reclaimed(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_after)
    }
}

/// A write-ahead log: append into a volatile pending buffer, force at a
/// group-commit barrier.
pub struct Wal {
    store: Box<dyn WalStore>,
    pending: Vec<u8>,
    stats: WalStats,
}

impl Wal {
    /// A log over any store.
    #[must_use]
    pub fn with_store(store: Box<dyn WalStore>) -> Self {
        Self {
            store,
            pending: Vec::new(),
            stats: WalStats::default(),
        }
    }

    /// An in-memory log plus the harvest handle onto its durable image.
    #[must_use]
    pub fn in_memory() -> (Self, MemLog) {
        let (store, log) = MemStore::new();
        (Self::with_store(Box::new(store)), log)
    }

    /// A file-backed log at `path` (truncates any existing file).
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        Ok(Self::with_store(Box::new(FileStore::create(path)?)))
    }

    /// Frames `payload` straight into the pending buffer. The record is
    /// **not** durable until the next [`force`](Self::force).
    pub fn append(&mut self, payload: &[u8]) {
        self.append_with(|out| out.extend_from_slice(payload));
    }

    /// [`Wal::append`] of the payload `write` appends to the buffer it
    /// is handed: an encoder writes the record straight into the
    /// pending buffer, behind the frame header, and no payload is built
    /// on its own. `write` must only append. Returns the framed bytes
    /// (header + payload).
    pub fn append_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> usize {
        let framed = record::frame_with(&mut self.pending, write);
        self.stats.appends += 1;
        self.stats.bytes += framed as u64;
        framed
    }

    /// Bytes appended but not yet forced.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether a force barrier has work to do.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Group-commit barrier: pushes every pending byte to the store and
    /// syncs. Returns `true` if a sync actually happened (the buffer
    /// was non-empty); an empty force is a free no-op.
    pub fn force(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        self.store.append(&self.pending);
        self.store.sync();
        self.pending.clear();
        self.stats.forces += 1;
        true
    }

    /// A crash **during** the force: only the first `keep` pending
    /// bytes land on the store (syncing them); the rest of the buffer
    /// is lost. `keep` past the buffer length lands everything.
    pub fn force_torn(&mut self, keep: usize) {
        let keep = keep.min(self.pending.len());
        if keep > 0 {
            self.store.append(&self.pending[..keep]);
            self.store.sync();
            self.stats.forces += 1;
        }
        self.pending.clear();
    }

    /// Traffic counters.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// A snapshot of the backing store's durable bytes — what a crash at
    /// this instant would leave behind. Checkpoint planning scans this
    /// image to decide which records [`Wal::rewrite`] keeps.
    #[must_use]
    pub fn durable_image(&self) -> Vec<u8> {
        self.store.durable_image()
    }

    /// Checkpoint truncation: re-scans the durable image and hands each
    /// record payload, in log order, to `edit` — `Some(payload)` keeps
    /// the record (rewritten in place when the payload differs),
    /// `None` drops it — then replaces the image with the survivors
    /// ([`Wal::rewrite`]).
    ///
    /// # Panics
    ///
    /// As [`Wal::rewrite`].
    pub fn truncate_before(&mut self, mut edit: impl FnMut(&[u8]) -> Option<Vec<u8>>) -> WalTrim {
        let image = self.store.durable_image();
        let scanned = record::scan(&image);
        self.rewrite(&scanned, |i, out| match edit(scanned.records[i]) {
            Some(kept) => {
                out.extend_from_slice(&kept);
                true
            }
            None => false,
        })
    }

    /// Checkpoint rewrite over `scanned`, the caller's scan of this
    /// log's current durable image ([`Wal::durable_image`]): for each
    /// record, in log order, `edit(i, out)` either appends to `out` the
    /// payload that replaces record `i` and returns `true` (kept,
    /// rewritten where the payload differs), or returns `false`
    /// (dropped; anything it appended is discarded). The survivors are
    /// framed into one buffer that atomically replaces the image,
    /// synced; the caller's scan is the only one. The log stays opaque
    /// to its own payloads: the *caller* decides what "below the
    /// watermark" means for its record format (the shard layer drops
    /// decision entries below the GC cut and compacts covered effect
    /// records).
    ///
    /// Traffic counters ([`WalStats`]) are untouched: they ledger the
    /// append traffic that happened, not the image size.
    ///
    /// # Panics
    ///
    /// Panics if bytes are pending (force them first — a checkpoint
    /// runs on a quiesced log) or `scanned` found a torn tail
    /// (checkpoints never run mid-crash).
    pub fn rewrite(
        &mut self,
        scanned: &record::ScanOutcome<'_>,
        mut edit: impl FnMut(usize, &mut Vec<u8>) -> bool,
    ) -> WalTrim {
        assert!(
            !self.has_pending(),
            "checkpoint with pending bytes — force them first"
        );
        assert!(
            !scanned.torn,
            "checkpoint over a torn log — recover it first"
        );
        let mut trim = WalTrim {
            bytes_before: scanned.valid_len as u64,
            ..WalTrim::default()
        };
        let mut out = Vec::with_capacity(scanned.valid_len);
        for i in 0..scanned.records.len() {
            let start = out.len();
            let mut kept = false;
            record::frame_with(&mut out, |out| kept = edit(i, out));
            if kept {
                trim.records_kept += 1;
            } else {
                out.truncate(start);
                trim.records_dropped += 1;
            }
        }
        trim.bytes_after = out.len() as u64;
        self.store.reset(&out);
        trim
    }
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Wal({} pending bytes, {:?})",
            self.pending.len(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_stay_pending_until_forced() {
        let (mut wal, durable) = Wal::in_memory();
        wal.append(b"one");
        wal.append(b"two");
        assert!(durable.is_empty());
        assert!(wal.has_pending());
        assert!(wal.force());
        assert!(!wal.has_pending());
        let image = durable.bytes();
        let scan = record::scan(&image);
        assert_eq!(scan.records, [b"one", b"two"]);
        assert!(!scan.torn);
    }

    #[test]
    fn empty_force_is_free() {
        let (mut wal, durable) = Wal::in_memory();
        assert!(!wal.force());
        assert_eq!(wal.stats().forces, 0);
        assert!(durable.is_empty());
    }

    #[test]
    fn crash_without_force_loses_pending_bytes() {
        let (mut wal, durable) = Wal::in_memory();
        wal.append(b"durable");
        wal.force();
        wal.append(b"lost");
        drop(wal); // the kill: pending buffer evaporates
        let image = durable.bytes();
        let scan = record::scan(&image);
        assert_eq!(scan.records, [b"durable"]);
        assert!(!scan.torn);
    }

    #[test]
    fn torn_force_recovers_longest_valid_prefix() {
        let (mut wal, durable) = Wal::in_memory();
        wal.append(b"first");
        wal.append(b"second");
        let first = record::frame(b"first").len();
        wal.force_torn(first + 4); // tear lands 4 bytes into record two
        let image = durable.bytes();
        let scan = record::scan(&image);
        assert_eq!(scan.records, [b"first"]);
        assert!(scan.torn);
        assert_eq!(scan.truncated_bytes, 4);
    }

    #[test]
    fn stats_count_appends_forces_bytes() {
        let (mut wal, _durable) = Wal::in_memory();
        wal.append(b"abc");
        wal.append(b"defgh");
        wal.force();
        wal.append(b"i");
        wal.force();
        wal.force(); // empty: uncounted
        let stats = wal.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.forces, 2);
        assert_eq!(stats.bytes, (3 * record::HEADER_LEN + 3 + 5 + 1) as u64);
    }

    #[test]
    fn truncate_before_drops_rewrites_and_keeps() {
        let (mut wal, durable) = Wal::in_memory();
        wal.append(b"drop-me");
        wal.append(b"rewrite-me");
        wal.append(b"keep-me");
        wal.force();
        let before = durable.bytes().len() as u64;
        let trim = wal.truncate_before(|payload| match payload {
            b"drop-me" => None,
            b"rewrite-me" => Some(b"rewritten".to_vec()),
            other => Some(other.to_vec()),
        });
        assert_eq!(trim.records_kept, 2);
        assert_eq!(trim.records_dropped, 1);
        assert_eq!(trim.bytes_before, before);
        assert!(trim.bytes_reclaimed() > 0);
        // The harvest handle sees the truncated image, and the log is
        // still appendable afterwards.
        let image = durable.bytes();
        let scan = record::scan(&image);
        assert_eq!(scan.records, [b"rewritten".as_slice(), b"keep-me"]);
        assert!(!scan.torn);
        wal.append(b"post-checkpoint");
        wal.force();
        let image = durable.bytes();
        let scan = record::scan(&image);
        assert_eq!(
            scan.records,
            [b"rewritten".as_slice(), b"keep-me", b"post-checkpoint"]
        );
    }

    #[test]
    fn append_with_frames_what_the_writer_appends() {
        let (mut wal, durable) = Wal::in_memory();
        wal.append(b"plain");
        let framed = wal.append_with(|out| {
            out.extend_from_slice(b"writ");
            out.push(b'-');
            out.extend_from_slice(b"ten");
        });
        assert_eq!(framed, record::HEADER_LEN + 8);
        assert_eq!(wal.stats().bytes, (2 * record::HEADER_LEN + 5 + 8) as u64);
        wal.force();
        // The same bytes as appending the whole payload at once.
        let mut expected = record::frame(b"plain");
        expected.extend_from_slice(&record::frame(b"writ-ten"));
        assert_eq!(durable.bytes(), expected);
    }

    #[test]
    fn rewrite_edits_the_callers_scan_by_position() {
        let (mut wal, durable) = Wal::in_memory();
        for payload in [b"a".as_slice(), b"bb", b"ccc"] {
            wal.append(payload);
        }
        wal.force();
        let image = wal.durable_image();
        let scanned = record::scan(&image);
        let trim = wal.rewrite(&scanned, |i, out| {
            out.extend_from_slice(scanned.records[i]);
            match i {
                0 => false, // dropped: what it appended is discarded
                1 => {
                    out.push(b'!');
                    true
                }
                _ => true,
            }
        });
        assert_eq!((trim.records_kept, trim.records_dropped), (2, 1));
        assert_eq!(trim.bytes_before, image.len() as u64);
        assert_eq!(trim.bytes_after, durable.len() as u64);
        assert_eq!(
            record::scan(&durable.bytes()).records,
            [b"bb!".as_slice(), b"ccc"]
        );
    }

    #[test]
    #[should_panic(expected = "pending bytes")]
    fn truncate_before_refuses_pending_bytes() {
        let (mut wal, _durable) = Wal::in_memory();
        wal.append(b"unforced");
        let _ = wal.truncate_before(|p| Some(p.to_vec()));
    }

    #[test]
    fn truncate_before_round_trips_on_file_store() {
        let path = std::env::temp_dir().join("pushtap-wal-truncate-test.wal");
        let mut wal = Wal::to_file(&path).expect("create log file");
        wal.append(b"stale");
        wal.append(b"fresh");
        wal.force();
        let trim = wal.truncate_before(|p| (p == b"fresh").then(|| p.to_vec()));
        assert_eq!((trim.records_kept, trim.records_dropped), (1, 1));
        // Appends after the reset land past the rewritten image on disk.
        wal.append(b"later");
        wal.force();
        drop(wal);
        let image = std::fs::read(&path).expect("read log");
        let scan = record::scan(&image);
        assert_eq!(scan.records, [b"fresh", b"later"]);
        assert!(!scan.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_store_round_trips() {
        let path = std::env::temp_dir().join("pushtap-wal-log-test.wal");
        let mut wal = Wal::to_file(&path).expect("create log file");
        wal.append(b"on-disk record");
        wal.force();
        drop(wal);
        let image = std::fs::read(&path).expect("read log");
        let scan = record::scan(&image);
        assert_eq!(scan.records, [b"on-disk record"]);
        let _ = std::fs::remove_file(&path);
    }
}
