//! Stable storage for crash-durable protocol nodes.
//!
//! The paper's quorum-intersection guarantee (every check quorum `C`
//! intersects every completed update quorum `M − C + 1`) only holds if a
//! manager that *acknowledged* an update can still answer for it after a
//! crash. That requires an op log on stable storage. This module defines
//! the [`Storage`] contract — an append-only write-ahead log plus an
//! atomically-replaced snapshot — and its one implementation, [`Wal`]:
//! CRC-framed records, `[len: u32 LE][crc32(payload): u32 LE][payload]`,
//! whose recovery keeps the longest prefix of whole frames and truncates
//! the rest, on a [`Disk`] of two files. [`SimStorage`] is the log on a
//! [`MemDisk`], whose seeded faults act on its bytes: a sync whose fsync
//! fails after the frames were written, and a crash that leaves a prefix
//! of the first unsynced frame behind (a torn tail). [`FileStorage`] is
//! the log in a [`DirDisk`], a directory, so the simulator's campaigns
//! recover through the decoder the live runtime recovers with.

use std::any::Any;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::MetricId;
use crate::obs::MetricsSink;
use crate::rng::SimRng;

/// Error returned by storage operations.
///
/// All failures modeled here are *transient*: the caller may retry the
/// operation later (the unflushed buffer is preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageError {
    /// The sync barrier failed; buffered records were NOT made durable.
    SyncFailed,
    /// An I/O error occurred writing the snapshot or log.
    Io,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::SyncFailed => write!(f, "sync barrier failed"),
            StorageError::Io => write!(f, "storage i/o error"),
        }
    }
}

impl std::error::Error for StorageError {}

/// What [`Storage::recover`] found on stable storage.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// The most recent complete snapshot, if one was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// WAL records that survived (appended after the snapshot, in append
    /// order). Torn or corrupt tail records have already been discarded.
    pub records: Vec<Vec<u8>>,
    /// Number of torn/corrupt records discarded during recovery.
    pub torn_records: u64,
}

/// Cumulative operation counters for a storage instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Records appended (durable or not).
    pub appends: u64,
    /// Successful sync barriers.
    pub syncs: u64,
    /// Failed sync barriers.
    pub sync_failures: u64,
    /// Snapshots written (each truncates the WAL).
    pub snapshots: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Torn records discarded across all recoveries.
    pub torn_records: u64,
    /// Unflushed records lost to crashes (the lost-suffix failure mode).
    pub lost_records: u64,
}

/// An append-only op log plus snapshot on stable storage.
///
/// Contract (what "stable" means here):
///
/// * records appended then [`sync`](Storage::sync)ed successfully survive
///   any later [`crash`](Storage::crash);
/// * records appended but not synced MAY be lost on crash (and in
///   [`Wal`] always are — the pessimistic model);
/// * [`write_snapshot`](Storage::write_snapshot) atomically replaces the
///   previous snapshot and truncates the log, unsynced records included
///   (the snapshot covers them) — a crash mid-snapshot never leaves a
///   half-written snapshot visible;
/// * [`recover`](Storage::recover) returns the latest snapshot plus every
///   surviving post-snapshot record, discarding any torn tail. A node
///   recovers when it starts and after every crash, before it appends;
///   a [`Wal`] that writes a log it has not read reads it first.
pub trait Storage: std::fmt::Debug + Send {
    /// Buffers a record for the op log. Durable only after a successful
    /// [`sync`](Storage::sync).
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError>;

    /// Write barrier: makes all buffered records durable. On failure the
    /// buffer is kept so the caller can retry.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Atomically replaces the snapshot and truncates the op log.
    fn write_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError>;

    /// Reads back durable state after a crash (or at first boot).
    fn recover(&mut self) -> Recovered;

    /// Models process death: unflushed state is lost according to the
    /// implementation's fault model. Durable state is untouched.
    fn crash(&mut self);

    /// Operation counters.
    fn stats(&self) -> StorageStats;

    /// Downcast support (e.g. to reach [`SimStorage`] fault knobs).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Disk fault probabilities for [`SimStorage`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskFaultModel {
    /// Probability that a [`Storage::sync`] barrier fails transiently.
    pub sync_fail_prob: f64,
    /// Probability that a crash with unflushed records leaves a torn
    /// (partially-written) tail record for recovery to discard.
    pub torn_tail_prob: f64,
}

/// The two files a [`Wal`] keeps: the log and the snapshot.
pub trait Disk: std::fmt::Debug + Send + 'static {
    /// The whole log; empty if there is none.
    fn read_wal(&mut self) -> io::Result<Vec<u8>>;

    /// Appends `bytes` to the log and fsyncs it. A failure may leave any
    /// prefix of `bytes` behind.
    fn append_wal(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Cuts the log to its first `len` bytes and fsyncs it.
    fn truncate_wal(&mut self, len: u64) -> io::Result<()>;

    /// The snapshot; `None` if there is none or it cannot be read.
    fn read_snapshot(&mut self) -> Option<Vec<u8>>;

    /// Replaces the snapshot in one atomic step.
    fn replace_snapshot(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// The process died while `lost`, the first unsynced frame, was in
    /// flight.
    fn crash(&mut self, _lost: &[u8]) {}
}

/// Bytes of one frame header: length + checksum.
const FRAME_HEADER: usize = 8;

/// Computes the CRC-32 (IEEE 802.3, reflected) of `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    // Table-driven, one table entry per byte value, built on first use.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

fn frame(record: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + record.len());
    out.extend_from_slice(&(record.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(record).to_le_bytes());
    out.extend_from_slice(record);
    out
}

/// Splits a WAL image into valid records, stopping at the first torn or
/// corrupt frame. Returns the records, the byte offset of the valid
/// prefix, and how many trailing garbage regions were discarded (0/1).
fn parse_wal(bytes: &[u8]) -> (Vec<Vec<u8>>, usize, u64) {
    let word = |at: usize| bytes.get(at..)?.first_chunk().copied().map(u32::from_le_bytes);
    let mut records = Vec::new();
    let mut offset = 0;
    while let (Some(len), Some(crc)) = (word(offset), word(offset + 4)) {
        let start = offset + FRAME_HEADER;
        let len = len as usize;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            break; // truncated payload
        };
        if crc32(&bytes[start..end]) != crc {
            break; // torn or bit-rotted frame
        }
        records.push(bytes[start..end].to_vec());
        offset = end;
    }
    let torn = u64::from(offset < bytes.len());
    (records, offset, torn)
}

/// What a [`Wal`] knows of the log on its disk.
#[derive(Debug, Clone, Copy)]
enum Log {
    /// Not read since the storage opened or crashed: a torn frame may
    /// follow the synced prefix, so the log is read before it is written.
    Unread,
    /// Exactly this many bytes, all synced frames.
    Synced(u64),
    /// This many bytes of synced frames, then bytes never acknowledged (a
    /// failed write's, or a log a snapshot has not yet emptied), to cut
    /// before the log is next written or read.
    Stale(u64),
}

/// The one [`Storage`]: a CRC-framed log and a one-frame snapshot on a
/// [`Disk`].
#[derive(Debug)]
pub struct Wal<D> {
    disk: D,
    /// Frames appended since the last successful sync.
    pending: Vec<u8>,
    log: Log,
    stats: StorageStats,
    /// Planted-bug hook: when set, `recover()` reports the WAL and
    /// snapshot gone, as if the files were deleted. The durability
    /// oracle must catch this.
    drop_state_on_recover: bool,
}

/// The log on a [`MemDisk`]: the simulator's stable storage.
///
/// ```
/// use wanacl_sim::storage::{SimStorage, Storage};
///
/// let mut st = SimStorage::new(7);
/// st.append(b"op-1").unwrap();
/// st.sync().unwrap();
/// st.append(b"op-2").unwrap(); // never synced
/// st.crash();
/// let rec = st.recover();
/// assert_eq!(rec.records, vec![b"op-1".to_vec()]); // suffix lost
/// ```
pub type SimStorage = Wal<MemDisk>;

/// The log in a [`DirDisk`]: a live manager's stable storage.
pub type FileStorage = Wal<DirDisk>;

impl<D: Disk> Wal<D> {
    fn on(disk: D) -> Self {
        Wal {
            disk,
            pending: Vec::new(),
            log: Log::Unread,
            stats: StorageStats::default(),
            drop_state_on_recover: false,
        }
    }

    /// Arms the planted drop-the-WAL bug: the next recovery returns
    /// nothing, as if stable storage were wiped. Campaigns and the live
    /// chaos harness arm it to prove the durability oracle (I5) catches
    /// a recovery bug.
    pub fn set_drop_state_on_recover(&mut self, drop: bool) {
        self.drop_state_on_recover = drop;
    }

    /// Cuts the log back to its synced prefix, reading the log first if
    /// this storage has not, and returns the prefix's length.
    fn synced_prefix(&mut self) -> io::Result<u64> {
        let (len, cut) = match self.log {
            Log::Synced(len) => (len, false),
            Log::Stale(len) => (len, true),
            // Whole frames were acknowledged before; a torn one goes.
            Log::Unread => {
                let log = self.disk.read_wal()?;
                let valid = parse_wal(&log).1;
                (valid as u64, valid < log.len())
            }
        };
        if cut {
            self.disk.truncate_wal(len)?;
        }
        self.log = Log::Synced(len);
        Ok(len)
    }

    /// Writes the pending frames after the synced prefix.
    fn write_pending(&mut self) -> io::Result<()> {
        let len = self.synced_prefix()?;
        // Until the disk confirms, part of `pending` may be on it.
        self.log = Log::Stale(len);
        self.disk.append_wal(&self.pending)?;
        self.log = Log::Synced(len + self.pending.len() as u64);
        Ok(())
    }
}

impl<D: Disk> Storage for Wal<D> {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.stats.appends += 1;
        self.pending.extend_from_slice(&frame(record));
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if !self.pending.is_empty() {
            if self.write_pending().is_err() {
                self.stats.sync_failures += 1;
                return Err(StorageError::SyncFailed);
            }
            self.pending.clear();
        }
        self.stats.syncs += 1;
        Ok(())
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.disk.replace_snapshot(&frame(snapshot)).map_err(|_| StorageError::Io)?;
        // The snapshot covers every record, synced or not: the log
        // starts over, and if emptying it fails now the next write does.
        self.pending.clear();
        self.log = Log::Stale(0);
        self.synced_prefix().map_err(|_| StorageError::Io)?;
        self.stats.snapshots += 1;
        Ok(())
    }

    fn recover(&mut self) -> Recovered {
        self.stats.recoveries += 1;
        // What a failed sync left was never acknowledged.
        if let Log::Stale(_) = self.log {
            let _ = self.synced_prefix();
        }
        let (records, torn_records) = match self.disk.read_wal() {
            Ok(log) => {
                let (records, valid, torn) = parse_wal(&log);
                // A torn or corrupt tail goes, so later syncs extend a
                // clean log instead of burying frames behind bad bytes.
                let valid = valid as u64;
                self.log = if torn > 0 { Log::Stale(valid) } else { Log::Synced(valid) };
                let _ = self.synced_prefix();
                (records, torn)
            }
            // An unreadable log replays nothing, and what this storage
            // knew of it stands: no write cuts what the log holds.
            Err(_) => (Vec::new(), 0),
        };
        self.stats.torn_records += torn_records;
        if self.drop_state_on_recover {
            // Planted bug: stable storage "reads back" empty.
            return Recovered { snapshot: None, records: Vec::new(), torn_records };
        }
        // The snapshot is one frame, so a corrupt snapshot reads back as
        // absent rather than as garbage state.
        let snapshot = match self.disk.read_snapshot().map(|bytes| parse_wal(&bytes)) {
            Some((mut frames, _, 0)) if frames.len() == 1 => frames.pop(),
            _ => None,
        };
        Recovered { snapshot, records, torn_records }
    }

    fn crash(&mut self) {
        // Everything past the last sync barrier is gone; the first lost
        // frame may have been half-written.
        if let Log::Stale(_) = self.log {
            let _ = self.synced_prefix();
        }
        if let Some(&len) = self.pending.first_chunk() {
            self.stats.lost_records += parse_wal(&self.pending).0.len() as u64;
            let first = FRAME_HEADER + u32::from_le_bytes(len) as usize;
            self.disk.crash(&self.pending[..first]);
            self.pending.clear();
        }
        // That frame is read back before the log is written again (a tail
        // the disk would not cut stays marked for cutting).
        if let Log::Synced(_) = self.log {
            self.log = Log::Unread;
        }
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The simulator's disk: both files in memory, with a seeded
/// [`DiskFaultModel`].
#[derive(Debug)]
pub struct MemDisk {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    faults: DiskFaultModel,
    /// Decides which syncs fail and which crashes tear.
    rng: SimRng,
    /// Decides where a torn frame is cut.
    cut_rng: SimRng,
}

impl SimStorage {
    /// Creates fault-free storage with a deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        SimStorage::with_faults(seed, DiskFaultModel::default())
    }

    /// Creates storage with the given fault model.
    pub fn with_faults(seed: u64, faults: DiskFaultModel) -> Self {
        Wal::on(MemDisk {
            wal: Vec::new(),
            snapshot: None,
            faults,
            rng: SimRng::seed_from(seed ^ 0x5349_4d53_544f_5245), // "SIMSTORE"
            cut_rng: SimRng::seed_from(seed ^ 0x544f_524e_5441_494c), // "TORNTAIL"
        })
    }

    /// Replaces the fault model (used when a nemesis plan layers disk
    /// faults onto a node).
    pub fn set_fault_model(&mut self, faults: DiskFaultModel) {
        self.disk.faults = faults;
    }
}

impl Disk for MemDisk {
    fn read_wal(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.wal.clone())
    }

    fn append_wal(&mut self, bytes: &[u8]) -> io::Result<()> {
        // A failed fsync still wrote the frames.
        self.wal.extend_from_slice(bytes);
        if self.rng.chance(self.faults.sync_fail_prob) {
            return Err(io::Error::other("injected fsync failure"));
        }
        Ok(())
    }

    fn truncate_wal(&mut self, len: u64) -> io::Result<()> {
        self.wal.truncate(len as usize);
        Ok(())
    }

    fn read_snapshot(&mut self) -> Option<Vec<u8>> {
        self.snapshot.clone()
    }

    fn replace_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn crash(&mut self, lost: &[u8]) {
        // With probability `torn_tail_prob` a proper prefix of the first
        // lost frame reached the platter.
        if self.rng.chance(self.faults.torn_tail_prob) {
            let cut = self.cut_rng.range(1, lost.len() as u64) as usize;
            self.wal.extend_from_slice(&lost[..cut]);
        }
    }
}

/// WAL file name inside the storage directory.
const WAL_FILE: &str = "wal";
/// Snapshot file name inside the storage directory.
const SNAPSHOT_FILE: &str = "snapshot";
/// Temporary snapshot name (renamed over [`SNAPSHOT_FILE`] when safe).
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// A real disk: the two files in a directory.
#[derive(Debug)]
pub struct DirDisk {
    dir: PathBuf,
    /// The WAL, opened for appending on first write.
    wal: Option<File>,
    /// Optional sink for `storage.*` counters and fsync latency.
    metrics: Option<MetricsSink>,
}

impl FileStorage {
    /// Opens (creating if needed) storage rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, io::Error> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Wal::on(DirDisk { dir, wal: None, metrics: None }))
    }

    /// Attaches a metrics sink: every WAL write then records a
    /// `storage.wal_fsync` count and a `storage.wal_fsync_s` wall-clock
    /// latency sample — the real-disk analogue of the simulator's
    /// `mgr.wal_appends` accounting.
    pub fn with_metrics(mut self, metrics: MetricsSink) -> Self {
        self.disk.metrics = Some(metrics);
        self
    }
}

impl DirDisk {
    fn wal(&mut self) -> io::Result<&mut File> {
        let file = match self.wal.take() {
            Some(file) => file,
            None => {
                let file =
                    OpenOptions::new().create(true).append(true).open(self.dir.join(WAL_FILE))?;
                // A log this open created survives a power cut only once
                // its directory entry does.
                self.sync_dir();
                file
            }
        };
        Ok(self.wal.insert(file))
    }

    /// Makes renames and creations in the directory durable (best-effort
    /// on platforms where a directory cannot be opened).
    fn sync_dir(&self) {
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
    }
}

impl Disk for DirDisk {
    fn read_wal(&mut self) -> io::Result<Vec<u8>> {
        match fs::read(self.dir.join(WAL_FILE)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            read => read,
        }
    }

    fn append_wal(&mut self, bytes: &[u8]) -> io::Result<()> {
        let fsync_start = Instant::now();
        let result = self.wal().and_then(|wal| {
            wal.write_all(bytes)?;
            wal.sync_all()
        });
        if let Some(metrics) = &self.metrics {
            metrics.incr(MetricId::STORAGE_WAL_FSYNC);
            metrics.observe(MetricId::STORAGE_WAL_FSYNC_S, fsync_start.elapsed().as_secs_f64());
            if result.is_err() {
                metrics.incr(MetricId::STORAGE_WAL_FSYNC_FAILED);
            }
        }
        result
    }

    fn truncate_wal(&mut self, len: u64) -> io::Result<()> {
        let wal = self.wal()?;
        wal.set_len(len)?;
        wal.sync_all()
    }

    fn read_snapshot(&mut self) -> Option<Vec<u8>> {
        fs::read(self.dir.join(SNAPSHOT_FILE)).ok()
    }

    fn replace_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.sync_dir();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh scratch directory per storage (no tempfile dependency).
    fn scratch() -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("wanacl-wal-{}-{n}", std::process::id()))
    }

    /// Overwrites the log's bytes (to damage them).
    fn rewrite_wal(disk: &mut impl Disk, bytes: &[u8]) {
        disk.truncate_wal(0).unwrap();
        disk.append_wal(bytes).unwrap();
    }

    /// A disk the contract tests run on.
    trait Rig: Disk + Sized {
        /// Makes every log write fail (`true`), or succeed again.
        fn obstruct(&mut self, on: bool);
    }

    impl Rig for MemDisk {
        fn obstruct(&mut self, on: bool) {
            self.faults.sync_fail_prob = if on { 1.0 } else { 0.0 };
        }
    }

    impl Rig for DirDisk {
        fn obstruct(&mut self, on: bool) {
            // A directory squatting on the WAL path makes the reopen fail
            // at the filesystem; the log waits beside it.
            self.wal = None;
            let (wal, aside) = (self.dir.join(WAL_FILE), self.dir.join("wal.aside"));
            if on {
                fs::rename(&wal, &aside).unwrap();
                fs::create_dir(&wal).unwrap();
            } else {
                fs::remove_dir(&wal).unwrap();
                fs::rename(&aside, &wal).unwrap();
            }
        }
    }

    /// Runs a contract test on fresh, empty storage on each disk.
    fn on_each_disk(mem: fn(SimStorage), dir: fn(FileStorage)) {
        mem(SimStorage::new(0));
        let path = scratch();
        dir(FileStorage::open(&path).unwrap());
        let _ = fs::remove_dir_all(path);
    }

    #[test]
    fn synced_records_survive_crash() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.append(b"a").unwrap();
            st.append(b"b").unwrap();
            st.sync().unwrap();
            st.crash();
            let rec = st.recover();
            assert_eq!((rec.records, rec.torn_records), (vec![b"a".to_vec(), b"b".to_vec()], 0));
        }
        on_each_disk(run, run);
    }

    #[test]
    fn unsynced_suffix_is_lost_on_crash() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.append(b"a").unwrap();
            st.sync().unwrap();
            st.append(b"lost").unwrap();
            st.crash();
            assert_eq!(st.recover().records, vec![b"a".to_vec()]);
            assert_eq!(st.stats().lost_records, 1);
        }
        on_each_disk(run, run);
    }

    /// The snapshot replaces the log, records not yet synced included:
    /// it covers them.
    #[test]
    fn snapshot_truncates_log_and_survives() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.append(b"a").unwrap();
            st.sync().unwrap();
            st.append(b"unsynced").unwrap();
            st.write_snapshot(b"snap").unwrap();
            st.append(b"after").unwrap();
            st.sync().unwrap();
            st.crash();
            let rec = st.recover();
            assert_eq!(rec.snapshot, Some(b"snap".to_vec()));
            assert_eq!(rec.records, vec![b"after".to_vec()]);
        }
        on_each_disk(run, run);
    }

    #[test]
    fn torn_tail_is_detected_truncated_and_log_stays_usable() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.append(b"good").unwrap();
            st.sync().unwrap();
            // A power cut mid-append: half a frame lands on disk.
            let bytes = [st.disk.read_wal().unwrap(), frame(b"torn-record")[..10].to_vec()].concat();
            rewrite_wal(&mut st.disk, &bytes);
            let rec = st.recover();
            assert_eq!((rec.records, rec.torn_records), (vec![b"good".to_vec()], 1));
            // The tail was truncated: appending works and recovers cleanly.
            st.append(b"after").unwrap();
            st.sync().unwrap();
            let rec = st.recover();
            assert_eq!(rec.records, vec![b"good".to_vec(), b"after".to_vec()]);
            assert_eq!(rec.torn_records, 0);
        }
        on_each_disk(run, run);
    }

    #[test]
    fn corrupt_frame_stops_replay_at_the_damage() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.append(b"one").unwrap();
            st.append(b"two").unwrap();
            st.sync().unwrap();
            // Flip a payload bit in the second frame.
            let mut bytes = st.disk.read_wal().unwrap();
            *bytes.last_mut().unwrap() ^= 0x01;
            rewrite_wal(&mut st.disk, &bytes);
            let rec = st.recover();
            assert_eq!((rec.records, rec.torn_records), (vec![b"one".to_vec()], 1));
        }
        on_each_disk(run, run);
    }

    #[test]
    fn corrupt_snapshot_reads_back_as_absent() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.write_snapshot(b"state").unwrap();
            let mut bytes = st.disk.read_snapshot().unwrap();
            *bytes.last_mut().unwrap() ^= 0xff;
            st.disk.replace_snapshot(&bytes).unwrap();
            assert_eq!(st.recover().snapshot, None);
        }
        on_each_disk(run, run);
    }

    /// A disk that refuses writes (on the in-memory disk: fsyncs that
    /// fail after the frames were written) fails `sync`, counted; once it
    /// heals, the same storage syncs again and writes each record once.
    #[test]
    fn failed_wal_reopen_is_an_error_not_a_panic() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.append(b"r1").unwrap();
            st.sync().unwrap();
            st.disk.obstruct(true);
            st.append(b"r2").unwrap();
            assert_eq!(st.sync(), Err(StorageError::SyncFailed));
            assert_eq!(st.sync(), Err(StorageError::SyncFailed));
            assert_eq!(st.stats().sync_failures, 2);
            st.disk.obstruct(false);
            assert_eq!(st.sync(), Ok(()));
            st.crash();
            assert_eq!(st.recover().records, vec![b"r1".to_vec(), b"r2".to_vec()]);
        }
        on_each_disk(run, run);
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        fn run<D: Rig>(mut st: Wal<D>) {
            let rec = st.recover();
            assert_eq!((rec.snapshot, rec.records, rec.torn_records), (None, vec![], 0));
        }
        on_each_disk(run, run);
    }

    #[test]
    fn drop_state_bug_wipes_everything() {
        fn run<D: Rig>(mut st: Wal<D>) {
            st.append(b"a").unwrap();
            st.sync().unwrap();
            st.write_snapshot(b"snap").unwrap();
            st.append(b"b").unwrap();
            st.sync().unwrap();
            st.set_drop_state_on_recover(true);
            st.crash();
            let rec = st.recover();
            assert_eq!((rec.snapshot, rec.records), (None, vec![]));
        }
        on_each_disk(run, run);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A write the disk cut short, as a full disk's would: the retry
    /// rewrites from the synced length, not behind the half frame.
    #[test]
    fn a_write_cut_short_is_rewritten_from_the_synced_length() {
        let mut st = SimStorage::new(0);
        st.append(b"acked").unwrap();
        st.sync().unwrap();
        st.append(b"b").unwrap();
        st.append(b"c").unwrap();
        st.disk.obstruct(true);
        assert_eq!(st.sync(), Err(StorageError::SyncFailed));
        // One and a half of the two frames landed.
        st.disk.wal.truncate(FRAME_HEADER + 5 + FRAME_HEADER + 1 + 4);
        st.disk.obstruct(false);
        st.sync().unwrap();
        st.crash();
        let rec = st.recover();
        assert_eq!(rec.records, vec![b"acked".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(rec.torn_records, 0);
    }

    /// A storage that has not read its log (a new process that syncs
    /// before it recovers, or one that could not read the log when it
    /// recovered) reads it before writing it: a failed sync's retry cuts
    /// nothing acknowledged.
    #[test]
    fn a_log_is_read_before_it_is_written() {
        let dir = scratch();
        let fail_then_retry = |st: &mut FileStorage, record: &[u8]| {
            st.append(record).unwrap();
            st.disk.obstruct(true);
            assert_eq!(st.sync(), Err(StorageError::SyncFailed));
            st.disk.obstruct(false);
            st.sync().unwrap();
        };
        let mut st = FileStorage::open(&dir).unwrap();
        st.append(b"a").unwrap();
        st.sync().unwrap();
        // No recovery.
        fail_then_retry(&mut FileStorage::open(&dir).unwrap(), b"b");
        // A recovery that cannot read the log.
        let mut st = FileStorage::open(&dir).unwrap();
        st.disk.obstruct(true);
        assert!(st.recover().records.is_empty());
        st.disk.obstruct(false);
        st.append(b"c").unwrap();
        st.sync().unwrap();
        fail_then_retry(&mut st, b"d");
        let rec = FileStorage::open(&dir).unwrap().recover();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(rec.records, [b"a", b"b", b"c", b"d"].map(|r| r.to_vec()));
        assert_eq!(rec.torn_records, 0);
    }

    #[test]
    fn synced_records_survive_crash_and_reopen() {
        let dir = scratch();
        let mut st = FileStorage::open(&dir).unwrap();
        st.append(b"alpha").unwrap();
        st.append(b"beta").unwrap();
        st.sync().unwrap();
        st.append(b"never-synced").unwrap();
        st.crash();

        // A brand-new instance (fresh process) sees only the synced prefix.
        let mut st2 = FileStorage::open(&dir).unwrap();
        let rec = st2.recover();
        assert_eq!(rec.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(rec.torn_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_failure_keeps_buffer_for_retry() {
        let mut st =
            SimStorage::with_faults(4, DiskFaultModel { sync_fail_prob: 1.0, torn_tail_prob: 0.0 });
        st.append(b"a").unwrap();
        assert_eq!(st.sync(), Err(StorageError::SyncFailed));
        assert_eq!(st.pending, frame(b"a"));
        st.set_fault_model(DiskFaultModel::default());
        st.sync().unwrap();
        st.crash();
        assert_eq!(st.recover().records, vec![b"a".to_vec()]);
    }

    #[test]
    fn torn_tail_is_reported_once() {
        let mut st =
            SimStorage::with_faults(5, DiskFaultModel { sync_fail_prob: 0.0, torn_tail_prob: 1.0 });
        st.append(b"a").unwrap();
        st.crash();
        assert!(!st.disk.wal.is_empty(), "a prefix of the lost frame reached the disk");
        let rec = st.recover();
        assert_eq!(rec.torn_records, 1);
        assert!(rec.records.is_empty());
        // The torn tail was truncated; it is not reported again.
        assert!(st.disk.wal.is_empty());
        assert_eq!(st.recover().torn_records, 0);
    }

    #[test]
    fn crash_with_empty_buffer_tears_nothing() {
        let mut st =
            SimStorage::with_faults(6, DiskFaultModel { sync_fail_prob: 0.0, torn_tail_prob: 1.0 });
        st.append(b"a").unwrap();
        st.sync().unwrap();
        st.crash();
        assert_eq!(st.recover().torn_records, 0);
        assert_eq!(st.stats().lost_records, 0);
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let run = |seed| {
            let mut st = SimStorage::with_faults(
                seed,
                DiskFaultModel { sync_fail_prob: 0.5, torn_tail_prob: 0.5 },
            );
            let mut outcomes = Vec::new();
            for i in 0..32u32 {
                st.append(&i.to_be_bytes()).unwrap();
                outcomes.push(st.sync().is_ok());
                if i % 5 == 0 {
                    st.crash();
                    outcomes.push(st.recover().torn_records > 0);
                }
            }
            outcomes
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn sync_records_fsync_count_and_latency() {
        let dir = scratch();
        let sink = MetricsSink::new();
        let mut st = FileStorage::open(&dir).unwrap().with_metrics(sink.clone());
        st.append(b"r1").unwrap();
        st.sync().unwrap();
        st.append(b"r2").unwrap();
        st.sync().unwrap();
        assert_eq!(sink.counter("storage.wal_fsync"), 2);
        assert_eq!(sink.counter("storage.wal_fsync_failed"), 0);
        let snap = sink.snapshot();
        let s = snap.histogram("storage.wal_fsync_s").and_then(|h| h.summary()).expect("samples");
        assert_eq!(s.count, 2);
        assert!(s.min >= 0.0);
        let _ = fs::remove_dir_all(dir);
    }

    /// The record-vector model `SimStorage` was before it kept bytes:
    /// the reference the byte model matches, draw for draw.
    #[derive(Debug)]
    struct Reference {
        durable: Vec<Vec<u8>>,
        buffered: Vec<Vec<u8>>,
        snapshot: Option<Vec<u8>>,
        unreported_tears: u64,
        faults: DiskFaultModel,
        rng: SimRng,
        stats: StorageStats,
    }

    impl Reference {
        fn sync(&mut self) -> bool {
            if !self.buffered.is_empty() && self.rng.chance(self.faults.sync_fail_prob) {
                self.stats.sync_failures += 1;
                return false;
            }
            self.stats.syncs += 1;
            self.durable.append(&mut self.buffered);
            true
        }

        fn crash(&mut self) {
            if !self.buffered.is_empty() {
                self.stats.lost_records += self.buffered.len() as u64;
                if self.rng.chance(self.faults.torn_tail_prob) {
                    self.unreported_tears += 1;
                }
                self.buffered.clear();
            }
        }

        fn recover(&mut self) -> (Option<Vec<u8>>, Vec<Vec<u8>>, u64) {
            self.stats.recoveries += 1;
            let torn = std::mem::take(&mut self.unreported_tears);
            self.stats.torn_records += torn;
            (self.snapshot.clone(), self.durable.clone(), torn)
        }
    }

    proptest! {
        /// Random append / sync / crash-and-recover / recover / snapshot
        /// sequences under random fault odds: the byte model recovers
        /// what the record model recovers, reports the torn tails it
        /// reports and keeps the same counters.
        #[test]
        fn byte_model_matches_the_record_model(
            seed in any::<u64>(),
            (sync_fail, torn) in (0u8..4, 0u8..4),
            ops in prop::collection::vec((0u8..8, prop::collection::vec(any::<u8>(), 0..12)), 0..60),
        ) {
            let faults = DiskFaultModel {
                sync_fail_prob: f64::from(sync_fail) / 3.0,
                torn_tail_prob: f64::from(torn) / 3.0,
            };
            let mut st = SimStorage::with_faults(seed, faults);
            let mut model = Reference {
                durable: Vec::new(),
                buffered: Vec::new(),
                snapshot: None,
                unreported_tears: 0,
                faults,
                rng: SimRng::seed_from(seed ^ 0x5349_4d53_544f_5245),
                stats: StorageStats::default(),
            };
            for (op, bytes) in ops {
                match op {
                    0..=2 => {
                        st.append(&bytes).unwrap();
                        model.stats.appends += 1;
                        model.buffered.push(bytes);
                    }
                    3 | 4 => prop_assert_eq!(st.sync().is_ok(), model.sync()),
                    5 | 6 => {
                        // A crash is always followed by a recovery.
                        if op == 5 {
                            st.crash();
                            model.crash();
                        }
                        let got = st.recover();
                        prop_assert_eq!((got.snapshot, got.records, got.torn_records), model.recover());
                    }
                    _ => {
                        st.write_snapshot(&bytes).unwrap();
                        model.snapshot = Some(bytes);
                        model.durable.clear();
                        model.buffered.clear();
                        model.stats.snapshots += 1;
                    }
                }
                prop_assert_eq!(st.stats(), model.stats);
            }
        }

        /// Bit rot in a synced frame: recovery keeps exactly the frames
        /// before it and reports one torn region.
        #[test]
        fn a_flipped_bit_keeps_the_frames_before_it(
            records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..6),
            (which, at, bit) in (any::<usize>(), any::<usize>(), 0u8..8),
        ) {
            let mut st = SimStorage::new(1);
            for record in &records {
                st.append(record).unwrap();
            }
            st.sync().unwrap();
            let k = which % records.len();
            let start: usize = records[..k].iter().map(|r| FRAME_HEADER + r.len()).sum();
            st.disk.wal[start + at % (FRAME_HEADER + records[k].len())] ^= 1 << bit;
            let rec = st.recover();
            prop_assert_eq!(&rec.records[..], &records[..k]);
            prop_assert_eq!(rec.torn_records, 1);
        }

        // The frame reader's fuzz harness: whatever the file holds, recovery
        // keeps exactly a prefix of whole, checksummed frames and says
        // whether anything followed it.
        #[test]
        fn frame_reader_keeps_a_valid_prefix_of_any_bytes(
            records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..5),
            junk in prop::collection::vec(any::<u8>(), 0..24),
            (how, at, bit) in (0u8..4, any::<usize>(), 0u8..8),
        ) {
            let mut image: Vec<u8> = records.iter().flat_map(|r| frame(r)).collect();
            prop_assert_eq!(parse_wal(&image), (records.clone(), image.len(), 0));
            // Damage it: cut short, flip a bit, claim a 4 GiB payload, or
            // append garbage.
            let at = at % image.len().max(1);
            match how {
                0 => image.truncate(at),
                1 => image.iter_mut().skip(at).take(1).for_each(|b| *b ^= 1 << bit),
                2 => image.iter_mut().skip(at).take(4).for_each(|b| *b = 0xff),
                _ => image.extend_from_slice(&junk),
            }
            let (kept, offset, torn) = parse_wal(&image);
            prop_assert!(offset <= image.len());
            prop_assert_eq!(torn, u64::from(offset < image.len()));
            let reframed: Vec<u8> = kept.iter().flat_map(|r| frame(r)).collect();
            prop_assert_eq!(&reframed[..], &image[..offset]);
            // Arbitrary bytes from the first one on.
            let (kept, offset, _) = parse_wal(&junk);
            let reframed: Vec<u8> = kept.iter().flat_map(|r| frame(r)).collect();
            prop_assert_eq!(&reframed[..], &junk[..offset]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// A crash between writing the next snapshot and renaming it
        /// leaves `snapshot.tmp` behind, whole or torn: the old snapshot
        /// and the log written after it recover, the records before it
        /// do not.
        #[test]
        fn snapshot_is_atomic_and_truncates_the_wal(
            before in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..4),
            snapshot in prop::collection::vec(any::<u8>(), 0..32),
            after in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..4),
            (next, whole) in (prop::collection::vec(any::<u8>(), 0..32), any::<bool>()),
        ) {
            let dir = scratch();
            let mut st = FileStorage::open(&dir).unwrap();
            for record in &before {
                st.append(record).unwrap();
            }
            st.sync().unwrap();
            st.write_snapshot(&snapshot).unwrap();
            for record in &after {
                st.append(record).unwrap();
            }
            st.sync().unwrap();
            fs::write(dir.join(SNAPSHOT_TMP), if whole { frame(&next) } else { next }).unwrap();
            st.crash();
            let rec = FileStorage::open(&dir).unwrap().recover();
            let _ = fs::remove_dir_all(&dir);
            prop_assert_eq!((rec.snapshot, rec.records, rec.torn_records), (Some(snapshot), after, 0));
        }
    }
}
