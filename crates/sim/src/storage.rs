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
//!
//! A [`DirDisk`] writes on an I/O thread of its own. A barrier asked
//! during a live runtime's step ([`in_step`]) goes *in flight*: the step
//! returns at once, and the node is woken with a timer when the write
//! lands ([`Storage::barrier`]). A [`MemDisk`] writes inline, so the
//! simulator never sees a write in flight.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::metrics::MetricId;
use crate::node::{NodeId, Timer, TimerId};
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

/// What [`Storage::barrier`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Barrier {
    /// Every record appended before the call is durable, or the barrier
    /// failed and the records wait for a retry.
    Done(Result<(), StorageError>),
    /// The disk took the write in flight; the node is woken with the
    /// barrier's tag once it lands.
    Started,
    /// The write in flight has not landed yet.
    Waiting,
    /// The write in flight landed with this outcome. Records appended
    /// after the disk took it wait for the next barrier.
    Landed(Result<(), StorageError>),
}

/// How an executor fires a timer of one of its nodes from another
/// thread: the live runtime queues it on the node's control lane.
pub type Fire = Arc<dyn Fn(Timer) + Send + Sync>;

thread_local! {
    /// The executor's [`Fire`] on a thread that steps nodes.
    static FIRE: RefCell<Option<Fire>> = const { RefCell::new(None) };
    /// The node this thread is stepping, and its incarnation.
    static STEP: Cell<Option<(NodeId, u32)>> = const { Cell::new(None) };
}

/// Lets the steps this thread runs hand writes over in flight: a write a
/// disk takes during [`in_step`] wakes its node through `fire`.
pub fn take_wakes(fire: Fire) {
    FIRE.with(|slot| *slot.borrow_mut() = Some(fire));
}

/// Runs `f` as a step of `node` in `incarnation`. On a thread that
/// [`take_wakes`], a barrier asked in it may go in flight, and the wake
/// is a timer of that incarnation, so a crash, a kill or a restart in
/// between voids it.
pub fn in_step<R>(node: NodeId, incarnation: u32, f: impl FnOnce() -> R) -> R {
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            STEP.with(|step| step.set(None));
        }
    }
    STEP.with(|step| step.set(Some((node, incarnation))));
    let _leave = Leave;
    f()
}

/// Wakes the node that handed a write over: it fires the node's
/// `on_timer(tag)` in the incarnation that handed it.
pub struct Waker {
    fire: Fire,
    timer: Timer,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").field("timer", &self.timer).finish()
    }
}

impl Waker {
    /// The running step's waker for `tag`, on a thread that takes wakes.
    fn for_step(tag: u64) -> Option<Waker> {
        let (node, incarnation) = STEP.with(Cell::get)?;
        let fire = FIRE.with(|slot| slot.borrow().clone())?;
        Some(Waker { fire, timer: Timer { node, id: TimerId::WAKE, tag, incarnation } })
    }

    /// Fires the wake.
    pub fn wake(self) {
        (self.fire)(self.timer);
    }
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

    /// Write barrier: makes all buffered records durable, waiting for the
    /// disk. On failure the buffer is kept so the caller can retry.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// The barrier of a step that does not wait for the disk. A disk that
    /// writes in the background, asked during a live runtime's step
    /// ([`in_step`]), takes the write in flight: [`Barrier::Started`].
    /// When it lands the node gets `on_timer(tag)`, and the next call
    /// reports [`Barrier::Landed`]. Otherwise it is [`sync`](Storage::sync).
    /// A sync, a snapshot, a crash or a recovery waits for a write in
    /// flight.
    fn barrier(&mut self, tag: u64) -> Barrier;

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

    /// Appends and fsyncs `bytes` like [`append_wal`](Disk::append_wal),
    /// after every write handed over before. A disk that writes in the
    /// background and is given `wake` returns `None`: the write is in
    /// flight, and `wake` runs once [`landed`](Disk::landed) has its
    /// outcome. Any other returns the outcome.
    fn hand_over(&mut self, bytes: &[u8], _wake: Option<Waker>) -> Option<io::Result<()>> {
        Some(self.append_wal(bytes))
    }

    /// The outcome of the write in flight once it has landed (with
    /// `wait`, once it lands); `None` before, or with none in flight.
    fn landed(&mut self, _wait: bool) -> Option<io::Result<()>> {
        None
    }
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
    /// Frames appended since the last successful sync, and not in flight.
    pending: Vec<u8>,
    /// Frames in the write in flight; empty when none is.
    writing: Vec<u8>,
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
    /// The log on `disk`, not yet read.
    pub fn on(disk: D) -> Self {
        Wal {
            disk,
            pending: Vec::new(),
            writing: Vec::new(),
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

    /// Hands the pending frames to the disk, to follow the synced
    /// prefix: in flight if the disk takes `wake`, else written at once.
    fn start(&mut self, wake: Option<Waker>) -> Barrier {
        if self.pending.is_empty() {
            self.stats.syncs += 1;
            return Barrier::Done(Ok(()));
        }
        let Ok(len) = self.synced_prefix() else {
            self.stats.sync_failures += 1;
            return Barrier::Done(Err(StorageError::SyncFailed));
        };
        // Until the disk confirms, part of the frames may be on it.
        self.log = Log::Stale(len);
        std::mem::swap(&mut self.pending, &mut self.writing);
        match self.disk.hand_over(&self.writing, wake) {
            Some(result) => Barrier::Done(self.finish(result)),
            None => Barrier::Started,
        }
    }

    /// The write in flight, if any, has landed (with `wait`, once it
    /// lands): its outcome.
    fn land(&mut self, wait: bool) -> Option<Result<(), StorageError>> {
        if self.writing.is_empty() {
            return None;
        }
        let result = self.disk.landed(wait)?;
        Some(self.finish(result))
    }

    /// Ends a write: its frames extend the synced prefix, or go back in
    /// front of the frames appended since, for a retry.
    fn finish(&mut self, result: io::Result<()>) -> Result<(), StorageError> {
        // A write always follows the prefix `start` marked stale.
        if let (Ok(()), Log::Stale(len)) = (result, self.log) {
            self.log = Log::Synced(len + self.writing.len() as u64);
            self.writing.clear();
            self.stats.syncs += 1;
            return Ok(());
        }
        self.writing.append(&mut self.pending);
        std::mem::swap(&mut self.pending, &mut self.writing);
        self.stats.sync_failures += 1;
        Err(StorageError::SyncFailed)
    }
}

impl<D: Disk> Storage for Wal<D> {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.stats.appends += 1;
        self.pending.extend_from_slice(&frame(record));
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.land(true).unwrap_or(Ok(()))?;
        match self.start(None) {
            Barrier::Done(result) => result,
            other => unreachable!("a write without a waker is done at once, not {other:?}"),
        }
    }

    fn barrier(&mut self, tag: u64) -> Barrier {
        if self.writing.is_empty() {
            return self.start(Waker::for_step(tag));
        }
        match self.land(false) {
            Some(result) => Barrier::Landed(result),
            None => Barrier::Waiting,
        }
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        // The snapshot covers the frames of a write in flight, landed or
        // not.
        self.land(true);
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
        self.land(true);
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
        // A write in flight lands whole or fails; then everything past the
        // last sync barrier is gone, and the first lost frame may have
        // been half-written.
        self.land(true);
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

/// A real disk: the two files in a directory. Every write runs on the
/// disk's own I/O thread, in the order it was handed over; an append
/// handed over with a [`Waker`] is in flight until the thread reports
/// back, and any other write waits for its turn and its outcome.
#[derive(Debug)]
pub struct DirDisk {
    dir: PathBuf,
    /// Where the writes go to the thread; taken when the disk drops.
    jobs: Option<Sender<Job>>,
    thread: Option<JoinHandle<()>>,
    /// Where the thread reports the outcome of the append in flight.
    in_flight: Option<Receiver<io::Result<()>>>,
}

/// A write for the I/O thread.
type Job = Box<dyn FnOnce(&mut Files) + Send>;

/// What the I/O thread writes with: the directory, the open log and
/// where fsyncs are counted.
#[derive(Debug)]
struct Files {
    dir: PathBuf,
    /// The WAL, opened for appending on first write.
    wal: Option<File>,
    metrics: Option<MetricsSink>,
    /// Makes the directory's fsync fail.
    #[cfg(test)]
    fail_dir_sync: bool,
}

impl FileStorage {
    /// Opens (creating if needed) storage rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, io::Error> {
        DirDisk::open(dir).map(Wal::on)
    }

    /// Attaches a metrics sink: every later fsync the disk waits for (an
    /// append's, a cut-back's, a snapshot's and the directory's) records
    /// a `storage.wal_fsync` count and a `storage.wal_fsync_s`
    /// wall-clock latency sample, the real-disk analogue of the
    /// simulator's `mgr.wal_appends` accounting.
    pub fn with_metrics(self, metrics: MetricsSink) -> Self {
        let _ = self.disk.submit(Box::new(move |files| files.metrics = Some(metrics)));
        self
    }
}

impl Files {
    /// Fsyncs `file`, counted and timed.
    fn fsync(&self, file: &File) -> io::Result<()> {
        let start = Instant::now();
        let result = file.sync_all();
        if let Some(metrics) = &self.metrics {
            metrics.incr(MetricId::STORAGE_WAL_FSYNC);
            metrics.observe(MetricId::STORAGE_WAL_FSYNC_S, start.elapsed().as_secs_f64());
            if result.is_err() {
                metrics.incr(MetricId::STORAGE_WAL_FSYNC_FAILED);
            }
        }
        result
    }

    /// Makes renames and creations in the directory durable. Best-effort
    /// only where the directory cannot be opened (some platforms); a
    /// directory that opens but does not sync is an error.
    fn sync_dir(&self) -> io::Result<()> {
        let Ok(dir) = File::open(&self.dir) else { return Ok(()) };
        #[cfg(test)]
        if self.fail_dir_sync {
            return Err(io::Error::other("injected directory fsync failure"));
        }
        self.fsync(&dir)
    }

    /// The log, opened (and, if this creates it, its directory entry
    /// made durable) on first use.
    fn wal(&mut self) -> io::Result<File> {
        if let Some(file) = self.wal.take() {
            return Ok(file);
        }
        let file = OpenOptions::new().create(true).append(true).open(self.dir.join(WAL_FILE))?;
        // A log this open created survives a power cut only once its
        // directory entry does.
        self.sync_dir()?;
        Ok(file)
    }

    /// Runs `write` on the log, which stays open.
    fn on_wal(&mut self, write: impl FnOnce(&Self, &mut File) -> io::Result<()>) -> io::Result<()> {
        let mut file = self.wal()?;
        let result = write(self, &mut file);
        self.wal = Some(file);
        result
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.on_wal(|files, wal| {
            wal.write_all(bytes)?;
            files.fsync(wal)
        })
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.on_wal(|files, wal| {
            wal.set_len(len)?;
            files.fsync(wal)
        })
    }

    fn replace_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        self.fsync(&file)?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Until the rename is durable the old snapshot may come back, so
        // the log must not be cut.
        self.sync_dir()
    }
}

impl DirDisk {
    /// The disk in `dir`, created if need be, and its I/O thread.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, io::Error> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let (jobs, queue) = mpsc::channel::<Job>();
        let mut files = Files {
            dir: dir.clone(),
            wal: None,
            metrics: None,
            #[cfg(test)]
            fail_dir_sync: false,
        };
        let thread = std::thread::Builder::new()
            .name("wal-io".into())
            .spawn(move || queue.into_iter().for_each(|job| job(&mut files)))?;
        Ok(DirDisk { dir, jobs: Some(jobs), thread: Some(thread), in_flight: None })
    }

    /// Hands `job` to the I/O thread, after every write handed over
    /// before it. Returns it if the thread is gone.
    fn submit(&self, job: Job) -> Result<(), Job> {
        match &self.jobs {
            Some(jobs) => jobs.send(job).map_err(|mpsc::SendError(job)| job),
            None => Err(job),
        }
    }

    /// Runs `write` on the I/O thread and waits for its outcome.
    fn write(&mut self, write: impl FnOnce(&mut Files) -> io::Result<()> + Send + 'static) -> io::Result<()> {
        let (done, outcome) = mpsc::channel();
        let _ = self.submit(Box::new(move |files| {
            let _ = done.send(write(files));
        }));
        outcome.recv().unwrap_or_else(|_| Err(gone()))
    }
}

/// The error of a write the I/O thread never ran.
fn gone() -> io::Error {
    io::Error::other("the disk's I/O thread is gone")
}

impl Drop for DirDisk {
    /// Waits for the writes handed over: a process that reopens the
    /// directory next reads a quiet log.
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(thread) = self.thread.take() {
            // The thread itself may drop the last owner of its disk.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
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
        let bytes = bytes.to_vec();
        self.write(move |files| files.append(&bytes))
    }

    fn truncate_wal(&mut self, len: u64) -> io::Result<()> {
        self.write(move |files| files.truncate(len))
    }

    fn read_snapshot(&mut self) -> Option<Vec<u8>> {
        fs::read(self.dir.join(SNAPSHOT_FILE)).ok()
    }

    fn replace_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        let bytes = bytes.to_vec();
        self.write(move |files| files.replace_snapshot(&bytes))
    }

    fn hand_over(&mut self, bytes: &[u8], wake: Option<Waker>) -> Option<io::Result<()>> {
        let Some(wake) = wake else { return Some(self.append_wal(bytes)) };
        let (done, outcome) = mpsc::channel();
        let bytes = bytes.to_vec();
        let job = Box::new(move |files: &mut Files| {
            let _ = done.send(files.append(&bytes));
            wake.wake();
        });
        match self.submit(job) {
            Ok(()) => {
                self.in_flight = Some(outcome);
                None
            }
            Err(_) => Some(Err(gone())),
        }
    }

    fn landed(&mut self, wait: bool) -> Option<io::Result<()>> {
        let outcome = self.in_flight.as_ref()?;
        let received = match outcome.try_recv() {
            Err(TryRecvError::Empty) if wait => outcome.recv().ok(),
            Err(TryRecvError::Empty) => return None,
            received => received.ok(),
        };
        self.in_flight = None;
        Some(received.unwrap_or_else(|| Err(gone())))
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
            self.write(|files| {
                files.wal = None;
                Ok(())
            })
            .unwrap();
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

    /// Every fsync the disk waits for is counted and timed: the log's
    /// directory when the log is created, each append, and a snapshot's
    /// file, directory and cut-back.
    #[test]
    fn sync_records_fsync_count_and_latency() {
        let dir = scratch();
        let sink = MetricsSink::new();
        let mut st = FileStorage::open(&dir).unwrap().with_metrics(sink.clone());
        st.append(b"r1").unwrap();
        st.sync().unwrap();
        st.append(b"r2").unwrap();
        st.sync().unwrap();
        assert_eq!(sink.counter("storage.wal_fsync"), 3);
        st.write_snapshot(b"snap").unwrap();
        assert_eq!(sink.counter("storage.wal_fsync"), 6);
        assert_eq!(sink.counter("storage.wal_fsync_failed"), 0);
        let snap = sink.snapshot();
        let s = snap.histogram("storage.wal_fsync_s").and_then(|h| h.summary()).expect("samples");
        assert_eq!(s.count, 6);
        assert!(s.min >= 0.0);
        let _ = fs::remove_dir_all(dir);
    }

    /// Makes the directory's fsync fail (`true`), or succeed again.
    fn fail_dir_sync(st: &mut FileStorage, on: bool) {
        st.disk
            .write(move |files| {
                files.fail_dir_sync = on;
                Ok(())
            })
            .unwrap();
    }

    /// A directory that opens but does not sync fails the write that
    /// needed it: the log's creation, and a snapshot, whose log is then
    /// not cut, so no record is lost if the rename never reached the
    /// disk.
    #[test]
    fn a_failed_directory_fsync_fails_the_write_that_needed_it() {
        let dir = scratch();
        let mut st = FileStorage::open(&dir).unwrap();
        fail_dir_sync(&mut st, true);
        st.append(b"a").unwrap();
        assert_eq!(st.sync(), Err(StorageError::SyncFailed), "the log's creation");
        fail_dir_sync(&mut st, false);
        st.sync().unwrap();
        st.append(b"b").unwrap();
        st.sync().unwrap();
        fail_dir_sync(&mut st, true);
        assert_eq!(st.write_snapshot(b"snap"), Err(StorageError::Io));
        assert_eq!(parse_wal(&st.disk.read_wal().unwrap()).0, [b"a".to_vec(), b"b".to_vec()]);
        drop(st);
        let rec = FileStorage::open(&dir).unwrap().recover();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(rec.records, [b"a".to_vec(), b"b".to_vec()]);
    }

    /// A barrier in flight when the process crashes, or when its storage
    /// is dropped: every record whose barrier completed recovers once and
    /// in order, the one in flight whole or not at all, and the wake that
    /// follows a crash carries the incarnation the crash ended.
    #[test]
    fn a_crash_or_drop_with_a_barrier_in_flight_recovers_whole_records() {
        let (fired, wakes) = mpsc::channel();
        let fired = std::sync::Mutex::new(fired);
        take_wakes(Arc::new(move |timer| fired.lock().unwrap().send(timer).unwrap()));
        let node = NodeId::from_index(3);
        let wait = || wakes.recv_timeout(std::time::Duration::from_secs(10)).expect("a wake");
        let records = |names: &[&[u8]]| names.iter().map(|r| r.to_vec()).collect::<Vec<_>>();
        let dir = scratch();
        let mut st = FileStorage::open(&dir).unwrap();

        // A write in flight lands, then wakes its node.
        st.append(b"a").unwrap();
        assert_eq!(in_step(node, 0, || st.barrier(7)), Barrier::Started);
        let wake = wait();
        assert_eq!((wake.node, wake.tag, wake.incarnation), (node, 7, 0));
        assert_eq!(st.barrier(7), Barrier::Landed(Ok(())));

        // A crash waits for the write in flight: it lands whole, and its
        // wake is void in the incarnation the crash began.
        st.append(b"b").unwrap();
        assert_eq!(in_step(node, 0, || st.barrier(7)), Barrier::Started);
        st.crash();
        let mut life = crate::node::Life::default();
        life.down();
        assert!(!life.fires(&wait()), "a wake after the crash");
        assert_eq!(st.recover().records, records(&[b"a", b"b"]));

        // A write in flight that fails is lost whole at the crash.
        st.append(b"c").unwrap();
        st.disk.obstruct(true);
        assert_eq!(in_step(node, 0, || st.barrier(7)), Barrier::Started);
        st.crash();
        wait();
        st.disk.obstruct(false);
        let rec = st.recover();
        assert_eq!((rec.records, rec.torn_records, st.stats().lost_records), (records(&[b"a", b"b"]), 0, 1));

        // Dropped with a write in flight (a killed process the restart
        // replaces): the fresh storage reads a quiet log.
        st.append(b"d").unwrap();
        assert_eq!(in_step(node, 0, || st.barrier(7)), Barrier::Started);
        drop(st);
        let rec = FileStorage::open(&dir).unwrap().recover();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!((rec.records, rec.torn_records), (records(&[b"a", b"b", b"d"]), 0));
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
