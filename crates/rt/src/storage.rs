//! File-backed stable storage for live (threaded) manager deployments.
//!
//! [`FileStorage`] implements the [`Storage`] contract of `wanacl-sim`
//! against a real directory:
//!
//! * the WAL is a single append-only file of CRC-framed records —
//!   `[len: u32 LE][crc32(payload): u32 LE][payload]` — so a torn tail
//!   (power cut mid-write) is detected by the checksum and discarded on
//!   recovery, exactly like the simulated torn-tail fault;
//! * records are buffered in memory until [`Storage::sync`], which
//!   appends all pending frames and runs `File::sync_all` — the fsync
//!   barrier the manager requires before acking an update;
//! * snapshots are written to `snapshot.tmp`, fsynced, then atomically
//!   renamed over `snapshot`, after which the WAL is truncated — a crash
//!   mid-snapshot leaves either the old or the new snapshot, never a
//!   half-written one.
//!
//! The CRC is a hand-rolled table-driven CRC-32 (IEEE 802.3 polynomial)
//! so the crate needs no extra dependencies.

use std::any::Any;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;

use wanacl_sim::metrics::MetricId;
use wanacl_sim::obs::MetricsSink;
use wanacl_sim::storage::{Recovered, Storage, StorageError, StorageStats};

/// Bytes of one frame header: length + checksum.
const FRAME_HEADER: usize = 8;
/// WAL file name inside the storage directory.
const WAL_FILE: &str = "wal";
/// Snapshot file name inside the storage directory.
const SNAPSHOT_FILE: &str = "snapshot";
/// Temporary snapshot name (renamed over [`SNAPSHOT_FILE`] when safe).
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Computes the CRC-32 (IEEE 802.3, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
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

/// CRC-framed WAL + atomic-rename snapshot in a directory.
///
/// `crash()` models process death for tests: the in-memory buffer of
/// unsynced records is dropped (they never reached the file) and the
/// file handle is closed; durable bytes stay on disk for the next
/// [`Storage::recover`].
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// Open WAL handle; `None` after a crash until the next operation
    /// reopens it.
    wal: Option<File>,
    /// Records appended but not yet written + fsynced.
    buffered: Vec<Vec<u8>>,
    stats: StorageStats,
    /// Optional sink for `storage.*` counters and fsync latency.
    metrics: Option<MetricsSink>,
    /// Planted-bug hook mirroring `SimStorage::set_drop_state_on_recover`:
    /// when armed, `recover()` pretends the directory read back empty.
    drop_state_on_recover: bool,
}

impl FileStorage {
    /// Opens (creating if needed) storage rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, std::io::Error> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileStorage {
            dir,
            wal: None,
            buffered: Vec::new(),
            stats: StorageStats::default(),
            metrics: None,
            drop_state_on_recover: false,
        })
    }

    /// Arms the planted drop-the-WAL bug: the next [`Storage::recover`]
    /// reports empty stable storage, as if the directory were wiped.
    /// Exists so the live chaos harness can prove the durability oracle
    /// (I5) catches a real recovery bug on real disks, exactly like the
    /// sim's `SimStorage::set_drop_state_on_recover`.
    pub fn set_drop_state_on_recover(&mut self, drop: bool) {
        self.drop_state_on_recover = drop;
    }

    /// Attaches a metrics sink: every [`Storage::sync`] then records a
    /// `storage.wal_fsync` count and a `storage.wal_fsync_s` wall-clock
    /// latency sample — the real-disk analogue of the simulator's
    /// `mgr.wal_appends` accounting.
    pub fn with_metrics(mut self, metrics: MetricsSink) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The directory this storage lives in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    fn wal_handle(&mut self) -> Result<&mut File, std::io::Error> {
        if self.wal.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .read(true)
                .open(self.wal_path())?;
            self.wal = Some(file);
        }
        match self.wal.as_mut() {
            Some(file) => Ok(file),
            // Unreachable today, but a torn-down handle must surface as
            // an I/O error the durability path can report — a manager
            // mid-recovery cannot afford a panic here.
            None => Err(std::io::Error::other("wal handle unavailable after reopen")),
        }
    }

    /// Fsyncs the directory so renames and truncations are durable
    /// (best-effort on platforms where directories cannot be opened).
    fn sync_dir(&self) {
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

impl Storage for FileStorage {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.stats.appends += 1;
        self.buffered.push(record.to_vec());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if self.buffered.is_empty() {
            self.stats.syncs += 1;
            return Ok(());
        }
        let frames: Vec<u8> = self.buffered.iter().flat_map(|r| frame(r)).collect();
        let fsync_start = std::time::Instant::now();
        let result = (|| {
            let wal = self.wal_handle()?;
            wal.write_all(&frames)?;
            wal.sync_all()
        })();
        if let Some(metrics) = &self.metrics {
            metrics.incr(MetricId::STORAGE_WAL_FSYNC);
            metrics.observe(MetricId::STORAGE_WAL_FSYNC_S, fsync_start.elapsed().as_secs_f64());
        }
        match result {
            Ok(()) => {
                self.buffered.clear();
                self.stats.syncs += 1;
                Ok(())
            }
            Err(_) => {
                self.stats.sync_failures += 1;
                if let Some(metrics) = &self.metrics {
                    metrics.incr(MetricId::STORAGE_WAL_FSYNC_FAILED);
                }
                Err(StorageError::SyncFailed)
            }
        }
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let fin = self.dir.join(SNAPSHOT_FILE);
        let result = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(&frame(snapshot))?;
            f.sync_all()?;
            fs::rename(&tmp, &fin)?;
            // The snapshot now covers everything; drop the old log.
            self.wal = None;
            let wal = File::create(self.wal_path())?;
            wal.sync_all()?;
            Ok::<(), std::io::Error>(())
        })();
        self.sync_dir();
        match result {
            Ok(()) => {
                self.stats.snapshots += 1;
                Ok(())
            }
            Err(_) => Err(StorageError::Io),
        }
    }

    fn recover(&mut self) -> Recovered {
        self.stats.recoveries += 1;
        self.wal = None;
        self.buffered.clear();
        if self.drop_state_on_recover {
            // Planted bug: durable bytes "read back" empty.
            return Recovered { snapshot: None, records: Vec::new(), torn_records: 0 };
        }

        // The snapshot is itself one CRC frame, so a corrupt snapshot
        // file reads back as absent rather than as garbage state.
        let snapshot = fs::read(self.dir.join(SNAPSHOT_FILE)).ok().and_then(|bytes| {
            let (mut frames, _, torn) = parse_wal(&bytes);
            self.stats.torn_records += torn;
            if frames.len() == 1 && torn == 0 { frames.pop() } else { None }
        });

        let mut torn_records = 0;
        let records = match fs::read(self.wal_path()) {
            Ok(bytes) => {
                let (records, valid_len, torn) = parse_wal(&bytes);
                torn_records = torn;
                if torn > 0 {
                    // Truncate the garbage tail so future appends extend
                    // a clean log instead of burying bad bytes mid-file.
                    if let Ok(f) = OpenOptions::new().write(true).open(self.wal_path()) {
                        let _ = f.set_len(valid_len as u64);
                        let _ = f.sync_all();
                    }
                }
                records
            }
            Err(_) => Vec::new(),
        };
        self.stats.torn_records += torn_records;
        Recovered { snapshot, records, torn_records }
    }

    fn crash(&mut self) {
        // Unsynced records never reached the file: the lost suffix.
        self.stats.lost_records += self.buffered.len() as u64;
        self.buffered.clear();
        self.wal = None;
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh scratch directory per test (no tempfile dependency).
    fn scratch(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "wanacl-filestore-{}-{}-{}",
            std::process::id(),
            name,
            n
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn synced_records_survive_crash_and_reopen() {
        let dir = scratch("survive");
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
    fn torn_tail_is_detected_truncated_and_log_stays_usable() {
        let dir = scratch("torn");
        let mut st = FileStorage::open(&dir).unwrap();
        st.append(b"good").unwrap();
        st.sync().unwrap();
        drop(st);

        // Simulate a power cut mid-append: half a frame lands on disk.
        let half = &frame(b"torn-record")[..10];
        let mut f = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
        f.write_all(half).unwrap();
        drop(f);

        let mut st = FileStorage::open(&dir).unwrap();
        let rec = st.recover();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert_eq!(rec.torn_records, 1);

        // The tail was truncated: appending works and recovers cleanly.
        st.append(b"after").unwrap();
        st.sync().unwrap();
        let rec = st.recover();
        assert_eq!(rec.records, vec![b"good".to_vec(), b"after".to_vec()]);
        assert_eq!(rec.torn_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_stops_replay_at_the_damage() {
        let dir = scratch("corrupt");
        let mut st = FileStorage::open(&dir).unwrap();
        st.append(b"one").unwrap();
        st.append(b"two").unwrap();
        st.sync().unwrap();
        drop(st);

        // Flip a payload bit in the second frame.
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let mut st = FileStorage::open(&dir).unwrap();
        let rec = st.recover();
        assert_eq!(rec.records, vec![b"one".to_vec()]);
        assert_eq!(rec.torn_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_is_atomic_and_truncates_the_wal() {
        let dir = scratch("snapshot");
        let mut st = FileStorage::open(&dir).unwrap();
        st.append(b"pre-snapshot").unwrap();
        st.sync().unwrap();
        st.write_snapshot(b"state-v1").unwrap();
        st.append(b"post-snapshot").unwrap();
        st.sync().unwrap();
        st.crash();

        let mut st2 = FileStorage::open(&dir).unwrap();
        let rec = st2.recover();
        assert_eq!(rec.snapshot, Some(b"state-v1".to_vec()));
        assert_eq!(rec.records, vec![b"post-snapshot".to_vec()]);

        // A half-written tmp file from a crash mid-snapshot is ignored.
        fs::write(dir.join(SNAPSHOT_TMP), b"garbage").unwrap();
        let rec = st2.recover();
        assert_eq!(rec.snapshot, Some(b"state-v1".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_reads_back_as_absent() {
        let dir = scratch("badsnap");
        let mut st = FileStorage::open(&dir).unwrap();
        st.write_snapshot(b"state").unwrap();
        drop(st);
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let mut st = FileStorage::open(&dir).unwrap();
        assert_eq!(st.recover().snapshot, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_records_fsync_count_and_latency() {
        let dir = scratch("metrics");
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
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_wal_reopen_is_an_error_not_a_panic() {
        let dir = scratch("reopenfail");
        let mut st = FileStorage::open(&dir).unwrap();
        st.append(b"r1").unwrap();
        st.sync().unwrap();
        // Crash drops the handle; a directory squatting on the WAL path
        // then makes the lazy reopen fail at the filesystem.
        st.crash();
        fs::remove_file(dir.join(WAL_FILE)).unwrap();
        fs::create_dir(dir.join(WAL_FILE)).unwrap();

        st.append(b"r2").unwrap();
        assert_eq!(st.sync(), Err(StorageError::SyncFailed));
        assert_eq!(st.stats().sync_failures, 1);

        // Clearing the obstruction lets the same storage recover and
        // sync again — the failure was reportable, not fatal.
        fs::remove_dir(dir.join(WAL_FILE)).unwrap();
        assert_eq!(st.sync(), Ok(()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = scratch("empty");
        let mut st = FileStorage::open(&dir).unwrap();
        let rec = st.recover();
        assert!(rec.snapshot.is_none());
        assert!(rec.records.is_empty());
        assert_eq!(rec.torn_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    // The frame reader's fuzz harness: whatever the file holds, recovery
    // keeps exactly a prefix of whole, checksummed frames and says
    // whether anything followed it.
    proptest! {
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
}
