//! Stable-storage abstraction for crash-durable protocol nodes.
//!
//! The paper's quorum-intersection guarantee (every check quorum `C`
//! intersects every completed update quorum `M − C + 1`) only holds if a
//! manager that *acknowledged* an update can still answer for it after a
//! crash. That requires an op log on stable storage. This module defines
//! the [`Storage`] trait — an append-only write-ahead log plus an
//! atomically-replaced snapshot — and a deterministic in-memory
//! implementation, [`SimStorage`], whose fault model covers the classic
//! disk failure modes:
//!
//! * **crash-before-fsync / lost unflushed suffix** — records appended but
//!   not yet [`Storage::sync`]ed are discarded on [`Storage::crash`];
//! * **torn tail record** — with configurable probability a crash leaves a
//!   partially-written final record, which recovery detects and discards;
//! * **transient sync failure** — [`Storage::sync`] can fail (EIO-style),
//!   leaving the unflushed buffer intact for a later retry.
//!
//! Everything is seeded, so campaigns that inject disk faults replay
//! exactly. A file-backed implementation with the same contract lives in
//! the `wanacl-rt` crate.

use std::any::Any;

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
///   [`SimStorage`] always are — the pessimistic model);
/// * [`write_snapshot`](Storage::write_snapshot) atomically replaces the
///   previous snapshot and truncates the log — a crash mid-snapshot never
///   leaves a half-written snapshot visible;
/// * [`recover`](Storage::recover) returns the latest snapshot plus every
///   surviving post-snapshot record, discarding any torn tail.
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultModel {
    /// Probability that a [`Storage::sync`] barrier fails transiently.
    pub sync_fail_prob: f64,
    /// Probability that a crash with unflushed records leaves a torn
    /// (partially-written) tail record for recovery to discard.
    pub torn_tail_prob: f64,
}

impl Default for DiskFaultModel {
    fn default() -> Self {
        DiskFaultModel { sync_fail_prob: 0.0, torn_tail_prob: 0.0 }
    }
}

/// Deterministic in-memory stable storage with fault injection.
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
#[derive(Debug)]
pub struct SimStorage {
    /// Records that survived a sync barrier.
    durable: Vec<Vec<u8>>,
    /// Appended but not yet synced.
    buffered: Vec<Vec<u8>>,
    snapshot: Option<Vec<u8>>,
    /// Torn records planted by crashes, reported by the next recovery.
    pending_torn: u64,
    faults: DiskFaultModel,
    rng: SimRng,
    stats: StorageStats,
    /// Planted-bug hook: when set, `recover()` silently discards the WAL
    /// and snapshot, as if the log file were deleted. The durability
    /// oracle must catch this.
    drop_state_on_recover: bool,
}

impl SimStorage {
    /// Creates fault-free storage with a deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        SimStorage::with_faults(seed, DiskFaultModel::default())
    }

    /// Creates storage with the given fault model.
    pub fn with_faults(seed: u64, faults: DiskFaultModel) -> Self {
        SimStorage {
            durable: Vec::new(),
            buffered: Vec::new(),
            snapshot: None,
            pending_torn: 0,
            faults,
            rng: SimRng::seed_from(seed ^ 0x5349_4d53_544f_5245), // "SIMSTORE"
            stats: StorageStats::default(),
            drop_state_on_recover: false,
        }
    }

    /// Replaces the fault model (used when a nemesis plan layers disk
    /// faults onto a node).
    pub fn set_fault_model(&mut self, faults: DiskFaultModel) {
        self.faults = faults;
    }

    /// Arms the planted drop-the-WAL bug: the next recovery returns
    /// nothing, as if stable storage were wiped.
    pub fn set_drop_state_on_recover(&mut self, drop: bool) {
        self.drop_state_on_recover = drop;
    }

    /// Number of appended-but-unsynced records.
    pub fn unflushed_len(&self) -> usize {
        self.buffered.len()
    }
}

impl Storage for SimStorage {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.stats.appends += 1;
        self.buffered.push(record.to_vec());
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if !self.buffered.is_empty() && self.rng.chance(self.faults.sync_fail_prob) {
            self.stats.sync_failures += 1;
            return Err(StorageError::SyncFailed);
        }
        self.stats.syncs += 1;
        self.durable.append(&mut self.buffered);
        Ok(())
    }

    fn write_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        // Atomic-rename semantics: the new snapshot replaces the old one
        // in a single step and the log is truncated with it.
        self.snapshot = Some(snapshot.to_vec());
        self.durable.clear();
        self.buffered.clear();
        self.stats.snapshots += 1;
        Ok(())
    }

    fn recover(&mut self) -> Recovered {
        self.stats.recoveries += 1;
        let torn = self.pending_torn;
        self.pending_torn = 0;
        self.stats.torn_records += torn;
        if self.drop_state_on_recover {
            // Planted bug: stable storage "reads back" empty.
            self.durable.clear();
            self.buffered.clear();
            self.snapshot = None;
            return Recovered { snapshot: None, records: Vec::new(), torn_records: torn };
        }
        Recovered {
            snapshot: self.snapshot.clone(),
            records: self.durable.clone(),
            torn_records: torn,
        }
    }

    fn crash(&mut self) {
        // Lost-unflushed-suffix: everything past the last sync barrier is
        // gone. With probability `torn_tail_prob` the first lost record
        // was partially written — it reaches the platter as a torn record
        // the next recovery must detect and discard.
        if !self.buffered.is_empty() {
            self.stats.lost_records += self.buffered.len() as u64;
            if self.rng.chance(self.faults.torn_tail_prob) {
                self.pending_torn += 1;
            }
            self.buffered.clear();
        }
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

    #[test]
    fn synced_records_survive_crash() {
        let mut st = SimStorage::new(1);
        st.append(b"a").unwrap();
        st.append(b"b").unwrap();
        st.sync().unwrap();
        st.crash();
        let rec = st.recover();
        assert_eq!(rec.records, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(rec.torn_records, 0);
    }

    #[test]
    fn unsynced_suffix_is_lost_on_crash() {
        let mut st = SimStorage::new(2);
        st.append(b"a").unwrap();
        st.sync().unwrap();
        st.append(b"lost").unwrap();
        st.crash();
        let rec = st.recover();
        assert_eq!(rec.records, vec![b"a".to_vec()]);
        assert_eq!(st.stats().lost_records, 1);
    }

    #[test]
    fn snapshot_truncates_log_and_survives() {
        let mut st = SimStorage::new(3);
        st.append(b"a").unwrap();
        st.sync().unwrap();
        st.write_snapshot(b"snap").unwrap();
        st.append(b"after").unwrap();
        st.sync().unwrap();
        st.crash();
        let rec = st.recover();
        assert_eq!(rec.snapshot, Some(b"snap".to_vec()));
        assert_eq!(rec.records, vec![b"after".to_vec()]);
    }

    #[test]
    fn sync_failure_keeps_buffer_for_retry() {
        let mut st =
            SimStorage::with_faults(4, DiskFaultModel { sync_fail_prob: 1.0, torn_tail_prob: 0.0 });
        st.append(b"a").unwrap();
        assert_eq!(st.sync(), Err(StorageError::SyncFailed));
        assert_eq!(st.unflushed_len(), 1);
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
        let rec = st.recover();
        assert_eq!(rec.torn_records, 1);
        assert!(rec.records.is_empty());
        // The torn tail was discarded; it is not reported again.
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
    fn drop_state_bug_wipes_everything() {
        let mut st = SimStorage::new(7);
        st.append(b"a").unwrap();
        st.sync().unwrap();
        st.write_snapshot(b"snap").unwrap();
        st.append(b"b").unwrap();
        st.sync().unwrap();
        st.set_drop_state_on_recover(true);
        st.crash();
        let rec = st.recover();
        assert!(rec.snapshot.is_none());
        assert!(rec.records.is_empty());
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
}
