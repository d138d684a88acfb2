//! The durable log both stateful nodes keep: a write-ahead log with an
//! fsync barrier, promises held until that barrier succeeds, snapshots on
//! a cadence, and recovery.
//!
//! A node logs a record for each change it makes and *holds* the promise
//! the change carries, keyed by what it promises about: a manager's ack
//! or quorum count for an op (`OpId`), a directory replica's serving of
//! a record (`(AppId, version)`). Only a successful barrier releases what
//! is held, so nothing a node promised is lost to a crash. Without
//! storage a promise is kept as it is made: the paper's volatile nodes.
//!
//! On the live runtime a barrier may go in flight
//! ([`Storage::barrier`]): the node's step returns, and the disk wakes
//! it with a timer of the log's tag once the write lands. The node then
//! runs the barrier again, which releases what that write covered.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::Context;
use wanacl_sim::storage::{Barrier, Recovered, Storage, StorageStats};

use crate::msg::ProtoMsg;

/// The counters a log bumps: records appended, appends refused, and
/// barriers refused.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogMetrics {
    pub(crate) appends: M,
    pub(crate) append_failed: M,
    pub(crate) sync_failed: M,
}

#[derive(Debug)]
pub(crate) struct DurableLog<K, P> {
    /// Stable storage, if attached.
    storage: Option<Box<dyn Storage>>,
    /// Promises whose records wait on a successful barrier.
    held: BTreeMap<K, P>,
    /// Promises whose records are in the write in flight.
    writing: BTreeMap<K, P>,
    /// The timer tag the disk wakes the node with when a write lands.
    tag: u64,
    /// Appends since the last snapshot (drives the cadence).
    since_snapshot: u64,
    /// Appends per snapshot; `0` never snapshots.
    snapshot_every: u64,
    /// What this log counts under, if anything.
    metrics: Option<LogMetrics>,
}

impl<K: Ord, P> DurableLog<K, P> {
    pub(crate) fn new(snapshot_every: u64, metrics: Option<LogMetrics>, tag: u64) -> Self {
        DurableLog {
            storage: None,
            held: BTreeMap::new(),
            writing: BTreeMap::new(),
            tag,
            since_snapshot: 0,
            snapshot_every,
            metrics,
        }
    }

    pub(crate) fn attach(&mut self, storage: Box<dyn Storage>) {
        self.storage = Some(storage);
    }

    pub(crate) fn has_storage(&self) -> bool {
        self.storage.is_some()
    }

    pub(crate) fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    /// Whether the promise under `key` waits on a barrier.
    pub(crate) fn holds(&self, key: &K) -> bool {
        self.held.contains_key(key) || self.writing.contains_key(key)
    }

    /// The greatest key in `range` whose promise waits on a barrier.
    pub(crate) fn last_held(&self, range: impl RangeBounds<K> + Clone) -> Option<&K> {
        let held = self.held.range(range.clone()).next_back().map(|(key, _)| key);
        held.max(self.writing.range(range).next_back().map(|(key, _)| key))
    }

    /// Whether no promise waits on a barrier.
    pub(crate) fn is_clear(&self) -> bool {
        self.held.is_empty() && self.writing.is_empty()
    }

    /// Whether a write is in flight: the node is woken when it lands.
    pub(crate) fn in_flight(&self) -> bool {
        !self.writing.is_empty()
    }

    fn count(&self, ctx: &mut Context<'_, ProtoMsg>, id: fn(&LogMetrics) -> M) {
        if let Some(metrics) = &self.metrics {
            ctx.metric_incr(id(metrics));
        }
    }

    /// Logs `record(&promise)` and holds `promise` under `key` until the
    /// next successful barrier; a record storage refused is counted as
    /// failed, not as appended. Without storage nothing is logged or
    /// held: the promise comes straight back, to be kept at once.
    #[must_use]
    pub(crate) fn hold(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        key: K,
        promise: P,
        record: impl FnOnce(&P) -> Vec<u8>,
    ) -> Option<P> {
        let Some(storage) = self.storage.as_mut() else { return Some(promise) };
        if storage.append(&record(&promise)).is_err() {
            self.count(ctx, |m| m.append_failed);
        } else {
            self.since_snapshot += 1;
            self.count(ctx, |m| m.appends);
        }
        self.held.insert(key, promise);
        None
    }

    /// Attempts the barrier for what is held and returns the promises it
    /// released, in key order. None are released while nothing waits,
    /// while the write in flight has not landed, or if the write failed;
    /// a failed write's promises stay held for the caller's retry, and a
    /// write that lands wakes the node to run this again.
    pub(crate) fn barrier(&mut self, ctx: &mut Context<'_, ProtoMsg>) -> BTreeMap<K, P> {
        let mut released = BTreeMap::new();
        let Some(storage) = self.storage.as_mut() else { return released };
        while !(self.held.is_empty() && self.writing.is_empty()) {
            match storage.barrier(self.tag) {
                Barrier::Waiting => break,
                Barrier::Started => {
                    self.writing.append(&mut self.held);
                    break;
                }
                // What was appended since the write began is next.
                Barrier::Landed(Ok(())) => released.append(&mut self.writing),
                Barrier::Done(Ok(())) => {
                    released.append(&mut self.writing);
                    released.append(&mut self.held);
                }
                Barrier::Landed(Err(_)) | Barrier::Done(Err(_)) => {
                    self.held.append(&mut self.writing);
                    self.count(ctx, |m| m.sync_failed);
                    break;
                }
            }
        }
        released
    }

    /// Writes a snapshot, which truncates the log.
    pub(crate) fn write_snapshot(&mut self, snapshot: &[u8]) -> bool {
        let ok = self.storage.as_mut().is_some_and(|s| s.write_snapshot(snapshot).is_ok());
        if ok {
            self.since_snapshot = 0;
        }
        ok
    }

    /// Writes `snapshot()` if the cadence is due; returns whether one was
    /// written.
    pub(crate) fn snapshot_if_due(&mut self, snapshot: impl FnOnce() -> Vec<u8>) -> bool {
        let due = self.snapshot_every != 0 && self.since_snapshot >= self.snapshot_every;
        due && self.write_snapshot(&snapshot())
    }

    /// What storage yields after a restart, the held promises forgotten;
    /// the replayed records count toward the next snapshot. `None`
    /// without storage.
    pub(crate) fn recover(&mut self) -> Option<Recovered> {
        let recovered = self.storage.as_mut()?.recover();
        self.held.clear();
        self.writing.clear();
        self.since_snapshot = recovered.records.len() as u64;
        Some(recovered)
    }

    /// A crash: storage drops whatever was not yet fsynced (and may tear
    /// the tail record), and the held promises are void.
    pub(crate) fn crash(&mut self) {
        if let Some(storage) = self.storage.as_mut() {
            storage.crash();
        }
        self.held.clear();
        self.writing.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanacl_sim::clock::LocalTime;
    use wanacl_sim::node::NodeId;
    use wanacl_sim::rng::SimRng;
    use std::sync::{mpsc, Arc, Mutex};
    use wanacl_sim::storage::{in_step, take_wakes, DiskFaultModel, FileStorage, SimStorage};

    impl<K: Ord, P> DurableLog<K, P> {
        /// Replaces the simulated disk's fault model.
        pub(crate) fn set_disk_faults(&mut self, faults: DiskFaultModel) {
            let storage = self.storage.as_mut().and_then(|s| s.as_any_mut().downcast_mut::<SimStorage>());
            storage.expect("a simulated disk").set_fault_model(faults);
        }
    }

    /// Runs `f` on a fresh context and returns the names it counted.
    fn counted(f: impl FnOnce(&mut Context<'_, ProtoMsg>)) -> Vec<&'static str> {
        let (mut effects, mut rng, mut next_timer) = (Vec::new(), SimRng::seed_from(1), 0);
        f(&mut Context::new(NodeId::from_index(0), LocalTime::ZERO, &mut effects, &mut rng, &mut next_timer));
        effects
            .iter()
            .filter_map(|e| match e {
                wanacl_sim::node::Effect::MetricIncr { name } => Some(name.def().name),
                _ => None,
            })
            .collect()
    }

    /// Runs `f` on a fresh context, as a step of node 0.
    fn stepped<R>(f: impl FnOnce(&mut Context<'_, ProtoMsg>) -> R) -> R {
        let (mut effects, mut rng, mut next_timer) = (Vec::new(), SimRng::seed_from(1), 0);
        let node = NodeId::from_index(0);
        in_step(node, 0, || f(&mut Context::new(node, LocalTime::ZERO, &mut effects, &mut rng, &mut next_timer)))
    }

    /// On a disk that writes in the background, a barrier asked in a step
    /// goes in flight and the node is woken when it lands. Each promise is
    /// released once, in key order, and only by a write that covered its
    /// record; a crash with a write in flight releases nothing, ever.
    #[test]
    fn a_write_in_flight_releases_each_promise_once_and_a_crash_none() {
        let (fired, wakes) = mpsc::channel();
        let fired = Mutex::new(fired);
        take_wakes(Arc::new(move |timer| fired.lock().unwrap().send(timer).unwrap()));
        let dir = std::env::temp_dir().join(format!("wanacl-durable-{}", std::process::id()));
        let mut log: DurableLog<u32, &str> = DurableLog::new(0, None, 9);
        log.attach(Box::new(FileStorage::open(&dir).unwrap()));
        let mut released = Vec::new();
        stepped(|ctx| {
            assert_eq!(log.hold(ctx, 2, "b", |_| b"two".to_vec()), None);
            assert!(log.barrier(ctx).is_empty(), "in flight");
            assert_eq!(log.hold(ctx, 1, "a", |_| b"one".to_vec()), None);
            released.extend(log.barrier(ctx));
        });
        assert!(released.iter().all(|&(key, _)| key == 2), "only what the first write covered");
        while !log.is_clear() {
            assert_eq!(wakes.recv_timeout(std::time::Duration::from_secs(10)).expect("a wake").tag, 9);
            stepped(|ctx| released.extend(log.barrier(ctx)));
        }
        assert_eq!(released, [(2, "b"), (1, "a")]);

        stepped(|ctx| {
            assert_eq!(log.hold(ctx, 3, "c", |_| b"three".to_vec()), None);
            assert!(log.barrier(ctx).is_empty() && log.in_flight());
        });
        log.crash();
        assert!(log.is_clear());
        wakes.recv_timeout(std::time::Duration::from_secs(10)).expect("a wake");
        assert!(stepped(|ctx| log.barrier(ctx)).is_empty());
        let records = log.recover().expect("storage").records;
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(records, [&b"two"[..], b"one", b"three"]);
    }

    #[test]
    fn a_failed_barrier_keeps_its_promises_until_a_later_one_succeeds() {
        let metrics = LogMetrics { appends: M::MGR_WAL_APPENDS, append_failed: M::MGR_WAL_APPEND_FAILED, sync_failed: M::MGR_WAL_SYNC_FAILED };
        let mut log: DurableLog<u32, &str> = DurableLog::new(0, Some(metrics), 0);
        log.attach(Box::new(SimStorage::with_faults(1, DiskFaultModel { sync_fail_prob: 1.0, torn_tail_prob: 0.0 })));
        let counts = counted(|ctx| {
            assert_eq!(log.hold(ctx, 2, "b", |_| b"two".to_vec()), None);
            assert_eq!(log.hold(ctx, 1, "a", |_| b"one".to_vec()), None);
            assert!(log.barrier(ctx).is_empty(), "the sync failed");
        });
        assert_eq!(counts, ["mgr.wal_appends", "mgr.wal_appends", "mgr.wal_sync_failed"]);
        assert!(log.holds(&1) && log.holds(&2));
        log.set_disk_faults(DiskFaultModel::default());
        counted(|ctx| assert_eq!(log.barrier(ctx).into_iter().collect::<Vec<_>>(), [(1, "a"), (2, "b")]));
        assert!(log.is_clear());

        // Without storage a promise is kept at once, and an uncounted log
        // counts nothing.
        let mut volatile: DurableLog<u32, &str> = DurableLog::new(0, None, 0);
        let counts = counted(|ctx| {
            assert_eq!(volatile.hold(ctx, 1, "a", |_| unreachable!("no storage, no record")), Some("a"));
            assert!(volatile.barrier(ctx).is_empty());
        });
        assert!(counts.is_empty());
    }
}
