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

use std::collections::BTreeMap;

use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::Context;
use wanacl_sim::storage::{Recovered, Storage, StorageStats};

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
    /// Appends since the last snapshot (drives the cadence).
    since_snapshot: u64,
    /// Appends per snapshot; `0` never snapshots.
    snapshot_every: u64,
    /// What this log counts under, if anything.
    metrics: Option<LogMetrics>,
}

impl<K: Ord, P> DurableLog<K, P> {
    pub(crate) fn new(snapshot_every: u64, metrics: Option<LogMetrics>) -> Self {
        DurableLog { storage: None, held: BTreeMap::new(), since_snapshot: 0, snapshot_every, metrics }
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

    /// The promises waiting on a barrier.
    pub(crate) fn held(&self) -> &BTreeMap<K, P> {
        &self.held
    }

    fn count(&self, ctx: &mut Context<'_, ProtoMsg>, id: fn(&LogMetrics) -> M) {
        if let Some(metrics) = &self.metrics {
            ctx.metric_incr(id(metrics));
        }
    }

    /// Appends one record. A record storage refused is counted as
    /// failed, not as appended.
    pub(crate) fn append(&mut self, ctx: &mut Context<'_, ProtoMsg>, record: &[u8]) -> bool {
        let Some(storage) = self.storage.as_mut() else { return false };
        if storage.append(record).is_err() {
            self.count(ctx, |m| m.append_failed);
            return false;
        }
        self.since_snapshot += 1;
        self.count(ctx, |m| m.appends);
        true
    }

    /// Logs `record(&promise)` and holds `promise` under `key` until the
    /// next successful barrier. Without storage nothing is logged or
    /// held: the promise comes straight back, to be kept at once.
    #[must_use]
    pub(crate) fn hold(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        key: K,
        promise: P,
        record: impl FnOnce(&P) -> Vec<u8>,
    ) -> Option<P> {
        if self.storage.is_none() {
            return Some(promise);
        }
        self.append(ctx, &record(&promise));
        self.held.insert(key, promise);
        None
    }

    /// The fsync barrier; it passes at once without storage.
    pub(crate) fn sync(&mut self, ctx: &mut Context<'_, ProtoMsg>) -> bool {
        let ok = self.storage.as_mut().is_none_or(|s| s.sync().is_ok());
        if !ok {
            self.count(ctx, |m| m.sync_failed);
        }
        ok
    }

    /// Attempts the barrier for what is held and returns the promises it
    /// just released, in key order: none if nothing waits or the sync
    /// failed, in which case they stay held for the caller's retry.
    pub(crate) fn barrier(&mut self, ctx: &mut Context<'_, ProtoMsg>) -> BTreeMap<K, P> {
        if self.held.is_empty() || !self.sync(ctx) {
            return BTreeMap::new();
        }
        std::mem::take(&mut self.held)
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanacl_sim::clock::LocalTime;
    use wanacl_sim::node::NodeId;
    use wanacl_sim::rng::SimRng;
    use wanacl_sim::storage::{DiskFaultModel, SimStorage};

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

    #[test]
    fn a_failed_barrier_keeps_its_promises_until_a_later_one_succeeds() {
        let metrics = LogMetrics { appends: M::MGR_WAL_APPENDS, append_failed: M::MGR_WAL_APPEND_FAILED, sync_failed: M::MGR_WAL_SYNC_FAILED };
        let mut log: DurableLog<u32, &str> = DurableLog::new(0, Some(metrics));
        log.attach(Box::new(SimStorage::with_faults(1, DiskFaultModel { sync_fail_prob: 1.0, torn_tail_prob: 0.0 })));
        let counts = counted(|ctx| {
            assert_eq!(log.hold(ctx, 2, "b", |_| b"two".to_vec()), None);
            assert_eq!(log.hold(ctx, 1, "a", |_| b"one".to_vec()), None);
            assert!(log.barrier(ctx).is_empty(), "the sync failed");
        });
        assert_eq!(counts, ["mgr.wal_appends", "mgr.wal_appends", "mgr.wal_sync_failed"]);
        assert_eq!(log.held().len(), 2);
        log.set_disk_faults(DiskFaultModel::default());
        counted(|ctx| assert_eq!(log.barrier(ctx).into_iter().collect::<Vec<_>>(), [(1, "a"), (2, "b")]));
        assert!(log.held().is_empty());

        // Without storage a promise is kept at once, and an uncounted log
        // counts nothing.
        let mut volatile: DurableLog<u32, &str> = DurableLog::new(0, None);
        let counts = counted(|ctx| {
            assert_eq!(volatile.hold(ctx, 1, "a", |_| unreachable!("no storage, no record")), Some("a"));
            assert!(volatile.barrier(ctx).is_empty());
        });
        assert!(counts.is_empty());
    }
}
