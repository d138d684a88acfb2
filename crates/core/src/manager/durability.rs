//! The manager's durability: the write-ahead log and its sync barrier,
//! snapshots, and where recovery stands — replaying the disk, or waiting
//! on a peer's state (§3.4).

use std::collections::BTreeMap;

use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId};
use wanacl_sim::storage::{Recovered, Storage, StorageStats};

use crate::msg::{AclOp, OpId, ProtoMsg};

use super::replica::Replica;
use super::{ManagerConfig, ManagerStats, TAG_SYNC};

/// An op applied in memory but awaiting a successful WAL sync barrier.
/// The promise attached to it (ack to a peer, or counting ourselves
/// toward the quorum) is withheld until the record is durable.
#[derive(Debug)]
pub(super) struct Unlogged {
    pub(super) op: AclOp,
    /// Peer to ack once durable; `None` for locally-originated or
    /// sync-merged ops.
    pub(super) ack_to: Option<NodeId>,
}

#[derive(Debug)]
pub(super) struct Durability {
    /// Stable storage, if attached. `None` reproduces the paper's
    /// volatile managers (sync-only recovery).
    storage: Option<Box<dyn Storage>>,
    /// Ops applied in memory whose WAL sync barrier has not yet
    /// succeeded; their acks/quorum counts are withheld.
    unlogged: BTreeMap<OpId, Unlogged>,
    /// WAL appends since the last snapshot (drives the cadence).
    since_snapshot: u64,
    snapshot_every: u64,
    /// Refusing queries until a peer supplies state (no storage).
    pub(super) recovering: bool,
    /// Serving from locally-replayed durable state, with a delta peer
    /// sync still in flight for freshness. Unlike `recovering`, queries
    /// ARE answered in this mode (local replay is sufficient for
    /// safety: everything this manager ever acked was fsynced first).
    delta_syncing: bool,
    /// Consecutive recovery sync requests without a response.
    sync_round: u32,
}

impl Durability {
    pub(super) fn new(snapshot_every: u64) -> Self {
        Durability {
            storage: None,
            unlogged: BTreeMap::new(),
            since_snapshot: 0,
            snapshot_every,
            recovering: false,
            delta_syncing: false,
            sync_round: 0,
        }
    }

    pub(super) fn attach(&mut self, storage: Box<dyn Storage>) {
        self.storage = Some(storage);
    }

    pub(super) fn storage_mut(&mut self) -> Option<&mut (dyn Storage + '_)> {
        self.storage.as_deref_mut().map(|s| s as _)
    }

    pub(super) fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    pub(super) fn has_storage(&self) -> bool {
        self.storage.is_some()
    }

    /// Whether `id` is applied but still waiting on a barrier.
    pub(super) fn is_unlogged(&self, id: OpId) -> bool {
        self.unlogged.contains_key(&id)
    }

    /// Appends one record to the log. A record storage refused is counted
    /// as failed, not as appended.
    pub(super) fn append(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        stats: &mut ManagerStats,
        record: &[u8],
    ) -> bool {
        let Some(storage) = self.storage.as_mut() else { return false };
        if storage.append(record).is_err() {
            ctx.metric_incr(M::MGR_WAL_APPEND_FAILED);
            return false;
        }
        stats.wal_appends += 1;
        ctx.metric_incr(M::MGR_WAL_APPENDS);
        self.since_snapshot += 1;
        true
    }

    /// Logs an applied op and holds its promise until the next barrier.
    /// Returns `false` without storage: the promise is honoured now.
    pub(super) fn hold(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        stats: &mut ManagerStats,
        id: OpId,
        op: AclOp,
        ack_to: Option<NodeId>,
    ) -> bool {
        if self.storage.is_none() {
            return false;
        }
        self.append(ctx, stats, &crate::storelog::encode_record(id, &op));
        self.unlogged.insert(id, Unlogged { op, ack_to });
        true
    }

    /// The fsync barrier.
    pub(super) fn sync(&mut self, ctx: &mut Context<'_, ProtoMsg>) -> bool {
        let Some(storage) = self.storage.as_mut() else { return false };
        let ok = storage.sync().is_ok();
        if !ok {
            ctx.metric_incr(M::MGR_WAL_SYNC_FAILED);
        }
        ok
    }

    /// Attempts the barrier for the held ops and returns those it just
    /// made durable (none if nothing waits or the sync failed — peers'
    /// persistent retransmission and the retry tick drive further
    /// attempts).
    pub(super) fn barrier(&mut self, ctx: &mut Context<'_, ProtoMsg>) -> BTreeMap<OpId, Unlogged> {
        if self.unlogged.is_empty() || !self.sync(ctx) {
            return BTreeMap::new();
        }
        std::mem::take(&mut self.unlogged)
    }

    /// Whether the snapshot cadence is due.
    pub(super) fn snapshot_due(&self) -> bool {
        self.snapshot_every != 0 && self.since_snapshot >= self.snapshot_every
    }

    /// Writes a snapshot, which truncates the log.
    pub(super) fn write_snapshot(&mut self, snapshot: &[u8]) -> bool {
        let Some(storage) = self.storage.as_mut() else { return false };
        let ok = storage.write_snapshot(snapshot).is_ok();
        if ok {
            self.since_snapshot = 0;
        }
        ok
    }

    /// What storage yields after a restart, the held ops forgotten;
    /// `None` without storage.
    pub(super) fn recover(&mut self) -> Option<Recovered> {
        let recovered = self.storage.as_mut()?.recover();
        self.unlogged.clear();
        self.since_snapshot = recovered.records.len() as u64;
        Some(recovered)
    }

    /// A crash: storage drops whatever was not yet fsynced (and may tear
    /// the tail record), and the sync in flight is forgotten.
    pub(super) fn crash(&mut self) {
        if let Some(storage) = self.storage.as_mut() {
            storage.crash();
        }
        self.unlogged.clear();
        self.sync_round = 0;
        self.delta_syncing = false;
    }

    /// Starts a peer sync after a recovery. A `cold` one (nothing durable
    /// survived) refuses queries until a peer's state arrives; a warm one
    /// serves from the local replay and syncs for freshness only. With
    /// no peers there is nobody to wait for.
    pub(super) fn start_sync(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        config: &ManagerConfig,
        replica: &Replica,
        cold: bool,
    ) {
        let has_peers = !config.peers.is_empty();
        self.recovering = cold && has_peers;
        if has_peers {
            self.delta_syncing = !cold;
            self.request_sync(ctx, config, replica);
        }
    }

    /// Asks every peer for the winners this replica lacks, and arms the
    /// backed-off retry of the request.
    pub(super) fn request_sync(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        config: &ManagerConfig,
        replica: &Replica,
    ) {
        let (stamps, slots) = (replica.stamps(), replica.slots());
        for peer in &config.peers {
            ctx.send(*peer, ProtoMsg::SyncRequest { stamps: stamps.clone(), slots: slots.clone() });
        }
        let delay = config.retry_backoff().delay(self.sync_round, ctx.rng());
        self.sync_round = self.sync_round.saturating_add(1);
        ctx.set_timer(delay, TAG_SYNC);
    }

    /// A peer's state arrived: serving resumes.
    pub(super) fn synced(&mut self) {
        self.recovering = false;
        self.delta_syncing = false;
        self.sync_round = 0;
    }

    /// Whether a sync is outstanding, cold or delta.
    pub(super) fn syncing(&self) -> bool {
        self.recovering || self.delta_syncing
    }
}
