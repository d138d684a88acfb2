//! The manager's durability: the promise its
//! [`DurableLog`](crate::durable::DurableLog) holds for each applied op,
//! and where recovery stands — replaying the disk, or waiting on a
//! peer's state (§3.4).

use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId};

use crate::durable::LogMetrics;
use crate::msg::{AclOp, ProtoMsg};

use super::replica::Replica;
use super::{ManagerConfig, TAG_SYNC};

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

/// The manager's log counts under `mgr.wal_*`.
pub(super) const WAL_METRICS: LogMetrics = LogMetrics {
    appends: M::MGR_WAL_APPENDS,
    append_failed: M::MGR_WAL_APPEND_FAILED,
    sync_failed: M::MGR_WAL_SYNC_FAILED,
};

#[derive(Debug, Default)]
pub(super) struct Durability {
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
    /// A crash: the sync in flight is forgotten.
    pub(super) fn crash(&mut self) {
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
