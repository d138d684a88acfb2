//! The manager's durability: the promise its
//! [`DurableLog`](crate::durable::DurableLog) holds for each applied op,
//! and where recovery stands — replaying the disk, or waiting on a
//! peer's state (§3.4).

use std::collections::BTreeSet;

use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId};

use crate::durable::LogMetrics;
use crate::msg::{AclOp, OpId, ProtoMsg};
use crate::types::ShardId;

use super::replica::Replica;
use super::{ManagerConfig, TAG_SYNC};

/// What a WAL record is about: the log holds one promise per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Logged {
    /// An applied op.
    Op(OpId),
    /// A shard-release marker.
    Release(ShardId),
}

/// The promise a WAL record carries, withheld until the record is
/// durable.
#[derive(Debug)]
pub(super) enum Unlogged {
    /// An op applied in memory: ack it to `ack_to`, or with `None` (an
    /// op this manager originated or merged) count this manager toward
    /// its quorum.
    Op { op: AclOp, ack_to: Option<NodeId> },
    /// This manager no longer serves the shard.
    Release,
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
    /// The peers the sync in flight still asks. A cold sync ends at the
    /// first answer; a warm one — serving from locally-replayed durable
    /// state and syncing for freshness, or pulling a winner a peer
    /// showed — asks until every peer has answered, since one peer may
    /// lack what another holds. Unlike `recovering`, queries ARE
    /// answered meanwhile (local replay is sufficient for safety:
    /// everything this manager ever acked was fsynced first).
    awaiting: BTreeSet<NodeId>,
    /// Consecutive recovery sync requests without a response.
    sync_round: u32,
}

impl Durability {
    /// A crash: the sync in flight is forgotten.
    pub(super) fn crash(&mut self) {
        self.sync_round = 0;
        self.awaiting.clear();
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
        self.recovering = cold && !config.peers.is_empty();
        self.pull(ctx, config, replica);
    }

    /// Asks every peer for the winners this replica lacks: a warm sync,
    /// unless a cold one is in flight. A sync already in flight asks
    /// again at once; otherwise the backed-off retry is armed.
    pub(super) fn pull(&mut self, ctx: &mut Context<'_, ProtoMsg>, config: &ManagerConfig, replica: &Replica) {
        let idle = !self.syncing();
        self.awaiting.extend(config.peers.iter().copied());
        if idle {
            self.request_sync(ctx, config, replica);
        } else {
            self.ask(ctx, replica);
        }
    }

    /// Asks the peers still awaited, and arms the backed-off retry of
    /// the request.
    pub(super) fn request_sync(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        config: &ManagerConfig,
        replica: &Replica,
    ) {
        if self.awaiting.is_empty() {
            return;
        }
        self.ask(ctx, replica);
        let delay = config.retry_backoff().delay(self.sync_round, ctx.rng());
        self.sync_round = self.sync_round.saturating_add(1);
        ctx.set_timer(delay, TAG_SYNC);
    }

    fn ask(&self, ctx: &mut Context<'_, ProtoMsg>, replica: &Replica) {
        let (stamps, slots) = (replica.stamps(), replica.slots());
        for &peer in &self.awaiting {
            ctx.send(peer, ProtoMsg::SyncRequest { stamps: stamps.clone(), slots: slots.clone() });
        }
    }

    /// `peer` answered the sync in flight. Returns whether that ended
    /// it: serving resumes.
    pub(super) fn answered(&mut self, peer: NodeId) -> bool {
        self.awaiting.remove(&peer);
        if self.recovering || self.awaiting.is_empty() {
            self.recovering = false;
            self.awaiting.clear();
            self.sync_round = 0;
            return true;
        }
        false
    }

    /// Whether a sync is outstanding, cold or warm.
    pub(super) fn syncing(&self) -> bool {
        self.recovering || !self.awaiting.is_empty()
    }
}
