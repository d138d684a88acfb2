//! The manager's replica of the ACL: per-app state, the last-writer-wins
//! slot table, the applied set, per-origin high-water marks and the
//! Lamport clock `OpId`s are drawn from.

use std::collections::{BTreeMap, BTreeSet};

use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId};

use crate::msg::{AclOp, OpId, ProtoMsg};
use crate::policy::Policy;
use crate::storelog::SnapshotState;
use crate::types::{user_bucket, Acl, AppId, Right, ShardId, UserId};

use super::ManagerApp;

/// Jump added to the Lamport clock after a disk recovery so a cold
/// process restart (which loses the in-memory counter) can never mint an
/// `OpId` that collides with one issued before the crash but not yet
/// durable anywhere.
const LAMPORT_RECOVERY_MARGIN: u64 = 1 << 10;

/// One application's served state.
#[derive(Debug)]
pub(super) struct ManagedApp {
    pub(super) policy: Policy,
    pub(super) acl: Acl,
    /// Whether the §3.3 freeze currently holds for the app.
    pub(super) frozen: bool,
}

/// An `(app, user, right)` slot with the id of its newest writer.
pub(super) type Slot = (AppId, UserId, Right, OpId);

#[derive(Debug)]
pub(super) struct Replica {
    pub(super) apps: BTreeMap<AppId, ManagedApp>,
    applied: BTreeSet<OpId>,
    /// Lamport clock; `OpId.seq` values are drawn from it so concurrent
    /// conflicting operations resolve identically at every manager.
    /// Treated as persisted across crashes (the in-memory value survives
    /// the crash model); disk recovery additionally maxes it against the
    /// snapshot/WAL and adds a safety margin so a cold process restart
    /// never reuses an OpId.
    lamport: u64,
    /// Per-slot last writer: `(app, user, right) → (newest OpId applied,
    /// the winning op)`. Keeping the op makes the table self-contained:
    /// bootstrap ACL + winning op per slot *is* the ACL, which is what
    /// snapshots persist and delta syncs exchange.
    lww: BTreeMap<(AppId, UserId, Right), (OpId, AclOp)>,
    /// Highest applied `seq` per origin manager (the delta-sync
    /// high-water marks).
    origin_stamps: BTreeMap<NodeId, u64>,
}

impl Replica {
    pub(super) fn new(apps: &[ManagerApp]) -> Self {
        let apps = apps
            .iter()
            .map(|a| (a.app, ManagedApp { policy: a.policy.clone(), acl: a.initial_acl.clone(), frozen: false }))
            .collect();
        Replica {
            apps,
            applied: BTreeSet::new(),
            lamport: 0,
            lww: BTreeMap::new(),
            origin_stamps: BTreeMap::new(),
        }
    }

    /// Forgets what the replica applied — the slot table, the applied set
    /// and the high-water marks — keeping the ACLs and the clock.
    pub(super) fn forget(&mut self) {
        self.applied.clear();
        self.lww.clear();
        self.origin_stamps.clear();
    }

    /// Back to bootstrap: every ACL as configured, nothing applied. The
    /// freeze flags and the Lamport clock are kept.
    pub(super) fn reset(&mut self, apps: &[ManagerApp]) {
        for spec in apps {
            if let Some(state) = self.apps.get_mut(&spec.app) {
                state.acl = spec.initial_acl.clone();
            }
        }
        self.forget();
    }

    /// Draws the id of an op this manager originates.
    pub(super) fn mint(&mut self, origin: NodeId) -> OpId {
        self.lamport += 1;
        OpId { origin, seq: self.lamport }
    }

    /// Marks `id` applied and lands `op` under last-writer-wins ordering:
    /// the effect takes only if `id` is newer than the slot's current
    /// writer, so every manager converges to the same ACL regardless of
    /// delivery order. Applying an id twice changes nothing. Returns
    /// whether `id` was new here.
    pub(super) fn apply(&mut self, id: OpId, op: &AclOp) -> bool {
        let fresh = self.record(id);
        self.lamport = self.lamport.max(id.seq);
        let slot = (op.app(), op.user(), op.right());
        if self.lww.get(&slot).is_some_and(|&(current, _)| id <= current) {
            return fresh; // an equal-or-newer write already landed
        }
        self.lww.insert(slot, (id, *op));
        if let Some(state) = self.apps.get_mut(&op.app()) {
            match *op {
                AclOp::Add { user, right, .. } => state.acl.add(user, right),
                AclOp::Revoke { user, right, .. } => state.acl.revoke(user, right),
            }
        }
        fresh
    }

    /// Marks `id` as applied and advances its origin's high-water mark.
    fn record(&mut self, id: OpId) -> bool {
        let stamp = self.origin_stamps.entry(id.origin).or_insert(0);
        *stamp = (*stamp).max(id.seq);
        self.applied.insert(id)
    }

    /// Loads a decoded snapshot on top of the current state.
    pub(super) fn load(&mut self, snap: &SnapshotState) {
        for &id in &snap.applied {
            self.record(id);
        }
        for (_, _, _, id, op) in &snap.lww {
            self.apply(*id, op);
        }
    }

    /// After a disk recovery: the clock clears `floor` (the snapshot's)
    /// and every id it may have issued unlogged.
    pub(super) fn recovered_clock(&mut self, floor: u64) {
        self.lamport = self.lamport.max(floor) + LAMPORT_RECOVERY_MARGIN;
    }

    /// The durable projection, with the handoff's release markers.
    pub(super) fn snapshot(&self, released: Vec<(ShardId, u64)>) -> SnapshotState {
        SnapshotState {
            lamport: self.lamport,
            applied: self.applied.iter().copied().collect(),
            lww: self.lww.iter().map(|(&(app, user, right), &(id, op))| (app, user, right, id, op)).collect(),
            released,
        }
    }

    /// Every slot with the id of its winner.
    pub(super) fn slots(&self) -> Vec<Slot> {
        self.lww.iter().map(|(&(app, user, right), &(id, _))| (app, user, right, id)).collect()
    }

    /// The high-water mark of every origin.
    pub(super) fn stamps(&self) -> Vec<(NodeId, u64)> {
        self.origin_stamps.iter().map(|(&n, &s)| (n, s)).collect()
    }

    /// Whether a peer's `slots` name a winner newer than this replica's
    /// for its slot. Its stamps cannot say so: a high-water mark hides a
    /// gap below a later op.
    pub(super) fn lacks_any(&self, slots: &[Slot]) -> bool {
        slots.iter().any(|&(app, user, right, id)| self.lww.get(&(app, user, right)).is_none_or(|&(mine, _)| mine < id))
    }

    /// Whether a peer's `stamps` show ops this replica has not applied.
    pub(super) fn behind(&self, stamps: &[(NodeId, u64)]) -> bool {
        stamps.iter().any(|(n, s)| self.origin_stamps.get(n).is_none_or(|mine| mine < s))
    }

    /// The winners of `app`'s slots in buckets `lo..=hi`, in slot order:
    /// what a handoff source transfers.
    pub(super) fn winners_in(&self, app: AppId, lo: u8, hi: u8) -> Vec<(OpId, AclOp)> {
        self.lww
            .iter()
            .filter(|&(&(a, u, _), _)| a == app && (lo..=hi).contains(&user_bucket(u)))
            .map(|(_, &(id, op))| (id, op))
            .collect()
    }

    /// The delta a syncing peer lacks: every winner newer than the
    /// peer's mark for its slot.
    pub(super) fn delta_for(
        &self,
        ctx: &mut Context<'_, ProtoMsg>,
        stamps: Vec<(NodeId, u64)>,
        slots: Vec<Slot>,
    ) -> Vec<(OpId, AclOp)> {
        let their_stamps: BTreeMap<NodeId, u64> = stamps.into_iter().collect();
        let their_slots: BTreeMap<(AppId, UserId, Right), OpId> =
            slots.into_iter().map(|(app, user, right, id)| ((app, user, right), id)).collect();
        let mut ops = Vec::new();
        for (slot, &(id, op)) in &self.lww {
            if their_slots.get(slot).is_some_and(|mark| id <= *mark) {
                continue;
            }
            // Slot marks — not stamps — are the source of truth: a stamp
            // can cover a seq whose op the requester never durably held
            // (gaps after an origin crash). Count the resends the stamps
            // alone would have skipped.
            if their_stamps.get(&id.origin).is_some_and(|&s| s >= id.seq) {
                ctx.metric_incr(M::MGR_SYNC_GAP_RESENDS);
            }
            ops.push((id, op));
        }
        ops
    }
}
