//! Shard ownership and online handoff (DESIGN §14): the shards this
//! manager serves, is acquiring or has released, and the three handoff
//! roles — a source freezes and transfers, a target prepares and waits,
//! and the primary source (the lowest-id current owner) activates the
//! targets once every source durably released.

use std::collections::{BTreeMap, BTreeSet};

use wanacl_auth::signed::{AuthEncode, KeyRegistry};
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId};
use wanacl_sim::time::SimDuration;

use crate::audit::{AuditEvent, ShardOps};
use crate::msg::{AclOp, NsRecord, OpId, ProtoMsg, ShardEntry};
use crate::policy::Policy;
use crate::storelog::WalRecord;
use crate::types::{user_bucket, AppId, Fnv1a, ShardId, UserId};

use super::replica::Replica;
use super::{ManagerConfig, ManagerStats, TAG_HANDOFF};

/// Order-sensitive FNV-1a digest over the WAL encodings of a transfer's
/// ops. Source and target both compute it; the oracle's rebalance-safety
/// invariant (I9) compares the two sides.
pub fn transfer_digest(ops: &[(OpId, AclOp)]) -> u64 {
    let mut hash = Fnv1a::default();
    for (id, op) in ops {
        WalRecord::Op(*id, *op).auth_encode(&mut hash);
    }
    hash.0
}

/// Source-side handoff bookkeeping while the shard is frozen.
#[derive(Debug)]
struct HandoffSource {
    /// The new map version the handoff installs.
    epoch: u64,
    /// The pre-signed next-version record (retransmitted to late
    /// participants; published by the primary once all sources release).
    record: NsRecord,
    targets: Vec<NodeId>,
    publish_to: Vec<NodeId>,
    /// Targets that have not acknowledged this source's transfer yet.
    unacked_transfer: BTreeSet<NodeId>,
    /// The transfer payload, fixed at freeze time so retransmissions
    /// carry identical bytes (and the digest stays meaningful).
    ops: Vec<(OpId, AclOp)>,
    digest: u64,
}

impl HandoffSource {
    fn transfer(&self, shard: ShardId, app: AppId) -> ProtoMsg {
        ProtoMsg::ShardTransfer { shard, epoch: self.epoch, app, ops: self.ops.clone(), digest: self.digest }
    }

    /// The kickoff, to re-seed a participant that missed it.
    fn kickoff(&self, shard: ShardId) -> ProtoMsg {
        ProtoMsg::ShardHandoff {
            shard,
            epoch: self.epoch,
            record: Box::new(self.record.clone()),
            targets: self.targets.clone(),
            publish_to: self.publish_to.clone(),
        }
    }
}

/// Handoff coordination state, held by the primary source: tracks which
/// sources have durably released and which targets have acknowledged
/// activation.
#[derive(Debug)]
struct HandoffCoord {
    epoch: u64,
    record: NsRecord,
    publish_to: Vec<NodeId>,
    /// The kickoff, re-seeded to sources still to release.
    kickoff: ProtoMsg,
    awaiting_release: BTreeSet<NodeId>,
    awaiting_activate: BTreeSet<NodeId>,
}

/// Where one of this manager's shards is in its lifecycle.
#[derive(Debug)]
enum ShardPhase {
    /// Serving checks and accepting updates.
    Active,
    /// Source side of a handoff: checks are still answered from the
    /// frozen state (no update can become stable anywhere during the
    /// freeze, so the answers stay sound), admin ops are silently
    /// dropped (the agent's persistent resend carries them past the
    /// handoff).
    Frozen(HandoffSource),
    /// Durably renounced: checks answer `Unavailable{ShardMoved}`,
    /// admin ops are forwarded to the new owner set.
    Released {
        epoch: u64,
        /// First member of the new owner set, for admin forwarding
        /// (`None` after a crash recovery that only replayed the WAL
        /// marker — admins are then refused as `ShardMoved`).
        forward_to: Option<NodeId>,
        /// Whether the handoff primary acknowledged our `ShardReleased`.
        acked: bool,
        /// The kickoff, re-seeded to a primary that may have been down
        /// when it first went out (`None` after a crash recovery).
        kickoff: Option<Box<ProtoMsg>>,
    },
    /// Target side of a handoff: transfers are being merged; the shard
    /// serves nothing until the primary activates it.
    Preparing {
        /// The digest of each source's transfer applied so far: a resend
        /// is deduped, while a source that crashed before releasing and
        /// froze again sends a new payload, which is applied too.
        received: BTreeMap<NodeId, u64>,
    },
}

/// One shard owned (or being acquired/relinquished) by this manager.
#[derive(Debug)]
struct ShardState {
    app: AppId,
    lo: u8,
    hi: u8,
    /// Co-owners under the epoch this state belongs to.
    peers: Vec<NodeId>,
    /// The shard-map version under which this manager (last) owned the
    /// shard; targets carry the incoming epoch from creation.
    epoch: u64,
    phase: ShardPhase,
}

impl ShardState {
    fn covers(&self, app: AppId, bucket: u8) -> bool {
        self.app == app && bucket >= self.lo && bucket <= self.hi
    }

    /// The handoff primary: the lowest id among the shard's owners.
    fn primary(&self, me: NodeId) -> NodeId {
        self.peers.iter().copied().chain([me]).min().unwrap_or(me)
    }
}

/// How an `(app, user)` slot routes through this manager's shard table.
pub(super) enum ShardRoute {
    /// No shard here covers the slot.
    None,
    /// An active shard covers it: serve normally.
    Active(ShardId),
    /// The covering shard is frozen for handoff: queries are answered
    /// from the frozen state (nothing can become stable meanwhile);
    /// admins are silently dropped so the agent's resend carries them
    /// past the freeze.
    Frozen(ShardId),
    /// The shard was handed off; `forward_to` is a new owner when known.
    Moved { forward_to: Option<NodeId> },
    /// The shard is arriving but not yet activated.
    Preparing,
}

/// What a handoff message needs from the rest of the manager.
pub(super) enum Crossing {
    /// Apply and log a source's transfer, then ack it.
    Install { shard: ShardId, epoch: u64, ops: Vec<(OpId, AclOp)> },
    /// Every target holds this source's state: durably release the shard.
    Release(ShardId),
}

#[derive(Debug)]
pub(super) struct Handoff {
    /// The shards this manager owns, is acquiring or has released.
    shards: BTreeMap<ShardId, ShardState>,
    /// Handoff coordination per shard (primary source only).
    coord: BTreeMap<ShardId, HandoffCoord>,
    /// Durable record of released shards (mirrors the WAL markers; the
    /// snapshot carries it so compaction cannot forget a release).
    released: BTreeMap<ShardId, u64>,
    /// Whether the retransmission timer is armed.
    timer_armed: bool,
    /// The retransmission cadence (fixed, no RNG, so handoffs never
    /// perturb the retry jitter stream).
    cadence: SimDuration,
    /// Planted-bug hook: the target drops the last op of every incoming
    /// transfer, so its install digest diverges from the source's
    /// handoff digest — the lost-handoff bug I9 must catch.
    pub(super) drop_tail: bool,
}

/// The shard table a configuration starts with: every configured shard
/// active at epoch 1, or — with none configured — one whole-keyspace
/// shard per served app, co-owned with every peer.
fn configured_shards(config: &ManagerConfig) -> BTreeMap<ShardId, ShardState> {
    let active = |app, lo, hi, peers| ShardState { app, lo, hi, peers, epoch: 1, phase: ShardPhase::Active };
    match config.shards.as_slice() {
        [] => config
            .apps
            .iter()
            .map(|a| {
                let e = ShardEntry::whole_keyspace(a.app, config.peers.clone());
                (e.shard, active(a.app, e.lo, e.hi, e.managers))
            })
            .collect(),
        shards => shards.iter().map(|s| (s.shard, active(s.app, s.lo, s.hi, s.peers.clone()))).collect(),
    }
}

impl Handoff {
    pub(super) fn new(config: &ManagerConfig) -> Self {
        Handoff {
            shards: configured_shards(config),
            coord: BTreeMap::new(),
            released: BTreeMap::new(),
            timer_armed: false,
            cadence: config.retry_interval,
            drop_tail: false,
        }
    }

    /// Back to the deployment config: every configured shard active, no
    /// coordination state, no release markers (recovery re-applies the
    /// durable ones). Acquired-but-volatile ownership is lost: the shard
    /// degrades to unavailability, never to unsafe serving.
    pub(super) fn reset(&mut self, config: &ManagerConfig) {
        self.shards = configured_shards(config);
        self.coord.clear();
        self.released.clear();
        self.timer_armed = false;
    }

    pub(super) fn is_active(&self, shard: ShardId) -> bool {
        self.shards.get(&shard).is_some_and(|s| matches!(s.phase, ShardPhase::Active))
    }

    pub(super) fn is_released(&self, shard: ShardId) -> bool {
        self.released.contains_key(&shard)
            || self.shards.get(&shard).is_some_and(|s| matches!(s.phase, ShardPhase::Released { .. }))
    }

    /// Whether a durably-released shard still owes its `ShardReleased`
    /// to the handoff primary.
    pub(super) fn owes_release(&self) -> bool {
        self.shards.values().any(|st| matches!(st.phase, ShardPhase::Released { acked: false, .. }))
    }

    /// The release markers a snapshot must carry.
    pub(super) fn release_markers(&self) -> Vec<(ShardId, u64)> {
        self.released.iter().map(|(&s, &e)| (s, e)).collect()
    }

    /// Records a durably-released shard (from a WAL marker or snapshot):
    /// the manager must stay silent for it. The new owner set is not
    /// part of the marker, so admin forwarding is unavailable after a
    /// recovery — admins for the shard are refused as `ShardMoved`.
    pub(super) fn note_released(&mut self, shard: ShardId, epoch: u64) {
        self.released.insert(shard, epoch);
        if let Some(st) = self.shards.get_mut(&shard) {
            st.phase = ShardPhase::Released { epoch, forward_to: None, acked: false, kickoff: None };
        }
    }

    /// Routes `(app, user)` to the covering shard's current phase.
    pub(super) fn route(&self, app: AppId, user: UserId) -> ShardRoute {
        let bucket = user_bucket(user);
        let Some((&sid, st)) = self.shards.iter().find(|(_, st)| st.covers(app, bucket)) else {
            return ShardRoute::None;
        };
        match &st.phase {
            ShardPhase::Active => ShardRoute::Active(sid),
            ShardPhase::Frozen(_) => ShardRoute::Frozen(sid),
            ShardPhase::Released { forward_to, .. } => ShardRoute::Moved { forward_to: *forward_to },
            ShardPhase::Preparing { .. } => ShardRoute::Preparing,
        }
    }

    /// The update fan-out set and quorum for an op on `shard`: the
    /// shard's co-owners and `M − C + 1` over its manager set, so quorum
    /// traffic per operation is independent of the deployment and of
    /// other tenants.
    pub(super) fn scope(&self, shard: ShardId, policy: &Policy) -> (Vec<NodeId>, usize) {
        let peers = self.shards.get(&shard).map(|st| st.peers.clone()).unwrap_or_default();
        let owners = peers.len() + 1;
        let c = policy.check_quorum();
        // `owners − C + 1` without the panic: an undersized shard cannot
        // satisfy any check quorum (hosts fail closed), so the exact
        // value is moot — use all owners.
        let quorum = if owners >= c { owners - c + 1 } else { owners };
        (peers, quorum)
    }

    /// Arms the retransmission timer unless it is armed.
    pub(super) fn arm(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.cadence, TAG_HANDOFF);
        }
    }

    /// One handoff message from a peer (or a kickoff from the
    /// environment).
    pub(super) fn on_message(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        msg: ProtoMsg,
        trust: Option<&KeyRegistry>,
        replica: &Replica,
        stats: &mut ManagerStats,
    ) -> Option<Crossing> {
        match msg {
            ProtoMsg::ShardHandoff { shard, epoch, record, targets, publish_to } => {
                if trust.is_some_and(|trust| !record.verify(trust, crate::scenario::NS_WRITER)) {
                    ctx.metric_incr(M::MGR_HANDOFF_BAD_RECORD);
                } else if targets.contains(&ctx.id()) {
                    self.prepare(ctx, shard, epoch, &record);
                } else {
                    self.freeze(ctx, shard, epoch, *record, targets, publish_to, replica);
                }
            }
            ProtoMsg::ShardTransfer { shard, epoch, app, ops, digest } => {
                return self.accept_transfer(ctx, from, shard, epoch, app, ops, digest);
            }
            ProtoMsg::ShardTransferAck { shard, epoch } => {
                let st = self.shards.get_mut(&shard)?;
                let ShardPhase::Frozen(hs) = &mut st.phase else { return None };
                if hs.epoch != epoch {
                    return None;
                }
                hs.unacked_transfer.remove(&from);
                return hs.unacked_transfer.is_empty().then_some(Crossing::Release(shard));
            }
            // Primary: a source reports its durable release.
            ProtoMsg::ShardReleased { shard, epoch } => {
                let c = self.coord.get_mut(&shard)?;
                if c.epoch != epoch {
                    return None;
                }
                c.awaiting_release.remove(&from);
                ctx.send(from, ProtoMsg::ShardReleasedAck { shard, epoch });
                self.maybe_activate(ctx, shard);
            }
            // Source: the primary saw our release; stop retransmitting it.
            ProtoMsg::ShardReleasedAck { shard, epoch } => {
                if let Some(ShardPhase::Released { epoch: e, acked, .. }) =
                    self.shards.get_mut(&shard).map(|st| &mut st.phase)
                {
                    if *e == epoch {
                        *acked = true;
                    }
                }
            }
            // Target: every source is silent — start serving the shard.
            ProtoMsg::ShardActivate { shard, epoch } => {
                let st = self.shards.get_mut(&shard)?;
                if st.epoch != epoch {
                    return None;
                }
                match st.phase {
                    ShardPhase::Preparing { .. } => {
                        st.phase = ShardPhase::Active;
                        stats.shards_acquired += 1;
                        ctx.metric_incr(M::MGR_SHARD_ACQUIRED);
                        ctx.send(from, ProtoMsg::ShardActivateAck { shard, epoch });
                    }
                    ShardPhase::Active => ctx.send(from, ProtoMsg::ShardActivateAck { shard, epoch }),
                    _ => {}
                }
            }
            // Primary: a target confirmed activation.
            ProtoMsg::ShardActivateAck { shard, epoch } => {
                let c = self.coord.get_mut(&shard)?;
                if c.epoch != epoch {
                    return None;
                }
                c.awaiting_activate.remove(&from);
                if c.awaiting_release.is_empty() && c.awaiting_activate.is_empty() {
                    self.coord.remove(&shard);
                    ctx.metric_incr(M::MGR_HANDOFF_COMPLETE);
                }
            }
            _ => {}
        }
        None
    }

    /// Target role: note the incoming shard and wait for the sources'
    /// transfers.
    fn prepare(&mut self, ctx: &mut Context<'_, ProtoMsg>, shard: ShardId, epoch: u64, record: &NsRecord) {
        let Some(entry) = record.shards.iter().find(|e| e.shard == shard) else {
            ctx.metric_incr(M::MGR_HANDOFF_BAD_RECORD);
            return;
        };
        if self.shards.get(&shard).is_some_and(|st| st.epoch >= epoch) || self.released.contains_key(&shard) {
            return; // duplicate kickoff
        }
        let me = ctx.id();
        let state = ShardState {
            app: record.app,
            lo: entry.lo,
            hi: entry.hi,
            peers: entry.managers.iter().copied().filter(|&m| m != me).collect(),
            epoch,
            phase: ShardPhase::Preparing { received: BTreeMap::new() },
        };
        self.shards.insert(shard, state);
        ctx.metric_incr(M::MGR_HANDOFF_TARGET_STARTED);
        self.arm(ctx);
    }

    /// Source role: only a currently-active owner freezes, pushing the
    /// shard's winners to every target.
    #[allow(clippy::too_many_arguments)]
    fn freeze(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        shard: ShardId,
        epoch: u64,
        record: NsRecord,
        targets: Vec<NodeId>,
        publish_to: Vec<NodeId>,
        replica: &Replica,
    ) {
        let Some(st) = self.shards.get_mut(&shard) else { return };
        if !matches!(st.phase, ShardPhase::Active) || epoch <= st.epoch {
            return;
        }
        let me = ctx.id();
        let ops = replica.winners_in(st.app, st.lo, st.hi);
        let digest = transfer_digest(&ops);
        // The I9 source-side note: what this source claims to have
        // handed over. The target's install note must match it.
        ctx.trace_record(|| {
            AuditEvent::ShardHandoff(ShardOps { shard, epoch, src: me, digest, count: ops.len() })
        });
        ctx.metric_incr(M::MGR_HANDOFF_SOURCE_STARTED);
        let unacked_transfer = targets.iter().copied().collect();
        let hs = HandoffSource { epoch, record, targets, publish_to, unacked_transfer, ops, digest };
        for t in &hs.targets {
            ctx.send(*t, hs.transfer(shard, st.app));
        }
        if st.primary(me) == me {
            let coord = HandoffCoord {
                epoch,
                record: hs.record.clone(),
                publish_to: hs.publish_to.clone(),
                kickoff: hs.kickoff(shard),
                awaiting_release: st.peers.iter().copied().chain([me]).collect(),
                awaiting_activate: hs.targets.iter().copied().collect(),
            };
            self.coord.insert(shard, coord);
        }
        st.phase = ShardPhase::Frozen(hs);
        self.arm(ctx);
    }

    /// Target side: a source's transfer, to install unless it is a
    /// resend (which is only re-acked).
    #[allow(clippy::too_many_arguments)]
    fn accept_transfer(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
        app: AppId,
        mut ops: Vec<(OpId, AclOp)>,
        digest: u64,
    ) -> Option<Crossing> {
        let st = self.shards.get_mut(&shard)?;
        if st.epoch != epoch || st.app != app {
            return None;
        }
        let fresh = match &mut st.phase {
            ShardPhase::Preparing { received } => received.insert(from, digest) != Some(digest),
            // A late resend after activation: just re-ack.
            ShardPhase::Active => false,
            _ => return None,
        };
        if !fresh {
            return Some(Crossing::Install { shard, epoch, ops: Vec::new() });
        }
        if self.drop_tail {
            ops.pop();
        }
        let digest = transfer_digest(&ops);
        // The I9 target-side note: what was actually installed.
        ctx.trace_record(|| {
            AuditEvent::ShardInstall(ShardOps { shard, epoch, src: from, digest, count: ops.len() })
        });
        ctx.metric_incr(M::MGR_SHARD_INSTALLS);
        Some(Crossing::Install { shard, epoch, ops })
    }

    /// The epoch to write a release marker for, once every target holds
    /// this source's state.
    pub(super) fn release_due(&self, shard: ShardId) -> Option<u64> {
        match &self.shards.get(&shard)?.phase {
            ShardPhase::Frozen(hs) if hs.unacked_transfer.is_empty() => Some(hs.epoch),
            _ => None,
        }
    }

    /// The release marker is durable: renounce the shard and report to
    /// the handoff primary. Returns the released range.
    pub(super) fn released(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        shard: ShardId,
        stats: &mut ManagerStats,
    ) -> Option<(AppId, u8, u8)> {
        let me = ctx.id();
        let st = self.shards.get_mut(&shard)?;
        let ShardPhase::Frozen(hs) = &st.phase else { return None };
        let (epoch, forward_to, kickoff) = (hs.epoch, hs.targets.first().copied(), Some(Box::new(hs.kickoff(shard))));
        let primary = st.primary(me);
        let acked = primary == me;
        st.phase = ShardPhase::Released { epoch, forward_to, acked, kickoff };
        let range = (st.app, st.lo, st.hi);
        self.released.insert(shard, epoch);
        stats.shards_released += 1;
        ctx.metric_incr(M::MGR_SHARD_RELEASED);
        if acked {
            if let Some(c) = self.coord.get_mut(&shard) {
                c.awaiting_release.remove(&me);
            }
            self.maybe_activate(ctx, shard);
        } else {
            ctx.send(primary, ProtoMsg::ShardReleased { shard, epoch });
        }
        self.arm(ctx);
        Some(range)
    }

    /// Primary: once every source has durably released, activate the
    /// targets and publish the new map. Re-sent from the handoff tick
    /// until every target acknowledges (replicas dedupe the publish).
    fn maybe_activate(&mut self, ctx: &mut Context<'_, ProtoMsg>, shard: ShardId) {
        let Some(c) = self.coord.get(&shard) else { return };
        if !c.awaiting_release.is_empty() {
            return;
        }
        if c.awaiting_activate.is_empty() {
            self.coord.remove(&shard);
            ctx.metric_incr(M::MGR_HANDOFF_COMPLETE);
            return;
        }
        for &t in &c.awaiting_activate {
            ctx.send(t, ProtoMsg::ShardActivate { shard, epoch: c.epoch });
        }
        for &r in &c.publish_to {
            ctx.send(r, ProtoMsg::NsPublish { record: Box::new(c.record.clone()) });
        }
    }

    /// The retransmission tick's first half: re-seeds the participants
    /// of every frozen shard and re-reports unacked releases. Returns
    /// whether anything is in flight and the sources whose release
    /// fsync failed and must be retried.
    pub(super) fn resend(&mut self, ctx: &mut Context<'_, ProtoMsg>) -> (bool, Vec<ShardId>) {
        self.timer_armed = false;
        let me = ctx.id();
        let mut busy = false;
        let mut release_ready = Vec::new();
        for (&sid, st) in &self.shards {
            match &st.phase {
                ShardPhase::Frozen(hs) => {
                    busy = true;
                    // Re-seed participants a partition may have cut off
                    // from the kickoff, then push the transfer again.
                    let kickoff = hs.kickoff(sid);
                    for p in st.peers.iter().chain(hs.targets.iter()) {
                        ctx.send(*p, kickoff.clone());
                    }
                    for t in &hs.unacked_transfer {
                        ctx.metric_incr(M::MGR_SHARD_TRANSFER_RESENT);
                        ctx.send(*t, hs.transfer(sid, st.app));
                    }
                    if hs.unacked_transfer.is_empty() {
                        release_ready.push(sid);
                    }
                }
                ShardPhase::Released { epoch, acked: false, kickoff, .. } if st.primary(me) != me => {
                    busy = true;
                    // A primary down at the kickoff has no coordination
                    // to ack with: re-seed it.
                    if let Some(kickoff) = kickoff {
                        ctx.send(st.primary(me), (**kickoff).clone());
                    }
                    ctx.send(st.primary(me), ProtoMsg::ShardReleased { shard: sid, epoch: *epoch });
                }
                _ => {}
            }
        }
        (busy, release_ready)
    }

    /// The tick's second half: the primary re-drives every activation
    /// it coordinates, and the timer re-arms while anything is in flight.
    /// Once the primary itself has released, it also re-seeds the
    /// sources still to release: one that was down at the kickoff has
    /// no frozen peer left to re-seed it.
    pub(super) fn coordinate(&mut self, ctx: &mut Context<'_, ProtoMsg>, busy: bool) {
        let me = ctx.id();
        let coord_ids: Vec<ShardId> = self.coord.keys().copied().collect();
        for sid in &coord_ids {
            if let Some(c) = self.coord.get(sid).filter(|c| !c.awaiting_release.contains(&me)) {
                for &source in &c.awaiting_release {
                    ctx.send(source, c.kickoff.clone());
                }
            }
            self.maybe_activate(ctx, *sid);
        }
        if busy || !coord_ids.is_empty() {
            self.arm(ctx);
        }
    }
}
