//! The manager side of the protocol (§3.1, §3.3, §3.4).
//!
//! Managers hold the authoritative ACL for each application. A manager:
//!
//! * answers host `Query`s with `Grant{te}`/`Deny` and records which hosts
//!   cache which users' rights (the grant table of §3.1),
//! * applies admin `Add`/`Revoke` operations and disseminates them to
//!   peer managers with a **persistent retransmission** strategy (§3.3),
//!   reporting `Stable` to the issuer once the update quorum `M − C + 1`
//!   has applied the operation,
//! * forwards `RevokeNotice`s to caching hosts, retransmitting until the
//!   cached right would have expired anyway (§3.4: a manager "can stop
//!   resending the message when the access right would have expired"),
//! * optionally runs the §3.3 **freeze strategy**: stop answering checks
//!   while any peer manager has been silent longer than `Ti`,
//! * keeps its state **durable** when given a [`Storage`] backend: every
//!   applied op is WAL-logged *before* it is acknowledged (an ack is a
//!   quorum promise), snapshots truncate the log on a configurable
//!   cadence, and crash recovery replays snapshot + WAL locally and then
//!   runs a *delta* peer sync for freshness,
//! * without storage, recovers after a crash by refusing to answer
//!   queries until a peer supplies state (§3.4).
//!
//! [`ManagerNode`] is a router over four sub-machines, each owning its
//! state: the ACL replica, durability (WAL, snapshots, recovery and peer
//! sync), dissemination (updates and revoke notices) and shard handoff.
//! A sub-machine reports what happened; only the router carries a step
//! from one sub-machine to another.

mod dissemination;
mod durability;
mod handoff;
mod replica;
#[cfg(test)]
mod tests;

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use wanacl_auth::rsa;
use wanacl_auth::signed::KeyRegistry;
use wanacl_sim::backoff::Backoff;
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::storage::{Recovered, Storage, StorageStats};
use wanacl_sim::time::SimDuration;

use crate::audit::{AuditEvent, Recovery};
use crate::channel::ChannelEnd;
use crate::durable::DurableLog;
use crate::msg::{AclOp, AdminSigning, AdminStatus, OpId, ProtoMsg, QueryVerdict, RejectReason, ReqId};
use crate::policy::Policy;
use crate::storelog::{decode_snapshot, decode_wal_record, encode_record, encode_release, encode_snapshot, WalRecord};
use crate::types::{Acl, AppId, Right, ShardId, UserId};

use dissemination::Dissemination;
use durability::{Durability, Logged, Unlogged, WAL_METRICS};
use handoff::{Crossing, Handoff, ShardRoute};
use replica::Replica;

pub use handoff::transfer_digest;

const TAG_KIND_SHIFT: u64 = 56;
const TAG_HEARTBEAT: u64 = 1 << TAG_KIND_SHIFT;
const TAG_RETRY: u64 = 2 << TAG_KIND_SHIFT;
const TAG_GSWEEP: u64 = 3 << TAG_KIND_SHIFT;
const TAG_SYNC: u64 = 4 << TAG_KIND_SHIFT;
const TAG_HANDOFF: u64 = 5 << TAG_KIND_SHIFT;
/// The wake of a WAL write that went in flight and landed.
const TAG_LANDED: u64 = 6 << TAG_KIND_SHIFT;

/// `shard.N.queries` and `shard.N.updates`, indexed by [`ShardId::metric`].
const SHARD_QUERY_METRICS: [M; 9] = [
    M::SHARD_0_QUERIES,
    M::SHARD_1_QUERIES,
    M::SHARD_2_QUERIES,
    M::SHARD_3_QUERIES,
    M::SHARD_4_QUERIES,
    M::SHARD_5_QUERIES,
    M::SHARD_6_QUERIES,
    M::SHARD_7_QUERIES,
    M::SHARD_OTHER_QUERIES,
];
const SHARD_UPDATE_METRICS: [M; 9] = [
    M::SHARD_0_UPDATES,
    M::SHARD_1_UPDATES,
    M::SHARD_2_UPDATES,
    M::SHARD_3_UPDATES,
    M::SHARD_4_UPDATES,
    M::SHARD_5_UPDATES,
    M::SHARD_6_UPDATES,
    M::SHARD_7_UPDATES,
    M::SHARD_OTHER_UPDATES,
];

/// One application managed by a manager node.
#[derive(Debug, Clone)]
pub struct ManagerApp {
    /// The application id.
    pub app: AppId,
    /// The per-application policy (must match the hosts' policy).
    pub policy: Policy,
    /// The ACL this manager starts with (bootstrap state; must include
    /// at least one `manage`-right holder if admin authorization is
    /// enforced).
    pub initial_acl: Acl,
}

/// One shard a manager owns at deployment time (tentpole: the ACL
/// keyspace is partitioned into bucket ranges, each served by its own
/// manager set with independent check/update quorums).
#[derive(Debug, Clone)]
pub struct ManagerShard {
    /// The shard's global id.
    pub shard: ShardId,
    /// The application (tenant) the shard belongs to.
    pub app: AppId,
    /// First covered [`crate::types::user_bucket`] value (inclusive).
    pub lo: u8,
    /// Last covered [`crate::types::user_bucket`] value (inclusive).
    pub hi: u8,
    /// The shard's co-owners (excluding this manager). Updates for the
    /// shard fan out to exactly this set, so quorum traffic per
    /// operation is independent of the deployment size and of other
    /// tenants' ACLs.
    pub peers: Vec<NodeId>,
}

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// The other managers of the deployment.
    pub peers: Vec<NodeId>,
    /// Applications this manager serves.
    pub apps: Vec<ManagerApp>,
    /// Shards this manager initially owns. Empty means one
    /// [`crate::msg::ShardEntry::whole_keyspace`] shard per app in
    /// `apps`, co-owned with every peer — the paper's one manager set per
    /// application.
    pub shards: Vec<ManagerShard>,
    /// Trust anchor for verifying the namespace writer's signature on
    /// shard-handoff records; `None` accepts handoffs unverified
    /// (unit tests; every `Scenario` sets it).
    pub ns_trust: Option<Arc<KeyRegistry>>,
    /// Key registry for verifying admin signatures (`None` disables
    /// message authentication).
    pub registry: Option<Arc<KeyRegistry>>,
    /// Whether admin operations require the issuer to hold the `manage`
    /// right in the local ACL.
    pub enforce_manage_right: bool,
    /// Base retransmission period for unacknowledged updates and
    /// revocation notices (the "persistent strategy"). Consecutive
    /// fruitless rounds back off exponentially from this base up to
    /// [`ManagerConfig::retry_cap`].
    pub retry_interval: SimDuration,
    /// Upper bound on the retransmission period once backoff has grown
    /// it; long partitions degrade to this cadence instead of hammering
    /// unreachable peers at the base rate.
    pub retry_cap: SimDuration,
    /// Heartbeat period between managers (freeze detection; should be
    /// well below any app's `Ti`).
    pub heartbeat_interval: SimDuration,
    /// How often the grant table is swept of expired entries.
    pub grant_sweep_interval: SimDuration,
    /// Snapshot cadence when stable storage is attached: after this many
    /// WAL appends the manager writes a snapshot and truncates the log.
    /// `0` disables snapshotting (the WAL grows unboundedly).
    pub snapshot_every: u64,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            peers: Vec::new(),
            apps: Vec::new(),
            shards: Vec::new(),
            ns_trust: None,
            registry: None,
            enforce_manage_right: false,
            retry_interval: SimDuration::from_millis(500),
            retry_cap: SimDuration::from_secs(10),
            heartbeat_interval: SimDuration::from_secs(1),
            grant_sweep_interval: SimDuration::from_secs(30),
            snapshot_every: 64,
        }
    }
}

impl ManagerConfig {
    /// The retransmission backoff schedule derived from the config,
    /// with ±10 % jitter on every delay (drawn from the node's seeded
    /// RNG, so runs stay deterministic) to decorrelate retry storms
    /// after a partition heals.
    pub fn retry_backoff(&self) -> Backoff {
        Backoff::new(self.retry_interval, self.retry_cap.max(self.retry_interval)).jitter(0.1)
    }
}

/// Counters a manager keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Host queries received.
    pub queries: u64,
    /// Grants issued.
    pub grants: u64,
    /// Denies issued.
    pub denies: u64,
    /// Queries silently dropped because the manager was frozen (§3.3).
    pub frozen_drops: u64,
    /// Queries refused (answered `Unavailable`) while recovering (§3.4).
    pub recovering_drops: u64,
    /// Operations this manager originated.
    pub ops_originated: u64,
    /// Operations that reached their update quorum here.
    pub quorum_reached: u64,
    /// Peer updates applied.
    pub peer_updates_applied: u64,
    /// Delta syncs served to recovering peers.
    pub syncs_served: u64,
    /// WAL records appended (storage-backed managers only). Read from
    /// the storage's own count by [`ManagerNode::stats`]; the manager
    /// never stores it.
    pub wal_appends: u64,
    /// Snapshots written (each truncates the WAL).
    pub snapshot_writes: u64,
    /// Recoveries satisfied from local stable storage.
    pub recovered_from_disk: u64,
    /// Shards this manager durably released during a handoff.
    pub shards_released: u64,
    /// Shards this manager acquired (activated) through a handoff.
    pub shards_acquired: u64,
}

/// A manager node.
#[derive(Debug)]
pub struct ManagerNode {
    config: ManagerConfig,
    replica: Replica,
    /// The WAL, holding each applied op's promise until it is durable.
    /// Without storage it reproduces the paper's volatile managers
    /// (sync-only recovery).
    wal: DurableLog<Logged, Unlogged>,
    durability: Durability,
    dissemination: Dissemination,
    handoff: Handoff,
    /// When each peer was last heard from (the freeze detector).
    last_heard: BTreeMap<NodeId, LocalTime>,
    /// This manager's end of the authenticated host channel: the key it
    /// shares with each host written to so far. `None` sends replies
    /// and notices untagged.
    channel: Option<ChannelEnd>,
    stats: ManagerStats,
}

impl ManagerNode {
    /// Creates a manager from its configuration.
    pub fn new(config: ManagerConfig) -> Self {
        ManagerNode {
            replica: Replica::new(&config.apps),
            wal: DurableLog::new(config.snapshot_every, Some(WAL_METRICS), TAG_LANDED),
            durability: Durability::default(),
            dissemination: Dissemination::default(),
            handoff: Handoff::new(&config),
            last_heard: Default::default(),
            channel: None,
            stats: ManagerStats::default(),
            config,
        }
    }

    /// Planted-bug hook (see [`crate::campaign::InjectedBug`]): drop the
    /// tail op of every incoming shard transfer, silently losing an
    /// update across the handoff. I9 must catch the digest divergence.
    pub fn set_drop_handoff_tail(&mut self, on: bool) {
        self.handoff.drop_tail = on;
    }

    /// Whether this manager currently serves `shard` (phase `Active`).
    pub fn shard_active(&self, shard: ShardId) -> bool {
        self.handoff.is_active(shard)
    }

    /// Whether this manager has durably released `shard`.
    pub fn shard_released(&self, shard: ShardId) -> bool {
        self.handoff.is_released(shard)
    }

    /// Attaches stable storage. Install before the node starts; if the
    /// storage already holds state (a process restart), `on_start`
    /// replays it before serving.
    pub fn set_storage(&mut self, storage: Box<dyn Storage>) {
        self.wal.attach(storage);
    }

    /// Counters of the attached storage, if any.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.wal.storage_stats()
    }

    /// Installs pairwise channel keys: `QueryReply` and `RevokeNotice`
    /// messages will carry HMAC tags (see [`crate::channel`]).
    /// Installing again (key rotation) forgets every key derived under
    /// the previous master.
    pub fn set_channel_keys(&mut self, keys: Arc<crate::channel::ChannelKeys>) {
        self.channel = Some(ChannelEnd::new(keys));
    }

    /// The manager's counters.
    pub fn stats(&self) -> ManagerStats {
        // Every record the log appended is one the storage counted.
        ManagerStats { wal_appends: self.storage_stats().map_or(0, |s| s.appends), ..self.stats }
    }

    /// Whether the manager currently holds `right` for `user` on `app`.
    pub fn acl_has(&self, app: AppId, user: UserId, right: Right) -> bool {
        self.replica.apps.get(&app).is_some_and(|a| a.acl.has(user, right))
    }

    /// Whether the app is currently frozen by the §3.3 strategy.
    pub fn is_frozen(&self, app: AppId) -> bool {
        self.replica.apps.get(&app).is_some_and(|a| a.frozen)
    }

    /// Whether the manager is recovering and refusing queries.
    pub fn is_recovering(&self) -> bool {
        self.durability.recovering
    }

    /// Number of operations awaiting full dissemination.
    pub fn pending_updates(&self) -> usize {
        self.dissemination.pending_updates()
    }

    /// Number of hosts currently recorded as caching `user`'s right.
    pub fn granted_hosts(&self, app: AppId, user: UserId) -> usize {
        self.dissemination.granted_hosts(app, user)
    }

    /// Inter-manager messages are only honoured from configured peers:
    /// §2.1 trusts managers but nobody else, so a forged `Update` from a
    /// compromised host must not touch the ACL.
    fn is_from_peer(&self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId) -> bool {
        if self.config.peers.contains(&from) {
            true
        } else {
            ctx.metric_incr(M::MGR_MSG_FROM_NON_PEER);
            false
        }
    }

    fn heartbeat_period(&self) -> SimDuration {
        let freezes = self.replica.apps.values().filter_map(|app| app.policy.freeze());
        freezes.fold(self.config.heartbeat_interval, |period, f| period.min(f.heartbeat_interval))
    }

    /// How long a peer may go unheard before it counts as cut off: two
    /// heartbeat periods.
    fn silence(&self) -> SimDuration {
        self.heartbeat_period().mul_f64(2.0)
    }

    /// Bring-up after a start or a crash: peers count as just heard, the
    /// periodic timers arm, and local storage is replayed — on a start
    /// only when it already holds state (a process restart), after a
    /// crash always. A replayed manager serves at once and delta-syncs
    /// for freshness; one without storage waits for a peer's state.
    fn bring_up(&mut self, ctx: &mut Context<'_, ProtoMsg>, after_crash: bool) {
        let now = ctx.local_now();
        for &peer in &self.config.peers {
            self.last_heard.insert(peer, now);
        }
        ctx.set_timer(self.heartbeat_period(), TAG_HEARTBEAT);
        self.dissemination.arm_retry(ctx, &self.config.retry_backoff());
        ctx.set_timer(self.config.grant_sweep_interval, TAG_GSWEEP);
        match self.wal.recover() {
            Some(recovered) if after_crash || recovered.snapshot.is_some() || !recovered.records.is_empty() => {
                self.restore_from(ctx, recovered);
                // Everything this manager ever acked was fsynced before
                // the ack went out, so local replay alone upholds quorum
                // intersection (and a whole-cluster restart cannot leave
                // every manager waiting on a non-recovering peer).
                self.durability.start_sync(ctx, &self.config, &self.replica, false);
                // A durably-released shard may still owe its
                // ShardReleased to the handoff primary; the tick
                // retransmits it.
                if self.handoff.owes_release() {
                    self.handoff.arm(ctx);
                }
            }
            None if after_crash => self.durability.start_sync(ctx, &self.config, &self.replica, true),
            _ => {}
        }
    }

    /// Rebuilds state from what storage yielded: bootstrap ACLs, then the
    /// snapshot, then the surviving WAL records. Recovery is a pure
    /// function of the durable state — exactly what a process restart
    /// would see — so any in-memory remnants are discarded first.
    fn restore_from(&mut self, ctx: &mut Context<'_, ProtoMsg>, recovered: Recovered) {
        for (&app, state) in &mut self.replica.apps {
            // The restart forgets the freeze; the event stream (all the
            // live oracle sees of a crash) has to say so.
            if std::mem::take(&mut state.frozen) {
                ctx.trace_record(|| AuditEvent::Thaw { app });
            }
        }
        self.replica.reset(&self.config.apps);
        // Shard ownership is re-derived from config plus the durable
        // release markers.
        self.handoff.reset(&self.config);
        let mut floor = 0u64;
        if let Some(snap) = recovered.snapshot.as_deref().and_then(decode_snapshot) {
            floor = snap.lamport;
            self.replica.load(&snap);
            for &(shard, epoch) in &snap.released {
                self.handoff.note_released(shard, epoch);
            }
        }
        let mut replayed = 0u64;
        for record in &recovered.records {
            match decode_wal_record(record) {
                Some(WalRecord::Op(id, op)) => {
                    self.replica.apply(id, &op);
                    replayed += 1;
                }
                Some(WalRecord::ShardRelease { shard, epoch }) => self.handoff.note_released(shard, epoch),
                None => {}
            }
        }
        self.replica.recovered_clock(floor);
        self.stats.recovered_from_disk += 1;
        ctx.metric_incr(M::MGR_RECOVERED_FROM_DISK);
        let (torn, replica) = (recovered.torn_records, &self.replica);
        ctx.trace_record(|| AuditEvent::Recovered(Recovery::Disk { replayed, torn, slots: replica.slots() }));
    }

    /// Makes an applied op durable before honouring the promise attached
    /// to it (acking a peer, or counting ourselves toward the quorum).
    /// Without storage the promise is honoured immediately.
    fn log(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: OpId, op: AclOp, ack_to: Option<NodeId>) {
        self.hold(ctx, Logged::Op(id), Unlogged::Op { op, ack_to }, || encode_record(id, &op));
    }

    /// Logs `record()` and holds `promise` until it is durable.
    fn hold(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        key: Logged,
        promise: Unlogged,
        record: impl FnOnce() -> Vec<u8>,
    ) {
        match self.wal.hold(ctx, key, promise, |_| record()) {
            Some(promise) => self.commit(ctx, key, promise),
            None => self.flush(ctx),
        }
    }

    /// Attempts the WAL sync barrier; every promise it made durable is
    /// kept, then the snapshot cadence is checked. A barrier in flight
    /// wakes the manager (`TAG_LANDED`) to run this again.
    fn flush(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let committed = self.wal.barrier(ctx);
        if committed.is_empty() {
            return;
        }
        for (key, promise) in committed {
            self.commit(ctx, key, promise);
        }
        let snapshot = || encode_snapshot(&self.replica.snapshot(self.handoff.release_markers()));
        if self.wal.snapshot_if_due(snapshot) {
            self.stats.snapshot_writes += 1;
            ctx.metric_incr(M::MGR_SNAPSHOT_WRITES);
        }
    }

    /// The record is durable (or durability is not modelled): keep its
    /// promise.
    fn commit(&mut self, ctx: &mut Context<'_, ProtoMsg>, key: Logged, promise: Unlogged) {
        match (key, promise) {
            (Logged::Op(id), Unlogged::Op { op, ack_to }) => {
                if self.wal.has_storage() {
                    // Everything acked from here on must survive any
                    // crash; the oracle's durability invariant checks
                    // recoveries against these notes.
                    let (app, user, right, revoke) = (op.app(), op.user(), op.right(), op.is_revoke());
                    ctx.trace_record(|| AuditEvent::Durable { app, user, right, revoke, id });
                }
                match ack_to {
                    Some(peer) => ctx.send(peer, ProtoMsg::UpdateAck { id }),
                    None => self.stats.quorum_reached += u64::from(self.dissemination.self_durable(ctx, id)),
                }
            }
            (Logged::Release(shard), _) => {
                if let Some((app, lo, hi)) = self.handoff.released(ctx, shard, &mut self.stats) {
                    self.dissemination.cancel_in(app, lo, hi);
                }
            }
            // Never held: an op's key goes with an op's promise.
            (Logged::Op(_), Unlogged::Release) => {}
        }
    }

    /// Every target holds this source's copy of `shard`: write the
    /// release marker durably, then renounce the shard (the barrier also
    /// commits any op waiting on it). Until the marker is durable the
    /// shard stays frozen, and a failed write is retried by the handoff
    /// tick. Without storage the release is immediate (and survives
    /// nothing — sharded deployments are expected to attach storage).
    fn release_source(&mut self, ctx: &mut Context<'_, ProtoMsg>, shard: ShardId) {
        let Some(epoch) = self.handoff.release_due(shard) else { return };
        self.hold(ctx, Logged::Release(shard), Unlogged::Release, || encode_release(shard, epoch));
    }

    fn on_admin(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        op: AclOp,
        req: ReqId,
        issuer: UserId,
        signature: Option<rsa::Signature>,
    ) {
        let reject = |ctx: &mut Context<'_, ProtoMsg>, reason: RejectReason| {
            ctx.metric_incr(M::MGR_ADMIN_REJECTED);
            ctx.send(from, ProtoMsg::AdminReply { req, status: AdminStatus::Rejected { reason } });
        };
        if self.durability.recovering {
            reject(ctx, RejectReason::Recovering);
            return;
        }
        let served = match self.handoff.route(op.app(), op.user()) {
            ShardRoute::Active(sid) => self.replica.apps.get(&op.app()).map(|state| (sid, state)),
            ShardRoute::Moved { forward_to: Some(owner) } => {
                // Relay to the new owner; its reply matches the agent's
                // request id, so it answers `from` directly.
                ctx.metric_incr(M::MGR_ADMIN_FORWARDED);
                ctx.send(owner, ProtoMsg::AdminForward { origin: from, op, req, issuer, signature });
                return;
            }
            ShardRoute::Moved { forward_to: None } => {
                // Released before a crash: the marker does not name the
                // new owners, so no resend could ever land here. Say so.
                reject(ctx, RejectReason::ShardMoved);
                return;
            }
            ShardRoute::Frozen(_) | ShardRoute::Preparing => {
                // Rejection is terminal at the agent; dropping lets its
                // resend land once the handoff completes.
                ctx.metric_incr(M::MGR_ADMIN_FROZEN_SHARD);
                return;
            }
            ShardRoute::None => None,
        };
        let Some((sid, state)) = served else {
            ctx.metric_incr(M::MGR_UNKNOWN_SHARD);
            reject(ctx, RejectReason::UnknownShard);
            return;
        };
        ctx.metric_incr(sid.metric(&SHARD_UPDATE_METRICS));
        // A repeat of a request this manager originated (a reply was
        // lost): answer with the op's status now, minting nothing.
        if let Some(status) = self.dissemination.status((from, req)) {
            ctx.send(from, ProtoMsg::AdminReply { req, status });
            return;
        }
        if let Some(registry) = &self.config.registry {
            let signed = AdminSigning { issuer, op: &op };
            let ok = signature.is_some_and(|sig| registry.verify(issuer.into(), &signed, &sig));
            if !ok {
                reject(ctx, RejectReason::BadSignature);
                return;
            }
        }
        if self.config.enforce_manage_right && !state.acl.has(issuer, Right::Manage) {
            reject(ctx, RejectReason::NotAuthorized);
            return;
        }
        let (fan_peers, quorum) = self.handoff.scope(sid, &state.policy);

        // Apply locally and start dissemination.
        self.stats.ops_originated += 1;
        ctx.metric_incr(M::MGR_OPS_ORIGINATED);
        let id = self.replica.mint(ctx.id());
        self.replica.apply(id, &op);
        // Origin apply note: the oracle reconstructs the ACL's
        // last-writer-wins order from these (seq, origin) stamps, which
        // survives admin resends reordering against concurrent ops.
        let (app, user, revoke) = (op.app(), op.user(), op.is_revoke());
        ctx.trace_record(|| AuditEvent::Apply { revoke, app, user, id });
        ctx.send(from, ProtoMsg::AdminReply { req, status: AdminStatus::Applied });
        // The origin counts toward the quorum only once its own copy is
        // durable (`log` → `commit`); without storage that happens
        // before this call returns.
        self.dissemination.originate(ctx, (id, op), fan_peers, quorum, (from, req));
        self.log(ctx, id, op, None);
        if revoke {
            self.dissemination.forward_revocation(ctx, &mut self.channel, app, user);
        }
        self.dissemination.fresh_work();
    }

    fn on_update(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, id: OpId, op: AclOp) {
        if self.durability.recovering {
            // Do not apply or ack while our own state is stale; the
            // origin's persistent retransmission will retry after sync.
            ctx.metric_incr(M::MGR_UPDATE_DEFERRED_RECOVERING);
        } else if self.replica.apply(id, &op) {
            self.stats.peer_updates_applied += 1;
            ctx.metric_incr(M::MGR_PEER_UPDATES_APPLIED);
            if op.is_revoke() {
                self.dissemination.forward_revocation(ctx, &mut self.channel, op.app(), op.user());
            }
            // Log-before-ack: the ack is a quorum promise, so it is
            // withheld until the record survives a sync barrier.
            self.log(ctx, id, op, Some(from));
        } else if self.wal.holds(&Logged::Op(id)) {
            // A retransmission of an op still awaiting its barrier:
            // retry the barrier rather than acking prematurely.
            self.flush(ctx);
        } else {
            ctx.send(from, ProtoMsg::UpdateAck { id });
        }
    }

    fn on_query(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, app: AppId, user: UserId, req: ReqId) {
        self.stats.queries += 1;
        ctx.metric_incr(M::MGR_QUERIES);
        let unavailable = |reason| QueryVerdict::Unavailable { reason };
        if self.durability.recovering {
            // §3.4: do not answer from stale state — but tell the host,
            // so it can retry another manager instead of timing out.
            self.stats.recovering_drops += 1;
            ctx.metric_incr(M::MGR_RECOVERING_DROPS);
            return self.send_query_reply(ctx, from, req, app, user, unavailable(RejectReason::Recovering));
        }
        let served = match self.handoff.route(app, user) {
            ShardRoute::Active(sid) | ShardRoute::Frozen(sid) => self.replica.apps.get(&app).map(|state| (sid, state)),
            ShardRoute::Moved { .. } => {
                ctx.metric_incr(M::MGR_SHARD_MOVED);
                return self.send_query_reply(ctx, from, req, app, user, unavailable(RejectReason::ShardMoved));
            }
            ShardRoute::Preparing => {
                return self.send_query_reply(ctx, from, req, app, user, unavailable(RejectReason::Recovering));
            }
            ShardRoute::None => None,
        };
        let Some((sid, state)) = served else {
            ctx.metric_incr(M::MGR_UNKNOWN_SHARD);
            return self.send_query_reply(ctx, from, req, app, user, unavailable(RejectReason::UnknownShard));
        };
        ctx.metric_incr(sid.metric(&SHARD_QUERY_METRICS));
        if state.frozen {
            // §3.3: "no responses are sent to application hosts until all
            // managers are accessible again".
            self.stats.frozen_drops += 1;
            ctx.metric_incr(M::MGR_FROZEN_DROPS);
            return;
        }
        let verdict = if state.acl.has(user, Right::Use) {
            let te = state.policy.expiry_budget();
            self.stats.grants += 1;
            ctx.metric_incr(M::MGR_GRANTS);
            ctx.trace_record(|| AuditEvent::Grant { app, user, te });
            // Remember which host caches this right, and until when the
            // entry can matter. The manager measures the bound on its own
            // clock; Te is an upper bound on the entry's real lifetime
            // and manager clocks run no faster than real time, so
            // `local_now + Te` is safe.
            let deadline = ctx.local_now().plus(state.policy.revocation_bound());
            self.dissemination.note_grant(app, user, from, deadline);
            QueryVerdict::Grant { te }
        } else {
            self.stats.denies += 1;
            ctx.metric_incr(M::MGR_DENIES);
            QueryVerdict::Deny
        };
        self.send_query_reply(ctx, from, req, app, user, verdict);
    }

    fn send_query_reply(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        host: NodeId,
        req: ReqId,
        app: AppId,
        user: UserId,
        verdict: QueryVerdict,
    ) {
        let mac = self.channel.as_mut().map(|c| c.pair(ctx.id(), host).tag_query_reply(req, app, user, &verdict));
        ctx.send(host, ProtoMsg::QueryReply { req, app, user, verdict, mac });
    }

    fn on_sync_request(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        stamps: Vec<(NodeId, u64)>,
        slots: Vec<replica::Slot>,
    ) {
        if self.durability.recovering {
            return;
        }
        self.stats.syncs_served += 1;
        ctx.metric_incr(M::MGR_SYNCS_SERVED);
        // The requester holds a winner this replica lacks — an op whose
        // origin crashed before retransmitting it here: pull it.
        let pull = self.replica.lacks_any(&slots);
        let ops = self.replica.delta_for(ctx, stamps, slots);
        ctx.send(from, ProtoMsg::SyncResponse { ops, stamps: self.replica.stamps() });
        if pull {
            self.durability.pull(ctx, &self.config, &self.replica);
        }
    }

    fn on_sync_response(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        ops: Vec<(OpId, AclOp)>,
        stamps: Vec<(NodeId, u64)>,
    ) {
        if !self.durability.syncing() {
            return;
        }
        let was_cold = self.durability.recovering;
        if was_cold {
            // Sync-only recovery (no storage): whatever ACL survived in
            // memory is stale and untrusted. Reset to bootstrap so the
            // result is exactly bootstrap + every winner the peer knows.
            self.replica.reset(&self.config.apps);
        }
        let mut merged = 0u64;
        for (id, op) in ops {
            if self.replica.apply(id, &op) {
                merged += 1;
                // Merged winners become durable too — otherwise a crash
                // right after the delta sync would silently forget them.
                self.log(ctx, id, op, None);
            }
        }
        // A peer's stamps describe what *it* has applied; ours must only
        // ever reflect what we applied. Just note any remaining lag.
        if self.replica.behind(&stamps) {
            ctx.metric_incr(M::MGR_SYNC_STAMPS_BEHIND);
        }
        if !self.durability.answered(from) {
            return;
        }
        if was_cold {
            ctx.metric_incr(M::MGR_RECOVERED_VIA_SYNC);
            ctx.trace_record(|| AuditEvent::Recovered(Recovery::Sync { merged }));
        } else {
            ctx.metric_incr(M::MGR_DELTA_SYNC_COMPLETE);
        }
    }

    fn on_heartbeat_tick(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        for peer in &self.config.peers {
            ctx.send(*peer, ProtoMsg::Heartbeat);
        }
        // Evaluate the freeze predicate per app.
        let now = ctx.local_now();
        for (app, state) in self.replica.apps.iter_mut() {
            let Some(freeze) = state.policy.freeze() else { continue };
            // Scale Ti by the rate bound: a clock running at rate >= b
            // measuring b*Ti local units has waited at most Ti real time.
            let ti_local = freeze.ti.mul_f64(state.policy.clock_rate_bound());
            let was_frozen = state.frozen;
            state.frozen =
                self.config.peers.iter().any(|p| self.last_heard.get(p).is_none_or(|&heard| now.since(heard) > ti_local));
            if state.frozen && !was_frozen {
                ctx.metric_incr(M::MGR_FREEZE_TRANSITIONS);
                ctx.trace_record(|| AuditEvent::Freeze { app: *app });
            } else if !state.frozen && was_frozen {
                ctx.trace_record(|| AuditEvent::Thaw { app: *app });
            }
        }
        ctx.set_timer(self.heartbeat_period(), TAG_HEARTBEAT);
    }

    fn on_shard_msg(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        let trust = self.config.ns_trust.as_deref();
        match self.handoff.on_message(ctx, from, msg, trust, &self.replica, &mut self.stats) {
            Some(Crossing::Install { shard, epoch, ops }) => {
                for (id, op) in ops {
                    if self.replica.apply(id, &op) {
                        self.log(ctx, id, op, None);
                    }
                }
                ctx.send(from, ProtoMsg::ShardTransferAck { shard, epoch });
            }
            Some(Crossing::Release(shard)) => self.release_source(ctx, shard),
            None => {}
        }
    }
}

impl Node for ManagerNode {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.bring_up(ctx, false);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Admin { op, req, issuer, signature } => self.on_admin(ctx, from, op, req, issuer, signature),
            ProtoMsg::Query { app, user, req } => self.on_query(ctx, from, app, user, req),
            ProtoMsg::ShardHandoff { .. } if from == NodeId::ENV => self.on_shard_msg(ctx, from, msg),
            ProtoMsg::ShardHandoff { .. }
            | ProtoMsg::ShardTransfer { .. }
            | ProtoMsg::ShardTransferAck { .. }
            | ProtoMsg::ShardReleased { .. }
            | ProtoMsg::ShardReleasedAck { .. }
            | ProtoMsg::ShardActivate { .. }
            | ProtoMsg::ShardActivateAck { .. } => {
                if self.is_from_peer(ctx, from) {
                    self.on_shard_msg(ctx, from, msg);
                }
            }
            ProtoMsg::AdminForward { origin, op, req, issuer, signature } => {
                if self.is_from_peer(ctx, from) {
                    self.on_admin(ctx, origin, op, req, issuer, signature);
                }
            }
            ProtoMsg::Update { .. }
            | ProtoMsg::UpdateAck { .. }
            | ProtoMsg::Heartbeat
            | ProtoMsg::SyncRequest { .. }
            | ProtoMsg::SyncResponse { .. } => {
                if !self.is_from_peer(ctx, from) {
                    return;
                }
                // A peer's message is a sign of life for the freeze
                // detector. After two heartbeat periods without one, the
                // peer is back from a cut or a crash: resend it what it
                // has not acked.
                let now = ctx.local_now();
                if self.last_heard.insert(from, now).is_some_and(|heard| now.since(heard) > self.silence()) {
                    self.dissemination.peer_back(ctx, from, &self.config.retry_backoff());
                }
                match msg {
                    ProtoMsg::Update { id, op } => self.on_update(ctx, from, id, op),
                    ProtoMsg::UpdateAck { id } => {
                        self.stats.quorum_reached += u64::from(self.dissemination.acked(ctx, from, id));
                    }
                    ProtoMsg::SyncRequest { stamps, slots } => self.on_sync_request(ctx, from, stamps, slots),
                    ProtoMsg::SyncResponse { ops, stamps } => self.on_sync_response(ctx, from, ops, stamps),
                    _ => {}
                }
            }
            _ => ctx.metric_incr(M::MGR_UNEXPECTED_MSG),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        match tag {
            TAG_HEARTBEAT => self.on_heartbeat_tick(ctx),
            TAG_RETRY => {
                // A failed sync barrier leaves committed-in-memory ops
                // withheld; every retry tick re-attempts the barrier
                // first so acks are not delayed past the next fsync.
                self.flush(ctx);
                let (now, silence) = (ctx.local_now(), self.silence());
                let heard = |peer| self.last_heard.get(&peer).is_some_and(|&at| now.since(at) <= silence);
                self.dissemination.retry(ctx, &mut self.channel, &self.config.retry_backoff(), heard);
            }
            TAG_GSWEEP => {
                self.dissemination.sweep_grants(ctx.local_now());
                ctx.set_timer(self.config.grant_sweep_interval, TAG_GSWEEP);
            }
            TAG_LANDED => self.flush(ctx),
            TAG_SYNC if self.durability.syncing() => {
                self.durability.request_sync(ctx, &self.config, &self.replica);
            }
            TAG_HANDOFF => {
                let (busy, release_ready) = self.handoff.resend(ctx);
                // A failed release fsync left these frozen: retry.
                for shard in release_ready {
                    self.release_source(ctx, shard);
                }
                self.handoff.coordinate(ctx, busy);
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // Crash model (§2.1): managers are crash-only. All volatile
        // coordination state is lost; storage drops whatever was not yet
        // fsynced (and may tear the tail record). The Lamport counter is
        // modelled as persisted in-memory, so post-crash operations never
        // reuse an OpId; disk recovery additionally re-derives a floor.
        self.wal.crash();
        self.durability.crash();
        self.dissemination.clear();
        self.last_heard.clear();
        self.replica.forget();
        // Durable release markers are re-applied during recovery, and a
        // shard acquired-but-unfsynced degrades to unavailability (the
        // recovered manager answers UnknownShard until re-handed-off),
        // which is fail-closed and safe.
        self.handoff.reset(&self.config);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.bring_up(ctx, true);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
