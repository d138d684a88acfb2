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

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use wanacl_auth::rsa;
use wanacl_auth::signed::KeyRegistry;
use wanacl_sim::backoff::Backoff;
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::storage::{Recovered, Storage, StorageStats};
use wanacl_sim::time::SimDuration;

use crate::audit::{AuditEvent, Recovery, ShardOps};
use crate::channel::ChannelEnd;
use crate::msg::{
    admin_signing_bytes, AclOp, AdminStatus, NsRecord, OpId, ProtoMsg, QueryVerdict, RejectReason,
    ReqId, ShardEntry,
};
use crate::policy::Policy;
use crate::storelog::{
    decode_snapshot, decode_wal_record, encode_record, encode_release, encode_snapshot,
    SnapshotState, WalRecord,
};
use crate::types::{user_bucket, Acl, AppId, Right, ShardId, UserId};

/// Jump added to the Lamport clock after a disk recovery so a cold
/// process restart (which loses the in-memory counter) can never mint an
/// `OpId` that collides with one issued before the crash but not yet
/// durable anywhere.
const LAMPORT_RECOVERY_MARGIN: u64 = 1 << 10;

const TAG_KIND_SHIFT: u64 = 56;
const TAG_HEARTBEAT: u64 = 1 << TAG_KIND_SHIFT;
const TAG_RETRY: u64 = 2 << TAG_KIND_SHIFT;
const TAG_GSWEEP: u64 = 3 << TAG_KIND_SHIFT;
const TAG_SYNC: u64 = 4 << TAG_KIND_SHIFT;
const TAG_HANDOFF: u64 = 5 << TAG_KIND_SHIFT;

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

/// Order-sensitive FNV-1a digest over the WAL encodings of a transfer's
/// ops. Source and target both compute it; the oracle's rebalance-safety
/// invariant (I9) compares the two sides.
pub fn transfer_digest(ops: &[(OpId, AclOp)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, op) in ops {
        for byte in encode_record(*id, op) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

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
    /// First covered [`user_bucket`] value (inclusive).
    pub lo: u8,
    /// Last covered [`user_bucket`] value (inclusive).
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
    /// [`ShardEntry::whole_keyspace`] shard per app in `apps`, co-owned
    /// with every peer — the paper's one manager set per application.
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
    /// WAL records appended (storage-backed managers only).
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

/// Handoff coordination state, held by the primary source (the
/// lowest-id current owner): tracks which sources have durably released
/// and which targets have acknowledged activation.
#[derive(Debug)]
struct HandoffCoord {
    epoch: u64,
    record: NsRecord,
    publish_to: Vec<NodeId>,
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
        /// marker — admins are then dropped until the agent re-routes).
        forward_to: Option<NodeId>,
        /// Whether the handoff primary acknowledged our `ShardReleased`.
        acked: bool,
    },
    /// Target side of a handoff: transfers are being merged; the shard
    /// serves nothing until the primary activates it.
    Preparing {
        /// Sources whose transfer has been applied (dedupes resends).
        received: BTreeSet<NodeId>,
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
}

/// How an `(app, user)` slot routes through this manager's shard table.
enum ShardRoute {
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

#[derive(Debug)]
struct ManagedApp {
    policy: Policy,
    acl: Acl,
    frozen: bool,
}

#[derive(Debug)]
struct PendingUpdate {
    op: AclOp,
    unacked: BTreeSet<NodeId>,
    applied_count: usize,
    /// Applied-copy count that makes the op stable, computed at origin
    /// time: `M − C + 1` over the owning shard's manager set.
    quorum: usize,
    stable: bool,
    /// Whether this manager's own copy is durable yet. The origin counts
    /// itself toward the update quorum only once the op is WAL-synced
    /// (without storage this is immediate).
    self_durable: bool,
    issuer: Option<(NodeId, ReqId)>,
    started: LocalTime,
}

/// An op applied in memory but awaiting a successful WAL sync barrier.
/// The promise attached to it (ack to a peer, or counting ourselves
/// toward the quorum) is withheld until the record is durable.
#[derive(Debug)]
struct UnloggedOp {
    op: AclOp,
    /// Peer to ack once durable; `None` for locally-originated or
    /// sync-merged ops.
    ack_to: Option<NodeId>,
}

#[derive(Debug)]
struct PendingRevoke {
    app: AppId,
    user: UserId,
    /// Host → local deadline after which the cached right has expired on
    /// its own and retransmission stops.
    targets: BTreeMap<NodeId, LocalTime>,
}

/// A manager node.
#[derive(Debug)]
pub struct ManagerNode {
    config: ManagerConfig,
    apps: BTreeMap<AppId, ManagedApp>,
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
    pending: BTreeMap<OpId, PendingUpdate>,
    pending_revokes: Vec<PendingRevoke>,
    grant_table: BTreeMap<(AppId, UserId), BTreeMap<NodeId, LocalTime>>,
    last_heard: BTreeMap<NodeId, LocalTime>,
    /// Consecutive retry rounds that actually resent something; indexes
    /// into the retry backoff schedule. Reset when a round finds nothing
    /// to resend or fresh work arrives.
    retry_round: u32,
    /// Consecutive recovery sync requests without a response.
    sync_round: u32,
    recovering: bool,
    /// Serving from locally-replayed durable state, with a delta peer
    /// sync still in flight for freshness. Unlike `recovering`, queries
    /// ARE answered in this mode (local replay is sufficient for
    /// safety: everything this manager ever acked was fsynced first).
    delta_syncing: bool,
    /// Stable storage, if attached. `None` reproduces the paper's
    /// volatile managers (sync-only recovery).
    storage: Option<Box<dyn Storage>>,
    /// Ops applied in memory whose WAL sync barrier has not yet
    /// succeeded; their acks/quorum counts are withheld.
    unlogged: BTreeMap<OpId, UnloggedOp>,
    /// WAL appends since the last snapshot (drives the cadence).
    wal_since_snapshot: u64,
    /// This manager's end of the authenticated host channel: the key it
    /// shares with each host written to so far. `None` sends replies
    /// and notices untagged.
    channel: Option<ChannelEnd>,
    /// The shards this manager owns, is acquiring or has released.
    shards: BTreeMap<ShardId, ShardState>,
    /// Handoff coordination per shard (primary source only).
    coord: BTreeMap<ShardId, HandoffCoord>,
    /// Durable record of released shards (mirrors the WAL markers; the
    /// snapshot carries it so compaction cannot forget a release).
    released: BTreeMap<ShardId, u64>,
    /// Whether the handoff retransmission timer is armed.
    handoff_timer_armed: bool,
    /// Planted-bug hook: the target drops the last op of every incoming
    /// transfer, so its install digest diverges from the source's
    /// handoff digest — the lost-handoff bug I9 must catch.
    drop_handoff_tail: bool,
    stats: ManagerStats,
}

impl ManagerNode {
    /// Creates a manager from its configuration.
    pub fn new(config: ManagerConfig) -> Self {
        let apps = config
            .apps
            .iter()
            .map(|a| {
                (a.app, ManagedApp { policy: a.policy.clone(), acl: a.initial_acl.clone(), frozen: false })
            })
            .collect();
        let shards = configured_shards(&config);
        ManagerNode {
            config,
            apps,
            applied: BTreeSet::new(),
            lamport: 0,
            lww: BTreeMap::new(),
            origin_stamps: BTreeMap::new(),
            pending: BTreeMap::new(),
            pending_revokes: Vec::new(),
            grant_table: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            retry_round: 0,
            sync_round: 0,
            recovering: false,
            delta_syncing: false,
            storage: None,
            unlogged: BTreeMap::new(),
            wal_since_snapshot: 0,
            channel: None,
            shards,
            coord: BTreeMap::new(),
            released: BTreeMap::new(),
            handoff_timer_armed: false,
            drop_handoff_tail: false,
            stats: ManagerStats::default(),
        }
    }

    /// Planted-bug hook (see [`crate::campaign::InjectedBug`]): drop the
    /// tail op of every incoming shard transfer, silently losing an
    /// update across the handoff. I9 must catch the digest divergence.
    pub fn set_drop_handoff_tail(&mut self, on: bool) {
        self.drop_handoff_tail = on;
    }

    /// Whether this manager currently serves `shard` (phase `Active`).
    pub fn shard_active(&self, shard: ShardId) -> bool {
        self.shards.get(&shard).is_some_and(|s| matches!(s.phase, ShardPhase::Active))
    }

    /// Whether this manager has durably released `shard`.
    pub fn shard_released(&self, shard: ShardId) -> bool {
        self.released.contains_key(&shard)
            || self
                .shards
                .get(&shard)
                .is_some_and(|s| matches!(s.phase, ShardPhase::Released { .. }))
    }

    /// Attaches stable storage. Install before the node starts; if the
    /// storage already holds state (a process restart), `on_start`
    /// replays it before serving.
    pub fn set_storage(&mut self, storage: Box<dyn Storage>) {
        self.storage = Some(storage);
    }

    /// The attached storage, for fault-model configuration and stats.
    pub fn storage_mut(&mut self) -> Option<&mut (dyn Storage + '_)> {
        self.storage.as_deref_mut().map(|s| s as _)
    }

    /// Counters of the attached storage, if any.
    pub fn storage_stats(&self) -> Option<StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
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
        self.stats
    }

    /// Whether the manager currently holds `right` for `user` on `app`.
    pub fn acl_has(&self, app: AppId, user: UserId, right: Right) -> bool {
        self.apps.get(&app).map(|a| a.acl.has(user, right)).unwrap_or(false)
    }

    /// Whether the app is currently frozen by the §3.3 strategy.
    pub fn is_frozen(&self, app: AppId) -> bool {
        self.apps.get(&app).map(|a| a.frozen).unwrap_or(false)
    }

    /// Whether the manager is recovering and refusing queries.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Number of operations awaiting full dissemination.
    pub fn pending_updates(&self) -> usize {
        self.pending.len()
    }

    /// Number of hosts currently recorded as caching `user`'s right.
    pub fn granted_hosts(&self, app: AppId, user: UserId) -> usize {
        self.grant_table.get(&(app, user)).map(|m| m.len()).unwrap_or(0)
    }

    fn note_peer(&mut self, from: NodeId, now: LocalTime) {
        if self.config.peers.contains(&from) {
            self.last_heard.insert(from, now);
        }
    }

    fn heartbeat_period(&self) -> SimDuration {
        let mut period = self.config.heartbeat_interval;
        for app in self.apps.values() {
            if let Some(f) = app.policy.freeze() {
                period = period.min(f.heartbeat_interval);
            }
        }
        period
    }

    fn arm_periodic(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        ctx.set_timer(self.heartbeat_period(), TAG_HEARTBEAT);
        self.arm_retry(ctx);
        ctx.set_timer(self.config.grant_sweep_interval, TAG_GSWEEP);
    }

    fn arm_retry(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let delay = self.config.retry_backoff().delay(self.retry_round, ctx.rng());
        ctx.set_timer(delay, TAG_RETRY);
    }

    /// Applies an operation under last-writer-wins ordering: the effect
    /// lands only if `id` is newer than the slot's current writer, so
    /// every manager converges to the same ACL regardless of delivery
    /// order. Returns whether the effect was applied.
    fn apply_op(&mut self, op: &AclOp, id: OpId) -> bool {
        self.lamport = self.lamport.max(id.seq);
        let slot = (op.app(), op.user(), op.right());
        if let Some(&(current, _)) = self.lww.get(&slot) {
            if id <= current {
                return false; // an equal-or-newer write already landed
            }
        }
        self.lww.insert(slot, (id, *op));
        if let Some(state) = self.apps.get_mut(&op.app()) {
            match *op {
                AclOp::Add { user, right, .. } => state.acl.add(user, right),
                AclOp::Revoke { user, right, .. } => state.acl.revoke(user, right),
            }
        }
        true
    }

    /// Marks `id` as applied and advances its origin's high-water mark.
    fn record_applied(&mut self, id: OpId) {
        let stamp = self.origin_stamps.entry(id.origin).or_insert(0);
        *stamp = (*stamp).max(id.seq);
        self.applied.insert(id);
    }

    /// Makes an applied op durable before honouring the promise attached
    /// to it (acking a peer, or counting ourselves toward the quorum).
    /// Without storage the promise is honoured immediately.
    fn log_op(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        id: OpId,
        op: AclOp,
        ack_to: Option<NodeId>,
    ) {
        if self.storage.is_none() {
            self.op_committed(ctx, id, op, ack_to);
            return;
        }
        let record = encode_record(id, &op);
        if let Some(storage) = self.storage.as_mut() {
            if storage.append(&record).is_err() {
                ctx.metric_incr(M::MGR_WAL_APPEND_FAILED);
            }
        }
        self.stats.wal_appends += 1;
        ctx.metric_incr(M::MGR_WAL_APPENDS);
        self.wal_since_snapshot += 1;
        self.unlogged.insert(id, UnloggedOp { op, ack_to });
        self.flush_wal(ctx);
    }

    /// Attempts the WAL sync barrier. On success every op waiting on it
    /// commits (acks go out, quorum counts advance); on failure all of
    /// them stay withheld — peers' persistent retransmission and the
    /// retry tick drive further attempts.
    fn flush_wal(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.unlogged.is_empty() {
            return;
        }
        let Some(storage) = self.storage.as_mut() else { return };
        if storage.sync().is_err() {
            ctx.metric_incr(M::MGR_WAL_SYNC_FAILED);
            return;
        }
        let committed: Vec<(OpId, UnloggedOp)> =
            std::mem::take(&mut self.unlogged).into_iter().collect();
        for (id, unlogged) in committed {
            self.op_committed(ctx, id, unlogged.op, unlogged.ack_to);
        }
        self.maybe_snapshot(ctx);
    }

    /// The op is durable (or durability is not modelled): honour its
    /// promise and note the commitment for the durability oracle.
    fn op_committed(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        id: OpId,
        op: AclOp,
        ack_to: Option<NodeId>,
    ) {
        if self.storage.is_some() {
            // Everything acked from here on must survive any crash; the
            // oracle's durability invariant checks recoveries against
            // these notes.
            ctx.trace_record(|| AuditEvent::Durable {
                app: op.app(),
                user: op.user(),
                right: op.right(),
                revoke: op.is_revoke(),
                id,
            });
        }
        match ack_to {
            Some(peer) => ctx.send(peer, ProtoMsg::UpdateAck { id }),
            None => self.note_self_applied(ctx, id),
        }
    }

    /// Counts this manager's own (now durable) copy toward the quorum of
    /// an op it originated. No-op for ops without a pending record.
    fn note_self_applied(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: OpId) {
        {
            let Some(pending) = self.pending.get_mut(&id) else { return };
            if pending.self_durable {
                return;
            }
            pending.self_durable = true;
            pending.applied_count += 1;
        }
        self.finish_quorum_check(ctx, id);
    }

    /// Re-evaluates stability for a pending op after its applied count
    /// changed, reporting `Stable` to the issuer at the quorum and
    /// retiring the record once fully acked and locally durable.
    fn finish_quorum_check(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: OpId) {
        let Some(pending) = self.pending.get_mut(&id) else { return };
        let update_quorum = pending.quorum;
        if !pending.stable && pending.applied_count >= update_quorum {
            pending.stable = true;
            self.stats.quorum_reached += 1;
            ctx.metric_incr(M::MGR_QUORUM_REACHED);
            let elapsed = ctx.local_now().since(pending.started);
            ctx.metric_observe(M::MGR_TIME_TO_QUORUM_S, elapsed.as_secs_f64());
            let (app, user) = (pending.op.app(), pending.op.user());
            ctx.trace_record(|| {
                if pending.op.is_revoke() {
                    AuditEvent::RevokeStable { app, user, id }
                } else {
                    AuditEvent::GrantStable { app, user, id }
                }
            });
            if let Some((issuer, req)) = pending.issuer {
                ctx.send(issuer, ProtoMsg::AdminReply { req, status: AdminStatus::Stable });
            }
        }
        let done = pending.unacked.is_empty() && pending.self_durable;
        if done {
            self.pending.remove(&id);
        }
    }

    /// Writes a snapshot and truncates the WAL once the cadence is due.
    fn maybe_snapshot(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.config.snapshot_every == 0
            || self.wal_since_snapshot < self.config.snapshot_every
        {
            return;
        }
        let snapshot = encode_snapshot(&self.snapshot_state());
        let Some(storage) = self.storage.as_mut() else { return };
        if storage.write_snapshot(&snapshot).is_ok() {
            self.wal_since_snapshot = 0;
            self.stats.snapshot_writes += 1;
            ctx.metric_incr(M::MGR_SNAPSHOT_WRITES);
        }
    }

    /// The durable projection of the manager's state.
    fn snapshot_state(&self) -> SnapshotState {
        SnapshotState {
            lamport: self.lamport,
            applied: self.applied.iter().copied().collect(),
            lww: self
                .lww
                .iter()
                .map(|(&(app, user, right), &(id, op))| (app, user, right, id, op))
                .collect(),
            released: self.released.iter().map(|(&s, &e)| (s, e)).collect(),
        }
    }

    /// Rebuilds state from what storage yielded: bootstrap ACLs, then the
    /// snapshot, then the surviving WAL records. Recovery is a pure
    /// function of the durable state — exactly what a process restart
    /// would see — so any in-memory remnants are discarded first.
    fn restore_from(&mut self, ctx: &mut Context<'_, ProtoMsg>, recovered: Recovered) {
        for spec in &self.config.apps {
            if let Some(state) = self.apps.get_mut(&spec.app) {
                state.acl = spec.initial_acl.clone();
                // The restart forgets the freeze; the event stream (all
                // the live oracle sees of a crash) has to say so.
                if std::mem::take(&mut state.frozen) {
                    ctx.trace_record(|| AuditEvent::Thaw { app: spec.app });
                }
            }
        }
        self.applied.clear();
        self.lww.clear();
        self.origin_stamps.clear();
        self.unlogged.clear();
        // Shard ownership is re-derived from config plus the durable
        // release markers; acquired-but-volatile ownership is lost (the
        // shard degrades to unavailability, never to unsafe serving).
        self.reset_shards_to_config();
        let mut floor = 0u64;
        if let Some(bytes) = recovered.snapshot.as_deref() {
            if let Some(snap) = decode_snapshot(bytes) {
                floor = floor.max(snap.lamport);
                for id in snap.applied {
                    self.record_applied(id);
                }
                for (_, _, _, id, op) in snap.lww {
                    self.apply_op(&op, id);
                }
                for (shard, epoch) in snap.released {
                    self.note_released(shard, epoch);
                }
            }
        }
        let mut replayed = 0u64;
        for record in &recovered.records {
            match decode_wal_record(record) {
                Some(WalRecord::Op(id, op)) => {
                    self.record_applied(id);
                    self.apply_op(&op, id);
                    replayed += 1;
                }
                Some(WalRecord::ShardRelease { shard, epoch }) => {
                    self.note_released(shard, epoch);
                }
                None => continue,
            }
        }
        // `apply_op` maxes the Lamport clock along the way; the margin
        // guards against OpId reuse when the in-memory counter did not
        // survive (a real process restart).
        self.lamport = self.lamport.max(floor) + LAMPORT_RECOVERY_MARGIN;
        self.wal_since_snapshot = recovered.records.len() as u64;
        self.stats.recovered_from_disk += 1;
        ctx.metric_incr(M::MGR_RECOVERED_FROM_DISK);
        ctx.trace_record(|| {
            AuditEvent::Recovered(Recovery::Disk {
                replayed,
                torn: recovered.torn_records,
                slots: self
                    .lww
                    .iter()
                    .map(|(&(app, user, right), &(id, _))| (app, user, right, id))
                    .collect(),
            })
        });
    }

    /// Replays local stable storage if there is any; returns whether the
    /// manager now holds a durably-recovered state.
    fn recover_from_storage(&mut self, ctx: &mut Context<'_, ProtoMsg>) -> bool {
        let Some(storage) = self.storage.as_mut() else { return false };
        let recovered = storage.recover();
        self.restore_from(ctx, recovered);
        true
    }

    /// Rebuilds the shard table from the deployment config: every
    /// configured shard active, no coordination state. Durable release
    /// markers are re-applied on top by the caller.
    fn reset_shards_to_config(&mut self) {
        self.shards = configured_shards(&self.config);
        self.coord.clear();
        self.released.clear();
    }

    /// Records a durably-released shard (from a WAL marker or snapshot):
    /// the manager must stay silent for it. The new owner set is not
    /// part of the marker, so admin forwarding is unavailable after a
    /// recovery — admins for the shard are dropped and the agent's
    /// resends reach the new owners through the republished map.
    fn note_released(&mut self, shard: ShardId, epoch: u64) {
        self.released.insert(shard, epoch);
        if let Some(st) = self.shards.get_mut(&shard) {
            st.phase = ShardPhase::Released { epoch, forward_to: None, acked: false };
        }
    }

    /// Routes `(app, user)` to the covering shard's current phase.
    fn shard_route(&self, app: AppId, user: UserId) -> ShardRoute {
        let bucket = user_bucket(user);
        for (&sid, st) in &self.shards {
            if st.covers(app, bucket) {
                return match &st.phase {
                    ShardPhase::Active => ShardRoute::Active(sid),
                    ShardPhase::Frozen(_) => ShardRoute::Frozen(sid),
                    ShardPhase::Released { forward_to, .. } => {
                        ShardRoute::Moved { forward_to: *forward_to }
                    }
                    ShardPhase::Preparing { .. } => ShardRoute::Preparing,
                };
            }
        }
        ShardRoute::None
    }

    /// The update fan-out set and quorum for an op on `shard`: the
    /// shard's co-owners and `M − C + 1` over its manager set, so quorum
    /// traffic per operation is independent of the deployment and of
    /// other tenants.
    fn update_scope(&self, shard: ShardId, policy: &Policy) -> (Vec<NodeId>, usize) {
        let peers = self.shards.get(&shard).map(|st| st.peers.clone()).unwrap_or_default();
        let owners = peers.len() + 1;
        let c = policy.check_quorum();
        // `owners − C + 1` without the panic: an undersized shard cannot
        // satisfy any check quorum (hosts fail closed), so the exact
        // value is moot — use all owners.
        let quorum = if owners >= c { owners - c + 1 } else { owners };
        (peers, quorum)
    }

    /// Arms the handoff retransmission timer (fixed cadence, no RNG, so
    /// handoffs never perturb the retry jitter stream).
    fn arm_handoff(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if !self.handoff_timer_armed {
            self.handoff_timer_armed = true;
            ctx.set_timer(self.config.retry_interval, TAG_HANDOFF);
        }
    }

    /// Durably appends and fsyncs the shard-release marker. Without
    /// storage the release is immediate (and survives nothing — sharded
    /// deployments are expected to attach storage).
    fn persist_release(&mut self, ctx: &mut Context<'_, ProtoMsg>, shard: ShardId, epoch: u64) -> bool {
        if self.storage.is_none() {
            return true;
        }
        let append_ok = self
            .storage
            .as_mut()
            .map(|s| s.append(&encode_release(shard, epoch)).is_ok())
            .unwrap_or(true);
        if !append_ok {
            ctx.metric_incr(M::MGR_WAL_APPEND_FAILED);
            return false;
        }
        self.stats.wal_appends += 1;
        ctx.metric_incr(M::MGR_WAL_APPENDS);
        self.wal_since_snapshot += 1;
        let sync_ok = self.storage.as_mut().map(|s| s.sync().is_ok()).unwrap_or(true);
        if !sync_ok {
            ctx.metric_incr(M::MGR_WAL_SYNC_FAILED);
            return false;
        }
        // The barrier also made any ops waiting on it durable.
        self.flush_wal(ctx);
        true
    }

    /// Starts or joins a shard handoff. The signed next-version record
    /// is the capability: sources freeze and push their state to the
    /// targets, targets start preparing.
    #[allow(clippy::too_many_arguments)]
    fn on_shard_handoff(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
        record: NsRecord,
        targets: Vec<NodeId>,
        publish_to: Vec<NodeId>,
    ) {
        if from != NodeId::ENV && !self.config.peers.contains(&from) {
            ctx.metric_incr(M::MGR_MSG_FROM_NON_PEER);
            return;
        }
        if let Some(trust) = &self.config.ns_trust {
            if !record.verify(trust, crate::scenario::NS_WRITER) {
                ctx.metric_incr(M::MGR_HANDOFF_BAD_RECORD);
                return;
            }
        }
        let me = ctx.id();
        if targets.contains(&me) {
            // Target role: note the incoming shard and wait for the
            // sources' transfers.
            let Some(entry) = record.shards.iter().find(|e| e.shard == shard).cloned() else {
                ctx.metric_incr(M::MGR_HANDOFF_BAD_RECORD);
                return;
            };
            if self.shards.get(&shard).is_some_and(|st| st.epoch >= epoch)
                || self.released.contains_key(&shard)
            {
                return; // duplicate kickoff
            }
            self.shards.insert(
                shard,
                ShardState {
                    app: record.app,
                    lo: entry.lo,
                    hi: entry.hi,
                    peers: entry.managers.iter().copied().filter(|&m| m != me).collect(),
                    epoch,
                    phase: ShardPhase::Preparing { received: BTreeSet::new() },
                },
            );
            ctx.metric_incr(M::MGR_HANDOFF_TARGET_STARTED);
            self.arm_handoff(ctx);
            return;
        }
        // Source role: only a currently-active owner freezes.
        let (app, lo, hi, peers) = match self.shards.get(&shard) {
            Some(st) if matches!(st.phase, ShardPhase::Active) && epoch > st.epoch => {
                (st.app, st.lo, st.hi, st.peers.clone())
            }
            _ => return,
        };
        let ops: Vec<(OpId, AclOp)> = self
            .lww
            .iter()
            .filter(|&(&(a, u, _), _)| {
                a == app && {
                    let b = user_bucket(u);
                    b >= lo && b <= hi
                }
            })
            .map(|(_, &(id, op))| (id, op))
            .collect();
        let digest = transfer_digest(&ops);
        // The I9 source-side note: what this source claims to have
        // handed over. The target's install note must match it.
        ctx.trace_record(|| {
            AuditEvent::ShardHandoff(ShardOps { shard, epoch, src: me, digest, count: ops.len() })
        });
        ctx.metric_incr(M::MGR_HANDOFF_SOURCE_STARTED);
        for t in &targets {
            ctx.send(
                *t,
                ProtoMsg::ShardTransfer { shard, epoch, app, ops: ops.clone(), digest },
            );
        }
        let primary = peers.iter().copied().chain([me]).min().unwrap_or(me);
        if primary == me {
            self.coord.insert(
                shard,
                HandoffCoord {
                    epoch,
                    record: record.clone(),
                    publish_to: publish_to.clone(),
                    awaiting_release: peers.iter().copied().chain([me]).collect(),
                    awaiting_activate: targets.iter().copied().collect(),
                },
            );
        }
        if let Some(st) = self.shards.get_mut(&shard) {
            st.phase = ShardPhase::Frozen(HandoffSource {
                epoch,
                record,
                targets: targets.clone(),
                publish_to,
                unacked_transfer: targets.into_iter().collect(),
                ops,
                digest,
            });
        }
        self.arm_handoff(ctx);
    }

    /// Target side: merge a source's transfer, log it, and ack.
    fn on_shard_transfer(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
        app: AppId,
        mut ops: Vec<(OpId, AclOp)>,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        let fresh = {
            let Some(st) = self.shards.get_mut(&shard) else { return };
            if st.epoch != epoch || st.app != app {
                return;
            }
            match &mut st.phase {
                ShardPhase::Preparing { received } => received.insert(from),
                // A late resend after activation: just re-ack.
                ShardPhase::Active => false,
                _ => return,
            }
        };
        if fresh {
            if self.drop_handoff_tail {
                ops.pop();
            }
            let digest = transfer_digest(&ops);
            // The I9 target-side note: what was actually installed.
            ctx.trace_record(|| {
                AuditEvent::ShardInstall(ShardOps { shard, epoch, src: from, digest, count: ops.len() })
            });
            ctx.metric_incr(M::MGR_SHARD_INSTALLS);
            for (id, op) in ops {
                if !self.applied.contains(&id) {
                    self.record_applied(id);
                    self.apply_op(&op, id);
                    self.log_op(ctx, id, op, None);
                }
            }
        }
        ctx.send(from, ProtoMsg::ShardTransferAck { shard, epoch });
    }

    /// Source side: a target acked the transfer; release once all have.
    fn on_shard_transfer_ack(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        let ready = {
            let Some(st) = self.shards.get_mut(&shard) else { return };
            let ShardPhase::Frozen(hs) = &mut st.phase else { return };
            if hs.epoch != epoch {
                return;
            }
            hs.unacked_transfer.remove(&from);
            hs.unacked_transfer.is_empty()
        };
        if ready {
            self.maybe_release_source(ctx, shard);
        }
    }

    /// Every target holds this source's state: durably renounce the
    /// shard and report to the handoff primary.
    fn maybe_release_source(&mut self, ctx: &mut Context<'_, ProtoMsg>, shard: ShardId) {
        let me = ctx.id();
        let (epoch, forward_to, peers) = {
            let Some(st) = self.shards.get(&shard) else { return };
            let ShardPhase::Frozen(hs) = &st.phase else { return };
            if !hs.unacked_transfer.is_empty() {
                return;
            }
            (hs.epoch, hs.targets.first().copied(), st.peers.clone())
        };
        if !self.persist_release(ctx, shard, epoch) {
            return; // the handoff tick retries the fsync
        }
        self.released.insert(shard, epoch);
        self.stats.shards_released += 1;
        ctx.metric_incr(M::MGR_SHARD_RELEASED);
        // Pending updates for the shard can never complete here; their
        // effects ride inside the transfer payload.
        self.cancel_pending_for_shard(shard);
        let primary = peers.iter().copied().chain([me]).min().unwrap_or(me);
        let acked = primary == me;
        if let Some(st) = self.shards.get_mut(&shard) {
            st.phase = ShardPhase::Released { epoch, forward_to, acked };
        }
        if acked {
            if let Some(c) = self.coord.get_mut(&shard) {
                c.awaiting_release.remove(&me);
            }
            self.maybe_activate(ctx, shard);
        } else {
            ctx.send(primary, ProtoMsg::ShardReleased { shard, epoch });
        }
        self.arm_handoff(ctx);
    }

    /// Drops pending updates whose slot lives in the released shard.
    fn cancel_pending_for_shard(&mut self, shard: ShardId) {
        let Some(st) = self.shards.get(&shard) else { return };
        let (app, lo, hi) = (st.app, st.lo, st.hi);
        self.pending.retain(|_, p| {
            let b = user_bucket(p.op.user());
            !(p.op.app() == app && b >= lo && b <= hi)
        });
    }

    /// Primary: a source reports its durable release.
    fn on_shard_released(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        let Some(c) = self.coord.get_mut(&shard) else { return };
        if c.epoch != epoch {
            return;
        }
        c.awaiting_release.remove(&from);
        ctx.send(from, ProtoMsg::ShardReleasedAck { shard, epoch });
        self.maybe_activate(ctx, shard);
    }

    /// Source: the primary saw our release; stop retransmitting it.
    fn on_shard_released_ack(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        if let Some(st) = self.shards.get_mut(&shard) {
            if let ShardPhase::Released { epoch: e, acked, .. } = &mut st.phase {
                if *e == epoch {
                    *acked = true;
                }
            }
        }
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
        let epoch = c.epoch;
        let record = c.record.clone();
        let targets: Vec<NodeId> = c.awaiting_activate.iter().copied().collect();
        let publish_to = c.publish_to.clone();
        for t in targets {
            ctx.send(t, ProtoMsg::ShardActivate { shard, epoch });
        }
        for r in publish_to {
            ctx.send(r, ProtoMsg::NsPublish { record: Box::new(record.clone()) });
        }
    }

    /// Target: every source is silent — start serving the shard.
    fn on_shard_activate(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        let Some(st) = self.shards.get_mut(&shard) else { return };
        if st.epoch != epoch {
            return;
        }
        match st.phase {
            ShardPhase::Preparing { .. } => {
                st.phase = ShardPhase::Active;
                self.stats.shards_acquired += 1;
                ctx.metric_incr(M::MGR_SHARD_ACQUIRED);
                ctx.send(from, ProtoMsg::ShardActivateAck { shard, epoch });
            }
            ShardPhase::Active => ctx.send(from, ProtoMsg::ShardActivateAck { shard, epoch }),
            _ => {}
        }
    }

    /// Primary: a target confirmed activation.
    fn on_shard_activate_ack(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        shard: ShardId,
        epoch: u64,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        let done = {
            let Some(c) = self.coord.get_mut(&shard) else { return };
            if c.epoch != epoch {
                return;
            }
            c.awaiting_activate.remove(&from);
            c.awaiting_release.is_empty() && c.awaiting_activate.is_empty()
        };
        if done {
            self.coord.remove(&shard);
            ctx.metric_incr(M::MGR_HANDOFF_COMPLETE);
        }
    }

    /// Retransmission tick for all in-flight handoff roles.
    fn on_handoff_tick(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.handoff_timer_armed = false;
        let me = ctx.id();
        let mut busy = false;
        let mut release_ready: Vec<ShardId> = Vec::new();
        let shard_ids: Vec<ShardId> = self.shards.keys().copied().collect();
        for sid in &shard_ids {
            let Some(st) = self.shards.get(sid) else { continue };
            match &st.phase {
                ShardPhase::Frozen(hs) => {
                    busy = true;
                    // Re-seed participants a partition may have cut off
                    // from the kickoff, then push the transfer again.
                    let kickoff = ProtoMsg::ShardHandoff {
                        shard: *sid,
                        epoch: hs.epoch,
                        record: Box::new(hs.record.clone()),
                        targets: hs.targets.clone(),
                        publish_to: hs.publish_to.clone(),
                    };
                    for p in st.peers.iter().chain(hs.targets.iter()) {
                        ctx.send(*p, kickoff.clone());
                    }
                    for t in &hs.unacked_transfer {
                        ctx.metric_incr(M::MGR_SHARD_TRANSFER_RESENT);
                        ctx.send(
                            *t,
                            ProtoMsg::ShardTransfer {
                                shard: *sid,
                                epoch: hs.epoch,
                                app: st.app,
                                ops: hs.ops.clone(),
                                digest: hs.digest,
                            },
                        );
                    }
                    if hs.unacked_transfer.is_empty() {
                        // A failed release fsync left us frozen: retry.
                        release_ready.push(*sid);
                    }
                }
                ShardPhase::Released { epoch, acked: false, .. } => {
                    let primary = st.peers.iter().copied().chain([me]).min().unwrap_or(me);
                    if primary != me {
                        busy = true;
                        ctx.send(primary, ProtoMsg::ShardReleased { shard: *sid, epoch: *epoch });
                    }
                }
                _ => {}
            }
        }
        for sid in release_ready {
            self.maybe_release_source(ctx, sid);
        }
        let coord_ids: Vec<ShardId> = self.coord.keys().copied().collect();
        for sid in coord_ids {
            busy = true;
            self.maybe_activate(ctx, sid);
        }
        if busy {
            self.arm_handoff(ctx);
        }
    }

    /// Starts forwarding a revocation to every host recorded as caching
    /// the user's right, and keeps retransmitting until each cached entry
    /// would have expired on its own.
    fn forward_revocation(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId, user: UserId) {
        let Some(targets) = self.grant_table.remove(&(app, user)) else { return };
        if targets.is_empty() {
            return;
        }
        for host in targets.keys() {
            ctx.metric_incr(M::MGR_REVOKE_NOTICES);
            let mac =
                self.channel.as_mut().map(|c| c.pair(ctx.id(), *host).tag_revoke_notice(app, user));
            ctx.send(*host, ProtoMsg::RevokeNotice { app, user, mac });
        }
        self.pending_revokes.push(PendingRevoke { app, user, targets });
        self.retry_round = 0;
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
            ctx.send(
                from,
                ProtoMsg::AdminReply { req, status: AdminStatus::Rejected { reason } },
            );
        };
        if self.recovering {
            reject(ctx, RejectReason::Recovering);
            return;
        }
        let served = match self.shard_route(op.app(), op.user()) {
            ShardRoute::Active(sid) => self.apps.get(&op.app()).map(|state| (sid, state)),
            ShardRoute::Moved { forward_to: Some(owner) } => {
                // Relay to the new owner; its reply matches the agent's
                // request id, so it answers `from` directly.
                ctx.metric_incr(M::MGR_ADMIN_FORWARDED);
                ctx.send(owner, ProtoMsg::AdminForward { origin: from, op, req, issuer, signature });
                return;
            }
            ShardRoute::Moved { forward_to: None } | ShardRoute::Frozen(_) | ShardRoute::Preparing => {
                // Rejection is terminal at the agent; dropping lets its
                // resend land once the new map is in effect.
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
        if let Some(registry) = &self.config.registry {
            let ok = match signature {
                Some(sig) => match registry.public_key(issuer.into()) {
                    Some(pk) => rsa::verify(&pk, &admin_signing_bytes(issuer, &op), &sig),
                    None => false,
                },
                None => false,
            };
            if !ok {
                reject(ctx, RejectReason::BadSignature);
                return;
            }
        }
        if self.config.enforce_manage_right && !state.acl.has(issuer, Right::Manage) {
            reject(ctx, RejectReason::NotAuthorized);
            return;
        }
        let (fan_peers, quorum) = self.update_scope(sid, &state.policy);

        // Apply locally and start dissemination.
        self.stats.ops_originated += 1;
        ctx.metric_incr(M::MGR_OPS_ORIGINATED);
        self.lamport += 1;
        let id = OpId { origin: ctx.id(), seq: self.lamport };
        self.apply_op(&op, id);
        self.record_applied(id);
        // Origin apply note: the oracle reconstructs the ACL's
        // last-writer-wins order from these (seq, origin) stamps, which
        // survives admin resends reordering against concurrent ops.
        ctx.trace_record(|| AuditEvent::Apply {
            revoke: op.is_revoke(),
            app: op.app(),
            user: op.user(),
            id,
        });
        ctx.send(from, ProtoMsg::AdminReply { req, status: AdminStatus::Applied });

        // The origin counts toward the quorum only once its own copy is
        // durable (`log_op` → `note_self_applied`); without storage that
        // happens before this call returns.
        self.pending.insert(
            id,
            PendingUpdate {
                op,
                unacked: fan_peers.iter().copied().collect(),
                applied_count: 0,
                stable: false,
                self_durable: false,
                quorum,
                issuer: Some((from, req)),
                started: ctx.local_now(),
            },
        );
        for peer in &fan_peers {
            ctx.metric_incr(M::MGR_UPDATES_SENT);
            ctx.send(*peer, ProtoMsg::Update { id, op });
        }
        self.log_op(ctx, id, op, None);
        if op.is_revoke() {
            self.forward_revocation(ctx, op.app(), op.user());
        }
        // Fresh work re-probes at the base cadence even if earlier
        // rounds had backed off.
        self.retry_round = 0;
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

    fn on_update(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, id: OpId, op: AclOp) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        self.note_peer(from, ctx.local_now());
        if self.recovering {
            // Do not apply or ack while our own state is stale; the
            // origin's persistent retransmission will retry after sync.
            ctx.metric_incr(M::MGR_UPDATE_DEFERRED_RECOVERING);
            return;
        }
        if !self.applied.contains(&id) {
            self.record_applied(id);
            self.apply_op(&op, id);
            self.stats.peer_updates_applied += 1;
            ctx.metric_incr(M::MGR_PEER_UPDATES_APPLIED);
            if op.is_revoke() {
                self.forward_revocation(ctx, op.app(), op.user());
            }
            // Log-before-ack: the ack is a quorum promise, so it is
            // withheld until the record survives a sync barrier.
            self.log_op(ctx, id, op, Some(from));
        } else if self.unlogged.contains_key(&id) {
            // A retransmission of an op still awaiting its barrier:
            // retry the barrier rather than acking prematurely.
            self.flush_wal(ctx);
        } else {
            ctx.send(from, ProtoMsg::UpdateAck { id });
        }
    }

    fn on_update_ack(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, id: OpId) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        self.note_peer(from, ctx.local_now());
        {
            let Some(pending) = self.pending.get_mut(&id) else { return };
            if !pending.unacked.remove(&from) {
                return; // duplicate ack
            }
            pending.applied_count += 1;
        }
        self.finish_quorum_check(ctx, id);
    }

    fn on_query(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        app: AppId,
        user: UserId,
        req: ReqId,
    ) {
        self.stats.queries += 1;
        ctx.metric_incr(M::MGR_QUERIES);
        if self.recovering {
            // §3.4: do not answer from stale state — but tell the host,
            // so it can retry another manager instead of timing out.
            self.stats.recovering_drops += 1;
            ctx.metric_incr(M::MGR_RECOVERING_DROPS);
            self.send_query_reply(
                ctx,
                from,
                req,
                app,
                user,
                QueryVerdict::Unavailable { reason: RejectReason::Recovering },
            );
            return;
        }
        let unavailable = |reason| QueryVerdict::Unavailable { reason };
        let served = match self.shard_route(app, user) {
            ShardRoute::Active(sid) | ShardRoute::Frozen(sid) => {
                self.apps.get(&app).map(|state| (sid, state))
            }
            ShardRoute::Moved { .. } => {
                ctx.metric_incr(M::MGR_SHARD_MOVED);
                let verdict = unavailable(RejectReason::ShardMoved);
                return self.send_query_reply(ctx, from, req, app, user, verdict);
            }
            ShardRoute::Preparing => {
                let verdict = unavailable(RejectReason::Recovering);
                return self.send_query_reply(ctx, from, req, app, user, verdict);
            }
            ShardRoute::None => None,
        };
        let Some((sid, state)) = served else {
            ctx.metric_incr(M::MGR_UNKNOWN_SHARD);
            let verdict = unavailable(RejectReason::UnknownShard);
            return self.send_query_reply(ctx, from, req, app, user, verdict);
        };
        ctx.metric_incr(sid.metric(&SHARD_QUERY_METRICS));
        if state.frozen {
            // §3.3: "no responses are sent to application hosts until all
            // managers are accessible again".
            self.stats.frozen_drops += 1;
            ctx.metric_incr(M::MGR_FROZEN_DROPS);
            return;
        }
        if state.acl.has(user, Right::Use) {
            let te = state.policy.expiry_budget();
            let verdict = QueryVerdict::Grant { te };
            self.stats.grants += 1;
            ctx.metric_incr(M::MGR_GRANTS);
            ctx.trace_record(|| AuditEvent::Grant { app, user, te });
            // Remember which host caches this right, and until when the
            // entry can matter. The manager measures the bound on its own
            // clock; Te is an upper bound on the entry's real lifetime
            // and manager clocks run no faster than real time, so
            // `local_now + Te` is safe.
            let deadline = ctx.local_now().plus(state.policy.revocation_bound());
            self.grant_table.entry((app, user)).or_default().insert(from, deadline);
            self.send_query_reply(ctx, from, req, app, user, verdict);
        } else {
            self.stats.denies += 1;
            ctx.metric_incr(M::MGR_DENIES);
            self.send_query_reply(ctx, from, req, app, user, QueryVerdict::Deny);
        }
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
        let mac = self
            .channel
            .as_mut()
            .map(|c| c.pair(ctx.id(), host).tag_query_reply(req, app, user, &verdict));
        ctx.send(host, ProtoMsg::QueryReply { req, app, user, verdict, mac });
    }

    fn on_heartbeat_tick(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        for peer in &self.config.peers {
            ctx.send(*peer, ProtoMsg::Heartbeat);
        }
        // Evaluate the freeze predicate per app.
        let now = ctx.local_now();
        for (app, state) in self.apps.iter_mut() {
            let Some(freeze) = state.policy.freeze() else { continue };
            // Scale Ti by the rate bound: a clock running at rate >= b
            // measuring b*Ti local units has waited at most Ti real time.
            let ti_local = freeze.ti.mul_f64(state.policy.clock_rate_bound());
            let was_frozen = state.frozen;
            state.frozen = self.config.peers.iter().any(|p| {
                match self.last_heard.get(p) {
                    Some(&heard) => now.since(heard) > ti_local,
                    None => true,
                }
            });
            if state.frozen && !was_frozen {
                ctx.metric_incr(M::MGR_FREEZE_TRANSITIONS);
                ctx.trace_record(|| AuditEvent::Freeze { app: *app });
            } else if !state.frozen && was_frozen {
                ctx.trace_record(|| AuditEvent::Thaw { app: *app });
            }
        }
        ctx.set_timer(self.heartbeat_period(), TAG_HEARTBEAT);
    }

    fn on_retry_tick(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        // A failed sync barrier leaves committed-in-memory ops withheld;
        // every retry tick re-attempts the barrier first so acks are not
        // delayed past the next successful fsync.
        self.flush_wal(ctx);
        let mut resent = 0u64;
        for (id, pending) in &self.pending {
            for peer in &pending.unacked {
                ctx.metric_incr(M::MGR_UPDATES_RESENT);
                ctx.send(*peer, ProtoMsg::Update { id: *id, op: pending.op });
                resent += 1;
            }
        }
        // Revocation notices: resend until the cached right would have
        // expired anyway (§3.4).
        let now = ctx.local_now();
        for pr in &mut self.pending_revokes {
            pr.targets.retain(|_, deadline| now < *deadline);
            for host in pr.targets.keys() {
                ctx.metric_incr(M::MGR_REVOKE_NOTICES_RESENT);
                let mac = self
                    .channel
                    .as_mut()
                    .map(|c| c.pair(ctx.id(), *host).tag_revoke_notice(pr.app, pr.user));
                ctx.send(*host, ProtoMsg::RevokeNotice { app: pr.app, user: pr.user, mac });
                resent += 1;
            }
        }
        self.pending_revokes.retain(|pr| !pr.targets.is_empty());
        // Graceful degradation: rounds that keep finding unacknowledged
        // work (a partition, a dead peer) back off toward `retry_cap`;
        // an idle round snaps the cadence back to the base interval.
        self.retry_round = if resent == 0 { 0 } else { self.retry_round.saturating_add(1) };
        self.arm_retry(ctx);
    }

    fn on_grant_sweep_tick(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let now = ctx.local_now();
        self.grant_table.retain(|_, hosts| {
            hosts.retain(|_, deadline| now < *deadline);
            !hosts.is_empty()
        });
        ctx.set_timer(self.config.grant_sweep_interval, TAG_GSWEEP);
    }

    fn send_sync_request(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let stamps: Vec<(NodeId, u64)> =
            self.origin_stamps.iter().map(|(&n, &s)| (n, s)).collect();
        let slots: Vec<(AppId, UserId, Right, OpId)> = self
            .lww
            .iter()
            .map(|(&(app, user, right), &(id, _))| (app, user, right, id))
            .collect();
        for peer in &self.config.peers {
            ctx.send(
                *peer,
                ProtoMsg::SyncRequest { stamps: stamps.clone(), slots: slots.clone() },
            );
        }
        let delay = self.config.retry_backoff().delay(self.sync_round, ctx.rng());
        self.sync_round = self.sync_round.saturating_add(1);
        ctx.set_timer(delay, TAG_SYNC);
    }

    fn on_sync_request(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        stamps: Vec<(NodeId, u64)>,
        slots: Vec<(AppId, UserId, Right, OpId)>,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        self.note_peer(from, ctx.local_now());
        if self.recovering {
            return;
        }
        self.stats.syncs_served += 1;
        ctx.metric_incr(M::MGR_SYNCS_SERVED);
        let their_stamps: BTreeMap<NodeId, u64> = stamps.into_iter().collect();
        let their_slots: BTreeMap<(AppId, UserId, Right), OpId> = slots
            .into_iter()
            .map(|(app, user, right, id)| ((app, user, right), id))
            .collect();
        let mut ops = Vec::new();
        for (slot, &(id, op)) in &self.lww {
            let behind = match their_slots.get(slot) {
                Some(mark) => id > *mark,
                None => true,
            };
            if behind {
                // Slot marks — not stamps — are the source of truth: a
                // stamp can cover a seq whose op the requester never
                // durably held (gaps after an origin crash). Count the
                // resends the stamps alone would have skipped.
                if their_stamps.get(&id.origin).is_some_and(|&s| s >= id.seq) {
                    ctx.metric_incr(M::MGR_SYNC_GAP_RESENDS);
                }
                ops.push((id, op));
            }
        }
        let stamps: Vec<(NodeId, u64)> =
            self.origin_stamps.iter().map(|(&n, &s)| (n, s)).collect();
        ctx.send(from, ProtoMsg::SyncResponse { ops, stamps });
    }

    fn on_sync_response(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        ops: Vec<(OpId, AclOp)>,
        stamps: Vec<(NodeId, u64)>,
    ) {
        if !self.is_from_peer(ctx, from) {
            return;
        }
        self.note_peer(from, ctx.local_now());
        if !self.recovering && !self.delta_syncing {
            return;
        }
        let was_cold = self.recovering;
        if was_cold {
            // Sync-only recovery (no storage): whatever ACL survived in
            // memory is stale and untrusted. Reset to bootstrap so the
            // result is exactly bootstrap + every winner the peer knows.
            for spec in &self.config.apps {
                if let Some(state) = self.apps.get_mut(&spec.app) {
                    state.acl = spec.initial_acl.clone();
                }
            }
            self.lww.clear();
            self.applied.clear();
            self.origin_stamps.clear();
        }
        let mut merged = 0u64;
        for (id, op) in ops {
            if self.applied.contains(&id) {
                continue;
            }
            self.record_applied(id);
            self.apply_op(&op, id);
            merged += 1;
            // Merged winners become durable too — otherwise a crash right
            // after the delta sync would silently forget them again.
            self.log_op(ctx, id, op, None);
        }
        // A peer's stamps describe what *it* has applied; ours must only
        // ever reflect what we applied. Just note any remaining lag.
        let behind = stamps
            .iter()
            .any(|(n, s)| self.origin_stamps.get(n).is_none_or(|mine| mine < s));
        if behind {
            ctx.metric_incr(M::MGR_SYNC_STAMPS_BEHIND);
        }
        self.recovering = false;
        self.delta_syncing = false;
        self.sync_round = 0;
        if was_cold {
            ctx.metric_incr(M::MGR_RECOVERED_VIA_SYNC);
            ctx.trace_record(|| AuditEvent::Recovered(Recovery::Sync { merged }));
        } else {
            ctx.metric_incr(M::MGR_DELTA_SYNC_COMPLETE);
        }
    }
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

impl Node for ManagerNode {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let now = ctx.local_now();
        // Index loop: iterating `&self.config.peers` would hold a borrow
        // across the `last_heard` insert.
        for i in 0..self.config.peers.len() {
            let peer = self.config.peers[i];
            self.last_heard.insert(peer, now);
        }
        self.arm_periodic(ctx);
        // A process restart hands us storage that already holds state:
        // replay it before serving, then delta-sync for freshness. A
        // fresh deployment's storage is empty and this is a no-op.
        if let Some(storage) = self.storage.as_mut() {
            let recovered = storage.recover();
            if recovered.snapshot.is_some() || !recovered.records.is_empty() {
                self.restore_from(ctx, recovered);
                if !self.config.peers.is_empty() {
                    self.delta_syncing = true;
                    self.send_sync_request(ctx);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Admin { op, req, issuer, signature } => {
                self.on_admin(ctx, from, op, req, issuer, signature);
            }
            ProtoMsg::Update { id, op } => self.on_update(ctx, from, id, op),
            ProtoMsg::UpdateAck { id } => self.on_update_ack(ctx, from, id),
            ProtoMsg::Query { app, user, req } => self.on_query(ctx, from, app, user, req),
            ProtoMsg::Heartbeat => {
                if self.is_from_peer(ctx, from) {
                    self.note_peer(from, ctx.local_now());
                }
            }
            ProtoMsg::SyncRequest { stamps, slots } => {
                self.on_sync_request(ctx, from, stamps, slots);
            }
            ProtoMsg::SyncResponse { ops, stamps } => {
                self.on_sync_response(ctx, from, ops, stamps);
            }
            ProtoMsg::ShardHandoff { shard, epoch, record, targets, publish_to } => {
                self.on_shard_handoff(ctx, from, shard, epoch, *record, targets, publish_to);
            }
            ProtoMsg::ShardTransfer { shard, epoch, app, ops, digest: _ } => {
                self.on_shard_transfer(ctx, from, shard, epoch, app, ops);
            }
            ProtoMsg::ShardTransferAck { shard, epoch } => {
                self.on_shard_transfer_ack(ctx, from, shard, epoch);
            }
            ProtoMsg::ShardReleased { shard, epoch } => {
                self.on_shard_released(ctx, from, shard, epoch);
            }
            ProtoMsg::ShardReleasedAck { shard, epoch } => {
                self.on_shard_released_ack(ctx, from, shard, epoch);
            }
            ProtoMsg::ShardActivate { shard, epoch } => {
                self.on_shard_activate(ctx, from, shard, epoch);
            }
            ProtoMsg::ShardActivateAck { shard, epoch } => {
                self.on_shard_activate_ack(ctx, from, shard, epoch);
            }
            ProtoMsg::AdminForward { origin, op, req, issuer, signature } => {
                if self.is_from_peer(ctx, from) {
                    self.on_admin(ctx, origin, op, req, issuer, signature);
                }
            }
            _ => {
                ctx.metric_incr(M::MGR_UNEXPECTED_MSG);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        match tag {
            TAG_HEARTBEAT => self.on_heartbeat_tick(ctx),
            TAG_RETRY => self.on_retry_tick(ctx),
            TAG_GSWEEP => self.on_grant_sweep_tick(ctx),
            TAG_SYNC if self.recovering || self.delta_syncing => {
                self.send_sync_request(ctx);
            }
            TAG_HANDOFF => self.on_handoff_tick(ctx),
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // Crash model (§2.1): managers are crash-only. All volatile
        // coordination state is lost; storage drops whatever was not yet
        // fsynced (and may tear the tail record). The Lamport counter is
        // modelled as persisted in-memory, so post-crash operations never
        // reuse an OpId; disk recovery additionally re-derives a floor.
        if let Some(storage) = self.storage.as_mut() {
            storage.crash();
        }
        self.pending.clear();
        self.pending_revokes.clear();
        self.grant_table.clear();
        self.last_heard.clear();
        self.applied.clear();
        self.lww.clear();
        self.origin_stamps.clear();
        self.unlogged.clear();
        self.retry_round = 0;
        self.sync_round = 0;
        self.delta_syncing = false;
        // Volatile handoff coordination is lost with everything else;
        // durable release markers are re-applied during recovery, and a
        // shard acquired-but-unfsynced degrades to unavailability (the
        // recovered manager answers UnknownShard until re-handed-off),
        // which is fail-closed and safe.
        self.reset_shards_to_config();
        self.handoff_timer_armed = false;
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let now = ctx.local_now();
        for i in 0..self.config.peers.len() {
            let peer = self.config.peers[i];
            self.last_heard.insert(peer, now);
        }
        self.arm_periodic(ctx);
        self.sync_round = 0;
        if self.recover_from_storage(ctx) {
            // Everything this manager ever acked was fsynced before the
            // ack went out, so local replay alone already upholds quorum
            // intersection: serve immediately, and run a *delta* peer
            // sync purely for freshness. (This also avoids the deadlock
            // where a whole-cluster restart leaves every manager waiting
            // for a non-recovering peer.)
            self.recovering = false;
            if !self.config.peers.is_empty() {
                self.delta_syncing = true;
                self.send_sync_request(ctx);
            }
            // A durably-released shard may still owe its ShardReleased
            // to the handoff primary; the tick retransmits it.
            let owes_release = self.shards.values().any(|st| {
                matches!(st.phase, ShardPhase::Released { acked: false, .. })
            });
            if owes_release {
                self.arm_handoff(ctx);
            }
        } else if self.config.peers.is_empty() {
            self.recovering = false;
        } else {
            self.recovering = true;
            self.send_sync_request(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanacl_sim::node::Effect;
    use wanacl_sim::rng::SimRng;
    use wanacl_sim::storage::{DiskFaultModel, SimStorage};

    struct Harness {
        rng: SimRng,
        next_timer: u64,
        now: LocalTime,
        id: NodeId,
    }

    impl Harness {
        fn new(id: usize) -> Self {
            Harness {
                rng: SimRng::seed_from(1),
                next_timer: 0,
                now: LocalTime::ZERO,
                id: NodeId::from_index(id),
            }
        }

        fn deliver(
            &mut self,
            node: &mut ManagerNode,
            from: usize,
            msg: ProtoMsg,
        ) -> Vec<Effect<ProtoMsg>> {
            let mut effects = Vec::new();
            {
                let mut ctx = Context::new(
                    self.id,
                    self.now,
                    &mut effects,
                    &mut self.rng,
                    &mut self.next_timer,
                );
                node.on_message(&mut ctx, NodeId::from_index(from), msg);
            }
            effects
        }
    }

    fn manager_with_peers(id: usize, peers: &[usize]) -> (ManagerNode, Harness) {
        let mut acl = Acl::new();
        acl.add(UserId(1), Right::Use);
        let node = ManagerNode::new(ManagerConfig {
            peers: peers.iter().map(|&p| NodeId::from_index(p)).collect(),
            apps: vec![ManagerApp {
                app: AppId(0),
                policy: Policy::builder(1).build(),
                initial_acl: acl,
            }],
            ..ManagerConfig::default()
        });
        (node, Harness::new(id))
    }

    fn sends(effects: &[Effect<ProtoMsg>]) -> Vec<(NodeId, &ProtoMsg)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn query_grants_known_user_and_records_host() {
        let (mut mgr, mut h) = manager_with_peers(0, &[]);
        let effects = h.deliver(
            &mut mgr,
            7,
            ProtoMsg::Query { app: AppId(0), user: UserId(1), req: ReqId(3) },
        );
        let replies = sends(&effects);
        assert!(matches!(
            replies[0].1,
            ProtoMsg::QueryReply { verdict: QueryVerdict::Grant { .. }, .. }
        ));
        assert_eq!(mgr.granted_hosts(AppId(0), UserId(1)), 1);
        assert_eq!(mgr.stats().grants, 1);
    }

    #[test]
    fn query_denies_unknown_user() {
        let (mut mgr, mut h) = manager_with_peers(0, &[]);
        let effects = h.deliver(
            &mut mgr,
            7,
            ProtoMsg::Query { app: AppId(0), user: UserId(9), req: ReqId(3) },
        );
        assert!(matches!(
            sends(&effects)[0].1,
            ProtoMsg::QueryReply { verdict: QueryVerdict::Deny, .. }
        ));
        assert_eq!(mgr.granted_hosts(AppId(0), UserId(9)), 0);
    }

    /// The benchmark's shape — `ManagerConfig { peers, apps, .. }`, no
    /// shard listed — is the one-shard plane: app 0's whole keyspace is
    /// shard 0, co-owned with every peer.
    #[test]
    fn a_config_without_shards_serves_each_app_as_one_whole_keyspace_shard() {
        let in_bucket = |b: u8| (0u64..).map(UserId).find(|&u| user_bucket(u) == b).expect("a user");
        let (low, high) = (in_bucket(0), in_bucket(u8::MAX));
        let mut acl = Acl::new();
        acl.add(low, Right::Use);
        acl.add(high, Right::Use);
        let mut mgr = ManagerNode::new(ManagerConfig {
            peers: vec![NodeId::from_index(1), NodeId::from_index(2)],
            apps: vec![ManagerApp { app: AppId(0), policy: Policy::builder(2).build(), initial_acl: acl }],
            ..ManagerConfig::default()
        });
        let mut h = Harness::new(0);
        for (user, req) in [(low, 1), (high, 2)] {
            let effects = h.deliver(&mut mgr, 7, ProtoMsg::Query { app: AppId(0), user, req: ReqId(req) });
            let grant = QueryVerdict::Grant { te: Policy::builder(2).build().expiry_budget() };
            assert!(matches!(sends(&effects)[0].1, ProtoMsg::QueryReply { verdict, .. } if *verdict == grant));
            assert!(effects.iter().any(|e| matches!(e, Effect::MetricIncr { name: M::SHARD_0_QUERIES })));
        }
        // An admin op fans out to both peers, and M − C + 1 = 2 copies —
        // this manager's and one ack — make it stable.
        let revoke = AclOp::Revoke { app: AppId(0), user: low, right: Right::Use };
        let admin = |op| ProtoMsg::Admin { op, req: ReqId(3), issuer: UserId(0), signature: None };
        let effects = h.deliver(&mut mgr, 9, admin(revoke));
        let updates: Vec<(NodeId, OpId)> = sends(&effects)
            .into_iter()
            .filter_map(|(to, m)| match m {
                ProtoMsg::Update { id, .. } => Some((to, *id)),
                _ => None,
            })
            .collect();
        assert_eq!(updates.iter().map(|&(to, _)| to.index()).collect::<Vec<_>>(), [1, 2]);
        let stable = |effects: &[Effect<ProtoMsg>]| {
            sends(effects)
                .iter()
                .any(|(_, m)| matches!(m, ProtoMsg::AdminReply { status: AdminStatus::Stable, .. }))
        };
        assert!(!stable(&effects));
        assert!(stable(&h.deliver(&mut mgr, 1, ProtoMsg::UpdateAck { id: updates[0].1 })));
        // No shard here covers app 1: its query and its admin op are
        // misrouted, and answered so.
        let effects = h.deliver(&mut mgr, 7, ProtoMsg::Query { app: AppId(1), user: low, req: ReqId(4) });
        let unknown = QueryVerdict::Unavailable { reason: RejectReason::UnknownShard };
        assert!(matches!(sends(&effects)[0].1, ProtoMsg::QueryReply { verdict, .. } if *verdict == unknown));
        let effects = h.deliver(&mut mgr, 9, admin(AclOp::Add { app: AppId(1), user: low, right: Right::Use }));
        let rejected = AdminStatus::Rejected { reason: RejectReason::UnknownShard };
        assert!(matches!(sends(&effects)[0].1, ProtoMsg::AdminReply { status, .. } if *status == rejected));
    }

    fn query(user: u64, req: u64) -> ProtoMsg {
        ProtoMsg::Query { app: AppId(0), user: UserId(user), req: ReqId(req) }
    }

    fn revoke_user_1() -> ProtoMsg {
        ProtoMsg::Admin {
            op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
            req: ReqId(1),
            issuer: UserId(0),
            signature: None,
        }
    }

    /// Every `(host, tag)` of the `RevokeNotice`s for user 1 in `effects`.
    fn notice_tags(effects: &[Effect<ProtoMsg>]) -> Vec<(NodeId, wanacl_auth::hmac::Tag)> {
        sends(effects)
            .into_iter()
            .filter_map(|(to, m)| match m {
                ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac } => {
                    Some((to, mac.expect("authenticated managers tag every notice")))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn manager_tags_every_send_under_the_key_held_for_that_host() {
        use crate::channel::ChannelKeys;
        let me = NodeId::from_index(0);
        let master = *b"an unmistakable 32-byte master!!";
        let keys = Arc::new(ChannelKeys::new(master));
        let (mut mgr, mut h) = manager_with_peers(0, &[]);
        mgr.set_channel_keys(keys.clone());
        // Grants to user 1 and a denial to user 9, from three hosts,
        // interleaved and repeated: each reply verifies under the
        // deployment's key for (this manager, that host) and no other.
        let queries = [(7usize, 1u64, 1u64), (8, 1, 2), (7, 9, 3), (6, 1, 4), (8, 9, 5)];
        for (host, user, req) in queries {
            let effects = h.deliver(&mut mgr, host, query(user, req));
            let (to, msg) = sends(&effects)[0];
            let ProtoMsg::QueryReply { req, app, user, verdict, mac: Some(tag) } = msg else {
                panic!("expected a tagged reply, got {msg:?}");
            };
            assert_eq!(to, NodeId::from_index(host));
            assert!(keys.verify_query_reply(me, to, *req, *app, *user, verdict, tag));
            let other = NodeId::from_index(5);
            assert!(!keys.verify_query_reply(me, other, *req, *app, *user, verdict, tag));
        }
        // Revoking user 1 notifies the three hosts that cached the right;
        // the retry tick notifies them again with the same tags.
        let first = notice_tags(&h.deliver(&mut mgr, 9, revoke_user_1()));
        assert_eq!(first.len(), 3);
        for (host, tag) in &first {
            assert!(keys.verify_revoke_notice(me, *host, AppId(0), UserId(1), tag));
        }
        let again = {
            let mut effects = Vec::new();
            let mut ctx = Context::new(h.id, h.now, &mut effects, &mut h.rng, &mut h.next_timer);
            mgr.on_timer(&mut ctx, TAG_RETRY);
            notice_tags(&effects)
        };
        assert_eq!(again, first);
        assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(3), "hosts 6, 7 and 8");

        let shown = format!("{mgr:?} {mgr:#?}");
        assert!(shown.contains("ChannelEnd"), "{shown}");
        assert!(!shown.contains("unmistakable"), "{shown}");
        assert!(!shown.contains("97, 110, 32, 117"), "{shown}");
        assert!(!shown.contains("616e20756e"), "{shown}");
    }

    #[test]
    fn rekeying_a_manager_drops_held_keys_and_tags_under_the_new_master() {
        use crate::channel::ChannelKeys;
        let me = NodeId::from_index(0);
        let host = NodeId::from_index(7);
        let old = Arc::new(ChannelKeys::from_seed(1));
        let new = Arc::new(ChannelKeys::from_seed(2));
        let (mut mgr, mut h) = manager_with_peers(0, &[]);
        let reply_tag = |effects: &[Effect<ProtoMsg>]| match sends(effects)[0].1 {
            ProtoMsg::QueryReply { verdict, mac: Some(tag), .. } => (*verdict, *tag),
            other => panic!("expected a tagged reply, got {other:?}"),
        };
        mgr.set_channel_keys(old.clone());
        let (v, tag) = reply_tag(&h.deliver(&mut mgr, 7, query(1, 1)));
        assert!(old.verify_query_reply(me, host, ReqId(1), AppId(0), UserId(1), &v, &tag));
        assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(1));

        mgr.set_channel_keys(new.clone());
        assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(0), "rotation empties the table");
        let (v, tag) = reply_tag(&h.deliver(&mut mgr, 7, query(1, 2)));
        assert!(new.verify_query_reply(me, host, ReqId(2), AppId(0), UserId(1), &v, &tag));
        assert!(!old.verify_query_reply(me, host, ReqId(2), AppId(0), UserId(1), &v, &tag));
        let notices = notice_tags(&h.deliver(&mut mgr, 9, revoke_user_1()));
        assert_eq!(notices.len(), 1);
        assert!(new.verify_revoke_notice(me, host, AppId(0), UserId(1), &notices[0].1));
        assert!(!old.verify_revoke_notice(me, host, AppId(0), UserId(1), &notices[0].1));
        assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(1));
    }

    #[test]
    fn admin_op_disseminates_to_all_peers() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1, 2]);
        let effects = h.deliver(
            &mut mgr,
            9,
            ProtoMsg::Admin {
                op: AclOp::Add { app: AppId(0), user: UserId(5), right: Right::Use },
                req: ReqId(1),
                issuer: UserId(0),
                signature: None,
            },
        );
        let updates: Vec<NodeId> = sends(&effects)
            .into_iter()
            .filter(|(_, m)| matches!(m, ProtoMsg::Update { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(updates, vec![NodeId::from_index(1), NodeId::from_index(2)]);
        assert!(mgr.acl_has(AppId(0), UserId(5), Right::Use));
        assert_eq!(mgr.pending_updates(), 1);
        // C = 1 -> update quorum 3: not yet stable with only self.
        assert_eq!(mgr.stats().quorum_reached, 0);
    }

    #[test]
    fn acks_complete_the_quorum_and_clear_pending() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1, 2]);
        let effects = h.deliver(
            &mut mgr,
            9,
            ProtoMsg::Admin {
                op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
                req: ReqId(1),
                issuer: UserId(0),
                signature: None,
            },
        );
        let id = sends(&effects)
            .into_iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Update { id, .. } => Some(*id),
                _ => None,
            })
            .expect("update sent");
        let effects = h.deliver(&mut mgr, 1, ProtoMsg::UpdateAck { id });
        // Quorum (3 of 3 for C=1... M=3, uq = M-C+1 = 3): needs both acks.
        assert!(!sends(&effects)
            .iter()
            .any(|(_, m)| matches!(m, ProtoMsg::AdminReply { status: AdminStatus::Stable, .. })));
        let effects = h.deliver(&mut mgr, 2, ProtoMsg::UpdateAck { id });
        assert!(sends(&effects)
            .iter()
            .any(|(_, m)| matches!(m, ProtoMsg::AdminReply { status: AdminStatus::Stable, .. })));
        assert_eq!(mgr.pending_updates(), 0);
    }

    #[test]
    fn peer_update_applies_once_and_acks_every_time() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1]);
        let id = OpId { origin: NodeId::from_index(1), seq: 5 };
        let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
        let e1 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
        assert!(matches!(sends(&e1)[0].1, ProtoMsg::UpdateAck { .. }));
        assert!(mgr.acl_has(AppId(0), UserId(8), Right::Use));
        assert_eq!(mgr.stats().peer_updates_applied, 1);
        // Duplicate delivery: still acked, not re-applied.
        let e2 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
        assert!(matches!(sends(&e2)[0].1, ProtoMsg::UpdateAck { .. }));
        assert_eq!(mgr.stats().peer_updates_applied, 1);
    }

    #[test]
    fn lww_keeps_the_newest_write_regardless_of_arrival_order() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1, 2]);
        let newer = OpId { origin: NodeId::from_index(2), seq: 9 };
        let older = OpId { origin: NodeId::from_index(1), seq: 3 };
        h.deliver(
            &mut mgr,
            2,
            ProtoMsg::Update {
                id: newer,
                op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
            },
        );
        assert!(!mgr.acl_has(AppId(0), UserId(1), Right::Use));
        // The older concurrent Add arrives late: it must lose.
        h.deliver(
            &mut mgr,
            1,
            ProtoMsg::Update {
                id: older,
                op: AclOp::Add { app: AppId(0), user: UserId(1), right: Right::Use },
            },
        );
        assert!(!mgr.acl_has(AppId(0), UserId(1), Right::Use), "older write must not win");
    }

    #[test]
    fn non_peer_update_is_rejected() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1]);
        let id = OpId { origin: NodeId::from_index(9), seq: 1 };
        let effects = h.deliver(
            &mut mgr,
            9, // not a peer
            ProtoMsg::Update {
                id,
                op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
            },
        );
        assert!(sends(&effects).is_empty(), "no ack for a non-peer");
        assert!(mgr.acl_has(AppId(0), UserId(1), Right::Use), "ACL untouched");
    }

    fn recover(mgr: &mut ManagerNode, h: &mut Harness) {
        // Simulate the world's recovery callback.
        let mut effects = Vec::new();
        let mut ctx = Context::new(h.id, h.now, &mut effects, &mut h.rng, &mut h.next_timer);
        mgr.on_recover(&mut ctx);
    }

    #[test]
    fn recovering_manager_answers_unavailable_until_synced() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1]);
        mgr.on_crash();
        recover(&mut mgr, &mut h);
        assert!(mgr.is_recovering());
        // Queries are answered `Unavailable` (retryable), not denied and
        // not silently dropped.
        let effects = h.deliver(
            &mut mgr,
            7,
            ProtoMsg::Query { app: AppId(0), user: UserId(1), req: ReqId(1) },
        );
        assert!(matches!(
            sends(&effects)[0].1,
            ProtoMsg::QueryReply {
                verdict: QueryVerdict::Unavailable { reason: RejectReason::Recovering },
                ..
            }
        ));
        // A delta sync response restores service: state is reset to
        // bootstrap and the peer's winners are applied on top, so the
        // newer revoke below beats the stale bootstrap grant.
        let peer = NodeId::from_index(1);
        let op = AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use };
        h.deliver(
            &mut mgr,
            1,
            ProtoMsg::SyncResponse {
                ops: vec![(OpId { origin: peer, seq: 4 }, op)],
                stamps: vec![(peer, 4)],
            },
        );
        assert!(!mgr.is_recovering());
        let effects = h.deliver(
            &mut mgr,
            7,
            ProtoMsg::Query { app: AppId(0), user: UserId(1), req: ReqId(2) },
        );
        assert!(matches!(
            sends(&effects)[0].1,
            ProtoMsg::QueryReply { verdict: QueryVerdict::Deny, .. }
        ));
    }

    #[test]
    fn sync_request_is_answered_with_only_newer_slot_winners() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1]);
        let peer = NodeId::from_index(1);
        let id_a = OpId { origin: peer, seq: 3 };
        let op_a = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
        let id_b = OpId { origin: peer, seq: 5 };
        let op_b = AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use };
        h.deliver(&mut mgr, 1, ProtoMsg::Update { id: id_a, op: op_a });
        h.deliver(&mut mgr, 1, ProtoMsg::Update { id: id_b, op: op_b });
        // The requester already holds slot a: only the winner it lacks
        // comes back, plus this manager's own high-water marks.
        let effects = h.deliver(
            &mut mgr,
            1,
            ProtoMsg::SyncRequest {
                stamps: vec![(peer, 3)],
                slots: vec![(AppId(0), UserId(8), Right::Use, id_a)],
            },
        );
        match sends(&effects)[0].1 {
            ProtoMsg::SyncResponse { ops, stamps } => {
                assert_eq!(ops, &vec![(id_b, op_b)]);
                assert_eq!(stamps, &vec![(peer, 5)]);
            }
            other => panic!("expected sync response, got {other:?}"),
        }
        assert_eq!(mgr.stats().syncs_served, 1);
    }

    #[test]
    fn update_ack_is_withheld_until_the_wal_sync_succeeds() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1]);
        mgr.set_storage(Box::new(SimStorage::with_faults(
            7,
            DiskFaultModel { sync_fail_prob: 1.0, torn_tail_prob: 0.0 },
        )));
        let id = OpId { origin: NodeId::from_index(1), seq: 5 };
        let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
        let e1 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
        assert!(
            !sends(&e1).iter().any(|(_, m)| matches!(m, ProtoMsg::UpdateAck { .. })),
            "no ack while the record is not durable"
        );
        assert!(mgr.acl_has(AppId(0), UserId(8), Right::Use), "still applied in memory");
        // The disk heals and the origin's retransmission arrives.
        mgr.storage_mut()
            .unwrap()
            .as_any_mut()
            .downcast_mut::<SimStorage>()
            .unwrap()
            .set_fault_model(DiskFaultModel::default());
        let e2 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
        assert!(sends(&e2).iter().any(|(_, m)| matches!(m, ProtoMsg::UpdateAck { .. })));
        assert_eq!(mgr.stats().wal_appends, 1, "the retransmission is not re-logged");
    }

    #[test]
    fn disk_recovery_replays_the_wal_and_serves_immediately() {
        let (mut mgr, mut h) = manager_with_peers(0, &[1]);
        mgr.set_storage(Box::new(SimStorage::new(3)));
        let id = OpId { origin: NodeId::from_index(1), seq: 5 };
        let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
        h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
        mgr.on_crash();
        recover(&mut mgr, &mut h);
        assert!(!mgr.is_recovering(), "local replay is enough to serve");
        assert!(mgr.acl_has(AppId(0), UserId(8), Right::Use));
        assert_eq!(mgr.stats().recovered_from_disk, 1);
        // Queries are answered right away, while the delta sync for
        // freshness is still in flight.
        let effects = h.deliver(
            &mut mgr,
            7,
            ProtoMsg::Query { app: AppId(0), user: UserId(8), req: ReqId(1) },
        );
        assert!(matches!(
            sends(&effects)[0].1,
            ProtoMsg::QueryReply { verdict: QueryVerdict::Grant { .. }, .. }
        ));
    }

    #[test]
    fn dropped_wal_recovery_silently_loses_acked_state() {
        // The planted bug the durability oracle must catch: a recovery
        // that reports disk mode but discarded the log.
        let (mut mgr, mut h) = manager_with_peers(0, &[1]);
        let mut storage = SimStorage::new(3);
        storage.set_drop_state_on_recover(true);
        mgr.set_storage(Box::new(storage));
        let id = OpId { origin: NodeId::from_index(1), seq: 5 };
        let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
        h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
        mgr.on_crash();
        recover(&mut mgr, &mut h);
        assert!(!mgr.is_recovering());
        assert!(!mgr.acl_has(AppId(0), UserId(8), Right::Use), "the bug lost the acked op");
    }

    #[test]
    fn snapshots_follow_the_configured_cadence_and_recovery_composes_them() {
        let mut acl = Acl::new();
        acl.add(UserId(1), Right::Use);
        let mut mgr = ManagerNode::new(ManagerConfig {
            peers: vec![NodeId::from_index(1)],
            apps: vec![ManagerApp {
                app: AppId(0),
                policy: Policy::builder(1).build(),
                initial_acl: acl,
            }],
            snapshot_every: 3,
            ..ManagerConfig::default()
        });
        let mut h = Harness::new(0);
        mgr.set_storage(Box::new(SimStorage::new(1)));
        for seq in 1..=7u64 {
            let id = OpId { origin: NodeId::from_index(1), seq };
            let op = AclOp::Add { app: AppId(0), user: UserId(100 + seq), right: Right::Use };
            h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
        }
        assert_eq!(mgr.stats().wal_appends, 7);
        assert_eq!(mgr.stats().snapshot_writes, 2, "7 appends at cadence 3 → 2 snapshots");
        // Snapshot + the leftover WAL tail rebuild everything.
        mgr.on_crash();
        recover(&mut mgr, &mut h);
        for seq in 1..=7u64 {
            assert!(mgr.acl_has(AppId(0), UserId(100 + seq), Right::Use), "user {seq} lost");
        }
    }

    /// A manager serving one bucket-range shard of app 0 (unsigned
    /// handoff records: `ns_trust` stays `None` in unit tests).
    fn sharded_manager(id: usize, shard: u32, lo: u8, hi: u8) -> (ManagerNode, Harness) {
        let mut acl = Acl::new();
        acl.add(UserId(1), Right::Use);
        acl.add(UserId(3), Right::Use);
        let node = ManagerNode::new(ManagerConfig {
            peers: (0..4).filter(|&p| p != id).map(NodeId::from_index).collect(),
            apps: vec![ManagerApp {
                app: AppId(0),
                policy: Policy::builder(1).build(),
                initial_acl: acl,
            }],
            shards: vec![ManagerShard {
                shard: ShardId(shard),
                app: AppId(0),
                lo,
                hi,
                peers: Vec::new(),
            }],
            ..ManagerConfig::default()
        });
        (node, Harness::new(id))
    }

    /// A version-`epoch` shard-map record moving shard 0 onto
    /// `new_owners` (dummy signature; verification is off).
    fn handoff_record(epoch: u64, lo: u8, hi: u8, new_owners: &[usize]) -> NsRecord {
        let managers: Vec<NodeId> = new_owners.iter().map(|&m| NodeId::from_index(m)).collect();
        NsRecord {
            app: AppId(0),
            version: epoch,
            shards: vec![ShardEntry { shard: ShardId(0), lo, hi, managers }],
            signature: rsa::Signature(0),
        }
    }

    fn traces(effects: &[Effect<ProtoMsg>]) -> Vec<&AuditEvent> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Trace { text } => text.record(),
                _ => None,
            })
            .collect()
    }

    /// The `(digest, count)` of the step's shard-install event.
    fn installed(effects: &[Effect<ProtoMsg>]) -> Option<(u64, usize)> {
        traces(effects).into_iter().find_map(|t| match t {
            AuditEvent::ShardInstall(ops) => Some((ops.digest, ops.count)),
            _ => None,
        })
    }

    #[test]
    fn handoff_source_freezes_transfers_and_releases_then_activates_targets() {
        // Manager 0 owns shard 0 alone; the handoff moves it to manager 1.
        let (mut mgr, mut h) = sharded_manager(0, 0, 0, 255);
        // One live op so the transfer carries real state.
        h.deliver(
            &mut mgr,
            9,
            ProtoMsg::Admin {
                op: AclOp::Add { app: AppId(0), user: UserId(7), right: Right::Use },
                req: ReqId(1),
                issuer: UserId(999),
                signature: None,
            },
        );
        let effects = h.deliver(
            &mut mgr,
            2,
            ProtoMsg::ShardHandoff {
                shard: ShardId(0),
                epoch: 2,
                record: Box::new(handoff_record(2, 0, 255, &[1])),
                targets: vec![NodeId::from_index(1)],
                publish_to: Vec::new(),
            },
        );
        // Frozen: the source pushed its shard state to the target and
        // noted the I9 handoff audit.
        let transfer = sends(&effects)
            .into_iter()
            .find_map(|(to, m)| match m {
                ProtoMsg::ShardTransfer { shard, epoch, ops, digest, .. } => {
                    Some((to, *shard, *epoch, ops.clone(), *digest))
                }
                _ => None,
            })
            .expect("source must transfer on the kickoff");
        assert_eq!(transfer.0, NodeId::from_index(1));
        assert_eq!((transfer.1, transfer.2), (ShardId(0), 2));
        assert_eq!(transfer.3.len(), 1, "the admin op rides the transfer");
        assert_eq!(transfer.4, transfer_digest(&transfer.3));
        assert!(traces(&effects).iter().any(|t| matches!(t, AuditEvent::ShardHandoff(_))));
        assert!(!mgr.shard_released(ShardId(0)), "release waits for the transfer ack");
        // Frozen shards drop further admin ops silently (the agent's
        // resend lands after the new map installs).
        let frozen = h.deliver(
            &mut mgr,
            9,
            ProtoMsg::Admin {
                op: AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use },
                req: ReqId(2),
                issuer: UserId(999),
                signature: None,
            },
        );
        assert!(sends(&frozen).is_empty(), "frozen shard must not answer admins");
        // The target's ack releases the source durably; as handoff
        // primary it then activates the target.
        let effects =
            h.deliver(&mut mgr, 1, ProtoMsg::ShardTransferAck { shard: ShardId(0), epoch: 2 });
        assert!(mgr.shard_released(ShardId(0)));
        assert!(sends(&effects).iter().any(|(to, m)| *to == NodeId::from_index(1)
            && matches!(m, ProtoMsg::ShardActivate { shard: ShardId(0), epoch: 2 })));
    }

    #[test]
    fn handoff_target_installs_activates_and_rejects_foreign_buckets() {
        // Manager 2 owns the upper half of app 0's keyspace; shard 0
        // (lower half) arrives via handoff from owner 0. Bucket facts:
        // user 1 → 18 (shard 0), user 3 → 172 (manager 2's own shard).
        let (mut mgr, mut h) = sharded_manager(2, 1, 128, 255);
        let reply = h.deliver(
            &mut mgr,
            9,
            ProtoMsg::Query { app: AppId(0), user: UserId(1), req: ReqId(1) },
        );
        assert!(
            sends(&reply).iter().any(|(_, m)| matches!(
                m,
                ProtoMsg::QueryReply {
                    verdict: QueryVerdict::Unavailable { reason: RejectReason::UnknownShard },
                    ..
                }
            )),
            "a bucket outside every owned shard must answer UnknownShard"
        );
        h.deliver(
            &mut mgr,
            0,
            ProtoMsg::ShardHandoff {
                shard: ShardId(0),
                epoch: 2,
                record: Box::new(handoff_record(2, 0, 127, &[2])),
                targets: vec![NodeId::from_index(2)],
                publish_to: Vec::new(),
            },
        );
        let ops = vec![(
            OpId { origin: NodeId::from_index(0), seq: 4 },
            AclOp::Add { app: AppId(0), user: UserId(5), right: Right::Use },
        )];
        let effects = h.deliver(
            &mut mgr,
            0,
            ProtoMsg::ShardTransfer {
                shard: ShardId(0),
                epoch: 2,
                app: AppId(0),
                ops: ops.clone(),
                digest: transfer_digest(&ops),
            },
        );
        // Installed: the I9 note matches the source's digest, the ack
        // goes back, and the transferred op landed in the ACL.
        assert_eq!(installed(&effects), Some((transfer_digest(&ops), 1)));
        assert!(sends(&effects).iter().any(|(to, m)| *to == NodeId::from_index(0)
            && matches!(m, ProtoMsg::ShardTransferAck { shard: ShardId(0), epoch: 2 })));
        assert!(mgr.acl_has(AppId(0), UserId(5), Right::Use));
        // Not serving yet: activation is the primary's call, after every
        // source durably released.
        assert!(!mgr.shard_active(ShardId(0)));
        h.deliver(&mut mgr, 0, ProtoMsg::ShardActivate { shard: ShardId(0), epoch: 2 });
        assert!(mgr.shard_active(ShardId(0)));
        let reply = h.deliver(
            &mut mgr,
            9,
            ProtoMsg::Query { app: AppId(0), user: UserId(1), req: ReqId(2) },
        );
        assert!(sends(&reply).iter().any(|(_, m)| matches!(
            m,
            ProtoMsg::QueryReply { verdict: QueryVerdict::Grant { .. }, .. }
        )));
    }

    #[test]
    fn dropped_transfer_tail_diverges_the_install_digest() {
        let (mut mgr, mut h) = sharded_manager(2, 1, 128, 255);
        mgr.set_drop_handoff_tail(true);
        h.deliver(
            &mut mgr,
            0,
            ProtoMsg::ShardHandoff {
                shard: ShardId(0),
                epoch: 2,
                record: Box::new(handoff_record(2, 0, 127, &[2])),
                targets: vec![NodeId::from_index(2)],
                publish_to: Vec::new(),
            },
        );
        let ops = vec![(
            OpId { origin: NodeId::from_index(0), seq: 4 },
            AclOp::Revoke { app: AppId(0), user: UserId(5), right: Right::Use },
        )];
        let effects = h.deliver(
            &mut mgr,
            0,
            ProtoMsg::ShardTransfer {
                shard: ShardId(0),
                epoch: 2,
                app: AppId(0),
                ops: ops.clone(),
                digest: transfer_digest(&ops),
            },
        );
        // The bug ate the revoke: count drops to 0 and the digest is the
        // empty-transfer digest, not the source's — exactly what the
        // oracle's I9 comparison flags.
        assert_eq!(installed(&effects), Some((transfer_digest(&[]), 0)));
        assert_ne!(transfer_digest(&[]), transfer_digest(&ops));
    }
}
