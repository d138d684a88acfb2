//! Typed audit events.
//!
//! Hosts, managers and directory replicas report what they decided as
//! [`AuditEvent`] values (`ctx.trace_record(|| AuditEvent::…)`); the
//! [`InvariantOracle`](crate::oracle::InvariantOracle) matches on them.
//! The `audit=…` line an event prints through `Display` is what trace
//! exporters, `wanacl audit` and violation reports show — it is pinned
//! byte for byte by `tests/audit_events.rs`. The audit digest hashes
//! the event's [`AuthEncode`] bytes instead: a kind byte per variant,
//! fixed-width big-endian ids, times and counts, and length-prefixed
//! lists, pinned by `tests/byte_pins.rs`.

use std::fmt;

use wanacl_auth::signed::{AuthEncode, AuthSink};
use wanacl_sim::clock::LocalTime;
use wanacl_sim::node::NodeId;
use wanacl_sim::time::SimDuration;

use crate::msg::OpId;
use crate::types::{AppId, Right, ShardId, UserId};

/// Node ids carried inside an event: held inline up to
/// [`NodeList::INLINE`] of them (every manager set deployed here), on
/// the heap beyond.
#[derive(Clone)]
pub enum NodeList {
    /// `len` ids in the array's prefix.
    #[allow(missing_docs)]
    Inline { len: u8, ids: [NodeId; NodeList::INLINE] },
    /// More than [`NodeList::INLINE`] ids.
    Heap(Box<[NodeId]>),
}

impl NodeList {
    /// The longest list that costs no allocation.
    pub const INLINE: usize = 8;

    /// The ids, in the order they were given.
    pub fn as_slice(&self) -> &[NodeId] {
        match self {
            NodeList::Inline { len, ids } => &ids[..usize::from(*len)],
            NodeList::Heap(ids) => ids,
        }
    }
}

/// The canonical rendering of a manager set: `;`-joined node indexes,
/// `-` when empty.
impl fmt::Display for NodeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids = self.as_slice();
        if ids.is_empty() {
            return f.write_str("-");
        }
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{}", id.index())?;
        }
        Ok(())
    }
}

impl FromIterator<NodeId> for NodeList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeList {
        let mut ids = [NodeId::ENV; NodeList::INLINE];
        let mut len = 0;
        let mut iter = iter.into_iter();
        while let Some(id) = iter.next() {
            if len == NodeList::INLINE {
                return NodeList::Heap(ids.into_iter().chain([id]).chain(iter).collect());
            }
            ids[len] = id;
            len += 1;
        }
        NodeList::Inline { len: len as u8, ids }
    }
}

impl PartialEq for NodeList {
    fn eq(&self, other: &NodeList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NodeList {}

impl fmt::Debug for NodeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Why a host said yes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are the note's keys
pub enum AllowPath {
    /// A cached lease: the host's clock read `now`, the entry ran to
    /// `limit`.
    Cache { now: LocalTime, limit: LocalTime },
    /// A fresh check quorum: `confirms` grants from `managers` against
    /// the policy's `c`, for the attempt begun at `started`; `limit` is
    /// the lease stored with it, if any.
    Quorum {
        confirms: usize,
        c: usize,
        managers: NodeList,
        started: LocalTime,
        limit: Option<LocalTime>,
    },
    /// Figure 4's fail-open exhaustion: nobody confirmed.
    FailOpen,
}

/// How a manager came back after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Recovery {
    /// From its own stable storage: `replayed` WAL records past the
    /// snapshot, `torn` discarded, and the last-writer-wins winner of
    /// every slot it now holds.
    Disk { replayed: u64, torn: u64, slots: Vec<(AppId, UserId, Right, OpId)> },
    /// From a peer's state transfer of `merged` ops (nothing was ever
    /// promised durable).
    Sync { merged: u64 },
}

/// A directory record as a replica holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct NsHeld {
    pub app: AppId,
    pub version: u64,
    pub managers: NodeList,
}

/// One side's account of a shard handoff: the ops of `shard` moved at
/// `epoch` out of manager `src`, as an FNV `digest` over `count` ops.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ShardOps {
    pub shard: ShardId,
    pub epoch: u64,
    pub src: NodeId,
    pub digest: u64,
    pub count: usize,
}

/// One audit note. `Display` prints its `audit=…` line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are the note's keys
pub enum AuditEvent {
    /// A host let an invocation through.
    Allow { app: AppId, user: UserId, path: AllowPath },
    /// A host cached a lease anchored at `started`, running to `limit`,
    /// for the smallest granted `te`.
    CacheStore { app: AppId, user: UserId, started: LocalTime, limit: LocalTime, te: SimDuration },
    /// A manager answered a query with a grant good for `te`.
    Grant { app: AppId, user: UserId, te: SimDuration },
    /// A host refused an invocation on a manager's deny.
    Deny { app: AppId, user: UserId },
    /// A manager applied an admin op at its origin.
    Apply { revoke: bool, app: AppId, user: UserId, id: OpId },
    /// An add reached its update quorum.
    GrantStable { app: AppId, user: UserId, id: OpId },
    /// A revoke reached its update quorum: the `Te` clock starts.
    RevokeStable { app: AppId, user: UserId, id: OpId },
    /// A storage-backed manager fsynced an op before acking it.
    Durable { app: AppId, user: UserId, right: Right, revoke: bool, id: OpId },
    /// A manager finished crash recovery.
    Recovered(Recovery),
    /// A manager stopped answering queries for `app` (§3.3).
    Freeze { app: AppId },
    /// A manager resumed answering queries for `app`.
    Thaw { app: AppId },
    /// A directory replica accepted a writer's publish (or announced a
    /// record it holds).
    NsPublish(NsHeld),
    /// A directory replica accepted a record through anti-entropy.
    NsApply(NsHeld),
    /// A host installed a quorum-read directory record.
    NsInstall {
        app: AppId,
        version: u64,
        acks: usize,
        quorum: usize,
        managers: NodeList,
        ttl: SimDuration,
    },
    /// A host kept serving its last record through a failed quorum round.
    NsDegraded { app: AppId, version: u64 },
    /// A host's record ran out of TTL; its manager view is now empty.
    NsExpire { app: AppId, version: u64 },
    /// A source manager's claim of what it handed off.
    ShardHandoff(ShardOps),
    /// A target manager's account of what it installed.
    ShardInstall(ShardOps),
}

fn op_kind(revoke: bool) -> &'static str {
    if revoke {
        "revoke"
    } else {
        "add"
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::Allow { app, user, path } => {
                write!(f, "audit=allow app={} user={} ", app.0, user.0)?;
                match path {
                    AllowPath::Cache { now, limit } => {
                        write!(f, "mode=cache now={} limit={}", now.as_nanos(), limit.as_nanos())
                    }
                    AllowPath::Quorum { confirms, c, managers, started, limit } => {
                        write!(f, "mode=quorum confirms={confirms} c={c} mgrs=")?;
                        // An allow nobody confirmed lists nobody.
                        if !managers.as_slice().is_empty() {
                            write!(f, "{managers}")?;
                        }
                        write!(f, " started={}", started.as_nanos())?;
                        match limit {
                            Some(limit) => write!(f, " limit={}", limit.as_nanos()),
                            None => Ok(()),
                        }
                    }
                    AllowPath::FailOpen => f.write_str("mode=failopen"),
                }
            }
            AuditEvent::CacheStore { app, user, started, limit, te } => write!(
                f,
                "audit=cache-store app={} user={} started={} limit={} te={}",
                app.0,
                user.0,
                started.as_nanos(),
                limit.as_nanos(),
                te.as_nanos(),
            ),
            AuditEvent::Grant { app, user, te } => {
                write!(f, "audit=grant app={} user={} te={}", app.0, user.0, te.as_nanos())
            }
            AuditEvent::Deny { app, user } => write!(f, "audit=deny app={} user={}", app.0, user.0),
            AuditEvent::Apply { revoke, app, user, id } => write!(
                f,
                "audit=apply kind={} app={} user={} seq={} origin={}",
                op_kind(*revoke),
                app.0,
                user.0,
                id.seq,
                id.origin.index(),
            ),
            AuditEvent::GrantStable { app, user, id } | AuditEvent::RevokeStable { app, user, id } => {
                let kind = if matches!(self, AuditEvent::GrantStable { .. }) { "grant" } else { "revoke" };
                write!(
                    f,
                    "audit={kind}-stable app={} user={} seq={} origin={}",
                    app.0,
                    user.0,
                    id.seq,
                    id.origin.index(),
                )
            }
            AuditEvent::Durable { app, user, right, revoke, id } => write!(
                f,
                "audit=durable app={} user={} right={right} kind={} seq={} origin={}",
                app.0,
                user.0,
                op_kind(*revoke),
                id.seq,
                id.origin.index(),
            ),
            AuditEvent::Recovered(Recovery::Disk { replayed, torn, slots }) => {
                write!(f, "audit=recovered mode=disk replayed={replayed} torn={torn} slots=")?;
                for (i, (app, user, right, id)) in slots.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{}:{right}:{}:{}", app.0, user.0, id.seq, id.origin.index())?;
                }
                Ok(())
            }
            AuditEvent::Recovered(Recovery::Sync { merged }) => {
                write!(f, "audit=recovered mode=sync merged={merged}")
            }
            AuditEvent::Freeze { app } => write!(f, "audit=freeze app={}", app.0),
            AuditEvent::Thaw { app } => write!(f, "audit=thaw app={}", app.0),
            AuditEvent::NsPublish(held) | AuditEvent::NsApply(held) => {
                let kind = if matches!(self, AuditEvent::NsPublish(_)) { "publish" } else { "apply" };
                let NsHeld { app, version, managers } = held;
                write!(f, "audit=ns-{kind} app={} version={version} mgrs={managers}", app.0)
            }
            AuditEvent::NsInstall { app, version, acks, quorum, managers, ttl } => write!(
                f,
                "audit=ns-install app={} version={version} mode=quorum acks={acks} quorum={quorum} mgrs={managers} ttl={}",
                app.0,
                ttl.as_nanos(),
            ),
            AuditEvent::NsDegraded { app, version } => {
                write!(f, "audit=ns-degraded app={} version={version}", app.0)
            }
            AuditEvent::NsExpire { app, version } => {
                write!(f, "audit=ns-expire app={} version={version}", app.0)
            }
            AuditEvent::ShardHandoff(ops) | AuditEvent::ShardInstall(ops) => {
                let kind =
                    if matches!(self, AuditEvent::ShardHandoff(_)) { "handoff" } else { "install" };
                write!(
                    f,
                    "audit=shard-{kind} shard={} epoch={} src={} digest={} count={}",
                    ops.shard.0,
                    ops.epoch,
                    ops.src.index(),
                    ops.digest,
                    ops.count,
                )
            }
        }
    }
}

/// A node id as its index, a big-endian `u32` (as in [`OpId`]).
fn put_node<S: AuthSink>(id: NodeId, out: &mut S) {
    (id.index() as u32).auth_encode(out);
}

/// The ids' count as a big-endian `u64`, then each id.
impl AuthEncode for NodeList {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        let ids = self.as_slice();
        (ids.len() as u64).auth_encode(out);
        for &id in ids {
            put_node(id, out);
        }
    }
}

/// A kind byte (cache 0, quorum 1, fail-open 2), then the fields in
/// declaration order; an absent quorum `limit` is one 0 byte, a present
/// one a 1 byte and the time.
impl AuthEncode for AllowPath {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        match self {
            AllowPath::Cache { now, limit } => {
                out.put(&[0]);
                now.as_nanos().auth_encode(out);
                limit.as_nanos().auth_encode(out);
            }
            AllowPath::Quorum { confirms, c, managers, started, limit } => {
                out.put(&[1]);
                (*confirms as u64).auth_encode(out);
                (*c as u64).auth_encode(out);
                managers.auth_encode(out);
                started.as_nanos().auth_encode(out);
                match limit {
                    Some(limit) => {
                        out.put(&[1]);
                        limit.as_nanos().auth_encode(out);
                    }
                    None => out.put(&[0]),
                }
            }
            AllowPath::FailOpen => out.put(&[2]),
        }
    }
}

/// A kind byte (disk 0, sync 1), then the fields; the disk slots are
/// counted, each `app ‖ user ‖ right ‖ op id`.
impl AuthEncode for Recovery {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        match self {
            Recovery::Disk { replayed, torn, slots } => {
                out.put(&[0]);
                replayed.auth_encode(out);
                torn.auth_encode(out);
                (slots.len() as u64).auth_encode(out);
                for (app, user, right, id) in slots {
                    app.auth_encode(out);
                    user.auth_encode(out);
                    right.auth_encode(out);
                    id.auth_encode(out);
                }
            }
            Recovery::Sync { merged } => {
                out.put(&[1]);
                merged.auth_encode(out);
            }
        }
    }
}

impl AuthEncode for NsHeld {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        self.app.auth_encode(out);
        self.version.auth_encode(out);
        self.managers.auth_encode(out);
    }
}

impl AuthEncode for ShardOps {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        self.shard.0.auth_encode(out);
        self.epoch.auth_encode(out);
        put_node(self.src, out);
        self.digest.auth_encode(out);
        (self.count as u64).auth_encode(out);
    }
}

/// What the audit digest folds: the variant's index in declaration
/// order as one byte, then its fields in declaration order — a flag as
/// one 0/1 byte, each id, time and count at fixed width, each list
/// behind its length. Injective: two events that print different lines
/// never encode alike.
impl AuthEncode for AuditEvent {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        let app_user = |kind: u8, app: &AppId, user: &UserId, out: &mut S| {
            out.put(&[kind]);
            app.auth_encode(out);
            user.auth_encode(out);
        };
        match self {
            AuditEvent::Allow { app, user, path } => {
                app_user(0, app, user, out);
                path.auth_encode(out);
            }
            AuditEvent::CacheStore { app, user, started, limit, te } => {
                app_user(1, app, user, out);
                started.as_nanos().auth_encode(out);
                limit.as_nanos().auth_encode(out);
                te.as_nanos().auth_encode(out);
            }
            AuditEvent::Grant { app, user, te } => {
                app_user(2, app, user, out);
                te.as_nanos().auth_encode(out);
            }
            AuditEvent::Deny { app, user } => app_user(3, app, user, out),
            AuditEvent::Apply { revoke, app, user, id } => {
                out.put(&[4, u8::from(*revoke)]);
                app.auth_encode(out);
                user.auth_encode(out);
                id.auth_encode(out);
            }
            AuditEvent::GrantStable { app, user, id } => {
                app_user(5, app, user, out);
                id.auth_encode(out);
            }
            AuditEvent::RevokeStable { app, user, id } => {
                app_user(6, app, user, out);
                id.auth_encode(out);
            }
            AuditEvent::Durable { app, user, right, revoke, id } => {
                app_user(7, app, user, out);
                right.auth_encode(out);
                out.put(&[u8::from(*revoke)]);
                id.auth_encode(out);
            }
            AuditEvent::Recovered(recovery) => {
                out.put(&[8]);
                recovery.auth_encode(out);
            }
            AuditEvent::Freeze { app } => {
                out.put(&[9]);
                app.auth_encode(out);
            }
            AuditEvent::Thaw { app } => {
                out.put(&[10]);
                app.auth_encode(out);
            }
            AuditEvent::NsPublish(held) => {
                out.put(&[11]);
                held.auth_encode(out);
            }
            AuditEvent::NsApply(held) => {
                out.put(&[12]);
                held.auth_encode(out);
            }
            AuditEvent::NsInstall { app, version, acks, quorum, managers, ttl } => {
                out.put(&[13]);
                app.auth_encode(out);
                version.auth_encode(out);
                (*acks as u64).auth_encode(out);
                (*quorum as u64).auth_encode(out);
                managers.auth_encode(out);
                ttl.as_nanos().auth_encode(out);
            }
            AuditEvent::NsDegraded { app, version } => {
                out.put(&[14]);
                app.auth_encode(out);
                version.auth_encode(out);
            }
            AuditEvent::NsExpire { app, version } => {
                out.put(&[15]);
                app.auth_encode(out);
                version.auth_encode(out);
            }
            AuditEvent::ShardHandoff(ops) => {
                out.put(&[16]);
                ops.auth_encode(out);
            }
            AuditEvent::ShardInstall(ops) => {
                out.put(&[17]);
                ops.auth_encode(out);
            }
        }
    }
}
