//! The protocol wire format: every message exchanged between users,
//! hosts, managers, admins, and the name service.
//!
//! Request and response bodies are `Arc<str>` rather than `String`:
//! the hot paths clone messages per recipient (quorum fan-out, network
//! duplication, retransmission), and a shared buffer makes each of
//! those clones a reference-count bump instead of a heap copy.

use std::sync::Arc;

use wanacl_auth::rsa::Signature;
use wanacl_auth::signed::{AuthEncode, AuthSink};
use wanacl_sim::node::NodeId;
use wanacl_sim::time::SimDuration;

use crate::types::{AppId, Right, ShardId, UserId};

/// A request identifier, unique per issuing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl std::fmt::Display for ReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Globally unique id of an ACL update operation: a Lamport timestamp
/// plus the originating manager as tie-breaker.
///
/// Managers apply operations to each `(app, user, right)` slot in
/// `(seq, origin)` order (last-writer-wins), so concurrent conflicting
/// operations issued at different managers resolve identically
/// everywhere — a detail the paper leaves implicit in its "method exists
/// for instantaneously updating the access control information"
/// assumption (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId {
    /// The manager the operation was issued at.
    pub origin: NodeId,
    /// The originating manager's Lamport timestamp.
    pub seq: u64,
}

impl Ord for OpId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lamport order: timestamp first, origin breaks ties.
        (self.seq, self.origin).cmp(&(other.seq, other.origin))
    }
}

impl PartialOrd for OpId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op({},{})", self.origin, self.seq)
    }
}

/// The origin's index as a big-endian `u32`, then the sequence number.
impl AuthEncode for OpId {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        (self.origin.index() as u32).auth_encode(out);
        self.seq.auth_encode(out);
    }
}

/// An access-control update (§2.3's `Add` and `Revoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AclOp {
    /// `Add(A, U, R)`: grant right `R` on application `A` to user `U`.
    Add {
        /// The application.
        app: AppId,
        /// The user gaining the right.
        user: UserId,
        /// The right granted.
        right: Right,
    },
    /// `Revoke(A, U, R)`: remove right `R` on `A` from `U`.
    Revoke {
        /// The application.
        app: AppId,
        /// The user losing the right.
        user: UserId,
        /// The right revoked.
        right: Right,
    },
}

impl AclOp {
    /// The application the operation targets.
    pub fn app(&self) -> AppId {
        match *self {
            AclOp::Add { app, .. } | AclOp::Revoke { app, .. } => app,
        }
    }

    /// The user the operation targets.
    pub fn user(&self) -> UserId {
        match *self {
            AclOp::Add { user, .. } | AclOp::Revoke { user, .. } => user,
        }
    }

    /// The right the operation targets.
    pub fn right(&self) -> Right {
        match *self {
            AclOp::Add { right, .. } | AclOp::Revoke { right, .. } => right,
        }
    }

    /// Whether this is a revocation.
    pub fn is_revoke(&self) -> bool {
        matches!(self, AclOp::Revoke { .. })
    }
}

impl std::fmt::Display for AclOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AclOp::Add { app, user, right } => write!(f, "Add({app},{user},{right})"),
            AclOp::Revoke { app, user, right } => write!(f, "Revoke({app},{user},{right})"),
        }
    }
}

impl AuthEncode for AclOp {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        match self {
            AclOp::Add { app, user, right } => {
                out.put(&[0]);
                app.auth_encode(out);
                user.auth_encode(out);
                right.auth_encode(out);
            }
            AclOp::Revoke { app, user, right } => {
                out.put(&[1]);
                app.auth_encode(out);
                user.auth_encode(out);
                right.auth_encode(out);
            }
        }
    }
}

/// A manager's answer to an access-check query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryVerdict {
    /// The user holds the right; the cached entry may live for `te` units
    /// of the *host's* local clock (already scaled by the rate bound `b`).
    Grant {
        /// The expiration budget `te`.
        te: SimDuration,
    },
    /// The user does not hold the right.
    Deny,
    /// The manager cannot answer right now (e.g. it is recovering and
    /// its state is stale). Unlike `Deny`, this is **not** a veto: the
    /// host should treat it as retryable and query another manager.
    Unavailable {
        /// Why the manager refused to answer.
        reason: RejectReason,
    },
}

/// A kind byte — deny 0, grant 1, unavailable 2 — then a grant's `te`
/// in nanoseconds or an unavailable answer's reason.
impl AuthEncode for QueryVerdict {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        match self {
            QueryVerdict::Grant { te } => {
                out.put(&[1]);
                te.as_nanos().auth_encode(out);
            }
            QueryVerdict::Deny => out.put(&[0]),
            QueryVerdict::Unavailable { reason } => {
                out.put(&[2]);
                reason.auth_encode(out);
            }
        }
    }
}

/// The outcome a host reports to the invoking user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// Access allowed; carries the wrapped application's response.
    Allowed {
        /// The application-level response body (shared, cheap to clone).
        response: Arc<str>,
    },
    /// A manager definitively denied the right.
    Denied,
    /// No check quorum could be reached within `R` attempts and the
    /// policy fails closed.
    Unavailable,
    /// The request's signature did not verify.
    BadSignature,
}

/// Outcome of an admin operation, reported by the receiving manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminStatus {
    /// Applied at the receiving manager; dissemination in progress.
    Applied,
    /// An update quorum (`M − C + 1` managers) has applied the operation:
    /// the `Te` revocation clock is now guaranteed (§3.3).
    Stable,
    /// The manager refused the operation.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

/// Why a manager refused an admin operation. The discriminant is the
/// reason's canonical byte; 3 was `UnknownApp`, retired: an unserved app
/// is an unknown shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// The issuer does not hold the `manage` right for the application.
    NotAuthorized = 0,
    /// The operation's signature did not verify.
    BadSignature = 1,
    /// The manager is recovering and has not yet synchronized state.
    Recovering = 2,
    /// No shard this manager serves covers the request's `(app, user
    /// bucket)` — an unserved app, or a misrouted request from a stale
    /// shard map. Retryable: another manager set may own the shard.
    UnknownShard = 4,
    /// The shard was handed off to another manager set; the sender
    /// should refresh its shard map and retry there.
    ShardMoved = 5,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NotAuthorized => write!(f, "issuer lacks manage right"),
            RejectReason::BadSignature => write!(f, "bad signature"),
            RejectReason::Recovering => write!(f, "manager recovering"),
            RejectReason::UnknownShard => write!(f, "unknown shard"),
            RejectReason::ShardMoved => write!(f, "shard handed off"),
        }
    }
}

impl AuthEncode for RejectReason {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&[*self as u8]);
    }
}

/// Every message of the protocol.
///
/// One enum (rather than per-channel types) because the simulated network
/// carries a single message type per world; the variants document which
/// role sends them.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoMsg {
    // ---- user -> host ----
    /// `Invoke(A)` (§2.3): a user asks a host to run the application.
    Invoke {
        /// Target application.
        app: AppId,
        /// The invoking user.
        user: UserId,
        /// The user's request id (echoed in the reply).
        req: ReqId,
        /// Application-level request body (shared, cheap to clone).
        payload: Arc<str>,
        /// RSA signature over the invoke (absent when the deployment
        /// runs without message authentication).
        signature: Option<Signature>,
    },
    // ---- host -> user ----
    /// The host's answer to an `Invoke`.
    InvokeReply {
        /// Echo of the request id.
        req: ReqId,
        /// What happened.
        outcome: InvokeOutcome,
    },
    // ---- host -> manager ----
    /// An access-check query (Figure 2/3's "send query to a manager").
    Query {
        /// Target application.
        app: AppId,
        /// The user whose right is checked.
        user: UserId,
        /// The host's query id (scoped to one attempt).
        req: ReqId,
    },
    // ---- manager -> host ----
    /// The manager's answer to a `Query`.
    QueryReply {
        /// Echo of the query id.
        req: ReqId,
        /// Target application.
        app: AppId,
        /// The user checked.
        user: UserId,
        /// Grant (with `te`) or deny.
        verdict: QueryVerdict,
        /// HMAC channel tag (present when the deployment authenticates
        /// the host↔manager channel; see [`crate::channel`]).
        mac: Option<wanacl_auth::hmac::Tag>,
    },
    /// Explicit revocation forwarded to a caching host (§3.1: "the
    /// manager forwards it to all hosts to which it has granted access").
    RevokeNotice {
        /// Target application.
        app: AppId,
        /// The user whose cached right must be flushed.
        user: UserId,
        /// HMAC channel tag, as for `QueryReply`.
        mac: Option<wanacl_auth::hmac::Tag>,
    },
    // ---- admin -> manager ----
    /// An `Add`/`Revoke` issued by a manager-principal (§2.3).
    Admin {
        /// The operation.
        op: AclOp,
        /// The issuer's request id (echoed in replies).
        req: ReqId,
        /// Who issues it (must hold `manage` on the app).
        issuer: UserId,
        /// RSA signature over `(issuer, op)`, if authentication is on.
        signature: Option<Signature>,
    },
    // ---- manager -> admin ----
    /// Progress reports for an admin operation (`Applied`, then `Stable`
    /// once the update quorum is reached).
    AdminReply {
        /// Echo of the request id.
        req: ReqId,
        /// Progress.
        status: AdminStatus,
    },
    // ---- manager <-> manager ----
    /// Dissemination of an operation to peer managers (persistent: the
    /// origin retransmits until every peer acknowledges).
    Update {
        /// Operation id.
        id: OpId,
        /// The operation.
        op: AclOp,
    },
    /// Acknowledgement of an `Update`.
    UpdateAck {
        /// The acknowledged operation.
        id: OpId,
    },
    /// Liveness beacon between managers (drives the §3.3 freeze strategy
    /// and recovery detection).
    Heartbeat,
    /// A recovering (or freshly disk-restored) manager asks a peer for
    /// the operations it is missing (§3.4, delta form). The requester
    /// advertises what it already has; the peer answers with only the
    /// newer per-slot winners instead of a full state transfer.
    SyncRequest {
        /// Highest applied `(seq)` per origin manager — the requester's
        /// high-water marks. A peer whose own stamps are all covered can
        /// tell at a glance that the requester is current.
        stamps: Vec<(NodeId, u64)>,
        /// Per-slot last-writer marks the requester currently holds.
        /// These refine the stamps: an origin's sequence range can have
        /// gaps after crashes, so slot marks — not stamps — decide which
        /// winners the peer must resend.
        slots: Vec<(AppId, UserId, Right, OpId)>,
    },
    /// Delta answering a `SyncRequest`: just the slot-winning operations
    /// the requester is behind on.
    SyncResponse {
        /// Winning `(id, op)` per slot where the sender is strictly newer
        /// than the requester's advertised mark (or the requester had no
        /// mark at all).
        ops: Vec<(OpId, AclOp)>,
        /// The sender's own per-origin high-water marks, merged by the
        /// requester for its next delta round.
        stamps: Vec<(NodeId, u64)>,
    },
    // ---- host <-> directory replica ----
    /// Who manages `app`? (§3.2's name service.)
    NsQuery {
        /// The application looked up.
        app: AppId,
    },
    /// A directory replica's answer to an `NsQuery`: a versioned,
    /// writer-signed shard-map record with a time-to-live after which
    /// the host must re-query (the paper's "scheme similar to the
    /// time-based expiration of cached information"). Hosts collect
    /// these from a read quorum and install the freshest version whose
    /// signature verifies.
    NsRecordReply {
        /// The application looked up.
        app: AppId,
        /// How long the host may rely on the answer (host local clock).
        ttl: SimDuration,
        /// The record held, boxed to keep `size_of::<ProtoMsg>()` small;
        /// `None` is the negative (version-0) answer, served with a
        /// capped TTL.
        record: Option<Box<NsRecord>>,
    },
    // ---- writer/env -> directory replica, replica -> replica ----
    /// A signed directory-record publish: the namespace writer installs
    /// a new manager-set version at a replica (replicas also push
    /// accepted records to peers with this message). The replica
    /// verifies the signature and the version before accepting.
    NsPublish {
        /// The record (boxed to keep `size_of::<ProtoMsg>()` small).
        record: Box<NsRecord>,
    },
    // ---- replica <-> replica ----
    /// Anti-entropy probe: the sender advertises the versions it holds;
    /// the peer answers with every record it has that is strictly newer.
    NsSyncRequest {
        /// `(app, version)` pairs the sender currently holds.
        versions: Vec<(AppId, u64)>,
    },
    /// Delta answering an `NsSyncRequest` with strictly-newer records.
    /// Receivers re-verify every signature before storing, so a
    /// compromised peer cannot poison the directory through sync.
    NsSyncResponse {
        /// The newer records.
        records: Vec<NsRecord>,
    },
    // ---- env -> manager (rebalance kickoff) ----
    /// Starts an online shard handoff. The deployment injects this to
    /// every current owner (source) and every incoming owner (target) of
    /// the shard; the pre-signed next-version record doubles as the
    /// transfer capability — a manager acts on the handoff only if the
    /// record verifies against the namespace-writer trust anchor.
    /// Frozen sources also retransmit it to the other participants, so a
    /// partition that swallowed the kickoff does not strand the handoff.
    ShardHandoff {
        /// The shard being moved.
        shard: ShardId,
        /// Handoff epoch (the new shard-map record's version).
        epoch: u64,
        /// The pre-signed next-version shard-map record, published to
        /// the directory once the handoff completes. Boxed so the rare
        /// rebalance kickoff does not inflate `size_of::<ProtoMsg>()`
        /// for every queued message on the hot path.
        record: Box<NsRecord>,
        /// The incoming owner set.
        targets: Vec<NodeId>,
        /// Directory replicas the completed handoff publishes to.
        publish_to: Vec<NodeId>,
    },
    // ---- source manager -> target manager ----
    /// Snapshot-plus-WAL-tail state transfer for one shard: every
    /// per-slot winning operation in the shard's bucket range, as held
    /// by the (frozen) source. Retransmitted until acknowledged.
    ShardTransfer {
        /// The shard being moved.
        shard: ShardId,
        /// Handoff epoch.
        epoch: u64,
        /// The application the shard belongs to.
        app: AppId,
        /// The winning `(id, op)` per slot in the shard's range.
        ops: Vec<(OpId, AclOp)>,
        /// Order-sensitive FNV-1a digest over the ops — the receiver
        /// recomputes it over what it actually applied, and the oracle's
        /// rebalance-safety invariant compares the two sides.
        digest: u64,
    },
    // ---- target manager -> source manager ----
    /// Acknowledges a `ShardTransfer` (idempotent; dupes re-ack).
    ShardTransferAck {
        /// The shard being moved.
        shard: ShardId,
        /// Handoff epoch.
        epoch: u64,
    },
    // ---- source manager -> handoff primary ----
    /// A source reports that every target acked its transfer and that it
    /// has durably released the shard (it no longer answers checks or
    /// accepts updates for it). Retransmitted until acknowledged.
    ShardReleased {
        /// The shard being moved.
        shard: ShardId,
        /// Handoff epoch.
        epoch: u64,
    },
    /// Acknowledges a `ShardReleased`.
    ShardReleasedAck {
        /// The shard being moved.
        shard: ShardId,
        /// Handoff epoch.
        epoch: u64,
    },
    // ---- handoff primary -> target manager ----
    /// Every source has released: targets may start serving checks and
    /// accepting updates for the shard. Retransmitted until acknowledged.
    ShardActivate {
        /// The shard being moved.
        shard: ShardId,
        /// Handoff epoch.
        epoch: u64,
    },
    /// Acknowledges a `ShardActivate`.
    ShardActivateAck {
        /// The shard being moved.
        shard: ShardId,
        /// Handoff epoch.
        epoch: u64,
    },
    // ---- released manager -> current owner ----
    /// An admin operation relayed by a manager that has released the
    /// shard it targets. Carries the original issuer's node so the new
    /// owner replies straight to the admin agent (which matches replies
    /// by request id, not sender). The admin signature still travels
    /// with the op, so the relay adds no authority.
    AdminForward {
        /// The node that issued the original `Admin`.
        origin: NodeId,
        /// The operation.
        op: AclOp,
        /// The issuer's request id.
        req: ReqId,
        /// Who issued it.
        issuer: UserId,
        /// RSA signature over `(issuer, op)`, if authentication is on.
        signature: Option<Signature>,
    },
}

/// One shard of a partitioned application keyspace: a contiguous range
/// of [`crate::types::user_bucket`] values served by its own manager
/// set with independent check/update quorums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The shard's global id.
    pub shard: ShardId,
    /// First bucket the shard covers (inclusive).
    pub lo: u8,
    /// Last bucket the shard covers (inclusive).
    pub hi: u8,
    /// The managers serving the shard.
    pub managers: Vec<NodeId>,
}

impl ShardEntry {
    /// The one shard of an application served whole by `managers` —
    /// the paper's deployment (§3.2), and every flat one here: shard id
    /// `app`, buckets `0..=255`.
    pub fn whole_keyspace(app: AppId, managers: Vec<NodeId>) -> ShardEntry {
        ShardEntry { shard: ShardId(app.0), lo: 0, hi: u8::MAX, managers }
    }

    /// Whether the entry's bucket range covers `bucket`.
    pub fn covers(&self, bucket: u8) -> bool {
        bucket >= self.lo && bucket <= self.hi
    }
}

/// Every manager the entries name, in first-appearance order.
pub fn managers_of(entries: &[ShardEntry]) -> Vec<NodeId> {
    let mut managers: Vec<NodeId> = Vec::new();
    for &m in entries.iter().flat_map(|e| &e.managers) {
        if !managers.contains(&m) {
            managers.push(m);
        }
    }
    managers
}

impl std::fmt::Display for ShardEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Rendered straight into the formatter: no per-manager Strings
        // or join vector on audit paths that print shard maps.
        write!(f, "{}[{}..={}]->{{", self.shard, self.lo, self.hi)?;
        for (i, m) in self.managers.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{}", m.index())?;
        }
        f.write_str("}")
    }
}

/// A replicated directory record: the shard map of an application —
/// which managers serve which bucket range of its keyspace — stamped
/// with a monotone version and signed by the namespace writer. A flat
/// deployment's record is one [`ShardEntry::whole_keyspace`] entry.
/// TTLs are replica-side serving policy, not part of the record, so a
/// record stays verifiable as it propagates between replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsRecord {
    /// The application the record describes.
    pub app: AppId,
    /// Monotone version stamp (higher wins everywhere).
    pub version: u64,
    /// The shard map.
    pub shards: Vec<ShardEntry>,
    /// Writer signature over the record's canonical bytes.
    pub signature: Signature,
}

impl NsRecord {
    /// Builds a record signed by `writer` over its canonical bytes.
    pub fn signed(
        app: AppId,
        version: u64,
        shards: Vec<ShardEntry>,
        writer: wanacl_auth::signed::PrincipalId,
        key: &wanacl_auth::rsa::SecretKey,
    ) -> NsRecord {
        let mut record = NsRecord { app, version, shards, signature: Signature(0) };
        record.signature = wanacl_auth::signed::sign_bytes(writer, &NsSigning(&record), key);
        record
    }

    /// Every manager the record names, in first-appearance order.
    pub fn managers(&self) -> Vec<NodeId> {
        managers_of(&self.shards)
    }

    /// Verifies the record against the writer's registered key, hashing
    /// its canonical bytes as they are encoded.
    pub fn verify(
        &self,
        registry: &wanacl_auth::signed::KeyRegistry,
        writer: wanacl_auth::signed::PrincipalId,
    ) -> bool {
        wanacl_auth::signed::verify_bytes(registry, writer, &NsSigning(self), &self.signature)
    }
}

/// A directory record as its writer's signature covers it: every field
/// but the signature. The writer principal is bound by the
/// detached-signature discipline ([`wanacl_auth::signed::sign_bytes`]
/// prepends the signer id), so the body binds `(app, version)` and every
/// entry's shard, bucket range and managers, each list behind its length.
struct NsSigning<'a>(&'a NsRecord);

impl AuthEncode for NsSigning<'_> {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        let NsRecord { app, version, shards, .. } = self.0;
        app.auth_encode(out);
        version.auth_encode(out);
        (shards.len() as u64).auth_encode(out);
        for entry in shards {
            u64::from(entry.shard.0).auth_encode(out);
            out.put(&[entry.lo, entry.hi]);
            (entry.managers.len() as u64).auth_encode(out);
            for m in &entry.managers {
                (m.index() as u64).auth_encode(out);
            }
        }
    }
}

/// An admin operation as its signature covers it: the issuer, then the
/// op's kind, app, user and right. A client signs its
/// [`AuthEncode::auth_bytes`] ([`admin_signing_bytes`]); a manager hashes
/// the same encoding as it is written
/// ([`wanacl_auth::signed::KeyRegistry::verify`]).
pub(crate) struct AdminSigning<'a> {
    pub(crate) issuer: UserId,
    pub(crate) op: &'a AclOp,
}

impl AuthEncode for AdminSigning<'_> {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        self.issuer.auth_encode(out);
        self.op.auth_encode(out);
    }
}

/// An invoke request as its signature covers it: user, app, request id,
/// then the payload behind its length. A client signs its
/// [`AuthEncode::auth_bytes`] ([`invoke_signing_bytes`]); a host hashes
/// the same encoding as it is written.
pub(crate) struct InvokeSigning<'a> {
    pub(crate) user: UserId,
    pub(crate) app: AppId,
    pub(crate) req: ReqId,
    pub(crate) payload: &'a str,
}

impl AuthEncode for InvokeSigning<'_> {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        self.user.auth_encode(out);
        self.app.auth_encode(out);
        self.req.0.auth_encode(out);
        self.payload.auth_encode(out);
    }
}

/// Canonical bytes signed for an admin operation.
pub fn admin_signing_bytes(issuer: UserId, op: &AclOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 1 + 4 + 8 + 1);
    AdminSigning { issuer, op }.auth_encode(&mut out);
    out
}

/// Canonical bytes signed for an invoke request.
pub fn invoke_signing_bytes(user: UserId, app: AppId, req: ReqId, payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 8 + 8 + payload.len());
    InvokeSigning { user, app, req, payload }.auth_encode(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wanacl_auth::sha256::{Digest, Sha256};

    /// The digest of `message`'s encoding, hashed as it is written.
    fn streamed(message: &impl AuthEncode) -> Digest {
        let mut hasher = Sha256::new();
        message.auth_encode(&mut hasher);
        hasher.finish()
    }

    proptest! {
        #[test]
        fn streamed_invoke_digest_is_the_digest_of_the_signed_bytes(
            user in any::<u64>(),
            app in any::<u32>(),
            req in any::<u64>(),
            // 28 bytes lead the payload: lengths 0..=150 end in the
            // first, second and third block, and on their edges.
            payload in ".{0,150}",
        ) {
            let (user, app, req) = (UserId(user), AppId(app), ReqId(req));
            let bytes = invoke_signing_bytes(user, app, req, &payload);
            let signed = InvokeSigning { user, app, req, payload: &payload };
            prop_assert_eq!(streamed(&signed), Digest::of(&bytes));
            prop_assert_eq!(signed.auth_bytes(), bytes);
        }

        #[test]
        fn streamed_admin_digest_is_the_digest_of_the_signed_bytes(
            issuer in any::<u64>(),
            app in any::<u32>(),
            user in any::<u64>(),
            revoke in any::<bool>(),
            manage in any::<bool>(),
        ) {
            let right = if manage { Right::Manage } else { Right::Use };
            let (app, user) = (AppId(app), UserId(user));
            let op = if revoke { AclOp::Revoke { app, user, right } } else { AclOp::Add { app, user, right } };
            let bytes = admin_signing_bytes(UserId(issuer), &op);
            prop_assert_eq!(streamed(&AdminSigning { issuer: UserId(issuer), op: &op }), Digest::of(&bytes));
        }
    }

    #[test]
    fn a_registry_checks_invoke_and_admin_signatures_as_rsa_verify_does() {
        use rand::SeedableRng;
        use wanacl_auth::rsa;
        let mut registry = wanacl_auth::signed::KeyRegistry::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let user = UserId(9);
        let keys = registry.enroll(user.into(), &mut rng);
        for len in [0usize, 35, 36, 37, 99, 100, 101] {
            let payload = "p".repeat(len);
            let bytes = invoke_signing_bytes(user, AppId(3), ReqId(4), &payload);
            let sig = rsa::sign(&keys.secret, &bytes);
            let signed = InvokeSigning { user, app: AppId(3), req: ReqId(4), payload: &payload };
            assert!(registry.verify(user.into(), &signed, &sig), "len {len}");
            assert!(rsa::verify(&keys.public, &bytes, &sig), "len {len}");
            let other = InvokeSigning { req: ReqId(5), ..signed };
            assert!(!registry.verify(user.into(), &other, &sig), "len {len}");
            assert!(!registry.verify(UserId(10).into(), &signed, &sig), "unknown signer");
        }
        let sig = rsa::sign(&keys.secret, &admin_signing_bytes(user, &add()));
        assert!(registry.verify(user.into(), &AdminSigning { issuer: user, op: &add() }, &sig));
        assert!(!registry.verify(user.into(), &AdminSigning { issuer: user, op: &revoke() }, &sig));
    }

    fn add() -> AclOp {
        AclOp::Add { app: AppId(1), user: UserId(2), right: Right::Use }
    }

    fn revoke() -> AclOp {
        AclOp::Revoke { app: AppId(1), user: UserId(2), right: Right::Use }
    }

    #[test]
    fn op_accessors() {
        assert_eq!(add().app(), AppId(1));
        assert_eq!(add().user(), UserId(2));
        assert_eq!(add().right(), Right::Use);
        assert!(!add().is_revoke());
        assert!(revoke().is_revoke());
    }

    #[test]
    fn op_display() {
        assert_eq!(add().to_string(), "Add(app1,u2,use)");
        assert_eq!(revoke().to_string(), "Revoke(app1,u2,use)");
    }

    #[test]
    fn add_and_revoke_encode_differently() {
        assert_ne!(add().auth_bytes(), revoke().auth_bytes());
    }

    #[test]
    fn signing_bytes_bind_all_fields() {
        let base = admin_signing_bytes(UserId(1), &add());
        assert_ne!(base, admin_signing_bytes(UserId(2), &add()));
        assert_ne!(base, admin_signing_bytes(UserId(1), &revoke()));

        let inv = invoke_signing_bytes(UserId(1), AppId(1), ReqId(1), "x");
        assert_ne!(inv, invoke_signing_bytes(UserId(2), AppId(1), ReqId(1), "x"));
        assert_ne!(inv, invoke_signing_bytes(UserId(1), AppId(2), ReqId(1), "x"));
        assert_ne!(inv, invoke_signing_bytes(UserId(1), AppId(1), ReqId(2), "x"));
        assert_ne!(inv, invoke_signing_bytes(UserId(1), AppId(1), ReqId(1), "y"));

        // The lengths both builders reserve up front.
        assert_eq!(base.len(), 8 + 1 + 4 + 8 + 1);
        assert_eq!(inv.len(), 8 + 4 + 8 + 8 + "x".len());
    }

    #[test]
    fn ids_display() {
        assert_eq!(ReqId(5).to_string(), "r5");
        let op = OpId { origin: NodeId::from_index(2), seq: 9 };
        assert_eq!(op.to_string(), "op(n2,9)");
    }

    #[test]
    fn op_ids_order_by_lamport_then_origin() {
        let a = OpId { origin: NodeId::from_index(5), seq: 1 };
        let b = OpId { origin: NodeId::from_index(0), seq: 2 };
        let c = OpId { origin: NodeId::from_index(1), seq: 2 };
        assert!(a < b, "lower timestamp loses");
        assert!(b < c, "origin breaks timestamp ties");
    }

    #[test]
    fn verdicts_and_outcomes_compare() {
        assert_eq!(
            QueryVerdict::Grant { te: SimDuration::from_secs(1) },
            QueryVerdict::Grant { te: SimDuration::from_secs(1) }
        );
        assert_ne!(QueryVerdict::Deny, QueryVerdict::Grant { te: SimDuration::ZERO });
        assert_ne!(
            QueryVerdict::Deny,
            QueryVerdict::Unavailable { reason: RejectReason::Recovering },
            "an unavailable manager must not read as a veto"
        );
        assert_ne!(
            InvokeOutcome::Denied,
            InvokeOutcome::Allowed { response: "".into() }
        );
    }

    #[test]
    fn reject_reasons_display() {
        for r in [
            RejectReason::NotAuthorized,
            RejectReason::BadSignature,
            RejectReason::Recovering,
            RejectReason::UnknownShard,
            RejectReason::ShardMoved,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    fn entry(shard: u32, lo: u8, hi: u8, mgrs: &[usize]) -> ShardEntry {
        ShardEntry {
            shard: crate::types::ShardId(shard),
            lo,
            hi,
            managers: mgrs.iter().map(|&i| NodeId::from_index(i)).collect(),
        }
    }

    #[test]
    fn ns_record_signing_bytes_bind_all_fields() {
        let bytes = |app, version, shards: &[ShardEntry]| {
            let record = NsRecord { app: AppId(app), version, shards: shards.to_vec(), signature: Signature(0) };
            NsSigning(&record).auth_bytes()
        };
        let base = bytes(1, 3, &[entry(0, 0, 255, &[0, 1])]);
        assert_ne!(base, bytes(2, 3, &[entry(0, 0, 255, &[0, 1])]));
        assert_ne!(base, bytes(1, 4, &[entry(0, 0, 255, &[0, 1])]));
        assert_ne!(base, bytes(1, 3, &[entry(1, 0, 255, &[0, 1])]));
        assert_ne!(base, bytes(1, 3, &[entry(0, 1, 255, &[0, 1])]));
        assert_ne!(base, bytes(1, 3, &[entry(0, 0, 254, &[0, 1])]));
        assert_ne!(base, bytes(1, 3, &[entry(0, 0, 255, &[0])]));
        assert_ne!(base, bytes(1, 3, &[entry(0, 0, 255, &[1, 0])]), "manager order is identity");
        assert_ne!(base, bytes(1, 3, &[]));
        // Lengths delimit: moving a manager across an entry boundary
        // changes the bytes.
        assert_ne!(
            bytes(1, 3, &[entry(0, 0, 127, &[0, 1]), entry(1, 128, 255, &[2])]),
            bytes(1, 3, &[entry(0, 0, 127, &[0]), entry(1, 128, 255, &[1, 2])]),
        );
    }

    #[test]
    fn sharded_record_unions_managers_in_order() {
        use rand::SeedableRng;
        let mut registry = wanacl_auth::signed::KeyRegistry::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let writer = wanacl_auth::signed::PrincipalId(42);
        let kp = registry.enroll(writer, &mut rng);
        let rec = NsRecord::signed(
            AppId(0),
            1,
            vec![entry(0, 0, 127, &[2, 3]), entry(1, 128, 255, &[3, 4])],
            writer,
            &kp.secret,
        );
        let union: Vec<NodeId> = [2, 3, 4].iter().map(|&i| NodeId::from_index(i)).collect();
        assert_eq!(rec.managers(), union);
        assert!(rec.verify(&registry, writer));
        // Dropping an entry invalidates the signature.
        let mut stripped = rec.clone();
        stripped.shards.pop();
        assert!(!stripped.verify(&registry, writer));
    }

    #[test]
    fn shard_entry_covers_inclusive_range() {
        let e = entry(0, 10, 20, &[0]);
        assert!(e.covers(10) && e.covers(20) && e.covers(15));
        assert!(!e.covers(9) && !e.covers(21));
        assert_eq!(e.to_string(), "shard0[10..=20]->{0}");
        let whole = ShardEntry::whole_keyspace(AppId(3), vec![NodeId::from_index(1)]);
        assert!(whole.covers(0) && whole.covers(255));
        assert_eq!(whole.to_string(), "shard3[0..=255]->{1}");
    }
}
