//! The host's directory reader (§3.2): where one application's shard map
//! comes from — fixed at deployment, or quorum reads of the replicated,
//! signed directory with TTL refresh and fail-closed expiry.

use std::collections::BTreeMap;
use std::sync::Arc;

use wanacl_auth::signed::{KeyRegistry, PrincipalId};
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId, TimerId};
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::SimDuration;

use crate::audit::AuditEvent;
use crate::msg::{managers_of, NsRecord, ProtoMsg, ShardEntry};
use crate::policy::Policy;
use crate::types::{user_bucket, AppId, UserId};

use super::{ManagerDirectory, TAG_NS, TAG_NSEXP};

/// The TTL-refresh delay: nominally 80% of the TTL, widened by a seeded
/// ±10% band so hosts whose records expire together do not re-query in
/// one synchronized storm.
fn jittered_refresh(ttl: SimDuration, rng: &mut SimRng) -> SimDuration {
    ttl.mul_f64(0.8 * (0.9 + 0.2 * rng.unit()))
}

/// Which directory records a host believes.
#[derive(Debug, Default)]
pub(super) struct NsTrust {
    /// The registry to verify against and the principal whose signature
    /// records must carry. `None` accepts records unverified
    /// (protocol-only runs).
    pub(super) anchor: Option<(Arc<KeyRegistry>, PrincipalId)>,
    /// Fault injection: skip record-signature verification (the planted
    /// bug the I7 oracle must catch).
    pub(super) unsigned: bool,
}

impl NsTrust {
    /// Whether `record` may answer a read for `app`.
    fn accepts(&self, ctx: &mut Context<'_, ProtoMsg>, app: AppId, record: &NsRecord) -> bool {
        self.unsigned
            || match &self.anchor {
                Some((registry, writer)) => record.app == app && record.verify(registry, *writer),
                // No trust anchor configured: accept, but leave a trace
                // that this deployment runs without record integrity.
                None => {
                    ctx.metric_incr(M::HOST_NS_UNVERIFIED);
                    true
                }
            }
    }
}

/// One verified directory reply: `(version, shards, ttl)`, version 0
/// and no shards for a negative answer.
type VerifiedReply = (u64, Vec<ShardEntry>, SimDuration);

#[derive(Debug)]
pub(super) struct DirectoryReader {
    directory: ManagerDirectory,
    /// The shard map checks route on: a user's check goes to the
    /// covering entry's managers. Empty — no record, or its TTL lapsed —
    /// fails every check closed.
    shards: Vec<ShardEntry>,
    /// Fault injection: the *stale shard map* fault. While set, fresher
    /// directory records are not installed — the host keeps routing on
    /// whatever map it already holds.
    pinned: bool,
    /// The quorum-read retry (or TTL-refresh) timer.
    timer: Option<TimerId>,
    /// Consecutive unanswered quorum reads; indexes the
    /// [`Policy::ns_retry_backoff`] schedule and resets on an install.
    round: u32,
    /// Verified replies collected during the current quorum read.
    replies: BTreeMap<NodeId, VerifiedReply>,
    /// When the current quorum read started (for the latency histogram).
    round_started: LocalTime,
    /// Whether a quorum read is in flight (armed but not yet installed).
    inflight: bool,
    /// Version stamp of the installed directory record (0 = none yet).
    version: u64,
    /// When the installed record's TTL runs out on the local clock.
    expires: Option<LocalTime>,
    /// The TTL-expiry timer for the installed record.
    expiry_timer: Option<TimerId>,
}

impl DirectoryReader {
    pub(super) fn new(app: AppId, directory: ManagerDirectory) -> Self {
        if let ManagerDirectory::Replicated { replicas, read_quorum } = &directory {
            assert!(
                *read_quorum >= 1 && *read_quorum <= replicas.len(),
                "read quorum must satisfy 1 <= q <= replicas"
            );
        }
        let mut reader = DirectoryReader {
            directory,
            shards: Vec::new(),
            pinned: false,
            timer: None,
            round: 0,
            replies: BTreeMap::new(),
            round_started: LocalTime::ZERO,
            inflight: false,
            version: 0,
            expires: None,
            expiry_timer: None,
        };
        reader.reset(app);
        reader
    }

    /// Forgets everything read (a crash): a static set is installed
    /// again, a replicated directory starts from no record.
    pub(super) fn reset(&mut self, app: AppId) {
        self.shards = match &self.directory {
            ManagerDirectory::Static(m) => vec![ShardEntry::whole_keyspace(app, m.to_vec())],
            ManagerDirectory::Replicated { .. } => Vec::new(),
        };
        self.timer = None;
        self.round = 0;
        self.replies.clear();
        self.inflight = false;
        self.version = 0;
        self.expires = None;
        self.expiry_timer = None;
    }

    pub(super) fn shards(&self) -> &[ShardEntry] {
        &self.shards
    }

    /// The entry a check for `user` routes on, if the map covers it.
    pub(super) fn route(&self, user: UserId) -> Option<&ShardEntry> {
        let bucket = user_bucket(user);
        self.shards.iter().find(|e| e.covers(bucket))
    }

    /// Whether the installed map names `node` as a manager.
    pub(super) fn names(&self, node: NodeId) -> bool {
        self.shards.iter().any(|e| e.managers.contains(&node))
    }

    pub(super) fn version(&self) -> u64 {
        self.version
    }

    pub(super) fn pin(&mut self) {
        self.pinned = true;
    }

    /// Starts reading a replicated directory (a start or a recovery).
    pub(super) fn arm(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId, policy: &Policy) {
        if matches!(self.directory, ManagerDirectory::Replicated { .. }) {
            self.round = 0;
            self.start_round(ctx, app, policy);
        }
    }

    /// Starts one quorum-read round against a replicated directory:
    /// fans an `NsQuery` to every replica, clears the reply set, and
    /// arms the capped-backoff retry timer for the round.
    fn start_round(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId, policy: &Policy) {
        let ManagerDirectory::Replicated { replicas, .. } = &self.directory else { return };
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.metric_incr(M::NS_READ_ROUNDS);
        self.replies.clear();
        self.round_started = ctx.local_now();
        self.inflight = true;
        for r in replicas {
            ctx.send(*r, ProtoMsg::NsQuery { app });
        }
        let retry = policy.ns_retry_backoff().delay(self.round, ctx.rng());
        self.round = self.round.saturating_add(1);
        self.timer = Some(ctx.set_timer(retry, TAG_NS | u64::from(app.0)));
    }

    /// One replica answered a quorum read. Verifies the record
    /// signature, collects the reply, and — once `read_quorum` verified
    /// answers are in — installs the freshest version among them.
    pub(super) fn on_reply(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        app: AppId,
        ttl: SimDuration,
        record: Option<Box<NsRecord>>,
        trust: &NsTrust,
    ) {
        // Only configured replicas may vote; anyone else guessing at the
        // protocol (§2.1 failure model) is ignored.
        let quorum = match &self.directory {
            ManagerDirectory::Replicated { replicas, read_quorum } if replicas.contains(&from) => *read_quorum,
            _ => {
                ctx.metric_incr(M::HOST_NS_REPLY_UNTRUSTED);
                return;
            }
        };
        if !self.inflight {
            // A straggler from an already-settled round.
            ctx.metric_incr(M::HOST_LATE_REPLY);
            return;
        }
        // Negative answers carry no record; a record must verify against
        // the trust anchor, and describe the app asked about.
        let reply = match record {
            None => (0, Vec::new(), ttl),
            Some(record) if trust.accepts(ctx, app, &record) => (record.version, record.shards, ttl),
            Some(_) => {
                ctx.metric_incr(M::HOST_NS_REJECT_BAD_SIG);
                return;
            }
        };
        self.replies.insert(from, reply);
        if self.replies.len() >= quorum {
            self.install(ctx, app, quorum);
        }
    }

    /// A quorum of verified replies is in: freshest-version-wins.
    fn install(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId, quorum: usize) {
        let acks = self.replies.len();
        // Move the winning reply out instead of cloning it: the round is
        // settled, so the reply buffer is discarded anyway.
        let best = std::mem::take(&mut self.replies).into_values().max_by_key(|(v, _, _)| *v);
        let Some((version, shards, ttl)) = best else { return };
        self.inflight = false;
        self.round = 0;
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.metric_observe(M::NS_LOOKUP_LATENCY_S, ctx.local_now().since(self.round_started).as_secs_f64());
        if version < self.version {
            // The quorum's freshest answer is older than what we hold —
            // e.g. every reachable replica is stale. Never roll the view
            // back: keep the installed record on its original TTL.
            ctx.metric_incr(M::NS_STALE_QUORUM);
        } else if self.pinned && self.version > 0 && version > self.version {
            // Stale-shard-map fault: deliberately keep routing on the
            // old map. The oracle must stay clean — safety can never
            // depend on hosts refreshing promptly.
            ctx.metric_incr(M::HOST_NS_PINNED);
        } else {
            self.shards = shards;
            self.version = version;
            self.expires = Some(ctx.local_now().plus(ttl));
            if let Some(t) = self.expiry_timer.take() {
                ctx.cancel_timer(t);
            }
            self.expiry_timer = Some(ctx.set_timer(ttl, TAG_NSEXP | u64::from(app.0)));
            ctx.metric_incr(M::NS_INSTALLS);
            let managers = &self.shards;
            ctx.trace_record(|| AuditEvent::NsInstall {
                app,
                version,
                acks,
                quorum,
                managers: managers_of(managers).into_iter().collect(),
                ttl,
            });
        }
        // Re-query shortly before the TTL runs out, jittered so hosts
        // sharing a TTL don't re-query in lockstep.
        let refresh = jittered_refresh(ttl, ctx.rng());
        self.timer = Some(ctx.set_timer(refresh, TAG_NS | u64::from(app.0)));
    }

    /// The quorum-read retry timer fired. Either this is the scheduled
    /// TTL refresh (no round in flight) or the previous round failed to
    /// reach its quorum — count the timeout, note degraded mode if a
    /// live record is carrying us, and start the next round under the
    /// capped backoff.
    pub(super) fn on_round_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId, policy: &Policy) {
        self.timer = None;
        if self.inflight {
            ctx.metric_incr(M::NS_READ_TIMEOUT);
            let live = self.expires.is_some_and(|e| ctx.local_now() < e);
            if live && self.version > 0 {
                // Graceful degradation: the quorum is unreachable but the
                // last-known-good record has TTL left — keep serving it.
                ctx.metric_incr(M::NS_DEGRADED_ROUNDS);
                let version = self.version;
                ctx.trace_record(|| AuditEvent::NsDegraded { app, version });
            }
        }
        self.start_round(ctx, app, policy);
    }

    /// The installed record's TTL ran out without a successful refresh:
    /// the shard map reverts to empty (fail-closed through the
    /// empty-manager-view path) until a quorum read lands again.
    pub(super) fn on_expiry_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId) {
        self.expiry_timer = None;
        let Some(expires) = self.expires else { return };
        if ctx.local_now() < expires {
            return; // superseded by a fresher install; its timer is armed
        }
        ctx.metric_incr(M::NS_RECORD_EXPIRED);
        let version = self.version;
        ctx.trace_record(|| AuditEvent::NsExpire { app, version });
        self.expires = None;
        self.shards.clear();
    }
}
