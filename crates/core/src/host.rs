//! The application-host side of the protocol (Figures 2–4 plus the check
//! quorum of §3.3).
//!
//! A [`HostNode`] wraps one or more applications (Figure 1). For each
//! arriving `Invoke` it:
//!
//! 1. authenticates the request (if the deployment runs with signatures),
//! 2. consults the per-application [`AclCache`], honouring the
//!    time-based expiration of §3.2,
//! 3. on a miss, runs the check protocol: query managers, collect a
//!    check quorum of `C` grants (any deny vetoes), retrying up to `R`
//!    attempts with per-attempt timeouts, and finally applying the
//!    fail-open/fail-closed policy of Figure 4,
//! 4. caches a granted right until `query_start + te` on its local clock
//!    (the `δ` adjustment of §3.2), and
//! 5. flushes cache entries when a manager forwards a `RevokeNotice`.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use wanacl_auth::rsa;
use wanacl_auth::signed::{KeyRegistry, PrincipalId};
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId, TimerId};
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::SimDuration;

use crate::audit::{AllowPath, AuditEvent};
use crate::cache::{AclCache, CacheDecision};
use crate::channel::ChannelEnd;
use crate::msg::{
    invoke_signing_bytes, managers_of, InvokeOutcome, NsRecord, ProtoMsg, QueryVerdict, ReqId,
    ShardEntry,
};
use crate::policy::{ExhaustionBehavior, Policy, QueryFanout};
use crate::types::{user_bucket, AppId, UserId};
use crate::wrapper::Application;

/// `shard.N.checks`, indexed by [`crate::types::ShardId::metric`].
const SHARD_CHECK_METRICS: [M; 9] = [
    M::SHARD_0_CHECKS,
    M::SHARD_1_CHECKS,
    M::SHARD_2_CHECKS,
    M::SHARD_3_CHECKS,
    M::SHARD_4_CHECKS,
    M::SHARD_5_CHECKS,
    M::SHARD_6_CHECKS,
    M::SHARD_7_CHECKS,
    M::SHARD_OTHER_CHECKS,
];

/// Timer-tag namespaces (top byte selects the kind).
const TAG_KIND_SHIFT: u64 = 56;
const TAG_QUERY: u64 = 1 << TAG_KIND_SHIFT;
const TAG_SWEEP: u64 = 2 << TAG_KIND_SHIFT;
const TAG_NS: u64 = 3 << TAG_KIND_SHIFT;
const TAG_REFRESH: u64 = 4 << TAG_KIND_SHIFT;
const TAG_NSEXP: u64 = 5 << TAG_KIND_SHIFT;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

/// The TTL-refresh delay: nominally 80% of the TTL, widened by a seeded
/// ±10% band so hosts whose records expire together do not re-query in
/// one synchronized storm.
fn jittered_refresh(ttl: SimDuration, rng: &mut SimRng) -> SimDuration {
    ttl.mul_f64(0.8 * (0.9 + 0.2 * rng.unit()))
}

/// Where a host learns the manager set for an application (§3.2).
#[derive(Debug, Clone)]
pub enum ManagerDirectory {
    /// A fixed set, "known to all the hosts in Hosts(A)": the host
    /// installs it as the app's one [`ShardEntry::whole_keyspace`]
    /// entry.
    Static(Arc<[NodeId]>),
    /// The §3.2 name service, queried with TTL-based refresh: a
    /// replicated directory read with a quorum. The host fans an
    /// `NsQuery` to every replica, waits for `read_quorum` verified
    /// [`ProtoMsg::NsRecordReply`] answers, and installs the freshest
    /// version among them. No single replica is trusted.
    Replicated {
        /// The directory replicas.
        replicas: Vec<NodeId>,
        /// How many verified replies a read needs (≤ replicas).
        read_quorum: usize,
    },
}

/// Configuration of one application served by a host.
pub struct AppHost {
    /// The application id.
    pub app: AppId,
    /// The per-application policy.
    pub policy: Policy,
    /// How the manager set is discovered.
    pub directory: ManagerDirectory,
    /// The wrapped application (Figure 1).
    pub application: Box<dyn Application>,
}

impl std::fmt::Debug for AppHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppHost").field("app", &self.app).finish_non_exhaustive()
    }
}

/// Counters a host keeps about its own decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Invokes received.
    pub invokes: u64,
    /// Invokes answered from a live cache entry.
    pub cache_hits: u64,
    /// Invokes that had to run the check protocol.
    pub cache_misses: u64,
    /// Invokes allowed (cache or quorum or fail-open).
    pub allowed: u64,
    /// Invokes denied by a manager verdict.
    pub denied: u64,
    /// Invokes rejected after `R` failed attempts (fail-closed).
    pub unavailable: u64,
    /// Invokes allowed by the Figure 4 fail-open rule.
    pub fail_open_allows: u64,
    /// Invokes rejected because the signature did not verify.
    pub auth_rejects: u64,
    /// Queries sent to managers.
    pub queries_sent: u64,
    /// RevokeNotice messages that flushed a live cache entry.
    pub revoke_flushes: u64,
}

#[derive(Debug)]
struct PendingInvoke {
    app: AppId,
    user: UserId,
    requester: NodeId,
    user_req: ReqId,
    payload: Arc<str>,
    attempt: u32,
    attempt_started: LocalTime,
    query_req: ReqId,
    grants: BTreeMap<NodeId, SimDuration>,
    /// The managers queried this attempt.
    targets: Vec<NodeId>,
    /// Managers that answered `Unavailable` this attempt (recovering —
    /// §3.4). Not a veto, but they won't contribute grants either; once
    /// the remainder cannot form the check quorum, the attempt is over.
    unavailable: BTreeSet<NodeId>,
    timer: Option<TimerId>,
    first_started: LocalTime,
    /// A proactive lease refresh: no requester to answer, no
    /// application call — just renew (or flush) the cache entry.
    background: bool,
}

/// One verified directory reply: `(version, shards, ttl)`, version 0
/// and no shards for a negative answer.
type VerifiedReply = (u64, Vec<ShardEntry>, SimDuration);

struct AppState {
    policy: Policy,
    directory: ManagerDirectory,
    cache: AclCache,
    application: Box<dyn Application>,
    ns_timer: Option<TimerId>,
    /// Consecutive unanswered name-service queries; indexes the
    /// [`Policy::ns_retry_backoff`] schedule and resets on a reply.
    ns_round: u32,
    /// The shard map checks route on: a user's check goes to the
    /// covering entry's managers. Empty — no record, or its TTL lapsed —
    /// fails every check closed.
    shards: Vec<ShardEntry>,
    /// Fault injection: the *stale shard map* fault. While set, fresher
    /// directory records are not installed — the host keeps routing on
    /// whatever map it already holds.
    ns_pinned: bool,
    /// Verified replies collected during the current quorum read. Only
    /// meaningful for [`ManagerDirectory::Replicated`].
    ns_replies: BTreeMap<NodeId, VerifiedReply>,
    /// When the current quorum read started (for the latency histogram).
    ns_round_started: LocalTime,
    /// Whether a quorum read is in flight (armed but not yet installed).
    ns_inflight: bool,
    /// Version stamp of the installed directory record (0 = none yet).
    record_version: u64,
    /// When the installed record's TTL runs out on the local clock.
    record_expires: Option<LocalTime>,
    /// The TTL-expiry timer for the installed record.
    ns_expiry_timer: Option<TimerId>,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("shards", &self.shards)
            .field("cached", &self.cache.len())
            .finish_non_exhaustive()
    }
}

/// A host running one or more access-controlled applications.
#[derive(Debug)]
pub struct HostNode {
    apps: BTreeMap<AppId, AppState>,
    registry: Option<Arc<KeyRegistry>>,
    pending: BTreeMap<u64, PendingInvoke>,
    query_index: BTreeMap<ReqId, u64>,
    refresh_index: BTreeMap<u64, (AppId, UserId)>,
    next_pending: u64,
    next_req: u64,
    next_refresh: u64,
    /// This host's end of the authenticated manager channel: the key it
    /// shares with each manager heard from so far. `None` accepts
    /// replies and notices untagged.
    channel: Option<ChannelEnd>,
    /// Trust anchor for replicated-directory records: the registry to
    /// verify against and the principal whose signature records must
    /// carry. `None` accepts records unverified (protocol-only runs).
    ns_trust: Option<(Arc<KeyRegistry>, PrincipalId)>,
    /// Fault injection: skip record-signature verification (the planted
    /// bug the I7 oracle must catch).
    ns_trust_unsigned: bool,
    stats: HostStats,
}

impl HostNode {
    /// Creates a host serving the given applications.
    ///
    /// When `registry` is provided, every `Invoke` must carry a valid
    /// signature from the claimed user; without it the deployment runs
    /// unauthenticated (useful for protocol-only experiments).
    pub fn new(apps: Vec<AppHost>, registry: Option<Arc<KeyRegistry>>) -> Self {
        let mut map = BTreeMap::new();
        for spec in apps {
            let shards = match &spec.directory {
                ManagerDirectory::Static(m) => vec![ShardEntry::whole_keyspace(spec.app, m.to_vec())],
                ManagerDirectory::Replicated { replicas, read_quorum } => {
                    assert!(
                        *read_quorum >= 1 && *read_quorum <= replicas.len(),
                        "read quorum must satisfy 1 <= q <= replicas"
                    );
                    Vec::new()
                }
            };
            map.insert(
                spec.app,
                AppState {
                    policy: spec.policy,
                    directory: spec.directory,
                    cache: AclCache::new(),
                    application: spec.application,
                    ns_timer: None,
                    ns_round: 0,
                    shards,
                    ns_pinned: false,
                    ns_replies: BTreeMap::new(),
                    ns_round_started: LocalTime::ZERO,
                    ns_inflight: false,
                    record_version: 0,
                    record_expires: None,
                    ns_expiry_timer: None,
                },
            );
        }
        HostNode {
            apps: map,
            registry,
            pending: BTreeMap::new(),
            query_index: BTreeMap::new(),
            refresh_index: BTreeMap::new(),
            next_pending: 0,
            next_req: 0,
            next_refresh: 0,
            channel: None,
            ns_trust: None,
            ns_trust_unsigned: false,
            stats: HostStats::default(),
        }
    }

    /// Installs the replicated-directory trust anchor: records must
    /// verify against `registry` as signed by `writer` or they are
    /// discarded (`host.ns_reject_bad_sig`). Without a trust anchor the
    /// host accepts any well-formed record — fine for protocol-only
    /// experiments, unsafe with a malicious replica.
    pub fn set_ns_trust(&mut self, registry: Arc<KeyRegistry>, writer: PrincipalId) {
        self.ns_trust = Some((registry, writer));
    }

    /// Fault injection: makes this host skip record-signature checks on
    /// quorum reads, so a forged or rolled-back record from a malicious
    /// replica is installed as if legitimate. Used by nemesis campaigns
    /// to plant a known integrity bug and prove invariant I7 detects it.
    pub fn inject_ns_trust_unsigned(&mut self) {
        self.ns_trust_unsigned = true;
    }

    /// Version stamp of the installed directory record for `app`
    /// (0 until a quorum read completes).
    pub fn directory_version(&self, app: AppId) -> u64 {
        self.apps.get(&app).map(|a| a.record_version).unwrap_or(0)
    }

    /// Installs pairwise channel keys: `QueryReply` and `RevokeNotice`
    /// messages must then carry valid HMAC tags (see [`crate::channel`]).
    /// Installing again (key rotation) forgets every key derived under
    /// the previous master.
    pub fn set_channel_keys(&mut self, keys: Arc<crate::channel::ChannelKeys>) {
        self.channel = Some(ChannelEnd::new(keys));
    }

    /// The host's decision counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// Every manager the installed shard map names, in first-appearance
    /// order (empty while no directory record is live).
    pub fn manager_view(&self, app: AppId) -> Vec<NodeId> {
        managers_of(self.shard_map(app))
    }

    /// Live cache-entry count for an application.
    pub fn cached_entries(&self, app: AppId) -> usize {
        self.apps.get(&app).map(|a| a.cache.len()).unwrap_or(0)
    }

    /// Inspects the cached expiry limit for a user (tests/experiments).
    pub fn cached_limit(&self, app: AppId, user: UserId) -> Option<LocalTime> {
        self.apps.get(&app).and_then(|a| a.cache.peek(user))
    }

    /// Fault injection: makes this host's cache for `app` ignore entry
    /// expiry (see [`crate::cache::AclCache::set_ignore_expiry`]). Used
    /// by nemesis campaigns to plant a known safety bug and prove the
    /// invariant oracle detects it.
    ///
    /// # Panics
    ///
    /// Panics if the app is not served by this host.
    pub fn inject_ignore_expiry(&mut self, app: AppId) {
        self.apps
            .get_mut(&app)
            .unwrap_or_else(|| panic!("{app} not served by this host"))
            .cache
            .set_ignore_expiry(true);
    }

    /// Fault injection: the *stale shard map* fault. The host stops
    /// installing fresher directory records for `app` and keeps routing
    /// checks on whatever map it currently holds, until the record's
    /// TTL lapses and the view fails closed.
    pub fn set_pin_ns_version(&mut self, app: AppId) {
        if let Some(state) = self.apps.get_mut(&app) {
            state.ns_pinned = true;
        }
    }

    /// The shard map checks for an application route on.
    pub fn shard_map(&self, app: AppId) -> &[ShardEntry] {
        self.apps.get(&app).map_or(&[], |a| a.shards.as_slice())
    }

    /// Access to a wrapped application for inspection, or `None` when
    /// the app is not served here or is not a `T`. The non-panicking
    /// form of [`HostNode::application_as`].
    pub fn try_application_as<T: 'static>(&self, app: AppId) -> Option<&T> {
        self.apps.get(&app)?.application.as_any().downcast_ref::<T>()
    }

    /// Access to a wrapped application for inspection (e.g.
    /// [`crate::wrapper::CountingApp::handled`]).
    ///
    /// # Panics
    ///
    /// Panics if the app is not served here or is not a `T`.
    pub fn application_as<T: 'static>(&self, app: AppId) -> &T {
        assert!(self.apps.contains_key(&app), "{app} not served by this host");
        self.try_application_as(app)
            .unwrap_or_else(|| panic!("{app} is not a {}", std::any::type_name::<T>()))
    }

    fn fresh_req(&mut self) -> ReqId {
        self.next_req += 1;
        ReqId(self.next_req)
    }

    fn arm_periodic(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let apps: Vec<AppId> = self.apps.keys().copied().collect();
        for app in apps {
            let state = self.apps.get_mut(&app).expect("just listed");
            let sweep = state.policy.cache_sweep_interval();
            ctx.set_timer(sweep, TAG_SWEEP | u64::from(app.0));
            if matches!(state.directory, ManagerDirectory::Replicated { .. }) {
                state.ns_round = 0;
                self.start_ns_round(ctx, app);
            }
        }
    }

    /// Starts one quorum-read round against a replicated directory:
    /// fans an `NsQuery` to every replica, clears the reply set, and
    /// arms the capped-backoff retry timer for the round.
    fn start_ns_round(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId) {
        let Some(state) = self.apps.get_mut(&app) else { return };
        let ManagerDirectory::Replicated { replicas, .. } = &state.directory else {
            return;
        };
        if let Some(t) = state.ns_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.metric_incr(M::NS_READ_ROUNDS);
        state.ns_replies.clear();
        state.ns_round_started = ctx.local_now();
        state.ns_inflight = true;
        for r in replicas {
            ctx.send(*r, ProtoMsg::NsQuery { app });
        }
        let retry = state.policy.ns_retry_backoff().delay(state.ns_round, ctx.rng());
        state.ns_round = state.ns_round.saturating_add(1);
        state.ns_timer = Some(ctx.set_timer(retry, TAG_NS | u64::from(app.0)));
    }

    /// One replica answered a quorum read. Verifies the record
    /// signature, collects the reply, and — once `read_quorum` verified
    /// answers are in — installs the freshest version among them.
    fn on_ns_record_reply(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        app: AppId,
        ttl: SimDuration,
        record: Option<Box<NsRecord>>,
    ) {
        let Some(state) = self.apps.get_mut(&app) else { return };
        let ManagerDirectory::Replicated { replicas, read_quorum } = &state.directory else {
            ctx.metric_incr(M::HOST_NS_REPLY_UNTRUSTED);
            return;
        };
        // Only configured replicas may vote; anyone else guessing at the
        // protocol (§2.1 failure model) is ignored.
        if !replicas.contains(&from) {
            ctx.metric_incr(M::HOST_NS_REPLY_UNTRUSTED);
            return;
        }
        let quorum = *read_quorum;
        if !state.ns_inflight {
            // A straggler from an already-settled round.
            ctx.metric_incr(M::HOST_LATE_REPLY);
            return;
        }
        // Negative answers carry no record; a record must verify against
        // the trust anchor, and describe the app asked about.
        let reply = match record {
            None => (0, Vec::new(), ttl),
            Some(record) => {
                let verified = self.ns_trust_unsigned
                    || match &self.ns_trust {
                        Some((registry, writer)) => {
                            record.app == app && record.verify(registry, *writer)
                        }
                        // No trust anchor configured: accept, but leave a
                        // trace that this deployment runs without record
                        // integrity.
                        None => {
                            ctx.metric_incr(M::HOST_NS_UNVERIFIED);
                            true
                        }
                    };
                if !verified {
                    ctx.metric_incr(M::HOST_NS_REJECT_BAD_SIG);
                    return;
                }
                (record.version, record.shards, ttl)
            }
        };
        let state = self.apps.get_mut(&app).expect("checked above");
        state.ns_replies.insert(from, reply);
        if state.ns_replies.len() >= quorum {
            self.install_ns_record(ctx, app, quorum);
        }
    }

    /// A quorum of verified replies is in: freshest-version-wins.
    fn install_ns_record(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId, quorum: usize) {
        let Some(state) = self.apps.get_mut(&app) else { return };
        let acks = state.ns_replies.len();
        // Move the winning reply out instead of cloning it: the round is
        // settled, so the reply buffer is about to be discarded anyway.
        let Some(best) = state
            .ns_replies
            .iter()
            .max_by_key(|(_, (v, _, _))| *v)
            .map(|(&from, _)| from)
        else {
            return;
        };
        let (version, shards, ttl) = state.ns_replies.remove(&best).expect("chosen above");
        state.ns_replies.clear();
        state.ns_inflight = false;
        state.ns_round = 0;
        if let Some(t) = state.ns_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.metric_observe(
            M::NS_LOOKUP_LATENCY_S,
            ctx.local_now().since(state.ns_round_started).as_secs_f64(),
        );
        if version < state.record_version {
            // The quorum's freshest answer is older than what we hold —
            // e.g. every reachable replica is stale. Never roll the view
            // back: keep the installed record on its original TTL.
            ctx.metric_incr(M::NS_STALE_QUORUM);
        } else if state.ns_pinned && state.record_version > 0 && version > state.record_version {
            // Stale-shard-map fault: deliberately keep routing on the
            // old map. The oracle must stay clean — safety can never
            // depend on hosts refreshing promptly.
            ctx.metric_incr(M::HOST_NS_PINNED);
        } else {
            state.shards = shards;
            state.record_version = version;
            state.record_expires = Some(ctx.local_now().plus(ttl));
            if let Some(t) = state.ns_expiry_timer.take() {
                ctx.cancel_timer(t);
            }
            state.ns_expiry_timer = Some(ctx.set_timer(ttl, TAG_NSEXP | u64::from(app.0)));
            ctx.metric_incr(M::NS_INSTALLS);
            ctx.trace_record(|| AuditEvent::NsInstall {
                app,
                version,
                acks,
                quorum,
                managers: managers_of(&state.shards).into_iter().collect(),
                ttl,
            });
        }
        // Re-query shortly before the TTL runs out, jittered so hosts
        // sharing a TTL don't re-query in lockstep.
        let state = self.apps.get_mut(&app).expect("still present");
        let refresh = jittered_refresh(ttl, ctx.rng());
        state.ns_timer = Some(ctx.set_timer(refresh, TAG_NS | u64::from(app.0)));
    }

    /// The quorum-read retry timer fired. Either this is the scheduled
    /// TTL refresh (no round in flight) or the previous round failed to
    /// reach its quorum — count the timeout, note degraded mode if a
    /// live record is carrying us, and start the next round under the
    /// capped backoff.
    fn on_ns_round_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId) {
        let Some(state) = self.apps.get_mut(&app) else { return };
        state.ns_timer = None;
        if state.ns_inflight {
            ctx.metric_incr(M::NS_READ_TIMEOUT);
            let live = state
                .record_expires
                .map(|e| ctx.local_now() < e)
                .unwrap_or(false);
            if live && state.record_version > 0 {
                // Graceful degradation: the quorum is unreachable but the
                // last-known-good record has TTL left — keep serving it.
                ctx.metric_incr(M::NS_DEGRADED_ROUNDS);
                ctx.trace_record(|| AuditEvent::NsDegraded { app, version: state.record_version });
            }
        }
        self.start_ns_round(ctx, app);
    }

    /// The installed record's TTL ran out without a successful refresh:
    /// the shard map reverts to empty (fail-closed through the
    /// empty-manager-view path) until a quorum read lands again.
    fn on_ns_expiry_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, app: AppId) {
        let Some(state) = self.apps.get_mut(&app) else { return };
        state.ns_expiry_timer = None;
        let Some(expires) = state.record_expires else { return };
        if ctx.local_now() < expires {
            return; // superseded by a fresher install; its timer is armed
        }
        ctx.metric_incr(M::NS_RECORD_EXPIRED);
        ctx.trace_record(|| AuditEvent::NsExpire { app, version: state.record_version });
        state.record_expires = None;
        state.shards.clear();
    }

    /// Starts (or restarts) one check attempt for a pending invoke.
    fn start_attempt(&mut self, ctx: &mut Context<'_, ProtoMsg>, pending_id: u64) {
        let query_req = self.fresh_req();
        let Some(p) = self.pending.get_mut(&pending_id) else { return };
        let Some(state) = self.apps.get_mut(&p.app) else { return };
        let old_query = p.query_req;
        self.query_index.remove(&old_query);
        if let Some(t) = p.timer.take() {
            ctx.cancel_timer(t);
        }
        p.query_req = query_req;
        p.grants.clear();
        p.unavailable.clear();
        p.attempt += 1;
        p.attempt_started = ctx.local_now();
        self.query_index.insert(query_req, pending_id);

        // Shard routing: only the covering entry's managers are
        // candidates — the check fans out (and its quorum forms) over
        // that set alone, so per-check traffic stays independent of how
        // many shards or tenants exist elsewhere.
        let bucket = user_bucket(p.user);
        let view = match state.shards.iter().find(|e| e.covers(bucket)) {
            Some(entry) => {
                ctx.metric_incr(entry.shard.metric(&SHARD_CHECK_METRICS));
                entry.managers.clone()
            }
            // No live record, or one that does not cover the user: fail
            // closed through the empty-view path below.
            None => Vec::new(),
        };
        // Choose which managers to ask this attempt.
        let targets: Vec<NodeId> = match state.policy.fanout() {
            QueryFanout::All => view,
            QueryFanout::Subset => {
                let c = state.policy.check_quorum().min(view.len());
                let mut pool = view.clone();
                ctx.rng().shuffle(&mut pool);
                pool.truncate(c);
                pool
            }
            QueryFanout::Sequential => {
                // Figure 2: one manager at a time, rotating per attempt.
                if view.is_empty() {
                    Vec::new()
                } else {
                    let idx = (p.attempt as usize - 1) % view.len();
                    vec![view[idx]]
                }
            }
        };
        let msg = ProtoMsg::Query { app: p.app, user: p.user, req: query_req };
        if p.attempt > 1 {
            ctx.metric_incr(M::HOST_ATTEMPT_RETRY);
        }
        let timeout = state.policy.query_timeout();
        let exhaustion = state.policy.exhaustion();
        if targets.is_empty() {
            // An empty manager view — e.g. the name service is down and
            // its TTL lapsed, or an NS reply carried no managers — can
            // never produce a quorum, and retrying in the same event
            // cannot change the view. Waiting out R query timeouts would
            // only delay the inevitable, so resolve now per the Figure 4
            // exhaustion policy.
            ctx.metric_incr(M::HOST_EMPTY_MANAGER_VIEW);
            match exhaustion {
                ExhaustionBehavior::FailOpen => self.finish(ctx, pending_id, FinishKind::FailOpen),
                ExhaustionBehavior::FailClosed => {
                    self.finish(ctx, pending_id, FinishKind::Unavailable)
                }
            }
            return;
        }
        self.stats.queries_sent += targets.len() as u64;
        for t in &targets {
            ctx.metric_incr(M::HOST_QUERIES_SENT);
            ctx.send(*t, msg.clone());
        }
        let p = self.pending.get_mut(&pending_id).expect("still pending");
        p.targets = targets;
        p.timer = Some(ctx.set_timer(timeout, TAG_QUERY | pending_id));
    }

    /// Finishes a pending invoke with the given outcome.
    fn finish(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        pending_id: u64,
        outcome_kind: FinishKind,
    ) {
        let Some(p) = self.pending.remove(&pending_id) else { return };
        self.query_index.remove(&p.query_req);
        if let Some(t) = p.timer {
            ctx.cancel_timer(t);
        }
        if p.background {
            self.finish_background(ctx, &p, outcome_kind);
            return;
        }
        let elapsed = ctx.local_now().since(p.first_started);
        ctx.metric_observe(M::HOST_CHECK_LATENCY_S, elapsed.as_secs_f64());
        // The same latency, split by how the check resolved, so the
        // manager round-trip path and the exhaustion paths can be
        // compared directly (the paper's §5 overhead breakdown).
        let split = match outcome_kind {
            FinishKind::Grant | FinishKind::Deny => M::HOST_LATENCY_QUORUM_S,
            FinishKind::FailOpen => M::HOST_LATENCY_FAILOPEN_S,
            FinishKind::Unavailable => M::HOST_LATENCY_UNAVAILABLE_S,
        };
        ctx.metric_observe(split, elapsed.as_secs_f64());
        let outcome = match outcome_kind {
            FinishKind::Grant => {
                // Cache: limit anchored at attempt start (δ adjustment).
                let min_te = p
                    .grants
                    .values()
                    .copied()
                    .min()
                    .unwrap_or(SimDuration::ZERO);
                let check_quorum = self
                    .apps
                    .get(&p.app)
                    .map(|s| s.policy.check_quorum())
                    .unwrap_or(0);
                let limit =
                    (min_te > SimDuration::ZERO).then(|| p.attempt_started.plus(min_te));
                if let Some(limit) = limit {
                    ctx.trace_record(|| AuditEvent::CacheStore {
                        app: p.app,
                        user: p.user,
                        started: p.attempt_started,
                        limit,
                        te: min_te,
                    });
                    if let Some(state) = self.apps.get_mut(&p.app) {
                        state.cache.insert(p.user, limit);
                        // The grant that creates the entry is a use.
                        state.cache.touch(p.user, ctx.local_now());
                    }
                    self.arm_refresh(ctx, p.app, p.user, limit);
                }
                self.allow(ctx, p.app, p.user, &p.payload, || AllowPath::Quorum {
                    confirms: p.grants.len(),
                    c: check_quorum,
                    managers: p.grants.keys().copied().collect(),
                    started: p.attempt_started,
                    limit,
                })
            }
            FinishKind::FailOpen => {
                // Figure 4: allow, but nothing is cached — no te is known.
                self.stats.fail_open_allows += 1;
                ctx.metric_incr(M::HOST_FAIL_OPEN);
                self.allow(ctx, p.app, p.user, &p.payload, || AllowPath::FailOpen)
            }
            FinishKind::Deny => {
                self.stats.denied += 1;
                ctx.metric_incr(M::HOST_DENIED);
                ctx.trace_record(|| AuditEvent::Deny { app: p.app, user: p.user });
                InvokeOutcome::Denied
            }
            FinishKind::Unavailable => {
                self.stats.unavailable += 1;
                ctx.metric_incr(M::HOST_UNAVAILABLE);
                InvokeOutcome::Unavailable
            }
        };
        ctx.send(p.requester, ProtoMsg::InvokeReply { req: p.user_req, outcome });
    }

    /// Completes a proactive refresh: renew on grant, flush on deny.
    fn finish_background(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        p: &PendingInvoke,
        outcome_kind: FinishKind,
    ) {
        match outcome_kind {
            FinishKind::Grant => {
                let min_te =
                    p.grants.values().copied().min().unwrap_or(SimDuration::ZERO);
                if min_te > SimDuration::ZERO {
                    let limit = p.attempt_started.plus(min_te);
                    ctx.trace_record(|| AuditEvent::CacheStore {
                        app: p.app,
                        user: p.user,
                        started: p.attempt_started,
                        limit,
                        te: min_te,
                    });
                    if let Some(state) = self.apps.get_mut(&p.app) {
                        // Renew without touching last_used: only real
                        // requests count as activity, so idle leases
                        // stop being refreshed.
                        state.cache.insert(p.user, limit);
                    }
                    ctx.metric_incr(M::HOST_REFRESH_RENEWED);
                    self.arm_refresh(ctx, p.app, p.user, limit);
                }
            }
            FinishKind::Deny => {
                // The right is gone: flush immediately instead of
                // letting the lease run out.
                if let Some(state) = self.apps.get_mut(&p.app) {
                    state.cache.remove(p.user);
                }
                ctx.metric_incr(M::HOST_REFRESH_DENIED);
            }
            FinishKind::FailOpen | FinishKind::Unavailable => {
                // No quorum reachable: the lease lapses on its own
                // schedule, exactly as without refresh.
                ctx.metric_incr(M::HOST_REFRESH_FAILED);
            }
        }
    }

    /// Arms a proactive-refresh timer `margin` before `limit`, when the
    /// policy asks for one.
    fn arm_refresh(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        app: AppId,
        user: UserId,
        limit: LocalTime,
    ) {
        let Some(state) = self.apps.get(&app) else { return };
        let Some(margin) = state.policy.refresh_margin() else { return };
        let delay = limit.since(ctx.local_now()).saturating_sub(margin);
        if delay == SimDuration::ZERO {
            return; // too late to refresh this lease meaningfully
        }
        let key = self.next_refresh;
        self.next_refresh += 1;
        self.refresh_index.insert(key, (app, user));
        ctx.set_timer(delay, TAG_REFRESH | key);
    }

    /// Fires a proactive refresh if the lease is still alive and the
    /// user has actually been active during the current lease term.
    fn on_refresh_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, key: u64) {
        let Some((app, user)) = self.refresh_index.remove(&key) else { return };
        let Some(state) = self.apps.get(&app) else { return };
        let now = ctx.local_now();
        let Some(limit) = state.cache.peek(user) else { return };
        if now >= limit {
            return; // already expired; a future request will re-check
        }
        let te = state.policy.expiry_budget();
        let active = state
            .cache
            .last_used(user)
            .map(|used| now.since(used) < te)
            .unwrap_or(false);
        if !active {
            ctx.metric_incr(M::HOST_REFRESH_SKIPPED_IDLE);
            return;
        }
        ctx.metric_incr(M::HOST_REFRESH_STARTED);
        let pending_id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(
            pending_id,
            PendingInvoke {
                app,
                user,
                requester: ctx.id(),
                user_req: ReqId(0),
                payload: "".into(),
                attempt: 0,
                attempt_started: now,
                query_req: ReqId(u64::MAX),
                grants: BTreeMap::new(),
                targets: Vec::new(),
                unavailable: BTreeSet::new(),
                timer: None,
                first_started: now,
                background: true,
            },
        );
        self.start_attempt(ctx, pending_id);
    }

    /// Grants the invocation. `path` records *why* the host said yes
    /// (cache hit, fresh quorum, fail-open) for the invariant oracle;
    /// it runs only when the driver consumes notes.
    fn allow(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        app: AppId,
        user: UserId,
        payload: &str,
        path: impl FnOnce() -> AllowPath,
    ) -> InvokeOutcome {
        self.stats.allowed += 1;
        ctx.metric_incr(M::HOST_ALLOWED);
        ctx.trace_record(|| AuditEvent::Allow { app, user, path: path() });
        let response = match self.apps.get_mut(&app) {
            Some(state) => state.application.handle(user, payload),
            None => String::new(),
        };
        InvokeOutcome::Allowed { response: response.into() }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_invoke(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        app: AppId,
        user: UserId,
        req: ReqId,
        payload: Arc<str>,
        signature: Option<rsa::Signature>,
    ) {
        self.stats.invokes += 1;
        ctx.metric_incr(M::HOST_INVOKES);
        // Authentication (§2.1): the message must really come from `user`.
        if let Some(registry) = &self.registry {
            let ok = match signature {
                Some(sig) => match registry.public_key(user.into()) {
                    Some(pk) => {
                        let bytes = invoke_signing_bytes(user, app, req, &payload);
                        rsa::verify(&pk, &bytes, &sig)
                    }
                    None => false,
                },
                None => false,
            };
            if !ok {
                self.stats.auth_rejects += 1;
                ctx.metric_incr(M::HOST_AUTH_REJECT);
                ctx.send(
                    from,
                    ProtoMsg::InvokeReply { req, outcome: InvokeOutcome::BadSignature },
                );
                return;
            }
        }
        let Some(state) = self.apps.get_mut(&app) else {
            ctx.metric_incr(M::HOST_UNKNOWN_APP);
            ctx.send(from, ProtoMsg::InvokeReply { req, outcome: InvokeOutcome::Denied });
            return;
        };
        // Figure 3: cache lookup with expiry.
        match state.cache.lookup(user, ctx.local_now()) {
            CacheDecision::Fresh(limit) => {
                self.stats.cache_hits += 1;
                ctx.metric_incr(M::HOST_CACHE_HIT);
                // A cache hit resolves inside this event: no manager
                // round trip, so its check latency is zero by
                // construction. Recording it keeps the latency split
                // histograms directly comparable.
                ctx.metric_observe(M::HOST_LATENCY_CACHE_S, 0.0);
                let now = ctx.local_now();
                let outcome =
                    self.allow(ctx, app, user, &payload, || AllowPath::Cache { now, limit });
                ctx.send(from, ProtoMsg::InvokeReply { req, outcome });
            }
            CacheDecision::Expired | CacheDecision::Missing => {
                self.stats.cache_misses += 1;
                ctx.metric_incr(M::HOST_CACHE_MISS);
                let pending_id = self.next_pending;
                self.next_pending += 1;
                self.pending.insert(
                    pending_id,
                    PendingInvoke {
                        app,
                        user,
                        requester: from,
                        user_req: req,
                        payload,
                        attempt: 0,
                        attempt_started: ctx.local_now(),
                        query_req: ReqId(u64::MAX),
                        grants: BTreeMap::new(),
                        targets: Vec::new(),
                        unavailable: BTreeSet::new(),
                        timer: None,
                        first_started: ctx.local_now(),
                        background: false,
                    },
                );
                self.start_attempt(ctx, pending_id);
            }
        }
    }

    fn on_query_reply(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        req: ReqId,
        verdict: QueryVerdict,
    ) {
        // Figure 3: responses arriving after the attempt's timer are
        // ignored — the query_index only maps the *current* attempt.
        let Some(&pending_id) = self.query_index.get(&req) else {
            ctx.metric_incr(M::HOST_LATE_REPLY);
            return;
        };
        let Some(app) = self.pending.get(&pending_id).map(|p| p.app) else { return };
        // Only nodes in the current manager view may vote: a reply from
        // anywhere else (a compromised host guessing request ids, per
        // the §2.1 failure model) must not count toward the quorum.
        let from_manager = self.shard_map(app).iter().any(|e| e.managers.contains(&from));
        if !from_manager {
            ctx.metric_incr(M::HOST_REPLY_FROM_NON_MANAGER);
            return;
        }
        let Some(p) = self.pending.get_mut(&pending_id) else { return };
        match verdict {
            QueryVerdict::Deny => {
                // One deny vetoes: after a revoke reaches its update
                // quorum, every check quorum contains a denier.
                self.finish(ctx, pending_id, FinishKind::Deny);
            }
            QueryVerdict::Grant { te } => {
                p.grants.insert(from, te);
                let needed = self
                    .apps
                    .get(&p.app)
                    .map(|s| s.policy.check_quorum())
                    .unwrap_or(usize::MAX);
                if p.grants.len() >= needed {
                    self.finish(ctx, pending_id, FinishKind::Grant);
                }
            }
            QueryVerdict::Unavailable { .. } => {
                // A recovering manager (§3.4) is *retryable*, not a veto:
                // it neither denies nor grants. If the managers still
                // able to answer cannot form the check quorum, give up on
                // this attempt right away instead of waiting out the
                // query timer.
                ctx.metric_incr(M::HOST_MANAGER_UNAVAILABLE);
                p.unavailable.insert(from);
                let reachable =
                    p.targets.iter().filter(|t| !p.unavailable.contains(t)).count();
                let needed = self
                    .apps
                    .get(&p.app)
                    .map(|s| s.policy.check_quorum())
                    .unwrap_or(usize::MAX);
                if reachable < needed {
                    self.attempt_failed(ctx, pending_id);
                }
            }
        }
    }

    fn on_query_timeout(&mut self, ctx: &mut Context<'_, ProtoMsg>, pending_id: u64) {
        if let Some(p) = self.pending.get_mut(&pending_id) {
            // The timer that brought us here is spent: forget its id, or
            // the next attempt (or `finish`) would cancel it again and a
            // wall-clock driver would keep the id until a wheel entry
            // that has already matured matures.
            p.timer = None;
        }
        self.attempt_failed(ctx, pending_id);
    }

    /// This attempt cannot produce a quorum (timeout, or every remaining
    /// manager recovering): either run the next attempt or apply the
    /// Figure 4 exhaustion policy.
    fn attempt_failed(&mut self, ctx: &mut Context<'_, ProtoMsg>, pending_id: u64) {
        let Some(p) = self.pending.get(&pending_id) else { return };
        let Some(state) = self.apps.get(&p.app) else { return };
        if p.attempt >= state.policy.max_attempts() {
            match state.policy.exhaustion() {
                ExhaustionBehavior::FailOpen => self.finish(ctx, pending_id, FinishKind::FailOpen),
                ExhaustionBehavior::FailClosed => {
                    self.finish(ctx, pending_id, FinishKind::Unavailable)
                }
            }
        } else {
            self.start_attempt(ctx, pending_id);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum FinishKind {
    Grant,
    Deny,
    FailOpen,
    Unavailable,
}

impl Node for HostNode {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.arm_periodic(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Invoke { app, user, req, payload, signature } => {
                self.on_invoke(ctx, from, app, user, req, payload, signature);
            }
            ProtoMsg::QueryReply { req, app, user, verdict, mac } => {
                if let Some(channel) = &mut self.channel {
                    let ok = mac.is_some_and(|tag| {
                        channel
                            .pair(ctx.id(), from)
                            .verify_query_reply(req, app, user, &verdict, &tag)
                    });
                    if !ok {
                        ctx.metric_incr(M::HOST_BAD_CHANNEL_MAC);
                        return;
                    }
                }
                self.on_query_reply(ctx, from, req, verdict);
            }
            ProtoMsg::RevokeNotice { app, user, mac } => {
                if let Some(channel) = &mut self.channel {
                    let ok = mac.is_some_and(|tag| {
                        channel.pair(ctx.id(), from).verify_revoke_notice(app, user, &tag)
                    });
                    if !ok {
                        ctx.metric_incr(M::HOST_BAD_CHANNEL_MAC);
                        return;
                    }
                }
                if let Some(state) = self.apps.get_mut(&app) {
                    if state.cache.remove(user) {
                        self.stats.revoke_flushes += 1;
                        ctx.metric_incr(M::HOST_REVOKE_FLUSH);
                    }
                }
            }
            ProtoMsg::NsRecordReply { app, ttl, record } => {
                self.on_ns_record_reply(ctx, from, app, ttl, record);
            }
            _ => {
                ctx.metric_incr(M::HOST_UNEXPECTED_MSG);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        let payload = tag & TAG_PAYLOAD_MASK;
        match tag & !TAG_PAYLOAD_MASK {
            TAG_QUERY => self.on_query_timeout(ctx, payload),
            TAG_REFRESH => self.on_refresh_timer(ctx, payload),
            TAG_SWEEP => {
                let app = AppId(payload as u32);
                if let Some(state) = self.apps.get_mut(&app) {
                    let swept = state.cache.sweep(ctx.local_now());
                    if swept > 0 {
                        ctx.metric_incr(M::HOST_CACHE_SWEPT);
                    }
                    let interval = state.policy.cache_sweep_interval();
                    ctx.set_timer(interval, TAG_SWEEP | payload);
                }
            }
            TAG_NS => self.on_ns_round_timer(ctx, AppId(payload as u32)),
            TAG_NSEXP => {
                self.on_ns_expiry_timer(ctx, AppId(payload as u32));
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // §3.4: the cache is volatile; recovery restarts from empty.
        for state in self.apps.values_mut() {
            state.cache.clear();
            state.ns_timer = None;
            state.ns_round = 0;
            state.ns_replies.clear();
            state.ns_inflight = false;
            state.record_version = 0;
            state.record_expires = None;
            state.ns_expiry_timer = None;
            if matches!(state.directory, ManagerDirectory::Replicated { .. }) {
                state.shards.clear();
            }
        }
        self.pending.clear();
        self.query_index.clear();
        self.refresh_index.clear();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.arm_periodic(ctx);
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
    use crate::wrapper::CountingApp;
    use wanacl_sim::node::Effect;
    use wanacl_sim::rng::SimRng;

    /// A tiny single-step harness: drives one node event and returns the
    /// effects it produced.
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

        fn at(&mut self, nanos: u64) -> &mut Self {
            self.now = LocalTime::from_nanos(nanos);
            self
        }

        fn deliver(
            &mut self,
            node: &mut HostNode,
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

    fn host_with_managers(managers: &[usize]) -> HostNode {
        let ids: Vec<NodeId> = managers.iter().map(|&i| NodeId::from_index(i)).collect();
        HostNode::new(
            vec![AppHost {
                app: AppId(0),
                policy: Policy::builder(1)
                    .revocation_bound(SimDuration::from_secs(10))
                    .query_timeout(SimDuration::from_millis(100))
                    .max_attempts(1)
                    .build(),
                directory: ManagerDirectory::Static(ids.into()),
                application: Box::new(CountingApp::new()),
            }],
            None,
        )
    }

    fn invoke(user: u64) -> ProtoMsg {
        ProtoMsg::Invoke {
            app: AppId(0),
            user: UserId(user),
            req: ReqId(1),
            payload: "x".into(),
            signature: None,
        }
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
    fn cold_invoke_queries_every_manager_in_view() {
        let mut host = host_with_managers(&[0, 1, 2]);
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        let queries: Vec<NodeId> = sends(&effects)
            .into_iter()
            .filter(|(_, m)| matches!(m, ProtoMsg::Query { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(
            queries,
            vec![NodeId::from_index(0), NodeId::from_index(1), NodeId::from_index(2)]
        );
        assert_eq!(host.stats().cache_misses, 1);
    }

    #[test]
    fn grant_reply_caches_and_answers_requester() {
        let mut host = host_with_managers(&[0]);
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        // Extract the query id the host used.
        let req = sends(&effects)
            .into_iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Query { req, .. } => Some(*req),
                _ => None,
            })
            .expect("query sent");
        let effects = h.at(1_000).deliver(
            &mut host,
            0,
            ProtoMsg::QueryReply {
                req,
                app: AppId(0),
                user: UserId(1),
                verdict: QueryVerdict::Grant { te: SimDuration::from_secs(9) },
                mac: None,
            },
        );
        let replies = sends(&effects);
        assert!(replies.iter().any(|(to, m)| {
            *to == NodeId::from_index(7)
                && matches!(m, ProtoMsg::InvokeReply { outcome: InvokeOutcome::Allowed { .. }, .. })
        }));
        // Cached with the delta adjustment: limit anchored at the query
        // send time (t = 0), not the reply time.
        assert_eq!(
            host.cached_limit(AppId(0), UserId(1)),
            Some(LocalTime::from_nanos(SimDuration::from_secs(9).as_nanos()))
        );
    }

    #[test]
    fn deny_reply_rejects_without_caching() {
        let mut host = host_with_managers(&[0]);
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(2));
        let req = sends(&effects)
            .into_iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Query { req, .. } => Some(*req),
                _ => None,
            })
            .expect("query sent");
        let effects = h.deliver(
            &mut host,
            0,
            ProtoMsg::QueryReply {
                req,
                app: AppId(0),
                user: UserId(2),
                verdict: QueryVerdict::Deny,
                mac: None,
            },
        );
        assert!(sends(&effects).iter().any(|(_, m)| matches!(
            m,
            ProtoMsg::InvokeReply { outcome: InvokeOutcome::Denied, .. }
        )));
        assert_eq!(host.cached_entries(AppId(0)), 0);
        assert_eq!(host.stats().denied, 1);
    }

    #[test]
    fn reply_from_outside_manager_view_is_ignored() {
        let mut host = host_with_managers(&[0]);
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        let req = sends(&effects)
            .into_iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Query { req, .. } => Some(*req),
                _ => None,
            })
            .expect("query sent");
        // Node 5 is not a manager.
        let effects = h.deliver(
            &mut host,
            5,
            ProtoMsg::QueryReply {
                req,
                app: AppId(0),
                user: UserId(1),
                verdict: QueryVerdict::Grant { te: SimDuration::from_secs(9) },
                mac: None,
            },
        );
        assert!(sends(&effects).is_empty(), "forged grant must produce nothing");
        assert_eq!(host.cached_entries(AppId(0)), 0);
    }

    #[test]
    fn revoke_notice_flushes_only_named_user() {
        let mut host = host_with_managers(&[0]);
        // Seed the cache directly through the protocol: grant user 1.
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        let req = sends(&effects)
            .into_iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Query { req, .. } => Some(*req),
                _ => None,
            })
            .expect("query sent");
        h.deliver(
            &mut host,
            0,
            ProtoMsg::QueryReply {
                req,
                app: AppId(0),
                user: UserId(1),
                verdict: QueryVerdict::Grant { te: SimDuration::from_secs(9) },
                mac: None,
            },
        );
        assert_eq!(host.cached_entries(AppId(0)), 1);
        // A notice for a different user is a no-op.
        h.deliver(&mut host, 0, ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(2), mac: None });
        assert_eq!(host.cached_entries(AppId(0)), 1);
        h.deliver(&mut host, 0, ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: None });
        assert_eq!(host.cached_entries(AppId(0)), 0);
        assert_eq!(host.stats().revoke_flushes, 1);
    }

    fn host_with_two_managers_two_attempts() -> HostNode {
        HostNode::new(
            vec![AppHost {
                app: AppId(0),
                policy: Policy::builder(1)
                    .revocation_bound(SimDuration::from_secs(10))
                    .query_timeout(SimDuration::from_millis(100))
                    .max_attempts(2)
                    .build(),
                directory: ManagerDirectory::Static(
                    vec![NodeId::from_index(0), NodeId::from_index(1)].into(),
                ),
                application: Box::new(CountingApp::new()),
            }],
            None,
        )
    }

    fn query_req(effects: &[Effect<ProtoMsg>]) -> ReqId {
        sends(effects)
            .into_iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Query { req, .. } => Some(*req),
                _ => None,
            })
            .expect("query sent")
    }

    fn unavailable_reply(req: ReqId, user: u64) -> ProtoMsg {
        ProtoMsg::QueryReply {
            req,
            app: AppId(0),
            user: UserId(user),
            verdict: QueryVerdict::Unavailable {
                reason: crate::msg::RejectReason::Recovering,
            },
            mac: None,
        }
    }

    #[test]
    fn unavailable_reply_is_retryable_not_a_veto() {
        let mut host = host_with_two_managers_two_attempts();
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        let req = query_req(&effects);
        // Manager 0 is recovering: no outcome yet — C = 1 is still
        // reachable through manager 1.
        let e1 = h.deliver(&mut host, 0, unavailable_reply(req, 1));
        assert!(
            !sends(&e1).iter().any(|(_, m)| matches!(m, ProtoMsg::InvokeReply { .. })),
            "an unavailable manager must not settle the invoke"
        );
        // Manager 1 grants: quorum met, allowed and cached as usual.
        let e2 = h.deliver(
            &mut host,
            1,
            ProtoMsg::QueryReply {
                req,
                app: AppId(0),
                user: UserId(1),
                verdict: QueryVerdict::Grant { te: SimDuration::from_secs(9) },
                mac: None,
            },
        );
        assert!(sends(&e2).iter().any(|(_, m)| matches!(
            m,
            ProtoMsg::InvokeReply { outcome: InvokeOutcome::Allowed { .. }, .. }
        )));
        assert_eq!(host.stats().denied, 0);
    }

    #[test]
    fn quorum_impossible_after_unavailable_starts_next_attempt_immediately() {
        let mut host = host_with_two_managers_two_attempts();
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        let req1 = query_req(&effects);
        h.deliver(&mut host, 0, unavailable_reply(req1, 1));
        // The second unavailable leaves 0 reachable < C = 1: the host
        // re-queries (attempt 2) without waiting for the query timer.
        let effects = h.deliver(&mut host, 1, unavailable_reply(req1, 1));
        let req2 = query_req(&effects);
        assert_ne!(req1, req2, "a fresh attempt uses a fresh query id");
        // Attempt 2 also finds every manager recovering: attempts are
        // exhausted and the default fail-closed policy answers
        // Unavailable (never Denied — recovery is not a veto).
        h.deliver(&mut host, 0, unavailable_reply(req2, 1));
        let effects = h.deliver(&mut host, 1, unavailable_reply(req2, 1));
        assert!(sends(&effects).iter().any(|(_, m)| matches!(
            m,
            ProtoMsg::InvokeReply { outcome: InvokeOutcome::Unavailable, .. }
        )));
        assert_eq!(host.stats().unavailable, 1);
        assert_eq!(host.stats().denied, 0);
    }

    fn metric_incrs(effects: &[Effect<ProtoMsg>]) -> Vec<&str> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::MetricIncr { name } => Some(name.def().name),
                _ => None,
            })
            .collect()
    }

    fn host_with_directory(directory: ManagerDirectory, policy: Policy) -> HostNode {
        HostNode::new(
            vec![AppHost {
                app: AppId(0),
                policy,
                directory,
                application: Box::new(CountingApp::new()),
            }],
            None,
        )
    }

    fn base_policy() -> crate::policy::PolicyBuilder {
        Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(10))
            .query_timeout(SimDuration::from_millis(100))
            .max_attempts(3)
    }

    /// A host whose one-replica directory has not answered yet.
    fn undiscovered_host(policy: Policy) -> HostNode {
        host_with_directory(
            ManagerDirectory::Replicated { replicas: vec![NodeId::from_index(5)], read_quorum: 1 },
            policy,
        )
    }

    #[test]
    fn empty_manager_view_fails_closed_immediately() {
        // Regression: with a directory and no record installed yet, the
        // manager view is empty. The invoke used to sit through
        // R query timeouts with nobody to query (and the Sequential
        // fan-out arm risked a mod-by-zero on the empty view); it must
        // resolve immediately per the exhaustion policy instead.
        let mut host =
            undiscovered_host(base_policy().fanout(QueryFanout::Sequential).build());
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        assert!(sends(&effects).iter().any(|(to, m)| {
            *to == NodeId::from_index(7)
                && matches!(m, ProtoMsg::InvokeReply { outcome: InvokeOutcome::Unavailable, .. })
        }), "empty view must answer Unavailable in the same event");
        assert!(metric_incrs(&effects).contains(&"host.empty_manager_view"));
        assert!(
            !effects.iter().any(|e| matches!(e, Effect::SetTimer { .. })),
            "no query timer may be armed for an unqueryable attempt"
        );
        assert_eq!(host.stats().unavailable, 1);
        assert_eq!(host.stats().queries_sent, 0);
    }

    #[test]
    fn empty_manager_view_honours_fail_open_policy() {
        let mut host =
            undiscovered_host(base_policy().exhaustion(ExhaustionBehavior::FailOpen).build());
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        assert!(sends(&effects).iter().any(|(_, m)| matches!(
            m,
            ProtoMsg::InvokeReply { outcome: InvokeOutcome::Allowed { .. }, .. }
        )));
        assert_eq!(host.stats().fail_open_allows, 1);
        // Fail-open caches nothing: the next invoke re-checks.
        assert_eq!(host.cached_entries(AppId(0)), 0);
    }

    #[test]
    fn directory_outage_emptying_the_view_fails_attempts_not_the_host() {
        // Drive the outage through the protocol: a signed record
        // carrying an empty manager set (the directory lost its
        // registrations) replaces the view, then an invoke arrives.
        let (mut host, kp, writer) = replicated_host(1);
        let mut h = Harness::new(9);
        start_host(&mut h, &mut host);
        let record = |version, managers| {
            record_reply(&whole(version, managers, &kp, writer))
        };
        h.deliver(&mut host, 0, record(1, vec![NodeId::from_index(4)]));
        assert_eq!(host.manager_view(AppId(0)).len(), 1);
        fire_timer(&mut h, &mut host, TAG_NS);
        h.deliver(&mut host, 0, record(2, Vec::new()));
        assert!(host.manager_view(AppId(0)).is_empty());
        let effects = h.deliver(&mut host, 7, invoke(1));
        assert!(sends(&effects).iter().any(|(_, m)| matches!(
            m,
            ProtoMsg::InvokeReply { outcome: InvokeOutcome::Unavailable, .. }
        )));
        // The host survives to serve a later invoke once the view heals.
        fire_timer(&mut h, &mut host, TAG_NS);
        h.deliver(&mut host, 0, record(3, vec![NodeId::from_index(4)]));
        let effects = h.deliver(&mut host, 7, invoke(1));
        assert!(sends(&effects)
            .iter()
            .any(|(_, m)| matches!(m, ProtoMsg::Query { .. })));
    }

    #[test]
    fn unknown_app_invoke_is_denied_not_a_crash() {
        // Regression for the deny-not-crash contract on the public entry
        // path: a malformed client naming an unserved app gets Denied.
        let mut host = host_with_managers(&[0]);
        let mut h = Harness::new(9);
        let effects = h.deliver(
            &mut host,
            7,
            ProtoMsg::Invoke {
                app: AppId(42),
                user: UserId(1),
                req: ReqId(1),
                payload: "x".into(),
                signature: None,
            },
        );
        assert!(sends(&effects).iter().any(|(to, m)| {
            *to == NodeId::from_index(7)
                && matches!(m, ProtoMsg::InvokeReply { outcome: InvokeOutcome::Denied, .. })
        }));
        assert!(metric_incrs(&effects).contains(&"host.unknown_app"));
        // The inspection accessors follow the same contract.
        assert!(host.try_application_as::<CountingApp>(AppId(42)).is_none());
        assert!(host.try_application_as::<CountingApp>(AppId(0)).is_some());
    }

    #[test]
    fn latency_split_records_cache_and_quorum_paths() {
        let mut host = host_with_managers(&[0]);
        let mut h = Harness::new(9);
        let effects = h.deliver(&mut host, 7, invoke(1));
        let req = query_req(&effects);
        let effects = h.at(1_000).deliver(
            &mut host,
            0,
            ProtoMsg::QueryReply {
                req,
                app: AppId(0),
                user: UserId(1),
                verdict: QueryVerdict::Grant { te: SimDuration::from_secs(9) },
                mac: None,
            },
        );
        let observes: Vec<&str> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::MetricObserve { name, .. } => Some(name.def().name),
                _ => None,
            })
            .collect();
        assert!(observes.contains(&"host.check_latency_s"), "{observes:?}");
        assert!(observes.contains(&"host.latency.quorum_s"), "{observes:?}");
        // A second invoke hits the cache and records the cache split.
        let effects = h.at(2_000).deliver(&mut host, 7, invoke(1));
        assert!(effects.iter().any(|e| matches!(
            e,
            Effect::MetricObserve { name: M::HOST_LATENCY_CACHE_S, .. }
        )));
    }

    #[test]
    fn crash_clears_volatile_state() {
        let mut host = host_with_managers(&[0]);
        let mut h = Harness::new(9);
        h.deliver(&mut host, 7, invoke(1));
        assert_eq!(host.stats().cache_misses, 1);
        host.on_crash();
        assert_eq!(host.cached_entries(AppId(0)), 0);
        // Stats survive (they are measurement, not protocol state).
        assert_eq!(host.stats().cache_misses, 1);
    }

    // ---- replicated-directory quorum reads ----

    use crate::types::ShardId;
    use rand::SeedableRng;
    use wanacl_auth::rsa::KeyPair;

    const TTL: SimDuration = SimDuration::from_secs(60);

    fn writer_setup() -> (Arc<KeyRegistry>, KeyPair, PrincipalId) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let writer = PrincipalId(2_000_000);
        let mut registry = KeyRegistry::new();
        let kp = registry.enroll(writer, &mut rng);
        (Arc::new(registry), kp, writer)
    }

    fn replicated_host(read_quorum: usize) -> (HostNode, KeyPair, PrincipalId) {
        let replicas: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
        let (registry, kp, writer) = writer_setup();
        let mut host = host_with_directory(
            ManagerDirectory::Replicated { replicas, read_quorum },
            base_policy().build(),
        );
        host.set_ns_trust(registry, writer);
        (host, kp, writer)
    }

    /// App 0's one-entry record: `managers` serve the whole keyspace.
    fn whole(version: u64, managers: Vec<NodeId>, kp: &KeyPair, writer: PrincipalId) -> NsRecord {
        let shards = vec![ShardEntry::whole_keyspace(AppId(0), managers)];
        NsRecord::signed(AppId(0), version, shards, writer, &kp.secret)
    }

    fn record_reply(record: &NsRecord) -> ProtoMsg {
        ProtoMsg::NsRecordReply { app: record.app, ttl: TTL, record: Some(Box::new(record.clone())) }
    }

    fn start_host(h: &mut Harness, host: &mut HostNode) -> Vec<Effect<ProtoMsg>> {
        let mut effects = Vec::new();
        {
            let mut ctx =
                Context::new(h.id, h.now, &mut effects, &mut h.rng, &mut h.next_timer);
            host.on_start(&mut ctx);
        }
        effects
    }

    fn fire_timer(h: &mut Harness, host: &mut HostNode, tag: u64) -> Vec<Effect<ProtoMsg>> {
        let mut effects = Vec::new();
        {
            let mut ctx =
                Context::new(h.id, h.now, &mut effects, &mut h.rng, &mut h.next_timer);
            host.on_timer(&mut ctx, tag);
        }
        effects
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

    #[test]
    fn quorum_read_installs_freshest_verified_record() {
        let (mut host, kp, writer) = replicated_host(2);
        let mut h = Harness::new(9);
        let effects = start_host(&mut h, &mut host);
        // The round fans a query to every replica.
        let queried: Vec<NodeId> = sends(&effects)
            .into_iter()
            .filter(|(_, m)| matches!(m, ProtoMsg::NsQuery { .. }))
            .map(|(to, _)| to)
            .collect();
        assert_eq!(queried.len(), 3);
        let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
        let v2 = whole(2, vec![NodeId::from_index(4), NodeId::from_index(5)], &kp, writer);
        // One verified reply is below quorum: nothing installs.
        let e1 = h.at(1_000).deliver(&mut host, 0, record_reply(&v1));
        assert!(host.manager_view(AppId(0)).is_empty());
        assert!(!metric_incrs(&e1).contains(&"ns.installs"));
        // The second reply carries a fresher version: it wins.
        let e2 = h.at(2_000).deliver(&mut host, 1, record_reply(&v2));
        assert_eq!(host.manager_view(AppId(0)).len(), 2);
        assert_eq!(host.directory_version(AppId(0)), 2);
        assert!(metric_incrs(&e2).contains(&"ns.installs"));
        assert!(
            e2.iter().any(|e| matches!(
                e,
                Effect::MetricObserve { name: M::NS_LOOKUP_LATENCY_S, .. }
            )),
            "install must record the lookup latency"
        );
        let installed = traces(&e2).into_iter().find_map(|t| match t {
            AuditEvent::NsInstall { version, managers, .. } => Some((*version, managers.to_string())),
            _ => None,
        });
        assert_eq!(installed, Some((2, "4;5".to_owned())));
        // A straggler from the settled round is ignored.
        let e3 = h.at(3_000).deliver(&mut host, 2, record_reply(&v1));
        assert!(metric_incrs(&e3).contains(&"host.late_reply"));
        assert_eq!(host.directory_version(AppId(0)), 2);
    }

    #[test]
    fn forged_record_is_rejected_and_does_not_count_toward_quorum() {
        let (mut host, kp, writer) = replicated_host(2);
        let mut h = Harness::new(9);
        start_host(&mut h, &mut host);
        let genuine = whole(1, vec![NodeId::from_index(4)], &kp, writer);
        // A malicious replica bumps the version but cannot re-sign.
        let forged = NsRecord { version: 2, ..whole(1, vec![NodeId::from_index(6)], &kp, writer) };
        let e1 = h.deliver(&mut host, 0, record_reply(&forged));
        assert!(metric_incrs(&e1).contains(&"host.ns_reject_bad_sig"));
        // A genuine record of another app is equally worthless.
        let other = NsRecord::signed(AppId(1), 2, forged.shards.clone(), writer, &kp.secret);
        let misfiled = ProtoMsg::NsRecordReply { app: AppId(0), ttl: TTL, record: Some(Box::new(other)) };
        let e2 = h.deliver(&mut host, 1, misfiled);
        assert!(metric_incrs(&e2).contains(&"host.ns_reject_bad_sig"));
        assert!(host.manager_view(AppId(0)).is_empty());
        // Two genuine replies still reach the quorum afterwards.
        h.deliver(&mut host, 0, record_reply(&genuine));
        h.deliver(&mut host, 2, record_reply(&genuine));
        assert_eq!(host.directory_version(AppId(0)), 1);
        assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(4)]);
        // And a reply from outside the replica set never counts.
        let e3 = h.deliver(&mut host, 8, record_reply(&genuine));
        assert!(metric_incrs(&e3).contains(&"host.ns_reply_untrusted"));
    }

    #[test]
    fn ns_trust_unsigned_bug_installs_forged_record() {
        // The planted bug for invariant I7: a host that skips signature
        // verification happily installs a forged manager set.
        let (mut host, kp, writer) = replicated_host(2);
        host.inject_ns_trust_unsigned();
        let mut h = Harness::new(9);
        start_host(&mut h, &mut host);
        let genuine = whole(1, vec![NodeId::from_index(4)], &kp, writer);
        let forged = NsRecord {
            version: 7,
            signature: genuine.signature,
            ..whole(1, vec![NodeId::from_index(6)], &kp, writer)
        };
        let forged = record_reply(&forged);
        h.deliver(&mut host, 0, record_reply(&genuine));
        h.deliver(&mut host, 1, forged);
        assert_eq!(host.directory_version(AppId(0)), 7);
        assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(6)]);
    }

    #[test]
    fn degraded_round_keeps_last_known_good_then_ttl_expiry_fails_closed() {
        let (mut host, kp, writer) = replicated_host(2);
        let mut h = Harness::new(9);
        start_host(&mut h, &mut host);
        let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
        h.deliver(&mut host, 0, record_reply(&v1));
        h.deliver(&mut host, 1, record_reply(&v1));
        assert_eq!(host.directory_version(AppId(0)), 1);
        // The scheduled refresh fires: a new round starts (no timeout yet).
        let tag = TAG_NS; // app 0 payload
        let e1 = h.at(TTL.as_nanos() * 8 / 10).fire(&mut host, tag);
        assert!(!metric_incrs(&e1).contains(&"ns.read_timeout"));
        assert!(metric_incrs(&e1).contains(&"ns.read_rounds"));
        // That round gets no replies; the retry timer fires inside the
        // TTL: degraded mode, the stale-but-live record keeps serving.
        let e2 = h.at(TTL.as_nanos() * 9 / 10).fire(&mut host, tag);
        assert!(metric_incrs(&e2).contains(&"ns.read_timeout"));
        assert!(metric_incrs(&e2).contains(&"ns.degraded_rounds"));
        assert!(traces(&e2).iter().any(|t| matches!(t, AuditEvent::NsDegraded { .. })));
        assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(4)]);
        // The TTL lapses without a refresh: the view empties (fail-closed
        // through the empty-manager-view path).
        let e3 = h.at(TTL.as_nanos() + 1).fire(&mut host, TAG_NSEXP);
        assert!(metric_incrs(&e3).contains(&"ns.record_expired"));
        assert!(traces(&e3).iter().any(|t| matches!(t, AuditEvent::NsExpire { .. })));
        assert!(host.manager_view(AppId(0)).is_empty());
        // A later quorum read heals the view.
        h.deliver(&mut host, 0, record_reply(&v1));
        h.deliver(&mut host, 2, record_reply(&v1));
        assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(4)]);
    }

    #[test]
    fn stale_quorum_never_rolls_the_view_back() {
        let (mut host, kp, writer) = replicated_host(2);
        let mut h = Harness::new(9);
        start_host(&mut h, &mut host);
        let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
        let v2 = whole(2, vec![NodeId::from_index(5)], &kp, writer);
        h.deliver(&mut host, 0, record_reply(&v2));
        h.deliver(&mut host, 1, record_reply(&v2));
        assert_eq!(host.directory_version(AppId(0)), 2);
        // A later round reaches only stale replicas answering v1.
        h.at(1_000_000).fire(&mut host, TAG_NS);
        h.deliver(&mut host, 0, record_reply(&v1));
        let e = h.deliver(&mut host, 1, record_reply(&v1));
        assert!(metric_incrs(&e).contains(&"ns.stale_quorum"));
        assert_eq!(host.directory_version(AppId(0)), 2);
        assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(5)]);
    }

    #[test]
    fn negative_quorum_installs_empty_view() {
        let (mut host, _kp, _writer) = replicated_host(2);
        let mut h = Harness::new(9);
        start_host(&mut h, &mut host);
        let negative =
            ProtoMsg::NsRecordReply { app: AppId(0), ttl: SimDuration::from_secs(15), record: None };
        h.deliver(&mut host, 0, negative.clone());
        let e = h.deliver(&mut host, 1, negative);
        assert!(metric_incrs(&e).contains(&"ns.installs"));
        assert!(host.manager_view(AppId(0)).is_empty());
        assert_eq!(host.directory_version(AppId(0)), 0);
    }

    #[test]
    fn replicated_crash_clears_directory_state() {
        let (mut host, kp, writer) = replicated_host(2);
        let mut h = Harness::new(9);
        start_host(&mut h, &mut host);
        let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
        h.deliver(&mut host, 0, record_reply(&v1));
        h.deliver(&mut host, 1, record_reply(&v1));
        assert_eq!(host.directory_version(AppId(0)), 1);
        host.on_crash();
        assert!(host.manager_view(AppId(0)).is_empty());
        assert_eq!(host.directory_version(AppId(0)), 0);
        // Recovery restarts the quorum-read machinery from scratch.
        let effects = {
            let mut effects = Vec::new();
            let mut ctx =
                Context::new(h.id, h.now, &mut effects, &mut h.rng, &mut h.next_timer);
            host.on_recover(&mut ctx);
            effects
        };
        assert!(sends(&effects).iter().any(|(_, m)| matches!(m, ProtoMsg::NsQuery { .. })));
    }

    /// A host routes checks only on a live record: once the record's TTL
    /// lapses, or the host crashes, a check queries nobody and fails
    /// closed — whether the record was one whole-keyspace entry or a
    /// two-shard map (user 1 hashes to bucket 18, shard 0's).
    #[test]
    fn a_host_without_a_live_record_fails_closed_flat_or_sharded() {
        let n = NodeId::from_index;
        let entry = |shard, lo, hi, managers| ShardEntry { shard: ShardId(shard), lo, hi, managers };
        let shapes = [
            ("flat", vec![ShardEntry::whole_keyspace(AppId(0), vec![n(4), n(5)])]),
            ("sharded", vec![entry(0, 0, 127, vec![n(4), n(5)]), entry(1, 128, 255, vec![n(6), n(7)])]),
        ];
        let queried = |effects: &[Effect<ProtoMsg>]| -> Vec<NodeId> {
            sends(effects)
                .into_iter()
                .filter(|(_, m)| matches!(m, ProtoMsg::Query { .. }))
                .map(|(to, _)| to)
                .collect()
        };
        for (shape, shards) in shapes {
            for lapse in ["ttl", "crash"] {
                let (mut host, kp, writer) = replicated_host(2);
                let mut h = Harness::new(9);
                start_host(&mut h, &mut host);
                let record = NsRecord::signed(AppId(0), 1, shards.clone(), writer, &kp.secret);
                h.deliver(&mut host, 0, record_reply(&record));
                h.deliver(&mut host, 1, record_reply(&record));
                assert_eq!(queried(&h.deliver(&mut host, 7, invoke(1))), [n(4), n(5)], "{shape}");
                if lapse == "ttl" {
                    h.at(TTL.as_nanos() + 1).fire(&mut host, TAG_NSEXP);
                } else {
                    host.on_crash();
                }
                let effects = h.deliver(&mut host, 7, invoke(1));
                assert!(queried(&effects).is_empty(), "{shape} after {lapse}");
                assert!(metric_incrs(&effects).contains(&"host.empty_manager_view"), "{shape} after {lapse}");
                assert!(sends(&effects).iter().any(|(_, m)| matches!(
                    m,
                    ProtoMsg::InvokeReply { outcome: InvokeOutcome::Unavailable, .. }
                )));
                assert!(host.manager_view(AppId(0)).is_empty(), "{shape} after {lapse}");
            }
        }
    }

    fn bad_macs(effects: &[Effect<ProtoMsg>]) -> usize {
        effects
            .iter()
            .filter(|e| matches!(e, Effect::MetricIncr { name: M::HOST_BAD_CHANNEL_MAC }))
            .count()
    }

    /// Sends `invoke(user)` from node 7 and returns the id of the query
    /// round it opened.
    fn open_query(h: &mut Harness, host: &mut HostNode, user: u64) -> ReqId {
        let effects = h.deliver(host, 7, invoke(user));
        sends(&effects)
            .into_iter()
            .find_map(|(_, m)| match m {
                ProtoMsg::Query { req, .. } => Some(*req),
                _ => None,
            })
            .expect("query sent")
    }

    fn grant_reply(req: ReqId, user: u64, mac: Option<wanacl_auth::hmac::Tag>) -> ProtoMsg {
        ProtoMsg::QueryReply {
            req,
            app: AppId(0),
            user: UserId(user),
            verdict: crate::channel::grant(9),
            mac,
        }
    }

    #[test]
    fn authenticated_host_rejects_every_kind_of_wrong_tag() {
        use crate::channel::ChannelKeys;
        let me = NodeId::from_index(9);
        let mgr = NodeId::from_index(0);
        let keys = Arc::new(ChannelKeys::from_seed(1));
        let mut host = host_with_managers(&[0, 1]);
        host.set_channel_keys(keys.clone());
        let mut h = Harness::new(9);
        let req = open_query(&mut h, &mut host, 1);
        let v = crate::channel::grant(9);
        let good = keys.tag_query_reply(mgr, me, req, AppId(0), UserId(1), &v);
        let mut tampered = good;
        tampered.0[0] ^= 0x80;
        let wrong = [
            None,
            Some(tampered),
            // Made by manager 1 under the key it shares with this host.
            Some(keys.tag_query_reply(NodeId::from_index(1), me, req, AppId(0), UserId(1), &v)),
            // Made under the right pair of another deployment's master.
            Some(ChannelKeys::from_seed(2).tag_query_reply(mgr, me, req, AppId(0), UserId(1), &v)),
            // A revoke-notice tag is not a query-reply tag.
            Some(keys.tag_revoke_notice(mgr, me, AppId(0), UserId(1))),
        ];
        for mac in wrong {
            let effects = h.deliver(&mut host, 0, grant_reply(req, 1, mac));
            assert_eq!(bad_macs(&effects), 1, "{mac:?}");
            assert!(sends(&effects).is_empty(), "{mac:?}");
            assert_eq!(host.cached_limit(AppId(0), UserId(1)), None, "{mac:?}");
        }
        let effects = h.deliver(&mut host, 0, grant_reply(req, 1, Some(good)));
        assert_eq!(bad_macs(&effects), 0);
        assert!(sends(&effects).iter().any(|(_, m)| matches!(
            m,
            ProtoMsg::InvokeReply { outcome: InvokeOutcome::Allowed { .. }, .. }
        )));

        // The same for flushes: only the sender's own tag removes a lease.
        let good = keys.tag_revoke_notice(mgr, me, AppId(0), UserId(1));
        let mut tampered = good;
        tampered.0[31] ^= 1;
        let wrong = [
            None,
            Some(tampered),
            Some(keys.tag_revoke_notice(NodeId::from_index(1), me, AppId(0), UserId(1))),
            Some(ChannelKeys::from_seed(2).tag_revoke_notice(mgr, me, AppId(0), UserId(1))),
            Some(keys.tag_revoke_notice(mgr, me, AppId(0), UserId(2))),
        ];
        for mac in wrong {
            let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac };
            assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 1, "{mac:?}");
            assert!(host.cached_limit(AppId(0), UserId(1)).is_some(), "{mac:?}");
        }
        let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: Some(good) };
        assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 0);
        assert_eq!(host.cached_limit(AppId(0), UserId(1)), None);
        assert_eq!(host.stats().revoke_flushes, 1);
    }

    #[test]
    fn rekeying_a_host_drops_held_keys_and_rejects_tags_of_the_old_master() {
        use crate::channel::ChannelKeys;
        let me = NodeId::from_index(9);
        let mgr = NodeId::from_index(0);
        let old = Arc::new(ChannelKeys::from_seed(1));
        let new = Arc::new(ChannelKeys::from_seed(2));
        let mut host = host_with_managers(&[0]);
        host.set_channel_keys(old.clone());
        let mut h = Harness::new(9);
        let v = crate::channel::grant(9);
        let req = open_query(&mut h, &mut host, 1);
        let tag = old.tag_query_reply(mgr, me, req, AppId(0), UserId(1), &v);
        assert_eq!(bad_macs(&h.deliver(&mut host, 0, grant_reply(req, 1, Some(tag)))), 0);
        assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(1));

        host.set_channel_keys(new.clone());
        assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(0), "rotation empties the table");
        // A notice tagged before the rotation no longer flushes ...
        let stale = old.tag_revoke_notice(mgr, me, AppId(0), UserId(1));
        let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: Some(stale) };
        assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 1);
        assert!(host.cached_limit(AppId(0), UserId(1)).is_some());
        // ... nor does a reply tagged before it grant ...
        let req = open_query(&mut h, &mut host, 2);
        let stale = old.tag_query_reply(mgr, me, req, AppId(0), UserId(2), &v);
        assert_eq!(bad_macs(&h.deliver(&mut host, 0, grant_reply(req, 2, Some(stale)))), 1);
        assert_eq!(host.cached_limit(AppId(0), UserId(2)), None);
        // ... while tags under the new master do both.
        let fresh = new.tag_query_reply(mgr, me, req, AppId(0), UserId(2), &v);
        assert_eq!(bad_macs(&h.deliver(&mut host, 0, grant_reply(req, 2, Some(fresh)))), 0);
        assert!(host.cached_limit(AppId(0), UserId(2)).is_some());
        let fresh = new.tag_revoke_notice(mgr, me, AppId(0), UserId(1));
        let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: Some(fresh) };
        assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 0);
        assert_eq!(host.cached_limit(AppId(0), UserId(1)), None);
        assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(1));
    }

    #[test]
    fn host_holds_one_pair_key_per_tagging_peer_and_prints_none() {
        use crate::channel::ChannelKeys;
        let me = NodeId::from_index(9);
        let master = *b"an unmistakable 32-byte master!!";
        let keys = Arc::new(ChannelKeys::new(master));
        let mut host = host_with_managers(&[0, 1, 2]);
        host.set_channel_keys(keys.clone());
        let mut h = Harness::new(9);
        let v = crate::channel::grant(9);
        // Replies and notices from three managers, interleaved and
        // repeated; a forged tag from a fourth node; an untagged message
        // from a fifth, which is refused before any key is derived.
        for (user, from) in [(1u64, 0usize), (2, 1), (3, 0), (4, 2), (5, 1), (6, 4)] {
            let req = open_query(&mut h, &mut host, user);
            let from_id = NodeId::from_index(from);
            let tag = keys.tag_query_reply(from_id, me, req, AppId(0), UserId(user), &v);
            h.deliver(&mut host, from, grant_reply(req, user, Some(tag)));
            let tag = keys.tag_revoke_notice(from_id, me, AppId(0), UserId(user));
            let mac = Some(tag);
            let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(user), mac };
            h.deliver(&mut host, from, notice);
        }
        let untagged = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: None };
        assert_eq!(bad_macs(&h.deliver(&mut host, 5, untagged)), 1);
        assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(4), "peers 0, 1, 2 and 4");

        let shown = format!("{host:?} {host:#?}");
        assert!(shown.contains("ChannelEnd"), "{shown}");
        assert!(!shown.contains("unmistakable"), "{shown}");
        assert!(!shown.contains("97, 110, 32, 117"), "{shown}");
        assert!(!shown.contains("616e20756e"), "{shown}");
    }

    impl Harness {
        fn fire(&mut self, node: &mut HostNode, tag: u64) -> Vec<Effect<ProtoMsg>> {
            fire_timer(self, node, tag)
        }
    }
}
