//! The application-host side of the protocol (Figures 2–4 plus the check
//! quorum of §3.3).
//!
//! A [`HostNode`] wraps one or more applications (Figure 1). For each
//! arriving `Invoke` it:
//!
//! 1. authenticates the request (if the deployment runs with signatures),
//! 2. consults the per-application [`crate::cache::AclCache`], honouring
//!    the time-based expiration of §3.2,
//! 3. on a miss, runs the check protocol: query managers, collect a
//!    check quorum of `C` grants (any deny vetoes), retrying up to `R`
//!    attempts with per-attempt timeouts, and finally applying the
//!    fail-open/fail-closed policy of Figure 4,
//! 4. caches a granted right until `query_start + te` on its local clock
//!    (the `δ` adjustment of §3.2), and
//! 5. flushes cache entries when a manager forwards a `RevokeNotice`.
//!
//! The node is a router over three sub-machines, each owning its state:
//! per app, the directory reader that supplies the shard map; the check
//! attempts in flight; and the leases with their refresh. Only the
//! router carries a step from one to another — a check that finishes
//! stores a lease, a lease due for refresh opens a check.

mod check;
mod directory;
mod lease;
#[cfg(test)]
mod tests;

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use wanacl_auth::hmac::Tag;
use wanacl_auth::rsa;
use wanacl_auth::signed::{KeyRegistry, PrincipalId};
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId};

use crate::audit::{AllowPath, AuditEvent};
use crate::cache::CacheDecision;
use crate::channel::{ChannelEnd, PairKey};
use crate::msg::{managers_of, InvokeSigning, InvokeOutcome, ProtoMsg, QueryVerdict, ReqId, ShardEntry};
use crate::policy::Policy;
use crate::types::{AppId, UserId};
use crate::wrapper::Application;

use check::{Checks, FinishKind, Next};
use directory::{DirectoryReader, NsTrust};
use lease::Leases;

/// Timer-tag namespaces (top byte selects the kind).
const TAG_KIND_SHIFT: u64 = 56;
const TAG_QUERY: u64 = 1 << TAG_KIND_SHIFT;
const TAG_SWEEP: u64 = 2 << TAG_KIND_SHIFT;
const TAG_NS: u64 = 3 << TAG_KIND_SHIFT;
const TAG_REFRESH: u64 = 4 << TAG_KIND_SHIFT;
const TAG_NSEXP: u64 = 5 << TAG_KIND_SHIFT;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

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

struct AppState {
    policy: Policy,
    application: Box<dyn Application>,
    directory: DirectoryReader,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState").field("directory", &self.directory).finish_non_exhaustive()
    }
}

/// A host running one or more access-controlled applications.
#[derive(Debug)]
pub struct HostNode {
    apps: BTreeMap<AppId, AppState>,
    registry: Option<Arc<KeyRegistry>>,
    checks: Checks,
    leases: Leases,
    /// This host's end of the authenticated manager channel: the key it
    /// shares with each manager heard from so far. `None` accepts
    /// replies and notices untagged.
    channel: Option<ChannelEnd>,
    ns_trust: NsTrust,
    stats: HostStats,
}

impl HostNode {
    /// Creates a host serving the given applications.
    ///
    /// When `registry` is provided, every `Invoke` must carry a valid
    /// signature from the claimed user; without it the deployment runs
    /// unauthenticated (useful for protocol-only experiments).
    pub fn new(apps: Vec<AppHost>, registry: Option<Arc<KeyRegistry>>) -> Self {
        let apps: BTreeMap<AppId, AppState> = apps
            .into_iter()
            .map(|spec| {
                let directory = DirectoryReader::new(spec.app, spec.directory);
                (spec.app, AppState { policy: spec.policy, application: spec.application, directory })
            })
            .collect();
        HostNode {
            leases: Leases::new(apps.keys().copied()),
            apps,
            registry,
            checks: Checks::default(),
            channel: None,
            ns_trust: NsTrust::default(),
            stats: HostStats::default(),
        }
    }

    /// Installs the replicated-directory trust anchor: records must
    /// verify against `registry` as signed by `writer` or they are
    /// discarded (`host.ns_reject_bad_sig`). Without a trust anchor the
    /// host accepts any well-formed record — fine for protocol-only
    /// experiments, unsafe with a malicious replica.
    pub fn set_ns_trust(&mut self, registry: Arc<KeyRegistry>, writer: PrincipalId) {
        self.ns_trust.anchor = Some((registry, writer));
    }

    /// Fault injection: makes this host skip record-signature checks on
    /// quorum reads, so a forged or rolled-back record from a malicious
    /// replica is installed as if legitimate. Used by nemesis campaigns
    /// to plant a known integrity bug and prove invariant I7 detects it.
    pub fn inject_ns_trust_unsigned(&mut self) {
        self.ns_trust.unsigned = true;
    }

    /// Version stamp of the installed directory record for `app`
    /// (0 until a quorum read completes).
    pub fn directory_version(&self, app: AppId) -> u64 {
        self.apps.get(&app).map_or(0, |a| a.directory.version())
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
        self.leases.cache(app).map_or(0, |c| c.len())
    }

    /// Inspects the cached expiry limit for a user (tests/experiments).
    pub fn cached_limit(&self, app: AppId, user: UserId) -> Option<LocalTime> {
        self.leases.cache(app)?.peek(user)
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
        self.leases
            .cache_mut(app)
            .unwrap_or_else(|| panic!("{app} not served by this host"))
            .set_ignore_expiry(true);
    }

    /// Fault injection: the *stale shard map* fault. The host stops
    /// installing fresher directory records for `app` and keeps routing
    /// checks on whatever map it currently holds, until the record's
    /// TTL lapses and the view fails closed.
    pub fn set_pin_ns_version(&mut self, app: AppId) {
        if let Some(state) = self.apps.get_mut(&app) {
            state.directory.pin();
        }
    }

    /// The shard map checks for an application route on.
    pub fn shard_map(&self, app: AppId) -> &[ShardEntry] {
        self.apps.get(&app).map_or(&[], |a| a.directory.shards())
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

    /// A start or a recovery: every app's sweep timer, and a first read
    /// of every replicated directory.
    fn arm_periodic(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        for (&app, state) in &mut self.apps {
            ctx.set_timer(state.policy.cache_sweep_interval(), TAG_SWEEP | u64::from(app.0));
            state.directory.arm(ctx, app, &state.policy);
        }
    }

    /// Whether `from`'s tag verifies under the key this host shares with
    /// it (any message does on an unauthenticated deployment); a missing
    /// or bad tag is counted. The key is derived only for a tagged
    /// message.
    fn tag_ok(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        mac: Option<Tag>,
        verify: impl FnOnce(&PairKey, &Tag) -> bool,
    ) -> bool {
        let Some(channel) = &mut self.channel else { return true };
        let ok = mac.is_some_and(|tag| verify(channel.pair(ctx.id(), from), &tag));
        if !ok {
            ctx.metric_incr(M::HOST_BAD_CHANNEL_MAC);
        }
        ok
    }

    /// Starts (or restarts) one attempt of check `id`; an empty manager
    /// view resolves it at once per the Figure 4 exhaustion policy —
    /// waiting out `R` query timeouts would only delay the inevitable.
    fn start_attempt(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: u64) {
        let Some(state) = self.checks.get(id).and_then(|p| self.apps.get(&p.app)) else { return };
        let sent = self.checks.attempt(ctx, id, &state.policy, &state.directory);
        self.stats.queries_sent += sent as u64;
        if sent == 0 {
            let exhausted = FinishKind::exhausted(&state.policy);
            self.finish(ctx, id, exhausted);
        }
    }

    /// This attempt cannot produce a quorum (timeout, or every remaining
    /// manager recovering): either run the next attempt or apply the
    /// Figure 4 exhaustion policy.
    fn attempt_failed(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: u64) {
        let Some((p, state)) = self.checks.get(id).and_then(|p| Some((p, self.apps.get(&p.app)?))) else {
            return;
        };
        if p.attempt >= state.policy.max_attempts() {
            let exhausted = FinishKind::exhausted(&state.policy);
            self.finish(ctx, id, exhausted);
        } else {
            self.start_attempt(ctx, id);
        }
    }

    /// Finishes a pending check with the given outcome.
    fn finish(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: u64, kind: FinishKind) {
        let Some(p) = self.checks.close(ctx, id) else { return };
        let Some(state) = self.apps.get(&p.app) else { return };
        if p.background {
            // A refresh: renew on grant, flush on deny; with no quorum
            // the lease lapses on its own schedule, as without refresh.
            match kind {
                FinishKind::Grant => {
                    if self.leases.store(ctx, &state.policy, &p, false).is_some() {
                        ctx.metric_incr(M::HOST_REFRESH_RENEWED);
                    }
                }
                FinishKind::Deny => {
                    if let Some(cache) = self.leases.cache_mut(p.app) {
                        cache.remove(p.user);
                    }
                    ctx.metric_incr(M::HOST_REFRESH_DENIED);
                }
                FinishKind::FailOpen | FinishKind::Unavailable => ctx.metric_incr(M::HOST_REFRESH_FAILED),
            }
            return;
        }
        let elapsed = ctx.local_now().since(p.first_started).as_secs_f64();
        ctx.metric_observe(M::HOST_CHECK_LATENCY_S, elapsed);
        // The same latency, split by how the check resolved, so the
        // manager round-trip path and the exhaustion paths can be
        // compared directly (the paper's §5 overhead breakdown).
        let split = match kind {
            FinishKind::Grant | FinishKind::Deny => M::HOST_LATENCY_QUORUM_S,
            FinishKind::FailOpen => M::HOST_LATENCY_FAILOPEN_S,
            FinishKind::Unavailable => M::HOST_LATENCY_UNAVAILABLE_S,
        };
        ctx.metric_observe(split, elapsed);
        let outcome = match kind {
            FinishKind::Grant => {
                let limit = self.leases.store(ctx, &state.policy, &p, true);
                let c = state.policy.check_quorum();
                self.allow(ctx, p.app, p.user, &p.payload, || AllowPath::Quorum {
                    confirms: p.grants.len(),
                    c,
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
            let signed = InvokeSigning { user, app, req, payload: &payload };
            let ok = signature.is_some_and(|sig| registry.verify(user.into(), &signed, &sig));
            if !ok {
                self.stats.auth_rejects += 1;
                ctx.metric_incr(M::HOST_AUTH_REJECT);
                ctx.send(from, ProtoMsg::InvokeReply { req, outcome: InvokeOutcome::BadSignature });
                return;
            }
        }
        // Figure 3: cache lookup with expiry.
        match self.leases.lookup(app, user, ctx.local_now()) {
            None => {
                ctx.metric_incr(M::HOST_UNKNOWN_APP);
                ctx.send(from, ProtoMsg::InvokeReply { req, outcome: InvokeOutcome::Denied });
            }
            Some(CacheDecision::Fresh(limit)) => {
                self.stats.cache_hits += 1;
                ctx.metric_incr(M::HOST_CACHE_HIT);
                // A cache hit resolves inside this event: no manager
                // round trip, so its check latency is zero by
                // construction. Recording it keeps the latency split
                // histograms directly comparable.
                ctx.metric_observe(M::HOST_LATENCY_CACHE_S, 0.0);
                let now = ctx.local_now();
                let outcome = self.allow(ctx, app, user, &payload, || AllowPath::Cache { now, limit });
                ctx.send(from, ProtoMsg::InvokeReply { req, outcome });
            }
            Some(CacheDecision::Expired | CacheDecision::Missing) => {
                self.stats.cache_misses += 1;
                ctx.metric_incr(M::HOST_CACHE_MISS);
                let id = self.checks.open(ctx, (app, user), (from, req), payload, false);
                self.start_attempt(ctx, id);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_query_reply(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        from: NodeId,
        req: ReqId,
        app: AppId,
        user: UserId,
        verdict: QueryVerdict,
        mac: Option<Tag>,
    ) {
        // Figure 3: responses arriving after the attempt's timer are
        // ignored — only the *current* attempt's query id is indexed.
        // A late reply is dropped before its tag is checked: it could
        // change nothing, so verifying it would be wasted work.
        let Some(id) = self.checks.current(req) else {
            ctx.metric_incr(M::HOST_LATE_REPLY);
            return;
        };
        let verify = |k: &PairKey, tag: &Tag| k.verify_query_reply(req, app, user, &verdict, tag);
        if !self.tag_ok(ctx, from, mac, verify) {
            return;
        }
        let Some(state) = self.checks.get(id).and_then(|p| self.apps.get(&p.app)) else { return };
        // Only nodes in the current manager view may vote: a reply from
        // anywhere else (a compromised host guessing request ids, per
        // the §2.1 failure model) must not count toward the quorum.
        if !state.directory.names(from) {
            ctx.metric_incr(M::HOST_REPLY_FROM_NON_MANAGER);
            return;
        }
        match self.checks.on_verdict(ctx, id, from, verdict, state.policy.check_quorum()) {
            Some(Next::Finish(kind)) => self.finish(ctx, id, kind),
            Some(Next::AttemptFailed) => self.attempt_failed(ctx, id),
            None => {}
        }
    }

    /// Fires a proactive refresh if the lease is still alive and the
    /// user has actually been active during the current lease term.
    fn on_refresh_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, key: u64) {
        let apps = &self.apps;
        let due = self.leases.refresh_due(ctx, key, |app| Some(apps.get(&app)?.policy.expiry_budget()));
        if let Some(lease) = due {
            let me = ctx.id();
            let id = self.checks.open(ctx, lease, (me, ReqId(0)), "".into(), true);
            self.start_attempt(ctx, id);
        }
    }
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
                self.on_query_reply(ctx, from, req, app, user, verdict, mac);
            }
            ProtoMsg::RevokeNotice { app, user, mac } => {
                let verify = |k: &PairKey, tag: &Tag| k.verify_revoke_notice(app, user, tag);
                let flushed = self.tag_ok(ctx, from, mac, verify)
                    && self.leases.cache_mut(app).is_some_and(|cache| cache.remove(user));
                if flushed {
                    self.stats.revoke_flushes += 1;
                    ctx.metric_incr(M::HOST_REVOKE_FLUSH);
                }
            }
            ProtoMsg::NsRecordReply { app, ttl, record } => {
                if let Some(state) = self.apps.get_mut(&app) {
                    state.directory.on_reply(ctx, from, app, ttl, record, &self.ns_trust);
                }
            }
            _ => ctx.metric_incr(M::HOST_UNEXPECTED_MSG),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        let payload = tag & TAG_PAYLOAD_MASK;
        let app = AppId(payload as u32);
        match tag & !TAG_PAYLOAD_MASK {
            TAG_QUERY => {
                self.checks.timed_out(payload);
                self.attempt_failed(ctx, payload);
            }
            TAG_REFRESH => self.on_refresh_timer(ctx, payload),
            TAG_SWEEP => {
                let (Some(state), Some(cache)) = (self.apps.get(&app), self.leases.cache_mut(app)) else { return };
                if cache.sweep(ctx.local_now()) > 0 {
                    ctx.metric_incr(M::HOST_CACHE_SWEPT);
                }
                ctx.set_timer(state.policy.cache_sweep_interval(), tag);
            }
            TAG_NS => {
                if let Some(state) = self.apps.get_mut(&app) {
                    state.directory.on_round_timer(ctx, app, &state.policy);
                }
            }
            TAG_NSEXP => {
                if let Some(state) = self.apps.get_mut(&app) {
                    state.directory.on_expiry_timer(ctx, app);
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        // §3.4: every cache and check is volatile; recovery restarts
        // from empty.
        self.leases.clear();
        for (&app, state) in &mut self.apps {
            state.directory.reset(app);
        }
        self.checks.clear();
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
