//! The host's check attempts (Figures 2–4 and the check quorum of §3.3):
//! each pending check, the attempt it is on, the managers it asked and
//! the grants they returned.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId, TimerId};
use wanacl_sim::time::SimDuration;

use crate::msg::{ProtoMsg, QueryVerdict, ReqId};
use crate::policy::{ExhaustionBehavior, Policy, QueryFanout};
use crate::types::{AppId, UserId};

use super::directory::DirectoryReader;
use super::TAG_QUERY;

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

/// How a check resolved.
#[derive(Debug, Clone, Copy)]
pub(super) enum FinishKind {
    Grant,
    Deny,
    FailOpen,
    Unavailable,
}

impl FinishKind {
    /// Figure 4: what `R` failed attempts (or none possible) come to.
    pub(super) fn exhausted(policy: &Policy) -> Self {
        match policy.exhaustion() {
            ExhaustionBehavior::FailOpen => FinishKind::FailOpen,
            ExhaustionBehavior::FailClosed => FinishKind::Unavailable,
        }
    }
}

/// What a manager's verdict leaves to do.
pub(super) enum Next {
    Finish(FinishKind),
    /// This attempt can no longer reach the check quorum.
    AttemptFailed,
}

#[derive(Debug)]
pub(super) struct PendingCheck {
    pub(super) app: AppId,
    pub(super) user: UserId,
    pub(super) requester: NodeId,
    pub(super) user_req: ReqId,
    pub(super) payload: Arc<str>,
    pub(super) attempt: u32,
    pub(super) attempt_started: LocalTime,
    query_req: ReqId,
    pub(super) grants: BTreeMap<NodeId, SimDuration>,
    /// The managers queried this attempt.
    targets: Vec<NodeId>,
    /// Managers that answered `Unavailable` this attempt (recovering —
    /// §3.4). Not a veto, but they won't contribute grants either; once
    /// the remainder cannot form the check quorum, the attempt is over.
    unavailable: BTreeSet<NodeId>,
    timer: Option<TimerId>,
    pub(super) first_started: LocalTime,
    /// A proactive lease refresh: no requester to answer, no
    /// application call — just renew (or flush) the cache entry.
    pub(super) background: bool,
}

#[derive(Debug, Default)]
pub(super) struct Checks {
    pending: BTreeMap<u64, PendingCheck>,
    /// The current attempt's query id → its check.
    by_query: BTreeMap<ReqId, u64>,
    next_pending: u64,
    next_req: u64,
}

impl Checks {
    /// Opens a check for `user` on behalf of `requester` (the host
    /// itself, for a `background` refresh); returns its id.
    pub(super) fn open(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        (app, user): (AppId, UserId),
        (requester, user_req): (NodeId, ReqId),
        payload: Arc<str>,
        background: bool,
    ) -> u64 {
        let id = self.next_pending;
        self.next_pending += 1;
        let now = ctx.local_now();
        let check = PendingCheck {
            app,
            user,
            requester,
            user_req,
            payload,
            attempt: 0,
            attempt_started: now,
            query_req: ReqId(u64::MAX),
            grants: BTreeMap::new(),
            targets: Vec::new(),
            unavailable: BTreeSet::new(),
            timer: None,
            first_started: now,
            background,
        };
        self.pending.insert(id, check);
        id
    }

    pub(super) fn get(&self, id: u64) -> Option<&PendingCheck> {
        self.pending.get(&id)
    }

    /// The check whose current attempt sent query `req`.
    pub(super) fn current(&self, req: ReqId) -> Option<u64> {
        self.by_query.get(&req).copied()
    }

    /// Starts (or restarts) one attempt: asks the managers of the entry
    /// covering the user, by the policy's fan-out, and arms the attempt's
    /// timeout. Returns how many were asked; none means the view is
    /// empty and no attempt can ever form a quorum.
    pub(super) fn attempt(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        id: u64,
        policy: &Policy,
        directory: &DirectoryReader,
    ) -> usize {
        self.next_req += 1;
        let query_req = ReqId(self.next_req);
        let Some(p) = self.pending.get_mut(&id) else { return 0 };
        self.by_query.remove(&p.query_req);
        if let Some(t) = p.timer.take() {
            ctx.cancel_timer(t);
        }
        p.query_req = query_req;
        p.grants.clear();
        p.unavailable.clear();
        p.attempt += 1;
        p.attempt_started = ctx.local_now();
        self.by_query.insert(query_req, id);

        // Shard routing: only the covering entry's managers are
        // candidates — the check fans out (and its quorum forms) over
        // that set alone, so per-check traffic stays independent of how
        // many shards or tenants exist elsewhere. No live record, or one
        // that does not cover the user, leaves the view empty.
        let view = match directory.route(p.user) {
            Some(entry) => {
                ctx.metric_incr(entry.shard.metric(&SHARD_CHECK_METRICS));
                entry.managers.clone()
            }
            None => Vec::new(),
        };
        p.targets = match policy.fanout() {
            QueryFanout::All => view,
            QueryFanout::Subset => {
                let mut pool = view;
                ctx.rng().shuffle(&mut pool);
                pool.truncate(policy.check_quorum());
                pool
            }
            // Figure 2: one manager at a time, rotating per attempt.
            QueryFanout::Sequential if view.is_empty() => view,
            QueryFanout::Sequential => vec![view[(p.attempt as usize - 1) % view.len()]],
        };
        if p.attempt > 1 {
            ctx.metric_incr(M::HOST_ATTEMPT_RETRY);
        }
        if p.targets.is_empty() {
            // An empty manager view — e.g. the name service is down and
            // its TTL lapsed, or an NS reply carried no managers — can
            // never produce a quorum, and retrying in the same event
            // cannot change the view.
            ctx.metric_incr(M::HOST_EMPTY_MANAGER_VIEW);
            return 0;
        }
        let msg = ProtoMsg::Query { app: p.app, user: p.user, req: query_req };
        for t in &p.targets {
            ctx.metric_incr(M::HOST_QUERIES_SENT);
            ctx.send(*t, msg.clone());
        }
        p.timer = Some(ctx.set_timer(policy.query_timeout(), TAG_QUERY | id));
        p.targets.len()
    }

    /// A manager of the current view answered check `id`; `needed` grants
    /// form its quorum.
    pub(super) fn on_verdict(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        id: u64,
        from: NodeId,
        verdict: QueryVerdict,
        needed: usize,
    ) -> Option<Next> {
        let p = self.pending.get_mut(&id)?;
        match verdict {
            // One deny vetoes: after a revoke reaches its update quorum,
            // every check quorum contains a denier.
            QueryVerdict::Deny => Some(Next::Finish(FinishKind::Deny)),
            QueryVerdict::Grant { te } => {
                p.grants.insert(from, te);
                (p.grants.len() >= needed).then_some(Next::Finish(FinishKind::Grant))
            }
            QueryVerdict::Unavailable { .. } => {
                // A recovering manager (§3.4) is *retryable*, not a veto:
                // it neither denies nor grants. If the managers still
                // able to answer cannot form the check quorum, give up on
                // this attempt right away instead of waiting out the
                // query timer.
                ctx.metric_incr(M::HOST_MANAGER_UNAVAILABLE);
                p.unavailable.insert(from);
                let reachable = p.targets.iter().filter(|t| !p.unavailable.contains(t)).count();
                (reachable < needed).then_some(Next::AttemptFailed)
            }
        }
    }

    /// The attempt's timer fired: it is spent, so forget its id — or the
    /// next attempt (or the close) would cancel it again and a
    /// wall-clock driver would keep the id for good, waiting for a
    /// queued timer that has already fired.
    pub(super) fn timed_out(&mut self, id: u64) {
        if let Some(p) = self.pending.get_mut(&id) {
            p.timer = None;
        }
    }

    /// Retires check `id`.
    pub(super) fn close(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: u64) -> Option<PendingCheck> {
        let p = self.pending.remove(&id)?;
        self.by_query.remove(&p.query_req);
        if let Some(t) = p.timer {
            ctx.cancel_timer(t);
        }
        Some(p)
    }

    /// A crash forgets every check in flight.
    pub(super) fn clear(&mut self) {
        self.pending.clear();
        self.by_query.clear();
    }
}
