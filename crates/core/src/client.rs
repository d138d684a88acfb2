//! Workload agents: users invoking applications and admins issuing
//! access-right changes.
//!
//! These are the traffic generators of every experiment. A [`UserAgent`]
//! issues `Invoke`s (Poisson arrivals) against a set of hosts and records
//! outcomes; an [`AdminAgent`] plays the manager-principal of §2.3,
//! issuing `Add`/`Revoke` operations and persistently retrying until the
//! receiving manager confirms them.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use wanacl_auth::rsa::{self, SecretKey};
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId, TimerId};
use wanacl_sim::time::SimDuration;

use crate::msg::{
    admin_signing_bytes, invoke_signing_bytes, AclOp, AdminStatus, InvokeOutcome, ProtoMsg,
    RejectReason, ReqId,
};
use crate::types::{user_bucket, AppId, UserId};

const TAG_KIND_SHIFT: u64 = 56;
const TAG_ARRIVAL: u64 = 1 << TAG_KIND_SHIFT;
const TAG_TIMEOUT: u64 = 2 << TAG_KIND_SHIFT;
const TAG_ACTION: u64 = 3 << TAG_KIND_SHIFT;
const TAG_RESEND: u64 = 4 << TAG_KIND_SHIFT;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

/// Shape of a user's automatic request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadShape {
    /// Memoryless arrivals with the given mean inter-arrival time.
    Poisson {
        /// Mean inter-arrival time.
        mean: SimDuration,
    },
}

/// Configuration of a [`UserAgent`].
#[derive(Debug, Clone)]
pub struct UserAgentConfig {
    /// The user this agent acts as.
    pub user: UserId,
    /// The application it invokes.
    pub app: AppId,
    /// Hosts it may contact (chosen uniformly per request). Shared
    /// (`Arc<[NodeId]>`): every user in a deployment points at the same
    /// host list instead of carrying its own copy.
    pub hosts: Arc<[NodeId]>,
    /// Automatic request stream; `None` disables it (requests are then
    /// only triggered by the harness injecting an `Invoke` from the
    /// environment).
    pub workload: Option<WorkloadShape>,
    /// Request body (shared, cheap to clone per request).
    pub payload: Arc<str>,
    /// Secret key for signing requests (`None` sends unsigned).
    pub secret: Option<SecretKey>,
    /// How long to wait for a host reply before counting a timeout.
    pub request_timeout: SimDuration,
    /// Stop after this many automatic requests (`None` = unbounded).
    pub max_requests: Option<u64>,
}

/// Outcome counters kept by a [`UserAgent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UserStats {
    /// Requests sent.
    pub sent: u64,
    /// Requests allowed (the application ran).
    pub allowed: u64,
    /// Requests denied by access control.
    pub denied: u64,
    /// Requests rejected as unavailable (quorum unreachable).
    pub unavailable: u64,
    /// Requests rejected for bad signatures.
    pub bad_signature: u64,
    /// Requests that got no reply within the timeout.
    pub timeouts: u64,
}

impl std::ops::AddAssign for UserStats {
    fn add_assign(&mut self, other: UserStats) {
        self.sent += other.sent;
        self.allowed += other.allowed;
        self.denied += other.denied;
        self.unavailable += other.unavailable;
        self.bad_signature += other.bad_signature;
        self.timeouts += other.timeouts;
    }
}

impl UserStats {
    /// Requests with any definitive reply.
    pub fn replied(&self) -> u64 {
        self.allowed + self.denied + self.unavailable + self.bad_signature
    }
}

#[derive(Debug)]
struct OutstandingRequest {
    timer: TimerId,
}

/// A user issuing `Invoke`s against application hosts.
#[derive(Debug)]
pub struct UserAgent {
    config: UserAgentConfig,
    next_req: u64,
    outstanding: BTreeMap<ReqId, OutstandingRequest>,
    stats: UserStats,
    last_outcome: Option<InvokeOutcome>,
    auto_sent: u64,
}

impl UserAgent {
    /// Creates the agent.
    pub fn new(config: UserAgentConfig) -> Self {
        UserAgent {
            config,
            next_req: 0,
            outstanding: BTreeMap::new(),
            stats: UserStats::default(),
            last_outcome: None,
            auto_sent: 0,
        }
    }

    /// The agent's outcome counters.
    pub fn stats(&self) -> UserStats {
        self.stats
    }

    /// The most recent reply outcome (for scripted tests).
    pub fn last_outcome(&self) -> Option<&InvokeOutcome> {
        self.last_outcome.as_ref()
    }

    /// Requests still awaiting a reply.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    fn send_request(&mut self, ctx: &mut Context<'_, ProtoMsg>, payload: Option<Arc<str>>) {
        if self.config.hosts.is_empty() {
            return;
        }
        self.next_req += 1;
        let req = ReqId(self.next_req);
        let host = *ctx.rng().choose(&self.config.hosts);
        let payload = payload.unwrap_or_else(|| self.config.payload.clone());
        let signature = self.config.secret.as_ref().map(|key| {
            let bytes = invoke_signing_bytes(self.config.user, self.config.app, req, &payload);
            rsa::sign(key, &bytes)
        });
        self.stats.sent += 1;
        ctx.metric_incr(M::USER_SENT);
        ctx.send(
            host,
            ProtoMsg::Invoke {
                app: self.config.app,
                user: self.config.user,
                req,
                payload,
                signature,
            },
        );
        let timer = ctx.set_timer(self.config.request_timeout, TAG_TIMEOUT | req.0);
        self.outstanding.insert(req, OutstandingRequest { timer });
    }

    fn schedule_arrival(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let Some(WorkloadShape::Poisson { mean }) = self.config.workload else { return };
        if let Some(max) = self.config.max_requests {
            if self.auto_sent >= max {
                return;
            }
        }
        let wait = SimDuration::from_secs_f64(ctx.rng().exponential(mean.as_secs_f64()));
        ctx.set_timer(wait, TAG_ARRIVAL);
    }
}

impl Node for UserAgent {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.schedule_arrival(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match msg {
            // Harness path: an Invoke sent *to* a user agent from the
            // environment means "issue one request now".
            ProtoMsg::Invoke { payload, .. } if from == NodeId::ENV => {
                self.send_request(ctx, Some(payload));
            }
            ProtoMsg::InvokeReply { req, outcome } => {
                let Some(out) = self.outstanding.remove(&req) else { return };
                ctx.cancel_timer(out.timer);
                match &outcome {
                    InvokeOutcome::Allowed { .. } => {
                        self.stats.allowed += 1;
                        ctx.metric_incr(M::USER_ALLOWED);
                    }
                    InvokeOutcome::Denied => {
                        self.stats.denied += 1;
                        ctx.metric_incr(M::USER_DENIED);
                    }
                    InvokeOutcome::Unavailable => {
                        self.stats.unavailable += 1;
                        ctx.metric_incr(M::USER_UNAVAILABLE);
                    }
                    InvokeOutcome::BadSignature => {
                        self.stats.bad_signature += 1;
                        ctx.metric_incr(M::USER_BAD_SIGNATURE);
                    }
                }
                self.last_outcome = Some(outcome);
            }
            _ => {
                ctx.metric_incr(M::USER_UNEXPECTED_MSG);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        match tag & !TAG_PAYLOAD_MASK {
            TAG_ARRIVAL => {
                self.auto_sent += 1;
                self.send_request(ctx, None);
                self.schedule_arrival(ctx);
            }
            TAG_TIMEOUT => {
                let req = ReqId(tag & TAG_PAYLOAD_MASK);
                if self.outstanding.remove(&req).is_some() {
                    self.stats.timeouts += 1;
                    ctx.metric_incr(M::USER_TIMEOUT);
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        self.outstanding.clear();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.schedule_arrival(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One scripted admin action.
#[derive(Debug, Clone)]
pub struct AdminAction {
    /// Delay (local clock) from agent start to issuing the operation.
    pub delay: SimDuration,
    /// The operation.
    pub op: AclOp,
}

/// Progress of one admin operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpProgress {
    /// Sent, awaiting the manager's `Applied`.
    Sent,
    /// Applied at the receiving manager.
    Applied,
    /// Reached its update quorum; the `Te` revocation clock is running.
    Stable,
    /// Refused by the manager.
    Rejected(RejectReason),
}

#[derive(Debug)]
struct OpRecord {
    op: AclOp,
    req: ReqId,
    progress: OpProgress,
    sent_at: Option<LocalTime>,
    stable_after: Option<SimDuration>,
}

impl OpRecord {
    /// Whether the op still awaits its `Stable` confirmation.
    fn in_flight(&self) -> bool {
        matches!(self.progress, OpProgress::Sent | OpProgress::Applied)
    }
}

/// One row of an admin shard-routing table: operations on `app` whose
/// subject hashes into `lo..=hi` go to `manager`.
#[derive(Debug, Clone, Copy)]
pub struct AdminRoute {
    /// Application the row covers.
    pub app: AppId,
    /// Inclusive low end of the bucket range.
    pub lo: u8,
    /// Inclusive high end of the bucket range.
    pub hi: u8,
    /// Manager serving that shard.
    pub manager: NodeId,
}

/// Configuration of an [`AdminAgent`].
#[derive(Debug, Clone)]
pub struct AdminAgentConfig {
    /// The manager-principal issuing operations.
    pub issuer: UserId,
    /// Secret key for signing operations (`None` sends unsigned).
    pub secret: Option<SecretKey>,
    /// Where an operation no route covers goes.
    pub manager: NodeId,
    /// Each operation goes to the manager of the route covering its
    /// `(app, subject bucket)`.
    pub routes: Vec<AdminRoute>,
    /// Scripted operations.
    pub script: Vec<AdminAction>,
    /// Retransmission period until the manager confirms `Stable`.
    pub resend_interval: SimDuration,
    /// §2.3 blocking semantics: issue operations strictly one at a
    /// time, starting the next only once the previous one is `Stable`
    /// (or rejected). `false` pipelines them.
    pub serial: bool,
}

/// An administrator issuing `Add`/`Revoke` operations against a manager.
///
/// Beyond the script, the harness can inject `ProtoMsg::Admin` messages
/// from the environment to trigger operations dynamically.
#[derive(Debug)]
pub struct AdminAgent {
    config: AdminAgentConfig,
    ops: Vec<OpRecord>,
    by_req: BTreeMap<ReqId, usize>,
    next_req: u64,
    /// Operations waiting behind an in-flight one in serial mode.
    backlog: std::collections::VecDeque<AclOp>,
}

impl AdminAgent {
    /// Creates the agent.
    pub fn new(config: AdminAgentConfig) -> Self {
        AdminAgent {
            config,
            ops: Vec::new(),
            by_req: BTreeMap::new(),
            next_req: 0,
            backlog: std::collections::VecDeque::new(),
        }
    }

    /// Progress of the `i`-th operation (script order, then dynamic
    /// injections in arrival order).
    pub fn progress(&self, i: usize) -> Option<OpProgress> {
        self.ops.get(i).map(|r| r.progress)
    }

    /// Local-clock latency from send to `Stable` for the `i`-th
    /// operation, if it has stabilized.
    pub fn stable_latency(&self, i: usize) -> Option<SimDuration> {
        self.ops.get(i).and_then(|r| r.stable_after)
    }

    /// Local-clock instant the `i`-th operation was first sent.
    pub fn sent_at(&self, i: usize) -> Option<LocalTime> {
        self.ops.get(i).and_then(|r| r.sent_at)
    }

    /// Number of tracked operations.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// How many operations have reached `Stable`.
    pub fn stable_count(&self) -> usize {
        self.ops.iter().filter(|r| r.progress == OpProgress::Stable).count()
    }

    /// Whether an operation is still awaiting its `Stable` confirmation.
    pub fn has_in_flight(&self) -> bool {
        self.ops.iter().any(OpRecord::in_flight)
    }

    /// How often an operation not yet `Stable` is sent again.
    pub fn resend_interval(&self) -> SimDuration {
        self.config.resend_interval
    }

    /// Operations queued behind the in-flight one (serial mode only).
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Issues now, or queues behind the in-flight op in serial mode.
    fn submit(&mut self, ctx: &mut Context<'_, ProtoMsg>, op: AclOp) {
        if self.config.serial && self.has_in_flight() {
            self.backlog.push_back(op);
            ctx.metric_incr(M::ADMIN_OP_QUEUED);
        } else {
            self.issue(ctx, op);
        }
    }

    /// In serial mode, launches the next queued op once the previous one
    /// settled.
    fn drain_backlog(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.config.serial && !self.has_in_flight() {
            if let Some(op) = self.backlog.pop_front() {
                self.issue(ctx, op);
            }
        }
    }

    fn issue(&mut self, ctx: &mut Context<'_, ProtoMsg>, op: AclOp) -> usize {
        self.next_req += 1;
        let req = ReqId(self.next_req);
        let idx = self.ops.len();
        self.ops.push(OpRecord {
            op,
            req,
            progress: OpProgress::Sent,
            sent_at: Some(ctx.local_now()),
            stable_after: None,
        });
        self.by_req.insert(req, idx);
        self.send_op(ctx, idx);
        idx
    }

    /// Target manager for an operation: the covering route row's, or
    /// the fallback when no row covers it.
    fn route(&self, op: &AclOp) -> NodeId {
        let bucket = user_bucket(op.user());
        self.config
            .routes
            .iter()
            .find(|r| r.app == op.app() && r.lo <= bucket && bucket <= r.hi)
            .map(|r| r.manager)
            .unwrap_or(self.config.manager)
    }

    fn send_op(&mut self, ctx: &mut Context<'_, ProtoMsg>, idx: usize) {
        let rec = &self.ops[idx];
        let target = self.route(&rec.op);
        let signature = self.config.secret.as_ref().map(|key| {
            rsa::sign(key, &admin_signing_bytes(self.config.issuer, &rec.op))
        });
        ctx.metric_incr(M::ADMIN_OP_SENT);
        ctx.send(
            target,
            ProtoMsg::Admin {
                op: rec.op,
                req: rec.req,
                issuer: self.config.issuer,
                signature,
            },
        );
    }
}

impl Node for AdminAgent {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        for (i, action) in self.config.script.clone().into_iter().enumerate() {
            ctx.set_timer(action.delay, TAG_ACTION | i as u64);
        }
        ctx.set_timer(self.config.resend_interval, TAG_RESEND);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match msg {
            // Harness path: an Admin message from the environment means
            // "issue this operation now".
            ProtoMsg::Admin { op, .. } if from == NodeId::ENV => {
                self.submit(ctx, op);
            }
            ProtoMsg::AdminReply { req, status } => {
                let Some(&idx) = self.by_req.get(&req) else { return };
                let rec = &mut self.ops[idx];
                match status {
                    AdminStatus::Applied => {
                        if rec.progress == OpProgress::Sent {
                            rec.progress = OpProgress::Applied;
                        }
                    }
                    AdminStatus::Stable => {
                        if rec.progress != OpProgress::Stable {
                            rec.progress = OpProgress::Stable;
                            let elapsed = rec
                                .sent_at
                                .map(|s| ctx.local_now().since(s))
                                .unwrap_or(SimDuration::ZERO);
                            rec.stable_after = Some(elapsed);
                            ctx.metric_observe(M::ADMIN_TIME_TO_STABLE_S, elapsed.as_secs_f64());
                        }
                        self.drain_backlog(ctx);
                    }
                    AdminStatus::Rejected { reason } => {
                        rec.progress = OpProgress::Rejected(reason);
                        ctx.metric_incr(M::ADMIN_REJECTED);
                        self.drain_backlog(ctx);
                    }
                }
            }
            _ => {
                ctx.metric_incr(M::ADMIN_UNEXPECTED_MSG);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        match tag & !TAG_PAYLOAD_MASK {
            TAG_ACTION => {
                let idx = (tag & TAG_PAYLOAD_MASK) as usize;
                if let Some(action) = self.config.script.get(idx).cloned() {
                    self.submit(ctx, action.op);
                }
            }
            TAG_RESEND => {
                // Persist toward the manager until it confirms the op
                // stable: a lost `Applied` or `Stable` is asked again, and
                // the manager answers a repeat with the op's status now.
                let unconfirmed: Vec<usize> = self
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.in_flight())
                    .map(|(i, _)| i)
                    .collect();
                for idx in unconfirmed {
                    ctx.metric_incr(M::ADMIN_OP_RESENT);
                    self.send_op(ctx, idx);
                }
                ctx.set_timer(self.config.resend_interval, TAG_RESEND);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
