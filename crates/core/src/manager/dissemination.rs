//! Persistent update dissemination (§3.3) and revocation notices (§3.4):
//! the updates this manager originated and who has acked them, the grant
//! table of hosts caching each right, and the notices owed to them.

use std::collections::{BTreeMap, BTreeSet};

use wanacl_sim::backoff::Backoff;
use wanacl_sim::clock::LocalTime;
use wanacl_sim::hash::FxHashMap;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, NodeId, TimerId};

use crate::audit::AuditEvent;
use crate::channel::ChannelEnd;
use crate::msg::{AclOp, AdminStatus, OpId, ProtoMsg, ReqId};
use crate::types::{user_bucket, AppId, UserId};

use super::TAG_RETRY;

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
    issuer: (NodeId, ReqId),
    started: LocalTime,
}

/// Hosts caching one user's right, each with the local deadline after
/// which its cached copy has expired on its own. Sorted by host, so
/// notices go out in `NodeId` order. A vector keeps them in one
/// allocation of 16 B a host; a B-tree map outgrows its one 144 B leaf
/// at the twelfth host and takes 528 B.
type Holders = Vec<(NodeId, LocalTime)>;

#[derive(Debug)]
struct PendingRevoke {
    app: AppId,
    user: UserId,
    /// Retransmission to a host stops at its deadline.
    targets: Holders,
}

#[derive(Debug, Default)]
pub(super) struct Dissemination {
    pending: BTreeMap<OpId, PendingUpdate>,
    pending_revokes: Vec<PendingRevoke>,
    /// Point lookups, plus `sweep_grants`' order-free `retain`.
    grant_table: FxHashMap<(AppId, UserId), Holders>,
    /// Consecutive retry rounds that actually resent something; indexes
    /// into the retry backoff schedule. Reset when a round finds nothing
    /// to resend or fresh work arrives.
    retry_round: u32,
    /// The armed retry tick.
    retry_timer: Option<TimerId>,
    /// Each admin request this manager originated, by `(agent, request
    /// id)`, and whether its op is stable yet: a repeat is answered from
    /// here instead of minting a second op. Point lookups only.
    requests: FxHashMap<(NodeId, ReqId), bool>,
}

/// A `RevokeNotice` for `host`, tagged under the key shared with it.
fn notice(channel: &mut Option<ChannelEnd>, me: NodeId, host: NodeId, app: AppId, user: UserId) -> ProtoMsg {
    let mac = channel.as_mut().map(|c| c.pair(me, host).tag_revoke_notice(app, user));
    ProtoMsg::RevokeNotice { app, user, mac }
}

impl Dissemination {
    pub(super) fn pending_updates(&self) -> usize {
        self.pending.len()
    }

    /// The status of an admin request this manager originated, if it
    /// did.
    pub(super) fn status(&self, issuer: (NodeId, ReqId)) -> Option<AdminStatus> {
        let stable = *self.requests.get(&issuer)?;
        Some(if stable { AdminStatus::Stable } else { AdminStatus::Applied })
    }

    pub(super) fn granted_hosts(&self, app: AppId, user: UserId) -> usize {
        self.grant_table.get(&(app, user)).map_or(0, |m| m.len())
    }

    /// Remembers that `host` caches `user`'s right until `deadline`.
    pub(super) fn note_grant(&mut self, app: AppId, user: UserId, host: NodeId, deadline: LocalTime) {
        let hosts = self.grant_table.entry((app, user)).or_default();
        match hosts.binary_search_by_key(&host, |&(h, _)| h) {
            Ok(i) => hosts[i].1 = deadline,
            Err(i) => hosts.insert(i, (host, deadline)),
        }
    }

    /// Starts disseminating an op this manager originated to `peers`;
    /// `quorum` applied copies make it stable.
    pub(super) fn originate(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        (id, op): (OpId, AclOp),
        peers: Vec<NodeId>,
        quorum: usize,
        issuer: (NodeId, ReqId),
    ) {
        self.requests.insert(issuer, false);
        self.pending.insert(
            id,
            PendingUpdate {
                op,
                unacked: peers.iter().copied().collect(),
                applied_count: 0,
                stable: false,
                self_durable: false,
                quorum,
                issuer,
                started: ctx.local_now(),
            },
        );
        for peer in peers {
            ctx.metric_incr(M::MGR_UPDATES_SENT);
            ctx.send(peer, ProtoMsg::Update { id, op });
        }
    }

    /// This manager's own copy of `id` is durable: it counts toward the
    /// quorum. Returns whether that made the op stable.
    pub(super) fn self_durable(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: OpId) -> bool {
        let Some(pending) = self.pending.get_mut(&id) else { return false };
        if pending.self_durable {
            return false;
        }
        pending.self_durable = true;
        pending.applied_count += 1;
        self.settle(ctx, id)
    }

    /// `from` acked `id`. Returns whether that made the op stable.
    pub(super) fn acked(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, id: OpId) -> bool {
        let Some(pending) = self.pending.get_mut(&id) else { return false };
        if !pending.unacked.remove(&from) {
            return false; // duplicate ack
        }
        pending.applied_count += 1;
        self.settle(ctx, id)
    }

    /// Re-evaluates stability after an applied count changed, reporting
    /// `Stable` to the issuer at the quorum and retiring the record once
    /// fully acked and locally durable.
    fn settle(&mut self, ctx: &mut Context<'_, ProtoMsg>, id: OpId) -> bool {
        let Some(pending) = self.pending.get_mut(&id) else { return false };
        let stable_now = !pending.stable && pending.applied_count >= pending.quorum;
        if stable_now {
            pending.stable = true;
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
            let (agent, req) = pending.issuer;
            self.requests.insert(pending.issuer, true);
            ctx.send(agent, ProtoMsg::AdminReply { req, status: AdminStatus::Stable });
        }
        if pending.unacked.is_empty() && pending.self_durable {
            self.pending.remove(&id);
        }
        stable_now
    }

    /// Starts forwarding a revocation to every host recorded as caching
    /// the user's right, and keeps retransmitting until each cached entry
    /// would have expired on its own.
    pub(super) fn forward_revocation(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        channel: &mut Option<ChannelEnd>,
        app: AppId,
        user: UserId,
    ) {
        let Some(targets) = self.grant_table.remove(&(app, user)) else { return };
        if targets.is_empty() {
            return;
        }
        for &(host, _) in &targets {
            ctx.metric_incr(M::MGR_REVOKE_NOTICES);
            ctx.send(host, notice(channel, ctx.id(), host, app, user));
        }
        self.pending_revokes.push(PendingRevoke { app, user, targets });
        self.retry_round = 0;
    }

    /// Fresh work re-probes at the base cadence even if earlier rounds
    /// had backed off.
    pub(super) fn fresh_work(&mut self) {
        self.retry_round = 0;
    }

    pub(super) fn arm_retry(&mut self, ctx: &mut Context<'_, ProtoMsg>, backoff: &Backoff) {
        let delay = backoff.delay(self.retry_round, ctx.rng());
        self.retry_timer = Some(ctx.set_timer(delay, TAG_RETRY));
    }

    /// `peer` was heard from after a silence (a healed cut, or its
    /// recovery): what it has not acked goes to it now, and a backed-off
    /// retry cadence restarts from its base, so one lost message costs a
    /// base period rather than a capped one.
    pub(super) fn peer_back(&mut self, ctx: &mut Context<'_, ProtoMsg>, peer: NodeId, backoff: &Backoff) {
        let mut owed = false;
        for (id, pending) in self.pending.iter().filter(|(_, p)| p.unacked.contains(&peer)) {
            ctx.metric_incr(M::MGR_UPDATES_RESENT);
            ctx.send(peer, ProtoMsg::Update { id: *id, op: pending.op });
            owed = true;
        }
        if owed && self.retry_round > 0 {
            if let Some(timer) = self.retry_timer.take() {
                ctx.cancel_timer(timer);
            }
            self.retry_round = 0;
            self.arm_retry(ctx, backoff);
        }
    }

    /// The retry tick: resends every unacked update, and every notice
    /// until the cached right would have expired anyway (§3.4). `heard`
    /// says whether a peer has been heard from lately.
    pub(super) fn retry(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        channel: &mut Option<ChannelEnd>,
        backoff: &Backoff,
        heard: impl Fn(NodeId) -> bool,
    ) {
        let mut resent = 0u64;
        for (id, pending) in &self.pending {
            for peer in &pending.unacked {
                ctx.metric_incr(M::MGR_UPDATES_RESENT);
                ctx.send(*peer, ProtoMsg::Update { id: *id, op: pending.op });
                resent += 1;
            }
        }
        let now = ctx.local_now();
        for pr in &mut self.pending_revokes {
            pr.targets.retain(|&(_, deadline)| now < deadline);
            for &(host, _) in &pr.targets {
                ctx.metric_incr(M::MGR_REVOKE_NOTICES_RESENT);
                ctx.send(host, notice(channel, ctx.id(), host, pr.app, pr.user));
                resent += 1;
            }
        }
        self.pending_revokes.retain(|pr| !pr.targets.is_empty());
        // Graceful degradation: rounds that keep finding unacknowledged
        // work (a partition, a dead peer) back off toward `retry_cap`;
        // an idle round snaps the cadence back to the base interval, and
        // so does one owed to a peer still heard from — a one-way cut
        // that the peer-back rule cannot see heal.
        let talking = self.pending.values().flat_map(|p| &p.unacked).any(|&peer| heard(peer));
        self.retry_round = if resent == 0 || talking { 0 } else { self.retry_round.saturating_add(1) };
        self.arm_retry(ctx, backoff);
    }

    /// Drops grant-table entries whose cached right has expired.
    pub(super) fn sweep_grants(&mut self, now: LocalTime) {
        self.grant_table.retain(|_, hosts| {
            hosts.retain(|&(_, deadline)| now < deadline);
            !hosts.is_empty()
        });
    }

    /// Drops pending updates whose slot lives in a released shard: they
    /// can never complete here, and their effects ride inside the
    /// transfer payload.
    pub(super) fn cancel_in(&mut self, app: AppId, lo: u8, hi: u8) {
        self.pending.retain(|_, p| !(p.op.app() == app && (lo..=hi).contains(&user_bucket(p.op.user()))));
    }

    /// A crash loses everything disseminating.
    pub(super) fn clear(&mut self) {
        *self = Dissemination::default();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use wanacl_sim::clock::DriftClock;
    use wanacl_sim::node::{Life, Step};

    use crate::harness::Output;
    use wanacl_sim::rng::SimRng;
    use wanacl_sim::time::{SimDuration, SimTime};

    use super::*;

    /// The grant table as a B-tree from raw `(app, user)` ids to a B-tree
    /// of hosts: the layout `Holders` replaced, kept as the reference.
    #[derive(Default)]
    struct Model {
        table: BTreeMap<(u32, u64), BTreeMap<NodeId, LocalTime>>,
        revokes: Vec<((u32, u64), BTreeMap<NodeId, LocalTime>)>,
    }

    type Notice = (NodeId, AppId, UserId);

    fn notices((app, user): (u32, u64), targets: &BTreeMap<NodeId, LocalTime>) -> impl Iterator<Item = Notice> + '_ {
        targets.keys().map(move |&h| (h, AppId(app), UserId(user)))
    }

    impl Model {
        fn forward(&mut self, key: (u32, u64)) -> Vec<Notice> {
            let Some(targets) = self.table.remove(&key).filter(|t| !t.is_empty()) else { return vec![] };
            let sent = notices(key, &targets).collect();
            self.revokes.push((key, targets));
            sent
        }

        fn retry(&mut self, now: LocalTime) -> Vec<Notice> {
            let mut sent = Vec::new();
            for (key, targets) in &mut self.revokes {
                targets.retain(|_, deadline| now < *deadline);
                sent.extend(notices(*key, targets));
            }
            self.revokes.retain(|(_, t)| !t.is_empty());
            sent
        }
    }

    /// Runs `f` on `d` at local time `now` through the step rule; the
    /// notices it sent, in order.
    fn step(
        d: &mut Dissemination,
        now: LocalTime,
        f: impl FnOnce(&mut Dissemination, &mut Context<'_, ProtoMsg>),
    ) -> Vec<Notice> {
        let (mut life, mut rng, clock) = (Life::default(), SimRng::seed_from(1), DriftClock::perfect());
        let mut out = Vec::new();
        let mut step = Step { id: NodeId::from_index(0), life: &mut life, rng: &mut rng, clock: &clock };
        step.run(SimTime::from_nanos(now.as_nanos()), &mut Vec::new(), &mut out, |ctx| f(d, ctx));
        out.into_iter()
            .filter_map(|e| match e {
                Output::Send { to, msg: ProtoMsg::RevokeNotice { app, user, .. } } => Some((to, app, user)),
                _ => None,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn grant_table_sends_the_notices_the_map_of_maps_sends(
            ops in prop::collection::vec((0u8..5, 0u32..2, 0u64..3, 0usize..8, 0u64..40), 0..80),
        ) {
            let backoff = Backoff::new(SimDuration::from_millis(100), SimDuration::from_secs(1));
            let (mut d, mut model) = (Dissemination::default(), Model::default());
            for (kind, app, user, host, t) in ops {
                let (key, now, host) = ((app, user), LocalTime::from_nanos(t), NodeId::from_index(host));
                let (app, user) = (AppId(app), UserId(user));
                let (got, want) = match kind {
                    0 | 1 => {
                        d.note_grant(app, user, host, now);
                        model.table.entry(key).or_default().insert(host, now);
                        (vec![], vec![])
                    }
                    2 => {
                        d.sweep_grants(now);
                        model.table.retain(|_, hosts| {
                            hosts.retain(|_, deadline| now < *deadline);
                            !hosts.is_empty()
                        });
                        (vec![], vec![])
                    }
                    3 => {
                        let got = step(&mut d, now, |d, ctx| d.forward_revocation(ctx, &mut None, app, user));
                        (got, model.forward(key))
                    }
                    _ => (step(&mut d, now, |d, ctx| d.retry(ctx, &mut None, &backoff, |_| false)), model.retry(now)),
                };
                prop_assert_eq!(got, want);
                for key in (0..2).flat_map(|a| (0..3).map(move |u| (a, u))) {
                    let want = model.table.get(&key).map_or(0, BTreeMap::len);
                    prop_assert_eq!(d.granted_hosts(AppId(key.0), UserId(key.1)), want);
                }
            }
        }
    }
}
