//! The eventual-consistency comparator (\[23\] in the paper: Samarati,
//! Ammann & Jajodia, *Maintaining replicated authorization in distributed
//! database systems*).
//!
//! Managers hold full replicas and reconcile by periodic last-writer-wins
//! anti-entropy gossip; hosts check against any single manager. Updates
//! survive partitions and converge *eventually* — but, as the paper's
//! related-work section stresses, "no guarantees are made on when the
//! information will be updated nor do the algorithms make it possible for
//! different applications to make different security versus availability
//! tradeoffs."

use std::any::Any;
use std::collections::BTreeMap;

use wanacl_core::msg::AclOp;
use wanacl_core::types::UserId;
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId, TimerId};
use wanacl_sim::time::SimDuration;

use crate::msg::{BaselineMsg, GossipEntry, Stamp};

const TAG_GOSSIP: u64 = 1 << 56;
const TAG_TIMEOUT: u64 = 2 << 56;
const TAG_MASK: u64 = (1 << 56) - 1;

/// A gossiping ACL replica.
#[derive(Debug)]
pub struct EventualManager {
    peers: Vec<NodeId>,
    origin: u32,
    /// user → (has `use` right, stamp of last write).
    state: BTreeMap<UserId, (bool, Stamp)>,
    counter: u64,
    gossip_interval: SimDuration,
    /// When a revoke for the probe user first became visible here.
    revoke_seen_at: Option<LocalTime>,
}

impl EventualManager {
    /// Creates a replica.
    pub fn new(
        peers: Vec<NodeId>,
        origin: u32,
        initial_users: Vec<UserId>,
        gossip_interval: SimDuration,
    ) -> Self {
        let state = initial_users
            .into_iter()
            .map(|u| (u, (true, Stamp { counter: 0, origin: 0 })))
            .collect();
        EventualManager {
            peers,
            origin,
            state,
            counter: 0,
            gossip_interval,
            revoke_seen_at: None,
        }
    }

    /// Whether this replica currently grants `use` to `user`.
    pub fn grants(&self, user: UserId) -> bool {
        self.state.get(&user).map(|(g, _)| *g).unwrap_or(false)
    }

    /// When a revoke first became visible at this replica.
    pub fn revoke_seen_at(&self) -> Option<LocalTime> {
        self.revoke_seen_at
    }

    fn snapshot(&self) -> Vec<GossipEntry> {
        self.state
            .iter()
            .map(|(user, (has_use, stamp))| GossipEntry { user: *user, has_use: *has_use, stamp: *stamp })
            .collect()
    }

    fn merge(&mut self, entries: Vec<GossipEntry>, now: LocalTime) {
        for e in entries {
            self.counter = self.counter.max(e.stamp.counter);
            let newer = match self.state.get(&e.user) {
                Some((_, stamp)) => e.stamp > *stamp,
                None => true,
            };
            if newer {
                if !e.has_use && self.state.get(&e.user).map(|(g, _)| *g).unwrap_or(false)
                    && self.revoke_seen_at.is_none()
                {
                    self.revoke_seen_at = Some(now);
                }
                self.state.insert(e.user, (e.has_use, e.stamp));
            }
        }
    }
}

impl Node for EventualManager {
    type Msg = BaselineMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        ctx.set_timer(self.gossip_interval, TAG_GOSSIP);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::Admin { op } => {
                self.counter += 1;
                let stamp = Stamp { counter: self.counter, origin: self.origin };
                match op {
                    AclOp::Add { user, .. } => {
                        self.state.insert(user, (true, stamp));
                    }
                    AclOp::Revoke { user, .. } => {
                        self.state.insert(user, (false, stamp));
                        if self.revoke_seen_at.is_none() {
                            self.revoke_seen_at = Some(ctx.local_now());
                        }
                    }
                }
            }
            BaselineMsg::Gossip { entries } => {
                self.merge(entries, ctx.local_now());
            }
            BaselineMsg::CheckQuery { user, req } => {
                ctx.metric_incr(M::BASE_EC_CHECK_REPLIES);
                ctx.send(from, BaselineMsg::CheckReply { req, allowed: self.grants(user) });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>, _tag: u64) {
        // Push anti-entropy: send the full state to one random peer per
        // round (classic rumor-mongering cadence, deterministic per seed).
        if !self.peers.is_empty() {
            let peer = *ctx.rng().choose(&self.peers);
            ctx.metric_incr(M::BASE_EC_GOSSIP_MSGS);
            let entries = self.snapshot();
            ctx.send(peer, BaselineMsg::Gossip { entries });
        }
        ctx.set_timer(self.gossip_interval, TAG_GOSSIP);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[derive(Debug)]
struct PendingCheck {
    requester: NodeId,
    user_req: u64,
    timer: TimerId,
}

/// A host checking against a single manager per request (round-robin),
/// with no cache expiry semantics — the comparator has no time bounds.
#[derive(Debug)]
pub struct EventualHost {
    managers: Vec<NodeId>,
    timeout: SimDuration,
    next: usize,
    next_req: u64,
    pending: BTreeMap<u64, PendingCheck>,
    allowed: u64,
    denied: u64,
    timeouts: u64,
}

impl EventualHost {
    /// Creates a host consulting the given replicas round-robin.
    pub fn new(managers: Vec<NodeId>, timeout: SimDuration) -> Self {
        EventualHost {
            managers,
            timeout,
            next: 0,
            next_req: 0,
            pending: BTreeMap::new(),
            allowed: 0,
            denied: 0,
            timeouts: 0,
        }
    }

    /// `(allowed, denied, timeouts)`.
    pub fn decisions(&self) -> (u64, u64, u64) {
        (self.allowed, self.denied, self.timeouts)
    }
}

impl Node for EventualHost {
    type Msg = BaselineMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::Invoke { user, req } => {
                ctx.metric_incr(M::BASE_EC_CHECKS);
                self.next_req += 1;
                let check_req = self.next_req;
                let mgr = self.managers[self.next % self.managers.len()];
                self.next += 1;
                ctx.metric_incr(M::BASE_EC_CHECK_QUERIES);
                ctx.send(mgr, BaselineMsg::CheckQuery { user, req: check_req });
                let timer = ctx.set_timer(self.timeout, TAG_TIMEOUT | check_req);
                self.pending.insert(check_req, PendingCheck { requester: from, user_req: req, timer });
            }
            BaselineMsg::CheckReply { req, allowed } => {
                let Some(p) = self.pending.remove(&req) else { return };
                ctx.cancel_timer(p.timer);
                if allowed {
                    self.allowed += 1;
                } else {
                    self.denied += 1;
                }
                ctx.send(p.requester, BaselineMsg::InvokeReply { req: p.user_req, allowed });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>, tag: u64) {
        let req = tag & TAG_MASK;
        if let Some(p) = self.pending.remove(&req) {
            self.timeouts += 1;
            ctx.send(p.requester, BaselineMsg::InvokeReply { req: p.user_req, allowed: false });
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
    use wanacl_core::types::AppId;
    use wanacl_sim::clock::ClockSpec;
    use wanacl_sim::nemesis::NemesisPlan;
    use wanacl_sim::net::WanNet;
    use wanacl_sim::time::SimTime;
    use wanacl_sim::world::World;

    fn build(world: &mut World<BaselineMsg>, m: usize) -> (Vec<NodeId>, NodeId) {
        let ids: Vec<NodeId> = (0..m).map(NodeId::from_index).collect();
        for i in 0..m {
            let peers = ids.iter().copied().filter(|p| *p != ids[i]).collect();
            let got = world.add_node(
                format!("m{i}"),
                Box::new(EventualManager::new(
                    peers,
                    i as u32,
                    vec![UserId(1)],
                    SimDuration::from_millis(200),
                )),
                ClockSpec::Perfect,
            );
            assert_eq!(got, ids[i]);
        }
        let host = world.add_node(
            "host",
            Box::new(EventualHost::new(ids.clone(), SimDuration::from_millis(500))),
            ClockSpec::Perfect,
        );
        (ids, host)
    }

    #[test]
    fn checks_need_one_manager_only() {
        let mut world: World<BaselineMsg> = World::new(1);
        let (_mgrs, host) = build(&mut world, 3);
        world.inject(SimTime::from_millis(1), host, BaselineMsg::Invoke { user: UserId(1), req: 1 });
        world.run_until(SimTime::from_secs(1));
        assert_eq!(world.node_as::<EventualHost>(host).decisions().0, 1);
        assert_eq!(world.metrics().counter("base.ec.check_queries"), 1);
    }

    #[test]
    fn revoke_converges_via_gossip() {
        let mut world: World<BaselineMsg> = World::new(2);
        let (mgrs, _host) = build(&mut world, 4);
        world.inject(
            SimTime::from_secs(1),
            mgrs[0],
            BaselineMsg::Admin {
                op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: wanacl_core::types::Right::Use },
            },
        );
        world.run_until(SimTime::from_secs(20));
        for &m in &mgrs {
            assert!(
                !world.node_as::<EventualManager>(m).grants(UserId(1)),
                "replica {m} must converge"
            );
        }
    }

    #[test]
    fn stale_replica_grants_during_partition_without_any_bound() {
        // Manager 1 partitioned away right after the revoke at manager 0:
        // it keeps granting for the whole partition, however long — the
        // weakness the paper's Te bound removes.
        let (start, end) = (SimTime::from_millis(500), SimTime::from_secs(10_000));
        let plan = NemesisPlan::builder(end)
            .partition(vec![NodeId::from_index(0)], vec![NodeId::from_index(1)], start, end)
            .build();
        let base = WanNet::builder().constant_delay(SimDuration::from_millis(20)).build();
        let mut world: World<BaselineMsg> = World::new(3);
        world.set_net(Box::new(plan.wrap_net(Box::new(base))));
        let (mgrs, host) = build(&mut world, 2);
        world.inject(
            SimTime::from_secs(1),
            mgrs[0],
            BaselineMsg::Admin {
                op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: wanacl_core::types::Right::Use },
            },
        );
        // Hours later, a check that lands on the stale replica still
        // grants access.
        world.run_until(SimTime::from_secs(7_200));
        // Round-robin: first check goes to manager 0 (denied), second to
        // manager 1 (stale grant).
        world.inject(SimTime::from_secs(7_200), host, BaselineMsg::Invoke { user: UserId(1), req: 5 });
        world.inject(SimTime::from_secs(7_201), host, BaselineMsg::Invoke { user: UserId(1), req: 6 });
        world.run_until(SimTime::from_secs(7_210));
        let (allowed, denied, _t) = world.node_as::<EventualHost>(host).decisions();
        assert_eq!(denied, 1);
        assert_eq!(allowed, 1, "stale replica must still grant — no time bound");
    }

    #[test]
    fn lww_resolves_concurrent_updates_deterministically() {
        let mut world: World<BaselineMsg> = World::new(4);
        let (mgrs, _host) = build(&mut world, 2);
        // Concurrent: add at m0, revoke at m1 (same counter, origin
        // breaks the tie — m1 wins with origin 1 > 0).
        world.inject(
            SimTime::from_secs(1),
            mgrs[0],
            BaselineMsg::Admin {
                op: AclOp::Add { app: AppId(0), user: UserId(9), right: wanacl_core::types::Right::Use },
            },
        );
        world.inject(
            SimTime::from_secs(1),
            mgrs[1],
            BaselineMsg::Admin {
                op: AclOp::Revoke { app: AppId(0), user: UserId(9), right: wanacl_core::types::Right::Use },
            },
        );
        world.run_until(SimTime::from_secs(30));
        let g0 = world.node_as::<EventualManager>(mgrs[0]).grants(UserId(9));
        let g1 = world.node_as::<EventualManager>(mgrs[1]).grants(UserId(9));
        assert_eq!(g0, g1, "replicas must agree after convergence");
        assert!(!g0, "higher origin id wins the tie: revoke");
    }
}
