//! Baseline 1 (§3, first option): replicate the full ACL onto **every
//! application host**.
//!
//! Checks are free (purely local), but every update costs `O(|Hosts(A)|)`
//! messages, and a partitioned host serves *stale rights indefinitely* —
//! there is no time bound on revocation, which is exactly the weakness
//! the paper's lease design removes.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use wanacl_core::msg::{AclOp, OpId};
use wanacl_core::types::Acl;
use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::time::SimDuration;

use crate::msg::BaselineMsg;

const TAG_RETRY: u64 = 1 << 56;

/// The manager of the full-replication strategy: applies updates locally
/// and pushes them to every host (persistent retransmission until acked).
#[derive(Debug)]
pub struct FullReplManager {
    hosts: Vec<NodeId>,
    acl: Acl,
    next_seq: u64,
    pending: BTreeMap<OpId, (AclOp, BTreeSet<NodeId>)>,
    retry_interval: SimDuration,
}

impl FullReplManager {
    /// Creates a manager pushing to the given hosts.
    pub fn new(hosts: Vec<NodeId>, initial_acl: Acl, retry_interval: SimDuration) -> Self {
        FullReplManager { hosts, acl: initial_acl, next_seq: 0, pending: BTreeMap::new(), retry_interval }
    }

    /// Updates not yet acknowledged by every host.
    pub fn pending_pushes(&self) -> usize {
        self.pending.len()
    }
}

impl Node for FullReplManager {
    type Msg = BaselineMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        ctx.set_timer(self.retry_interval, TAG_RETRY);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::Admin { op } => {
                let id = OpId { origin: ctx.id(), seq: self.next_seq };
                self.next_seq += 1;
                match op {
                    AclOp::Add { user, right, .. } => self.acl.add(user, right),
                    AclOp::Revoke { user, right, .. } => self.acl.revoke(user, right),
                }
                ctx.metric_incr(M::BASE_FULL_UPDATES);
                let targets: BTreeSet<NodeId> = self.hosts.iter().copied().collect();
                for host in &targets {
                    ctx.metric_incr(M::BASE_FULL_PUSH_MSGS);
                    ctx.send(*host, BaselineMsg::AclPush { id, op });
                }
                if !targets.is_empty() {
                    self.pending.insert(id, (op, targets));
                }
            }
            BaselineMsg::AclPushAck { id } => {
                let done = if let Some((_, targets)) = self.pending.get_mut(&id) {
                    targets.remove(&from);
                    targets.is_empty()
                } else {
                    false
                };
                if done {
                    self.pending.remove(&id);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>, _tag: u64) {
        for (id, (op, targets)) in &self.pending {
            for host in targets {
                ctx.metric_incr(M::BASE_FULL_PUSH_MSGS);
                ctx.send(*host, BaselineMsg::AclPush { id: *id, op: *op });
            }
        }
        ctx.set_timer(self.retry_interval, TAG_RETRY);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A host holding a complete local ACL replica; checks never touch the
/// network.
#[derive(Debug)]
pub struct FullReplHost {
    acl: Acl,
    applied: BTreeSet<OpId>,
    /// Local time at which the first revoke was applied (convergence
    /// measurement for the comparison harness).
    revoke_seen_at: Option<LocalTime>,
    allowed: u64,
    denied: u64,
}

impl FullReplHost {
    /// Creates a host with the bootstrap ACL.
    pub fn new(initial_acl: Acl) -> Self {
        FullReplHost {
            acl: initial_acl,
            applied: BTreeSet::new(),
            revoke_seen_at: None,
            allowed: 0,
            denied: 0,
        }
    }

    /// When this host first applied a revoke, if ever.
    pub fn revoke_seen_at(&self) -> Option<LocalTime> {
        self.revoke_seen_at
    }

    /// `(allowed, denied)` decision counts.
    pub fn decisions(&self) -> (u64, u64) {
        (self.allowed, self.denied)
    }
}

impl Node for FullReplHost {
    type Msg = BaselineMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::Invoke { user, req } => {
                ctx.metric_incr(M::BASE_FULL_CHECKS);
                let allowed = self.acl.has(user, wanacl_core::types::Right::Use);
                if allowed {
                    self.allowed += 1;
                } else {
                    self.denied += 1;
                }
                ctx.send(from, BaselineMsg::InvokeReply { req, allowed });
            }
            BaselineMsg::AclPush { id, op } => {
                if self.applied.insert(id) {
                    match op {
                        AclOp::Add { user, right, .. } => self.acl.add(user, right),
                        AclOp::Revoke { user, right, .. } => {
                            self.acl.revoke(user, right);
                            if self.revoke_seen_at.is_none() {
                                self.revoke_seen_at = Some(ctx.local_now());
                            }
                        }
                    }
                }
                ctx.send(from, BaselineMsg::AclPushAck { id });
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

#[cfg(test)]
mod tests {
    use super::*;
    use wanacl_core::types::{AppId, Right, UserId};
    use wanacl_sim::clock::ClockSpec;
    use wanacl_sim::time::SimTime;
    use wanacl_sim::world::World;

    fn acl_with(user: UserId) -> Acl {
        let mut acl = Acl::new();
        acl.add(user, Right::Use);
        acl
    }

    #[test]
    fn local_checks_cost_no_messages() {
        let mut world: World<BaselineMsg> = World::new(1);
        let host = world.add_node(
            "host",
            Box::new(FullReplHost::new(acl_with(UserId(1)))),
            ClockSpec::Perfect,
        );
        world.inject(SimTime::from_millis(1), host, BaselineMsg::Invoke { user: UserId(1), req: 1 });
        world.run_until(SimTime::from_secs(1));
        assert_eq!(world.node_as::<FullReplHost>(host).decisions(), (1, 0));
        // The only sent message is the reply to the (env) requester.
        assert_eq!(world.metrics().counter("net.sent"), 1);
    }

    #[test]
    fn update_propagates_to_all_hosts() {
        let mut world: World<BaselineMsg> = World::new(2);
        let h1 = world.add_node("h1", Box::new(FullReplHost::new(Acl::new())), ClockSpec::Perfect);
        let h2 = world.add_node("h2", Box::new(FullReplHost::new(Acl::new())), ClockSpec::Perfect);
        let mgr = world.add_node(
            "mgr",
            Box::new(FullReplManager::new(vec![h1, h2], Acl::new(), SimDuration::from_millis(200))),
            ClockSpec::Perfect,
        );
        world.inject(
            SimTime::from_millis(1),
            mgr,
            BaselineMsg::Admin {
                op: AclOp::Add { app: AppId(0), user: UserId(1), right: Right::Use },
            },
        );
        world.run_until(SimTime::from_secs(2));
        assert_eq!(world.node_as::<FullReplManager>(mgr).pending_pushes(), 0);
        for h in [h1, h2] {
            world.inject(
                SimTime::from_secs(2),
                h,
                BaselineMsg::Invoke { user: UserId(1), req: 9 },
            );
        }
        world.run_until(SimTime::from_secs(3));
        assert_eq!(world.node_as::<FullReplHost>(h1).decisions().0, 1);
        assert_eq!(world.node_as::<FullReplHost>(h2).decisions().0, 1);
    }

    #[test]
    fn revoke_records_convergence_time() {
        let mut world: World<BaselineMsg> = World::new(3);
        let h1 =
            world.add_node("h1", Box::new(FullReplHost::new(acl_with(UserId(1)))), ClockSpec::Perfect);
        let mgr = world.add_node(
            "mgr",
            Box::new(FullReplManager::new(vec![h1], acl_with(UserId(1)), SimDuration::from_millis(200))),
            ClockSpec::Perfect,
        );
        world.inject(
            SimTime::from_secs(1),
            mgr,
            BaselineMsg::Admin {
                op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
            },
        );
        world.run_until(SimTime::from_secs(2));
        let seen = world.node_as::<FullReplHost>(h1).revoke_seen_at().expect("must converge");
        assert!(seen.as_nanos() >= SimTime::from_secs(1).as_nanos());
    }
}
