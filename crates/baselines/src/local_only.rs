//! Baseline 3 (§3, third option): updates change **only the issuing
//! manager's local state**; a check must consult *all* managers to locate
//! the right.
//!
//! Updates are free, but every check costs `O(M)` messages and fails
//! whenever the one manager holding the record is unreachable.

use std::any::Any;
use std::collections::BTreeMap;

use wanacl_core::msg::AclOp;
use wanacl_core::types::{Acl, Right, UserId};
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::{Context, Node, NodeId, TimerId};
use wanacl_sim::time::SimDuration;

use crate::msg::BaselineMsg;

const TAG_TIMEOUT: u64 = 1 << 56;
const TAG_MASK: u64 = (1 << 56) - 1;

/// A manager holding only the rights that were granted *at this manager*.
#[derive(Debug)]
pub struct LocalOnlyManager {
    acl: Acl,
}

impl LocalOnlyManager {
    /// Creates the manager with its locally-issued bootstrap rights.
    pub fn new(initial_acl: Acl) -> Self {
        LocalOnlyManager { acl: initial_acl }
    }

    /// Whether this manager's local state grants `use` to `user`.
    pub fn grants(&self, user: UserId) -> bool {
        self.acl.has(user, Right::Use)
    }
}

impl Node for LocalOnlyManager {
    type Msg = BaselineMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::Admin { op } => match op {
                AclOp::Add { user, right, .. } => self.acl.add(user, right),
                AclOp::Revoke { user, right, .. } => self.acl.revoke(user, right),
            },
            BaselineMsg::LocateQuery { user, req } => {
                ctx.metric_incr(M::BASE_LOCAL_LOCATE_REPLIES);
                ctx.send(
                    from,
                    BaselineMsg::LocateReply { req, has_right: self.acl.has(user, Right::Use) },
                );
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

#[derive(Debug)]
struct PendingCheck {
    requester: NodeId,
    user_req: u64,
    replies: u64,
    granted: bool,
    timer: TimerId,
}

/// A host that must ask every manager on each check (no cache in this
/// baseline — the paper's own design adds the cache on top of option 2).
#[derive(Debug)]
pub struct LocalOnlyHost {
    managers: Vec<NodeId>,
    timeout: SimDuration,
    pending: BTreeMap<u64, PendingCheck>,
    next_req: u64,
    allowed: u64,
    denied: u64,
}

impl LocalOnlyHost {
    /// Creates a host that consults the given managers.
    pub fn new(managers: Vec<NodeId>, timeout: SimDuration) -> Self {
        LocalOnlyHost {
            managers,
            timeout,
            pending: BTreeMap::new(),
            next_req: 0,
            allowed: 0,
            denied: 0,
        }
    }

    /// `(allowed, denied)` decision counts.
    pub fn decisions(&self) -> (u64, u64) {
        (self.allowed, self.denied)
    }

    fn finish(&mut self, ctx: &mut Context<'_, BaselineMsg>, req: u64, allowed: bool) {
        let Some(p) = self.pending.remove(&req) else { return };
        ctx.cancel_timer(p.timer);
        if allowed {
            self.allowed += 1;
        } else {
            self.denied += 1;
        }
        ctx.send(p.requester, BaselineMsg::InvokeReply { req: p.user_req, allowed });
    }
}

impl Node for LocalOnlyHost {
    type Msg = BaselineMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, BaselineMsg>, from: NodeId, msg: BaselineMsg) {
        match msg {
            BaselineMsg::Invoke { user, req } => {
                ctx.metric_incr(M::BASE_LOCAL_CHECKS);
                self.next_req += 1;
                let check_req = self.next_req;
                for m in &self.managers {
                    ctx.metric_incr(M::BASE_LOCAL_LOCATE_QUERIES);
                    ctx.send(*m, BaselineMsg::LocateQuery { user, req: check_req });
                }
                let timer = ctx.set_timer(self.timeout, TAG_TIMEOUT | check_req);
                self.pending.insert(
                    check_req,
                    PendingCheck { requester: from, user_req: req, replies: 0, granted: false, timer },
                );
            }
            BaselineMsg::LocateReply { req, has_right } => {
                let total = self.managers.len() as u64;
                let Some(p) = self.pending.get_mut(&req) else { return };
                p.replies += 1;
                p.granted |= has_right;
                let done = p.granted || p.replies >= total;
                let granted = p.granted;
                if done {
                    // Either some manager located the right, or all
                    // managers answered and none did.
                    self.finish(ctx, req, granted);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>, tag: u64) {
        let req = tag & TAG_MASK;
        // Missing replies count as "right not located": fail closed.
        self.finish(ctx, req, false);
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
    use wanacl_sim::time::SimTime;
    use wanacl_sim::world::World;

    fn setup(world: &mut World<BaselineMsg>, grant_at: usize) -> (Vec<NodeId>, NodeId) {
        let mut managers = Vec::new();
        for i in 0..3 {
            let mut acl = Acl::new();
            if i == grant_at {
                acl.add(UserId(1), Right::Use);
            }
            managers.push(world.add_node(
                format!("m{i}"),
                Box::new(LocalOnlyManager::new(acl)),
                ClockSpec::Perfect,
            ));
        }
        let host = world.add_node(
            "host",
            Box::new(LocalOnlyHost::new(managers.clone(), SimDuration::from_millis(500))),
            ClockSpec::Perfect,
        );
        (managers, host)
    }

    #[test]
    fn check_locates_right_at_one_manager() {
        let mut world: World<BaselineMsg> = World::new(1);
        let (_m, host) = setup(&mut world, 1);
        world.inject(SimTime::from_millis(1), host, BaselineMsg::Invoke { user: UserId(1), req: 1 });
        world.run_until(SimTime::from_secs(1));
        assert_eq!(world.node_as::<LocalOnlyHost>(host).decisions(), (1, 0));
        assert_eq!(world.metrics().counter("base.local.locate_queries"), 3);
    }

    #[test]
    fn check_denies_when_no_manager_grants() {
        let mut world: World<BaselineMsg> = World::new(2);
        let (_m, host) = setup(&mut world, 0);
        world.inject(SimTime::from_millis(1), host, BaselineMsg::Invoke { user: UserId(2), req: 1 });
        world.run_until(SimTime::from_secs(1));
        assert_eq!(world.node_as::<LocalOnlyHost>(host).decisions(), (0, 1));
    }

    #[test]
    fn revoke_at_owner_takes_immediate_effect() {
        let mut world: World<BaselineMsg> = World::new(3);
        let (managers, host) = setup(&mut world, 2);
        world.inject(
            SimTime::from_millis(1),
            managers[2],
            BaselineMsg::Admin {
                op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
            },
        );
        world.inject(SimTime::from_millis(200), host, BaselineMsg::Invoke { user: UserId(1), req: 2 });
        world.run_until(SimTime::from_secs(2));
        assert_eq!(world.node_as::<LocalOnlyHost>(host).decisions(), (0, 1));
    }

    #[test]
    fn unreachable_owner_means_denied() {
        // Crash the manager holding the right: the host can no longer
        // locate it — fail closed after the timeout.
        let mut world: World<BaselineMsg> = World::new(4);
        let (managers, host) = setup(&mut world, 1);
        world.schedule_crash(SimTime::from_millis(1), managers[1]);
        world.inject(SimTime::from_millis(10), host, BaselineMsg::Invoke { user: UserId(1), req: 3 });
        world.run_until(SimTime::from_secs(2));
        assert_eq!(world.node_as::<LocalOnlyHost>(host).decisions(), (0, 1));
    }
}
