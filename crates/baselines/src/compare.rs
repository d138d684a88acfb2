//! The E8 comparison harness: the same workload run under each
//! dissemination strategy of §3, plus the paper's own design, measuring
//! the costs the paper argues about qualitatively.

use wanacl_core::msg::AclOp;
use wanacl_core::prelude::{Policy, Scenario};
use wanacl_core::types::{Acl, AppId, Right, UserId};
use wanacl_sim::clock::ClockSpec;
use wanacl_sim::metrics::Metrics;
use wanacl_sim::net::partition::GilbertElliott;
use wanacl_sim::net::WanNet;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::world::World;

use crate::eventual::{EventualHost, EventualManager};
use crate::full_replication::{FullReplHost, FullReplManager};
use crate::local_only::{LocalOnlyHost, LocalOnlyManager};
use crate::msg::BaselineMsg;

/// Which strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's protocol (managers + cached leases + quorums).
    CoreProtocol,
    /// §3 option 1: replicate the ACL to every host.
    FullReplication,
    /// §3 option 3: updates stay at the issuing manager.
    LocalOnly,
    /// The \[23\] comparator: gossip replicas, eventual consistency.
    Eventual,
}

impl Strategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::CoreProtocol => "core (leases+quorum)",
            Strategy::FullReplication => "full replication",
            Strategy::LocalOnly => "local-only",
            Strategy::Eventual => "eventual gossip",
        }
    }

    /// All strategies, core first.
    pub fn all() -> [Strategy; 4] {
        [Strategy::CoreProtocol, Strategy::FullReplication, Strategy::LocalOnly, Strategy::Eventual]
    }
}

/// Workload shape shared by all strategies.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonConfig {
    /// Managers `M`.
    pub managers: usize,
    /// Application hosts.
    pub hosts: usize,
    /// Users (all granted at bootstrap).
    pub users: usize,
    /// Mean think time between one user's requests.
    pub invoke_mean: SimDuration,
    /// Total simulated time.
    pub horizon: SimDuration,
    /// Congestion model: mean connected spell.
    pub mean_good: SimDuration,
    /// Congestion model: mean partitioned spell.
    pub mean_bad: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        ComparisonConfig {
            managers: 4,
            hosts: 3,
            users: 5,
            invoke_mean: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(600),
            mean_good: SimDuration::from_secs(90),
            mean_bad: SimDuration::from_secs(10),
            seed: 1,
        }
    }
}

/// What one strategy cost under the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyReport {
    /// Which strategy.
    pub strategy: Strategy,
    /// All network messages sent.
    pub total_messages: u64,
    /// Access checks performed at hosts.
    pub checks: u64,
    /// Control messages (queries + replies + pushes) per check.
    pub control_per_check: f64,
    /// Messages spent disseminating the one revoke.
    pub update_messages: u64,
    /// Requests by the revoked user that were still *allowed* after the
    /// revoke was issued (staleness exposure).
    pub stale_allows: u64,
    /// Fraction of all requests that were allowed (availability proxy;
    /// every user is entitled until the revoke).
    pub allowed_fraction: f64,
}

/// Runs one strategy under the shared workload. A single revoke of user
/// 1 is issued at `horizon/2`; the congestion model runs throughout.
pub fn run_strategy(strategy: Strategy, cfg: &ComparisonConfig) -> StrategyReport {
    run_strategy_metered(strategy, cfg).0
}

/// [`run_strategy`] with the world's metric bag the report was read from.
pub fn run_strategy_metered(strategy: Strategy, cfg: &ComparisonConfig) -> (StrategyReport, Metrics) {
    match strategy {
        Strategy::CoreProtocol => run_core(cfg),
        _ => run_baseline(strategy, cfg),
    }
}

fn congested_net(cfg: &ComparisonConfig) -> WanNet {
    WanNet::builder()
        .constant_delay(SimDuration::from_millis(30))
        .partitions(Box::new(GilbertElliott::new(cfg.mean_good, cfg.mean_bad)))
        .build()
}

fn run_core(cfg: &ComparisonConfig) -> (StrategyReport, Metrics) {
    let policy = Policy::builder((cfg.managers / 2).max(1))
        .revocation_bound(SimDuration::from_secs(60))
        .query_timeout(SimDuration::from_millis(500))
        .max_attempts(2)
        .build();
    let mut d = Scenario::builder(cfg.seed)
        .managers(cfg.managers)
        .hosts(cfg.hosts)
        .users(cfg.users)
        .policy(policy)
        .all_users_granted()
        .workload(cfg.invoke_mean)
        .net(Box::new(congested_net(cfg)))
        .build();
    let revoke_at = SimTime::ZERO + cfg.horizon.mul_f64(0.5);
    d.run_until(revoke_at);
    let sent_before = revoked_user_allowed_core(&d);
    d.revoke(UserId(1), Right::Use);
    d.run_until(SimTime::ZERO + cfg.horizon);

    let m = d.world.metrics();
    let checks = m.counter("host.invokes");
    let control = m.counter("host.queries_sent")
        + m.counter("mgr.grants")
        + m.counter("mgr.denies");
    let update = m.counter("mgr.updates_sent")
        + m.counter("mgr.updates_resent")
        + m.counter("mgr.revoke_notices")
        + m.counter("mgr.revoke_notices_resent");
    let stats = d.aggregate_user_stats();
    let report = StrategyReport {
        strategy: Strategy::CoreProtocol,
        total_messages: m.counter("net.sent"),
        checks,
        control_per_check: control as f64 / checks.max(1) as f64,
        update_messages: update,
        stale_allows: revoked_user_allowed_core(&d).saturating_sub(sent_before),
        allowed_fraction: stats.allowed as f64 / stats.sent.max(1) as f64,
    };
    (report, m.clone())
}

fn revoked_user_allowed_core(d: &wanacl_core::scenario::Deployment) -> u64 {
    d.user_agent(0).stats().allowed
}

/// A minimal workload driver for the baseline strategies.
#[derive(Debug)]
struct BaselineUser {
    user: UserId,
    hosts: Vec<NodeId>,
    mean: SimDuration,
    next_req: u64,
    sent: u64,
    allowed: u64,
    denied: u64,
}

impl Node for BaselineUser {
    type Msg = BaselineMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        let wait = SimDuration::from_secs_f64(ctx.rng().exponential(self.mean.as_secs_f64()));
        ctx.set_timer(wait, 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, BaselineMsg>, _from: NodeId, msg: BaselineMsg) {
        if let BaselineMsg::InvokeReply { allowed, .. } = msg {
            if allowed {
                self.allowed += 1;
            } else {
                self.denied += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>, _tag: u64) {
        self.next_req += 1;
        self.sent += 1;
        let host = *ctx.rng().choose(&self.hosts);
        ctx.send(host, BaselineMsg::Invoke { user: self.user, req: self.next_req });
        let wait = SimDuration::from_secs_f64(ctx.rng().exponential(self.mean.as_secs_f64()));
        ctx.set_timer(wait, 0);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn run_baseline(strategy: Strategy, cfg: &ComparisonConfig) -> (StrategyReport, Metrics) {
    let mut world: World<BaselineMsg> = World::new(cfg.seed);
    world.set_net(Box::new(congested_net(cfg)));

    let granted: Vec<UserId> = (1..=cfg.users).map(|i| UserId(i as u64)).collect();
    let mut acl = Acl::new();
    for &u in &granted {
        acl.add(u, Right::Use);
    }

    // Managers first (dense ids), then hosts, then users.
    let manager_ids: Vec<NodeId> = (0..cfg.managers).map(NodeId::from_index).collect();
    let host_ids: Vec<NodeId> =
        (cfg.managers..cfg.managers + cfg.hosts).map(NodeId::from_index).collect();

    match strategy {
        Strategy::FullReplication => {
            for (i, &id) in manager_ids.iter().enumerate() {
                let node = FullReplManager::new(
                    host_ids.clone(),
                    acl.clone(),
                    SimDuration::from_millis(500),
                );
                let got = world.add_node(format!("m{i}"), Box::new(node), ClockSpec::Perfect);
                assert_eq!(got, id);
            }
            for (i, &id) in host_ids.iter().enumerate() {
                let got = world.add_node(
                    format!("h{i}"),
                    Box::new(FullReplHost::new(acl.clone())),
                    ClockSpec::Perfect,
                );
                assert_eq!(got, id);
            }
        }
        Strategy::LocalOnly => {
            for (i, &id) in manager_ids.iter().enumerate() {
                // Bootstrap rights live at manager 0 (they were "issued"
                // there).
                let local = if i == 0 { acl.clone() } else { Acl::new() };
                let got = world.add_node(
                    format!("m{i}"),
                    Box::new(LocalOnlyManager::new(local)),
                    ClockSpec::Perfect,
                );
                assert_eq!(got, id);
            }
            for (i, &id) in host_ids.iter().enumerate() {
                let got = world.add_node(
                    format!("h{i}"),
                    Box::new(LocalOnlyHost::new(manager_ids.clone(), SimDuration::from_millis(500))),
                    ClockSpec::Perfect,
                );
                assert_eq!(got, id);
            }
        }
        Strategy::Eventual => {
            for (i, &id) in manager_ids.iter().enumerate() {
                let peers = manager_ids.iter().copied().filter(|p| *p != id).collect();
                let got = world.add_node(
                    format!("m{i}"),
                    Box::new(EventualManager::new(
                        peers,
                        i as u32,
                        granted.clone(),
                        SimDuration::from_secs(2),
                    )),
                    ClockSpec::Perfect,
                );
                assert_eq!(got, id);
            }
            for (i, &id) in host_ids.iter().enumerate() {
                let got = world.add_node(
                    format!("h{i}"),
                    Box::new(EventualHost::new(manager_ids.clone(), SimDuration::from_millis(500))),
                    ClockSpec::Perfect,
                );
                assert_eq!(got, id);
            }
        }
        Strategy::CoreProtocol => unreachable!("handled by run_core"),
    }

    let mut user_nodes = Vec::new();
    for (i, &u) in granted.iter().enumerate() {
        let node = BaselineUser {
            user: u,
            hosts: host_ids.clone(),
            mean: cfg.invoke_mean,
            next_req: 0,
            sent: 0,
            allowed: 0,
            denied: 0,
        };
        user_nodes.push(world.add_node(format!("u{i}"), Box::new(node), ClockSpec::Perfect));
    }

    // Revoke user 1 at horizon/2, at manager 0.
    let revoke_at = SimTime::ZERO + cfg.horizon.mul_f64(0.5);
    world.run_until(revoke_at);
    let user1_allowed_before = world.node_as::<BaselineUser>(user_nodes[0]).allowed;
    let msgs_before_update = world.metrics().counter("net.sent");
    world.inject(
        revoke_at,
        manager_ids[0],
        BaselineMsg::Admin {
            op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
        },
    );
    world.run_until(SimTime::ZERO + cfg.horizon);
    let _ = msgs_before_update;

    let m = world.metrics();
    let (checks, control, update) = match strategy {
        Strategy::FullReplication => (
            m.counter("base.full.checks"),
            0,
            m.counter("base.full.push_msgs"),
        ),
        Strategy::LocalOnly => (
            m.counter("base.local.checks"),
            m.counter("base.local.locate_queries") + m.counter("base.local.locate_replies"),
            0,
        ),
        Strategy::Eventual => (
            m.counter("base.ec.checks"),
            m.counter("base.ec.check_queries") + m.counter("base.ec.check_replies"),
            m.counter("base.ec.gossip_msgs"),
        ),
        Strategy::CoreProtocol => unreachable!(),
    };

    let mut sent = 0u64;
    let mut allowed = 0u64;
    for &n in &user_nodes {
        let u = world.node_as::<BaselineUser>(n);
        sent += u.sent;
        allowed += u.allowed;
    }
    let user1 = world.node_as::<BaselineUser>(user_nodes[0]);

    let report = StrategyReport {
        strategy,
        total_messages: m.counter("net.sent"),
        checks,
        control_per_check: control as f64 / checks.max(1) as f64,
        update_messages: update,
        stale_allows: user1.allowed.saturating_sub(user1_allowed_before),
        allowed_fraction: allowed as f64 / sent.max(1) as f64,
    };
    (report, m.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> ComparisonConfig {
        ComparisonConfig {
            horizon: SimDuration::from_secs(300),
            seed,
            ..ComparisonConfig::default()
        }
    }

    #[test]
    fn full_replication_checks_are_free() {
        let r = run_strategy(Strategy::FullReplication, &small_cfg(1));
        assert_eq!(r.control_per_check, 0.0);
        assert!(r.update_messages >= 3, "one push per host at least: {r:?}");
        assert!(r.checks > 10);
    }

    #[test]
    fn local_only_checks_cost_order_m() {
        let r = run_strategy(Strategy::LocalOnly, &small_cfg(2));
        // M queries out; replies bounded by 2M (early-grant cuts some).
        assert!(r.control_per_check >= 4.0, "{r:?}");
        assert!(r.control_per_check <= 8.0, "{r:?}");
        assert_eq!(r.update_messages, 0);
    }

    #[test]
    fn core_protocol_amortizes_checks_with_cache() {
        let core = run_strategy(Strategy::CoreProtocol, &small_cfg(3));
        let local = run_strategy(Strategy::LocalOnly, &small_cfg(3));
        assert!(
            core.control_per_check < local.control_per_check,
            "caching must beat query-all-managers: {core:?} vs {local:?}"
        );
    }

    #[test]
    fn eventual_uses_one_manager_per_check() {
        let r = run_strategy(Strategy::Eventual, &small_cfg(4));
        assert!(r.control_per_check <= 2.0 + 1e-9, "{r:?}");
        assert!(r.update_messages > 0, "gossip runs continuously: {r:?}");
    }

    #[test]
    fn all_strategies_mostly_allow_entitled_users() {
        for (i, s) in Strategy::all().into_iter().enumerate() {
            let r = run_strategy(s, &small_cfg(10 + i as u64));
            assert!(
                r.allowed_fraction > 0.5,
                "{}: allowed fraction {}",
                s.name(),
                r.allowed_fraction
            );
        }
    }
}
