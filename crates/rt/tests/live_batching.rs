//! Batching semantics of the worker-pool runtime: draining an inbox a
//! batch at a time must be invisible to the protocol, and a
//! thousand-host flash crowd must drain through the fixed pool without
//! shedding anything.

use std::any::Any;
use std::time::{Duration, Instant};

use wanacl_core::prelude::*;
use wanacl_rt::{install_roster, live_manager_tuning, live_policy, RuntimeBuilder};
use wanacl_sim::metrics::MetricId;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::time::SimDuration;

/// Drain-then-step batching is a scheduling choice and must be
/// invisible to the protocol: a seeded admin + invoke workload on a
/// 3-manager quorum cluster settles into the expected per-manager ACL
/// state and user verdicts, and the oracle is clean over the captured
/// live trace.
#[test]
fn batched_soak_reaches_the_expected_verdicts_and_acl_state() {
    let policy = live_policy(2).build();
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(21);
    let traces = b.capture_traces();
    let roster = Scenario::builder(21)
        .managers(3)
        .policy(policy.clone())
        .all_users_granted()
        .manager_tuning(live_manager_tuning())
        .roster();
    let layout = install_roster(&mut b, roster, |_| Ok(None)).expect("no storage to open");
    let (manager_ids, user) = (layout.managers, layout.users[0].1);
    let rt = b.start();
    std::thread::sleep(Duration::from_millis(150));

    let invoke = |req: u64| {
        rt.send_from_env(
            user,
            ProtoMsg::Invoke {
                app: AppId(0),
                user: UserId(1),
                req: ReqId(req),
                payload: "go".into(),
                signature: None,
            },
        );
    };
    let admin = |target: NodeId, req: u64, op: AclOp| {
        rt.send_from_env(
            target,
            ProtoMsg::Admin { op, req: ReqId(req), issuer: UserId(999), signature: None },
        );
    };

    // The seeded workload: allowed check, ACL churn at different
    // managers, a revocation, the denied re-check. Generous settles so
    // the run reaches a quiescent state.
    invoke(1);
    std::thread::sleep(Duration::from_millis(400));
    admin(manager_ids[0], 10, AclOp::Add { app: AppId(0), user: UserId(2), right: Right::Use });
    admin(manager_ids[1], 11, AclOp::Add { app: AppId(0), user: UserId(3), right: Right::Manage });
    std::thread::sleep(Duration::from_millis(300));
    admin(manager_ids[2], 12, AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use });
    std::thread::sleep(Duration::from_millis(500));
    invoke(2);
    std::thread::sleep(Duration::from_millis(500));

    let nodes = rt.shutdown_nodes();
    // Every manager converged: user 1 lost `use`, user 2 gained it,
    // user 3 gained `manage`, nothing else moved.
    let expected = [
        (1, Right::Use, false),
        (1, Right::Manage, false),
        (2, Right::Use, true),
        (2, Right::Manage, false),
        (3, Right::Use, false),
        (3, Right::Manage, true),
    ];
    for &m in &manager_ids {
        let mgr = nodes[m.index()].as_any().downcast_ref::<ManagerNode>().expect("manager");
        for (uid, right, held) in expected {
            assert_eq!(mgr.acl_has(AppId(0), UserId(uid), right), held, "{m}: user {uid} {right}");
        }
    }
    let stats = nodes[user.index()].as_any().downcast_ref::<UserAgent>().expect("user").stats();
    assert_eq!((stats.allowed, stats.denied), (1, 1));

    let mut oracle = InvariantOracle::new(&policy, SimDuration::from_millis(500));
    traces.replay_into(&mut oracle);
    assert!(oracle.is_clean(), "{:?}", oracle.violations());
    assert!(oracle.stats().allows >= 1 && oracle.stats().revokes >= 1);
}

/// A flood-test node: counts everything it hears, forwards a slice of
/// the environment's burst to a fixed peer (so the crowd generates
/// cross-traffic too), and records whether its control lane stayed live.
/// It counts under the simulator's `net.delivered` / `node.recoveries`
/// rows, which the live runtime itself never records.
#[derive(Debug)]
struct FloodNode {
    peer: Option<NodeId>,
    seen: u64,
    recovered: bool,
}

impl Node for FloodNode {
    type Msg = u64;
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
        self.seen += 1;
        ctx.metric_incr(MetricId::NET_DELIVERED);
        if from == NodeId::ENV && msg.is_multiple_of(16) {
            if let Some(peer) = self.peer {
                ctx.send(peer, msg + 1);
            }
        }
    }
    fn on_recover(&mut self, _ctx: &mut Context<'_, u64>) {
        self.recovered = true;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// 1000 hosts on a pool of ~cores workers: the environment slams every
/// host with a burst, the hosts cross-forward, and a control-lane
/// crash/recover cycle runs mid-flood. Nothing may be shed
/// (`rt.inbox_overflow` stays 0), every envelope must be consumed, and
/// the control cycle must land while the data plane is saturated.
#[test]
fn thousand_host_flash_crowd_drains_without_overflow() {
    const HOSTS: usize = 1000;
    const BURST: u64 = 32;

    let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(33);
    for i in 0..HOSTS {
        // Each host forwards part of its burst to the next host.
        let peer = Some(NodeId::from_index((i + 1) % HOSTS));
        b.add_node(format!("h{i}"), Box::new(FloodNode { peer, seen: 0, recovered: false }));
    }
    // One host outside the flood proves the control lane cuts through.
    let quiet =
        b.add_node("quiet", Box::new(FloodNode { peer: None, seen: 0, recovered: false }));
    let rt = b.start();

    // Flash crowd: every host gets the full burst, interleaved so all
    // inboxes fill together; halfway through, the control cycle fires.
    for j in 0..BURST {
        for i in 0..HOSTS {
            rt.send_from_env(NodeId::from_index(i), j);
        }
        if j == BURST / 2 {
            rt.crash(quiet);
            rt.recover(quiet);
        }
    }

    // Each host hears its burst plus the forwarded slice from its
    // predecessor (one forward per multiple of 16 in 0..BURST).
    let forwards_per_host = BURST.div_ceil(16);
    let expected = HOSTS as u64 * (BURST + forwards_per_host);
    let deadline = Instant::now() + Duration::from_secs(60);
    while rt.metrics().counter("net.delivered") < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    assert_eq!(rt.metrics().counter("net.delivered"), expected, "the pool must drain every envelope");
    assert_eq!(rt.metrics().counter("rt.inbox_overflow"), 0, "flash crowd must not shed");
    assert_eq!(rt.metrics().counter("node.recoveries"), 1, "control must cut through the flood");

    let nodes = rt.shutdown_nodes();
    assert_eq!(nodes.len(), HOSTS + 1);
    for (i, node) in nodes.iter().enumerate().take(HOSTS) {
        let flood = node.as_any().downcast_ref::<FloodNode>().expect("flood node");
        assert_eq!(flood.seen, BURST + forwards_per_host, "host {i} lost envelopes");
    }
    let quiet_node = nodes[quiet.index()].as_any().downcast_ref::<FloodNode>().expect("quiet");
    assert!(quiet_node.recovered, "the mid-flood recover must have reached the node");
}
