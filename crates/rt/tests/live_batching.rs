//! Batching semantics of the worker-pool runtime: coalesced per-peer
//! flushes must be invisible to the protocol, and a thousand-host flash
//! crowd must drain through the fixed pool without shedding anything.

use std::any::Any;
use std::time::{Duration, Instant};

use wanacl_core::prelude::*;
use wanacl_rt::{install_roster, live_manager_tuning, live_policy, RuntimeBuilder};
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::time::SimDuration;

/// What one run of the seeded soak settles into: every manager's final
/// ACL over a (user, right) probe grid, the user agent's verdicts, and
/// the oracle's view of the captured live trace.
#[derive(Debug, PartialEq)]
struct SoakOutcome {
    acl_grid: Vec<Vec<bool>>,
    allowed: u64,
    denied: u64,
    oracle_allows: u64,
    oracle_revokes: u64,
    oracle_clean: bool,
}

/// Runs the same seeded admin + invoke workload on a 3-manager quorum
/// cluster, with per-peer send coalescing either on or off.
fn run_soak(coalesce: bool) -> SoakOutcome {
    let policy = live_policy(2).build();
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(21);
    b.coalesce_sends(coalesce);
    let traces = b.capture_traces();
    let roster = Scenario::builder(21)
        .managers(3)
        .policy(policy.clone())
        .all_users_granted()
        .manager_tuning(live_manager_tuning())
        .roster();
    let layout = install_roster(&mut b, roster, |_| None);
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
    // both batching modes reach the same quiescent state.
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
    let acl_grid = manager_ids
        .iter()
        .map(|&m| {
            let mgr = nodes[m.index()].as_any().downcast_ref::<ManagerNode>().expect("manager");
            let mut row = Vec::new();
            for uid in 1..=3 {
                for right in [Right::Use, Right::Manage] {
                    row.push(mgr.acl_has(AppId(0), UserId(uid), right));
                }
            }
            row
        })
        .collect();
    let stats = nodes[user.index()].as_any().downcast_ref::<UserAgent>().expect("user").stats();

    let mut oracle = InvariantOracle::new(&policy, SimDuration::from_millis(500));
    traces.replay_into(&mut oracle);
    SoakOutcome {
        acl_grid,
        allowed: stats.allowed,
        denied: stats.denied,
        oracle_allows: oracle.stats().allows,
        oracle_revokes: oracle.stats().revokes,
        oracle_clean: oracle.is_clean(),
    }
}

/// The tentpole equivalence contract: per-peer coalescing is a
/// transport optimisation, so a batched run and an unbatched run of the
/// same seeded soak must produce the same oracle verdicts and the same
/// per-manager final ACL state.
#[test]
fn batched_and_unbatched_runs_reach_the_same_verdicts_and_acl_state() {
    let batched = run_soak(true);
    let unbatched = run_soak(false);
    assert!(batched.oracle_clean, "batched run violated invariants");
    assert!(unbatched.oracle_clean, "unbatched run violated invariants");
    assert_eq!(batched, unbatched, "coalescing must be protocol-invisible");
    // Both runs saw the allowed check, the revocation, the denial.
    assert_eq!((batched.allowed, batched.denied), (1, 1));
    assert!(batched.oracle_allows >= 1 && batched.oracle_revokes >= 1);
}

/// A flood-test node: counts everything it hears, forwards a slice of
/// the environment's burst to a fixed peer (so the crowd generates
/// cross-traffic too), and records whether its control lane stayed live.
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
        ctx.metric_incr("flood.seen");
        if from == NodeId::ENV && msg.is_multiple_of(16) {
            if let Some(peer) = self.peer {
                ctx.send(peer, msg + 1);
            }
        }
    }
    fn on_recover(&mut self, ctx: &mut Context<'_, u64>) {
        self.recovered = true;
        ctx.metric_incr("flood.recovered");
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
    while rt.metrics().counter("flood.seen") < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    assert_eq!(rt.metrics().counter("flood.seen"), expected, "the pool must drain every envelope");
    assert_eq!(rt.metrics().counter("rt.inbox_overflow"), 0, "flash crowd must not shed");
    assert_eq!(rt.metrics().counter("flood.recovered"), 1, "control must cut through the flood");

    let nodes = rt.shutdown_nodes();
    assert_eq!(nodes.len(), HOSTS + 1);
    for (i, node) in nodes.iter().enumerate().take(HOSTS) {
        let flood = node.as_any().downcast_ref::<FloodNode>().expect("flood node");
        assert_eq!(flood.seen, BURST + forwards_per_host, "host {i} lost envelopes");
    }
    let quiet_node = nodes[quiet.index()].as_any().downcast_ref::<FloodNode>().expect("quiet");
    assert!(quiet_node.recovered, "the mid-flood recover must have reached the node");
}
