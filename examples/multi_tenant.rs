//! Per-application policies on shared infrastructure: "our algorithm
//! allows each application to set the parameters that determine the
//! level of security and availability" (§5).
//!
//! One host and one manager pair serve two applications with opposite
//! policies — a fail-open newspaper and a fail-closed payroll service —
//! and a partition treats them exactly as differently as configured.
//!
//! Run with: `cargo run --example multi_tenant`

use wanacl::prelude::*;
use wanacl::core::host::{AppHost, HostNode, ManagerDirectory};
use wanacl::core::manager::{ManagerApp, ManagerConfig, ManagerNode};
use wanacl::sim::world::World;

fn main() {
    let newspaper = AppId(1);
    let payroll = AppId(2);

    let newspaper_policy = Policy::builder(1)
        .revocation_bound(SimDuration::from_secs(10))
        .query_timeout(SimDuration::from_millis(200))
        .max_attempts(2)
        .exhaustion(ExhaustionBehavior::FailOpen)
        .build();
    let payroll_policy = Policy::builder(2) // C = M: both managers must vouch
        .revocation_bound(SimDuration::from_secs(10))
        .query_timeout(SimDuration::from_millis(200))
        .max_attempts(2)
        .exhaustion(ExhaustionBehavior::FailClosed)
        .build();

    let mut acl = Acl::new();
    acl.add(UserId(1), Right::Use);

    // Node layout: managers 0,1; host 2. Host cut from managers 20s-60s.
    let base = WanNet::builder().constant_delay(SimDuration::from_millis(25)).build();
    let net = NemesisPlan::builder(SimTime::from_secs(60))
        .partition(
            vec![NodeId::from_index(0), NodeId::from_index(1)],
            vec![NodeId::from_index(2)],
            SimTime::from_secs(20),
            SimTime::from_secs(60),
        )
        .build()
        .wrap_net(Box::new(base));

    let mut world: World<ProtoMsg> = World::new(11);
    world.set_net(Box::new(net));
    let manager_ids = [NodeId::from_index(0), NodeId::from_index(1)];
    for (i, &id) in manager_ids.iter().enumerate() {
        let peers = manager_ids.iter().copied().filter(|p| *p != id).collect();
        let got = world.add_node(
            format!("manager{i}"),
            Box::new(ManagerNode::new(ManagerConfig {
                peers,
                apps: vec![
                    ManagerApp {
                        app: newspaper,
                        policy: newspaper_policy.clone(),
                        initial_acl: acl.clone(),
                    },
                    ManagerApp {
                        app: payroll,
                        policy: payroll_policy.clone(),
                        initial_acl: acl.clone(),
                    },
                ],
                ..ManagerConfig::default()
            })),
            ClockSpec::Perfect,
        );
        assert_eq!(got, id);
    }
    let host = world.add_node(
        "host",
        Box::new(HostNode::new(
            vec![
                AppHost {
                    app: newspaper,
                    policy: newspaper_policy,
                    directory: ManagerDirectory::Static(manager_ids.to_vec().into()),
                    application: Box::new(CountingApp::new()),
                },
                AppHost {
                    app: payroll,
                    policy: payroll_policy,
                    directory: ManagerDirectory::Static(manager_ids.to_vec().into()),
                    application: Box::new(CountingApp::new()),
                },
            ],
            None,
        )),
        ClockSpec::Perfect,
    );

    // During the partition (t = 35 s, well past every lease), the same
    // user hits both applications.
    let mut req = 0u64;
    for app in [newspaper, payroll] {
        req += 1;
        world.inject(
            SimTime::from_secs(35),
            host,
            ProtoMsg::Invoke {
                app,
                user: UserId(1),
                req: ReqId(req),
                payload: "work".into(),
                signature: None,
            },
        );
    }
    world.run_until(SimTime::from_secs(45));

    let host_node = world.node_as::<HostNode>(host);
    let news: &CountingApp = host_node.application_as(newspaper);
    let pay: &CountingApp = host_node.application_as(payroll);
    println!("one host, two tenants, managers unreachable:");
    println!("  newspaper (fail-open, C=1): served {} request(s)", news.handled());
    println!("  payroll  (fail-closed, C=2): served {} request(s)", pay.handled());
    println!("\nsame partition, opposite outcomes — the per-application tradeoff");
    println!("the paper argues for instead of one system-wide policy.");
    assert_eq!(news.handled(), 1);
    assert_eq!(pay.handled(), 0);
    assert_eq!(host_node.stats().fail_open_allows, 1);
    assert_eq!(host_node.stats().unavailable, 1);
}
