//! The paper's availability-first case: "to ensure user satisfaction,
//! availability can be more important than security for services such as
//! on-line magazines and newspapers" (§2.3).
//!
//! Policy: C = 1, fail-open after R attempts (Figure 4). A reader keeps
//! getting pages even while the host is cut off from every manager; the
//! cost is that a cancelled subscription can also slip through during
//! the partition.
//!
//! Run with: `cargo run --example online_magazine`

use wanacl::prelude::*;

fn main() {
    // Short leases (Te = 10 s) keep revocation snappy; Figure 4's
    // fail-open rule keeps readers happy when no manager is reachable.
    let policy = Policy::builder(1)
        .revocation_bound(SimDuration::from_secs(10))
        .query_timeout(SimDuration::from_millis(200))
        .max_attempts(2)
        .exhaustion(ExhaustionBehavior::FailOpen) // Figure 4
        .build();

    // Node layout: managers 0,1; host 2; readers 3,4; admin 5.
    // The host loses contact with both managers between 10 s and 50 s.
    let base = WanNet::builder()
        .uniform_delay(SimDuration::from_millis(20), SimDuration::from_millis(80))
        .build();
    let net = NemesisPlan::builder(SimTime::from_secs(50))
        .partition(
            vec![NodeId::from_index(0), NodeId::from_index(1)],
            vec![NodeId::from_index(2)],
            SimTime::from_secs(10),
            SimTime::from_secs(50),
        )
        .build()
        .wrap_net(Box::new(base));

    let mut d = Scenario::builder(7)
        .managers(2)
        .hosts(1)
        .users(2)
        .policy(policy)
        .all_users_granted()
        .net(Box::new(net))
        .application(|i| Box::new(StockQuoteApp::new(1000 + i as u64)))
        .build();

    println!("online magazine: C=1, fail-open, host partitioned 10s-50s\n");

    // A reader browses every 5 seconds throughout.
    let reader = d.users[0].1;
    for t in (2..60).step_by(5) {
        d.world.inject(
            SimTime::from_secs(t),
            reader,
            ProtoMsg::Invoke {
                app: d.app,
                user: UserId(1),
                req: ReqId(0),
                payload: format!("front-page@{t}s").into(),
                signature: None,
            },
        );
    }
    d.run_until(SimTime::from_secs(65));

    let stats = d.user_agent(0).stats();
    let host = d.host(0).stats();
    println!("reader requests:        {}", stats.sent);
    println!("pages served:           {}", stats.allowed);
    println!("denied / unavailable:   {} / {}", stats.denied, stats.unavailable);
    println!("fail-open admissions:   {}", host.fail_open_allows);
    println!("\nEvery request was served, including the {} during the partition", host.fail_open_allows);
    println!("that no manager could vouch for — availability bought with security,");
    println!("acceptable when \"potentially unauthorized access results only in");
    println!("minor revenue loss\" (§2.3).");
    assert_eq!(stats.allowed, stats.sent);
    assert!(host.fail_open_allows > 0);
}
