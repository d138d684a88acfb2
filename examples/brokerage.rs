//! The paper's security-first case: "if the application allows users to
//! purchase expensive merchandise or undertake significant financial
//! transactions, it may be more important to be able to check that the
//! user is still authorized to use the service than to grant access"
//! (§2.3).
//!
//! Policy: authenticated requests, C = M (every manager must vouch),
//! tight revocation bound, fail closed. A compromised trader is revoked
//! while the trading host is partitioned from the managers; the cached
//! lease bounds the exposure window to Te.
//!
//! Run with: `cargo run --example brokerage`

use wanacl::prelude::*;

fn main() {
    let te = SimDuration::from_secs(15);
    let policy = Policy::builder(3) // C = M = 3
        .revocation_bound(te)
        .clock_rate_bound(0.95)
        .query_timeout(SimDuration::from_millis(300))
        .max_attempts(2)
        .exhaustion(ExhaustionBehavior::FailClosed)
        .build();

    // Node layout: managers 0,1,2; host 3; traders 4,5; admin 6.
    // The trading host is cut from all managers between 20 s and 120 s.
    let base = WanNet::builder().constant_delay(SimDuration::from_millis(25)).build();
    let net = NemesisPlan::builder(SimTime::from_secs(120))
        .partition(
            vec![NodeId::from_index(0), NodeId::from_index(1), NodeId::from_index(2)],
            vec![NodeId::from_index(3)],
            SimTime::from_secs(20),
            SimTime::from_secs(120),
        )
        .build()
        .wrap_net(Box::new(base));

    let mut d = Scenario::builder(13)
        .managers(3)
        .hosts(1)
        .users(2)
        .policy(policy)
        .all_users_granted()
        .authenticate()
        .net(Box::new(net))
        .build();

    println!("brokerage: C=M=3, Te=15s, authenticated, fail-closed");
    println!("host partitioned from managers 20s-120s\n");

    // Trader 1 trades at t=18s: lease cached just before the partition.
    let trader = d.users[0].1;
    d.world.inject(
        SimTime::from_secs(18),
        trader,
        ProtoMsg::Invoke {
            app: d.app,
            user: UserId(1),
            req: ReqId(0),
            payload: "BUY 100 ACME".into(),
            signature: None, // the agent signs it itself
        },
    );
    d.run_until(SimTime::from_secs(19));
    println!("t=18s  trade:                {:?}", outcome(&d));

    // t=25s: trader 1's credentials are found compromised — revoke. The
    // partition blocks the RevokeNotice to the host.
    d.run_until(SimTime::from_secs(25));
    d.revoke(UserId(1), Right::Use);
    d.run_until(SimTime::from_secs(27));
    println!("t=25s  credentials revoked (stable ops: {})", d.admin_agent().stable_count());

    // t=30s: the attacker trades on the cached lease — inside the Te
    // exposure window this *can* succeed; that is the quantified risk.
    d.world.inject(SimTime::from_secs(30), trader, trade("DRAIN ACCOUNT #1"));
    d.run_until(SimTime::from_secs(32));
    println!("t=30s  attacker (lease live): {:?}", outcome(&d));

    // t=36s: the lease anchored at 18 s has expired (te = 0.95*15s, on a
    // clock no slower than 0.95): the host can no longer verify, and the
    // policy fails closed. The attacker is locked out *despite the
    // partition still standing* — the paper's bounded-revocation claim.
    d.world.inject(SimTime::from_secs(36), trader, trade("DRAIN ACCOUNT #2"));
    d.run_until(SimTime::from_secs(40));
    println!("t=36s  attacker (lease dead): {:?}", outcome(&d));

    // t=125s: partition healed; the revoke is enforced by every manager.
    d.world.inject(SimTime::from_secs(125), trader, trade("DRAIN ACCOUNT #3"));
    d.run_until(SimTime::from_secs(130));
    println!("t=125s attacker (healed):     {:?}", outcome(&d));

    let stats = d.user_agent(0).stats();
    println!(
        "\nexposure: exactly {} post-revoke trade(s) inside the Te={}s window;",
        stats.allowed - 1,
        te.as_secs_f64() as u64
    );
    println!("everything after lease expiry was blocked, partition or not.");
    assert_eq!(stats.allowed, 2); // the legitimate trade + one in-window
    assert_eq!(stats.unavailable, 1); // blocked during partition
    assert_eq!(stats.denied, 1); // denied after heal
}

fn trade(order: &str) -> ProtoMsg {
    ProtoMsg::Invoke {
        app: AppId(0),
        user: UserId(1),
        req: ReqId(0),
        payload: order.into(),
        signature: None,
    }
}

fn outcome(d: &Deployment) -> &InvokeOutcome {
    d.user_agent(0).last_outcome().expect("replied")
}
