//! Cross-crate end-to-end scenarios: big deployments, crash plans,
//! congestion, authentication, and accounting consistency.

use wanacl::prelude::*;
use wanacl::sim::net::partition::GilbertElliott;
use wanacl::sim::net::WanNet;

fn congested_net() -> WanNet {
    WanNet::builder()
        .exponential_delay(SimDuration::from_millis(15), SimDuration::from_millis(25))
        .loss(0.02)
        .partitions(Box::new(GilbertElliott::new(
            SimDuration::from_secs(120),
            SimDuration::from_secs(8),
        )))
        .build()
}

/// A substantial deployment survives an hour of simulated chaos with
/// consistent accounting.
#[test]
fn large_deployment_accounting_is_consistent() {
    let policy = Policy::builder(3)
        .revocation_bound(SimDuration::from_secs(60))
        .clock_rate_bound(0.95)
        .query_timeout(SimDuration::from_millis(400))
        .max_attempts(3)
        .build();
    let mut d = Scenario::builder(2024)
        .managers(5)
        .hosts(4)
        .users(20)
        .policy(policy)
        .all_users_granted()
        .workload(SimDuration::from_secs(3))
        .host_clock(ClockSpec::RandomRate { min_rate: 0.95 })
        .manager_clock(ClockSpec::RandomRate { min_rate: 0.95 })
        .net(Box::new(congested_net()))
        .request_timeout(SimDuration::from_secs(8))
        .build();

    // Crash/recover two hosts and one manager during the run.
    let host0 = d.hosts[0];
    let mgr4 = d.managers[4];
    d.world.schedule_crash(SimTime::from_secs(600), host0);
    d.world.schedule_recover(SimTime::from_secs(700), host0);
    d.world.schedule_crash(SimTime::from_secs(1_200), mgr4);
    d.world.schedule_recover(SimTime::from_secs(1_500), mgr4);

    d.run_until(SimTime::from_secs(3_600));

    let stats = d.aggregate_user_stats();
    assert!(stats.sent > 10_000, "workload must have run: {stats:?}");
    // Every request resolves exactly once.
    let outstanding: u64 = (0..20).map(|i| d.user_agent(i).outstanding() as u64).sum();
    assert_eq!(
        stats.replied() + stats.timeouts + outstanding,
        stats.sent,
        "request accounting must balance: {stats:?}"
    );
    // Entitled users under congestion: high but not necessarily perfect
    // availability.
    // Two host crashes, 2% loss, and congestion bursts all cost
    // requests; entitled users should still land well above 85%.
    let availability = stats.allowed as f64 / stats.sent as f64;
    assert!(availability > 0.85, "availability {availability}");
    // Host decisions match user outcomes (no lost replies beyond drops).
    let host_allowed: u64 = (0..4).map(|i| d.host(i).stats().allowed).sum();
    assert!(host_allowed >= stats.allowed);
    // The recovered manager is serving again.
    assert!(!d.manager(4).is_recovering());
}

/// Authenticated end-to-end flow with manager-right enforcement and a
/// quorum-spanning grant/revoke cycle for every user.
#[test]
fn authenticated_grant_revoke_cycle() {
    let policy = Policy::builder(2)
        .revocation_bound(SimDuration::from_secs(30))
        .query_timeout(SimDuration::from_millis(300))
        .max_attempts(2)
        .build();
    let mut d = Scenario::builder(7)
        .managers(3)
        .hosts(2)
        .users(4)
        .policy(policy)
        .authenticate()
        .build();
    d.run_for(SimDuration::from_secs(1));

    // Nobody is granted yet.
    for i in 0..4 {
        d.invoke_from(i);
    }
    d.run_for(SimDuration::from_secs(3));
    assert_eq!(d.aggregate_user_stats().denied, 4);

    // Grant all, verify, revoke half, verify.
    for i in 1..=4u64 {
        d.grant(UserId(i), Right::Use);
    }
    d.run_for(SimDuration::from_secs(3));
    for i in 0..4 {
        d.invoke_from(i);
    }
    d.run_for(SimDuration::from_secs(3));
    assert_eq!(d.aggregate_user_stats().allowed, 4);

    d.revoke(UserId(1), Right::Use);
    d.revoke(UserId(2), Right::Use);
    d.run_for(SimDuration::from_secs(3));
    for i in 0..4 {
        d.invoke_from(i);
    }
    d.run_for(SimDuration::from_secs(3));
    let s = d.aggregate_user_stats();
    assert_eq!(s.allowed, 6, "{s:?}");
    assert_eq!(s.denied, 6, "{s:?}");
}

/// The same seed reproduces the same run even with crashes, drift, and
/// congestion (determinism at system scale).
#[test]
fn chaos_runs_are_deterministic() {
    let run = || {
        let policy = Policy::builder(2)
            .revocation_bound(SimDuration::from_secs(45))
            .clock_rate_bound(0.9)
            .query_timeout(SimDuration::from_millis(350))
            .max_attempts(2)
            .build();
        let mut d = Scenario::builder(555)
            .managers(4)
            .hosts(3)
            .users(8)
            .policy(policy)
            .all_users_granted()
            .workload(SimDuration::from_secs(4))
            .host_clock(ClockSpec::RandomRate { min_rate: 0.9 })
            .net(Box::new(congested_net()))
            .build();
        let h = d.hosts[1];
        d.world.schedule_crash(SimTime::from_secs(100), h);
        d.world.schedule_recover(SimTime::from_secs(160), h);
        d.run_until(SimTime::from_secs(900));
        let s = d.aggregate_user_stats();
        (
            s.sent,
            s.allowed,
            s.timeouts,
            d.world.metrics().counter("net.sent"),
            d.world.metrics().counter("net.drop.partitioned"),
        )
    };
    assert_eq!(run(), run());
}

/// The freeze strategy and the name service (a one-replica directory)
/// work together end to end.
#[test]
fn freeze_with_a_directory() {
    let policy = Policy::builder(1)
        .revocation_bound(SimDuration::from_secs(40))
        .clock_rate_bound(0.5)
        .query_timeout(SimDuration::from_millis(300))
        .max_attempts(2)
        .freeze(FreezePolicy {
            ti: SimDuration::from_secs(8),
            heartbeat_interval: SimDuration::from_secs(1),
        })
        .build();
    let mut d = Scenario::builder(31)
        .managers(2)
        .hosts(1)
        .users(1)
        .policy(policy)
        .all_users_granted()
        .with_replicated_directory(1, 1, SimDuration::from_secs(120))
        .build();
    d.run_for(SimDuration::from_secs(2));
    d.invoke_from(0);
    d.run_for(SimDuration::from_secs(2));
    assert_eq!(d.user_agent(0).stats().allowed, 1);
    assert!(!d.manager(0).is_frozen(d.app));

    // Crash manager 1: its silence freezes manager 0 after Ti.
    let m1 = d.managers[1];
    let now = d.world.now();
    d.world.schedule_crash(now + SimDuration::from_secs(1), m1);
    d.run_for(SimDuration::from_secs(15));
    assert!(d.manager(0).is_frozen(d.app), "survivor must freeze");

    // Recovery thaws the system (sync + heartbeats).
    let now = d.world.now();
    d.world.schedule_recover(now + SimDuration::from_secs(1), m1);
    d.run_for(SimDuration::from_secs(10));
    assert!(!d.manager(0).is_frozen(d.app));
    assert!(!d.manager(1).is_recovering());
}
