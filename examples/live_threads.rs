//! The same protocol objects the simulator runs, live on OS threads:
//! three managers, one host, one user, and a nemesis plan whose
//! partition window opens and heals on the runtime clock. Wall-clock
//! time, real channels, no simulation.
//!
//! Run with: `cargo run --example live_threads`

use std::time::Duration;

use wanacl::prelude::*;
use wanacl::rt::{install_roster, live_manager_tuning, live_policy, ChaosRouter, RuntimeBuilder};

fn main() {
    // The roster a simulated `Scenario::build()` would install on a
    // `World`, installed on the worker pool instead.
    let roster = Scenario::builder(3)
        .managers(3)
        .policy(live_policy(2).build())
        .all_users_granted()
        .manager_tuning(live_manager_tuning())
        .application(|_| Box::new(EchoApp))
        .roster();
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(3);
    let layout = install_roster(&mut b, roster, |_| Ok(None)).expect("no storage to open");
    let (manager_ids, host, user) = (layout.managers, layout.hosts[0], layout.users[0].1);

    // Cut two managers away from the host from 0.6 s to 4.4 s of the
    // runtime clock: C = 2 is unreachable while the cut holds. The chaos
    // transport asks the simulator's own fault decision for every send.
    let (cut, heal) = (SimTime::from_millis(600), SimTime::from_millis(4_400));
    let plan = NemesisPlan::builder(heal)
        .partition(vec![manager_ids[1], manager_ids[2]], vec![host], cut, heal)
        .build();
    let sink = b.metrics().clone();
    b.wrap_transport(move |router| Ok(ChaosRouter::new(router, plan.net_faults(), 3, sink)?));

    let rt = b.start();
    let sleep_until = |at: SimTime| {
        let at = Duration::from_nanos(at.as_nanos());
        std::thread::sleep(at.saturating_sub(rt.epoch().elapsed()));
    };
    let invoke = |payload: &str| {
        rt.send_from_env(
            user,
            ProtoMsg::Invoke {
                app: AppId(0),
                user: UserId(1),
                req: ReqId(0),
                payload: payload.into(),
                signature: None,
            },
        );
    };

    println!("live deployment on {} threads; C=2 of M=3", rt.workers());
    sleep_until(SimTime::from_millis(200));

    invoke("first");
    sleep_until(cut);
    println!("request with full connectivity -> expected Allowed");
    println!("partition engaged: host can reach only manager0");

    // Let the cached lease expire (Te = 2 s) before asking again.
    sleep_until(SimTime::from_millis(3_600));
    invoke("during partition");
    sleep_until(heal);
    println!("request during partition    -> expected Unavailable (quorum fails)");

    println!("partition healed");
    sleep_until(SimTime::from_millis(4_700));
    invoke("after heal");
    sleep_until(SimTime::from_millis(5_200));

    let (sent, _) = rt.router().stats();
    let snapshot = rt.metrics().snapshot();
    let nodes = rt.shutdown_nodes();
    let agent = nodes[user.index()].as_any().downcast_ref::<UserAgent>().expect("user agent");
    let stats = agent.stats();
    println!(
        "\noutcomes: sent={} allowed={} unavailable={} denied={}",
        stats.sent, stats.allowed, stats.unavailable, stats.denied
    );
    let dropped = snapshot.counter("rt.chaos_dropped");
    println!("traffic: {sent} messages routed, {dropped} dropped by the partition");
    assert_eq!(stats.allowed, 2);
    assert!(dropped > 0);
    assert_eq!(stats.unavailable, 1);
    // The live runtime collects the same metric registry the simulator
    // does (DESIGN.md §11); export the Prometheus snapshot.
    println!("\nmetrics snapshot (Prometheus text format):");
    print!("{}", wanacl::rt::prometheus_text(&snapshot));
    // Every request here runs a cold check (the Te = 2 s lease expires
    // while the partition holds), so misses — not hits — are expected.
    assert!(snapshot.counter("host.cache_miss") >= 3);
    assert!(snapshot.counter("host.unavailable") >= 1);
    assert!(snapshot.histogram("host.check_latency_s").is_some());
    println!("the same state machines that run under simulation just ran in real time.");
}
