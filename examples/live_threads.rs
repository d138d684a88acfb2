//! The same protocol objects the simulator runs, live on OS threads:
//! three managers, one host, one user, with a partition toggled at
//! runtime. Wall-clock time, real channels, no simulation.
//!
//! Run with: `cargo run --example live_threads`

use std::time::Duration;

use wanacl::prelude::*;
use wanacl::rt::router::PartitionSwitch;
use wanacl::rt::{install_roster, live_manager_tuning, live_policy, RuntimeBuilder};

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

    let rt = b.start();
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
    std::thread::sleep(Duration::from_millis(200));

    invoke("first");
    std::thread::sleep(Duration::from_millis(400));
    println!("request with full connectivity -> expected Allowed");

    // Cut two managers away from the host: C = 2 becomes unreachable.
    let switch = PartitionSwitch::new(vec![manager_ids[1], manager_ids[2]], vec![host]);
    rt.router().set_policy(switch.clone());
    switch.set(true);
    println!("partition engaged: host can reach only manager0");
    std::thread::sleep(Duration::from_secs(3)); // let the cached lease expire (Te = 2 s)

    invoke("during partition");
    std::thread::sleep(Duration::from_millis(800));
    println!("request during partition    -> expected Unavailable (quorum fails)");

    switch.set(false);
    println!("partition healed");
    std::thread::sleep(Duration::from_millis(300));
    invoke("after heal");
    std::thread::sleep(Duration::from_millis(500));

    let (sent, dropped) = rt.router().stats();
    let snapshot = rt.metrics().snapshot();
    let nodes = rt.shutdown_nodes();
    let agent = nodes[user.index()].as_any().downcast_ref::<UserAgent>().expect("user agent");
    let stats = agent.stats();
    println!(
        "\noutcomes: sent={} allowed={} unavailable={} denied={}",
        stats.sent, stats.allowed, stats.unavailable, stats.denied
    );
    println!("router traffic: {sent} messages, {dropped} dropped by the partition");
    assert_eq!(stats.allowed, 2);
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
