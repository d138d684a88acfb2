//! The full access-control protocol on real OS threads: the same
//! `wanacl-core` node objects the simulator runs, driven by wall-clock
//! timers and crossbeam channels.

use std::time::Duration;

use wanacl_core::prelude::*;
use wanacl_core::scenario::Layout;
use wanacl_rt::{
    install_roster, live_manager_tuning, live_policy, run_live_campaign, ChaosRouter, FileStorage,
    Runtime, RuntimeBuilder,
};
use wanacl_sim::nemesis::NemesisPlan;
use wanacl_sim::node::NodeId;
use wanacl_sim::time::{SimDuration, SimTime};

/// M managers (fast timers) + 1 host + 1 granted user agent under
/// check quorum C, as a scenario the tests refine before installing.
fn live_scenario(seed: u64, m: usize, c: usize) -> Scenario {
    Scenario::builder(seed)
        .managers(m)
        .policy(live_policy(c).build())
        .all_users_granted()
        .manager_tuning(live_manager_tuning())
}

/// Installs the scenario's roster on threads (managers without stable
/// storage) and returns (runtime, host id, user-agent id, manager ids).
fn build_live(m: usize, c: usize) -> (Runtime<ProtoMsg>, NodeId, NodeId, Vec<NodeId>) {
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(7);
    let layout = install_roster(&mut b, live_scenario(7, m, c).roster(), |_| Ok(None)).expect("no storage to open");
    (b.start(), layout.hosts[0], layout.users[0].1, layout.managers)
}

/// Installs the roster with every manager on a `FileStorage` WAL under
/// `base/m{i}` (snapshot cadence 2, so three ops leave a snapshot plus a
/// WAL tail), reporting into the builder's metrics sink.
fn install_durable(
    b: &mut RuntimeBuilder<ProtoMsg>,
    scenario: Scenario,
    base: &std::path::Path,
) -> Layout {
    let (base, sink) = (base.to_owned(), b.metrics().clone());
    let tuning = ManagerConfig { snapshot_every: 2, ..live_manager_tuning() };
    install_roster(b, scenario.manager_tuning(tuning).roster(), move |i| {
        Ok(Some(FileStorage::open(base.join(format!("m{i}")))?.with_metrics(sink.clone())))
    })
    .expect("storage dir")
}

fn trigger_invoke(rt: &wanacl_rt::Runtime<ProtoMsg>, user: NodeId) {
    rt.send_from_env(
        user,
        ProtoMsg::Invoke {
            app: AppId(0),
            user: UserId(1),
            req: ReqId(0),
            payload: "go".into(),
            signature: None,
        },
    );
}

#[test]
fn live_grant_flow_with_quorum() {
    let (rt, host_id, user_id, _mgrs) = build_live(3, 2);
    std::thread::sleep(Duration::from_millis(100));
    trigger_invoke(&rt, user_id);
    std::thread::sleep(Duration::from_millis(400));
    trigger_invoke(&rt, user_id); // should be a cache hit
    std::thread::sleep(Duration::from_millis(400));
    let snapshot = rt.metrics().snapshot();
    let nodes = rt.shutdown_nodes();
    let user = nodes[user_id.index()].as_any().downcast_ref::<UserAgent>().expect("user");
    assert_eq!(user.stats().allowed, 2, "stats: {:?}", user.stats());
    let host = nodes[host_id.index()].as_any().downcast_ref::<HostNode>().expect("host");
    assert!(host.stats().cache_hits >= 1, "second invoke should hit the cache");
    // The live runtime records the same metric registry the simulator
    // does: cache hit/miss counters and the quorum-check latency
    // histogram must be present and exportable in both formats.
    assert!(snapshot.counter("host.cache_hit") >= 1, "{snapshot:?}");
    assert_eq!(snapshot.counter("host.cache_miss"), 1, "{snapshot:?}");
    let latency =
        snapshot.histogram("host.check_latency_s").and_then(|h| h.summary()).expect("latency");
    assert_eq!(latency.count, 1, "one cold check ran the quorum path");
    assert!(latency.min > 0.0, "a live quorum round trip takes wall-clock time");
    let prom = wanacl_rt::prometheus_text(&snapshot);
    assert!(prom.contains("wanacl_host_cache_hit"), "{prom}");
    assert!(prom.contains("wanacl_host_check_latency_s_count 1"), "{prom}");
    let jsonl = wanacl_rt::metrics_jsonl(&snapshot, "live");
    assert!(jsonl.contains("\"name\":\"host.cache_hit\""), "{jsonl}");
    assert!(jsonl.contains("\"name\":\"host.check_latency_s\""), "{jsonl}");
}

#[test]
fn live_revocation_denies_user() {
    let (rt, _host_id, user_id, mgrs) = build_live(2, 1);
    std::thread::sleep(Duration::from_millis(100));
    trigger_invoke(&rt, user_id);
    std::thread::sleep(Duration::from_millis(300));
    // Revoke straight at manager 0 (unauthenticated deployment).
    rt.send_from_env(
        mgrs[0],
        ProtoMsg::Admin {
            op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
            req: ReqId(1),
            issuer: UserId(999),
            signature: None,
        },
    );
    // Wait past dissemination + RevokeNotice + cache flush.
    std::thread::sleep(Duration::from_millis(500));
    trigger_invoke(&rt, user_id);
    std::thread::sleep(Duration::from_millis(400));
    let nodes = rt.shutdown_nodes();
    let user = nodes[user_id.index()].as_any().downcast_ref::<UserAgent>().expect("user");
    let stats = user.stats();
    assert_eq!(stats.allowed, 1, "{stats:?}");
    assert_eq!(stats.denied, 1, "{stats:?}");
}

/// §3.4 on real threads: a crashed manager refuses queries until it has
/// synced from its peer, then serves post-crash state.
#[test]
fn live_manager_crash_and_recovery() {
    let (rt, _host_id, user_id, mgrs) = build_live(2, 1);
    std::thread::sleep(Duration::from_millis(150));
    // Crash manager 1, then revoke at manager 0 while it is down.
    rt.crash(mgrs[1]);
    std::thread::sleep(Duration::from_millis(100));
    rt.send_from_env(
        mgrs[0],
        ProtoMsg::Admin {
            op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
            req: ReqId(1),
            issuer: UserId(999),
            signature: None,
        },
    );
    std::thread::sleep(Duration::from_millis(200));
    rt.recover(mgrs[1]);
    // Recovery sync + update retransmission settle.
    std::thread::sleep(Duration::from_millis(600));
    trigger_invoke(&rt, user_id);
    std::thread::sleep(Duration::from_millis(400));
    let nodes = rt.shutdown_nodes();
    let m1 = nodes[mgrs[1].index()].as_any().downcast_ref::<ManagerNode>().expect("manager");
    assert!(!m1.is_recovering(), "manager must have synced");
    assert!(!m1.acl_has(AppId(0), UserId(1), Right::Use), "sync must carry the revoke");
    let user = nodes[user_id.index()].as_any().downcast_ref::<UserAgent>().expect("user");
    assert_eq!(user.stats().denied, 1, "{:?}", user.stats());
}

/// Durable recovery on real threads and a real filesystem: every
/// manager runs on a [`wanacl_rt::FileStorage`] WAL, the *entire*
/// manager set crash-restarts, and state acked before the crash must
/// come back from disk — no surviving peer holds it in memory.
#[test]
fn live_full_cluster_restart_recovers_from_disk() {
    let base = std::env::temp_dir().join(format!("wanacl-live-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(7);
    let layout = install_durable(&mut b, live_scenario(7, 2, 1), &base);
    let (manager_ids, user) = (layout.managers, layout.users[0].1);
    let rt = b.start();
    std::thread::sleep(Duration::from_millis(150));

    // Three ops: revoke user 1, grant+revoke churn on user 2 — enough to
    // cross the snapshot cadence and leave a WAL record after it.
    for (i, op) in [
        AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
        AclOp::Add { app: AppId(0), user: UserId(2), right: Right::Use },
        AclOp::Add { app: AppId(0), user: UserId(2), right: Right::Manage },
    ]
    .into_iter()
    .enumerate()
    {
        rt.send_from_env(
            manager_ids[0],
            ProtoMsg::Admin { op, req: ReqId(i as u64 + 1), issuer: UserId(999), signature: None },
        );
        std::thread::sleep(Duration::from_millis(150));
    }

    // The whole cluster goes down at once: no peer keeps the state warm.
    for &m in &manager_ids {
        rt.crash(m);
    }
    std::thread::sleep(Duration::from_millis(100));
    for &m in &manager_ids {
        rt.recover(m);
    }
    std::thread::sleep(Duration::from_millis(600));

    trigger_invoke(&rt, user); // user 1 was revoked pre-crash
    std::thread::sleep(Duration::from_millis(400));
    let snapshot = rt.metrics().snapshot();
    let nodes = rt.shutdown_nodes();
    // Each acked op was fsynced before its ack; the attached sink saw
    // every barrier with a real wall-clock latency sample.
    assert!(snapshot.counter("storage.wal_fsync") >= 3, "{snapshot:?}");
    let fsync =
        snapshot.histogram("storage.wal_fsync_s").and_then(|h| h.summary()).expect("fsync latency");
    assert!(fsync.count >= 3 && fsync.min >= 0.0);
    for &m in &manager_ids {
        let mgr = nodes[m.index()].as_any().downcast_ref::<ManagerNode>().expect("manager");
        assert!(!mgr.is_recovering(), "disk recovery must serve without peer help");
        assert_eq!(mgr.stats().recovered_from_disk, 1, "recovery must come from the WAL");
        assert!(mgr.stats().snapshot_writes >= 1, "cadence 2 with 3 ops must snapshot");
        assert!(!mgr.acl_has(AppId(0), UserId(1), Right::Use), "revoke must survive the restart");
        assert!(mgr.acl_has(AppId(0), UserId(2), Right::Manage), "grant must survive the restart");
    }
    let user = nodes[user.index()].as_any().downcast_ref::<UserAgent>().expect("user");
    assert_eq!(user.stats().denied, 1, "{:?}", user.stats());
    let _ = std::fs::remove_dir_all(&base);
}

/// The replicated directory on real threads: three live replicas serve
/// signed records, the host installs its manager set from a verified
/// quorum read, a fresher record published to ONE replica spreads by
/// anti-entropy, and the host's jittered refresh picks it up.
#[test]
fn live_replicated_directory_quorum_reads_and_converges() {
    // Short TTL so anti-entropy (TTL/4) and the host refresh (~0.8 TTL)
    // both fire well inside the test's sleeps.
    let ttl = SimDuration::from_millis(800);
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(7);
    let roster = live_scenario(7, 2, 1).with_replicated_directory(3, 2, ttl).roster();
    let layout = install_roster(&mut b, roster, |_| Ok(None)).expect("no storage to open");
    let replica_ids = layout.ns_replicas.clone();
    let (host, user) = (layout.hosts[0], layout.users[0].1);
    let rt = b.start();

    // The startup quorum read must land a verified manager set before
    // the first invoke can run its check.
    std::thread::sleep(Duration::from_millis(300));
    trigger_invoke(&rt, user);
    std::thread::sleep(Duration::from_millis(400));

    // Publish version 2 to ONE replica; anti-entropy spreads it and the
    // host's TTL refresh re-reads the quorum.
    let (replica, v2) = layout.republish(0, 2, layout.managers.clone()).expect("three replicas");
    rt.send_from_env(replica, v2);
    std::thread::sleep(Duration::from_millis(1_200));

    let snapshot = rt.metrics().snapshot();
    let nodes = rt.shutdown_nodes();
    let user = nodes[user.index()].as_any().downcast_ref::<UserAgent>().expect("user");
    assert_eq!(user.stats().allowed, 1, "{:?}", user.stats());
    for &id in &replica_ids {
        let replica =
            nodes[id.index()].as_any().downcast_ref::<DirectoryReplica>().expect("replica");
        assert_eq!(replica.version_of(AppId(0)), 2, "anti-entropy must converge every replica");
        assert!(replica.lookups() >= 1, "every replica answered quorum reads");
    }
    let host = nodes[host.index()].as_any().downcast_ref::<HostNode>().expect("host");
    assert_eq!(host.directory_version(AppId(0)), 2, "refresh must pick up the new version");
    // The directory path feeds the same registry the sim exports.
    assert!(snapshot.counter("ns.installs") >= 1, "{snapshot:?}");
    assert!(snapshot.counter("ns.read_rounds") >= 1, "{snapshot:?}");
    assert!(snapshot.counter("ns.lookups") >= 3, "{snapshot:?}");
    let latency = snapshot
        .histogram("ns.lookup_latency_s")
        .and_then(|h| h.summary())
        .expect("lookup latency histogram");
    assert!(latency.count >= 1 && latency.min > 0.0, "live quorum reads take wall-clock time");
}

/// A plan's partition on live threads: the chaos transport cuts
/// managers 1 and 2 away from the host for the first 700 ms of the
/// runtime clock (C = 2 unreachable), then the window closes.
#[test]
fn live_partition_trips_check_quorum() {
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(7);
    let roster = live_scenario(7, 3, 2).roster();
    let layout = install_roster(&mut b, roster, |_| Ok(None)).expect("no storage to open");
    let (host_id, user_id, mgrs) = (layout.hosts[0], layout.users[0].1, layout.managers);
    let heal = SimTime::from_millis(700);
    let plan = NemesisPlan::builder(heal)
        .partition(vec![mgrs[1], mgrs[2]], vec![host_id], SimTime::ZERO, heal)
        .build();
    let sink = b.metrics().clone();
    b.wrap_transport(move |router| Ok(ChaosRouter::new(router, plan.net_faults(), 7, sink)?));
    let rt = b.start();
    std::thread::sleep(Duration::from_millis(100));
    trigger_invoke(&rt, user_id);
    std::thread::sleep(Duration::from_millis(700)); // 2 attempts x 100 ms, then past the heal
    assert!(rt.metrics().counter("rt.chaos_dropped") > 0, "the partition dropped nothing");
    trigger_invoke(&rt, user_id);
    std::thread::sleep(Duration::from_millis(500));
    let nodes = rt.shutdown_nodes();
    let user = nodes[user_id.index()].as_any().downcast_ref::<UserAgent>().expect("user");
    let stats = user.stats();
    assert_eq!(stats.unavailable, 1, "partitioned check must fail closed: {stats:?}");
    assert_eq!(stats.allowed, 1, "healed network must serve again: {stats:?}");
}

/// Process-death recovery on the live check path: a manager is
/// [`wanacl_rt::Runtime::kill`]ed mid-update (no `on_crash` hook, the
/// thread just dies), respawned from its `FileStorage` WAL by the node
/// factory, and the update retry converges — with the captured live
/// trace staying clean under the invariant oracle (no I5 violation:
/// everything acked before the kill comes back from disk).
#[test]
fn live_kill_restart_mid_update_converges_from_wal() {
    let base = std::env::temp_dir().join(format!("wanacl-live-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let policy = live_policy(2).build(); // C = 2: checks need BOTH managers
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(11);
    let traces = b.capture_traces();
    let layout = install_durable(&mut b, live_scenario(11, 2, 2), &base);
    let (manager_ids, user) = (layout.managers, layout.users[0].1);
    let mut rt = b.start();
    std::thread::sleep(Duration::from_millis(150));

    // Durable state before the kill: an op acked and fsynced everywhere.
    rt.send_from_env(
        manager_ids[1],
        ProtoMsg::Admin {
            op: AclOp::Add { app: AppId(0), user: UserId(2), right: Right::Use },
            req: ReqId(1),
            issuer: UserId(999),
            signature: None,
        },
    );
    std::thread::sleep(Duration::from_millis(200));

    // Mid-update process death: issue an op at manager 1 and kill
    // manager 0 immediately, before dissemination can reach it. The
    // update quorum (M - C + 1 = 1) accepts at manager 1, which keeps
    // retrying the transfer to its dead peer.
    rt.send_from_env(
        manager_ids[1],
        ProtoMsg::Admin {
            op: AclOp::Add { app: AppId(0), user: UserId(2), right: Right::Manage },
            req: ReqId(2),
            issuer: UserId(999),
            signature: None,
        },
    );
    assert_eq!(rt.kill(manager_ids[0]), Ok(wanacl_rt::NodeExit::Killed));

    // A check during the outage cannot reach C = 2 managers: the host
    // retries, the attempt budget runs out, the user sees fail-closed.
    trigger_invoke(&rt, user);
    std::thread::sleep(Duration::from_millis(600));

    // Respawn from disk: the factory reopens the same WAL directory and
    // `on_start` replays snapshot + tail, then peer retransmission
    // delivers the op issued while the process was dead.
    rt.restart(manager_ids[0]).expect("restart");
    std::thread::sleep(Duration::from_millis(800));
    trigger_invoke(&rt, user);
    std::thread::sleep(Duration::from_millis(500));

    assert_eq!(rt.metrics().counter("rt.node_killed"), 1);
    assert_eq!(rt.metrics().counter("rt.node_restarted"), 1);
    let nodes = rt.shutdown_nodes();
    let m0 = nodes[0].as_any().downcast_ref::<ManagerNode>().expect("manager");
    assert!(!m0.is_recovering(), "restarted manager must be serving");
    assert_eq!(m0.stats().recovered_from_disk, 1, "respawn must replay the WAL");
    assert!(
        m0.acl_has(AppId(0), UserId(2), Right::Use),
        "state acked before the kill must come back from disk"
    );
    assert!(
        m0.acl_has(AppId(0), UserId(2), Right::Manage),
        "the mid-kill update's retry must converge after the restart"
    );
    let user = nodes[user.index()].as_any().downcast_ref::<UserAgent>().expect("user");
    let stats = user.stats();
    assert_eq!(stats.unavailable, 1, "outage check must fail closed: {stats:?}");
    assert_eq!(stats.allowed, 1, "post-restart check must serve: {stats:?}");

    // The live trace, replayed through the campaign oracle: bounded
    // revocation, quorum hygiene, and durability (I5) all hold — the
    // disk recovery claim must account for every durable slot.
    let mut oracle = InvariantOracle::new(&policy, SimDuration::from_millis(500));
    traces.replay_into(&mut oracle);
    assert!(oracle.stats().allows >= 1, "the oracle must have seen real evidence");
    assert!(
        oracle.is_clean(),
        "live kill/restart must not violate invariants: {:?}",
        oracle.violations()
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// The sharded plane on real threads, through the driver `wanacl chaos`
/// runs: a 2-tenant x 2-shard campaign roster (eight managers on WALs,
/// three directory replicas) installed on the pool, one rebalance from
/// the shared campaign schedule, and the kill/restart + crash/recover
/// of manager 0 — a genesis owner of the moved shard. The campaign
/// oracle, armed with every published map version, must come back
/// clean on I1-I9 with the handoff and its installs counted.
#[test]
fn live_sharded_roster_rebalances_and_survives_manager_zero_kill() {
    let config = CampaignConfig {
        seed: 5,
        users: 4,
        tenants: 2,
        shards_per_tenant: 2,
        ns_replicas: 3,
        horizon: SimDuration::from_secs(4),
        policy: live_policy(2).build(),
        ..CampaignConfig::default()
    };
    let plan = NemesisPlan::builder(SimTime::ZERO + config.horizon)
        .shard_rebalance(0, SimTime::ZERO + SimDuration::from_secs(1))
        .build();
    let (report, live) = run_live_campaign(&config, Some(&plan), 0).expect("runtime starts");
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(live.failures.is_empty(), "{:?}", live.failures);
    let stats = report.oracle_stats;
    assert!(stats.shard_handoffs >= 1 && stats.shard_installs >= 1, "{stats:?}");
    assert!(stats.shard_allows >= 1 && stats.revokes >= 1, "no evidence: {stats:?}");
    assert_eq!(stats.untyped_notes, 0, "a live node sent the oracle text in place of an event");
    assert!(report.user_stats.allowed >= 1, "{:?}", report.user_stats);
    for step in ["handoff kickoff", "kill n0", "restart n0", "crash n0", "recover n0"] {
        assert!(
            live.lifecycle.iter().any(|l| l.starts_with(step) && !l.contains("FAILED")),
            "missing `{step}` in {:?}",
            live.lifecycle
        );
    }
}
