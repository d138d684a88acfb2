//! Sharded multi-tenant properties: shard routing, online rebalance
//! safety (I9), tenant isolation (I8), and the traffic-independence
//! guarantee — an unrelated tenant's ACL growing 10x must not change
//! per-check quorum traffic.

use wanacl::core::types::user_bucket;
use wanacl::prelude::*;
use wanacl::sim::time::{SimDuration, SimTime};
use wanacl::sim::trace::TraceEvent;

/// A 2-tenant, 2-shards-per-tenant world: 8 managers, 3 replicas.
fn sharded_world(seed: u64) -> Deployment {
    Scenario::builder(seed)
        .tenants(2)
        .shards_per_tenant(2)
        .users(4)
        .hosts(2)
        .all_users_granted()
        .with_replicated_directory(3, 2, SimDuration::from_secs(5))
        .policy(
            Policy::builder(2)
                .revocation_bound(SimDuration::from_secs(2))
                .query_timeout(SimDuration::from_millis(500))
                .max_attempts(3)
                .build(),
        )
        .workload(SimDuration::from_millis(400))
        .build()
}

#[test]
fn sharded_world_serves_all_tenants() {
    let mut d = sharded_world(7);
    assert_eq!(d.managers.len(), 8);
    d.run_for(SimDuration::from_secs(30));
    let stats = d.aggregate_user_stats();
    assert!(stats.allowed > 0, "sharded checks must succeed: {stats:?}");
    assert_eq!(stats.denied, 0, "granted users must never be denied: {stats:?}");
    // Every user agent individually made progress (both tenants served).
    for i in 0..4 {
        assert!(d.user_agent(i).stats().allowed > 0, "user {i} starved");
    }
}

#[test]
fn rebalance_moves_shard_without_losing_rights() {
    let mut d = sharded_world(11);
    // Move shard 0 (tenant 0, buckets 0..=127, managers {0,1}) onto the
    // managers of shard 1 ({2,3}) — ring-next, disjoint from the owners.
    let targets = d.shard_owners(ShardId(1));
    assert!(d.rebalance_shard_at(SimTime::ZERO + SimDuration::from_secs(10), ShardId(0), targets));
    d.run_for(SimDuration::from_secs(40));

    // Sources released, targets active.
    assert!(d.manager(0).shard_released(ShardId(0)), "source 0 must release");
    assert!(d.manager(1).shard_released(ShardId(0)), "source 1 must release");
    assert!(d.manager(2).shard_active(ShardId(0)), "target 2 must activate");
    assert!(d.manager(3).shard_active(ShardId(0)), "target 3 must activate");

    // Checks keep succeeding for every user after the move.
    let before = d.aggregate_user_stats();
    d.run_for(SimDuration::from_secs(10));
    let after = d.aggregate_user_stats();
    assert!(after.allowed > before.allowed, "checks must keep flowing post-rebalance");
    assert_eq!(after.denied, 0, "no user loses a granted right across the move: {after:?}");

    // Hosts installed the bumped map: shard 0's entry now points at the
    // new owners.
    let map = d.host(0).shard_map(AppId(0));
    let entry = map.iter().find(|e| e.shard == ShardId(0)).expect("shard 0 mapped");
    assert_eq!(entry.managers, vec![d.managers[2], d.managers[3]]);
}

#[test]
fn rebalance_preserves_revocations_issued_before_the_move() {
    let mut d = sharded_world(13);
    // Find a user of tenant 0 living in shard 0 (bucket <= 127).
    let victim = d
        .users
        .iter()
        .map(|&(u, _)| u)
        .find(|u| (u.0 - 1) % 2 == 0 && user_bucket(*u) <= 127)
        .expect("some tenant-0 user hashes into shard 0");
    d.run_for(SimDuration::from_secs(5));
    d.admin_op(AclOp::Revoke { app: AppId(0), user: victim, right: Right::Use });
    // Rebalance AFTER the revoke: the tombstone must survive the handoff.
    let targets = d.shard_owners(ShardId(1));
    assert!(d.rebalance_shard_at(SimTime::ZERO + SimDuration::from_secs(10), ShardId(0), targets));
    d.run_for(SimDuration::from_secs(30));
    // The new owners must hold the revocation (I9: no revoke lost).
    for m in [2usize, 3] {
        assert!(
            !d.manager(m).acl_has(AppId(0), victim, Right::Use),
            "manager {m} resurrected a revoked right across the handoff"
        );
    }
}

/// Campaign shape shared by the sweep tests below: 2 tenants x 2
/// shards, 8 managers, replicated directory.
fn sweep_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        tenants: 2,
        shards_per_tenant: 2,
        users: 4,
        ns_replicas: 3,
        horizon: SimDuration::from_secs(6),
        ..CampaignConfig::default()
    }
}

/// 100-seed sweep: every plan rebalances one shard and kills one of its
/// source managers mid-handoff. I9 (no grant/revoke lost or
/// double-applied across the move) must hold on every seed, the
/// sequential and parallel executors must agree bit-for-bit, and any
/// failure shrinks to a replayable counterexample before panicking.
#[test]
fn source_kill_mid_handoff_sweep_holds_i9_on_both_executors() {
    let work: Vec<(CampaignConfig, NemesisPlan)> = (0..100u64)
        .map(|seed| {
            let config = sweep_config(seed);
            let shard = (seed % 4) as u32;
            // Alternate which of the shard's two source managers dies.
            let victim = NodeId::from_index(2 * shard as usize + (seed as usize / 4) % 2);
            let kickoff = SimTime::ZERO + SimDuration::from_millis(2_400);
            let plan = NemesisPlan::builder(SimTime::ZERO + SimDuration::from_secs(6))
                .shard_rebalance(shard, kickoff)
                .crash(
                    victim,
                    kickoff + SimDuration::from_millis(40),
                    SimDuration::from_millis(1_500),
                )
                .build();
            (config, plan)
        })
        .collect();

    let sequential = run_plans_parallel(&work, 1);
    let parallel = run_plans_parallel(&work, 4);
    assert_eq!(sequential.len(), 100);

    let mut installs_total = 0;
    for (i, (seq, par)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(seq.violations, par.violations, "seed {i}: executors disagree on violations");
        assert_eq!(seq.audit_digest, par.audit_digest, "seed {i}: audit digests diverge");
        assert_eq!(seq.oracle_stats, par.oracle_stats, "seed {i}: oracle stats diverge");
        assert_eq!(seq.metrics, par.metrics, "seed {i}: metrics diverge");
        installs_total += seq.oracle_stats.shard_installs;
        if !seq.is_clean() {
            // Deliver a replayable counterexample, not just a red X.
            let (config, plan) = &work[i];
            let (small, small_report) = shrink_plan(config, plan);
            panic!(
                "seed {} broke invariants under a source kill mid-handoff; \
                 shrunk to {} fault(s), replay with run_with_plan(seed={}): {:#?}",
                config.seed,
                small.len(),
                config.seed,
                small_report.violations,
            );
        }
    }
    // The kill schedule must not have starved the scenario: handoffs
    // still complete somewhere in the sweep.
    assert!(installs_total > 0, "no shard install completed across 100 seeds");
    // Rollups are --jobs invariant too.
    assert_eq!(rollup_metrics(&sequential), rollup_metrics(&parallel));
}

/// The handoff primary killed 10 ms after the kickoff, down for 3 s: its
/// co-source releases meanwhile, and the primary comes back with the
/// shard active and no coordination. The released source re-seeds it
/// with the kickoff beside its `ShardReleased`; the primary freezes
/// again, its new transfer (the writes it took while back) is installed
/// over its first, and the move completes — the run settles, I9 intact.
#[test]
fn a_primary_killed_after_the_kickoff_is_re_seeded_and_the_move_completes() {
    let config = sweep_config(2730);
    let kickoff = SimTime::ZERO + SimDuration::from_millis(2_400);
    let plan = NemesisPlan::builder(SimTime::ZERO + SimDuration::from_secs(6))
        .shard_rebalance(2, kickoff)
        .crash(NodeId::from_index(4), kickoff + SimDuration::from_millis(10), SimDuration::from_millis(3_010))
        .build();
    let report = run_with_plan(&config, &plan);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.oracle_stats.shard_installs >= 4, "both sources' transfers reached both targets");
}

/// The planted lost-handoff bug (target drops the tail op of a shard
/// transfer) must be caught, shrink to a smaller still-failing plan,
/// and replay bit-identically on both executors.
#[test]
fn planted_lost_handoff_shrinks_to_a_replayable_counterexample() {
    let mut caught = None;
    for seed in 0..20u64 {
        let config = CampaignConfig {
            inject_bug: Some(InjectedBug::LostHandoff { manager_index: 0 }),
            ..sweep_config(seed)
        };
        let report = run_campaign(&config);
        if !report.is_clean() {
            caught = Some((config, report));
            break;
        }
    }
    let (config, report) = caught.expect("no seed in 0..20 tripped the planted bug");
    assert!(
        report.violations.iter().any(|v| v.kind == InvariantKind::RebalanceSafety),
        "the planted bug must surface as an I9 rebalance-safety violation: {:?}",
        report.violations,
    );

    let (small, small_report) = shrink_plan(&config, &report.plan);
    assert!(small.len() <= report.plan.len(), "shrinking must never grow the plan");
    assert!(!small_report.is_clean(), "the shrunk plan must still reproduce the violation");

    // Replay the shrunk counterexample on both executors.
    let replay_seq = run_with_plan(&config, &small);
    let replay_par = run_plans_parallel(&[(config.clone(), small.clone())], 2);
    assert_eq!(replay_seq.violations, small_report.violations, "sequential replay diverged");
    assert_eq!(replay_par[0].violations, small_report.violations, "parallel replay diverged");
    assert_eq!(replay_seq.audit_digest, replay_par[0].audit_digest);
    assert!(replay_seq.violations.iter().any(|v| v.kind == InvariantKind::RebalanceSafety));
}

/// Growing an unrelated tenant's ACL 10x must not change per-check
/// quorum traffic at all: same message counts, same Query/QueryReply
/// payload bytes. This is the sharding payoff — quorum traffic per
/// operation is independent of total ACL size.
#[test]
fn unrelated_tenant_acl_growth_keeps_check_traffic_flat() {
    let build = |pad: usize| -> Deployment {
        // Workload users 1..=4 (tenants alternate); the pad users are
        // extra tenant-1 grants with no agents behind them.
        let mut rights: Vec<(UserId, Right)> = (1..=4u64).map(|u| (UserId(u), Right::Use)).collect();
        for i in 0..pad as u64 {
            rights.push((UserId(6 + 2 * i), Right::Use));
        }
        Scenario::builder(5)
            .tenants(2)
            .shards_per_tenant(2)
            .users(4)
            .hosts(2)
            .initial_rights(rights)
            .with_replicated_directory(3, 2, SimDuration::from_secs(5))
            .policy(
                Policy::builder(2)
                    .revocation_bound(SimDuration::from_secs(2))
                    .query_timeout(SimDuration::from_millis(500))
                    .max_attempts(3)
                    .build(),
            )
            .workload(SimDuration::from_millis(400))
            .build()
    };

    let mut small = build(4);
    let mut big = build(40); // the unrelated tenant's ACL grows 10x
    // Sanity: the padding really landed on tenant 1's managers only.
    assert!(big.manager(0).acl_has(AppId(1), UserId(6 + 2 * 39), Right::Use));
    assert!(!big.manager(0).acl_has(AppId(0), UserId(6 + 2 * 39), Right::Use));

    small.world.enable_trace();
    big.world.enable_trace();
    small.run_for(SimDuration::from_secs(20));
    big.run_for(SimDuration::from_secs(20));

    // Identical workload, identical traffic: message COUNTS are flat.
    for key in ["host.invokes", "host.queries_sent", "host.allowed", "net.sent", "net.delivered"] {
        assert_eq!(
            small.world.metrics().counter(key),
            big.world.metrics().counter(key),
            "{key} must not grow with an unrelated tenant's ACL",
        );
    }

    // And the check-path PAYLOAD BYTES are flat too: Query/QueryReply
    // carry no ACL state, so their rendered size cannot depend on how
    // big any tenant's ACL is.
    let check_traffic = |d: &Deployment| -> (u64, u64, u64, u64) {
        let (mut queries, mut query_bytes, mut replies, mut reply_bytes) = (0u64, 0u64, 0u64, 0u64);
        for entry in d.world.trace().entries() {
            if let TraceEvent::Sent { desc, .. } = &entry.event {
                if desc.starts_with("Query {") {
                    queries += 1;
                    query_bytes += desc.len() as u64;
                } else if desc.starts_with("QueryReply {") {
                    replies += 1;
                    reply_bytes += desc.len() as u64;
                }
            }
        }
        (queries, query_bytes, replies, reply_bytes)
    };
    let small_traffic = check_traffic(&small);
    let big_traffic = check_traffic(&big);
    assert!(small_traffic.0 > 0, "the workload must actually issue quorum checks");
    assert_eq!(
        small_traffic, big_traffic,
        "per-check quorum message count and payload bytes must be independent of the \
         unrelated tenant's ACL size",
    );
}
