//! The replicated directory as a property: hosts learn the manager set
//! through signed, versioned records read from a quorum of directory
//! replicas, so no single stale, partitioned, or outright malicious
//! replica may ever make a host act on a manager set no legitimate
//! writer published (I7), or ride a superseded record materially past
//! its TTL once the newer version reached a write quorum (I6).
//!
//! The planted trust-unsigned bug proves the oracle bites: a host that
//! skips signature verification swallows a malicious replica's forged
//! record and is reported as a directory-integrity violation with a
//! replayable — and shrinkable — `(seed, plan, event index)`
//! coordinate.

use proptest::prelude::*;

use wanacl::core::campaign::{
    campaign_scenario, rollup_metrics, run_campaign, run_campaigns_parallel, run_plans_parallel,
    run_with_plan, shrink_plan, CampaignConfig, InjectedBug,
};
use wanacl::prelude::*;
use wanacl::sim::nemesis::NemesisPlan;
use wanacl::sim::rng::SimRng;
use wanacl::sim::time::SimTime;

fn directory_config(seed: u64, intensity: f64) -> CampaignConfig {
    CampaignConfig {
        seed,
        horizon: SimDuration::from_secs(6),
        intensity,
        ns_replicas: 3,
        ns_faults: true,
        ..CampaignConfig::default()
    }
}

/// A scripted worst case for `seed`: replica 0 stops anti-entropy for
/// the whole run, replica 1 forges records inside a seed-derived
/// window, and a split-brain cut isolates replica 0 from its peers over
/// that same window — all while the campaign republishes version 2 into
/// replica 0 mid-run.
fn directory_churn_plan(config: &CampaignConfig) -> NemesisPlan {
    let r = &campaign_scenario(config).roster().layout.ns_replicas;
    assert_eq!(r.len(), 3, "plan is written for three replicas");
    let mut rng = SimRng::seed_from(config.seed ^ 0x6e73_6469); // "nsdi"
    let start = SimTime::ZERO + SimDuration::from_secs_f64(rng.uniform(1.0, 2.5));
    let end = start + SimDuration::from_secs_f64(rng.uniform(1.0, 3.0));
    NemesisPlan::builder(SimTime::ZERO + config.horizon)
        .stale_replica(r[0])
        .malicious_replica(r[1], start, end)
        .directory_split(vec![r[0]], vec![r[1], r[2]], start, end)
        .build()
}

/// A small deployment with a 3-replica directory (read quorum 2) and a
/// 2-second record TTL, for direct churn probes outside the campaign
/// harness.
fn directory_deployment(seed: u64) -> Deployment {
    Scenario::builder(seed)
        .managers(2)
        .hosts(1)
        .users(1)
        .policy(Policy::builder(1).build())
        .all_users_granted()
        .with_replicated_directory(3, 2, SimDuration::from_secs(2))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 30, ..ProptestConfig::default() })]

    /// Random-seed campaigns whose fault mix includes stale replicas,
    /// directory split-brain, malicious replicas, and replica
    /// crash-restarts never violate any invariant — directory freshness
    /// (I6) and integrity (I7) included.
    #[test]
    fn random_directory_fault_campaigns_never_violate_invariants(
        seed in any::<u64>(),
        intensity in 0.5f64..2.0,
    ) {
        let report = run_campaign(&directory_config(seed, intensity));
        prop_assert!(report.is_clean(), "counterexample:\n{}", report.render());
    }
}

/// After the first quorum read installs the record, the host keeps
/// re-querying on TTL expiry: replica lookup counts keep growing long
/// after the directory has gone quiet.
#[test]
fn hosts_requery_the_directory_on_ttl_expiry() {
    let mut d = directory_deployment(11);
    d.run_for(SimDuration::from_secs(1));
    assert_eq!(d.host(0).directory_version(AppId(0)), 1, "first quorum read must install v1");
    let early: u64 = (0..3).map(|i| d.ns_replica(i).lookups()).sum();
    assert!(early >= 2, "the first read round queries a quorum, saw {early}");

    // Nothing changes in the directory; only TTL expiry drives reads.
    d.run_for(SimDuration::from_secs(6));
    let late: u64 = (0..3).map(|i| d.ns_replica(i).lookups()).sum();
    assert!(
        late >= early + 4,
        "TTL expiry (2 s records over 6 s) must trigger re-queries: {early} -> {late}"
    );
    // The workload still flows on the refreshed record.
    d.invoke_from(0);
    d.run_for(SimDuration::from_secs(2));
    assert_eq!(d.user_agent(0).stats().allowed, 1);
}

/// Replacing the manager set mid-flight: a v2 record published to one
/// replica spreads by anti-entropy, every replica converges, and the
/// host both installs v2 and keeps serving the workload across the
/// switch.
#[test]
fn manager_set_replacement_mid_flight_converges_and_keeps_serving() {
    let mut d = directory_deployment(12);
    d.run_for(SimDuration::from_secs(1));
    d.invoke_from(0);
    d.run_for(SimDuration::from_secs(1));
    assert_eq!(d.user_agent(0).stats().allowed, 1, "pre-churn request must pass");
    assert_eq!(d.host(0).manager_view(AppId(0)).len(), 2);

    // Shrink the manager set to manager 0 only, as version 2, published
    // to a single replica.
    let new_set = vec![d.managers[0]];
    assert!(d.republish_managers(1, 2, new_set.clone()));
    d.run_for(SimDuration::from_secs(4));

    for i in 0..3 {
        assert_eq!(d.ns_replica(i).version_of(AppId(0)), 2, "replica {i} must converge to v2");
        assert_eq!(d.ns_replica(i).managers(AppId(0)), &new_set[..]);
    }
    assert_eq!(d.host(0).directory_version(AppId(0)), 2, "host must install v2 on refresh");
    assert_eq!(d.host(0).manager_view(AppId(0)), &new_set[..]);

    d.invoke_from(0);
    d.run_for(SimDuration::from_secs(2));
    assert_eq!(d.user_agent(0).stats().allowed, 2, "post-churn request must pass");
}

/// Fixed-seed sweep: 100 consecutive seeds, randomized directory-aware
/// fault plans (stale replicas, split-brain, malicious replicas,
/// replica crashes layered over the classic net faults), zero
/// violations. The set never changes between runs, so CI failures
/// bisect cleanly.
#[test]
fn hundred_seed_directory_fault_sweep_is_clean() {
    let configs: Vec<CampaignConfig> =
        (0..100u64).map(|seed| directory_config(seed, 1.5)).collect();
    let reports = run_campaigns_parallel(&configs, 0);
    let (mut installs, mut publishes) = (0u64, 0u64);
    for report in &reports {
        assert!(report.is_clean(), "seed {}:\n{}", report.seed, report.render());
        installs += report.oracle_stats.ns_installs;
        publishes += report.oracle_stats.ns_publishes;
    }
    assert!(installs > 100, "sweep completed too few quorum reads: {installs}");
    assert!(publishes > 100, "sweep published too few records: {publishes}");
    let rollup = rollup_metrics(&reports);
    assert!(rollup.counter("ns.lookups") > 0, "replicas must have served lookups");
    assert!(rollup.counter("ns.read_rounds") > 0, "hosts must have run read rounds");
}

/// The acceptance scenario at scale: for 100 fixed seeds the scripted
/// stale + malicious + split-brain plan runs against a mid-run
/// manager-set republish, and every host either installs what a
/// legitimate writer signed or degrades gracefully — never a forged or
/// materially-stale record.
#[test]
fn scripted_stale_malicious_split_churn_is_clean_across_100_seeds() {
    let work: Vec<(CampaignConfig, NemesisPlan)> = (0..100u64)
        .map(|seed| {
            let config = directory_config(seed, 0.0);
            let plan = directory_churn_plan(&config);
            (config, plan)
        })
        .collect();
    let reports = run_plans_parallel(&work, 0);
    let mut installs = 0u64;
    for ((config, _), report) in work.iter().zip(&reports) {
        assert!(report.is_clean(), "seed {}:\n{}", config.seed, report.render());
        installs += report.oracle_stats.ns_installs;
    }
    assert!(installs > 100, "churn sweep completed too few quorum reads: {installs}");
}

/// The harness has teeth: a host that trusts unsigned directory records
/// swallows a malicious replica's forgery, the integrity invariant
/// fires, the counterexample replays exactly, and the shrinker reduces
/// the plan while keeping it failing.
#[test]
fn planted_trust_unsigned_bug_is_caught_replayable_and_shrinkable() {
    let mut caught = None;
    for seed in 0..20u64 {
        let config = CampaignConfig {
            inject_bug: Some(InjectedBug::NsTrustUnsigned { host_index: 0 }),
            ..directory_config(seed, 1.0)
        };
        let plan = wanacl::core::campaign::sample_plan(&config);
        let report = run_with_plan(&config, &plan);
        if !report.is_clean() {
            caught = Some((config, plan, report));
            break;
        }
    }
    let (config, plan, report) = caught.expect("no seed in 0..20 tripped the trust-unsigned bug");
    let violation = report
        .violations
        .iter()
        .find(|v| v.kind == InvariantKind::DirectoryIntegrity)
        .expect("trusting unsigned records must surface as a directory-integrity violation");
    assert!(violation.event_index > 0);

    // Replay: the (seed, plan, event index) coordinate is deterministic.
    let replay = run_with_plan(&config, &plan);
    assert_eq!(replay.violations, report.violations, "counterexample must replay exactly");

    // Shrink: fewer (or equal) faults, still failing, still the same kind.
    let (small_plan, small_report) = shrink_plan(&config, &plan);
    assert!(small_plan.len() <= plan.len());
    assert!(!small_report.is_clean(), "shrunk plan must still fail");
    assert!(
        small_report.violations.iter().any(|v| v.kind == InvariantKind::DirectoryIntegrity),
        "shrunk counterexample must keep the integrity violation"
    );
}

/// The trust-unsigned detector also fires on the parallel executor,
/// with the exact violations the sequential path reports for every
/// seed.
#[test]
fn planted_trust_unsigned_bug_is_caught_under_parallel_executor() {
    let work: Vec<(CampaignConfig, NemesisPlan)> = (0..20u64)
        .map(|seed| {
            let config = CampaignConfig {
                inject_bug: Some(InjectedBug::NsTrustUnsigned { host_index: 0 }),
                ..directory_config(seed, 1.0)
            };
            let plan = wanacl::core::campaign::sample_plan(&config);
            (config, plan)
        })
        .collect();
    let reports = run_plans_parallel(&work, 0);
    let dirty: Vec<&_> = reports.iter().filter(|r| !r.is_clean()).collect();
    assert!(!dirty.is_empty(), "no seed in 0..20 tripped the trust-unsigned bug in parallel");
    assert!(
        dirty
            .iter()
            .any(|r| r.violations.iter().any(|v| v.kind == InvariantKind::DirectoryIntegrity)),
        "trusting unsigned records must surface as a directory-integrity violation"
    );
    for ((config, plan), report) in work.iter().zip(&reports) {
        let sequential = run_with_plan(config, plan);
        assert_eq!(
            report.violations, sequential.violations,
            "seed {}: parallel and sequential verdicts must match",
            config.seed
        );
    }
}
