//! Durability as a property: a manager's ack is a promise. Once an
//! update was observed `Stable`, a crash — even a correlated
//! crash-restart of *every* manager at once, with torn-tail and
//! failed-fsync disk faults layered on — must not lose it: local
//! snapshot + WAL replay has to reproduce the state before the manager
//! serves again, and the bounded-revocation invariant must keep holding
//! across the restart.
//!
//! The planted drop-the-WAL bug proves the oracle bites: a manager
//! whose storage "reads back empty" is reported as a durability
//! violation with a replayable `(seed, plan, event index)` coordinate.

use proptest::prelude::*;

use wanacl::core::campaign::{
    campaign_scenario, run_campaign, run_campaigns_parallel, run_plans_parallel, run_with_plan,
    CampaignConfig, InjectedBug,
};
use wanacl::prelude::*;
use wanacl::sim::metrics::MetricId;
use wanacl::sim::nemesis::NemesisPlan;
use wanacl::sim::rng::SimRng;
use wanacl::sim::time::SimTime;

fn disk_config(seed: u64, intensity: f64) -> CampaignConfig {
    CampaignConfig {
        seed,
        horizon: SimDuration::from_secs(6),
        intensity,
        disk_faults: true,
        ..CampaignConfig::default()
    }
}

/// A scripted worst case for `seed`: every manager's disk degrades with
/// seed-derived probabilities, and the whole manager set crash-restarts
/// together mid-run.
fn full_restart_plan(config: &CampaignConfig) -> NemesisPlan {
    let managers = campaign_scenario(config).roster().layout.managers;
    let mut rng = SimRng::seed_from(config.seed ^ 0x6475_7261); // "dura"
    let mut b = NemesisPlan::builder(SimTime::ZERO + config.horizon);
    for &m in &managers {
        b = b.disk_fault(m, rng.uniform(0.05, 0.35), rng.uniform(0.3, 1.0));
    }
    let at = SimTime::ZERO + SimDuration::from_secs_f64(rng.uniform(2.0, 4.0));
    let down = SimDuration::from_secs_f64(rng.uniform(0.2, 0.8));
    b.cluster_restart(managers, at, down).build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 30, ..ProptestConfig::default() })]

    /// Random-seed campaigns whose fault mix includes disk faults and
    /// correlated cluster restarts never violate any invariant —
    /// durability (I5) included.
    #[test]
    fn random_disk_fault_campaigns_never_violate_invariants(
        seed in any::<u64>(),
        intensity in 0.5f64..2.0,
    ) {
        let report = run_campaign(&disk_config(seed, intensity));
        prop_assert!(report.is_clean(), "counterexample:\n{}", report.render());
    }
}

/// Fixed-seed sweep: 100 consecutive seeds, randomized storage-aware
/// fault plans, zero violations. The set never changes between runs, so
/// CI failures bisect cleanly.
#[test]
fn hundred_seed_disk_fault_sweep_is_clean() {
    let configs: Vec<CampaignConfig> = (0..100u64).map(|seed| disk_config(seed, 1.5)).collect();
    let reports = run_campaigns_parallel(&configs, 0);
    let mut durable_evidence = 0u64;
    let mut recoveries = 0u64;
    for report in &reports {
        assert!(report.is_clean(), "seed {}:\n{}", report.seed, report.render());
        durable_evidence += report.metrics.counter(MetricId::MGR_WAL_APPENDS);
        recoveries += report.metrics.counter(MetricId::MGR_RECOVERED_FROM_DISK);
    }
    assert!(durable_evidence > 100, "sweep made too few ops durable: {durable_evidence}");
    assert!(recoveries > 0, "no seed exercised disk recovery");
}

/// The acceptance scenario at scale: for 100 fixed seeds, *all* managers
/// crash-restart at once under seed-derived torn-write / failed-fsync
/// disk faults, and every previously-stable grant and revoke survives
/// (the oracle's durability and bounded-revocation invariants both stay
/// green; every manager recovers from its own disk, not a peer).
#[test]
fn full_cluster_restart_preserves_stable_state_across_100_seeds() {
    let work: Vec<(CampaignConfig, NemesisPlan)> = (0..100u64)
        .map(|seed| {
            let config = disk_config(seed, 0.0);
            let plan = full_restart_plan(&config);
            (config, plan)
        })
        .collect();
    let reports = run_plans_parallel(&work, 0);
    for ((config, _), report) in work.iter().zip(&reports) {
        let seed = config.seed;
        assert!(report.is_clean(), "seed {seed}:\n{}", report.render());
        assert_eq!(
            report.metrics.counter(MetricId::MGR_RECOVERED_FROM_DISK),
            config.managers as u64,
            "seed {seed}: every manager must recover from local storage\n{}",
            report.render()
        );
    }
}

/// The harness has teeth: a manager whose stable storage drops the WAL
/// on recovery is caught by the durability invariant, and the
/// counterexample replays — same seed, same plan, same event index.
#[test]
fn planted_drop_wal_bug_is_caught_with_replayable_counterexample() {
    let mut caught = None;
    for seed in 0..20u64 {
        let config = CampaignConfig {
            inject_bug: Some(InjectedBug::DropWal { manager_index: 0 }),
            ..disk_config(seed, 0.0)
        };
        let plan = full_restart_plan(&config);
        let report = run_with_plan(&config, &plan);
        if !report.is_clean() {
            caught = Some((config, plan, report));
            break;
        }
    }
    let (config, plan, report) = caught.expect("no seed in 0..20 tripped the drop-WAL bug");
    let violation = report
        .violations
        .iter()
        .find(|v| v.kind == InvariantKind::Durability)
        .expect("drop-WAL must be a durability violation");
    assert!(violation.event_index > 0);

    // Replay: the (seed, plan, event index) coordinate is deterministic.
    let replay = run_with_plan(&config, &plan);
    assert_eq!(replay.violations, report.violations, "counterexample must replay exactly");
}

/// The drop-WAL detector also fires on the parallel executor, with the
/// exact violations the sequential path reports for every seed.
#[test]
fn planted_drop_wal_bug_is_caught_under_parallel_executor() {
    let work: Vec<(CampaignConfig, NemesisPlan)> = (0..20u64)
        .map(|seed| {
            let config = CampaignConfig {
                inject_bug: Some(InjectedBug::DropWal { manager_index: 0 }),
                ..disk_config(seed, 0.0)
            };
            let plan = full_restart_plan(&config);
            (config, plan)
        })
        .collect();
    let reports = run_plans_parallel(&work, 0);
    let dirty: Vec<&_> = reports.iter().filter(|r| !r.is_clean()).collect();
    assert!(!dirty.is_empty(), "no seed in 0..20 tripped the drop-WAL bug in parallel");
    assert!(
        dirty.iter().any(|r| r.violations.iter().any(|v| v.kind == InvariantKind::Durability)),
        "drop-WAL must surface as a durability violation"
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
