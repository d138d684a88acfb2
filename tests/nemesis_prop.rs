//! Nemesis campaigns as a property: for *any* randomly sampled
//! adversarial schedule — message loss, duplication, delay spikes,
//! symmetric/asymmetric/flapping partitions, crash–recovery storms,
//! name-service (one-replica directory) faults, drifting clocks — the
//! protocol never allows a request for a right whose revocation
//! stabilized more than `Te` earlier, and every other oracle invariant
//! (quorum intersection, cache expiry, freeze safety) holds too.
//!
//! The companion tests prove the harness has teeth: a deliberately
//! planted bug (one host's cache stops expiring) *is* caught, and the
//! greedy shrinker returns a no-larger plan that still fails.

use proptest::prelude::*;

use wanacl::core::campaign::{
    run_campaign, run_campaigns_parallel, run_with_plan, shrink_plan, CampaignConfig, InjectedBug,
};
use wanacl::prelude::*;

/// `ns_replicas` is 0 (static manager lists) or 1 (the paper's single
/// name service, exposed to the directory faults: crashes of the sole
/// replica, forged answers).
fn config(seed: u64, ns_replicas: usize, intensity: f64) -> CampaignConfig {
    CampaignConfig {
        seed,
        horizon: SimDuration::from_secs(6),
        ns_replicas,
        ns_faults: ns_replicas > 0,
        intensity,
        ..CampaignConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Acceptance: random-seed campaigns over the unmodified protocol
    /// never violate an invariant. Together with the fixed sweep below,
    /// well over 100 distinct seeds run per suite execution.
    #[test]
    fn random_campaigns_never_violate_invariants(
        seed in any::<u64>(),
        ns_replicas in 0usize..=1,
        intensity in 0.5f64..2.0,
    ) {
        let report = run_campaign(&config(seed, ns_replicas, intensity));
        prop_assert!(report.is_clean(), "counterexample:\n{}", report.render());
    }
}

/// Fixed-seed sweep: 100 consecutive seeds, no violations. Unlike the
/// proptest above this set never changes between runs, so CI failures
/// bisect cleanly. Runs on the parallel executor (one worker per core);
/// every seed's report is bit-identical to a sequential run.
#[test]
fn hundred_seed_sweep_is_clean() {
    let configs: Vec<CampaignConfig> =
        (0..100u64).map(|seed| config(seed, usize::from(seed % 3 == 0), 1.0)).collect();
    let reports = run_campaigns_parallel(&configs, 0);
    let mut evidence = 0u64;
    for (config, report) in configs.iter().zip(&reports) {
        assert!(report.is_clean(), "seed {}:\n{}", config.seed, report.render());
        evidence += report.oracle_stats.allows;
    }
    assert!(evidence > 1_000, "sweep checked too few allows: {evidence}");
}

/// The parallel executor is an optimization, not a semantics change:
/// over seeds 0..32 it must produce byte-identical reports — same
/// violations, same oracle and user stats, same audit digests — as the
/// sequential path, at every job count.
#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let configs: Vec<CampaignConfig> =
        (0..32u64).map(|seed| config(seed, usize::from(seed % 3 == 0), 1.0)).collect();
    let sequential: Vec<_> = configs.iter().map(run_campaign).collect();
    for jobs in [2, 4, 0] {
        let parallel = run_campaigns_parallel(&configs, jobs);
        assert_eq!(parallel.len(), sequential.len());
        for (seq, par) in sequential.iter().zip(&parallel) {
            assert_eq!(par.seed, seq.seed);
            assert_eq!(par.plan, seq.plan, "seed {}: plans diverged (jobs={jobs})", seq.seed);
            assert_eq!(
                par.violations, seq.violations,
                "seed {}: violations diverged (jobs={jobs})",
                seq.seed
            );
            assert_eq!(par.oracle_stats, seq.oracle_stats, "seed {} (jobs={jobs})", seq.seed);
            assert_eq!(par.user_stats, seq.user_stats, "seed {} (jobs={jobs})", seq.seed);
            assert_eq!(
                par.audit_digest, seq.audit_digest,
                "seed {}: audit trace diverged (jobs={jobs})",
                seq.seed
            );
        }
    }
}

/// The planted cache-expiry bug still fires when campaigns run on the
/// parallel executor, and on the same seeds as sequentially.
#[test]
fn injected_bug_is_caught_under_parallel_executor() {
    let configs: Vec<CampaignConfig> = (0..30u64)
        .map(|seed| CampaignConfig {
            inject_bug: Some(InjectedBug::IgnoreCacheExpiry { host_index: 0 }),
            ..config(seed, 0, 1.0)
        })
        .collect();
    let reports = run_campaigns_parallel(&configs, 0);
    let parallel_dirty: Vec<u64> =
        reports.iter().filter(|r| !r.is_clean()).map(|r| r.seed).collect();
    assert!(!parallel_dirty.is_empty(), "no seed in 0..30 exposed the planted bug in parallel");
    let sequential_dirty: Vec<u64> = configs
        .iter()
        .map(run_campaign)
        .filter(|r| !r.is_clean())
        .map(|r| r.seed)
        .collect();
    assert_eq!(parallel_dirty, sequential_dirty, "detector seeds must match sequential");
}

/// The oracle must catch the planted ignore-expiry bug, and the shrunk
/// plan must still reproduce it without growing.
#[test]
fn injected_bug_is_caught_with_shrunk_counterexample() {
    let mut caught = None;
    for seed in 0..30u64 {
        let cfg = CampaignConfig {
            inject_bug: Some(InjectedBug::IgnoreCacheExpiry { host_index: 0 }),
            ..config(seed, 0, 1.0)
        };
        let report = run_campaign(&cfg);
        if !report.is_clean() {
            caught = Some((cfg, report));
            break;
        }
    }
    let (cfg, report) = caught.expect("no seed in 0..30 exposed the planted bug");
    let (small, small_report) = shrink_plan(&cfg, &report.plan);
    assert!(!small_report.is_clean(), "shrunk plan must still fail");
    assert!(small.len() <= report.plan.len(), "shrinker must never grow the plan");
    // The shrunk counterexample replays: same plan, same verdict.
    let replay = run_with_plan(&cfg, &small);
    assert_eq!(replay.violations, small_report.violations, "replay must be exact");
}
