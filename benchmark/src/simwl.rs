//! The `sim_campaign` workload: nemesis campaigns on the deterministic
//! executor, one after another on one thread. The same protocol state
//! machines as the live workloads, plus the fault-injecting network,
//! simulated storage, audit-note strings and the invariant oracle, and no
//! runtime code at all — so it is the workload every runtime change must
//! leave alone, and its counts repeat exactly.

use std::time::Instant;

use wanacl_core::campaign::{run_campaign, CampaignConfig, CampaignReport};
use wanacl_sim::time::SimDuration;

use crate::machine;
use crate::stats::LogHist;

/// Campaign seeds per slice.
pub const SLICE_SEEDS: u64 = 4;

/// The campaign every seed runs: a replicated signed directory, disk and
/// directory faults on, one fault per five simulated seconds.
pub fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        managers: 3,
        hosts: 16,
        users: 32,
        horizon: SimDuration::from_secs(20),
        ns_replicas: 3,
        ns_faults: true,
        disk_faults: true,
        intensity: 1.0,
        ..CampaignConfig::default()
    }
}

/// First campaign seed of slice `slice` for benchmark seed `seed`.
pub fn slice_base(seed: u64, slice: u64) -> u64 {
    seed * 1_000_000 + slice * SLICE_SEEDS
}

/// What one slice of campaigns measured, before normalisation.
#[derive(Debug)]
pub struct SimSlice {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Simulated checks that got a definitive reply.
    pub checks: u64,
    /// Oracle violations.
    pub violations: u64,
    /// One sample per seed: its wall time divided by its checks, ns.
    pub cost_per_check: LogHist,
    /// One sample per seed: its wall time, ns.
    pub seed_time: LogHist,
    pub digests: Vec<u64>,
    /// The first unclean report, rendered, if any.
    pub offence: Option<String>,
    pub events: u64,
    pub messages: u64,
    pub notes: u64,
}

/// Checks a campaign completed: every invoke that got an answer.
pub fn checks_of(report: &CampaignReport) -> u64 {
    report.user_stats.replied()
}

/// Runs the [`SLICE_SEEDS`] campaigns starting at seed `base`.
pub fn run_slice(base: u64) -> SimSlice {
    let cpu_before = machine::cpu_time_ns();
    let started = Instant::now();
    let mut slice = SimSlice {
        wall_s: 0.0,
        cpu_s: 0.0,
        checks: 0,
        violations: 0,
        cost_per_check: LogHist::default(),
        seed_time: LogHist::default(),
        digests: Vec::with_capacity(SLICE_SEEDS as usize),
        offence: None,
        events: 0,
        messages: 0,
        notes: 0,
    };
    for seed in base..base + SLICE_SEEDS {
        let seed_started = Instant::now();
        let report = std::hint::black_box(run_campaign(&campaign(seed)));
        let ns = seed_started.elapsed().as_nanos() as u64;
        let checks = checks_of(&report);
        slice.checks += checks;
        slice.seed_time.record(ns);
        slice.cost_per_check.record(ns / checks.max(1));
        slice.violations += report.violations.len() as u64;
        if !report.is_clean() && slice.offence.is_none() {
            slice.offence = Some(report.render());
        }
        slice.digests.push(report.audit_digest);
        slice.events += report.metrics.counter("net.delivered");
        slice.messages += report.metrics.counter("net.sent");
        let o = &report.oracle_stats;
        slice.notes += o.allows + o.revokes + o.cache_stores + o.grants + o.durable_ops;
    }
    slice.wall_s = started.elapsed().as_secs_f64();
    slice.cpu_s = (machine::cpu_time_ns() - cpu_before) as f64 / 1e9;
    slice
}
