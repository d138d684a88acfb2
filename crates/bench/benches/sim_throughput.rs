//! End-to-end simulator throughput: a 3-manager / 8-host world driven
//! through ~10k invokes, a single nemesis campaign, and the 32-seed
//! campaign sweep both sequentially and on the parallel executor. The
//! sweep pair is the headline number for the parallel-campaign work:
//! on an N-core box the parallel label should run close to N times
//! faster than the sequential one (identical reports either way).
//!
//! `BENCH_PROFILE=full` runs the full-size workloads; the default quick
//! profile shrinks horizons and seed counts so CI smoke runs stay under
//! a few seconds. Labels encode the profile, so a regression guard never
//! compares a quick run against a full baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use wanacl_analysis::empirical::{run_empirical, ScaleConfig};
use wanacl_core::campaign::{run_campaigns_parallel, CampaignConfig};
use wanacl_core::prelude::*;
use wanacl_sim::time::SimDuration;

fn full_profile() -> bool {
    std::env::var("BENCH_PROFILE").is_ok_and(|p| p == "full")
}

/// The reference world: 3 managers, 8 hosts, 8 users each invoking
/// every 50 ms of simulated time — 63 simulated seconds is ~10k
/// invokes.
fn world_sim_secs(full: bool) -> u64 {
    if full {
        63
    } else {
        8
    }
}

fn run_world(sim_secs: u64) -> Deployment {
    let policy = Policy::builder(2)
        .revocation_bound(SimDuration::from_secs(60))
        .query_timeout(SimDuration::from_millis(400))
        .max_attempts(3)
        .build();
    let mut d = Scenario::builder(42)
        .managers(3)
        .hosts(8)
        .users(8)
        .policy(policy)
        .all_users_granted()
        .workload(SimDuration::from_millis(50))
        .build();
    d.run_for(SimDuration::from_secs(sim_secs));
    d
}

fn bench_world_throughput(c: &mut Criterion) {
    let full = full_profile();
    let sim_secs = world_sim_secs(full);
    // One reference run so the ns/iter figure converts to events/sec.
    let d = run_world(sim_secs);
    let invokes = d.aggregate_user_stats().sent;
    let messages = d.world.metrics().counter("net.sent");
    println!(
        "sim_throughput/world_3m_8h[{}]: {invokes} invokes, {messages} messages per run",
        if full { "full" } else { "quick" }
    );
    let mut group = c.benchmark_group("sim_throughput");
    group.bench_function(format!("world_3m_8h_{invokes}_invokes"), |b| {
        b.iter(|| black_box(run_world(sim_secs).aggregate_user_stats().sent));
    });
    group.finish();
}

fn campaign_config(seed: u64, horizon_secs: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        horizon: SimDuration::from_secs(horizon_secs),
        ..CampaignConfig::default()
    }
}

fn bench_campaign_sweep(c: &mut Criterion) {
    let full = full_profile();
    let horizon = if full { 6 } else { 2 };
    let seeds: u64 = if full { 32 } else { 8 };
    let configs: Vec<CampaignConfig> =
        (0..seeds).map(|seed| campaign_config(seed, horizon)).collect();
    let mut group = c.benchmark_group("sim_throughput");
    group.bench_function(format!("single_campaign_h{horizon}"), |b| {
        b.iter(|| black_box(run_campaigns_parallel(&configs[..1], 1)));
    });
    group.bench_function(format!("sweep{seeds}_h{horizon}_sequential"), |b| {
        b.iter(|| black_box(run_campaigns_parallel(&configs, 1)));
    });
    group.bench_function(format!("sweep{seeds}_h{horizon}_parallel"), |b| {
        b.iter(|| black_box(run_campaigns_parallel(&configs, 0)));
    });
    group.finish();
}

/// The planet-scale probe world: 10,000 hosts and 10 managers checking
/// across the regional WAN under EpochIid partitions — the workload the
/// calendar queue and SoA node arena exist for.
fn scale_cfg(full: bool) -> ScaleConfig {
    ScaleConfig {
        horizon: SimDuration::from_secs(if full { 600 } else { 60 }),
        checks_per_host: if full { 5.0 } else { 0.5 },
        revoke_ops: if full { 2_000 } else { 200 },
        ..ScaleConfig::default()
    }
}

fn bench_world_10k(c: &mut Criterion) {
    let full = full_profile();
    let d = run_empirical(&scale_cfg(full));
    println!(
        "sim_throughput/world_10k[{}]: {} checks, {} messages per run",
        if full { "full" } else { "quick" },
        d.checks,
        d.metrics.counter("net.sent")
    );
    let label = if full { "world_10k_full" } else { "world_10k" };
    let mut group = c.benchmark_group("sim_throughput");
    group.bench_function(label, |b| {
        b.iter(|| black_box(run_empirical(&scale_cfg(full)).checks));
    });
    group.finish();
}

criterion_group!(benches, bench_world_throughput, bench_campaign_sweep, bench_world_10k);
criterion_main!(benches);
