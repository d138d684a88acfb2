//! Live-path throughput of the worker-pool runtime: real `HostNode`s
//! doing real quorum + cache checks against real `ManagerNode`s over
//! the in-process router, at flash-crowd scale.
//!
//! The headline label is `rt_live/wall_per_check` (full profile:
//! 1000 hosts). The quick profile shrinks the crowd so CI smoke stays
//! in seconds; labels encode the profile so a guard never compares
//! quick against full.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use wanacl_core::prelude::*;
use wanacl_rt::{install_roster, RuntimeBuilder};
use wanacl_sim::time::SimDuration;

fn full_profile() -> bool {
    std::env::var("BENCH_PROFILE").is_ok_and(|p| p == "full")
}

fn live_policy(c: usize) -> Policy {
    Policy::builder(c)
        .revocation_bound(SimDuration::from_secs(60))
        .clock_rate_bound(1.0)
        .query_timeout(SimDuration::from_secs(5))
        .max_attempts(2)
        .cache_sweep_interval(SimDuration::from_secs(5))
        .build()
}

/// Builds 3 managers (C = 2) plus `hosts` host nodes on the pool and
/// drives `rounds` check waves through every host: wave one is the cold
/// quorum path, later waves hit the warm cache. Returns the measured
/// drive-and-drain wall time; build and shutdown are excluded.
fn run_live_checks(hosts: usize, rounds: u64) -> Duration {
    // No user agents: the environment invokes at the hosts directly.
    let roster = Scenario::builder(77)
        .managers(3)
        .hosts(hosts)
        .users(0)
        .initial_rights(vec![(UserId(1), Right::Use)])
        .policy(live_policy(2))
        .roster();
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(77);
    let host_ids = install_roster(&mut b, roster, |_| None).hosts;
    let rt = b.start();

    let expected = hosts as u64 * rounds;
    let deadline = Instant::now() + Duration::from_secs(120);
    let start = Instant::now();
    // The environment invokes directly at the hosts (verdict replies to
    // ENV are silently dropped by the router); `host.allowed` counts
    // each completed check. Wave one cold-starts every host cache at
    // once — the flash crowd — and must fully settle before the warm
    // waves measure the cache path.
    let mut sent = 0u64;
    for round in 0..rounds {
        for (i, &host) in host_ids.iter().enumerate() {
            rt.send_from_env(
                host,
                ProtoMsg::Invoke {
                    app: AppId(0),
                    user: UserId(1),
                    req: ReqId(round * hosts as u64 + i as u64),
                    payload: "bench".into(),
                    signature: None,
                },
            );
            sent += 1;
        }
        while rt.metrics().counter("host.allowed") < sent {
            assert!(Instant::now() < deadline, "live checks stalled");
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(rt.metrics().counter("host.allowed"), expected);
    rt.shutdown();
    elapsed
}

/// Appends a custom per-unit label to the `BENCH_JSON` results file in
/// the harness's own record shape, so derived figures (ns per check)
/// sit next to the raw per-run labels.
fn append_label(label: &str, mean_ns: f64, iters: u64) {
    use std::io::Write;
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_sim.json".to_owned());
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
        let _ = writeln!(f, "{{\"label\":\"{label}\",\"mean_ns\":{mean_ns:.1},\"iters\":{iters}}}");
    }
}

fn bench_live_checks(c: &mut Criterion) {
    let full = full_profile();
    let (hosts, rounds) = if full { (1000, 8) } else { (100, 4) };
    let profile = if full { "full" } else { "quick" };

    // One reference run for the headline per-check figure: total checks
    // over drive-and-drain wall time.
    let checks = hosts as u64 * rounds;
    let elapsed = run_live_checks(hosts, rounds);
    let per_check_ns = elapsed.as_nanos() as f64 / checks as f64;
    println!(
        "rt_live/checks[{profile}]: {hosts} hosts, {checks} checks in {elapsed:?} \
         ({:.0} checks/sec)",
        checks as f64 / elapsed.as_secs_f64()
    );
    let label =
        if full { "rt_live/wall_per_check".to_owned() } else { format!("rt_live/wall_per_check_{profile}") };
    append_label(&label, per_check_ns, checks);

    let mut group = c.benchmark_group("rt_live");
    group.bench_function(format!("checks_{hosts}h_{rounds}r_{profile}"), |b| {
        b.iter(|| black_box(run_live_checks(hosts, rounds)));
    });
    group.finish();
}

criterion_group!(benches, bench_live_checks);
criterion_main!(benches);
