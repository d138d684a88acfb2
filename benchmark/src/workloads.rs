//! Running one workload: the end-to-end run, the traced run, and the
//! excess fit.

use std::sync::atomic::Ordering;

use wanacl_sim::metrics::Metrics;

use crate::bench::{self, Metric, RawSlice, Sample, SETUPS, SLICES_PER_SECOND};
use crate::client::Failures;
use crate::live::{self, BuildOptions, Deployment, LiveWorkload, Phase, Remains, Stalled, WORKERS};
use crate::machine::{self, Probe};
use crate::micro;
use crate::report::{in_table_order, RunReport, END_TO_END, PER_LAYER};
use crate::simwl;
use crate::stats::{median, quantile, LogHist};
use crate::trace;

/// How much slower each workload runs in the reference box's slow
/// regime than in its fast one, less one: the plateau of
/// [`machine::slowdown`]. Measured with `wanbench fit` (the README has
/// the numbers behind them).
const EXCESS_LIVE_WARM: f64 = 0.38;
const EXCESS_LIVE_COLD: f64 = 0.38;
const EXCESS_LIVE_REVOKE: f64 = 0.45;
const EXCESS_SIM_CAMPAIGN: f64 = 0.52;

/// Slices of the traced run, and of each of its two untraced comparison
/// deployments.
const TRACED_SLICES: u64 = 24;
const COMPARISON_SLICES: u64 = 24;
/// Spans and requests written to the trace file (the rest are analysed
/// in memory and counted in the file's header).
const TRACE_FILE_LIMIT: usize = 20_000;

enum Workload {
    Live(LiveWorkload, f64),
    Sim,
}

fn lookup(name: &str) -> Result<Workload, String> {
    match name {
        "live_warm" => Ok(Workload::Live(live::LIVE_WARM, EXCESS_LIVE_WARM)),
        "live_cold" => Ok(Workload::Live(live::LIVE_COLD, EXCESS_LIVE_COLD)),
        "live_revoke" => Ok(Workload::Live(live::LIVE_REVOKE, EXCESS_LIVE_REVOKE)),
        "sim_campaign" => Ok(Workload::Sim),
        other => Err(format!("unknown workload {other}")),
    }
}

fn stalled(_: Stalled) -> String {
    "stalled: a slice or a teardown did not end within its watchdog".to_string()
}

/// What the slices of a live run add up to besides their samples.
#[derive(Default)]
struct LiveTotals {
    attempted: u64,
    failures: Failures,
    strays: u64,
    admin_attempted: u64,
    admin_failed: u64,
    /// Per-slice revoke → stable p50 and p99, ns.
    revoke_p50: Vec<f64>,
    revoke_p99: Vec<f64>,
    remarks: Vec<String>,
}

fn live_slices(
    deployment: &Deployment,
    probe: &mut Probe,
    slices: u64,
    totals: &mut LiveTotals,
) -> Result<Vec<Sample>, String> {
    let checks = deployment.workload().slice_checks;
    bench::measure(probe, slices, |_| {
        let outcome = deployment.run_slice(Phase::Measured, checks)?;
        totals.attempted += outcome.attempted;
        totals.failures.add(&outcome.failures);
        totals.strays += outcome.strays;
        if let Some(offence) = outcome.offence {
            if totals.remarks.len() < 5 {
                totals.remarks.push(format!(
                    "request {:?} was answered {}",
                    offence.entry, offence.got
                ));
            }
        }
        if let Some(admin) = outcome.admin {
            totals.admin_attempted += admin.attempted;
            totals.admin_failed += admin.failed;
            if let (Some(p50), Some(p99)) = (
                admin.revoke_stable.quantile(0.5),
                admin.revoke_stable.quantile(0.99),
            ) {
                totals.revoke_p50.push(p50);
                totals.revoke_p99.push(p99);
            }
        }
        Ok(RawSlice {
            wall_s: outcome.wall_s,
            cpu_s: outcome.cpu_s,
            checks: outcome.attempted,
            latency: outcome.latency,
        })
    })
    .map_err(stalled)
}

/// The end-to-end run of a live workload: [`SETUPS`] deployments, one
/// after another, each set up under the clock and then measured for its
/// share of the slices. `setup_s` is the median over the set-ups and the
/// other metrics are taken over all slices, so neither hangs on how one
/// deployment's threads and memory happened to fall.
fn run_live(
    workload: &LiveWorkload,
    excess: f64,
    seed: u64,
    seconds: u64,
) -> Result<RunReport, String> {
    let mut probe = Probe::default();
    let slices = seconds * SLICES_PER_SECOND;
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut samples = Vec::with_capacity(slices as usize);
    let mut totals = LiveTotals::default();
    let mut peak_rss_mb = 0.0;
    for k in 0..SETUPS as u64 {
        let (normalised, raw, (deployment, _inputs)) =
            bench::timed_setup(&mut probe, excess, || {
                live::set_up(workload, seed, BuildOptions::default())
            })
            .map_err(stalled)?;
        setups.push(normalised);
        raw_setups.push(raw);
        let share = slices * (k + 1) / SETUPS as u64 - slices * k / SETUPS as u64;
        samples.extend(live_slices(&deployment, &mut probe, share, &mut totals)?);
        // Read while only one deployment has ever lived in the process:
        // what the allocator keeps of a torn-down deployment differs
        // from run to run and would blur the later ones' peaks.
        if k == 0 {
            peak_rss_mb = machine::peak_rss_mb();
        }
        deployment.shutdown().map_err(stalled)?;
    }

    let mut metrics = bench::slice_metrics(&samples, excess);
    metrics.push(Metric::plain("peak_rss_mb", "MB", peak_rss_mb));
    metrics.push(Metric::setup(&setups, &raw_setups));
    let failed = totals.failures.total() + totals.admin_failed;
    Ok(RunReport {
        workload: workload.name.to_string(),
        seed,
        correct: totals.failures.wrong_verdicts + totals.failures.late_allows == 0,
        attempted: totals.attempted + totals.admin_attempted,
        failed,
        metrics: in_table_order(&END_TO_END, metrics),
        remarks: totals.remarks,
    })
}

/// One slice of campaigns as a [`RawSlice`], folding its evidence into
/// `totals`.
#[derive(Default)]
struct SimTotals {
    checks: u64,
    violations: u64,
    events: u64,
    messages: u64,
    notes: u64,
    seed_time: LogHist,
    first_digests: Vec<u64>,
    remarks: Vec<String>,
}

fn sim_slices(
    probe: &mut Probe,
    seed: u64,
    first: u64,
    slices: u64,
    totals: &mut SimTotals,
) -> Vec<Sample> {
    let run = |i: u64| -> Result<RawSlice, std::convert::Infallible> {
        let slice = simwl::run_slice(simwl::slice_base(seed, first + i));
        totals.checks += slice.checks;
        totals.violations += slice.violations;
        totals.events += slice.events;
        totals.messages += slice.messages;
        totals.notes += slice.notes;
        totals.seed_time.merge(&slice.seed_time);
        if first + i == 0 {
            totals.first_digests = slice.digests.clone();
        }
        if let Some(offence) = slice.offence {
            if totals.remarks.len() < 3 {
                totals.remarks.push(offence);
            }
        }
        Ok(RawSlice {
            wall_s: slice.wall_s,
            cpu_s: slice.cpu_s,
            checks: slice.checks,
            latency: slice.cost_per_check,
        })
    };
    match bench::measure(probe, slices, run) {
        Ok(samples) => samples,
        Err(never) => match never {},
    }
}

/// Campaigns have nothing to build; their set-up is two discarded
/// warm-up slices on seeds of their own.
fn sim_setups(probe: &mut Probe, seed: u64) -> Metric {
    let (mut normalised, mut raw) = (Vec::new(), Vec::new());
    for round in 0..SETUPS as u64 {
        let warm_up = || -> Result<(), std::convert::Infallible> {
            for slice in 0..2 {
                simwl::run_slice(simwl::slice_base(
                    seed,
                    900_000 / simwl::SLICE_SEEDS + 2 * round + slice,
                ));
            }
            Ok(())
        };
        let Ok((n, r, ())) = bench::timed_setup(probe, EXCESS_SIM_CAMPAIGN, warm_up);
        normalised.push(n);
        raw.push(r);
    }
    Metric::setup(&normalised, &raw)
}

/// Re-runs the first slice's seeds and counts digests that changed.
fn digest_mismatches(seed: u64, totals: &mut SimTotals) -> u64 {
    let again = simwl::run_slice(simwl::slice_base(seed, 0));
    let mismatches = again
        .digests
        .iter()
        .zip(&totals.first_digests)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if mismatches > 0 {
        totals.remarks.push(format!(
            "{mismatches} campaign seeds from {} gave another audit digest when re-run",
            simwl::slice_base(seed, 0)
        ));
    }
    mismatches
}

fn run_sim(seed: u64, seconds: u64) -> RunReport {
    let mut probe = Probe::default();
    let setup = sim_setups(&mut probe, seed);
    let mut totals = SimTotals::default();
    let samples = sim_slices(
        &mut probe,
        seed,
        0,
        seconds * SLICES_PER_SECOND,
        &mut totals,
    );
    let mismatches = digest_mismatches(seed, &mut totals);

    let mut metrics = bench::slice_metrics(&samples, EXCESS_SIM_CAMPAIGN);
    metrics.push(Metric::plain("peak_rss_mb", "MB", machine::peak_rss_mb()));
    metrics.push(setup);
    let failed = totals.violations + mismatches;
    RunReport {
        workload: "sim_campaign".to_string(),
        seed,
        correct: failed == 0,
        attempted: totals.checks,
        failed,
        metrics: in_table_order(&END_TO_END, metrics),
        remarks: totals.remarks,
    }
}

/// Adds a per-layer reading, taking its unit from the table.
fn put(found: &mut Vec<Metric>, name: &'static str, value: f64) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .expect("metric in table")
        .1;
    found.push(Metric::plain(name, unit, value));
}

fn rate(samples: &[Sample], excess: f64) -> f64 {
    bench::slice_metrics(samples, excess)[0].value
}

fn hist_quantiles(metrics: &Metrics, name: &str, scale: f64) -> (f64, f64) {
    metrics
        .histogram(name)
        .and_then(|h| h.summary())
        .map_or((0.0, 0.0), |s| (s.p50 * scale, s.p99 * scale))
}

/// The traced run of a live workload: the micro-measurements, two
/// untraced deployments (two workers and one) for the scaling ratio and
/// the tracing overhead, then the traced deployment whose spans give the
/// per-layer figures.
fn trace_live(workload: &LiveWorkload, excess: f64, seed: u64) -> Result<RunReport, String> {
    let mut probe = Probe::default();
    let mut found: Vec<Metric> = Vec::new();
    for (name, value) in micro::run_all() {
        put(&mut found, name, value);
    }

    // Standing revokes are rare, so all three deployments' count.
    let mut revocation_window = LogHist::default();
    let mut comparison = |workers: usize| -> Result<f64, String> {
        let options = BuildOptions {
            workers,
            ..BuildOptions::default()
        };
        let (deployment, _) = live::set_up(workload, seed, options).map_err(stalled)?;
        let mut totals = LiveTotals::default();
        let samples = live_slices(&deployment, &mut probe, COMPARISON_SLICES, &mut totals)?;
        revocation_window.merge(&deployment.shutdown().map_err(stalled)?.revocation_window);
        Ok(rate(&samples, excess))
    };
    let untraced = comparison(WORKERS)?;
    let single = comparison(1)?;
    put(&mut found, "rt.scaling_1_to_n", untraced / single);

    let options = BuildOptions {
        traced: true,
        ..BuildOptions::default()
    };
    let (deployment, _) = live::set_up(workload, seed, options).map_err(stalled)?;
    // Only the measured phase counts: set-up's spans and counters are
    // left out by time and by difference.
    let phase_start_ns = deployment.epoch.elapsed().as_nanos() as u64;
    let counters = |d: &Deployment| {
        (
            d.router_stats().0,
            d.metrics.counter("host.cache_hit"),
            d.metrics.counter("host.invokes"),
        )
    };
    let (sent_before, hits_before, invokes_before) = counters(&deployment);
    let cpu_before = machine::cpu_time_ns();
    let mut totals = LiveTotals::default();
    machine::count_allocations(true);
    let samples = live_slices(&deployment, &mut probe, TRACED_SLICES, &mut totals)?;
    let wall_ns = samples.iter().map(|s| s.wall_s).sum::<f64>() * 1e9;
    machine::count_allocations(false);
    let cpu_ns = (machine::cpu_time_ns() - cpu_before) as f64;
    let (allocations, allocated) = machine::allocations();
    let (sent_after, hits_after, invokes_after) = counters(&deployment);
    let sink = deployment.metrics.snapshot();
    let churn = deployment.churn.clone();
    let remains = deployment.shutdown().map_err(stalled)?;
    revocation_window.merge(&remains.revocation_window);
    let Remains {
        admin_ops,
        wal_syncs,
        mut spans,
        mut requests,
        ..
    } = remains;
    spans.retain(|s| s.start_ns >= phase_start_ns);
    requests.retain(|r| r.sent_ns >= phase_start_ns);

    let checks = totals.attempted.max(1) as f64;
    put(
        &mut found,
        "trace.overhead_frac",
        1.0 - rate(&samples, excess) / untraced,
    );
    put(
        &mut found,
        "alloc.count_per_check",
        allocations as f64 / checks,
    );
    put(
        &mut found,
        "alloc.bytes_per_check",
        allocated as f64 / checks,
    );
    put(
        &mut found,
        "msg.per_check",
        (sent_after - sent_before) as f64 / checks,
    );
    put(
        &mut found,
        "rt.inbox_overflow",
        sink.counter("rt.inbox_overflow") as f64,
    );
    put(
        &mut found,
        "cache.hit_ratio",
        (hits_after - hits_before) as f64 / (invokes_after - invokes_before).max(1) as f64,
    );
    let batch = sink
        .histogram("rt.batch_size")
        .and_then(|h| h.mean())
        .unwrap_or(0.0);
    put(&mut found, "rt.batch_size_mean", batch);
    let (drift_p50, drift_p99) = hist_quantiles(&sink, "rt.timer_drift_ns", 1.0);
    put(&mut found, "wheel.timer_drift_p50_ns", drift_p50);
    put(&mut found, "wheel.timer_drift_p99_ns", drift_p99);
    let (fsync_p50, fsync_p99) = hist_quantiles(&sink, "storage.wal_fsync_s", 1e6);
    put(&mut found, "storage.fsync_p50_us", fsync_p50);
    put(&mut found, "storage.fsync_p99_us", fsync_p99);
    put(
        &mut found,
        "storage.fsyncs_per_admin_op",
        wal_syncs as f64 / admin_ops.max(1) as f64,
    );
    let retained: usize = sink.histograms().map(|(_, h)| h.count()).sum();
    put(&mut found, "obs.hist_samples_retained", retained as f64);

    let summary = trace::summarise(&mut spans, &requests, live::CHECK_QUORUM);
    let self_ns = |kind| summary.self_ns.get(&kind).map_or(0.0, |(mean, _)| *mean);
    put(
        &mut found,
        "host.invoke_hit_self_ns",
        summary.host_hit_self_ns,
    );
    put(
        &mut found,
        "host.invoke_miss_self_ns",
        summary.host_miss_self_ns,
    );
    put(
        &mut found,
        "host.query_reply_self_ns",
        self_ns(trace::Kind::HostQueryReply),
    );
    put(
        &mut found,
        "host.handler_calls_per_check",
        summary.host_calls_per_check,
    );
    put(
        &mut found,
        "manager.query_self_ns",
        self_ns(trace::Kind::ManagerQuery),
    );
    put(
        &mut found,
        "manager.admin_self_ns",
        self_ns(trace::Kind::ManagerAdmin),
    );
    put(
        &mut found,
        "manager.update_self_ns",
        self_ns(trace::Kind::ManagerUpdate),
    );
    put(
        &mut found,
        "manager.queries_per_check",
        summary.manager_queries_per_check,
    );
    put(
        &mut found,
        "rt.hop_wait_p50_ns",
        summary.hop_wait.quantile(0.5).unwrap_or(0.0),
    );
    put(
        &mut found,
        "rt.hop_wait_p99_ns",
        summary.hop_wait.quantile(0.99).unwrap_or(0.0),
    );
    put(
        &mut found,
        "rt.worker_busy_frac",
        summary.busy_ns as f64 / (WORKERS as f64 * wall_ns),
    );
    put(
        &mut found,
        "wheel.timer_ops_per_check",
        summary.timer_ops_per_check,
    );
    put(&mut found, "obs.emits_per_check", summary.emits_per_check);
    put(
        &mut found,
        "obs.trace_bytes_per_check",
        summary.trace_bytes_per_check,
    );
    put(
        &mut found,
        "harness.client_cpu_frac",
        summary.client_ns as f64 / cpu_ns,
    );
    put(
        &mut found,
        "trace.unexplained_frac",
        summary.unexplained_frac,
    );
    put(&mut found, "trace.request_wait_ns", summary.request_wait_ns);

    if !totals.revoke_p50.is_empty() {
        let factor =
            |s: &Sample| machine::normalise(1.0, excess, s.probe_before_ms, s.probe_after_ms);
        let factor = median(&samples.iter().map(factor).collect::<Vec<_>>());
        put(
            &mut found,
            "revoke.stable_p50_us",
            median(&totals.revoke_p50) * factor / 1e3,
        );
        put(
            &mut found,
            "revoke.stable_p99_us",
            median(&totals.revoke_p99) * factor / 1e3,
        );
        let window = |q| revocation_window.quantile(q).unwrap_or(0.0) / 1e3;
        put(&mut found, "revoke.window_p50_us", window(0.5));
        put(&mut found, "revoke.window_p99_us", window(0.99));
    }
    if let Some(churn) = churn {
        let after = churn.allows_after_stable.load(Ordering::Relaxed);
        put(&mut found, "revoke.allows_after_stable", after as f64);
    }
    put(
        &mut found,
        "revoke.late_allows",
        totals.failures.late_allows as f64,
    );
    let (probe_p50, probe_spread) = bench::probe_summary(&samples);
    put(&mut found, "machine.probe_ms_p50", probe_p50);
    put(&mut found, "machine.probe_spread", probe_spread);
    let failed = totals.failures.total() + totals.admin_failed;
    let attempted = totals.attempted + totals.admin_attempted;
    put(
        &mut found,
        "run.error_rate",
        failed as f64 / attempted.max(1) as f64,
    );
    put(&mut found, "run.stray_replies", totals.strays as f64);

    let path = live::out_dir().join(format!("trace-{}.json", workload.name));
    trace::write_json(&path, workload.name, &spans, &requests, TRACE_FILE_LIMIT)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut remarks = totals.remarks;
    remarks.push(format!(
        "{} spans of {} checks; the first {TRACE_FILE_LIMIT} are in {}",
        spans.len(),
        requests.len(),
        path.display()
    ));
    Ok(RunReport {
        workload: workload.name.to_string(),
        seed,
        correct: totals.failures.wrong_verdicts + totals.failures.late_allows == 0,
        attempted,
        failed,
        metrics: in_table_order(&PER_LAYER, found),
        remarks,
    })
}

/// The traced run of `sim_campaign`: the micro-measurements and counted
/// slices. Campaigns build their own worlds, so there are no spans; the
/// counts the reports carry stand in for them.
fn trace_sim(seed: u64) -> RunReport {
    let mut probe = Probe::default();
    let mut found: Vec<Metric> = Vec::new();
    for (name, value) in micro::run_all() {
        put(&mut found, name, value);
    }
    let mut totals = SimTotals::default();
    machine::count_allocations(true);
    let samples = sim_slices(&mut probe, seed, 0, TRACED_SLICES, &mut totals);
    machine::count_allocations(false);
    let (allocations, allocated) = machine::allocations();
    let mismatches = digest_mismatches(seed, &mut totals);

    let checks = totals.checks.max(1) as f64;
    put(
        &mut found,
        "alloc.count_per_check",
        allocations as f64 / checks,
    );
    put(
        &mut found,
        "alloc.bytes_per_check",
        allocated as f64 / checks,
    );
    put(
        &mut found,
        "sim.events_per_check",
        totals.events as f64 / checks,
    );
    put(
        &mut found,
        "sim.msgs_per_check",
        totals.messages as f64 / checks,
    );
    put(
        &mut found,
        "oracle.notes_per_check",
        totals.notes as f64 / checks,
    );
    put(
        &mut found,
        "campaign.seed_ms_p50",
        totals.seed_time.quantile(0.5).unwrap_or(0.0) / 1e6,
    );
    let (probe_p50, probe_spread) = bench::probe_summary(&samples);
    put(&mut found, "machine.probe_ms_p50", probe_p50);
    put(&mut found, "machine.probe_spread", probe_spread);
    let failed = totals.violations + mismatches;
    put(&mut found, "run.error_rate", failed as f64 / checks);
    RunReport {
        workload: "sim_campaign".to_string(),
        seed,
        correct: failed == 0,
        attempted: totals.checks,
        failed,
        metrics: in_table_order(&PER_LAYER, found),
        remarks: totals.remarks,
    }
}

/// `wanbench run` / `wanbench trace`: runs the workload, prints the
/// report, and fails on a wrong output or a stall.
pub fn run(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<(), String> {
    let report = match (lookup(name)?, traced) {
        (Workload::Live(w, s), false) => run_live(&w, s, seed, seconds)?,
        (Workload::Live(w, s), true) => trace_live(&w, s, seed)?,
        (Workload::Sim, false) => run_sim(seed, seconds),
        (Workload::Sim, true) => trace_sim(seed),
    };
    report.print();
    if report.correct {
        Ok(())
    } else {
        Err(format!(
            "{name}: wrong output ({} of {} operations failed)",
            report.failed, report.attempted
        ))
    }
}

/// `wanbench fit`: re-measures the workload's slow-regime excess from
/// slices that fell wholly into the box's fast or slow regime. Needs a
/// run long enough to see both.
pub fn fit(name: &str, seed: u64, seconds: u64) -> Result<(), String> {
    let mut probe = Probe::default();
    let slices = seconds * SLICES_PER_SECOND;
    let samples = match lookup(name)? {
        Workload::Live(w, _) => {
            let (deployment, _) =
                live::set_up(&w, seed, BuildOptions::default()).map_err(stalled)?;
            let samples = live_slices(&deployment, &mut probe, slices, &mut LiveTotals::default())?;
            deployment.shutdown().map_err(stalled)?;
            samples
        }
        Workload::Sim => sim_slices(&mut probe, seed, 0, slices, &mut SimTotals::default()),
    };
    // The regimes are told apart relative to the fastest tenth of this
    // run's own probes, so the fit does not lean on the constant it may
    // be about to replace. A slice counts for a regime when both its
    // probes agree on it.
    let probes: Vec<f64> = samples.iter().map(|s| s.probe_after_ms).collect();
    let floor = quantile(&probes, 0.1);
    let both = |s: &Sample, test: fn(f64) -> bool| {
        test(s.probe_before_ms / floor) && test(s.probe_after_ms / floor)
    };
    let fast: Vec<&Sample> = samples.iter().filter(|s| both(s, |t| t < 1.12)).collect();
    let slow: Vec<&Sample> = samples.iter().filter(|s| both(s, |t| t > 1.35)).collect();
    println!(
        "{name}: {} slices, {} fast, {} slow",
        samples.len(),
        fast.len(),
        slow.len()
    );
    if fast.len() < 20 || slow.len() < 20 {
        return Err("too few slices in one of the regimes; run longer or again later".into());
    }
    let time = |set: &[&Sample]| {
        median(
            &set.iter()
                .map(|s| s.wall_s / s.checks as f64)
                .collect::<Vec<_>>(),
        )
    };
    let probe_of = |set: &[&Sample]| {
        median(
            &set.iter()
                .map(|s| 0.5 * (s.probe_before_ms + s.probe_after_ms))
                .collect::<Vec<_>>(),
        )
    };
    println!(
        "fast regime: probe {:.3} ms, {:.4} us per check; slow regime: probe {:.3} ms, \
         {:.4} us per check; excess {:.2}",
        probe_of(&fast),
        time(&fast) * 1e6,
        probe_of(&slow),
        time(&slow) * 1e6,
        time(&slow) / time(&fast) - 1.0
    );
    Ok(())
}
