//! What a run prints: the metric tables the benchmark contract names,
//! the human-readable listing, the final JSON line, and the two commands
//! that run `wanbench run` as a child process (`all`, `selfcheck`).

use std::process::Command;

use crate::bench::Metric;
use crate::stats::median;

/// `run_seconds` of `BENCHMARK.json`: how long the measured phase is
/// sized for at nominal speed.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [&str; 4] = ["live_warm", "live_cold", "live_revoke", "sim_campaign"];

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("checks_per_s", "1/s"),
    ("cpu_us_per_check", "us"),
    ("check_p50_us", "us"),
    ("check_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`. A
/// traced run prints every one; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("auth.rsa_verify_ns", "ns"),
    ("auth.sha256_ns_per_byte", "ns/B"),
    ("auth.hmac_tag_ns", "ns"),
    ("cache.lookup_hit_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.sweep_ns_per_entry", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("host.invoke_hit_self_ns", "ns"),
    ("host.invoke_miss_self_ns", "ns"),
    ("host.query_reply_self_ns", "ns"),
    ("host.handler_calls_per_check", "count"),
    ("manager.query_self_ns", "ns"),
    ("manager.admin_self_ns", "ns"),
    ("manager.update_self_ns", "ns"),
    ("manager.queries_per_check", "count"),
    ("msg.clone_ns", "ns"),
    ("msg.size_bytes", "B"),
    ("msg.per_check", "count"),
    ("router.send_ns", "ns"),
    ("router.send_batch_ns_per_msg", "ns"),
    ("rt.hop_wait_p50_ns", "ns"),
    ("rt.hop_wait_p99_ns", "ns"),
    ("rt.pingpong_same_worker_ns", "ns"),
    ("rt.pingpong_cross_worker_ns", "ns"),
    ("rt.batch_size_mean", "count"),
    ("rt.worker_busy_frac", "ratio"),
    ("rt.inbox_overflow", "count"),
    ("rt.scaling_1_to_n", "ratio"),
    ("wheel.arm_fire_ns_per_timer", "ns"),
    ("wheel.timer_ops_per_check", "count"),
    ("wheel.timer_drift_p50_ns", "ns"),
    ("wheel.timer_drift_p99_ns", "ns"),
    ("storage.append_sync_ns", "ns"),
    ("storage.fsync_p50_us", "us"),
    ("storage.fsync_p99_us", "us"),
    ("storage.fsyncs_per_admin_op", "count"),
    ("obs.sink_incr_ns", "ns"),
    ("obs.sink_observe_ns", "ns"),
    ("obs.sink_incr_contended_ns", "ns"),
    ("obs.emits_per_check", "count"),
    ("obs.trace_bytes_per_check", "B"),
    ("obs.hist_samples_retained", "count"),
    ("sim.event_ns_small_world", "ns"),
    ("sim.event_ns_10k_world", "ns"),
    ("sim.events_per_check", "count"),
    ("sim.msgs_per_check", "count"),
    ("sim.planet_checks_per_s", "1/s"),
    ("oracle.note_ns", "ns"),
    ("oracle.notes_per_check", "count"),
    ("campaign.seed_ms_p50", "ms"),
    ("campaign.plan_sample_us", "us"),
    ("campaign.parallel_speedup", "ratio"),
    ("revoke.stable_p50_us", "us"),
    ("revoke.stable_p99_us", "us"),
    ("revoke.window_p50_us", "us"),
    ("revoke.window_p99_us", "us"),
    ("revoke.allows_after_stable", "count"),
    ("revoke.late_allows", "count"),
    ("alloc.count_per_check", "count"),
    ("alloc.bytes_per_check", "B"),
    ("machine.probe_ms_p50", "ms"),
    ("machine.probe_spread", "ratio"),
    ("harness.client_cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unexplained_frac", "ratio"),
    ("trace.request_wait_ns", "ns"),
    ("run.error_rate", "ratio"),
    ("run.stray_replies", "count"),
];

/// The outcome of one run, ready to print.
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Offending requests and other remarks, printed before the metrics.
    pub remarks: Vec<String>,
}

/// Orders `found` like `table`, filling layers the workload does not
/// exercise with 0.
pub fn in_table_order(table: &[(&'static str, &'static str)], found: Vec<Metric>) -> Vec<Metric> {
    for m in &found {
        assert!(
            table.iter().any(|(n, _)| *n == m.name),
            "metric {} is not in the table",
            m.name
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::plain(name, unit, 0.0))
        })
        .collect()
}

impl RunReport {
    /// Prints the listing and, last, the JSON object the driver reads.
    pub fn print(&self) {
        println!("wanbench {} seed {}", self.workload, self.seed);
        for remark in &self.remarks {
            println!("  ! {remark}");
        }
        for m in &self.metrics {
            let mut line = format!("  {:<32} {:>16.4} {:<6}", m.name, m.value, m.unit);
            if let (Some(q), Some(raw)) = (m.spread, m.raw) {
                line.push_str(&format!(
                    "  q1 {:.4}  median {:.4}  q3 {:.4}  raw {:.4}",
                    q.q1, q.median, q.q3, raw
                ));
            }
            println!("{line}");
        }
        println!(
            "  attempted {}  failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Runs `wanbench run` for one workload as a child process (so that peak
/// memory is the workload's own) and returns its standard output.
fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}):\n{stdout}",
            output.status
        ));
    }
    Ok(stdout)
}

/// `wanbench all`: every workload, one after another.
pub fn run_all(seed: u64, seconds: u64) -> Result<(), String> {
    for workload in WORKLOADS {
        print!("{}", run_child(workload, seed, seconds)?);
    }
    Ok(())
}

/// Reads `"name": {"value": V` pairs out of a run's final JSON line.
fn parse_values(stdout: &str) -> Vec<(String, f64)> {
    let line = stdout.lines().last().unwrap_or("");
    let mut values = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(value) = tail[..end].trim().parse::<f64>() {
            values.push((name, value));
        }
        rest = &tail[end..];
    }
    values
}

/// Reads each end-to-end metric's `(name, better, bound)` from the
/// committed `BENCHMARK.json`, so the bounds live in one place.
fn committed_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let start = text
        .find("\"end_to_end\"")
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let section = &text[start..];
    let section = &section[..section
        .find(']')
        .ok_or("BENCHMARK.json: unterminated list")?];
    let field = |object: &str, key: &str| -> Option<String> {
        let at = object.find(&format!("\"{key}\""))?;
        let value = object[at..].split(':').nth(1)?;
        Some(
            value
                .split([',', '}'])
                .next()?
                .trim()
                .trim_matches('"')
                .to_string(),
        )
    };
    section
        .split('{')
        .skip(1)
        .map(|object| {
            let name = field(object, "name").ok_or("metric without name")?;
            let better = field(object, "better").ok_or("metric without better")?;
            let bound = field(object, "bound")
                .and_then(|b| b.parse().ok())
                .ok_or(format!("{name}: no bound"))?;
            Ok((name, better == "higher", bound))
        })
        .collect()
}

/// `wanbench selfcheck`: two interleaved sets of five runs of every
/// workload, each run on another seed; per end-to-end metric both
/// medians, their relative difference and the committed bound. Fails if
/// any second-set median is worse than the first by more than its bound.
pub fn selfcheck(seconds: u64) -> Result<(), String> {
    const RUNS_PER_SET: u64 = 5;
    let bounds = committed_bounds()?;
    let mut worst_ok = true;
    println!("workload       metric              set A median    set B median    diff     bound");
    for workload in WORKLOADS {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..RUNS_PER_SET {
            for (set, values) in sets.iter_mut().enumerate() {
                let seed = 1 + 2 * i + set as u64;
                values.push(parse_values(&run_child(workload, seed, seconds)?));
            }
        }
        for (name, higher_is_better, bound) in &bounds {
            let of = |set: &Vec<Vec<(String, f64)>>| -> Result<f64, String> {
                let values: Vec<f64> = set
                    .iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect();
                if values.len() != set.len() {
                    return Err(format!("{workload}: a run did not report {name}"));
                }
                Ok(median(&values))
            };
            let (a, b) = (of(&sets[0])?, of(&sets[1])?);
            let diff = (b - a) / a;
            let worse = if *higher_is_better { -diff } else { diff };
            let ok = worse <= *bound;
            worst_ok &= ok;
            println!(
                "{workload:<14} {name:<18} {a:>14.4} {b:>15.4} {:>+7.2}% {:>8.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    if worst_ok {
        Ok(())
    } else {
        Err("two sets of runs of the same code disagree by more than a committed bound".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_parse_back() {
        // The shape `RunReport::print` writes as its last line.
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"checks_per_s\": {\"value\": 123456.789, \"unit\": \"1/s\"}, \
                    \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}";
        let values = parse_values(&format!("listing\n{line}"));
        assert_eq!(
            values,
            [
                ("checks_per_s".to_string(), 123_456.789),
                ("setup_s".to_string(), 0.8127)
            ]
        );
    }

    /// The committed contract and the tables here must name the same
    /// workloads and metrics, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let section = &text[start..];
            let section = &section[..section.find(']').expect("list end")];
            section
                .split("\"name\"")
                .skip(1)
                .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
                .collect()
        };
        assert_eq!(names_in("workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in("per_layer"), layers);
        let bounds = committed_bounds().expect("bounds parse");
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|(_, _, b)| *b > 0.0 && *b <= 0.25));
        assert!(text.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
    }
}
