//! `wanacl` — command-line driver for the access-control system.
//!
//! ```console
//! $ wanacl demo --managers 5 --check-quorum 3 --users 4 --minutes 10
//! $ wanacl tradeoff --pi 0.2 --trials 200
//! $ wanacl tables
//! $ wanacl audit --seed 7
//! $ wanacl nemesis --campaigns 100
//! $ wanacl nemesis --seed 3 --inject-bug cache-expiry
//! $ wanacl nemesis --disk-faults true --campaigns 50
//! $ wanacl nemesis --disk-faults true --inject-bug drop-wal
//! $ wanacl nemesis --ns-replicas 3 --ns-faults true --campaigns 100
//! $ wanacl nemesis --ns-replicas 3 --inject-bug ns-trust-unsigned
//! $ wanacl nemesis --tenants 2 --shards-per-tenant 2 --ns-replicas 3 --shard-faults true
//! $ wanacl nemesis --tenants 2 --shards-per-tenant 2 --ns-replicas 3 --inject-bug lost-handoff
//! $ wanacl nemesis --campaigns 20 --jobs 4 --metrics-out metrics.jsonl
//! $ wanacl obs --minutes 2 --format prometheus
//! $ wanacl obs --ns-replicas 3 --format jsonl
//! $ wanacl chaos --seed 1 --seconds 8
//! $ wanacl chaos --seed 1 --inject-bug drop-wal
//! $ wanacl chaos --seed 1 --tenants 2 --shards-per-tenant 2
//! $ wanacl chaos --control true --report-out control.jsonl
//! ```

use std::collections::BTreeMap;
use std::ops::Bound;

use wanacl::core::campaign::{
    campaign_scenario, rollup_metrics, run_campaigns_parallel, sample_plan, shrink_plan,
    CampaignConfig, CampaignReport, InjectedBug,
};
use wanacl::prelude::*;
use wanacl::rt::{live_policy, run_live_campaign, LiveReport};
use wanacl::sim::metrics::MetricId;
use wanacl::sim::obs::{metrics_jsonl, prometheus_text};

fn main() {
    let flags = Flags::parse(std::env::args().skip(1).collect());
    match flags.command.as_str() {
        "demo" => demo(flags),
        "tradeoff" => tradeoff(flags),
        "tables" => tables(flags),
        "audit" => audit(flags),
        "nemesis" => nemesis(flags),
        "chaos" => chaos(flags),
        "obs" => obs(flags),
        "scale" => scale(flags),
        _ => {
            eprintln!(
                "usage: wanacl <command> [--flag value ...]\n\n\
                 commands:\n\
                 \x20 demo      run a deployment and print outcome statistics\n\
                 \x20           flags: --managers N --hosts N --users N --check-quorum C\n\
                 \x20                  --te SECS --minutes M --pi P --seed S\n\
                 \x20 tradeoff  sweep the check quorum and print PA/PS (model + measured)\n\
                 \x20           flags: --managers N --pi P --trials N\n\
                 \x20 tables    print the paper's Table 1 and Table 2 (analytic)\n\
                 \x20 audit     run a revocation scenario under the invariant oracle\n\
                 \x20           flags: --seed S\n\
                 \x20 nemesis   run fault-injection campaigns with the invariant oracle\n\
                 \x20           flags: --seed S --campaigns N --horizon-secs T\n\
                 \x20                  --managers N --hosts N --users N --intensity X\n\
                 \x20                  --jobs N             worker threads for the campaign\n\
                 \x20                                       sweep (0 = one per core; results\n\
                 \x20                                       are identical at any job count)\n\
                 \x20                  --ns-replicas N      discover managers through N\n\
                 \x20                                       directory replicas (signed records,\n\
                 \x20                                       host quorum reads, anti-entropy;\n\
                 \x20                                       1 = the paper's name service)\n\
                 \x20                  --ns-read-quorum Q   verified replies a read needs\n\
                 \x20                                       (default: majority of replicas)\n\
                 \x20                  --ns-faults true     add directory faults (stale\n\
                 \x20                                       replicas, split-brain, malicious\n\
                 \x20                                       partial masters, replica crashes)\n\
                 \x20                  --disk-faults true   add disk faults (torn tails,\n\
                 \x20                                       failed fsyncs) and correlated\n\
                 \x20                                       cluster restarts to the fault mix\n\
                 \x20                  --tenants N          sharded multi-tenant plane: N\n\
                 \x20                                       tenant apps, each keyspace split\n\
                 \x20                                       into shards served by their own\n\
                 \x20                                       manager pairs (needs --ns-replicas;\n\
                 \x20                                       overrides --managers)\n\
                 \x20                  --shards-per-tenant K  shards per tenant (default 1)\n\
                 \x20                  --shard-faults true  add shard faults (online\n\
                 \x20                                       rebalances racing the nemesis,\n\
                 \x20                                       hosts pinned to stale shard maps)\n\
                 \x20                  --inject-bug cache-expiry|drop-wal|ns-trust-unsigned|\n\
                 \x20                               lost-handoff\n\
                 \x20                  --metrics-out PATH   write per-seed + rollup metrics as\n\
                 \x20                                       JSONL to PATH and the Prometheus\n\
                 \x20                                       rollup snapshot to PATH.prom\n\
                 \x20 chaos     run a live (threaded) soak of the deployment `nemesis` would
                 \x20           simulate, under the fault plan it would sample, with a
                 \x20           kill/restart and crash/recover of manager 0, checked by the
                 \x20           invariant oracle
                 \x20           flags: --seed S --seconds T --managers N --hosts N
                 \x20                  --users N --check-quorum C --intensity X
                 \x20                  --inject-bug drop-wal  arm manager 0's WAL to drop
                 \x20                                       state on recovery (the oracle
                 \x20                                       must catch it live)
                 \x20                  --tenants N          sharded soak: N tenant apps on
                 \x20                                       their own manager pairs (overrides
                 \x20                                       --managers), three directory
                 \x20                                       replicas, and at least one live
                 \x20                                       online rebalance
                 \x20                  --shards-per-tenant K  shards per tenant (default 2)
                 \x20                  --workers N          worker threads for the event
                 \x20                                       pool (default: one per core,
                 \x20                                       clamped to the node count)
                 \x20                  --report-out PATH    write the JSONL soak report
                 \x20                  --control true       fault-free control run
                 \x20 obs       run a short deployment and export its metrics snapshot\n\
                 \x20           flags: --managers N --hosts N --users N --check-quorum C\n\
                 \x20                  --minutes M --pi P --seed S\n\
                 \x20                  --ns-replicas N --ns-read-quorum Q (directory ns.*\n\
                 \x20                                       metrics: lookup latency, quorum\n\
                 \x20                                       rounds, degraded/stale counters)\n\
                 \x20                  --format prometheus|jsonl (default prometheus)\n\
                 \x20                  --out PATH (default stdout)\n\
                 \x20 scale     run a planet-scale probe world and compare measured\n\
                 \x20           PA/PS curves against the closed-form model\n\
                 \x20           flags: --hosts N (default 10000) --managers M\n\
                 \x20                  --check-quorum C --pi P --epoch-secs S\n\
                 \x20                  --horizon-secs T --checks-per-host X\n\
                 \x20                  --diurnal A --zipf-users N --zipf-s S\n\
                 \x20                  --flash-at SECS --flash-secs D --flash-mult X\n\
                 \x20                  --revoke-ops N --timeout-ms MS --seed S\n\
                 \x20                  --metrics-out PATH   write the scale.* metrics\n\
                 \x20                                       snapshot as JSONL"
            );
            std::process::exit(2);
        }
    }
}

/// Prints a usage error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `<command> --key value ...`, parsed without external crates. A
/// subcommand takes each flag it understands out with [`Flags::get`],
/// [`Flags::get_in`] or [`Flags::text`] and then calls [`Flags::done`],
/// so the set of flags a subcommand accepts is exactly the set it reads:
/// anything left over is an unknown flag, and a value that does not
/// parse or lies outside what the library accepts is an error — neither
/// silently falls back to a default nor reaches a library `assert!`.
struct Flags {
    command: String,
    values: BTreeMap<String, String>,
}

impl Flags {
    fn parse(args: Vec<String>) -> Flags {
        let mut args = args.into_iter();
        let command = args.next().unwrap_or_default();
        let mut values = BTreeMap::new();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                usage_error(&format!("unexpected argument: {arg}"));
            };
            values.insert(key.to_owned(), args.next().unwrap_or_default());
        }
        Flags { command, values }
    }

    /// Takes `--key` as text.
    fn text(&mut self, key: &str) -> Option<String> {
        self.values.remove(key)
    }

    /// Takes `--key` parsed as `T`, if present.
    fn opt<T: std::str::FromStr>(&mut self, key: &str) -> Option<T> {
        self.text(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("invalid value for --{key}: {v:?}")))
        })
    }

    /// Takes `--key` parsed as `T`, or `default` when absent.
    fn get<T: std::str::FromStr>(&mut self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// [`Flags::get`], rejecting a value outside `range`.
    fn get_in<T, R>(&mut self, key: &str, default: T, range: R) -> T
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
        R: std::ops::RangeBounds<T> + std::fmt::Debug,
    {
        let value = self.get(key, default);
        if !range.contains(&value) {
            usage_error(&format!("--{key} must be in {range:?}, got {value}"));
        }
        value
    }

    /// Rejects every flag the subcommand did not take.
    fn done(self) {
        if let Some(key) = self.values.keys().next() {
            usage_error(&format!("unknown flag --{key} for `wanacl {}`", self.command));
        }
    }
}

fn demo(mut flags: Flags) {
    let managers: usize = flags.get_in("managers", 5, 1..);
    let hosts: usize = flags.get_in("hosts", 3, 1..);
    let users: usize = flags.get("users", 4);
    let c: usize = flags.get_in("check-quorum", (managers / 2).max(1), 1..=managers);
    let te: u64 = flags.get_in("te", 60, 1..);
    let minutes: u64 = flags.get("minutes", 10);
    let pi: f64 = flags.get_in("pi", 0.1, 0.0..=1.0);
    let seed: u64 = flags.get("seed", 1);
    flags.done();

    let policy = Policy::builder(c)
        .revocation_bound(SimDuration::from_secs(te))
        .query_timeout(SimDuration::from_millis(400))
        .max_attempts(3)
        .build();
    let net = wanacl::sim::net::WanNet::builder()
        .uniform_delay(SimDuration::from_millis(20), SimDuration::from_millis(80))
        .partitions(Box::new(wanacl::sim::net::partition::EpochIid::new(
            pi,
            SimDuration::from_secs(10),
            seed ^ 0xdead,
        )))
        .build();
    let mut d = Scenario::builder(seed)
        .managers(managers)
        .hosts(hosts)
        .users(users)
        .policy(policy)
        .all_users_granted()
        .workload(SimDuration::from_secs(3))
        .net(Box::new(net))
        .build();
    println!(
        "running {minutes} simulated minutes: M={managers} C={c} Te={te}s Pi={pi} \
         ({hosts} hosts, {users} users)"
    );
    d.run_for(SimDuration::from_secs(minutes * 60));
    let s = d.aggregate_user_stats();
    println!("requests:     {}", s.sent);
    println!("allowed:      {} ({:.2}%)", s.allowed, 100.0 * s.allowed as f64 / s.sent.max(1) as f64);
    println!("denied:       {}", s.denied);
    println!("unavailable:  {}", s.unavailable);
    println!("timeouts:     {}", s.timeouts);
    println!("messages:     {}", d.world.metrics().counter("net.sent"));
    if let Some(h) = d.world.metrics().histogram("host.check_latency_s") {
        if let Some(mean) = h.mean() {
            println!("mean cold-check latency: {:.3}s over {} checks", mean, h.count());
        }
    }
}

fn tradeoff(mut flags: Flags) {
    let managers: usize = flags.get("managers", 10);
    let pi: f64 = flags.get_in("pi", 0.2, 0.0..=1.0);
    let trials: u64 = flags.get_in("trials", 150, 1..);
    flags.done();
    println!("M={managers} Pi={pi} trials={trials}\n");
    println!("  C | PA model  PA measured | PS model  PS measured");
    println!(" ---+------------------------+----------------------");
    for c in 1..=managers {
        let pa = wanacl::analysis::model::pa(managers as u64, c as u64, pi);
        let ps = wanacl::analysis::model::ps(managers as u64, c as u64, pi);
        let pa_m =
            wanacl::analysis::experiments::measure_availability(managers, c, pi, trials, 40 + c as u64);
        let ps_m =
            wanacl::analysis::experiments::measure_security(managers, c, pi, trials, 80 + c as u64);
        println!(
            " {c:2} |  {pa:.4}     {:.4}    |  {ps:.4}     {:.4}",
            pa_m.value, ps_m.value
        );
    }
}

fn tables(flags: Flags) {
    flags.done();
    println!("{}", wanacl::analysis::tables::render_table1(10, &[0.1, 0.2]));
    println!("{}", wanacl::analysis::tables::render_table2(&[0.1, 0.2]));
}

/// Runs one planet-scale probe world (`empirical::run_empirical`) and
/// prints the measured PA/PS curves against the closed-form model, plus
/// the per-operation check-overhead numbers. This is the interactive
/// face of `repro_scale`'s empirical section: one configurable world
/// instead of the paper's full table sweep.
fn scale(mut flags: Flags) {
    use wanacl::analysis::empirical::{run_empirical, FlashSpec, ScaleConfig};

    let hosts: usize = flags.get("hosts", 10_000);
    let managers: usize = flags.get_in("managers", 10, 2..);
    let check_quorum: usize = flags.get_in("check-quorum", (managers / 2).max(1), 1..=managers);
    let pi: f64 = flags.get_in("pi", 0.1, 0.0..=1.0);
    let epoch_secs: u64 = flags.get_in("epoch-secs", 10, 1..);
    let horizon_secs: u64 = flags.get_in("horizon-secs", 600, 1..);
    let checks_per_host: f64 = flags.get_in("checks-per-host", 5.0, 0.0..f64::INFINITY);
    let diurnal: f64 = flags.get_in("diurnal", 0.5, 0.0..=1.0);
    let zipf_users: usize = flags.get_in("zipf-users", hosts.max(1), 1..);
    let zipf_s: f64 = flags.get_in("zipf-s", 1.1, 0.0..f64::INFINITY);
    let revoke_ops: u64 = flags.get("revoke-ops", 2_000);
    let timeout_ms: u64 = flags.get("timeout-ms", 1_000);
    let seed: u64 = flags.get("seed", 1);
    let flash_secs: u64 = flags.get("flash-secs", 60);
    let flash_mult: f64 = flags.get_in("flash-mult", 3.0, 0.0..f64::INFINITY);
    let flash = flags.opt::<u64>("flash-at").map(|start_secs| FlashSpec {
        start: SimTime::ZERO + SimDuration::from_secs(start_secs),
        duration: SimDuration::from_secs(flash_secs),
        multiplier: flash_mult,
    });
    let metrics_out = flags.text("metrics-out");
    flags.done();

    let cfg = ScaleConfig {
        hosts,
        managers,
        check_quorum,
        pi,
        epoch: SimDuration::from_secs(epoch_secs),
        horizon: SimDuration::from_secs(horizon_secs),
        checks_per_host,
        diurnal_amplitude: diurnal,
        flash,
        zipf_users,
        zipf_s,
        revoke_ops,
        timeout: SimDuration::from_millis(timeout_ms),
        jitter: 0.1,
        seed,
    };

    println!(
        "planet-scale probe: {hosts} hosts, M={managers} C={check_quorum} Pi={pi} \
         epoch={epoch_secs}s horizon={horizon_secs}s seed={seed}"
    );
    println!(
        "workload: Zipf(s={zipf_s}) over {zipf_users} users, diurnal amplitude {diurnal}{}",
        match flash {
            Some(f) => format!(
                ", flash crowd x{} for {}s at t={}",
                f.multiplier,
                f.duration.as_secs_f64(),
                f.start
            ),
            None => String::new(),
        }
    );

    let wall = std::time::Instant::now();
    let out = run_empirical(&cfg);
    let wall = wall.elapsed();
    let msgs = out.metrics.counter("net.sent");
    println!(
        "ran {} checks + {} revocations ({} messages) in {:.2}s wall ({:.0} msgs/s)\n",
        out.checks,
        out.revokes,
        msgs,
        wall.as_secs_f64(),
        msgs as f64 / wall.as_secs_f64().max(1e-9)
    );

    println!("  C   PA emp   PA model     |d|   PS emp   PS model     |d|");
    println!(" ---------------------------------------------------------------");
    for c in 1..=out.m {
        let (pa_e, pa_m) = (out.pa(c), out.pa_model(c));
        let (ps_e, ps_m) = (out.ps(c), out.ps_model(c));
        let marker = if c == out.check_quorum { "  <- C" } else { "" };
        println!(
            " {c:2}  {pa_e:7.4}  {pa_m:9.4}  {:6.4}  {ps_e:7.4}  {ps_m:9.4}  {:6.4}{marker}",
            (pa_e - pa_m).abs(),
            (ps_e - ps_m).abs()
        );
    }
    println!("\n  max |empirical - analytic| across C: {:.4}", out.max_abs_error());
    let emp_range = out.fig5_series().sweet_range(0.9);
    let model_range = wanacl::analysis::figures::fig5(out.m as u64, pi).sweet_range(0.9);
    println!("  sweet range (PA,PS >= 0.9): model {model_range:?}  empirical {emp_range:?}");

    println!("\nper-operation check overhead at C={check_quorum}:");
    match &out.quorum_latency {
        Some(s) => println!(
            "  time-to-quorum: mean {:.3}s  p50 {:.3}s  p99 {:.3}s  over {} quorate checks",
            s.mean, s.p50, s.p99, s.count
        ),
        None => println!("  time-to-quorum: no check reached quorum"),
    }
    let unavail = out.metrics.counter("scale.check_unavail");
    println!("  messages per check round: {:.2}", out.msgs_per_check);
    println!(
        "  unavailable rounds: {} ({:.2}%)",
        unavail,
        100.0 * unavail as f64 / out.checks.max(1) as f64
    );

    if let Some(path) = &metrics_out {
        std::fs::write(path, metrics_jsonl(&out.metrics, "scale")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nmetrics snapshot written to {path}");
    }
}

/// The `--inject-bug` spellings.
const BUGS: [(&str, InjectedBug); 4] = [
    ("cache-expiry", InjectedBug::IgnoreCacheExpiry { host_index: 0 }),
    ("drop-wal", InjectedBug::DropWal { manager_index: 0 }),
    ("ns-trust-unsigned", InjectedBug::NsTrustUnsigned { host_index: 0 }),
    ("lost-handoff", InjectedBug::LostHandoff { manager_index: 0 }),
];

fn bug_name(bug: Option<InjectedBug>) -> &'static str {
    BUGS.iter().find(|(_, b)| Some(*b) == bug).map_or("none", |(name, _)| name)
}

/// Reads the campaign both executors run from the command line:
/// `nemesis` simulates it, `chaos` (`live`) soaks it on threads. The
/// live soak fixes what the simulator leaves to flags — three directory
/// replicas and shard faults whenever `--tenants` is set, no disk or
/// directory faults — and calls its horizon `--seconds`.
fn campaign_config(flags: &mut Flags, live: bool) -> CampaignConfig {
    let seed: u64 = flags.get("seed", 1);
    let horizon_secs: u64 =
        if live { flags.get_in("seconds", 8, 1..) } else { flags.get_in("horizon-secs", 10, 1..) };
    let managers: usize = flags.get_in("managers", 3, 1..);
    let hosts: usize = flags.get_in("hosts", 2, 1..);
    let tenants: usize = flags.get("tenants", 0);
    let users: usize = flags.get_in("users", if live && tenants > 0 { 4 } else { 2 }, 1..);
    let shards_per_tenant: usize =
        flags.get_in("shards-per-tenant", if live { 2 } else { 1 }, 1..=256);
    let intensity: f64 = flags.get_in("intensity", 1.0, (Bound::Excluded(0.0), Bound::Unbounded));
    let inject_bug = match flags.text("inject-bug").as_deref() {
        None | Some("none") => None,
        Some(name) => match BUGS.iter().find(|(n, _)| *n == name) {
            Some((_, bug)) => Some(*bug),
            None => usage_error(&format!(
                "unknown --inject-bug {name} \
                 (expected: cache-expiry, drop-wal, ns-trust-unsigned, or lost-handoff)"
            )),
        },
    };
    let sharded = tenants > 0;
    let common = CampaignConfig {
        seed,
        managers,
        hosts,
        users,
        horizon: SimDuration::from_secs(horizon_secs),
        intensity,
        tenants,
        shards_per_tenant,
        inject_bug,
        ..CampaignConfig::default()
    };
    let config = if live {
        CampaignConfig { ns_replicas: 3 * usize::from(sharded), shard_faults: sharded, ..common }
    } else {
        let ns_replicas: usize = flags.get("ns-replicas", 0);
        CampaignConfig {
            ns_replicas,
            ns_read_quorum: flags.get_in("ns-read-quorum", 0, 0..=ns_replicas),
            ns_faults: flags.get("ns-faults", false),
            disk_faults: flags.get("disk-faults", false),
            shard_faults: flags.get("shard-faults", false),
            ..common
        }
    };
    if matches!(inject_bug, Some(InjectedBug::NsTrustUnsigned { .. })) && config.ns_replicas == 0 {
        usage_error("--inject-bug ns-trust-unsigned needs --ns-replicas N (N >= 1)");
    }
    if matches!(inject_bug, Some(InjectedBug::LostHandoff { .. })) && !sharded {
        usage_error("--inject-bug lost-handoff needs --tenants N (the sharded plane)");
    }
    if sharded && config.ns_replicas == 0 {
        usage_error("--tenants needs --ns-replicas N (the shard map lives in the directory)");
    }
    if config.shard_faults && !sharded {
        usage_error("--shard-faults true needs --tenants N (the sharded plane)");
    }
    config
}

/// The number of managers the config's roster lays out.
fn manager_count(config: &CampaignConfig) -> usize {
    campaign_scenario(config).roster().layout.managers.len()
}

/// `M=3` or `tenants=2 shards/tenant=2 M=8`: the manager plane of a
/// campaign header.
fn plane(config: &CampaignConfig) -> String {
    if config.tenants > 0 {
        format!(
            "tenants={} shards/tenant={} M={}",
            config.tenants,
            config.shards_per_tenant,
            manager_count(config)
        )
    } else {
        format!("M={}", config.managers)
    }
}

fn write_or_exit(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// Runs `--campaigns` nemesis campaigns starting at `--seed`, each a
/// fresh deployment under a seed-derived adversarial schedule with the
/// invariant oracle attached. Campaigns fan out across `--jobs` worker
/// threads (0 = one per core); each seed's result is bit-identical to a
/// sequential run, and reports print in seed order regardless of which
/// worker finished first. On the lowest-seed violation, prints the
/// replayable counterexample, greedily shrinks the plan, and exits 1.
fn nemesis(mut flags: Flags) {
    let campaigns: u64 = flags.get("campaigns", 1);
    let jobs: usize = flags.get("jobs", 0);
    let metrics_out = flags.text("metrics-out");
    let base = campaign_config(&mut flags, false);
    flags.done();

    println!(
        "nemesis: {campaigns} campaign(s) from seed {}, horizon {}s, \
         {} hosts={} users={} intensity={}{}{}{}{}",
        base.seed,
        base.horizon.as_secs_f64(),
        plane(&base),
        base.hosts,
        base.users,
        base.intensity,
        if base.disk_faults { " +disk-faults" } else { "" },
        if base.shard_faults { " +shard-faults" } else { "" },
        if base.ns_replicas > 0 {
            format!(
                " +directory[{} replicas{}]",
                base.ns_replicas,
                if base.ns_faults { ", faults" } else { "" }
            )
        } else {
            String::new()
        },
        match base.inject_bug {
            Some(_) => format!(" [BUG INJECTED: {}]", bug_name(base.inject_bug)),
            None => String::new(),
        }
    );
    let configs: Vec<CampaignConfig> = (base.seed..base.seed + campaigns)
        .map(|seed| CampaignConfig { seed, ..base.clone() })
        .collect();
    let reports = run_campaigns_parallel(&configs, jobs);
    // Metrics export happens before the violation scan so the artifact
    // exists even when a counterexample aborts the run below.
    if let Some(path) = &metrics_out {
        let mut jsonl = String::new();
        for report in &reports {
            jsonl.push_str(&metrics_jsonl(&report.metrics, &format!("seed-{}", report.seed)));
        }
        let rollup = rollup_metrics(&reports);
        jsonl.push_str(&metrics_jsonl(&rollup, "rollup"));
        write_or_exit(path, jsonl);
        let prom_path = format!("{path}.prom");
        write_or_exit(&prom_path, prometheus_text(&rollup));
        println!("metrics: per-seed + rollup JSONL -> {path}, Prometheus rollup -> {prom_path}");
    }
    for (config, report) in configs.iter().zip(&reports) {
        let s = config.seed;
        if report.is_clean() {
            println!(
                "  seed {s}: clean ({} faults, {} allows checked, {} revokes, \
                 {} WAL appends, {} disk recoveries)",
                report.plan.len(),
                report.oracle_stats.allows,
                report.oracle_stats.revokes,
                report.metrics.counter(MetricId::MGR_WAL_APPENDS),
                report.metrics.counter(MetricId::MGR_RECOVERED_FROM_DISK),
            );
            continue;
        }
        println!("\n{}", report.render());
        println!("shrinking the failing plan...");
        let (small, small_report) = shrink_plan(config, &report.plan);
        println!(
            "shrunk from {} to {} fault(s); minimal counterexample:\n",
            report.plan.len(),
            small.len()
        );
        println!("{}", small_report.render());
        std::process::exit(1);
    }
    println!("all {campaigns} campaign(s) clean: no invariant violations");
}

/// One `{"kind":K,"<key>":"<text>"}` soak-report line, minimally escaped.
fn json_line(kind: &str, key: &str, text: &str) -> String {
    let text = text.replace('\\', "\\\\").replace('"', "\\\"");
    format!("{{\"kind\":\"{kind}\",\"{key}\":\"{text}\"}}\n")
}

/// Runs a seeded chaos soak on the *live* threaded runtime
/// ([`run_live_campaign`]): the deployment `wanacl nemesis` would
/// simulate for these flags, on OS threads, under the exact fault plan
/// it would sample for this seed, plus a deterministic kill/restart
/// (process death, recovery from the `FileStorage` WAL) and
/// crash/recover cycle of manager 0. `--tenants N` soaks the sharded
/// plane instead of the flat one — same driver, different roster — and
/// forces one online rebalance if the plan drew none, so a sharded soak
/// never leaves I9 untested. The drained live trace feeds the same
/// invariant oracle (I1–I9) the campaigns use; any violation or lost
/// node prints and exits 1. `--control true` skips all fault injection.
fn chaos(mut flags: Flags) {
    let control: bool = flags.get("control", false);
    let workers: usize = flags.get("workers", 0);
    let report_out = flags.text("report-out");
    let mut config = campaign_config(&mut flags, true);
    let manager_set = if config.tenants > 0 { 2 } else { config.managers };
    let c: usize = flags.get_in("check-quorum", 2.min(manager_set), 1..=manager_set);
    flags.done();
    let drop_wal = match config.inject_bug {
        None => false,
        Some(InjectedBug::DropWal { .. }) => true,
        Some(_) => usage_error(&format!(
            "unknown --inject-bug {} (live chaos supports: drop-wal)",
            bug_name(config.inject_bug)
        )),
    };
    if drop_wal && control {
        usage_error("--inject-bug drop-wal contradicts --control true");
    }
    config.policy = live_policy(c).build();

    // Plan parity with the simulator: same CampaignConfig, same seed
    // derivation, same sampler — `wanacl nemesis --seed S` and `wanacl
    // chaos --seed S` replay one fault plan on two executors.
    let mut plan = sample_plan(&config);
    let rebalances = plan.faults.iter().any(|f| matches!(f, Fault::ShardRebalance { .. }));
    if config.tenants > 0 && !rebalances {
        plan.faults.push(Fault::ShardRebalance {
            shard: 0,
            at: SimTime::ZERO + config.horizon.mul_f64(0.5),
        });
    }
    println!(
        "chaos: seed {}, {}s live soak, {} C={c} hosts={} users={}{}{}",
        config.seed,
        config.horizon.as_secs_f64(),
        plane(&config),
        config.hosts,
        config.users,
        if control { " [CONTROL: no faults]" } else { "" },
        if drop_wal { " [BUG INJECTED: drop-wal]" } else { "" },
    );
    if !control {
        print!("{}", plan.describe());
    }
    let plan = (!control).then_some(&plan);
    let (report, live) = match run_live_campaign(&config, plan, workers) {
        Ok(reports) => reports,
        Err(e) => usage_error(&format!("chaos: cannot start the live runtime: {e}")),
    };
    println!("chaos: worker pool of {} threads", live.workers);
    for line in &live.lifecycle {
        println!("  {line}");
    }
    let stats = &report.oracle_stats;
    println!(
        "oracle: {} allows ({} shard-routed), {} revokes, {} handoffs, {} installs \
         checked over {} live trace events",
        stats.allows,
        stats.shard_allows,
        stats.revokes,
        stats.shard_handoffs,
        stats.shard_installs,
        live.trace_events
    );
    let users = report.user_stats;
    println!(
        "user outcomes: {} sent, {} allowed, {} denied, {} unavailable, {} timeouts",
        users.sent, users.allowed, users.denied, users.unavailable, users.timeouts
    );
    let counter = |name: &str| report.metrics.counter(name);
    let checks: Vec<String> =
        check_fields(&report.metrics).iter().map(|(key, value)| format!("{key}={value}")).collect();
    println!("checks: {}", checks.join(" "));
    if !control {
        println!(
            "chaos transport: dropped={} duplicated={} delayed={} inbox overflow={}",
            counter("rt.chaos_dropped"),
            counter("rt.chaos_duplicated"),
            counter("rt.chaos_delayed"),
            counter("rt.inbox_overflow"),
        );
    }
    if let Some(path) = &report_out {
        write_or_exit(path, soak_report_jsonl(&config, c, plan, &report, &live));
        println!("report: JSONL soak report -> {path}");
    }
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    for failure in &live.failures {
        println!("FAILURE: {failure}");
    }
    if !(report.is_clean() && live.failures.is_empty()) {
        std::process::exit(1);
    }
    println!("chaos soak clean: no invariant violations, no node failures");
}

/// How the soak's cold checks went, from metrics the hosts already
/// record: `host.check_latency_s` (count, then p50 / p99 / max in
/// milliseconds), how many resolved by quorum and how many gave up
/// `Unavailable`, and the queries and retries that took.
fn check_fields(metrics: &Metrics) -> Vec<(&'static str, String)> {
    let latency = metrics.histogram("host.check_latency_s").and_then(|h| h.summary());
    let ms = |seconds: Option<f64>| format!("{:.3}", seconds.unwrap_or(0.0) * 1e3);
    let samples = |name: &str| metrics.histogram(name).map_or(0, |h| h.count()).to_string();
    vec![
        ("count", latency.map_or(0, |s| s.count).to_string()),
        ("p50_ms", ms(latency.map(|s| s.p50))),
        ("p99_ms", ms(latency.map(|s| s.p99))),
        ("max_ms", ms(latency.map(|s| s.max))),
        ("quorum", samples("host.latency.quorum_s")),
        ("unavailable", samples("host.latency.unavailable_s")),
        ("queries_sent", metrics.counter("host.queries_sent").to_string()),
        ("attempt_retry", metrics.counter("host.attempt_retry").to_string()),
    ]
}

/// The JSONL soak report: one meta line, one line per injected fault
/// and lifecycle step (`plan` is `None` on control runs), the oracle
/// roll-up, every violation and node failure, the check-path summary
/// and the outcome verdict.
fn soak_report_jsonl(
    config: &CampaignConfig,
    check_quorum: usize,
    plan: Option<&NemesisPlan>,
    report: &CampaignReport,
    live: &LiveReport,
) -> String {
    let mut out = format!(
        "{{\"kind\":\"meta\",\"seed\":{},\"seconds\":{},\"managers\":{},\"hosts\":{},\
         \"users\":{},\"check_quorum\":{check_quorum},\"intensity\":{},\"control\":{},\
         \"inject_bug\":\"{}\",\"tenants\":{},\"shards_per_tenant\":{}}}\n",
        config.seed,
        config.horizon.as_secs_f64(),
        manager_count(config),
        config.hosts,
        config.users,
        config.intensity,
        plan.is_none(),
        bug_name(config.inject_bug),
        config.tenants,
        config.shards_per_tenant,
    );
    if let Some(plan) = plan {
        for fault in &plan.faults {
            out.push_str(&json_line("fault", "desc", &fault.to_string()));
        }
        for step in &live.lifecycle {
            out.push_str(&json_line("lifecycle", "desc", step));
        }
    }
    let stats = &report.oracle_stats;
    out.push_str(&format!(
        "{{\"kind\":\"oracle\",\"allows\":{},\"revokes\":{},\"handoffs\":{},\"installs\":{},\
         \"trace_events\":{},\"digest\":{},\"violations\":{}}}\n",
        stats.allows,
        stats.revokes,
        stats.shard_handoffs,
        stats.shard_installs,
        live.trace_events,
        report.audit_digest,
        report.violations.len()
    ));
    for v in &report.violations {
        out.push_str(&json_line("violation", "detail", &v.to_string()));
    }
    for failure in &live.failures {
        out.push_str(&json_line("panic", "detail", failure));
    }
    let checks: Vec<String> = check_fields(&report.metrics)
        .iter()
        .map(|(key, value)| format!("\"{key}\":{value}"))
        .collect();
    out.push_str(&format!("{{\"kind\":\"checks\",{}}}\n", checks.join(",")));
    let users = report.user_stats;
    out.push_str(&format!(
        "{{\"kind\":\"outcome\",\"clean\":{},\"sent\":{},\"allowed\":{},\"denied\":{},\
         \"unavailable\":{},\"timeouts\":{}}}\n",
        report.is_clean() && live.failures.is_empty(),
        users.sent,
        users.allowed,
        users.denied,
        users.unavailable,
        users.timeouts
    ));
    out
}

/// Runs a short standard deployment and exports its full metrics
/// snapshot — the same registry (DESIGN.md §11) the simulator campaigns
/// and the live rt runtime emit — as Prometheus text or JSONL.
fn obs(mut flags: Flags) {
    let managers: usize = flags.get_in("managers", 3, 1..);
    let hosts: usize = flags.get_in("hosts", 2, 1..);
    let users: usize = flags.get("users", 3);
    let c: usize = flags.get_in("check-quorum", (managers / 2).max(1), 1..=managers);
    let minutes: u64 = flags.get("minutes", 2);
    let pi: f64 = flags.get_in("pi", 0.1, 0.0..=1.0);
    let seed: u64 = flags.get("seed", 1);
    let ns_replicas: usize = flags.get("ns-replicas", 0);
    let ns_read_quorum: usize = flags.get_in("ns-read-quorum", 0, 0..=ns_replicas);
    let format = flags.text("format").unwrap_or_else(|| "prometheus".to_owned());
    let out = flags.text("out");
    flags.done();

    let policy = Policy::builder(c)
        .revocation_bound(SimDuration::from_secs(20))
        .query_timeout(SimDuration::from_millis(400))
        .max_attempts(3)
        .build();
    let net = wanacl::sim::net::WanNet::builder()
        .uniform_delay(SimDuration::from_millis(20), SimDuration::from_millis(80))
        .partitions(Box::new(wanacl::sim::net::partition::EpochIid::new(
            pi,
            SimDuration::from_secs(10),
            seed ^ 0xdead,
        )))
        .build();
    let mut scenario = Scenario::builder(seed)
        .managers(managers)
        .hosts(hosts)
        .users(users)
        .policy(policy)
        .all_users_granted()
        .workload(SimDuration::from_secs(2))
        .net(Box::new(net));
    if ns_replicas > 0 {
        // Short TTL so lookup latency, quorum rounds, and refresh churn
        // all show up in the ns.* metric rows within a couple minutes.
        scenario =
            scenario.with_replicated_directory(ns_replicas, ns_read_quorum, SimDuration::from_secs(15));
    }
    let mut d = scenario.build();
    d.run_for(SimDuration::from_secs(minutes * 60));
    // Exercise the revocation path too, so mgr.* metrics show up.
    d.revoke(UserId(1), Right::Use);
    d.run_for(SimDuration::from_secs(30));

    let metrics = d.world.metrics();
    let rendered = match format.as_str() {
        "prometheus" | "prom" => prometheus_text(metrics),
        "jsonl" => metrics_jsonl(metrics, &format!("seed-{seed}")),
        other => usage_error(&format!("unknown --format {other} (expected: prometheus or jsonl)")),
    };
    match out {
        Some(path) => {
            write_or_exit(&path, rendered);
            println!("metrics snapshot ({format}) -> {path}");
        }
        None => print!("{rendered}"),
    }
}

fn audit(mut flags: Flags) {
    let seed: u64 = flags.get("seed", 7);
    flags.done();
    let te = SimDuration::from_secs(20);
    let policy = Policy::builder(2)
        .revocation_bound(te)
        .query_timeout(SimDuration::from_millis(300))
        .max_attempts(2)
        .build();
    let oracle = InvariantOracle::new(&policy, SimDuration::ZERO);
    let mut d = Scenario::builder(seed)
        .managers(3)
        .hosts(2)
        .users(3)
        .policy(policy)
        .all_users_granted()
        .workload(SimDuration::from_secs(2))
        .build();
    let oracle = d.world.add_observer(Box::new(oracle));
    d.run_for(SimDuration::from_secs(30));
    d.revoke(UserId(1), Right::Use);
    d.run_for(SimDuration::from_secs(90));

    let oracle = d.world.observer_as::<InvariantOracle>(oracle);
    let stats = oracle.stats();
    println!("audit: {} allows, {} stable revokes recorded", stats.allows, stats.revokes);
    if let Some(v) = oracle.violations().first() {
        println!("VIOLATION: {v}");
        std::process::exit(1);
    }
    println!("bounded-revocation invariant HOLDS (Te = {te})");
}
