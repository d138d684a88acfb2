//! The live executor of a campaign: the [`Roster`] the simulator
//! installs on a `World`, installed on the worker pool instead, and the
//! soak that replays a [`NemesisPlan`] against it over wall-clock time.
//!
//! [`run_live_campaign`] is the threaded twin of
//! `wanacl_core::campaign::run_with_plan`: same [`CampaignConfig`], same
//! roster, same admin script, same rebalance kickoffs, same oracle — so
//! flat versus sharded is data, not a second driver.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wanacl_core::campaign::{arm_campaign, campaign_scenario, CampaignConfig, InjectedBug};
use wanacl_core::client::{UserAgent, UserStats};
use wanacl_core::manager::ManagerConfig;
use wanacl_core::msg::ProtoMsg;
use wanacl_core::oracle::InvariantOracle;
use wanacl_core::policy::{Policy, PolicyBuilder};
use wanacl_core::scenario::{Layout, Roster, RosterNode};
use wanacl_sim::metrics::Metrics;
use wanacl_sim::nemesis::NemesisPlan;
use wanacl_sim::node::NodeId;
use wanacl_sim::storage::FileStorage;
use wanacl_sim::time::{SimDuration, SimTime};

use crate::chaos::ChaosRouter;
use crate::runtime::{NodeFactory, RtNode, RuntimeBuilder, RuntimeError};

/// The policy live deployments run: Te = 2 s on undrifting wall clocks,
/// 100 ms query timeout, two attempts, 500 ms cache sweeps.
pub fn live_policy(check_quorum: usize) -> PolicyBuilder {
    Policy::builder(check_quorum)
        .revocation_bound(SimDuration::from_secs(2))
        .clock_rate_bound(1.0)
        .query_timeout(SimDuration::from_millis(100))
        .max_attempts(2)
        .cache_sweep_interval(SimDuration::from_millis(500))
}

/// Manager timers fast enough for second-scale live runs (pass to
/// `Scenario::manager_tuning`).
pub fn live_manager_tuning() -> ManagerConfig {
    ManagerConfig {
        retry_interval: SimDuration::from_millis(100),
        retry_cap: SimDuration::from_secs(2),
        heartbeat_interval: SimDuration::from_millis(100),
        grant_sweep_interval: SimDuration::from_millis(500),
        snapshot_every: 8,
        ..ManagerConfig::default()
    }
}

/// Installs a roster on the live runtime, node ids as laid out, by the
/// simulator's stream rule: the runtime's root seed becomes
/// `roster.seed`, and each node runs on the clock its entry draws from
/// its own stream. Every manager is restartable: its factory rebuilds
/// it from the roster's recipe and attaches whatever
/// `open_storage(manager index)` returns — reopening the same directory
/// there is what lets [`Runtime::restart`](crate::Runtime::restart)
/// recover from the WAL, and a directory that cannot be opened fails the
/// restart. All other nodes are added as they are. Fails if a manager's
/// storage cannot be opened in the first place.
pub fn install_roster(
    builder: &mut RuntimeBuilder<ProtoMsg>,
    roster: Roster,
    open_storage: impl Fn(usize) -> std::io::Result<Option<FileStorage>> + Send + Sync + 'static,
) -> Result<Layout, String> {
    builder.seed = roster.seed;
    let open_storage = Arc::new(open_storage);
    for (index, entry) in roster.entries.into_iter().enumerate() {
        let (node, factory): (Box<dyn RtNode<ProtoMsg>>, _) = match entry.node {
            RosterNode::Manager(spec) => {
                let open_storage = open_storage.clone();
                let factory: NodeFactory<ProtoMsg> = Arc::new(move || {
                    let mut node = spec.build();
                    let storage = open_storage(index)
                        .map_err(|e| format!("cannot open the storage of manager {index}: {e}"))?;
                    if let Some(storage) = storage {
                        node.set_storage(Box::new(storage));
                    }
                    Ok(Box::new(node))
                });
                (factory()?, Some(factory))
            }
            RosterNode::Directory(node) => (Box::new(node), None),
            RosterNode::Host(node) => (Box::new(node), None),
            RosterNode::User(node) => (Box::new(node), None),
            RosterNode::Admin(node) => (Box::new(node), None),
        };
        builder.push(entry.name, node, factory, entry.clock);
    }
    Ok(roster.layout)
}

/// Timing tolerance the live oracle grants: wall-clock jitter (thread
/// scheduling, sleep overshoot) the deterministic simulator never has.
const LIVE_ORACLE_SLACK: SimDuration = SimDuration::from_millis(1_000);

/// The outcome of one live soak.
#[derive(Debug)]
pub struct LiveReport {
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Every scheduled step, stamped with when it actually fired.
    pub lifecycle: Vec<String>,
    /// The campaign oracle after replaying the captured live trace.
    pub oracle: InvariantOracle,
    /// Number of trace events the oracle saw.
    pub trace_events: usize,
    /// Nodes that panicked or could not be restarted — a failed soak
    /// even when the oracle is clean.
    pub failures: Vec<String>,
    /// Aggregate user-visible outcomes.
    pub user_stats: UserStats,
    /// The deployment-wide metric bag at shutdown.
    pub metrics: Metrics,
}

impl LiveReport {
    /// No invariant violated and no node lost.
    pub fn is_clean(&self) -> bool {
        self.oracle.is_clean() && self.failures.is_empty()
    }
}

enum Step {
    Inject(NodeId, ProtoMsg),
    Crash(NodeId),
    Recover(NodeId),
    Kill(NodeId),
    Restart(NodeId),
}

/// Runs one campaign on the live runtime: the config's roster (fast
/// manager timers, managers on fresh [`FileStorage`] WALs), the plan's
/// network faults replayed by a [`ChaosRouter`], its outages and the
/// armed kickoffs dispatched against the wall clock, and — the live
/// extra — a process-death kill/restart of manager 0 at 0.40 × horizon
/// (recovery from the WAL) plus a crash/recover of it at 0.65. The run
/// drains for 2·Te past the horizon, then the captured trace feeds the
/// campaign oracle.
///
/// `plan = None` is the fault-free control: no chaos transport, no
/// outages, no manager-0 cycle. Of the planted bugs only
/// [`InjectedBug::DropWal`] has a live form (the manager's storage
/// forgets its state on recovery); callers reject the others.
pub fn run_live_campaign(
    config: &CampaignConfig,
    plan: Option<&NemesisPlan>,
    workers: usize,
) -> Result<LiveReport, RuntimeError> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let horizon = SimTime::ZERO + config.horizon;
    let quiet = NemesisPlan::builder(horizon).build();
    let faults = plan.unwrap_or(&quiet);

    let mut roster = campaign_scenario(config)
        .manager_tuning(live_manager_tuning())
        .roster();
    let armed = arm_campaign(config, faults, &mut roster, LIVE_ORACLE_SLACK);

    // Fresh WAL directories per run; managers respawn from them.
    let wal_dir: PathBuf = std::env::temp_dir().join(format!(
        "wanacl-live-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir)
        .map_err(|source| RuntimeError::WalDir { path: wal_dir.clone(), source })?;

    let mut builder: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(config.seed);
    if workers > 0 {
        builder.workers(workers);
    }
    let traces = builder.capture_traces();
    let sink = builder.metrics().clone();
    let drop_wal = match config.inject_bug {
        Some(InjectedBug::DropWal { manager_index }) => Some(manager_index),
        _ => None,
    };
    let layout = install_roster(&mut builder, roster, {
        let (dir, sink) = (wal_dir.clone(), sink.clone());
        move |i| {
            let mut storage = FileStorage::open(dir.join(format!("m{i}")))?.with_metrics(sink.clone());
            storage.set_drop_state_on_recover(drop_wal == Some(i));
            Ok(Some(storage))
        }
    })
    .map_err(|e| {
        let _ = std::fs::remove_dir_all(&wal_dir);
        RuntimeError::WalDir { path: wal_dir.clone(), source: std::io::Error::other(e) }
    })?;
    let net_faults = faults.net_faults();
    if !net_faults.is_empty() {
        let (seed, sink) = (config.seed, sink.clone());
        builder
            .wrap_transport(move |router| Ok(ChaosRouter::new(router, net_faults, seed, sink)?));
    }
    let mut rt = builder.try_start().inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&wal_dir);
    })?;
    let workers = rt.workers();
    let epoch = rt.epoch();

    // The schedule, as offsets from the epoch. Injections travel the
    // env channel, which bypasses chaos, exactly as the simulator's
    // `World::inject` bypasses the faulty net.
    let offset = |at: SimTime| Duration::from_secs_f64(at.as_secs_f64());
    let mut schedule: Vec<(Duration, Step)> = armed
        .injections
        .into_iter()
        .map(|(at, node, msg)| (offset(at), Step::Inject(node, msg)))
        .collect();
    for (node, down, up) in faults.outages() {
        schedule.push((offset(down), Step::Crash(node)));
        schedule.push((offset(up), Step::Recover(node)));
    }
    if plan.is_some() {
        let victim = layout.managers[0];
        let kill_at = offset(SimTime::ZERO + config.horizon.mul_f64(0.40));
        schedule.push((kill_at, Step::Kill(victim)));
        schedule.push((kill_at + Duration::from_millis(300), Step::Restart(victim)));
        let crash_at = offset(SimTime::ZERO + config.horizon.mul_f64(0.65));
        schedule.push((crash_at, Step::Crash(victim)));
        schedule.push((crash_at + Duration::from_millis(200), Step::Recover(victim)));
    }
    schedule.sort_by_key(|(at, _)| *at);

    let (mut lifecycle, mut failures) = (Vec::new(), Vec::new());
    for (at, step) in schedule {
        std::thread::sleep(at.saturating_sub(epoch.elapsed()));
        let stamp = epoch.elapsed().as_secs_f64();
        lifecycle.push(match step {
            Step::Inject(n, msg) => {
                let what = match &msg {
                    ProtoMsg::ShardHandoff { shard, epoch, .. } => {
                        format!("handoff kickoff (shard {}, map v{epoch})", shard.0)
                    }
                    _ => "directory republish".to_owned(),
                };
                rt.send_from_env(n, msg);
                format!("{what} -> {n} at {stamp:.2}s")
            }
            Step::Crash(n) => {
                rt.crash(n);
                format!("crash {n} at {stamp:.2}s")
            }
            Step::Recover(n) => {
                rt.recover(n);
                format!("recover {n} at {stamp:.2}s")
            }
            Step::Kill(n) => match rt.kill(n) {
                Ok(exit) => format!("kill {n} at {stamp:.2}s ({exit:?})"),
                Err(e) => format!("kill {n} at {stamp:.2}s FAILED: {e}"),
            },
            Step::Restart(n) => match rt.restart(n) {
                Ok(()) => format!("restart {n} at {stamp:.2}s"),
                Err(e) => {
                    failures.push(format!("node {} failed to restart: {e}", n.index()));
                    format!("restart {n} at {stamp:.2}s FAILED: {e}")
                }
            },
        });
    }
    // Drain tail: run past the horizon so residual leases expire and
    // retransmissions settle, mirroring the simulated campaign.
    let te = config.policy.revocation_bound();
    std::thread::sleep(offset(horizon + te + te).saturating_sub(epoch.elapsed()));

    let results = rt.shutdown();
    let metrics = sink.snapshot();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut oracle = armed.oracle;
    let trace_events = traces.replay_into(&mut oracle);

    for (i, result) in results.iter().enumerate() {
        if let Err(msg) = result {
            failures.push(format!("node {i} panicked: {msg}"));
        }
    }
    let mut user_stats = UserStats::default();
    for (_, id) in &layout.users {
        if let Ok((_, node)) = &results[id.index()] {
            match node.as_any().downcast_ref::<UserAgent>() {
                Some(agent) => user_stats += agent.stats(),
                None => failures.push(format!("node {} is not a user agent", id.index())),
            }
        }
    }
    Ok(LiveReport {
        workers,
        lifecycle,
        oracle,
        trace_events,
        failures,
        user_stats,
        metrics,
    })
}
