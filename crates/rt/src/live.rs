//! The live executor of a campaign: the [`Roster`] the simulator
//! installs on a `World`, installed on the worker pool instead, and the
//! soak that replays a [`NemesisPlan`] against it over wall-clock time.
//!
//! [`run_live_campaign`] is the threaded twin of
//! `wanacl_core::campaign::run_with_plan`. Both call
//! [`arm_campaign`] — the one reader of a plan — on the same
//! [`CampaignConfig`]'s roster, so both run the same roster with the
//! same node settings, the same timeline of kickoffs and outages, the
//! same net faults and the same oracle, and both report through
//! [`campaign_report`]. What is live alone is the wall-clock dispatch of
//! that timeline, the manager-0 kill cycle, and the [`LiveReport`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wanacl_core::campaign::{
    arm_campaign, campaign_report, campaign_scenario, CampaignArming, CampaignConfig,
    CampaignReport, CampaignStep, FinishedNodes, InjectedBug,
};
use wanacl_core::manager::ManagerConfig;
use wanacl_core::msg::ProtoMsg;
use wanacl_core::policy::{Policy, PolicyBuilder};
use wanacl_core::scenario::{Layout, Roster, RosterNode};
use wanacl_sim::nemesis::NemesisPlan;
use wanacl_sim::node::NodeId;
use wanacl_sim::storage::FileStorage;
use wanacl_sim::time::{SimDuration, SimTime};

use crate::chaos::ChaosRouter;
use crate::runtime::{NodeFactory, RtNode, Runtime, RuntimeBuilder, RuntimeError};

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

/// What a live soak has beyond its [`CampaignReport`].
#[derive(Debug)]
pub struct LiveReport {
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Every scheduled step, stamped with when it actually fired.
    pub lifecycle: Vec<String>,
    /// Number of trace events the oracle saw.
    pub trace_events: usize,
    /// Nodes that panicked or could not be killed or restarted — a
    /// failed soak even when the oracle is clean.
    pub failures: Vec<String>,
}

/// One step of a soak's schedule: an armed timeline step, or half of
/// the manager-0 process-death cycle.
enum Step {
    Armed(CampaignStep),
    Kill(NodeId),
    Restart(NodeId),
}

/// Runs one campaign on the live runtime: the config's roster (fast
/// manager timers, managers on fresh [`FileStorage`] WALs), the plan's
/// network faults replayed by a [`ChaosRouter`], the armed timeline
/// dispatched against the wall clock, and — the live extra — a
/// process-death kill/restart of manager 0 at 0.40 × horizon (recovery
/// from the WAL) plus a crash/recover of it at 0.65. The run ends at the
/// later of the arming's `drain_until` and `settle_by`, then the
/// captured trace feeds the campaign oracle and the finished nodes are
/// judged settled. The plan's disk faults are not armed: a [`FileStorage`] has
/// no fault model. Returns the run's [`CampaignReport`], built as the
/// simulator builds it, beside the [`LiveReport`]. The soak is clean
/// when the report is and no node failed.
///
/// `plan = None` is the fault-free control: an empty plan and no
/// manager-0 cycle. Of the planted bugs only [`InjectedBug::DropWal`]
/// has a live form (the manager's storage forgets its state on
/// recovery); callers reject the others.
pub fn run_live_campaign(
    config: &CampaignConfig,
    plan: Option<&NemesisPlan>,
    workers: usize,
) -> Result<(CampaignReport, LiveReport), RuntimeError> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let quiet = NemesisPlan::builder(SimTime::ZERO + config.horizon).build();
    let faults = plan.unwrap_or(&quiet);

    let roster = campaign_scenario(config).manager_tuning(live_manager_tuning()).roster();
    let CampaignArming { roster, timeline, net_faults, mut oracle, drain_until, settle_by, .. } =
        arm_campaign(config, faults, roster, LIVE_ORACLE_SLACK);

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
    if !net_faults.is_empty() {
        let (seed, sink) = (config.seed, sink.clone());
        builder
            .wrap_transport(move |router| Ok(ChaosRouter::new(router, net_faults, seed, sink)?));
    }
    let mut rt = builder.try_start().inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&wal_dir);
    })?;
    let workers = rt.workers();

    // The schedule, as offsets from the epoch.
    let offset = |at: SimTime| Duration::from_secs_f64(at.as_secs_f64());
    let mut schedule: Vec<(Duration, Step)> =
        timeline.into_iter().map(|(at, step)| (offset(at), Step::Armed(step))).collect();
    if plan.is_some() {
        let victim = layout.managers[0];
        let kill_at = offset(SimTime::ZERO + config.horizon.mul_f64(0.40));
        schedule.push((kill_at, Step::Kill(victim)));
        schedule.push((kill_at + Duration::from_millis(300), Step::Restart(victim)));
        let crash_at = offset(SimTime::ZERO + config.horizon.mul_f64(0.65));
        schedule.push((crash_at, Step::Armed(CampaignStep::Crash(victim))));
        let recover_at = crash_at + Duration::from_millis(200);
        schedule.push((recover_at, Step::Armed(CampaignStep::Recover(victim))));
    }
    schedule.sort_by_key(|(at, _)| *at);
    let (lifecycle, mut failures) = dispatch(&mut rt, schedule);

    // The run ends where the arming says. It cannot watch the nodes
    // settle, so it waits out the later of the two deadlines.
    std::thread::sleep(offset(drain_until.max(settle_by)).saturating_sub(rt.epoch().elapsed()));

    let results = rt.shutdown();
    let metrics = sink.snapshot();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let trace_events = traces.replay_into(&mut oracle);
    for (i, result) in results.iter().enumerate() {
        if let Err(msg) = result {
            failures.push(format!("node {i} panicked: {msg}"));
        }
    }
    let nodes = results.iter().map(|result| result.as_ref().ok().map(|(_, node)| node.as_any())).collect();
    let finished = FinishedNodes { layout: &layout, nodes };
    let report = campaign_report(config, faults, &oracle, metrics, &finished);
    Ok((report, LiveReport { workers, lifecycle, trace_events, failures }))
}

/// Sleeps to each step of a time-sorted schedule (offsets from the
/// runtime's epoch) and performs it. Injections travel the env channel,
/// which bypasses chaos exactly as the simulator's `World::inject`
/// bypasses the faulty net. Returns the lifecycle lines and the node
/// failures the steps met: a node that cannot be killed (it panicked
/// first) or restarted.
fn dispatch(
    rt: &mut Runtime<ProtoMsg>,
    schedule: Vec<(Duration, Step)>,
) -> (Vec<String>, Vec<String>) {
    let epoch = rt.epoch();
    let (mut lifecycle, mut failures) = (Vec::new(), Vec::new());
    for (at, step) in schedule {
        std::thread::sleep(at.saturating_sub(epoch.elapsed()));
        let stamp = epoch.elapsed().as_secs_f64();
        lifecycle.push(match step {
            Step::Armed(CampaignStep::Inject(n, msg)) => {
                let what = match &msg {
                    ProtoMsg::ShardHandoff { shard, epoch, .. } => {
                        format!("handoff kickoff (shard {}, map v{epoch})", shard.0)
                    }
                    _ => "directory republish".to_owned(),
                };
                rt.send_from_env(n, msg);
                format!("{what} -> {n} at {stamp:.2}s")
            }
            Step::Armed(CampaignStep::Crash(n)) => {
                rt.crash(n);
                format!("crash {n} at {stamp:.2}s")
            }
            Step::Armed(CampaignStep::Recover(n)) => {
                rt.recover(n);
                format!("recover {n} at {stamp:.2}s")
            }
            Step::Kill(n) => match rt.kill(n) {
                Ok(exit) => format!("kill {n} at {stamp:.2}s ({exit:?})"),
                Err(e) => {
                    failures.push(format!("node {} could not be killed: {e}", n.index()));
                    format!("kill {n} at {stamp:.2}s FAILED: {e}")
                }
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
    (lifecycle, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanacl_sim::node::Context;

    /// A node that panics as it starts, if told to.
    struct Doomed(bool);

    impl wanacl_sim::node::Node for Doomed {
        type Msg = ProtoMsg;

        fn on_start(&mut self, _ctx: &mut Context<'_, ProtoMsg>) {
            assert!(!self.0, "doomed on start");
        }

        fn on_message(&mut self, _ctx: &mut Context<'_, ProtoMsg>, _from: NodeId, _msg: ProtoMsg) {}

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A node that panicked before its scheduled kill fails the soak,
    /// even though the restart that follows replaces it with a fresh,
    /// running instance that shuts down cleanly.
    #[test]
    fn a_node_that_panicked_before_its_kill_fails_the_soak() {
        let mut builder: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(1);
        builder.workers(1);
        let built = AtomicUsize::new(0);
        let factory: NodeFactory<ProtoMsg> =
            Arc::new(move || Ok(Box::new(Doomed(built.fetch_add(1, Ordering::Relaxed) == 0))));
        let node = builder.add_node_with_factory("doomed", factory).expect("factory builds");
        let mut rt = builder.start();
        let schedule = [Step::Kill(node), Step::Restart(node)].map(|step| (Duration::ZERO, step));
        let (lifecycle, failures) = dispatch(&mut rt, schedule.into());
        assert!(lifecycle[0].contains("FAILED: doomed on start"), "{lifecycle:?}");
        assert!(lifecycle[1].starts_with("restart"), "{lifecycle:?}");
        assert_eq!(failures, ["node 0 could not be killed: doomed on start"]);
        assert!(rt.shutdown()[0].is_ok(), "the restarted incarnation stops cleanly");
    }
}
