//! Nemesis campaigns: run the full protocol under a randomized
//! adversarial schedule with the [`InvariantOracle`] watching.
//!
//! A campaign is a pure function of a [`CampaignConfig`]: the same seed
//! reproduces the same deployment, the same [`NemesisPlan`], and the
//! same event schedule, so a violation report is a *replayable
//! counterexample* — `(seed, plan, event index)` identifies the exact
//! offending event in any rerun. [`shrink_plan`] then greedily minimizes
//! the plan while the violation persists, the way property-testing
//! shrinkers minimize failing inputs.

use std::sync::atomic::{AtomicUsize, Ordering};

use wanacl_sim::clock::ClockSpec;
use wanacl_sim::metrics::{MetricId, Metrics};
use wanacl_sim::nemesis::{FaultMix, NemesisPlan, NemesisTargets};
use wanacl_sim::net::WanNet;
use wanacl_sim::node::NodeId;
use wanacl_sim::rng::SimRng;
use wanacl_sim::storage::{DiskFaultModel, SimStorage};
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::world::ObserverId;

use crate::client::AdminAction;
use crate::manager::ManagerNode;
use crate::msg::{AclOp, ProtoMsg};
use crate::nameservice::DirectoryReplica;
use crate::oracle::{InvariantOracle, OracleStats, OracleViolation};
use crate::policy::Policy;
use crate::scenario::{Deployment, Layout, Roster, Scenario};
use crate::types::{AppId, Right, ShardId, UserId};

/// A deliberately planted protocol bug, for proving the oracle catches
/// real unsafety (a campaign harness that never fires is worthless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// One host's ACL cache stops expiring entries (see
    /// [`crate::cache::AclCache::set_ignore_expiry`]): revoked rights
    /// keep being honoured from cache far past `Te`.
    IgnoreCacheExpiry {
        /// Which host (0-based) carries the bug.
        host_index: usize,
    },
    /// One manager's stable storage silently discards its WAL and
    /// snapshot on recovery while still claiming a disk recovery (see
    /// [`SimStorage::set_drop_state_on_recover`]): acked — hence
    /// durably promised — operations vanish across a crash, which the
    /// oracle's durability invariant must catch.
    DropWal {
        /// Which manager (0-based) carries the bug.
        manager_index: usize,
    },
    /// One host skips record-signature verification on directory quorum
    /// reads (see [`crate::host::HostNode::inject_ns_trust_unsigned`]): a malicious
    /// replica's forged or rolled-back record installs as if legitimate,
    /// which the oracle's directory-integrity invariant must catch.
    NsTrustUnsigned {
        /// Which host (0-based) carries the bug.
        host_index: usize,
    },
    /// One manager silently drops the tail operation of every shard
    /// transfer it installs (see
    /// [`crate::manager::ManagerNode::set_drop_handoff_tail`]): a grant
    /// or revoke handed over during an online rebalance vanishes on the
    /// new owner, which the oracle's rebalance-safety invariant (I9)
    /// must catch through the diverged install digest. Sharded
    /// campaigns force one rebalance onto the bugged manager so the bug
    /// always has a handoff to corrupt.
    LostHandoff {
        /// Which manager (0-based) carries the bug.
        manager_index: usize,
    },
}

/// Everything that defines one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: deployment, workload, admin schedule, and nemesis
    /// plan all derive from it.
    pub seed: u64,
    /// Number of ACL managers.
    pub managers: usize,
    /// Number of application hosts.
    pub hosts: usize,
    /// Number of users issuing requests.
    pub users: usize,
    /// The per-application policy every node runs.
    pub policy: Policy,
    /// Fault-injection horizon; the world runs a drain tail beyond it
    /// so post-fault residual accesses are still checked.
    pub horizon: SimDuration,
    /// Fault density (1.0 ≈ one fault per 5 s of horizon).
    pub intensity: f64,
    /// Route host→manager discovery through a replicated, signed
    /// directory with this many replicas (0 = off, static manager
    /// lists; 1 = the paper's single name service). Hosts then install
    /// manager sets only from verified quorum reads.
    pub ns_replicas: usize,
    /// Verified replies a directory quorum read needs (0 = majority of
    /// `ns_replicas`).
    pub ns_read_quorum: usize,
    /// Let the nemesis plan draw directory faults too: stale replicas,
    /// split-brain cuts, malicious partial masters, and replica
    /// crash-restarts (requires `ns_replicas > 0` to have any effect).
    pub ns_faults: bool,
    /// Let the nemesis plan draw storage faults too: per-manager disk
    /// degradation ([`wanacl_sim::nemesis::Fault::DiskFault`]) and
    /// correlated crash-restarts of manager groups up to the whole
    /// cluster ([`wanacl_sim::nemesis::Fault::ClusterRestart`]).
    pub disk_faults: bool,
    /// Number of tenants (0 = one app whose whole keyspace is one shard
    /// over all `managers`). When positive each tenant is its own
    /// application, its user keyspace
    /// splits into [`CampaignConfig::shards_per_tenant`] bucket-range
    /// shards, every shard is served by its own two-manager set, and
    /// `managers` is ignored (the layout is `2 × tenants ×
    /// shards_per_tenant`). Requires `ns_replicas > 0` — the shard map
    /// lives in the replicated directory.
    pub tenants: usize,
    /// Shards per tenant in sharded mode (ignored when `tenants == 0`).
    pub shards_per_tenant: usize,
    /// Let the nemesis plan draw shard faults too: online rebalances
    /// racing the network faults
    /// ([`wanacl_sim::nemesis::Fault::ShardRebalance`]) and hosts pinned
    /// to a stale shard map
    /// ([`wanacl_sim::nemesis::Fault::StaleShardMap`]). Only effective
    /// in sharded mode.
    pub shard_faults: bool,
    /// Optional planted bug.
    pub inject_bug: Option<InjectedBug>,
}

impl CampaignConfig {
    /// A policy tuned for short campaigns: C = 2, Te = 2 s, b = 0.9,
    /// tight timeouts, fail-closed, frequent cache sweeps.
    pub fn default_policy() -> Policy {
        Policy::builder(2)
            .revocation_bound(SimDuration::from_secs(2))
            .clock_rate_bound(0.9)
            .query_timeout(SimDuration::from_millis(250))
            .max_attempts(3)
            .cache_sweep_interval(SimDuration::from_millis(500))
            .build()
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            managers: 3,
            hosts: 2,
            users: 2,
            policy: Self::default_policy(),
            horizon: SimDuration::from_secs(10),
            intensity: 1.0,
            ns_replicas: 0,
            ns_read_quorum: 0,
            ns_faults: false,
            disk_faults: false,
            tenants: 0,
            shards_per_tenant: 1,
            shard_faults: false,
            inject_bug: None,
        }
    }
}

/// The outcome of one campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// The seed that produced everything below.
    pub seed: u64,
    /// The nemesis plan that ran.
    pub plan: NemesisPlan,
    /// Invariant violations the oracle caught (empty = safe run).
    pub violations: Vec<OracleViolation>,
    /// How much evidence the oracle checked.
    pub oracle_stats: OracleStats,
    /// Aggregate user-visible outcomes.
    pub user_stats: crate::client::UserStats,
    /// Order-sensitive FNV-1a fingerprint of every audit note the oracle
    /// saw (see [`InvariantOracle::audit_digest`]). Two runs of the same
    /// seed must agree on this — it is how the parallel executor proves
    /// each worker's world stayed bit-for-bit deterministic.
    pub audit_digest: u64,
    /// The world's full metric bag at the end of the run (every
    /// `ctx.metric_incr`/`metric_observe` the nodes emitted, plus the
    /// world's own `net.*`/`node.*` accounting), storage included:
    /// `mgr.wal_appends`, `mgr.snapshot_writes`, `mgr.recovered_from_disk`.
    /// Deterministic per seed, so rollups merged in seed order are
    /// bit-identical regardless of `--jobs`.
    pub metrics: Metrics,
}

impl CampaignReport {
    /// Whether the run broke no invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the replayable counterexample (or a clean summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "seed {}: clean — {} allows checked ({} quorum, {} cache, {} fail-open), {} revokes observed\n",
                self.seed,
                self.oracle_stats.allows,
                self.oracle_stats.quorum_allows,
                self.oracle_stats.cache_allows,
                self.oracle_stats.fail_open_allows,
                self.oracle_stats.revokes,
            ));
            let m = &self.metrics;
            out.push_str(&format!(
                "  storage: {} WAL appends, {} snapshots, {} disk recoveries\n",
                m.counter(MetricId::MGR_WAL_APPENDS),
                m.counter(MetricId::MGR_SNAPSHOT_WRITES),
                m.counter(MetricId::MGR_RECOVERED_FROM_DISK),
            ));
        } else {
            out.push_str(&format!(
                "seed {}: {} violation(s)\n",
                self.seed,
                self.violations.len()
            ));
            for v in &self.violations {
                out.push_str(&format!("  {v}\n"));
            }
            out.push_str("replay with:\n");
            out.push_str(&format!(
                "  wanacl nemesis --seed {} (event #{} is the offense)\n",
                self.seed, self.violations[0].event_index
            ));
        }
        out.push_str(&self.plan.describe());
        out
    }
}

/// The TTL directory replicas serve records with in campaigns (short,
/// so expiry/refresh churn happens many times per horizon).
pub const CAMPAIGN_NS_TTL: SimDuration = SimDuration::from_secs(2);

/// The effective directory read quorum a config implies (0 = majority).
fn effective_read_quorum(config: &CampaignConfig) -> usize {
    if config.ns_read_quorum == 0 {
        config.ns_replicas / 2 + 1
    } else {
        config.ns_read_quorum
    }
}

/// The number of managers a config actually deploys: the sharded
/// layout overrides `managers` with two per shard.
fn effective_managers(config: &CampaignConfig) -> usize {
    if config.tenants > 0 {
        2 * config.tenants * config.shards_per_tenant
    } else {
        config.managers
    }
}

/// The deterministic node layout a campaign deployment will get, known
/// before the world is built (managers first, then directory replicas,
/// then hosts — asserted against the real deployment). In sharded mode
/// `shard_managers[s]` lists the two genesis owners of global shard `s`.
pub fn campaign_targets(config: &CampaignConfig) -> NemesisTargets {
    let mgr_count = effective_managers(config);
    let managers: Vec<NodeId> = (0..mgr_count).map(NodeId::from_index).collect();
    let shard_managers: Vec<Vec<NodeId>> = if config.tenants > 0 {
        (0..config.tenants * config.shards_per_tenant)
            .map(|s| vec![NodeId::from_index(2 * s), NodeId::from_index(2 * s + 1)])
            .collect()
    } else {
        Vec::new()
    };
    let host_base = mgr_count + config.ns_replicas;
    let ns_replicas: Vec<NodeId> = (mgr_count..host_base).map(NodeId::from_index).collect();
    let hosts: Vec<NodeId> =
        (host_base..host_base + config.hosts).map(NodeId::from_index).collect();
    NemesisTargets { managers, hosts, ns_replicas, shard_managers }
}

/// Samples the nemesis plan the given config's seed implies: the
/// storage, directory and shard fault families join the mix as
/// `disk_faults`, `ns_faults` (with replicas) and `shard_faults` (with
/// tenants) ask. Without any of them the plan is byte-identical to what
/// earlier campaigns produced.
pub fn sample_plan(config: &CampaignConfig) -> NemesisPlan {
    let targets = campaign_targets(config);
    let horizon = SimTime::ZERO + config.horizon;
    let mut rng = SimRng::seed_from(config.seed ^ 0x6e65_6d65);
    let mix = FaultMix {
        storage: config.disk_faults,
        directory: config.ns_faults && config.ns_replicas > 0,
        shards: config.shard_faults && config.tenants > 0,
    };
    NemesisPlan::sample(&targets, horizon, config.intensity, &mut rng, mix)
}

/// Admin churn: every user gets its `use` right revoked and re-granted
/// at seed-deterministic times inside the horizon (the re-grant lands
/// no later than 0.9 × horizon), so the oracle's bounded-revocation
/// check has real revocations to bite on. In sharded mode the ops span
/// tenants — user `u` belongs to application `(u − 1) mod tenants` — so
/// every shard sees churn, including churn racing a rebalance of its
/// own keyspace.
fn admin_script(config: &CampaignConfig) -> Vec<AdminAction> {
    let mut rng = SimRng::seed_from(config.seed ^ 0x6164_6d69);
    let h = config.horizon.as_secs_f64();
    let mut script = Vec::new();
    for i in 1..=config.users {
        let user = UserId(i as u64);
        let app = if config.tenants > 0 {
            AppId(((i - 1) % config.tenants) as u32)
        } else {
            AppId(0)
        };
        let revoke_at = h * (0.2 + 0.4 * rng.unit());
        let regrant_at = revoke_at + h * (0.1 + 0.2 * rng.unit());
        script.push(AdminAction {
            delay: SimDuration::from_secs_f64(revoke_at),
            op: AclOp::Revoke { app, user, right: Right::Use },
        });
        script.push(AdminAction {
            delay: SimDuration::from_secs_f64(regrant_at),
            op: AclOp::Add { app, user, right: Right::Use },
        });
    }
    script
}

/// The deployment a campaign runs, on either executor: every user
/// granted and issuing a Poisson workload, the scripted admin churn,
/// drifting clocks, and the flat, replicated-directory or sharded
/// layout the config asks for. Its roster's node ids equal
/// [`campaign_targets`].
///
/// # Panics
///
/// Panics if the config asks for tenants without directory replicas.
pub fn campaign_scenario(config: &CampaignConfig) -> Scenario {
    let min_rate = config.policy.clock_rate_bound();
    let mut scenario = Scenario::builder(config.seed)
        .hosts(config.hosts)
        .users(config.users)
        .policy(config.policy.clone())
        .all_users_granted()
        .manager_clock(ClockSpec::RandomRate { min_rate })
        .host_clock(ClockSpec::RandomRate { min_rate })
        .workload(SimDuration::from_millis(300))
        .request_timeout(SimDuration::from_secs(5))
        .admin_script(admin_script(config));
    if config.tenants > 0 {
        assert!(
            config.ns_replicas > 0,
            "sharded campaigns need the replicated directory (the shard map lives there)"
        );
        scenario =
            scenario.tenants(config.tenants).shards_per_tenant(config.shards_per_tenant);
    } else {
        scenario = scenario.managers(config.managers);
    }
    if config.ns_replicas > 0 {
        scenario = scenario.with_replicated_directory(
            config.ns_replicas,
            config.ns_read_quorum,
            CAMPAIGN_NS_TTL,
        );
    }
    scenario
}

/// What a campaign adds to its roster that is the same whoever runs it.
#[derive(Debug)]
pub struct CampaignArming {
    /// Environment messages to deliver at campaign times, in the order
    /// to schedule them: the signed `ShardHandoff` kickoffs of every
    /// rebalance, or a one-shard deployment's mid-horizon republish.
    pub injections: Vec<(SimTime, NodeId, ProtoMsg)>,
    /// The oracle, armed with the directory shape and every shard-map
    /// version the run can legitimately route by.
    pub oracle: InvariantOracle,
}

/// Arms a campaign roster for `plan`, before any executor installs it:
/// pins the hosts a stale-shard-map fault names, turns the plan's
/// rebalances into kickoffs (ring-next targets, skipping moves an
/// earlier move made non-disjoint) while advancing `roster.layout`'s
/// shard maps, republishes a tenantless deployment's one-entry map to ONE
/// replica mid-horizon (anti-entropy must spread it — the path
/// stale-replica and split-brain faults attack), and builds the oracle,
/// every deployment's shard maps registered with it. `slack` is
/// the oracle's timing tolerance: zero under the simulator, wall-clock
/// jitter on live threads.
pub fn arm_campaign(
    config: &CampaignConfig,
    plan: &NemesisPlan,
    roster: &mut Roster,
    slack: SimDuration,
) -> CampaignArming {
    let mut oracle = InvariantOracle::new(&config.policy, slack);
    if config.ns_replicas > 0 {
        oracle.set_directory(config.ns_replicas, effective_read_quorum(config), CAMPAIGN_NS_TTL);
    }
    let mut injections = Vec::new();
    if config.tenants == 0 {
        let at = SimTime::ZERO + config.horizon.mul_f64(0.4);
        // `None` without a replicated directory: nothing to republish.
        let managers = roster.layout.managers.clone();
        if let Some((replica, msg)) = roster.layout.republish(0, 2, managers) {
            injections.push((at, replica, msg));
        }
    }

    // Every shard-map version the run publishes is one the oracle's
    // tenant-isolation check (I8) accepts: genesis, then one per move.
    let expect_maps = |oracle: &mut InvariantOracle, layout: &Layout| {
        for (app, (version, entries)) in &layout.shard_maps {
            oracle.expect_shard_map(*app, *version, entries);
        }
    };
    expect_maps(&mut oracle, &roster.layout);
    let total_shards: u32 = roster.layout.shard_maps.values().map(|(_, es)| es.len() as u32).sum();
    let mut moves: Vec<(u32, SimTime)> = plan.shard_rebalances();
    if let Some(InjectedBug::LostHandoff { manager_index }) = config.inject_bug {
        // Force one rebalance whose targets include the bugged
        // manager: with ring-next targeting, moving the ring-
        // *previous* shard lands on the bugged manager's set, so the
        // dropped tail always has a handoff to corrupt.
        let owned = (manager_index / 2) as u32;
        let victim = (owned + total_shards - 1) % total_shards;
        moves.push((victim, SimTime::ZERO + config.horizon.mul_f64(0.5)));
        moves.sort_by_key(|&(_, at)| at);
    }
    for (s, at) in moves {
        let shard = ShardId(s % total_shards);
        let sources = roster.layout.shard_owners(shard);
        let targets = roster.layout.shard_owners(ShardId((shard.0 + 1) % total_shards));
        if targets.iter().any(|t| sources.contains(t)) {
            continue;
        }
        let Some((recipients, kickoff)) = roster.layout.rebalance(shard, targets) else {
            continue;
        };
        for node in recipients {
            injections.push((at, node, kickoff.clone()));
        }
        expect_maps(&mut oracle, &roster.layout);
    }
    let apps: Vec<AppId> = roster.layout.shard_maps.keys().copied().collect();
    for host in plan.stale_shard_map_hosts() {
        for &app in &apps {
            roster.host_mut(host).set_pin_ns_version(app);
        }
    }
    CampaignArming { injections, oracle }
}

/// The simulator's half of a campaign: the faulty WAN, simulated disks,
/// the directory and planted-bug hooks that need a built node, and the
/// plan's crash/recover lifecycle.
fn build_deployment(
    config: &CampaignConfig,
    plan: &NemesisPlan,
) -> (Deployment, ObserverId) {
    let base = WanNet::builder()
        .uniform_delay(SimDuration::from_millis(10), SimDuration::from_millis(60))
        .loss(0.01)
        .build();
    let mut roster = campaign_scenario(config).roster();
    let CampaignArming { injections, oracle } =
        arm_campaign(config, plan, &mut roster, SimDuration::ZERO);
    let mut deployment = roster.into_deployment(Some(Box::new(plan.wrap_net(Box::new(base)))));

    // The arithmetic layout used for plan sampling must match reality.
    let targets = campaign_targets(config);
    assert_eq!(deployment.managers, targets.managers, "manager layout drifted");
    assert_eq!(deployment.hosts, targets.hosts, "host layout drifted");
    assert_eq!(deployment.ns_replicas, targets.ns_replicas, "replica layout drifted");

    // Every manager gets deterministic simulated stable storage: acks
    // become durable promises (fsync-before-ack), and crash recovery
    // replays snapshot + WAL locally before the delta peer sync. The
    // disks the plan targets degrade, and a planted drop-WAL bug forgets
    // its state on recovery.
    let disk_faults = plan.disk_faults();
    for (i, &mgr) in deployment.managers.clone().iter().enumerate() {
        let disk_seed = config.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut storage = SimStorage::new(disk_seed);
        for &(_, sync_fail_prob, torn_tail_prob) in disk_faults.iter().filter(|f| f.0 == mgr) {
            storage.set_fault_model(DiskFaultModel { sync_fail_prob, torn_tail_prob });
        }
        let drop_wal = Some(InjectedBug::DropWal { manager_index: i });
        storage.set_drop_state_on_recover(config.inject_bug == drop_wal);
        deployment.world.node_as_mut::<ManagerNode>(mgr).set_storage(Box::new(storage));
    }

    // Directory replicas get their own stable storage (so crash-restart
    // faults exercise WAL/snapshot recovery), then the plan's directory
    // faults are armed.
    for (i, &replica) in deployment.ns_replicas.clone().iter().enumerate() {
        let disk_seed =
            config.seed ^ 0x6e73_6469 ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        deployment
            .world
            .node_as_mut::<DirectoryReplica>(replica)
            .set_storage(Box::new(SimStorage::new(disk_seed)));
    }
    for replica in plan.stale_replicas() {
        deployment.world.node_as_mut::<DirectoryReplica>(replica).set_suppress_sync(true);
    }
    for (replica, window) in plan.malicious_replicas() {
        deployment.world.node_as_mut::<DirectoryReplica>(replica).set_malicious(window);
    }

    match config.inject_bug {
        Some(InjectedBug::IgnoreCacheExpiry { host_index }) => {
            let app = deployment.app;
            deployment.host_mut(host_index).inject_ignore_expiry(app);
        }
        Some(InjectedBug::NsTrustUnsigned { host_index }) => {
            deployment.host_mut(host_index).inject_ns_trust_unsigned();
        }
        Some(InjectedBug::LostHandoff { manager_index }) => {
            assert!(config.tenants > 0, "the lost-handoff bug needs a sharded deployment");
            deployment.manager_mut(manager_index).set_drop_handoff_tail(true);
        }
        Some(InjectedBug::DropWal { .. }) | None => {}
    }

    for (at, node, msg) in injections {
        deployment.world.inject(at, node, msg);
    }
    plan.install_lifecycle(&mut deployment.world);
    let oracle_id = deployment.world.add_observer(Box::new(oracle));
    (deployment, oracle_id)
}

/// Runs one campaign with the plan the seed implies.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let plan = sample_plan(config);
    run_with_plan(config, &plan)
}

/// Runs one campaign under an explicit plan (replay and shrinking).
pub fn run_with_plan(config: &CampaignConfig, plan: &NemesisPlan) -> CampaignReport {
    let (mut deployment, oracle_id) = build_deployment(config, plan);
    // Drain tail: any lease issued near the horizon is still live for up
    // to Te afterwards; keep the oracle watching until it must be dead.
    let total = config.horizon + config.policy.revocation_bound() + config.policy.revocation_bound();
    let chunk = SimDuration::from_nanos((total.as_nanos() / 40).max(1));
    let deadline = SimTime::ZERO + total;
    while deployment.world.now() < deadline {
        deployment.run_for(chunk);
        // Early exit: the first violation already carries the replay
        // coordinate; running on only piles up repeats.
        if !deployment.world.observer_as::<InvariantOracle>(oracle_id).is_clean() {
            break;
        }
    }
    let user_stats = deployment.aggregate_user_stats();
    let metrics = deployment.world.metrics().clone();
    let oracle = deployment.world.observer_as::<InvariantOracle>(oracle_id);
    CampaignReport {
        seed: config.seed,
        plan: plan.clone(),
        violations: oracle.violations().to_vec(),
        oracle_stats: oracle.stats(),
        user_stats,
        audit_digest: oracle.audit_digest(),
        metrics,
    }
}

/// Folds the per-seed metric bags of a sweep into one rollup, merging
/// in input (seed) order. Because each report's metrics are a pure
/// function of its seed, the rollup is bit-identical however the
/// reports were computed — sequentially or under any `--jobs` value.
pub fn rollup_metrics(reports: &[CampaignReport]) -> Metrics {
    let mut rollup = Metrics::new();
    for report in reports {
        rollup.merge(&report.metrics);
    }
    rollup
}

/// Runs one campaign per config, fanned across a `std::thread` worker
/// pool, and returns the reports in input order.
///
/// Each seed builds its own fully independent [`World`] — separate RNG
/// streams, storage, oracle — so parallel execution cannot perturb a
/// run: every report (violations, stats, audit digest) is bit-for-bit
/// identical to what [`run_campaign`] produces for the same config.
///
/// `jobs = 0` uses [`std::thread::available_parallelism`]; `jobs = 1`
/// degenerates to the sequential runner with no threads spawned.
///
/// [`World`]: wanacl_sim::world::World
pub fn run_campaigns_parallel(
    configs: &[CampaignConfig],
    jobs: usize,
) -> Vec<CampaignReport> {
    run_indexed_parallel(configs.len(), jobs, |i| run_campaign(&configs[i]))
}

/// [`run_campaigns_parallel`] for explicit `(config, plan)` pairs —
/// the parallel counterpart of [`run_with_plan`], used by replay-style
/// sweeps that script their own fault plans.
pub fn run_plans_parallel(
    work: &[(CampaignConfig, NemesisPlan)],
    jobs: usize,
) -> Vec<CampaignReport> {
    run_indexed_parallel(work.len(), jobs, |i| {
        let (config, plan) = &work[i];
        run_with_plan(config, plan)
    })
}

/// Work-stealing fan-out over `0..count`: workers claim indices from a
/// shared atomic counter and hand back `(index, report)` pairs, sorted
/// into input order, so the output order never depends on thread
/// scheduling.
fn run_indexed_parallel<F>(count: usize, jobs: usize, run: F) -> Vec<CampaignReport>
where
    F: Fn(usize) -> CampaignReport + Sync,
{
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    };
    let jobs = jobs.min(count.max(1));
    if jobs <= 1 {
        return (0..count).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut reports: Vec<(usize, CampaignReport)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return claimed;
                        }
                        claimed.push((i, run(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    reports.sort_by_key(|&(i, _)| i);
    reports.into_iter().map(|(_, report)| report).collect()
}

/// Greedily shrinks a violating plan: repeatedly drop any fault whose
/// removal keeps the campaign failing, until no single removal does.
/// Returns the (possibly empty) minimal plan and its report.
///
/// If `plan` does not actually fail under `config`, it is returned
/// unchanged with its clean report.
pub fn shrink_plan(
    config: &CampaignConfig,
    plan: &NemesisPlan,
) -> (NemesisPlan, CampaignReport) {
    let mut best_report = run_with_plan(config, plan);
    let mut best = plan.clone();
    if best_report.is_clean() {
        return (best, best_report);
    }
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < best.len() {
            let candidate = best.without(i);
            let report = run_with_plan(config, &candidate);
            if !report.is_clean() {
                best = candidate;
                best_report = report;
                shrunk = true;
                // Same index now names the next fault; do not advance.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return (best, best_report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> CampaignConfig {
        CampaignConfig { seed, horizon: SimDuration::from_secs(5), ..CampaignConfig::default() }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let config = quick_config(42);
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.oracle_stats, b.oracle_stats);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn parallel_executor_matches_sequential_per_seed() {
        let configs: Vec<CampaignConfig> = (0..4).map(quick_config).collect();
        let parallel = run_campaigns_parallel(&configs, 4);
        assert_eq!(parallel.len(), configs.len());
        for (config, par) in configs.iter().zip(&parallel) {
            let seq = run_campaign(config);
            assert_eq!(par.seed, config.seed, "reports must come back in input order");
            assert_eq!(par.plan, seq.plan);
            assert_eq!(par.violations, seq.violations);
            assert_eq!(par.oracle_stats, seq.oracle_stats);
            assert_eq!(par.user_stats, seq.user_stats);
            assert_eq!(par.audit_digest, seq.audit_digest);
            assert_eq!(par.metrics, seq.metrics);
        }
    }

    #[test]
    fn metric_rollups_are_bit_identical_across_jobs() {
        let configs: Vec<CampaignConfig> = (0..4).map(quick_config).collect();
        let seq = run_campaigns_parallel(&configs, 1);
        let par = run_campaigns_parallel(&configs, 8);
        let seq_rollup = rollup_metrics(&seq);
        let par_rollup = rollup_metrics(&par);
        assert_eq!(seq_rollup, par_rollup);
        // The exported artifacts must match byte for byte — this is what
        // the CI obs-smoke job diffs between --jobs 1 and --jobs 2.
        assert_eq!(
            wanacl_sim::obs::metrics_jsonl(&seq_rollup, "rollup"),
            wanacl_sim::obs::metrics_jsonl(&par_rollup, "rollup"),
        );
        assert_eq!(
            wanacl_sim::obs::prometheus_text(&seq_rollup),
            wanacl_sim::obs::prometheus_text(&par_rollup),
        );
        // And the rollup actually contains protocol evidence, not just
        // an empty bag comparing equal to another empty bag.
        assert!(seq_rollup.counter("host.invokes") > 0);
        assert!(seq_rollup.histogram("host.check_latency_s").is_some());
    }

    #[test]
    fn parallel_executor_handles_degenerate_inputs() {
        assert!(run_campaigns_parallel(&[], 0).is_empty());
        let one = [quick_config(9)];
        // More workers than work, and the jobs=0 auto-detect path.
        for jobs in [0, 1, 8] {
            let reports = run_campaigns_parallel(&one, jobs);
            assert_eq!(reports.len(), 1);
            assert_eq!(reports[0].seed, 9);
        }
    }

    #[test]
    fn unmodified_protocol_survives_a_campaign() {
        let report = run_campaign(&quick_config(7));
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.oracle_stats.allows > 0, "campaign produced no evidence");
    }

    #[test]
    fn injected_expiry_bug_is_caught_and_shrinks() {
        // Hunt a seed whose schedule actually exercises the planted bug:
        // the host must serve the revoked user from its immortal cache
        // more than Te after the revoke stabilizes.
        let mut caught = None;
        for seed in 0..20 {
            let config = CampaignConfig {
                inject_bug: Some(InjectedBug::IgnoreCacheExpiry { host_index: 0 }),
                ..quick_config(seed)
            };
            let report = run_campaign(&config);
            if !report.is_clean() {
                caught = Some((config, report));
                break;
            }
        }
        let (config, report) = caught.expect("no seed in 0..20 tripped the planted bug");
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == crate::oracle::InvariantKind::BoundedRevocation
                || v.kind == crate::oracle::InvariantKind::CacheExpiry));
        let (small, small_report) = shrink_plan(&config, &report.plan);
        assert!(!small_report.is_clean(), "shrunk plan must still fail");
        assert!(small.len() <= report.plan.len(), "shrinking must not grow the plan");
    }

    #[test]
    fn full_cluster_restart_with_disk_faults_stays_clean() {
        // The acceptance scenario: every manager's disk degrades (torn
        // tails on crash, transient sync failures) and then the whole
        // manager set crash-restarts at once. Quorum sync alone cannot
        // survive that; local WAL replay must carry the state across.
        let config = CampaignConfig {
            disk_faults: true,
            horizon: SimDuration::from_secs(6),
            ..quick_config(11)
        };
        let targets = campaign_targets(&config);
        let mut b = NemesisPlan::builder(SimTime::ZERO + config.horizon);
        for &m in &targets.managers {
            b = b.disk_fault(m, 0.2, 0.8);
        }
        let plan = b
            .cluster_restart(
                targets.managers.clone(),
                SimTime::ZERO + SimDuration::from_millis(2500),
                SimDuration::from_millis(400),
            )
            .build();
        let report = run_with_plan(&config, &plan);
        assert!(report.is_clean(), "{}", report.render());
        let wal_appends = report.metrics.counter(MetricId::MGR_WAL_APPENDS);
        assert!(wal_appends > 0, "no op was ever made durable");
        assert_eq!(
            report.metrics.counter(MetricId::MGR_RECOVERED_FROM_DISK),
            config.managers as u64,
            "every manager must come back from its own disk"
        );
    }

    #[test]
    fn injected_drop_wal_bug_is_caught() {
        // A manager whose storage forgets everything on recovery breaks
        // the promise its acks made; the durability invariant must name
        // the event with a replayable (seed, plan, index) coordinate.
        let mut caught = None;
        for seed in 0..20 {
            let config = CampaignConfig {
                disk_faults: true,
                inject_bug: Some(InjectedBug::DropWal { manager_index: 0 }),
                ..quick_config(seed)
            };
            let targets = campaign_targets(&config);
            let plan = NemesisPlan::builder(SimTime::ZERO + config.horizon)
                .cluster_restart(
                    vec![targets.managers[0]],
                    SimTime::ZERO + SimDuration::from_millis(3500),
                    SimDuration::from_millis(300),
                )
                .build();
            let report = run_with_plan(&config, &plan);
            if !report.is_clean() {
                caught = Some(report);
                break;
            }
        }
        let report = caught.expect("no seed in 0..20 tripped the drop-WAL bug");
        let violation = report
            .violations
            .iter()
            .find(|v| v.kind == crate::oracle::InvariantKind::Durability)
            .expect("drop-WAL must surface as a durability violation");
        assert!(violation.event_index > 0, "violation must carry a replay coordinate");
        assert!(report.render().contains("replay with:"));
    }

    #[test]
    fn disk_fault_campaigns_are_deterministic_and_clean() {
        for seed in [5, 6] {
            let config = CampaignConfig {
                disk_faults: true,
                intensity: 2.0,
                horizon: SimDuration::from_secs(8),
                ..quick_config(seed)
            };
            let a = run_campaign(&config);
            let b = run_campaign(&config);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.oracle_stats, b.oracle_stats);
            assert_eq!(a.metrics, b.metrics);
            assert!(a.is_clean(), "{}", a.render());
        }
    }

    #[test]
    fn replicated_directory_campaign_is_deterministic_and_produces_evidence() {
        let config = CampaignConfig {
            ns_replicas: 3,
            ns_faults: true,
            horizon: SimDuration::from_secs(6),
            ..quick_config(13)
        };
        // build_deployment asserts the replica layout internally.
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.oracle_stats, b.oracle_stats);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert!(a.is_clean(), "{}", a.render());
        assert!(a.oracle_stats.ns_installs > 0, "no quorum read ever completed");
        assert!(a.oracle_stats.ns_publishes > 0, "no replica ever published a record");
    }

    fn sharded_config(seed: u64) -> CampaignConfig {
        CampaignConfig {
            tenants: 2,
            shards_per_tenant: 2,
            users: 4,
            ns_replicas: 3,
            shard_faults: true,
            horizon: SimDuration::from_secs(8),
            ..quick_config(seed)
        }
    }

    #[test]
    fn sharded_layout_matches_deployment_and_plans_draw_shard_faults() {
        let config = sharded_config(3);
        let targets = campaign_targets(&config);
        assert_eq!(targets.managers.len(), 8, "2 tenants x 2 shards x 2 managers");
        assert_eq!(targets.shard_managers.len(), 4);
        assert_eq!(targets.ns_replicas[0], NodeId::from_index(8));
        assert_eq!(targets.hosts[0], NodeId::from_index(11));
        // Over a handful of seeds the shard fault kinds actually appear.
        let drew_rebalance = (0..10).any(|seed| {
            !sample_plan(&sharded_config(seed)).shard_rebalances().is_empty()
        });
        assert!(drew_rebalance, "no seed in 0..10 drew a shard rebalance");
    }

    #[test]
    fn sharded_campaign_is_deterministic_and_clean() {
        // build_deployment asserts the 8-manager layout internally; the
        // run must survive rebalances racing the network faults with
        // every invariant — including I8/I9 — intact.
        for seed in [21, 24] {
            let config = sharded_config(seed);
            let a = run_campaign(&config);
            let b = run_campaign(&config);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.oracle_stats, b.oracle_stats);
            assert_eq!(a.audit_digest, b.audit_digest);
            assert_eq!(a.metrics, b.metrics);
            assert!(a.is_clean(), "{}", a.render());
            assert!(a.oracle_stats.allows > 0, "campaign produced no evidence");
        }
    }

    #[test]
    fn injected_lost_handoff_bug_is_caught() {
        // A manager that drops the tail op of a shard transfer breaks
        // I9: its install digest diverges from the source's handoff
        // digest. shard_faults stays off so the only rebalance is the
        // forced one targeting the bugged manager.
        let mut caught = None;
        for seed in 0..20 {
            let config = CampaignConfig {
                shard_faults: false,
                inject_bug: Some(InjectedBug::LostHandoff { manager_index: 0 }),
                ..sharded_config(seed)
            };
            let report = run_campaign(&config);
            if !report.is_clean() {
                caught = Some(report);
                break;
            }
        }
        let report = caught.expect("no seed in 0..20 tripped the lost-handoff bug");
        let violation = report
            .violations
            .iter()
            .find(|v| v.kind == crate::oracle::InvariantKind::RebalanceSafety)
            .expect("lost handoff must surface as a rebalance-safety violation");
        assert!(violation.event_index > 0, "violation must carry a replay coordinate");
    }

    /// One description, checked against the arithmetic layout the plan
    /// sampler uses and against history: for each deployment shape the
    /// roster's ids are `campaign_targets`', and the world installed
    /// from it reproduces, note for note, the run the hand-assembled
    /// deployment of the parent commit (1f081cb) produced (the
    /// one-replica shape is pinned at 21bf6af, where it took over from
    /// the legacy name service; the disk-fault and policy shapes at
    /// 74ff3aa, before the manager and host were cut into sub-machines).
    /// Disk-fault seeds 193 and 339, pinned at bd453fc, are the only
    /// seeds in 1–400 whose run recovers a torn tail: they guard the
    /// torn-tail path, which seeds 1–3 never reach.
    #[test]
    fn roster_ids_match_campaign_targets_and_runs_reproduce_pinned_digests() {
        type Shape = (&'static str, fn(u64) -> CampaignConfig, u64, &'static [u64]);
        let shapes: [Shape; 8] = [
            ("flat", quick_config, 1, &[
                0xe53297824ff91b31, 0x28bef6f8bf23f43e, 0xd702adf1e0998229,
                0x77da7619670d10d5, 0x3a9da89d0335bef6,
            ]),
            ("one-replica-directory", |s| CampaignConfig { ns_replicas: 1, ..quick_config(s) }, 1, &[
                0x42ac880ca8c56c2a, 0x7a83e0ff1681aa9f, 0xa1b4a846803bef96,
                0xe72c167e5d0404e8, 0xea6f3a39732140f8,
            ]),
            (
                "replicated-directory",
                |s| CampaignConfig { ns_replicas: 3, ns_faults: true, ..quick_config(s) },
                1,
                &[
                    0xd9eff15451cbb629, 0xcba836399afa7e62, 0x25609c1eb32b2a33,
                    0xb39674a67642994c, 0xac03a8df6964dec1,
                ],
            ),
            ("sharded", sharded_config, 21, &[
                0xbc9e0e550a70807c, 0xb56212709cee1f84, 0xe6684938cf16a0b7,
                0xe2a7df96d9bdd338, 0x9ae209080e3087e0,
            ]),
            ("disk-faults", disk_config, 1, &[0xb5dea969e5e29ab8, 0x6210c5b899144c42, 0x6d367da7ec4a6d5f]),
            ("disk-faults-torn-tail", disk_config, 193, &[0x04b05b1c01a109f0]),
            ("disk-faults-torn-tail", disk_config, 339, &[0x1d586c2804750c55]),
            ("freeze-refresh-subset-fail-open", policy_config, 1, &[
                0xc01a0c181642a7ca, 0xc2b742659d8a8702, 0xb1f46eb8fb755e25,
            ]),
        ];
        for (shape, config_for, first_seed, digests) in shapes {
            for (seed, &pinned) in (first_seed..).zip(digests) {
                let config = config_for(seed);
                let roster = campaign_scenario(&config).roster();
                let targets = campaign_targets(&config);
                assert_eq!(roster.layout.managers, targets.managers, "{shape} seed {seed}");
                assert_eq!(roster.layout.ns_replicas, targets.ns_replicas, "{shape} seed {seed}");
                assert_eq!(roster.layout.hosts, targets.hosts, "{shape} seed {seed}");
                for (s, owners) in targets.shard_managers.iter().enumerate() {
                    assert_eq!(&roster.layout.shard_owners(ShardId(s as u32)), owners, "{shape}");
                }
                let digest = run_campaign(&config).audit_digest;
                assert_eq!(digest, pinned, "{shape} seed {seed}: {digest:#018x}");
            }
        }
    }

    /// A campaign whose policy turns on what the default one leaves off:
    /// the §3.3 freeze (`Ti + te = 1 s + 1 s ≤ Te = 2 s`), proactive lease
    /// refresh, the random `C`-subset fan-out and fail-open exhaustion.
    fn policy_config(seed: u64) -> CampaignConfig {
        let policy = Policy::builder(2)
            .revocation_bound(SimDuration::from_secs(2))
            .clock_rate_bound(0.5)
            .query_timeout(SimDuration::from_millis(250))
            .max_attempts(3)
            .cache_sweep_interval(SimDuration::from_millis(500))
            .freeze(crate::policy::FreezePolicy {
                ti: SimDuration::from_secs(1),
                heartbeat_interval: SimDuration::from_millis(200),
            })
            .refresh_margin(SimDuration::from_millis(300))
            .fanout(crate::policy::QueryFanout::Subset)
            .exhaustion(crate::policy::ExhaustionBehavior::FailOpen)
            .build();
        CampaignConfig { policy, intensity: 3.0, horizon: SimDuration::from_secs(8), ..quick_config(seed) }
    }

    fn disk_config(seed: u64) -> CampaignConfig {
        CampaignConfig { disk_faults: true, intensity: 2.0, horizon: SimDuration::from_secs(8), ..quick_config(seed) }
    }

    /// Signatures on invokes and admin ops, HMAC tags on every reply and
    /// revoke notice: an authenticated deployment under the oracle
    /// reproduces, note for note, the run pinned at 74ff3aa.
    #[test]
    fn an_authenticated_deployment_reproduces_its_pinned_digest() {
        let policy = CampaignConfig::default_policy();
        let at = |secs, op| AdminAction { delay: SimDuration::from_secs(secs), op };
        let (app, user, right) = (AppId(0), UserId(1), Right::Use);
        let script = vec![at(2, AclOp::Revoke { app, user, right }), at(4, AclOp::Add { app, user, right })];
        let mut d = Scenario::builder(5)
            .managers(3)
            .hosts(2)
            .users(3)
            .policy(policy.clone())
            .all_users_granted()
            .authenticate()
            .workload(SimDuration::from_millis(300))
            .admin_script(script)
            .build();
        let oracle = d.world.add_observer(Box::new(InvariantOracle::new(&policy, SimDuration::ZERO)));
        d.run_for(SimDuration::from_secs(8));
        assert!(d.world.metrics().counter("mgr.revoke_notices") > 0, "no revoke notice was tagged");
        assert!(d.world.metrics().counter("host.revoke_flush") > 0, "no tagged notice verified");
        let oracle = d.world.observer_as::<InvariantOracle>(oracle);
        assert!(oracle.is_clean(), "{:?}", oracle.violations());
        let digest = oracle.audit_digest();
        assert_eq!(digest, 0xf2d58c14635d4599, "{digest:#018x}");
    }
}
