//! Composable, seed-deterministic fault injection ("nemesis") for
//! adversarial protocol testing.
//!
//! The paper's protocol claims a *safety* property — a revoked right is
//! usable for at most `Te` — that must hold under every combination of
//! the failures §2.1 admits: lost, duplicated, delayed, and reordered
//! messages, asymmetric and flapping partitions, host crash/recovery,
//! and bounded clock drift. This module turns that failure model into a
//! declarative, replayable [`NemesisPlan`]:
//!
//! * each [`Fault`] is pure data (a window plus parameters), so plans
//!   print, compare, and **shrink** ([`NemesisPlan::without`]);
//! * plans either come from the builder (scripted scenarios) or from
//!   [`NemesisPlan::sample`], which draws a weighted random campaign
//!   from a [`SimRng`] — the same seed always yields the same plan;
//! * network faults layer *on top of* any base [`crate::net::NetModel`] via
//!   [`NemesisNet`], so the protocol under test cannot tell a nemesis
//!   run from a hostile WAN.
//!
//! What every other fault does to a deployment — a crash becomes a
//! crash/recover pair, a disk fault a storage model, a stale replica a
//! node setting — is decided in one place, `wanacl_core`'s
//! `campaign::arm_campaign`, which reads a plan once for both
//! executors. This module only describes plans.
//!
//! Pair a plan with a passive safety checker (a
//! [`crate::world::Observer`]) to get a randomized model checker: on a
//! violation, the (seed, plan, event index) triple replays the exact
//! schedule that broke the invariant.

mod net;

pub use net::{decide, NemesisNet};

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A half-open real-time window `[start, end)` during which a fault is
/// active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant the fault applies.
    pub start: SimTime,
    /// First instant it no longer applies.
    pub end: SimTime,
}

impl Window {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn new(start: SimTime, end: SimTime) -> Window {
        assert!(start < end, "fault window must be non-empty ({start} >= {end})");
        Window { start, end }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }
}

impl std::fmt::Display for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

/// One injected fault. Every variant is plain data so plans can be
/// printed, diffed, and shrunk.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Extra i.i.d. message loss on every link while the window is open.
    Drop {
        /// When the fault is active.
        window: Window,
        /// Per-message drop probability added on top of the base model.
        prob: f64,
    },
    /// Extra message duplication on every link.
    Duplicate {
        /// When the fault is active.
        window: Window,
        /// Per-message duplication probability.
        prob: f64,
    },
    /// Random extra propagation delay, which also *reorders* messages
    /// relative to ones sent nearby in time.
    DelaySpike {
        /// When the fault is active.
        window: Window,
        /// Minimum extra delay added to every delivery.
        extra_min: SimDuration,
        /// Maximum extra delay (exclusive).
        extra_max: SimDuration,
    },
    /// Symmetric partition: no traffic between the two sides.
    Partition {
        /// When the cut holds.
        window: Window,
        /// One side of the cut.
        side_a: Vec<NodeId>,
        /// The other side.
        side_b: Vec<NodeId>,
    },
    /// Asymmetric partition: messages *from* `from` *to* `to` are lost;
    /// the reverse direction still works. Models one-way congestion and
    /// routing pathologies a symmetric model cannot express.
    AsymmetricPartition {
        /// When the cut holds.
        window: Window,
        /// Senders whose messages are lost.
        from: Vec<NodeId>,
        /// Receivers they cannot reach.
        to: Vec<NodeId>,
    },
    /// Flapping partition: the cut alternates severed/healed with the
    /// given period (severed first), stressing retry and convergence
    /// logic with partial progress.
    FlappingPartition {
        /// Envelope during which the flapping happens.
        window: Window,
        /// One side of the cut.
        side_a: Vec<NodeId>,
        /// The other side.
        side_b: Vec<NodeId>,
        /// Duration of each severed (and each healed) phase.
        period: SimDuration,
    },
    /// Crash a node at `at`; it recovers `down_for` later.
    Crash {
        /// The victim.
        node: NodeId,
        /// Crash instant.
        at: SimTime,
        /// Downtime before the scheduled recovery.
        down_for: SimDuration,
    },
    /// Degraded stable storage on one node: WAL sync barriers fail
    /// transiently and crashes tear the tail record with the given
    /// probabilities. The campaign driver applies this to the node's
    /// storage before the run starts (it is neither a network nor a
    /// lifecycle fault).
    DiskFault {
        /// The node whose stable storage degrades.
        node: NodeId,
        /// Probability each WAL sync barrier fails (transient EIO).
        sync_fail_prob: f64,
        /// Probability a crash leaves a torn tail record.
        torn_tail_prob: f64,
    },
    /// Correlated crash-restart of a node group — up to the *entire*
    /// manager set at once, the scenario quorum sync alone cannot
    /// survive. Every member crashes at `at` and recovers `down_for`
    /// later.
    ClusterRestart {
        /// The victims (crash and recover together).
        nodes: Vec<NodeId>,
        /// Crash instant.
        at: SimTime,
        /// Downtime before the scheduled recovery.
        down_for: SimDuration,
    },
    /// A directory replica with anti-entropy suppressed for the whole
    /// run: it neither probes peers, answers their sync requests, nor
    /// forwards publishes, so it keeps serving whatever versions it
    /// already holds. The campaign driver applies this to the replica
    /// before the run starts.
    StaleReplica {
        /// The replica that stops syncing.
        replica: NodeId,
    },
    /// Split-brain directory: replica-to-replica traffic between the
    /// two sides is severed for the window, so the sides serve
    /// divergent record versions while hosts can still reach both.
    DirectorySplit {
        /// When the cut holds.
        window: Window,
        /// One side of the replica set.
        side_a: Vec<NodeId>,
        /// The other side.
        side_b: Vec<NodeId>,
    },
    /// Malicious partial master: for the window, one replica answers
    /// quorum reads with forged records (bumped version, altered
    /// manager set, stale signature). Verifying hosts must reject
    /// them. The campaign driver applies this to the replica before
    /// the run starts.
    MaliciousReplica {
        /// The replica that turns malicious.
        replica: NodeId,
        /// When it serves forged answers.
        window: Window,
    },
    /// Online shard rebalance kicked off mid-run: the campaign driver
    /// signs a version-bumped shard map moving shard `shard` to the
    /// ring-next owner set and injects the handoff at `at` — on top of
    /// whatever partitions, crashes, and delay spikes the rest of the
    /// plan has open at that moment. The driver applies this fault (it
    /// is neither a network nor a lifecycle fault).
    ShardRebalance {
        /// Index of the shard to move (into the deployment's shard
        /// table).
        shard: u32,
        /// When the handoff kickoff is injected.
        at: SimTime,
    },
    /// One host never advances its shard map past the version it holds:
    /// fresher directory records are ignored, so its checks chase the
    /// pre-rebalance owners. Routing safety (I8/I9) must hold anyway —
    /// released sources answer with fail-closed unavailability, never
    /// stale grants. The driver applies this to the host before the run
    /// starts.
    StaleShardMap {
        /// The host whose shard map is pinned.
        host: NodeId,
    },
}

fn fmt_nodes(nodes: &[NodeId]) -> String {
    let items: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    format!("{{{}}}", items.join(","))
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Drop { window, prob } => write!(f, "drop p={prob:.2} {window}"),
            Fault::Duplicate { window, prob } => write!(f, "duplicate p={prob:.2} {window}"),
            Fault::DelaySpike { window, extra_min, extra_max } => {
                write!(f, "delay-spike +[{extra_min} .. {extra_max}) {window}")
            }
            Fault::Partition { window, side_a, side_b } => {
                write!(f, "partition {} | {} {window}", fmt_nodes(side_a), fmt_nodes(side_b))
            }
            Fault::AsymmetricPartition { window, from, to } => {
                write!(f, "asym-partition {} -x-> {} {window}", fmt_nodes(from), fmt_nodes(to))
            }
            Fault::FlappingPartition { window, side_a, side_b, period } => write!(
                f,
                "flapping-partition {} | {} period={period} {window}",
                fmt_nodes(side_a),
                fmt_nodes(side_b)
            ),
            Fault::Crash { node, at, down_for } => {
                write!(f, "crash {node} at {at} for {down_for}")
            }
            Fault::DiskFault { node, sync_fail_prob, torn_tail_prob } => {
                write!(f, "disk-fault {node} sync-fail={sync_fail_prob:.2} torn={torn_tail_prob:.2}")
            }
            Fault::ClusterRestart { nodes, at, down_for } => {
                write!(f, "cluster-restart {} at {at} for {down_for}", fmt_nodes(nodes))
            }
            Fault::StaleReplica { replica } => {
                write!(f, "stale-replica {replica} (anti-entropy suppressed)")
            }
            Fault::DirectorySplit { window, side_a, side_b } => {
                write!(f, "directory-split {} | {} {window}", fmt_nodes(side_a), fmt_nodes(side_b))
            }
            Fault::MaliciousReplica { replica, window } => {
                write!(f, "malicious-replica {replica} {window}")
            }
            Fault::ShardRebalance { shard, at } => {
                write!(f, "shard-rebalance shard{shard} at {at}")
            }
            Fault::StaleShardMap { host } => {
                write!(f, "stale-shard-map {host} (map pinned)")
            }
        }
    }
}

impl Fault {
    /// Whether the fault acts on the network layer (as opposed to node
    /// lifecycle).
    pub fn is_net(&self) -> bool {
        !matches!(
            self,
            Fault::Crash { .. }
                | Fault::DiskFault { .. }
                | Fault::ClusterRestart { .. }
                | Fault::StaleReplica { .. }
                | Fault::MaliciousReplica { .. }
                | Fault::ShardRebalance { .. }
                | Fault::StaleShardMap { .. }
        )
    }

    /// Whether a partition-style fault currently severs `from -> to`:
    /// the first question [`decide`] asks.
    pub fn severs(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        match self {
            Fault::Partition { window, side_a, side_b }
            | Fault::DirectorySplit { window, side_a, side_b } => {
                window.contains(now)
                    && ((side_a.contains(&from) && side_b.contains(&to))
                        || (side_b.contains(&from) && side_a.contains(&to)))
            }
            Fault::AsymmetricPartition { window, from: senders, to: receivers } => {
                window.contains(now) && senders.contains(&from) && receivers.contains(&to)
            }
            Fault::FlappingPartition { window, side_a, side_b, period } => {
                if !window.contains(now) {
                    return false;
                }
                let elapsed = now.saturating_since(window.start).as_nanos();
                let phase = (elapsed / period.as_nanos().max(1)) % 2;
                phase == 0
                    && ((side_a.contains(&from) && side_b.contains(&to))
                        || (side_b.contains(&from) && side_a.contains(&to)))
            }
            _ => false,
        }
    }
}

/// The node roles a sampled campaign may attack.
///
/// Sampling never touches nodes outside these sets (user agents and the
/// admin keep running, so the workload itself survives the campaign).
#[derive(Debug, Clone, Default)]
pub struct NemesisTargets {
    /// ACL manager nodes (crash storms, partitions).
    pub managers: Vec<NodeId>,
    /// Application host nodes (crashes, partitions).
    pub hosts: Vec<NodeId>,
    /// Replicated-directory nodes, if the deployment runs the quorum
    /// name service. Only a [`FaultMix::directory`] sample (and the
    /// scripted builder) attacks these.
    pub ns_replicas: Vec<NodeId>,
    /// Per-shard manager sets of a sharded deployment, indexed by shard.
    /// Only a [`FaultMix::shards`] sample (and the scripted builder)
    /// draws shard faults.
    pub shard_managers: Vec<Vec<NodeId>>,
}

/// The optional fault families a sampled plan may draw on top of the
/// network and crash faults every plan draws. The default draws none of
/// them. A family adds weight to the kind table only when its targets
/// exist, so a plan drawn with a family off (or without its targets) is
/// byte-identical to one drawn before the family existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMix {
    /// Storage faults: [`Fault::DiskFault`] on a manager's WAL and
    /// [`Fault::ClusterRestart`] of a manager subset, up to all of them.
    pub storage: bool,
    /// Replicated-directory faults, when [`NemesisTargets::ns_replicas`]
    /// is nonempty: [`Fault::StaleReplica`], [`Fault::DirectorySplit`],
    /// [`Fault::MaliciousReplica`] and [`Fault::Crash`] of a replica.
    pub directory: bool,
    /// Shard-plane faults, when [`NemesisTargets::shard_managers`] has at
    /// least two shards: [`Fault::ShardRebalance`] (an online handoff
    /// racing whatever else the plan holds open) and
    /// [`Fault::StaleShardMap`].
    pub shards: bool,
}

impl NemesisTargets {
    fn protocol_nodes(&self) -> Vec<NodeId> {
        let mut all = self.managers.clone();
        all.extend_from_slice(&self.hosts);
        all
    }
}

/// A declarative fault-injection campaign over a fixed horizon.
///
/// # Examples
///
/// A scripted plan:
///
/// ```
/// use wanacl_sim::nemesis::NemesisPlan;
/// use wanacl_sim::node::NodeId;
/// use wanacl_sim::time::{SimDuration, SimTime};
///
/// let m = NodeId::from_index(0);
/// let h = NodeId::from_index(1);
/// let plan = NemesisPlan::builder(SimTime::from_secs(60))
///     .partition(vec![m], vec![h], SimTime::from_secs(10), SimTime::from_secs(30))
///     .crash(m, SimTime::from_secs(40), SimDuration::from_secs(5))
///     .build();
/// assert_eq!(plan.len(), 2);
/// ```
///
/// A sampled campaign is a pure function of its seed:
///
/// ```
/// use wanacl_sim::nemesis::{FaultMix, NemesisPlan, NemesisTargets};
/// use wanacl_sim::node::NodeId;
/// use wanacl_sim::rng::SimRng;
/// use wanacl_sim::time::SimTime;
///
/// let targets = NemesisTargets {
///     managers: (0..3).map(NodeId::from_index).collect(),
///     hosts: (3..5).map(NodeId::from_index).collect(),
///     ..NemesisTargets::default()
/// };
/// let horizon = SimTime::from_secs(60);
/// let mix = FaultMix::default();
/// let a = NemesisPlan::sample(&targets, horizon, 1.0, &mut SimRng::seed_from(7), mix);
/// let b = NemesisPlan::sample(&targets, horizon, 1.0, &mut SimRng::seed_from(7), mix);
/// assert_eq!(a, b);
/// assert!(!a.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NemesisPlan {
    /// End of the campaign; no fault extends past it.
    pub horizon: SimTime,
    /// The injected faults, in sampling order.
    pub faults: Vec<Fault>,
}

impl NemesisPlan {
    /// Starts a scripted plan over the given horizon.
    pub fn builder(horizon: SimTime) -> NemesisPlanBuilder {
        NemesisPlanBuilder { plan: NemesisPlan { horizon, faults: Vec::new() } }
    }

    /// Draws a weighted random campaign. `intensity` scales the number
    /// of faults (1.0 ≈ one fault per 5 seconds of horizon); the mix
    /// leans toward partitions and drop bursts, the failures the paper
    /// calls frequent, with rarer crash storms, plus whatever optional
    /// families `mix` turns on.
    ///
    /// # Panics
    ///
    /// Panics if there are no protocol nodes to attack, the horizon is
    /// zero, or `intensity` is not positive.
    pub fn sample(
        targets: &NemesisTargets,
        horizon: SimTime,
        intensity: f64,
        rng: &mut SimRng,
        mix: FaultMix,
    ) -> NemesisPlan {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        assert!(intensity > 0.0, "intensity must be positive");
        let nodes = targets.protocol_nodes();
        assert!(!nodes.is_empty(), "nemesis needs at least one target node");

        let horizon_s = SimDuration::from_nanos(horizon.as_nanos()).as_secs_f64();
        let count = ((intensity * horizon_s / 5.0).ceil() as usize).max(1);

        // (weight, kind) table; kinds guarded by availability.
        let can_partition = nodes.len() >= 2;
        let mut table: Vec<(u64, u8)> = vec![(3, 0), (2, 1), (2, 2)]; // drop, dup, delay
        if can_partition {
            table.push((3, 3)); // symmetric partition
            table.push((2, 4)); // asymmetric partition
            table.push((2, 5)); // flapping partition
        }
        table.push((2, 6)); // manager crash
        if !targets.hosts.is_empty() {
            table.push((1, 7)); // host crash
        }
        if mix.storage && !targets.managers.is_empty() {
            table.push((2, 9)); // manager disk fault
            table.push((2, 10)); // correlated cluster restart
        }
        if mix.directory && !targets.ns_replicas.is_empty() {
            table.push((2, 11)); // stale replica
            if targets.ns_replicas.len() >= 2 {
                table.push((2, 12)); // split-brain directory
            }
            table.push((1, 13)); // malicious partial master
            table.push((1, 14)); // replica crash/restart
        }
        if mix.shards && targets.shard_managers.len() >= 2 {
            table.push((3, 15)); // online shard rebalance
            if !targets.hosts.is_empty() {
                table.push((1, 16)); // host pinned to a stale shard map
            }
        }
        let total_weight: u64 = table.iter().map(|(w, _)| w).sum();

        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let mut pick = rng.range(0, total_weight);
            let mut kind = table[0].1;
            for (w, k) in &table {
                if pick < *w {
                    kind = *k;
                    break;
                }
                pick -= w;
            }
            faults.push(Self::sample_fault(kind, targets, &nodes, horizon, rng));
        }
        NemesisPlan { horizon, faults }
    }

    fn sample_window(horizon: SimTime, rng: &mut SimRng) -> Window {
        let horizon_ns = horizon.as_nanos();
        let start_ns = rng.range(0, (horizon_ns * 9 / 10).max(1));
        let mean = (horizon_ns / 8).max(1) as f64;
        // At least 100 ms, unless less than that is left of the horizon.
        let room = horizon_ns - start_ns;
        let len_ns = (rng.exponential(mean) as u64).clamp(room.min(100_000_000), room);
        let start = SimTime::from_nanos(start_ns);
        let end = SimTime::from_nanos((start_ns + len_ns).min(horizon_ns).max(start_ns + 1));
        Window::new(start, end)
    }

    /// Random nonempty proper subset split of the protocol nodes.
    fn sample_split(nodes: &[NodeId], rng: &mut SimRng) -> (Vec<NodeId>, Vec<NodeId>) {
        loop {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for &n in nodes {
                if rng.chance(0.5) {
                    a.push(n);
                } else {
                    b.push(n);
                }
            }
            if !a.is_empty() && !b.is_empty() {
                return (a, b);
            }
        }
    }

    fn sample_fault(
        kind: u8,
        targets: &NemesisTargets,
        nodes: &[NodeId],
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Fault {
        match kind {
            0 => Fault::Drop {
                window: Self::sample_window(horizon, rng),
                prob: rng.uniform(0.3, 1.0),
            },
            1 => Fault::Duplicate {
                window: Self::sample_window(horizon, rng),
                prob: rng.uniform(0.1, 0.5),
            },
            2 => {
                let min_ms = rng.range(50, 500);
                let max_ms = min_ms + rng.range(100, 2_000);
                Fault::DelaySpike {
                    window: Self::sample_window(horizon, rng),
                    extra_min: SimDuration::from_millis(min_ms),
                    extra_max: SimDuration::from_millis(max_ms),
                }
            }
            3 => {
                let (side_a, side_b) = Self::sample_split(nodes, rng);
                Fault::Partition { window: Self::sample_window(horizon, rng), side_a, side_b }
            }
            4 => {
                let (from, to) = Self::sample_split(nodes, rng);
                Fault::AsymmetricPartition { window: Self::sample_window(horizon, rng), from, to }
            }
            5 => {
                let (side_a, side_b) = Self::sample_split(nodes, rng);
                Fault::FlappingPartition {
                    window: Self::sample_window(horizon, rng),
                    side_a,
                    side_b,
                    period: SimDuration::from_millis(rng.range(200, 2_000)),
                }
            }
            6 | 7 | 14 => {
                let pool = match kind {
                    6 => &targets.managers,
                    7 => &targets.hosts,
                    _ => &targets.ns_replicas,
                };
                let node = *rng.choose(pool);
                let at_ns = rng.range(0, (horizon.as_nanos() * 9 / 10).max(1));
                let mean = (horizon.as_nanos() / 10).max(1) as f64;
                let down_ns = (rng.exponential(mean) as u64).max(100_000_000);
                Fault::Crash {
                    node,
                    at: SimTime::from_nanos(at_ns),
                    down_for: SimDuration::from_nanos(down_ns),
                }
            }
            9 => Fault::DiskFault {
                node: *rng.choose(&targets.managers),
                sync_fail_prob: rng.uniform(0.05, 0.4),
                torn_tail_prob: rng.uniform(0.2, 0.9),
            },
            11 => Fault::StaleReplica { replica: *rng.choose(&targets.ns_replicas) },
            12 => {
                let (side_a, side_b) = Self::sample_split(&targets.ns_replicas, rng);
                Fault::DirectorySplit {
                    window: Self::sample_window(horizon, rng),
                    side_a,
                    side_b,
                }
            }
            13 => Fault::MaliciousReplica {
                replica: *rng.choose(&targets.ns_replicas),
                window: Self::sample_window(horizon, rng),
            },
            15 => {
                // Early-enough kickoff that the handoff has a chance to
                // finish inside the horizon — racing whatever partitions
                // and crashes the rest of the plan holds open then.
                let shard = rng.range(0, targets.shard_managers.len() as u64) as u32;
                let at_ns = rng.range(0, (horizon.as_nanos() * 7 / 10).max(1));
                Fault::ShardRebalance { shard, at: SimTime::from_nanos(at_ns) }
            }
            16 => Fault::StaleShardMap { host: *rng.choose(&targets.hosts) },
            _ => {
                // Each manager joins the restart group with p=0.6; one
                // time in four the whole manager set goes down together
                // (the correlated failure quorum sync cannot survive).
                let all = rng.chance(0.25);
                let mut group: Vec<NodeId> = targets
                    .managers
                    .iter()
                    .copied()
                    .filter(|_| all || rng.chance(0.6))
                    .collect();
                if group.is_empty() {
                    group.push(*rng.choose(&targets.managers));
                }
                let at_ns = rng.range(0, (horizon.as_nanos() * 8 / 10).max(1));
                let mean = (horizon.as_nanos() / 10).max(1) as f64;
                let down_ns = (rng.exponential(mean) as u64).max(100_000_000);
                Fault::ClusterRestart {
                    nodes: group,
                    at: SimTime::from_nanos(at_ns),
                    down_for: SimDuration::from_nanos(down_ns),
                }
            }
        }
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A copy of the plan with fault `index` removed — the primitive a
    /// greedy schedule shrinker is built from.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn without(&self, index: usize) -> NemesisPlan {
        let mut copy = self.clone();
        copy.faults.remove(index);
        copy
    }

    /// The network-layer faults (for [`NemesisNet`]).
    pub fn net_faults(&self) -> Vec<Fault> {
        self.faults.iter().filter(|f| f.is_net()).cloned().collect()
    }

    /// Wraps a base network model with this plan's network faults.
    pub fn wrap_net(&self, base: Box<dyn crate::net::NetModel>) -> NemesisNet {
        NemesisNet::new(base, self.net_faults())
    }

    /// A numbered, human-readable listing of the plan (for violation
    /// reports and replay instructions).
    pub fn describe(&self) -> String {
        if self.faults.is_empty() {
            return format!("nemesis plan: no faults, horizon {}\n", self.horizon);
        }
        let mut out = format!(
            "nemesis plan: {} fault(s), horizon {}\n",
            self.faults.len(),
            self.horizon
        );
        for (i, fault) in self.faults.iter().enumerate() {
            out.push_str(&format!("  [{i}] {fault}\n"));
        }
        out
    }
}

impl std::fmt::Display for NemesisPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Builder for scripted [`NemesisPlan`]s (C-BUILDER).
#[derive(Debug, Clone)]
pub struct NemesisPlanBuilder {
    plan: NemesisPlan,
}

impl NemesisPlanBuilder {
    /// Adds an extra-loss burst.
    pub fn drop_burst(mut self, start: SimTime, end: SimTime, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop probability must be in [0,1]");
        self.plan.faults.push(Fault::Drop { window: Window::new(start, end), prob });
        self
    }

    /// Adds a duplication burst.
    pub fn duplicate_burst(mut self, start: SimTime, end: SimTime, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "duplication probability must be in [0,1]");
        self.plan.faults.push(Fault::Duplicate { window: Window::new(start, end), prob });
        self
    }

    /// Adds a delay spike (which reorders traffic).
    pub fn delay_spike(
        mut self,
        start: SimTime,
        end: SimTime,
        extra_min: SimDuration,
        extra_max: SimDuration,
    ) -> Self {
        assert!(extra_min < extra_max, "delay spike needs extra_min < extra_max");
        self.plan.faults.push(Fault::DelaySpike {
            window: Window::new(start, end),
            extra_min,
            extra_max,
        });
        self
    }

    /// Adds a symmetric partition.
    pub fn partition(
        mut self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.plan.faults.push(Fault::Partition { window: Window::new(start, end), side_a, side_b });
        self
    }

    /// Adds a one-way partition (`from` cannot reach `to`).
    pub fn asymmetric_partition(
        mut self,
        from: Vec<NodeId>,
        to: Vec<NodeId>,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.plan
            .faults
            .push(Fault::AsymmetricPartition { window: Window::new(start, end), from, to });
        self
    }

    /// Adds a flapping partition.
    pub fn flapping_partition(
        mut self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        start: SimTime,
        end: SimTime,
        period: SimDuration,
    ) -> Self {
        assert!(period > SimDuration::ZERO, "flap period must be positive");
        self.plan.faults.push(Fault::FlappingPartition {
            window: Window::new(start, end),
            side_a,
            side_b,
            period,
        });
        self
    }

    /// Adds a crash with scheduled recovery.
    pub fn crash(mut self, node: NodeId, at: SimTime, down_for: SimDuration) -> Self {
        assert!(down_for > SimDuration::ZERO, "downtime must be positive");
        self.plan.faults.push(Fault::Crash { node, at, down_for });
        self
    }

    /// Adds a storage degradation on one node's WAL.
    pub fn disk_fault(mut self, node: NodeId, sync_fail_prob: f64, torn_tail_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&sync_fail_prob), "sync-fail probability must be in [0,1]");
        assert!((0.0..=1.0).contains(&torn_tail_prob), "torn-tail probability must be in [0,1]");
        self.plan.faults.push(Fault::DiskFault { node, sync_fail_prob, torn_tail_prob });
        self
    }

    /// Adds a correlated crash-restart of a node group.
    pub fn cluster_restart(mut self, nodes: Vec<NodeId>, at: SimTime, down_for: SimDuration) -> Self {
        assert!(!nodes.is_empty(), "cluster restart needs at least one node");
        assert!(down_for > SimDuration::ZERO, "downtime must be positive");
        self.plan.faults.push(Fault::ClusterRestart { nodes, at, down_for });
        self
    }

    /// Adds a directory replica that never syncs with its peers.
    pub fn stale_replica(mut self, replica: NodeId) -> Self {
        self.plan.faults.push(Fault::StaleReplica { replica });
        self
    }

    /// Adds a split-brain cut between two sides of the replica set.
    pub fn directory_split(
        mut self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.plan
            .faults
            .push(Fault::DirectorySplit { window: Window::new(start, end), side_a, side_b });
        self
    }

    /// Kicks off an online rebalance of shard `shard` at `at`.
    pub fn shard_rebalance(mut self, shard: u32, at: SimTime) -> Self {
        self.plan.faults.push(Fault::ShardRebalance { shard, at });
        self
    }

    /// Pins one host's shard map to whatever it holds at start.
    pub fn stale_shard_map(mut self, host: NodeId) -> Self {
        self.plan.faults.push(Fault::StaleShardMap { host });
        self
    }

    /// Adds a replica that serves forged records for the window.
    pub fn malicious_replica(mut self, replica: NodeId, start: SimTime, end: SimTime) -> Self {
        self.plan
            .faults
            .push(Fault::MaliciousReplica { replica, window: Window::new(start, end) });
        self
    }

    /// Finishes the plan.
    pub fn build(self) -> NemesisPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn targets() -> NemesisTargets {
        NemesisTargets {
            managers: vec![n(0), n(1), n(2)],
            hosts: vec![n(3), n(4)],
            ns_replicas: Vec::new(),
            shard_managers: Vec::new(),
        }
    }

    fn directory_targets() -> NemesisTargets {
        NemesisTargets { ns_replicas: vec![n(5), n(6), n(7)], ..targets() }
    }

    fn shard_targets() -> NemesisTargets {
        NemesisTargets {
            shard_managers: vec![vec![n(0), n(1)], vec![n(2), n(8)]],
            ..directory_targets()
        }
    }

    const STORAGE: FaultMix = FaultMix { storage: true, directory: false, shards: false };
    const DIRECTORY: FaultMix = FaultMix { storage: true, directory: true, shards: false };
    const EVERYTHING: FaultMix = FaultMix { storage: true, directory: true, shards: true };

    /// A 120 s plan at intensity 2.
    fn draw(targets: &NemesisTargets, seed: u64, mix: FaultMix) -> NemesisPlan {
        let mut rng = SimRng::seed_from(seed);
        NemesisPlan::sample(targets, SimTime::from_secs(120), 2.0, &mut rng, mix)
    }

    #[test]
    fn window_is_half_open() {
        let w = Window::new(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(!w.contains(SimTime::from_millis(999)));
        assert!(w.contains(SimTime::from_secs(1)));
        assert!(w.contains(SimTime::from_millis(1_999)));
        assert!(!w.contains(SimTime::from_secs(2)));
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_window_rejected() {
        let _ = Window::new(SimTime::from_secs(2), SimTime::from_secs(2));
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let horizon = SimTime::from_secs(120);
        let sample = |seed| {
            let mut rng = SimRng::seed_from(seed);
            NemesisPlan::sample(&targets(), horizon, 1.0, &mut rng, FaultMix::default())
        };
        let a = sample(11);
        assert_eq!(a, sample(11));
        let c = sample(12);
        assert_ne!(a, c, "different seeds should differ");
        for fault in &a.faults {
            match fault {
                Fault::Drop { window, prob } | Fault::Duplicate { window, prob } => {
                    assert!(window.end <= horizon);
                    assert!((0.0..=1.0).contains(prob));
                }
                Fault::DelaySpike { window, extra_min, extra_max } => {
                    assert!(window.end <= horizon);
                    assert!(extra_min < extra_max);
                }
                Fault::Partition { window, side_a, side_b }
                | Fault::FlappingPartition { window, side_a, side_b, .. } => {
                    assert!(window.end <= horizon);
                    assert!(!side_a.is_empty() && !side_b.is_empty());
                    assert!(side_a.iter().all(|x| !side_b.contains(x)), "sides must be disjoint");
                }
                Fault::AsymmetricPartition { window, from, to } => {
                    assert!(window.end <= horizon);
                    assert!(!from.is_empty() && !to.is_empty());
                }
                Fault::Crash { at, down_for, .. } => {
                    assert!(*at < horizon);
                    assert!(*down_for > SimDuration::ZERO);
                }
                Fault::DiskFault { .. } | Fault::ClusterRestart { .. } => {
                    panic!("plain sample() must never draw storage faults")
                }
                Fault::StaleReplica { .. }
                | Fault::DirectorySplit { .. }
                | Fault::MaliciousReplica { .. } => {
                    panic!("plain sample() must never draw directory faults")
                }
                Fault::ShardRebalance { .. } | Fault::StaleShardMap { .. } => {
                    panic!("plain sample() must never draw shard faults")
                }
            }
        }
    }

    #[test]
    fn storage_sampling_is_deterministic_and_keeps_plain_plans_stable() {
        let plain = draw(&targets(), 11, FaultMix::default());
        assert_eq!(draw(&targets(), 11, STORAGE), draw(&targets(), 11, STORAGE));
        // The default mix draws no storage kind, so fixed-seed
        // campaigns without storage faults replay the same plans.
        assert!(plain
            .faults
            .iter()
            .all(|f| !matches!(f, Fault::DiskFault { .. } | Fault::ClusterRestart { .. })));
        // The storage mix actually produces the new kinds at some seed.
        let mut saw_disk = false;
        let mut saw_restart = false;
        for seed in 0..40 {
            for f in &draw(&targets(), seed, STORAGE).faults {
                match f {
                    Fault::DiskFault { node, sync_fail_prob, torn_tail_prob } => {
                        saw_disk = true;
                        assert!(targets().managers.contains(node));
                        assert!((0.0..=1.0).contains(sync_fail_prob));
                        assert!((0.0..=1.0).contains(torn_tail_prob));
                    }
                    Fault::ClusterRestart { nodes, at, down_for } => {
                        saw_restart = true;
                        assert!(!nodes.is_empty());
                        assert!(nodes.iter().all(|x| targets().managers.contains(x)));
                        assert!(*at < SimTime::from_secs(120));
                        assert!(*down_for > SimDuration::ZERO);
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_disk && saw_restart, "storage kinds never sampled");
    }

    #[test]
    fn shard_sampling_is_deterministic_and_keeps_existing_plans_stable() {
        // Without shard targets the shard family adds no weight, so
        // fixed-seed plans replay byte-for-byte.
        let dir = draw(&directory_targets(), 11, DIRECTORY);
        let dir_via_shards = draw(&directory_targets(), 11, EVERYTHING);
        assert_eq!(dir, dir_via_shards, "no shard targets => identical plans");
        assert_eq!(draw(&shard_targets(), 11, EVERYTHING), draw(&shard_targets(), 11, EVERYTHING));
        // The shard mix actually produces both kinds at some seed, with
        // in-range parameters.
        let (mut saw_rebalance, mut saw_stale_map) = (false, false);
        for seed in 0..40 {
            for f in &draw(&shard_targets(), seed, EVERYTHING).faults {
                match f {
                    Fault::ShardRebalance { shard, at } => {
                        saw_rebalance = true;
                        assert!((*shard as usize) < shard_targets().shard_managers.len());
                        assert!(*at < SimTime::from_secs(120));
                    }
                    Fault::StaleShardMap { host } => {
                        saw_stale_map = true;
                        assert!(shard_targets().hosts.contains(host));
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_rebalance && saw_stale_map, "shard kinds never sampled");
    }

    #[test]
    fn directory_sampling_is_deterministic_and_keeps_other_plans_stable() {
        // The extra targets field alone must not perturb plans drawn
        // without the directory family.
        for mix in [FaultMix::default(), STORAGE] {
            assert_eq!(draw(&targets(), 11, mix), draw(&directory_targets(), 11, mix), "{mix:?}");
        }
        let directory = draw(&directory_targets(), 11, DIRECTORY);
        assert_eq!(directory, draw(&directory_targets(), 11, DIRECTORY));
        // With no replicas, the directory family degrades to the storage
        // mix exactly.
        assert_eq!(draw(&targets(), 11, DIRECTORY), draw(&targets(), 11, STORAGE));

        // The directory mix actually produces every new kind at some
        // seed, each one well-formed and aimed at the replica pool.
        let replicas = directory_targets().ns_replicas;
        let (mut saw_stale, mut saw_split, mut saw_malicious, mut saw_replica_crash) =
            (false, false, false, false);
        let horizon = SimTime::from_secs(120);
        let directory_only = FaultMix { directory: true, ..FaultMix::default() };
        for seed in 0..40 {
            let p = draw(&directory_targets(), seed, directory_only);
            assert!(p
                .faults
                .iter()
                .all(|f| !matches!(f, Fault::DiskFault { .. } | Fault::ClusterRestart { .. })));
            for f in &p.faults {
                match f {
                    Fault::StaleReplica { replica } => {
                        saw_stale = true;
                        assert!(replicas.contains(replica));
                    }
                    Fault::DirectorySplit { window, side_a, side_b } => {
                        saw_split = true;
                        assert!(window.end <= horizon);
                        assert!(!side_a.is_empty() && !side_b.is_empty());
                        assert!(side_a.iter().chain(side_b).all(|x| replicas.contains(x)));
                        assert!(side_a.iter().all(|x| !side_b.contains(x)));
                    }
                    Fault::MaliciousReplica { replica, window } => {
                        saw_malicious = true;
                        assert!(replicas.contains(replica));
                        assert!(window.end <= horizon);
                    }
                    Fault::Crash { node, .. } if replicas.contains(node) => {
                        saw_replica_crash = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(
            saw_stale && saw_split && saw_malicious && saw_replica_crash,
            "directory kinds never sampled: stale={saw_stale} split={saw_split} \
             malicious={saw_malicious} crash={saw_replica_crash}"
        );
    }

    #[test]
    fn directory_accessors_and_builder_round_trip() {
        let plan = NemesisPlan::builder(SimTime::from_secs(30))
            .stale_replica(n(5))
            .directory_split(vec![n(5)], vec![n(6), n(7)], SimTime::from_secs(2), SimTime::from_secs(9))
            .malicious_replica(n(6), SimTime::from_secs(10), SimTime::from_secs(20))
            .build();
        // Only the split is a network fault, and it severs like a
        // symmetric partition while open.
        let net = plan.net_faults();
        assert_eq!(net.len(), 1);
        assert!(net[0].severs(n(5), n(7), SimTime::from_secs(5)));
        assert!(net[0].severs(n(6), n(5), SimTime::from_secs(5)));
        assert!(!net[0].severs(n(6), n(7), SimTime::from_secs(5)), "same side stays connected");
        assert!(!net[0].severs(n(5), n(7), SimTime::from_secs(9)), "cut heals at window end");
        let text = plan.describe();
        assert!(text.contains("stale-replica"), "{text}");
        assert!(text.contains("directory-split"), "{text}");
        assert!(text.contains("malicious-replica"), "{text}");
    }

    #[test]
    fn disk_faults_accessor_and_builder_round_trip() {
        let plan = NemesisPlan::builder(SimTime::from_secs(30))
            .disk_fault(n(0), 0.1, 0.5)
            .cluster_restart(vec![n(0), n(1), n(2)], SimTime::from_secs(5), SimDuration::from_secs(1))
            .build();
        assert!(plan.net_faults().is_empty(), "storage faults are not network faults");
        let text = plan.describe();
        assert!(text.contains("disk-fault"), "{text}");
        assert!(text.contains("cluster-restart"), "{text}");
    }

    #[test]
    fn intensity_scales_fault_count() {
        let horizon = SimTime::from_secs(100);
        let mix = FaultMix::default();
        let light = NemesisPlan::sample(&targets(), horizon, 0.2, &mut SimRng::seed_from(3), mix);
        let heavy = NemesisPlan::sample(&targets(), horizon, 3.0, &mut SimRng::seed_from(3), mix);
        assert!(heavy.len() > light.len(), "{} <= {}", heavy.len(), light.len());
    }

    /// A window starting in the last 100 ms of the horizon is shorter
    /// than 100 ms: it ends at the horizon instead of inverting the
    /// length clamp's range (which panicked).
    #[test]
    fn sub_second_horizons_sample_windows_inside_the_horizon() {
        let horizon = SimTime::from_millis(500);
        for mix in [FaultMix::default(), EVERYTHING] {
            for seed in 0..200 {
                let mut rng = SimRng::seed_from(seed);
                let plan = NemesisPlan::sample(&shard_targets(), horizon, 1.0, &mut rng, mix);
                for fault in &plan.faults {
                    let window = match fault {
                        Fault::Drop { window, .. }
                        | Fault::Duplicate { window, .. }
                        | Fault::DelaySpike { window, .. }
                        | Fault::Partition { window, .. }
                        | Fault::AsymmetricPartition { window, .. }
                        | Fault::FlappingPartition { window, .. }
                        | Fault::DirectorySplit { window, .. }
                        | Fault::MaliciousReplica { window, .. } => window,
                        _ => continue,
                    };
                    let inside = window.start < window.end && window.end <= horizon;
                    assert!(inside, "seed {seed}: {fault}");
                }
            }
        }
    }

    #[test]
    fn flapping_partition_alternates() {
        let f = Fault::FlappingPartition {
            window: Window::new(SimTime::ZERO, SimTime::from_secs(10)),
            side_a: vec![n(0)],
            side_b: vec![n(1)],
            period: SimDuration::from_secs(1),
        };
        // Severed phase first, then healed, alternating each period.
        assert!(f.severs(n(0), n(1), SimTime::from_millis(500)));
        assert!(!f.severs(n(0), n(1), SimTime::from_millis(1_500)));
        assert!(f.severs(n(1), n(0), SimTime::from_millis(2_500)));
        assert!(!f.severs(n(0), n(1), SimTime::from_secs(11)), "outside the envelope");
    }

    #[test]
    fn asymmetric_partition_is_one_way() {
        let f = Fault::AsymmetricPartition {
            window: Window::new(SimTime::ZERO, SimTime::from_secs(10)),
            from: vec![n(0)],
            to: vec![n(1)],
        };
        assert!(f.severs(n(0), n(1), SimTime::from_secs(5)));
        assert!(!f.severs(n(1), n(0), SimTime::from_secs(5)), "reverse path must work");
    }

    #[test]
    fn without_removes_exactly_one_fault() {
        let plan = draw(&targets(), 4, FaultMix::default());
        assert!(plan.len() >= 2);
        let shrunk = plan.without(0);
        assert_eq!(shrunk.len(), plan.len() - 1);
        assert_eq!(shrunk.faults[0], plan.faults[1]);
    }

    #[test]
    fn describe_numbers_every_fault() {
        let plan = NemesisPlan::builder(SimTime::from_secs(30))
            .drop_burst(SimTime::from_secs(1), SimTime::from_secs(2), 0.5)
            .crash(n(0), SimTime::from_secs(3), SimDuration::from_secs(1))
            .build();
        let text = plan.describe();
        assert!(text.contains("[0] drop"), "{text}");
        assert!(text.contains("[1] crash"), "{text}");
    }
}
