//! E11: empirical PA/PS at planet scale — §4.1 measured, not derived.
//!
//! The analytic model ([`crate::model`]) gives `PA(C)`/`PS(C)` in closed
//! form under i.i.d. pairwise inaccessibility `Pi`. This module rebuilds
//! those numbers *empirically* by running a 10,000-host world through the
//! discrete-event simulator: every host really sends its check round to
//! all `M` managers over a regional WAN delay model, the `EpochIid`
//! partition oracle really drops pairs with probability `Pi` per epoch,
//! and availability is whatever fraction of rounds actually gathered a
//! quorum before the timeout.
//!
//! The trick that keeps a full Table 1 affordable is that one run
//! measures **every** quorum size at once: each check counts how many of
//! the `M` managers replied before the deadline (its *reach* `R`), and
//! each revocation counts how many of the `M-1` peer managers
//! acknowledged (its *ack count* `A`). Then for any `C`:
//!
//! ```text
//! PA(C) = P[R >= C]        PS(C) = P[A >= M - C]
//! ```
//!
//! so a single 10k-host campaign yields the whole empirical column of
//! Table 1 / Figure 5, and one world per `M` covers Table 2.
//!
//! Arrivals come from the [`wanacl_sim::workload`] generators: a Zipf
//! popularity law picks which user (and therefore which host, by
//! affinity) issues each check, and a diurnal [`LoadCurve`] with an
//! optional flash crowd shapes the aggregate rate. None of that changes
//! the expected PA/PS — reach is independent of *when* a check runs —
//! which is exactly why the comparison against the closed form is a
//! meaningful end-to-end validation of queue, net, and workload layers.

use std::sync::Arc;

use wanacl_sim::clock::ClockSpec;
use wanacl_sim::hash::FxHashMap;
use wanacl_sim::metrics::{HistogramSummary, MetricId as M, Metrics};
use wanacl_sim::net::partition::EpochIid;
use wanacl_sim::net::WanNet;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::workload::{arrivals, LoadCurve, RegionalTopology, ZipfPopularity};
use wanacl_sim::world::World;

use crate::model;

/// Messages of the probe protocol. `Do*` variants are environment
/// injections that trigger an operation; the rest travel over the WAN.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // `req`/`op` are the operation ids; nothing else to say
pub enum ProbeMsg {
    /// Environment → host: issue check round `req` now.
    DoCheck { req: u64 },
    /// Host → manager: one leg of a check round.
    Check { req: u64 },
    /// Manager → host: positive reply to a check leg.
    CheckReply { req: u64 },
    /// Environment → manager: issue revocation `op` now.
    DoRevoke { op: u64 },
    /// Revoking manager → peer manager: propagate the revocation.
    Revoke { op: u64 },
    /// Peer manager → revoking manager: revocation acknowledged.
    RevokeAck { op: u64 },
}

struct PendingCheck {
    replies: u32,
    started: wanacl_sim::clock::LocalTime,
    quorum_at: Option<wanacl_sim::clock::LocalTime>,
}

/// A host that measures check reach: on `DoCheck` it fans out to all
/// managers and, when the timeout fires, records how many replied.
struct HostProbe {
    managers: Arc<[NodeId]>,
    quorum: u32,
    timeout: SimDuration,
    pending: FxHashMap<u64, PendingCheck>,
    /// `reach[r]` = number of finished checks that reached exactly `r`
    /// of the `M` managers before the deadline.
    reach: Vec<u64>,
}

impl HostProbe {
    fn new(managers: Arc<[NodeId]>, quorum: u32, timeout: SimDuration) -> Self {
        let m = managers.len();
        Self { managers, quorum, timeout, pending: FxHashMap::default(), reach: vec![0; m + 1] }
    }
}

impl Node for HostProbe {
    type Msg = ProbeMsg;

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProbeMsg>, from: NodeId, msg: ProbeMsg) {
        match msg {
            ProbeMsg::DoCheck { req } => {
                let started = ctx.local_now();
                for &m in self.managers.iter() {
                    ctx.send(m, ProbeMsg::Check { req });
                }
                self.pending.insert(req, PendingCheck { replies: 0, started, quorum_at: None });
                ctx.set_timer(self.timeout, req);
                ctx.metric_incr(M::SCALE_CHECK_SENT);
            }
            ProbeMsg::CheckReply { req } => {
                let _ = from;
                let now = ctx.local_now();
                if let Some(p) = self.pending.get_mut(&req) {
                    p.replies += 1;
                    if p.replies == self.quorum {
                        p.quorum_at = Some(now);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProbeMsg>, tag: u64) {
        if let Some(p) = self.pending.remove(&tag) {
            let r = (p.replies as usize).min(self.reach.len() - 1);
            self.reach[r] += 1;
            ctx.metric_observe(M::SCALE_CHECK_REACH, r as f64);
            if let Some(q) = p.quorum_at {
                ctx.metric_incr(M::SCALE_CHECK_OK);
                ctx.metric_observe(
                    M::SCALE_CHECK_QUORUM_LATENCY_S,
                    q.since(p.started).as_secs_f64(),
                );
            } else {
                ctx.metric_incr(M::SCALE_CHECK_UNAVAIL);
            }
        }
    }
}

/// A manager that serves check legs and measures revocation reach: on
/// `DoRevoke` it fans out to its peers and records how many acked.
struct ManagerProbe {
    peers: Vec<NodeId>,
    timeout: SimDuration,
    pending: FxHashMap<u64, u32>,
    /// `acks[a]` = number of finished revocations where exactly `a` of
    /// the `M-1` peer managers acknowledged before the deadline.
    acks: Vec<u64>,
}

impl ManagerProbe {
    fn new(peers: Vec<NodeId>, timeout: SimDuration) -> Self {
        let n = peers.len();
        Self { peers, timeout, pending: FxHashMap::default(), acks: vec![0; n + 1] }
    }
}

impl Node for ManagerProbe {
    type Msg = ProbeMsg;

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProbeMsg>, from: NodeId, msg: ProbeMsg) {
        match msg {
            ProbeMsg::Check { req } => {
                ctx.send(from, ProbeMsg::CheckReply { req });
                ctx.metric_incr(M::SCALE_MGR_SERVED);
            }
            ProbeMsg::DoRevoke { op } => {
                for &p in &self.peers {
                    ctx.send(p, ProbeMsg::Revoke { op });
                }
                self.pending.insert(op, 0);
                ctx.set_timer(self.timeout, op);
                ctx.metric_incr(M::SCALE_REVOKE_SENT);
            }
            ProbeMsg::Revoke { op } => {
                ctx.send(from, ProbeMsg::RevokeAck { op });
            }
            ProbeMsg::RevokeAck { op } => {
                if let Some(a) = self.pending.get_mut(&op) {
                    *a += 1;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProbeMsg>, tag: u64) {
        if let Some(a) = self.pending.remove(&tag) {
            let a = (a as usize).min(self.acks.len() - 1);
            self.acks[a] += 1;
            ctx.metric_observe(M::SCALE_REVOKE_ACKS, a as f64);
        }
    }
}

/// A flash-crowd burst layered on top of the diurnal curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashSpec {
    /// When the burst begins (simulated time).
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Rate multiplier while active (e.g. `3.0`).
    pub multiplier: f64,
}

/// Configuration for one empirical planet-scale measurement.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Number of host nodes (the paper's "massively replicated" fleet).
    pub hosts: usize,
    /// Number of state managers `M`.
    pub managers: usize,
    /// Check quorum `C` used for the per-operation overhead metrics
    /// (reach/ack histograms cover every `C` regardless).
    pub check_quorum: usize,
    /// Pairwise inaccessibility `Pi` fed to the `EpochIid` oracle.
    pub pi: f64,
    /// Partition epoch: pair up/down states redraw this often.
    pub epoch: SimDuration,
    /// Simulated horizon over which checks are issued.
    pub horizon: SimDuration,
    /// Mean number of checks each host issues across the horizon.
    pub checks_per_host: f64,
    /// Diurnal amplitude in `[0, 1]` (peak-to-mean swing of the curve).
    pub diurnal_amplitude: f64,
    /// Optional flash crowd.
    pub flash: Option<FlashSpec>,
    /// User population for the Zipf popularity law.
    pub zipf_users: usize,
    /// Zipf exponent `s` (0 = uniform).
    pub zipf_s: f64,
    /// Number of revocation operations spread across the horizon.
    pub revoke_ops: u64,
    /// Per-operation deadline; must comfortably exceed the worst RTT.
    pub timeout: SimDuration,
    /// Relative jitter added to regional base latencies.
    pub jitter: f64,
    /// World seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            hosts: 10_000,
            managers: 10,
            check_quorum: 3,
            pi: 0.1,
            epoch: SimDuration::from_secs(10),
            horizon: SimDuration::from_secs(600),
            checks_per_host: 5.0,
            diurnal_amplitude: 0.5,
            flash: None,
            zipf_users: 10_000,
            zipf_s: 1.1,
            revoke_ops: 2_000,
            timeout: SimDuration::from_secs(1),
            jitter: 0.1,
            seed: 1,
        }
    }
}

/// What one empirical run measured.
#[derive(Debug, Clone)]
pub struct EmpiricalOutcome {
    /// Manager count `M`.
    pub m: usize,
    /// Pairwise inaccessibility the oracle was configured with.
    pub pi: f64,
    /// The configured check quorum (for the overhead metrics).
    pub check_quorum: usize,
    /// Total check rounds finished.
    pub checks: u64,
    /// Total revocation operations finished.
    pub revokes: u64,
    /// `reach[r]` = checks that reached exactly `r` managers.
    pub reach: Vec<u64>,
    /// `acks[a]` = revocations acknowledged by exactly `a` peers.
    pub acks: Vec<u64>,
    /// Summary of the time-to-quorum histogram (seconds), if any check
    /// at the configured quorum succeeded.
    pub quorum_latency: Option<HistogramSummary>,
    /// Network messages sent per check round (includes revocations'
    /// share, so slightly above `M + E[R]`).
    pub msgs_per_check: f64,
    /// Full metrics bag, exportable via the obs sink formats.
    pub metrics: Metrics,
}

impl EmpiricalOutcome {
    /// Empirical `PA(C)`: fraction of checks that reached at least `C`
    /// managers before the deadline.
    pub fn pa(&self, c: usize) -> f64 {
        if self.checks == 0 {
            return 0.0;
        }
        let hits: u64 = self.reach[c.min(self.reach.len() - 1)..].iter().sum();
        hits as f64 / self.checks as f64
    }

    /// Empirical `PS(C)`: fraction of revocations acknowledged by at
    /// least `M - C` peers before the deadline (so that, together with
    /// the revoker, every `C`-quorum intersects an informed manager).
    pub fn ps(&self, c: usize) -> f64 {
        if self.revokes == 0 {
            return 0.0;
        }
        let need = self.m.saturating_sub(c);
        let hits: u64 = self.acks[need.min(self.acks.len() - 1)..].iter().sum();
        hits as f64 / self.revokes as f64
    }

    /// Analytic `PA(C)` for this run's `M` and `Pi`.
    pub fn pa_model(&self, c: usize) -> f64 {
        model::pa(self.m as u64, c as u64, self.pi)
    }

    /// Analytic `PS(C)` for this run's `M` and `Pi`.
    pub fn ps_model(&self, c: usize) -> f64 {
        model::ps(self.m as u64, c as u64, self.pi)
    }

    /// The measured curves in [`crate::figures::Fig5Series`] form, so
    /// the empirical run can reuse `sweet_range` and the renderer.
    pub fn fig5_series(&self) -> crate::figures::Fig5Series {
        crate::figures::Fig5Series {
            m: self.m as u64,
            pi: self.pi,
            availability: (1..=self.m).map(|c| self.pa(c)).collect(),
            security: (1..=self.m).map(|c| self.ps(c)).collect(),
        }
    }

    /// Largest absolute deviation from the closed form across all `C`.
    pub fn max_abs_error(&self) -> f64 {
        (1..=self.m)
            .flat_map(|c| {
                [(self.pa(c) - self.pa_model(c)).abs(), (self.ps(c) - self.ps_model(c)).abs()]
            })
            .fold(0.0, f64::max)
    }
}

/// Runs one empirical measurement world and collects its reach/ack
/// distributions.
///
/// Node layout: managers first (`NodeId` 0..M), then hosts — the planet
/// topology's round-robin region assignment therefore spreads managers
/// across regions, as a real deployment would.
pub fn run_empirical(cfg: &ScaleConfig) -> EmpiricalOutcome {
    assert!(cfg.managers >= 2, "need at least two managers");
    assert!(cfg.check_quorum >= 1 && cfg.check_quorum <= cfg.managers);
    let m = cfg.managers;

    let mut world: World<ProbeMsg> = World::new(cfg.seed);
    let net = WanNet::builder()
        .delay_model(Box::new(RegionalTopology::planet().jitter(cfg.jitter)))
        .partitions(Box::new(EpochIid::new(cfg.pi, cfg.epoch, cfg.seed ^ 0x5ca1e)))
        .build();
    world.set_net(Box::new(net));

    let manager_ids: Vec<NodeId> = (0..m).map(NodeId::from_index).collect();
    for (i, &id) in manager_ids.iter().enumerate() {
        let peers: Vec<NodeId> = manager_ids.iter().copied().filter(|&p| p != id).collect();
        let got = world.add_node(
            format!("mgr{i}"),
            Box::new(ManagerProbe::new(peers, cfg.timeout)),
            ClockSpec::Perfect,
        );
        assert_eq!(got, id);
    }
    let shared_managers: Arc<[NodeId]> = manager_ids.clone().into();
    let host_ids: Vec<NodeId> = (0..cfg.hosts)
        .map(|i| {
            world.add_node(
                format!("host{i}"),
                Box::new(HostProbe::new(
                    shared_managers.clone(),
                    cfg.check_quorum as u32,
                    cfg.timeout,
                )),
                ClockSpec::Perfect,
            )
        })
        .collect();

    // Shape the aggregate check arrivals with the workload generators.
    // One diurnal period spans the horizon, so the mean rate equals the
    // base rate and the expected check count is hosts * checks_per_host.
    let total_rate = cfg.hosts as f64 * cfg.checks_per_host / cfg.horizon.as_secs_f64();
    let mut curve = LoadCurve::constant(total_rate)
        .diurnal(cfg.diurnal_amplitude, cfg.horizon)
        .peak_offset(cfg.horizon.mul_f64(0.25));
    if let Some(f) = cfg.flash {
        curve = curve.flash_crowd(f.start, f.duration, f.multiplier);
    }
    let mut wl_rng = SimRng::seed_from(cfg.seed ^ 0x10ad);
    let pop = ZipfPopularity::new(cfg.zipf_users, cfg.zipf_s);
    let t0 = world.now();
    let end = t0 + cfg.horizon;
    for (req, at) in arrivals(&curve, t0, end, &mut wl_rng).into_iter().enumerate() {
        // Session affinity: a user's checks always land on the same host.
        let user = pop.sample_user(&mut wl_rng);
        let host = host_ids[user % cfg.hosts];
        world.inject(at, host, ProbeMsg::DoCheck { req: req as u64 });
    }

    // Spread revocations evenly, rotating the revoking manager so every
    // manager pair's epoch state contributes to the PS estimate.
    if cfg.revoke_ops > 0 {
        let gap = cfg.horizon.as_secs_f64() / cfg.revoke_ops as f64;
        for op in 0..cfg.revoke_ops {
            let at = t0 + SimDuration::from_secs_f64((op as f64 + 0.5) * gap);
            let revoker = manager_ids[(op as usize) % m];
            world.inject(at, revoker, ProbeMsg::DoRevoke { op });
        }
    }

    // Let the last timeout fire before reading the tallies.
    world.run_until(end + cfg.timeout + cfg.timeout);

    let mut reach = vec![0u64; m + 1];
    for &h in &host_ids {
        let p: &HostProbe = world.node_as(h);
        for (r, n) in p.reach.iter().enumerate() {
            reach[r] += n;
        }
    }
    let mut acks = vec![0u64; m];
    for &mg in &manager_ids {
        let p: &ManagerProbe = world.node_as(mg);
        for (a, n) in p.acks.iter().enumerate() {
            acks[a] += n;
        }
    }

    let checks: u64 = reach.iter().sum();
    let revokes: u64 = acks.iter().sum();
    let metrics = world.metrics().clone();
    let quorum_latency =
        metrics.histogram("scale.check_quorum_latency_s").and_then(|h| h.summary());
    let msgs_per_check = metrics.counter("net.sent") as f64 / checks.max(1) as f64;

    EmpiricalOutcome {
        m,
        pi: cfg.pi,
        check_quorum: cfg.check_quorum,
        checks,
        revokes,
        reach,
        acks,
        quorum_latency,
        msgs_per_check,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ScaleConfig {
        ScaleConfig {
            hosts: 200,
            managers: 5,
            check_quorum: 2,
            horizon: SimDuration::from_secs(120),
            checks_per_host: 4.0,
            zipf_users: 500,
            revoke_ops: 400,
            epoch: SimDuration::from_secs(5),
            seed: 7,
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn empirical_tracks_model() {
        let out = run_empirical(&small_cfg());
        assert!(out.checks > 500, "expected a real sample, got {}", out.checks);
        assert_eq!(out.revokes, 400);
        // ~800 checks and 400 revocations: the estimate should sit within
        // a few points of the closed form at every quorum size.
        for c in 1..=out.m {
            assert!(
                (out.pa(c) - out.pa_model(c)).abs() < 0.06,
                "PA({c}) emp {} vs model {}",
                out.pa(c),
                out.pa_model(c)
            );
            assert!(
                (out.ps(c) - out.ps_model(c)).abs() < 0.08,
                "PS({c}) emp {} vs model {}",
                out.ps(c),
                out.ps_model(c)
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_empirical(&small_cfg());
        let b = run_empirical(&small_cfg());
        assert_eq!(a.reach, b.reach);
        assert_eq!(a.acks, b.acks);
        assert_eq!(a.msgs_per_check, b.msgs_per_check);
    }

    #[test]
    fn monotone_in_quorum() {
        let out = run_empirical(&small_cfg());
        for c in 1..out.m {
            assert!(out.pa(c) >= out.pa(c + 1));
            assert!(out.ps(c) <= out.ps(c + 1));
        }
    }
}
