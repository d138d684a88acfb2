//! Protocol-level experiments: the paper's analytic claims, measured on
//! the *real* protocol over a partitioned simulated WAN.
//!
//! The §4.1 model abstracts a check as "can the host reach C of M
//! managers right now?". These experiments run the actual
//! query/timeout/retry machinery of `wanacl-core` under the same i.i.d.
//! inaccessibility model ([`EpochIid`]) and count what really happened.

use wanacl_core::prelude::*;
use wanacl_sim::nemesis::NemesisPlan;
use wanacl_sim::net::partition::EpochIid;
use wanacl_sim::net::WanNet;
use wanacl_sim::node::NodeId;
use wanacl_sim::time::{SimDuration, SimTime};

/// An empirical probability from protocol runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolEstimate {
    /// Fraction of successful trials.
    pub value: f64,
    /// Number of trials.
    pub trials: u64,
    /// Binomial standard error.
    pub std_error: f64,
}

impl ProtocolEstimate {
    fn from_counts(successes: u64, trials: u64) -> Self {
        let p = successes as f64 / trials as f64;
        ProtocolEstimate {
            value: p,
            trials,
            std_error: (p * (1.0 - p) / trials as f64).sqrt(),
        }
    }

    /// Whether `expected` lies within `sigmas` standard errors (floored
    /// at 0.02 absolute, since the protocol adds small non-model effects
    /// like timeout edges).
    pub fn consistent_with(&self, expected: f64, sigmas: f64) -> bool {
        (self.value - expected).abs() <= (sigmas * self.std_error).max(0.02)
    }
}

impl std::fmt::Display for ProtocolEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.5} ± {:.5} (n={})", self.value, self.std_error, self.trials)
    }
}

const EPOCH: SimDuration = SimDuration::from_secs(10);

/// Measures empirical `PA(C)`: one cold access check per connectivity
/// epoch; success = the check quorum was assembled before the timeout.
///
/// Matches [`crate::model::pa`] because the host queries all `M`
/// managers and needs any `C` grants, and the `EpochIid` overlay holds
/// pairwise connectivity fixed for the duration of each check.
pub fn measure_availability(m: usize, c: usize, pi: f64, trials: u64, seed: u64) -> ProtocolEstimate {
    assert!(trials > 0, "need at least one trial");
    let policy = Policy::builder(c)
        .revocation_bound(SimDuration::from_secs(1)) // cold cache each trial
        .clock_rate_bound(1.0)
        .query_timeout(SimDuration::from_secs(2))
        .max_attempts(1)
        .build();
    // Node layout (Scenario order): managers 0..m, host m, user m+1,
    // admin m+2. Exempt the user<->host edge from the partition model.
    let host = NodeId::from_index(m);
    let user_node = NodeId::from_index(m + 1);
    let oracle = EpochIid::new(pi, EPOCH, seed ^ 0x9e37).exempt_pair(host, user_node);
    let net = WanNet::builder()
        .constant_delay(SimDuration::from_millis(20))
        .partitions(Box::new(oracle))
        .build();
    let mut d = Scenario::builder(seed)
        .managers(m)
        .hosts(1)
        .users(1)
        .policy(policy)
        .all_users_granted()
        .net(Box::new(net))
        .request_timeout(SimDuration::from_secs(8))
        .build();

    // One invoke per epoch, at the epoch's center.
    for i in 0..trials {
        let at = SimTime::ZERO + EPOCH.mul_f64(i as f64) + EPOCH.mul_f64(0.45);
        d.world.inject(
            at,
            d.users[0].1,
            ProtoMsg::Invoke {
                app: d.app,
                user: UserId(1),
                req: ReqId(0),
                payload: "trial".into(),
                signature: None,
            },
        );
    }
    d.run_until(SimTime::ZERO + EPOCH.mul_f64(trials as f64 + 2.0));
    let stats = d.user_agent(0).stats();
    assert_eq!(stats.sent, trials, "every trial must fire");
    ProtocolEstimate::from_counts(stats.allowed, trials)
}

/// Measures empirical `PS(C)`: one revoke per connectivity epoch, issued
/// at manager 0; success = the update quorum (`M − C + 1`) was assembled
/// within the same epoch ("timely").
pub fn measure_security(m: usize, c: usize, pi: f64, trials: u64, seed: u64) -> ProtocolEstimate {
    assert!(trials > 0, "need at least one trial");
    let policy = Policy::builder(c)
        .revocation_bound(SimDuration::from_secs(30))
        .query_timeout(SimDuration::from_secs(2))
        .max_attempts(1)
        .build();
    // Node layout: managers 0..m, host m, user m+1, admin m+2. Exempt
    // the admin<->manager0 edge so issuing never fails.
    let admin_node = NodeId::from_index(m + 2);
    let mgr0 = NodeId::from_index(0);
    let oracle = EpochIid::new(pi, EPOCH, seed ^ 0x51ed).exempt_pair(admin_node, mgr0);
    let net = WanNet::builder()
        .constant_delay(SimDuration::from_millis(20))
        .partitions(Box::new(oracle))
        .build();
    // Fast retransmission so within-epoch retries don't limit us.
    let tuning = ManagerConfig {
        retry_interval: SimDuration::from_millis(250),
        ..ManagerConfig::default()
    };
    // One revoke per epoch at its center (the user's right exists only
    // for the first; revoking an absent right disseminates identically,
    // which is all PS measures).
    let script: Vec<AdminAction> = (0..trials)
        .map(|i| AdminAction {
            delay: EPOCH.mul_f64(i as f64) + EPOCH.mul_f64(0.45),
            op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
        })
        .collect();
    let mut d = Scenario::builder(seed)
        .managers(m)
        .hosts(1)
        .users(1)
        .policy(policy)
        .all_users_granted()
        .net(Box::new(net))
        .manager_tuning(tuning)
        .admin_script(script)
        .build();
    d.run_until(SimTime::ZERO + EPOCH.mul_f64(trials as f64 + 2.0));

    let agent = d.admin_agent();
    assert_eq!(agent.op_count() as u64, trials);
    // Timely = stable within the issuing epoch (well under one epoch).
    let timely_bound = EPOCH.mul_f64(0.5);
    let timely = (0..agent.op_count())
        .filter(|&i| agent.stable_latency(i).map(|l| l <= timely_bound).unwrap_or(false))
        .count() as u64;
    ProtocolEstimate::from_counts(timely, trials)
}

/// Measures empirical availability with `R` retry attempts under subset
/// fan-out, with the per-attempt query timeout stretched past the
/// connectivity epoch so every attempt sees a fresh draw — the
/// independence regime of [`crate::retry::pa_with_retries`].
pub fn measure_availability_with_retries(
    m: usize,
    c: usize,
    pi: f64,
    r: u32,
    trials: u64,
    seed: u64,
) -> ProtocolEstimate {
    assert!(trials > 0, "need at least one trial");
    let policy = Policy::builder(c)
        .revocation_bound(SimDuration::from_secs(1))
        .clock_rate_bound(1.0)
        .query_timeout(EPOCH) // one attempt per connectivity epoch
        .max_attempts(r)
        .fanout(QueryFanout::Subset)
        .build();
    let host = NodeId::from_index(m);
    let user_node = NodeId::from_index(m + 1);
    let oracle = EpochIid::new(pi, EPOCH, seed ^ 0x7e77).exempt_pair(host, user_node);
    let net = WanNet::builder()
        .constant_delay(SimDuration::from_millis(20))
        .partitions(Box::new(oracle))
        .build();
    // Trials spaced past the worst case R epochs.
    let spacing = EPOCH.mul_f64(r as f64 + 2.0);
    let mut d = Scenario::builder(seed)
        .managers(m)
        .hosts(1)
        .users(1)
        .policy(policy)
        .all_users_granted()
        .net(Box::new(net))
        .request_timeout(spacing)
        .build();
    for i in 0..trials {
        let at = SimTime::ZERO + spacing.mul_f64(i as f64) + EPOCH.mul_f64(0.45);
        d.world.inject(
            at,
            d.users[0].1,
            ProtoMsg::Invoke {
                app: d.app,
                user: UserId(1),
                req: ReqId(0),
                payload: "trial".into(),
                signature: None,
            },
        );
    }
    d.run_until(SimTime::ZERO + spacing.mul_f64(trials as f64 + 2.0));
    let stats = d.user_agent(0).stats();
    assert_eq!(stats.sent, trials, "every trial must fire");
    ProtocolEstimate::from_counts(stats.allowed, trials)
}

/// Outcome of the §3.3 freeze-vs-quorum comparison (experiment E6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreezeComparison {
    /// Fraction of in-partition requests allowed under the plain quorum
    /// strategy.
    pub quorum_allowed: f64,
    /// Fraction of in-partition requests allowed under the freeze
    /// strategy.
    pub freeze_allowed: f64,
    /// Requests issued during the partition (per strategy).
    pub requests: u64,
}

/// Compares the quorum strategy against the freeze strategy during a
/// manager–manager partition: the freeze strategy trades availability
/// (no new grants anywhere) for tighter revocation behaviour.
pub fn freeze_vs_quorum(seed: u64) -> FreezeComparison {
    let run = |freeze: bool| -> (u64, u64) {
        let mut builder = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(60))
            .clock_rate_bound(0.5) // te = 30 s
            .query_timeout(SimDuration::from_millis(300))
            .max_attempts(1);
        if freeze {
            builder = builder.freeze(FreezePolicy {
                ti: SimDuration::from_secs(10),
                heartbeat_interval: SimDuration::from_secs(1),
            });
        }
        let policy = builder.build();
        // Managers 0,1; host 2; user 3; admin 4. Managers cut from each
        // other 20 s .. 120 s.
        let base = WanNet::builder().constant_delay(SimDuration::from_millis(20)).build();
        let net = NemesisPlan::builder(SimTime::from_secs(120))
            .partition(
                vec![NodeId::from_index(0)],
                vec![NodeId::from_index(1)],
                SimTime::from_secs(20),
                SimTime::from_secs(120),
            )
            .build()
            .wrap_net(Box::new(base));
        let mut d = Scenario::builder(seed)
            .managers(2)
            .hosts(1)
            .users(1)
            .policy(policy)
            .all_users_granted()
            .net(Box::new(net))
            .build();
        // Requests every 2 s throughout the partition window, starting
        // after the freeze detector (Ti·b = 5 s of silence) has tripped.
        // The cold-cache policy (te = 30 s) means early grants expire
        // mid-window too.
        let mut sent = 0u64;
        for t in (30..118).step_by(2) {
            d.world.inject(
                SimTime::from_secs(t),
                d.users[0].1,
                ProtoMsg::Invoke {
                    app: d.app,
                    user: UserId(1),
                    req: ReqId(0),
                    payload: "during-partition".into(),
                    signature: None,
                },
            );
            sent += 1;
        }
        d.run_until(SimTime::from_secs(125));
        (d.user_agent(0).stats().allowed, sent)
    };
    let (q_allowed, q_sent) = run(false);
    let (f_allowed, f_sent) = run(true);
    assert_eq!(q_sent, f_sent);
    FreezeComparison {
        quorum_allowed: q_allowed as f64 / q_sent as f64,
        freeze_allowed: f_allowed as f64 / f_sent as f64,
        requests: q_sent,
    }
}

/// Outcome of the E7 overhead measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadMeasurement {
    /// Control messages (queries + replies) per second, measured.
    pub measured_msgs_per_sec: f64,
    /// The `O(C/Te)` closed-form prediction.
    pub predicted_msgs_per_sec: f64,
    /// Measured cache hit ratio.
    pub cache_hit_ratio: f64,
}

/// Measures control-message overhead for one continuously active user as
/// a function of `C` and `Te` (subset fan-out, so cost per check is
/// exactly `2C`).
pub fn measure_overhead(c: usize, te: SimDuration, seed: u64) -> OverheadMeasurement {
    let m = 10usize;
    let invoke_period = SimDuration::from_millis(500);
    let policy = Policy::builder(c)
        .revocation_bound(te)
        .clock_rate_bound(1.0)
        .query_timeout(SimDuration::from_secs(2))
        .max_attempts(3)
        .fanout(QueryFanout::Subset)
        .build();
    let mut d = Scenario::builder(seed)
        .managers(m)
        .hosts(1)
        .users(1)
        .policy(policy)
        .all_users_granted()
        .build();
    let horizon = SimDuration::from_secs(600);
    let mut t = SimTime::from_secs(1);
    let mut invokes = 0u64;
    while t < SimTime::ZERO + horizon {
        d.world.inject(
            t,
            d.users[0].1,
            ProtoMsg::Invoke {
                app: d.app,
                user: UserId(1),
                req: ReqId(0),
                payload: "steady".into(),
                signature: None,
            },
        );
        invokes += 1;
        t += invoke_period;
    }
    d.run_until(SimTime::ZERO + horizon + SimDuration::from_secs(5));
    let queries = d.world.metrics().counter("host.queries_sent");
    let replies = d.world.metrics().counter("mgr.grants") + d.world.metrics().counter("mgr.denies");
    let measured = (queries + replies) as f64 / horizon.as_secs_f64();
    let rate = 1.0 / invoke_period.as_secs_f64();
    let predicted = crate::overhead::OverheadPoint::new(c as u64, te.as_secs_f64(), rate)
        .control_messages_per_second();
    let hits = d.host(0).stats().cache_hits;
    OverheadMeasurement {
        measured_msgs_per_sec: measured,
        predicted_msgs_per_sec: predicted,
        cache_hit_ratio: hits as f64 / invokes as f64,
    }
}

/// E11's steady workload: one granted user invoking every 500 ms for a
/// minute (120 invokes) against `M = 5` managers over a 20 ms WAN, under
/// check quorum `c`, revocation bound `te` and the given fan-out.
/// Returns `(allowed, control messages)`, a control message being a
/// query sent or a grant or denial returned.
pub fn ablation_workload(c: usize, te: SimDuration, fanout: QueryFanout, seed: u64) -> (u64, u64) {
    let net = WanNet::builder().constant_delay(SimDuration::from_millis(20)).build();
    let mut d = Scenario::builder(seed)
        .managers(5)
        .hosts(1)
        .users(1)
        .policy(Policy::builder(c).revocation_bound(te).fanout(fanout).build())
        .all_users_granted()
        .net(Box::new(net))
        .build();
    let mut t = SimTime::from_secs(1);
    while t < SimTime::from_secs(60) {
        d.world.inject(
            t,
            d.users[0].1,
            ProtoMsg::Invoke {
                app: d.app,
                user: UserId(1),
                req: ReqId(0),
                payload: "tick".into(),
                signature: None,
            },
        );
        t += SimDuration::from_millis(500);
    }
    d.run_until(SimTime::from_secs(65));
    let m = d.world.metrics();
    let control =
        m.counter("host.queries_sent") + m.counter("mgr.grants") + m.counter("mgr.denies");
    (d.aggregate_user_stats().allowed, control)
}

/// E11's retry-cadence run: one revoke into `M = 5`, `C = 3` managers
/// that re-send unacknowledged updates every `retry`, over a 20 ms WAN
/// losing 20 % of messages. Returns the mean seconds from issue to
/// update quorum over seeds 1–20 and how many of them got there within
/// 30 s. The time is the issuing manager's own `mgr.time_to_quorum_s`,
/// not the admin agent's `stable_latency`, which adds the agent's resend
/// cadence whenever the `Stable` reply is lost and asked again.
pub fn retry_cadence(retry: SimDuration) -> (f64, usize) {
    let reached: Vec<f64> = (1..=20)
        .filter_map(|seed| {
            let tuning = ManagerConfig { retry_interval: retry, ..ManagerConfig::default() };
            let net =
                WanNet::builder().constant_delay(SimDuration::from_millis(20)).loss(0.2).build();
            let mut d = Scenario::builder(seed)
                .managers(5)
                .hosts(1)
                .users(1)
                .policy(Policy::builder(3).build())
                .all_users_granted()
                .manager_tuning(tuning)
                .net(Box::new(net))
                .build();
            d.run_for(SimDuration::from_secs(1));
            d.revoke(UserId(1), Right::Use);
            d.run_for(SimDuration::from_secs(30));
            d.world.metrics().histogram("mgr.time_to_quorum_s")?.mean()
        })
        .collect();
    (reached.iter().sum::<f64>() / reached.len() as f64, reached.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{pa, ps};

    #[test]
    fn empirical_availability_tracks_model() {
        for &(m, c, pi) in &[(5usize, 3usize, 0.1), (5, 5, 0.2)] {
            let est = measure_availability(m, c, pi, 300, 11);
            let want = pa(m as u64, c as u64, pi);
            assert!(
                est.consistent_with(want, 4.0),
                "M={m} C={c} Pi={pi}: {est} vs model {want:.5}"
            );
        }
    }

    #[test]
    fn empirical_security_tracks_model() {
        for &(m, c, pi) in &[(5usize, 3usize, 0.1), (5, 1, 0.2)] {
            let est = measure_security(m, c, pi, 300, 13);
            let want = ps(m as u64, c as u64, pi);
            assert!(
                est.consistent_with(want, 4.0),
                "M={m} C={c} Pi={pi}: {est} vs model {want:.5}"
            );
        }
    }

    #[test]
    fn empirical_retry_availability_tracks_retry_model() {
        use crate::retry::pa_with_retries;
        use wanacl_core::policy::QueryFanout;
        for &(m, c, pi, r) in &[(5usize, 2usize, 0.3, 3u32), (5, 1, 0.4, 2)] {
            let est = measure_availability_with_retries(m, c, pi, r, 250, 21);
            let want = pa_with_retries(m as u64, c as u64, pi, r, QueryFanout::Subset);
            assert!(
                est.consistent_with(want, 4.0),
                "M={m} C={c} Pi={pi} R={r}: {est} vs model {want:.5}"
            );
        }
    }

    #[test]
    fn freeze_strategy_reduces_partition_availability() {
        let cmp = freeze_vs_quorum(17);
        assert!(
            cmp.freeze_allowed < cmp.quorum_allowed,
            "freeze should cost availability: {cmp:?}"
        );
        assert!(cmp.quorum_allowed > 0.9, "quorum keeps serving: {cmp:?}");
        // Freeze still serves from live cache entries early in the
        // window, but must be substantially lower overall.
        assert!(cmp.freeze_allowed < 0.5, "freeze blocks new checks: {cmp:?}");
    }

    #[test]
    fn ablations_print_what_e11_quotes() {
        let (cold, warm) = (SimDuration::from_millis(1), SimDuration::from_secs(30));
        assert_eq!(ablation_workload(2, warm, QueryFanout::All, 1).1, 20);
        assert_eq!(ablation_workload(2, cold, QueryFanout::All, 1).1, 1_180);
        for (fanout, control) in
            [(QueryFanout::All, 1_180), (QueryFanout::Subset, 236), (QueryFanout::Sequential, 236)]
        {
            assert_eq!(ablation_workload(1, cold, fanout, 3), (118, control), "{fanout:?}");
        }
        let means = [100, 500, 2_000].map(|retry_ms| {
            let (mean, reached) = retry_cadence(SimDuration::from_millis(retry_ms));
            assert!(mean.is_finite() && reached >= 15, "{retry_ms} ms: {mean} s, {reached}/20");
            mean
        });
        assert!(means[2] >= means[0], "a slower cadence cannot reach quorum sooner: {means:?}");
    }

    #[test]
    fn overhead_measurement_matches_big_o_model() {
        let m = measure_overhead(2, SimDuration::from_secs(10), 19);
        // 2C/Te = 0.4 msgs/s; allow protocol slack (timer alignment).
        assert!(
            (m.measured_msgs_per_sec - m.predicted_msgs_per_sec).abs()
                / m.predicted_msgs_per_sec
                < 0.35,
            "{m:?}"
        );
        assert!(m.cache_hit_ratio > 0.9, "{m:?}");
    }
}
