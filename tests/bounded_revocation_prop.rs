//! Invariant I1, randomized: **bounded revocation**. Across random
//! partition geometries, clock rates, timings, and seeds, once a revoke
//! reaches its update quorum at real time `t`, no access is granted
//! after `t + Te` (plus in-flight-delivery slack).
//!
//! This is the paper's central guarantee (§3.2–§3.3), checked on the
//! real protocol rather than the model.

use proptest::prelude::*;

use wanacl::prelude::*;

const TE_SECS: u64 = 12;
const HORIZON_SECS: u64 = 60;

#[derive(Debug, Clone)]
struct Geometry {
    seed: u64,
    /// How many of the 3 managers the host loses contact with, and when.
    cut_managers: usize,
    cut_at_secs: u64,
    revoke_at_secs: u64,
    /// Host clock rate in [b, 1] with b = 0.8.
    host_rate_milli: u64,
}

fn geometry() -> impl Strategy<Value = Geometry> {
    (
        any::<u64>(),
        0usize..=3,
        4u64..30,
        5u64..25,
        800u64..=1000,
    )
        .prop_map(|(seed, cut_managers, cut_at_secs, revoke_at_secs, host_rate_milli)| Geometry {
            seed,
            cut_managers,
            cut_at_secs,
            revoke_at_secs,
            host_rate_milli,
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn no_access_after_te_past_quorum(geo in geometry()) {
        let b = 0.8;
        let policy = Policy::builder(2)
            .revocation_bound(SimDuration::from_secs(TE_SECS))
            .clock_rate_bound(b)
            .query_timeout(SimDuration::from_millis(250))
            .max_attempts(2)
            .cache_sweep_interval(SimDuration::from_secs(3))
            .build();

        // Node layout: managers 0..3, host 3, user 4, admin 5. Managers
        // stay mutually connected (the update quorum is reachable), the
        // host loses `cut_managers` of them at `cut_at`.
        let end = SimTime::from_secs(10_000);
        let mut plan = NemesisPlan::builder(end);
        if geo.cut_managers > 0 {
            let side: Vec<NodeId> = (0..geo.cut_managers).map(NodeId::from_index).collect();
            let cut_at = SimTime::from_secs(geo.cut_at_secs);
            plan = plan.partition(side, vec![NodeId::from_index(3)], cut_at, end);
        }
        let base = WanNet::builder()
            .uniform_delay(SimDuration::from_millis(10), SimDuration::from_millis(60))
            .build();
        let net = plan.build().wrap_net(Box::new(base));

        let rate = geo.host_rate_milli as f64 / 1000.0;
        // 200 ms of slack: the reply leg in flight.
        let oracle = InvariantOracle::new(&policy, SimDuration::from_millis(200));
        let mut d = Scenario::builder(geo.seed)
            .managers(3)
            .hosts(1)
            .users(1)
            .policy(policy)
            .all_users_granted()
            .host_clock(ClockSpec::Fixed { rate, offset: SimDuration::ZERO })
            .net(Box::new(net))
            .request_timeout(SimDuration::from_secs(5))
            .build();
        let oracle = d.world.add_observer(Box::new(oracle));

        // Revoke at the scripted time; invoke twice a second throughout,
        // stepping so each allowed reply can be timestamped.
        let revoke_at = SimTime::from_secs(geo.revoke_at_secs);
        let user_node = d.users[0].1;
        let mut allowed_so_far = 0u64;
        let mut last_allowed_at: Option<SimTime> = None;
        let mut revoked = false;
        let step = SimDuration::from_millis(500);
        let mut t = SimTime::from_millis(400);
        while t < SimTime::from_secs(HORIZON_SECS) {
            if !revoked && t >= revoke_at {
                d.revoke(UserId(1), Right::Use);
                revoked = true;
            }
            d.world.inject(t, user_node, ProtoMsg::Invoke {
                app: d.app,
                user: UserId(1),
                req: ReqId(0),
                payload: "tick".into(),
                signature: None,
            });
            t += step;
            d.run_until(t);
            let now_allowed = d.user_agent(0).stats().allowed;
            if now_allowed > allowed_so_far {
                allowed_so_far = now_allowed;
                last_allowed_at = Some(d.world.now());
            }
        }
        d.run_until(SimTime::from_secs(HORIZON_SECS + 10));

        // The revoke must have stabilized (managers stay connected).
        let agent = d.admin_agent();
        prop_assert_eq!(agent.op_count(), 1);
        let sent_at = agent.sent_at(0).expect("revoke sent");
        let latency = agent.stable_latency(0).expect("revoke must reach its update quorum");
        // Admin clock is perfect: local time == real time.
        let stable_at = SimTime::from_nanos(sent_at.plus(latency).as_nanos());

        // THE invariant: nothing allowed after stable + Te + slack.
        // Slack covers the reply leg (max one-way delay) plus the
        // half-step quantization of our observation loop.
        let bound = stable_at
            + SimDuration::from_secs(TE_SECS)
            + SimDuration::from_millis(600);
        if let Some(last) = last_allowed_at {
            prop_assert!(
                last <= bound,
                "access allowed at {last} after bound {bound} (revoke stable {stable_at})"
            );
        }

        // Independent check: the invariant oracle re-derives the same
        // invariant (and I2–I4) from the audit notes alone.
        let oracle = d.world.observer_as::<InvariantOracle>(oracle);
        prop_assert!(oracle.stats().revokes >= 1, "oracle must see the stable revoke");
        prop_assert!(oracle.is_clean(), "oracle found a violation: {:?}", oracle.violations());
    }
}
