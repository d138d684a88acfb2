//! Randomized manager-convergence property: under arbitrary interleaved
//! `Add`/`Revoke` storms issued at arbitrary managers, with random
//! manager–manager partitions that eventually heal, every manager ends
//! with the same ACL (Lamport last-writer-wins + persistent
//! retransmission).

use proptest::prelude::*;

use wanacl::prelude::*;

#[derive(Debug, Clone)]
struct OpEvent {
    at_ms: u64,
    manager: usize,
    user: u64,
    right_use: bool,
    is_add: bool,
}

#[derive(Debug, Clone)]
struct Storm {
    seed: u64,
    managers: usize,
    ops: Vec<OpEvent>,
    /// Partition of one manager away from the rest, healing before the
    /// horizon.
    cut_manager: usize,
    cut_window: (u64, u64),
}

fn storm() -> impl Strategy<Value = Storm> {
    (2usize..=5, any::<u64>()).prop_flat_map(|(managers, seed)| {
        let ops = prop::collection::vec(
            (0u64..30_000, 0..managers, 1u64..4, any::<bool>(), any::<bool>()).prop_map(
                |(at_ms, manager, user, right_use, is_add)| OpEvent {
                    at_ms,
                    manager,
                    user,
                    right_use,
                    is_add,
                },
            ),
            1..25,
        );
        (Just(managers), Just(seed), ops, 0..managers, (1_000u64..20_000, 1_000u64..15_000))
            .prop_map(|(managers, seed, ops, cut_manager, (start, len))| Storm {
                seed,
                managers,
                ops,
                cut_manager,
                cut_window: (start, start + len),
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn managers_converge_after_op_storm(storm in storm()) {
        let m = storm.managers;
        let side: Vec<NodeId> = vec![NodeId::from_index(storm.cut_manager)];
        let rest: Vec<NodeId> = (0..m)
            .filter(|&i| i != storm.cut_manager)
            .map(NodeId::from_index)
            .collect();
        let start = SimTime::from_millis(storm.cut_window.0);
        let end = SimTime::from_millis(storm.cut_window.1);
        let mut plan = NemesisPlan::builder(end);
        if !rest.is_empty() {
            plan = plan.partition(side, rest, start, end);
        }
        let base = WanNet::builder()
            .uniform_delay(SimDuration::from_millis(5), SimDuration::from_millis(50))
            .build();
        let net = plan.build().wrap_net(Box::new(base));
        let tuning = ManagerConfig {
            retry_interval: SimDuration::from_millis(300),
            ..ManagerConfig::default()
        };
        let mut d = Scenario::builder(storm.seed)
            .managers(m)
            .hosts(1)
            .users(3)
            .policy(Policy::builder(1).build())
            .manager_tuning(tuning)
            .net(Box::new(net))
            .build();

        for (i, op) in storm.ops.iter().enumerate() {
            let right = if op.right_use { Right::Use } else { Right::Manage };
            let acl_op = if op.is_add {
                AclOp::Add { app: d.app, user: UserId(op.user), right }
            } else {
                AclOp::Revoke { app: d.app, user: UserId(op.user), right }
            };
            d.world.inject(
                SimTime::from_millis(op.at_ms),
                d.managers[op.manager],
                ProtoMsg::Admin {
                    op: acl_op,
                    req: ReqId(i as u64),
                    issuer: UserId(0),
                    signature: None,
                },
            );
        }

        // Run well past the heal plus several retransmission rounds.
        d.run_until(SimTime::from_secs(120));

        for user in 1..4u64 {
            for right in [Right::Use, Right::Manage] {
                let answers: Vec<bool> = (0..m)
                    .map(|i| d.manager(i).acl_has(d.app, UserId(user), right))
                    .collect();
                prop_assert!(
                    answers.iter().all(|&a| a == answers[0]),
                    "user {user} {right}: managers diverged {answers:?} (storm {storm:?})"
                );
            }
        }
    }
}
