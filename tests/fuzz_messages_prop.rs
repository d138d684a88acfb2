//! Adversarial-input fuzzing: arbitrary protocol messages from arbitrary
//! senders thrown at a live deployment must never panic the nodes, never
//! admit an unauthorized user, and never corrupt convergence.

use proptest::prelude::*;

use wanacl::prelude::*;
use wanacl::sim::time::{SimDuration, SimTime};

/// A compact recipe for one hostile message.
#[derive(Debug, Clone)]
struct Hostile {
    at_ms: u64,
    /// Which node receives it (index into the deployment's node space).
    target: usize,
    /// Which message to forge.
    kind: u8,
    a: u64,
    b: u64,
}

fn hostile() -> impl Strategy<Value = Hostile> {
    (0u64..20_000, 0usize..8, 0u8..12, any::<u64>(), any::<u64>())
        .prop_map(|(at_ms, target, kind, a, b)| Hostile { at_ms, target, kind, a, b })
}

fn forge(h: &Hostile) -> ProtoMsg {
    let app = AppId((h.a % 3) as u32);
    let user = UserId(h.b % 5);
    let req = ReqId(h.a ^ h.b);
    match h.kind {
        0 => ProtoMsg::Invoke {
            app,
            user,
            req,
            payload: "fuzz".into(),
            signature: None,
        },
        1 => ProtoMsg::InvokeReply { req, outcome: InvokeOutcome::Denied },
        2 => ProtoMsg::Query { app, user, req },
        3 => ProtoMsg::QueryReply {
            req,
            app,
            user,
            verdict: QueryVerdict::Grant { te: SimDuration::from_secs(h.a % 1_000 + 1) },
            mac: None,
        },
        4 => ProtoMsg::QueryReply { req, app, user, verdict: QueryVerdict::Deny, mac: None },
        5 => ProtoMsg::RevokeNotice { app, user, mac: None },
        6 => ProtoMsg::Admin {
            op: AclOp::Add { app, user, right: Right::Use },
            req,
            issuer: user,
            signature: None,
        },
        7 => ProtoMsg::AdminReply { req, status: AdminStatus::Stable },
        8 => ProtoMsg::Update {
            id: OpId { origin: NodeId::from_index((h.a % 4) as usize), seq: h.b },
            op: AclOp::Revoke { app, user, right: Right::Manage },
        },
        9 => ProtoMsg::UpdateAck {
            id: OpId { origin: NodeId::from_index((h.b % 4) as usize), seq: h.a },
        },
        10 => ProtoMsg::SyncRequest { stamps: vec![(NodeId::from_index((h.a % 4) as usize), h.b)], slots: vec![] },
        _ => ProtoMsg::NsRecordReply {
            app,
            ttl: SimDuration::from_secs(h.b % 100 + 1),
            record: Some(Box::new(NsRecord {
                app,
                version: h.a % 4,
                shards: vec![ShardEntry::whole_keyspace(app, vec![NodeId::from_index((h.a % 8) as usize)])],
                signature: wanacl::auth::rsa::Signature(h.b),
            })),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// An authenticated deployment under a hostile message flood: the
    /// legitimate user keeps working, the unauthorized user never gets
    /// in, nothing panics.
    #[test]
    fn hostile_floods_cannot_break_an_authenticated_deployment(
        flood in prop::collection::vec(hostile(), 1..80),
        seed in any::<u64>(),
    ) {
        let policy = Policy::builder(2)
            .revocation_bound(SimDuration::from_secs(30))
            .query_timeout(SimDuration::from_millis(300))
            .max_attempts(2)
            .build();
        // Layout: managers 0..3, host 3, users 4,5, admin 6.
        let mut d = Scenario::builder(seed)
            .managers(3)
            .hosts(1)
            .users(2)
            .policy(policy)
            .initial_rights(vec![(UserId(1), Right::Use)]) // user 2 unauthorized
            .authenticate()
            .build();

        for h in &flood {
            // Target protocol nodes only (managers 0..3 and the host 3).
            // Environment injections into *agents* are operator triggers
            // by convention, not network traffic an adversary controls.
            let target = NodeId::from_index(h.target % 4);
            d.world.inject(SimTime::from_millis(h.at_ms), target, forge(h));
        }
        // Legitimate traffic interleaved with the flood.
        for t in [2u64, 8, 14, 19] {
            for user_idx in 0..2 {
                let (user, node) = d.users[user_idx];
                d.world.inject(
                    SimTime::from_secs(t),
                    node,
                    ProtoMsg::Invoke {
                        app: d.app,
                        user,
                        req: ReqId(0),
                        payload: "legit".into(),
                        signature: None, // the agent signs it itself
                    },
                );
            }
        }
        d.run_until(SimTime::from_secs(40));

        // The unauthorized user never got in.
        prop_assert_eq!(d.user_agent(1).stats().allowed, 0);
        // The legitimate user was never blocked by the flood (all four
        // requests answered affirmatively).
        prop_assert_eq!(d.user_agent(0).stats().allowed, 4);
        // Managers still agree about every probed user and right — the
        // flood included forged Update/UpdateAck/SyncResponse traffic,
        // which must be rejected at the peer filter.
        for user in 0..5u64 {
            for right in [Right::Use, Right::Manage] {
                let answers: Vec<bool> = (0..3)
                    .map(|i| d.manager(i).acl_has(d.app, UserId(user), right))
                    .collect();
                prop_assert!(
                    answers.iter().all(|&x| x == answers[0]),
                    "user {user} {right}: {answers:?}"
                );
            }
        }
        // And no forged update may have touched the ACL at all: user 1
        // keeps `use`, nobody gained `manage` beyond the admin.
        prop_assert!(d.manager(0).acl_has(d.app, UserId(1), Right::Use));
        for user in 0..5u64 {
            prop_assert!(!d.manager(0).acl_has(d.app, UserId(user), Right::Manage));
        }
    }
}
