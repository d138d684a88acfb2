//! Unit tests of the manager, stepped one event at a time.

use super::*;
use crate::harness::{sends, traces, Harness};
use crate::msg::{NsRecord, ShardEntry};
use crate::types::user_bucket;
use crate::harness::Output;
use wanacl_sim::storage::{DiskFaultModel, SimStorage};

fn manager_with_peers(id: usize, peers: &[usize]) -> (ManagerNode, Harness) {
    let mut acl = Acl::new();
    acl.add(UserId(1), Right::Use);
    let node = ManagerNode::new(ManagerConfig {
        peers: peers.iter().map(|&p| NodeId::from_index(p)).collect(),
        apps: vec![ManagerApp {
            app: AppId(0),
            policy: Policy::builder(1).build(),
            initial_acl: acl,
        }],
        ..ManagerConfig::default()
    });
    (node, Harness::new(id))
}

#[test]
fn query_grants_known_user_and_records_host() {
    let (mut mgr, mut h) = manager_with_peers(0, &[]);
    let effects = h.deliver(&mut mgr, 7, query(1, 3));
    assert!(matches!(verdict(&effects), Some(QueryVerdict::Grant { .. })));
    assert_eq!(mgr.granted_hosts(AppId(0), UserId(1)), 1);
    assert_eq!(mgr.stats().grants, 1);
}

#[test]
fn query_denies_unknown_user() {
    let (mut mgr, mut h) = manager_with_peers(0, &[]);
    let effects = h.deliver(&mut mgr, 7, query(9, 3));
    assert!(matches!(verdict(&effects), Some(QueryVerdict::Deny)));
    assert_eq!(mgr.granted_hosts(AppId(0), UserId(9)), 0);
}

/// The benchmark's shape — `ManagerConfig { peers, apps, .. }`, no
/// shard listed — is the one-shard plane: app 0's whole keyspace is
/// shard 0, co-owned with every peer.
#[test]
fn a_config_without_shards_serves_each_app_as_one_whole_keyspace_shard() {
    let in_bucket = |b: u8| (0u64..).map(UserId).find(|&u| user_bucket(u) == b).expect("a user");
    let (low, high) = (in_bucket(0), in_bucket(u8::MAX));
    let mut acl = Acl::new();
    acl.add(low, Right::Use);
    acl.add(high, Right::Use);
    let mut mgr = ManagerNode::new(ManagerConfig {
        peers: vec![NodeId::from_index(1), NodeId::from_index(2)],
        apps: vec![ManagerApp { app: AppId(0), policy: Policy::builder(2).build(), initial_acl: acl }],
        ..ManagerConfig::default()
    });
    let mut h = Harness::new(0);
    for (user, req) in [(low, 1), (high, 2)] {
        let effects = h.deliver(&mut mgr, 7, ProtoMsg::Query { app: AppId(0), user, req: ReqId(req) });
        let grant = QueryVerdict::Grant { te: Policy::builder(2).build().expiry_budget() };
        assert_eq!(verdict(&effects), Some(&grant));
        assert!(effects.iter().any(|e| matches!(e, Output::Incr { name: M::SHARD_0_QUERIES })));
    }
    // An admin op fans out to both peers, and M − C + 1 = 2 copies —
    // this manager's and one ack — make it stable.
    let revoke = AclOp::Revoke { app: AppId(0), user: low, right: Right::Use };
    let effects = h.deliver(&mut mgr, 9, admin(revoke, 3));
    let updates: Vec<(NodeId, OpId)> = sends(&effects)
        .into_iter()
        .filter_map(|(to, m)| match m {
            ProtoMsg::Update { id, .. } => Some((to, *id)),
            _ => None,
        })
        .collect();
    assert_eq!(updates.iter().map(|&(to, _)| to.index()).collect::<Vec<_>>(), [1, 2]);
    assert!(!stable(&effects));
    assert!(stable(&h.deliver(&mut mgr, 1, ProtoMsg::UpdateAck { id: updates[0].1 })));
    // No shard here covers app 1: its query and its admin op are
    // misrouted, and answered so.
    let effects = h.deliver(&mut mgr, 7, ProtoMsg::Query { app: AppId(1), user: low, req: ReqId(4) });
    let unknown = QueryVerdict::Unavailable { reason: RejectReason::UnknownShard };
    assert_eq!(verdict(&effects), Some(&unknown));
    let effects = h.deliver(&mut mgr, 9, admin(AclOp::Add { app: AppId(1), user: low, right: Right::Use }, 3));
    let rejected = AdminStatus::Rejected { reason: RejectReason::UnknownShard };
    assert!(matches!(sends(&effects)[0].1, ProtoMsg::AdminReply { status, .. } if *status == rejected));
}

/// An agent that lost its `Stable` asks again with the same request
/// id: the manager answers with the op's status now, `Applied` before
/// the quorum and `Stable` after it, and mints no second op.
#[test]
fn a_repeated_admin_request_is_answered_with_its_status_and_originates_nothing() {
    let mut mgr = ManagerNode::new(ManagerConfig {
        peers: vec![NodeId::from_index(1), NodeId::from_index(2)],
        apps: vec![ManagerApp { app: AppId(0), policy: Policy::builder(2).build(), initial_acl: Acl::new() }],
        ..ManagerConfig::default()
    });
    let mut h = Harness::new(0);
    let status = |effects: &[Output]| {
        let replies = sends(effects).into_iter().filter_map(|(_, m)| match m {
            ProtoMsg::AdminReply { req: ReqId(3), status } => Some(status.clone()),
            _ => None,
        });
        replies.collect::<Vec<_>>()
    };
    let repeat = || admin(AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use }, 3);
    let effects = h.deliver(&mut mgr, 9, repeat());
    let id = sends(&effects)
        .into_iter()
        .find_map(|(_, m)| match m {
            ProtoMsg::Update { id, .. } => Some(*id),
            _ => None,
        })
        .expect("the op fans out");
    assert_eq!(status(&h.deliver(&mut mgr, 9, repeat())), [AdminStatus::Applied]);
    assert_eq!(status(&h.deliver(&mut mgr, 1, ProtoMsg::UpdateAck { id })), [AdminStatus::Stable]);
    let effects = h.deliver(&mut mgr, 9, repeat());
    assert_eq!(status(&effects), [AdminStatus::Stable]);
    assert!(sends(&effects).iter().all(|(_, m)| !matches!(m, ProtoMsg::Update { .. })));
    assert!(!effects.iter().any(|e| matches!(e, Output::Incr { name: M::MGR_OPS_ORIGINATED })));
    assert_eq!(mgr.stats().ops_originated, 1);
    // Another agent's request with the same id is its own op.
    h.deliver(&mut mgr, 8, repeat());
    assert_eq!(mgr.stats().ops_originated, 2);
}

/// A peer heard from again after more than two heartbeat periods of
/// silence is sent the updates it has not acked at once, not at the
/// next backed-off retry tick; a peer heard all along is not.
#[test]
fn a_peer_heard_after_a_silence_is_resent_what_it_has_not_acked() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1, 2]);
    h.start(&mut mgr);
    let updates_to = |effects: &[Output], peer: usize| {
        sends(effects).iter().filter(|(to, m)| to.index() == peer && matches!(m, ProtoMsg::Update { .. })).count()
    };
    assert_eq!(updates_to(&h.deliver(&mut mgr, 9, revoke_user_1()), 1), 1);
    let beat = ManagerConfig::default().heartbeat_interval.as_nanos();
    h.at(beat);
    assert_eq!(updates_to(&h.deliver(&mut mgr, 2, ProtoMsg::Heartbeat), 2), 0);
    h.at(3 * beat);
    assert_eq!(updates_to(&h.deliver(&mut mgr, 2, ProtoMsg::Heartbeat), 2), 0, "peer 2 was heard");
    assert_eq!(updates_to(&h.deliver(&mut mgr, 1, ProtoMsg::Heartbeat), 1), 1, "peer 1 was silent");
    assert_eq!(updates_to(&h.deliver(&mut mgr, 1, ProtoMsg::Heartbeat), 1), 0, "and is heard now");
}

fn query(user: u64, req: u64) -> ProtoMsg {
    ProtoMsg::Query { app: AppId(0), user: UserId(user), req: ReqId(req) }
}

fn admin(op: AclOp, req: u64) -> ProtoMsg {
    ProtoMsg::Admin { op, req: ReqId(req), issuer: UserId(0), signature: None }
}

/// The verdict of the first query reply in `effects`.
fn verdict(effects: &[Output]) -> Option<&QueryVerdict> {
    sends(effects).into_iter().find_map(|(_, m)| match m {
        ProtoMsg::QueryReply { verdict, .. } => Some(verdict),
        _ => None,
    })
}

/// Whether `effects` report an op stable to its issuer.
fn stable(effects: &[Output]) -> bool {
    sends(effects).iter().any(|(_, m)| matches!(m, ProtoMsg::AdminReply { status: AdminStatus::Stable, .. }))
}

fn revoke_user_1() -> ProtoMsg {
    admin(AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use }, 1)
}

/// Every `(host, tag)` of the `RevokeNotice`s for user 1 in `effects`.
fn notice_tags(effects: &[Output]) -> Vec<(NodeId, wanacl_auth::hmac::Tag)> {
    sends(effects)
        .into_iter()
        .filter_map(|(to, m)| match m {
            ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac } => {
                Some((to, mac.expect("authenticated managers tag every notice")))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn manager_tags_every_send_under_the_key_held_for_that_host() {
    use crate::channel::ChannelKeys;
    let me = NodeId::from_index(0);
    let master = *b"an unmistakable 32-byte master!!";
    let keys = Arc::new(ChannelKeys::new(master));
    let (mut mgr, mut h) = manager_with_peers(0, &[]);
    mgr.set_channel_keys(keys.clone());
    // Grants to user 1 and a denial to user 9, from three hosts,
    // interleaved and repeated: each reply verifies under the
    // deployment's key for (this manager, that host) and no other.
    let queries = [(7usize, 1u64, 1u64), (8, 1, 2), (7, 9, 3), (6, 1, 4), (8, 9, 5)];
    for (host, user, req) in queries {
        let effects = h.deliver(&mut mgr, host, query(user, req));
        let (to, msg) = sends(&effects)[0];
        let ProtoMsg::QueryReply { req, app, user, verdict, mac: Some(tag) } = msg else {
            panic!("expected a tagged reply, got {msg:?}");
        };
        assert_eq!(to, NodeId::from_index(host));
        assert!(keys.verify_query_reply(me, to, *req, *app, *user, verdict, tag));
        let other = NodeId::from_index(5);
        assert!(!keys.verify_query_reply(me, other, *req, *app, *user, verdict, tag));
    }
    // Revoking user 1 notifies the three hosts that cached the right;
    // the retry tick notifies them again with the same tags.
    let first = notice_tags(&h.deliver(&mut mgr, 9, revoke_user_1()));
    assert_eq!(first.len(), 3);
    for (host, tag) in &first {
        assert!(keys.verify_revoke_notice(me, *host, AppId(0), UserId(1), tag));
    }
    let again = notice_tags(&h.timer(&mut mgr, TAG_RETRY));
    assert_eq!(again, first);
    assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(3), "hosts 6, 7 and 8");

    let shown = format!("{mgr:?} {mgr:#?}");
    assert!(shown.contains("ChannelEnd"), "{shown}");
    assert!(!shown.contains("unmistakable"), "{shown}");
    assert!(!shown.contains("97, 110, 32, 117"), "{shown}");
    assert!(!shown.contains("616e20756e"), "{shown}");
}

#[test]
fn rekeying_a_manager_drops_held_keys_and_tags_under_the_new_master() {
    use crate::channel::ChannelKeys;
    let me = NodeId::from_index(0);
    let host = NodeId::from_index(7);
    let old = Arc::new(ChannelKeys::from_seed(1));
    let new = Arc::new(ChannelKeys::from_seed(2));
    let (mut mgr, mut h) = manager_with_peers(0, &[]);
    let reply_tag = |effects: &[Output]| match sends(effects)[0].1 {
        ProtoMsg::QueryReply { verdict, mac: Some(tag), .. } => (*verdict, *tag),
        other => panic!("expected a tagged reply, got {other:?}"),
    };
    mgr.set_channel_keys(old.clone());
    let (v, tag) = reply_tag(&h.deliver(&mut mgr, 7, query(1, 1)));
    assert!(old.verify_query_reply(me, host, ReqId(1), AppId(0), UserId(1), &v, &tag));
    assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(1));

    mgr.set_channel_keys(new.clone());
    assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(0), "rotation empties the table");
    let (v, tag) = reply_tag(&h.deliver(&mut mgr, 7, query(1, 2)));
    assert!(new.verify_query_reply(me, host, ReqId(2), AppId(0), UserId(1), &v, &tag));
    assert!(!old.verify_query_reply(me, host, ReqId(2), AppId(0), UserId(1), &v, &tag));
    let notices = notice_tags(&h.deliver(&mut mgr, 9, revoke_user_1()));
    assert_eq!(notices.len(), 1);
    assert!(new.verify_revoke_notice(me, host, AppId(0), UserId(1), &notices[0].1));
    assert!(!old.verify_revoke_notice(me, host, AppId(0), UserId(1), &notices[0].1));
    assert_eq!(mgr.channel.as_ref().map(|c| c.peers()), Some(1));
}

#[test]
fn admin_op_disseminates_to_all_peers() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1, 2]);
    let effects = h.deliver(&mut mgr, 9, admin(AclOp::Add { app: AppId(0), user: UserId(5), right: Right::Use }, 1));
    let updates: Vec<NodeId> = sends(&effects)
        .into_iter()
        .filter(|(_, m)| matches!(m, ProtoMsg::Update { .. }))
        .map(|(to, _)| to)
        .collect();
    assert_eq!(updates, vec![NodeId::from_index(1), NodeId::from_index(2)]);
    assert!(mgr.acl_has(AppId(0), UserId(5), Right::Use));
    assert_eq!(mgr.pending_updates(), 1);
    // C = 1 -> update quorum 3: not yet stable with only self.
    assert_eq!(mgr.stats().quorum_reached, 0);
}

#[test]
fn acks_complete_the_quorum_and_clear_pending() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1, 2]);
    let effects = h.deliver(&mut mgr, 9, admin(AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use }, 1));
    let id = sends(&effects)
        .into_iter()
        .find_map(|(_, m)| match m {
            ProtoMsg::Update { id, .. } => Some(*id),
            _ => None,
        })
        .expect("update sent");
    let effects = h.deliver(&mut mgr, 1, ProtoMsg::UpdateAck { id });
    // Quorum (3 of 3 for C=1... M=3, uq = M-C+1 = 3): needs both acks.
    assert!(!stable(&effects));
    let effects = h.deliver(&mut mgr, 2, ProtoMsg::UpdateAck { id });
    assert!(stable(&effects));
    assert_eq!(mgr.pending_updates(), 0);
}

#[test]
fn peer_update_applies_once_and_acks_every_time() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1]);
    let id = OpId { origin: NodeId::from_index(1), seq: 5 };
    let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
    let e1 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
    assert!(matches!(sends(&e1)[0].1, ProtoMsg::UpdateAck { .. }));
    assert!(mgr.acl_has(AppId(0), UserId(8), Right::Use));
    assert_eq!(mgr.stats().peer_updates_applied, 1);
    // Duplicate delivery: still acked, not re-applied.
    let e2 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
    assert!(matches!(sends(&e2)[0].1, ProtoMsg::UpdateAck { .. }));
    assert_eq!(mgr.stats().peer_updates_applied, 1);
}

#[test]
fn lww_keeps_the_newest_write_regardless_of_arrival_order() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1, 2]);
    let newer = OpId { origin: NodeId::from_index(2), seq: 9 };
    let older = OpId { origin: NodeId::from_index(1), seq: 3 };
    h.deliver(
        &mut mgr,
        2,
        ProtoMsg::Update {
            id: newer,
            op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
        },
    );
    assert!(!mgr.acl_has(AppId(0), UserId(1), Right::Use));
    // The older concurrent Add arrives late: it must lose.
    h.deliver(
        &mut mgr,
        1,
        ProtoMsg::Update {
            id: older,
            op: AclOp::Add { app: AppId(0), user: UserId(1), right: Right::Use },
        },
    );
    assert!(!mgr.acl_has(AppId(0), UserId(1), Right::Use), "older write must not win");
}

#[test]
fn non_peer_update_is_rejected() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1]);
    let id = OpId { origin: NodeId::from_index(9), seq: 1 };
    let effects = h.deliver(
        &mut mgr,
        9, // not a peer
        ProtoMsg::Update {
            id,
            op: AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use },
        },
    );
    assert!(sends(&effects).is_empty(), "no ack for a non-peer");
    assert!(mgr.acl_has(AppId(0), UserId(1), Right::Use), "ACL untouched");
}

#[test]
fn recovering_manager_answers_unavailable_until_synced() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1]);
    mgr.on_crash();
    h.recover(&mut mgr);
    assert!(mgr.is_recovering());
    // Queries are answered `Unavailable` (retryable), not denied and
    // not silently dropped.
    let effects = h.deliver(&mut mgr, 7, query(1, 1));
    let recovering = QueryVerdict::Unavailable { reason: RejectReason::Recovering };
    assert_eq!(verdict(&effects), Some(&recovering));
    // A delta sync response restores service: state is reset to
    // bootstrap and the peer's winners are applied on top, so the
    // newer revoke below beats the stale bootstrap grant.
    let peer = NodeId::from_index(1);
    let op = AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use };
    h.deliver(
        &mut mgr,
        1,
        ProtoMsg::SyncResponse {
            ops: vec![(OpId { origin: peer, seq: 4 }, op)],
            stamps: vec![(peer, 4)],
        },
    );
    assert!(!mgr.is_recovering());
    let effects = h.deliver(&mut mgr, 7, query(1, 2));
    assert!(matches!(verdict(&effects), Some(QueryVerdict::Deny)));
}

#[test]
fn sync_request_is_answered_with_only_newer_slot_winners() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1]);
    let peer = NodeId::from_index(1);
    let id_a = OpId { origin: peer, seq: 3 };
    let op_a = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
    let id_b = OpId { origin: peer, seq: 5 };
    let op_b = AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use };
    h.deliver(&mut mgr, 1, ProtoMsg::Update { id: id_a, op: op_a });
    h.deliver(&mut mgr, 1, ProtoMsg::Update { id: id_b, op: op_b });
    // The requester already holds slot a: only the winner it lacks
    // comes back, plus this manager's own high-water marks.
    let effects = h.deliver(
        &mut mgr,
        1,
        ProtoMsg::SyncRequest {
            stamps: vec![(peer, 3)],
            slots: vec![(AppId(0), UserId(8), Right::Use, id_a)],
        },
    );
    match sends(&effects)[0].1 {
        ProtoMsg::SyncResponse { ops, stamps } => {
            assert_eq!(ops, &vec![(id_b, op_b)]);
            assert_eq!(stamps, &vec![(peer, 5)]);
        }
        other => panic!("expected sync response, got {other:?}"),
    }
    assert_eq!(mgr.stats().syncs_served, 1);
}

#[test]
fn update_ack_is_withheld_until_the_wal_sync_succeeds() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1]);
    mgr.set_storage(Box::new(SimStorage::with_faults(
        7,
        DiskFaultModel { sync_fail_prob: 1.0, torn_tail_prob: 0.0 },
    )));
    let id = OpId { origin: NodeId::from_index(1), seq: 5 };
    let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
    let e1 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
    assert!(
        !sends(&e1).iter().any(|(_, m)| matches!(m, ProtoMsg::UpdateAck { .. })),
        "no ack while the record is not durable"
    );
    assert!(mgr.acl_has(AppId(0), UserId(8), Right::Use), "still applied in memory");
    // The disk heals and the origin's retransmission arrives.
    mgr.wal.set_disk_faults(DiskFaultModel::default());
    let e2 = h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
    assert!(sends(&e2).iter().any(|(_, m)| matches!(m, ProtoMsg::UpdateAck { .. })));
    assert_eq!(mgr.stats().wal_appends, 1, "the retransmission is not re-logged");
}

#[test]
fn disk_recovery_replays_the_wal_and_serves_immediately() {
    let (mut mgr, mut h) = manager_with_peers(0, &[1]);
    mgr.set_storage(Box::new(SimStorage::new(3)));
    let id = OpId { origin: NodeId::from_index(1), seq: 5 };
    let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
    h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
    mgr.on_crash();
    h.recover(&mut mgr);
    assert!(!mgr.is_recovering(), "local replay is enough to serve");
    assert!(mgr.acl_has(AppId(0), UserId(8), Right::Use));
    assert_eq!(mgr.stats().recovered_from_disk, 1);
    // Queries are answered right away, while the delta sync for
    // freshness is still in flight.
    let effects = h.deliver(&mut mgr, 7, query(8, 1));
    assert!(matches!(verdict(&effects), Some(QueryVerdict::Grant { .. })));
}

#[test]
fn dropped_wal_recovery_silently_loses_acked_state() {
    // The planted bug the durability oracle must catch: a recovery
    // that reports disk mode but discarded the log.
    let (mut mgr, mut h) = manager_with_peers(0, &[1]);
    let mut storage = SimStorage::new(3);
    storage.set_drop_state_on_recover(true);
    mgr.set_storage(Box::new(storage));
    let id = OpId { origin: NodeId::from_index(1), seq: 5 };
    let op = AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use };
    h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
    mgr.on_crash();
    h.recover(&mut mgr);
    assert!(!mgr.is_recovering());
    assert!(!mgr.acl_has(AppId(0), UserId(8), Right::Use), "the bug lost the acked op");
}

#[test]
fn snapshots_follow_the_configured_cadence_and_recovery_composes_them() {
    let mut acl = Acl::new();
    acl.add(UserId(1), Right::Use);
    let mut mgr = ManagerNode::new(ManagerConfig {
        peers: vec![NodeId::from_index(1)],
        apps: vec![ManagerApp {
            app: AppId(0),
            policy: Policy::builder(1).build(),
            initial_acl: acl,
        }],
        snapshot_every: 3,
        ..ManagerConfig::default()
    });
    let mut h = Harness::new(0);
    mgr.set_storage(Box::new(SimStorage::new(1)));
    for seq in 1..=7u64 {
        let id = OpId { origin: NodeId::from_index(1), seq };
        let op = AclOp::Add { app: AppId(0), user: UserId(100 + seq), right: Right::Use };
        h.deliver(&mut mgr, 1, ProtoMsg::Update { id, op });
    }
    assert_eq!(mgr.stats().wal_appends, 7);
    assert_eq!(mgr.stats().snapshot_writes, 2, "7 appends at cadence 3 → 2 snapshots");
    // Snapshot + the leftover WAL tail rebuild everything.
    mgr.on_crash();
    h.recover(&mut mgr);
    for seq in 1..=7u64 {
        assert!(mgr.acl_has(AppId(0), UserId(100 + seq), Right::Use), "user {seq} lost");
    }
}

/// A manager serving one bucket-range shard of app 0 (unsigned
/// handoff records: `ns_trust` stays `None` in unit tests).
fn sharded_manager(id: usize, shard: u32, lo: u8, hi: u8) -> (ManagerNode, Harness) {
    let mut acl = Acl::new();
    acl.add(UserId(1), Right::Use);
    acl.add(UserId(3), Right::Use);
    let node = ManagerNode::new(ManagerConfig {
        peers: (0..4).filter(|&p| p != id).map(NodeId::from_index).collect(),
        apps: vec![ManagerApp {
            app: AppId(0),
            policy: Policy::builder(1).build(),
            initial_acl: acl,
        }],
        shards: vec![ManagerShard {
            shard: ShardId(shard),
            app: AppId(0),
            lo,
            hi,
            peers: Vec::new(),
        }],
        ..ManagerConfig::default()
    });
    (node, Harness::new(id))
}

/// The kickoff moving shard 0 (buckets `lo..=hi`) onto `target` under
/// map version 2 (dummy signature; verification is off).
fn kickoff(lo: u8, hi: u8, target: usize) -> ProtoMsg {
    let managers = vec![NodeId::from_index(target)];
    let entry = ShardEntry { shard: ShardId(0), lo, hi, managers: managers.clone() };
    let record = NsRecord { app: AppId(0), version: 2, shards: vec![entry], signature: rsa::Signature(0) };
    ProtoMsg::ShardHandoff { shard: ShardId(0), epoch: 2, record: Box::new(record), targets: managers, publish_to: vec![] }
}

/// Source 0's map-version-2 transfer of shard 0 carrying `ops`.
fn transfer(ops: &[(OpId, AclOp)]) -> ProtoMsg {
    let digest = transfer_digest(ops);
    ProtoMsg::ShardTransfer { shard: ShardId(0), epoch: 2, app: AppId(0), ops: ops.to_vec(), digest }
}

/// The `(digest, count)` of the step's shard-install event.
fn installed(effects: &[Output]) -> Option<(u64, usize)> {
    traces(effects).into_iter().find_map(|t| match t {
        AuditEvent::ShardInstall(ops) => Some((ops.digest, ops.count)),
        _ => None,
    })
}

#[test]
fn handoff_source_freezes_transfers_and_releases_then_activates_targets() {
    // Manager 0 owns shard 0 alone; the handoff moves it to manager 1.
    let (mut mgr, mut h) = sharded_manager(0, 0, 0, 255);
    // One live op so the transfer carries real state.
    h.deliver(&mut mgr, 9, admin(AclOp::Add { app: AppId(0), user: UserId(7), right: Right::Use }, 1));
    let effects = h.deliver(&mut mgr, 2, kickoff(0, 255, 1));
    // Frozen: the source pushed its shard state to the target and
    // noted the I9 handoff audit.
    let transfer = sends(&effects)
        .into_iter()
        .find_map(|(to, m)| match m {
            ProtoMsg::ShardTransfer { shard, epoch, ops, digest, .. } => {
                Some((to, *shard, *epoch, ops.clone(), *digest))
            }
            _ => None,
        })
        .expect("source must transfer on the kickoff");
    assert_eq!(transfer.0, NodeId::from_index(1));
    assert_eq!((transfer.1, transfer.2), (ShardId(0), 2));
    assert_eq!(transfer.3.len(), 1, "the admin op rides the transfer");
    assert_eq!(transfer.4, transfer_digest(&transfer.3));
    assert!(traces(&effects).iter().any(|t| matches!(t, AuditEvent::ShardHandoff(_))));
    assert!(!mgr.shard_released(ShardId(0)), "release waits for the transfer ack");
    // Frozen shards drop further admin ops silently (the agent's
    // resend lands after the new map installs).
    let frozen = h.deliver(&mut mgr, 9, admin(AclOp::Add { app: AppId(0), user: UserId(8), right: Right::Use }, 2));
    assert!(sends(&frozen).is_empty(), "frozen shard must not answer admins");
    // The target's ack releases the source durably; as handoff
    // primary it then activates the target.
    let effects =
        h.deliver(&mut mgr, 1, ProtoMsg::ShardTransferAck { shard: ShardId(0), epoch: 2 });
    assert!(mgr.shard_released(ShardId(0)));
    assert!(sends(&effects).iter().any(|(to, m)| *to == NodeId::from_index(1)
        && matches!(m, ProtoMsg::ShardActivate { shard: ShardId(0), epoch: 2 })));
}

/// A release marker and an op made durable by one barrier, which is also
/// the one that snapshots: the snapshot records the release, so it
/// survives the crash that follows the log's cut.
#[test]
fn a_release_made_durable_by_a_snapshotting_barrier_survives_a_crash() {
    let (mut mgr, mut h) = sharded_manager(0, 0, 0, 255);
    mgr.wal = DurableLog::new(1, Some(WAL_METRICS), TAG_LANDED);
    mgr.set_storage(Box::new(SimStorage::with_faults(
        5,
        DiskFaultModel { sync_fail_prob: 1.0, torn_tail_prob: 0.0 },
    )));
    // An op held behind a failing disk, then the handoff's release.
    h.deliver(&mut mgr, 9, admin(AclOp::Add { app: AppId(0), user: UserId(7), right: Right::Use }, 1));
    h.deliver(&mut mgr, 2, kickoff(0, 255, 1));
    mgr.wal.set_disk_faults(DiskFaultModel::default());
    h.deliver(&mut mgr, 1, ProtoMsg::ShardTransferAck { shard: ShardId(0), epoch: 2 });
    assert!(mgr.shard_released(ShardId(0)));
    assert_eq!(mgr.stats().snapshot_writes, 1);
    mgr.on_crash();
    h.recover(&mut mgr);
    assert!(mgr.shard_released(ShardId(0)), "the snapshot forgot the release");
}

#[test]
fn handoff_target_installs_activates_and_rejects_foreign_buckets() {
    // Manager 2 owns the upper half of app 0's keyspace; shard 0
    // (lower half) arrives via handoff from owner 0. Bucket facts:
    // user 1 → 18 (shard 0), user 3 → 172 (manager 2's own shard).
    let (mut mgr, mut h) = sharded_manager(2, 1, 128, 255);
    let reply = h.deliver(&mut mgr, 9, query(1, 1));
    let unknown = QueryVerdict::Unavailable { reason: RejectReason::UnknownShard };
    assert_eq!(verdict(&reply), Some(&unknown), "a bucket outside every owned shard must answer UnknownShard");
    h.deliver(&mut mgr, 0, kickoff(0, 127, 2));
    let ops = vec![(
        OpId { origin: NodeId::from_index(0), seq: 4 },
        AclOp::Add { app: AppId(0), user: UserId(5), right: Right::Use },
    )];
    let effects = h.deliver(&mut mgr, 0, transfer(&ops));
    // Installed: the I9 note matches the source's digest, the ack
    // goes back, and the transferred op landed in the ACL.
    assert_eq!(installed(&effects), Some((transfer_digest(&ops), 1)));
    assert!(sends(&effects).iter().any(|(to, m)| *to == NodeId::from_index(0)
        && matches!(m, ProtoMsg::ShardTransferAck { shard: ShardId(0), epoch: 2 })));
    assert!(mgr.acl_has(AppId(0), UserId(5), Right::Use));
    // Not serving yet: activation is the primary's call, after every
    // source durably released.
    assert!(!mgr.shard_active(ShardId(0)));
    h.deliver(&mut mgr, 0, ProtoMsg::ShardActivate { shard: ShardId(0), epoch: 2 });
    assert!(mgr.shard_active(ShardId(0)));
    let reply = h.deliver(&mut mgr, 9, query(1, 2));
    assert!(matches!(verdict(&reply), Some(QueryVerdict::Grant { .. })));
}

#[test]
fn dropped_transfer_tail_diverges_the_install_digest() {
    let (mut mgr, mut h) = sharded_manager(2, 1, 128, 255);
    mgr.set_drop_handoff_tail(true);
    h.deliver(&mut mgr, 0, kickoff(0, 127, 2));
    let ops = vec![(
        OpId { origin: NodeId::from_index(0), seq: 4 },
        AclOp::Revoke { app: AppId(0), user: UserId(5), right: Right::Use },
    )];
    let effects = h.deliver(&mut mgr, 0, transfer(&ops));
    // The bug ate the revoke: count drops to 0 and the digest is the
    // empty-transfer digest, not the source's — exactly what the
    // oracle's I9 comparison flags.
    assert_eq!(installed(&effects), Some((transfer_digest(&[]), 0)));
    assert_ne!(transfer_digest(&[]), transfer_digest(&ops));
}
