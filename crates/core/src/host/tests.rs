//! Unit tests of the host, stepped one event at a time.

use super::*;
use crate::harness::{metric_incrs, sends, traces, Harness};
use crate::msg::NsRecord;
use crate::policy::{ExhaustionBehavior, QueryFanout};
use crate::wrapper::CountingApp;
use crate::harness::Output;
use wanacl_sim::time::SimDuration;

fn host_with_managers(managers: &[usize]) -> HostNode {
    let ids: Vec<NodeId> = managers.iter().map(|&i| NodeId::from_index(i)).collect();
    host_with_directory(ManagerDirectory::Static(ids.into()), base_policy().max_attempts(1).build())
}

fn invoke(user: u64) -> ProtoMsg {
    ProtoMsg::Invoke {
        app: AppId(0),
        user: UserId(user),
        req: ReqId(1),
        payload: "x".into(),
        signature: None,
    }
}

#[test]
fn cold_invoke_queries_every_manager_in_view() {
    let mut host = host_with_managers(&[0, 1, 2]);
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    assert_eq!(queried(&effects), (0..3).map(NodeId::from_index).collect::<Vec<_>>());
    assert_eq!(host.stats().cache_misses, 1);
}

#[test]
fn grant_reply_caches_and_answers_requester() {
    let mut host = host_with_managers(&[0]);
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    // Extract the query id the host used.
    let req = query_req(&effects);
    let effects = h.at(1_000).deliver(&mut host, 0, grant_reply(req, 1, None));
    assert!(matches!(outcome(&effects), Some((to, InvokeOutcome::Allowed { .. })) if to.index() == 7));
    // Cached with the delta adjustment: limit anchored at the query
    // send time (t = 0), not the reply time.
    assert_eq!(
        host.cached_limit(AppId(0), UserId(1)),
        Some(LocalTime::from_nanos(SimDuration::from_secs(9).as_nanos()))
    );
}

#[test]
fn deny_reply_rejects_without_caching() {
    let mut host = host_with_managers(&[0]);
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(2));
    let req = query_req(&effects);
    let deny = ProtoMsg::QueryReply { req, app: AppId(0), user: UserId(2), verdict: QueryVerdict::Deny, mac: None };
    let effects = h.deliver(&mut host, 0, deny);
    assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Denied))));
    assert_eq!(host.cached_entries(AppId(0)), 0);
    assert_eq!(host.stats().denied, 1);
}

#[test]
fn reply_from_outside_manager_view_is_ignored() {
    let mut host = host_with_managers(&[0]);
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    let req = query_req(&effects);
    // Node 5 is not a manager.
    let effects = h.deliver(&mut host, 5, grant_reply(req, 1, None));
    assert!(sends(&effects).is_empty(), "forged grant must produce nothing");
    assert_eq!(host.cached_entries(AppId(0)), 0);
}

#[test]
fn revoke_notice_flushes_only_named_user() {
    let mut host = host_with_managers(&[0]);
    // Seed the cache directly through the protocol: grant user 1.
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    let req = query_req(&effects);
    h.deliver(&mut host, 0, grant_reply(req, 1, None));
    assert_eq!(host.cached_entries(AppId(0)), 1);
    // A notice for a different user is a no-op.
    h.deliver(&mut host, 0, ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(2), mac: None });
    assert_eq!(host.cached_entries(AppId(0)), 1);
    h.deliver(&mut host, 0, ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: None });
    assert_eq!(host.cached_entries(AppId(0)), 0);
    assert_eq!(host.stats().revoke_flushes, 1);
}

fn host_with_two_managers_two_attempts() -> HostNode {
    let ids = vec![NodeId::from_index(0), NodeId::from_index(1)];
    host_with_directory(ManagerDirectory::Static(ids.into()), base_policy().max_attempts(2).build())
}

/// Every manager `effects` sends a query to.
fn queried(effects: &[Output]) -> Vec<NodeId> {
    sends(effects).into_iter().filter(|(_, m)| matches!(m, ProtoMsg::Query { .. })).map(|(to, _)| to).collect()
}

fn query_req(effects: &[Output]) -> ReqId {
    sends(effects)
        .into_iter()
        .find_map(|(_, m)| match m {
            ProtoMsg::Query { req, .. } => Some(*req),
            _ => None,
        })
        .expect("query sent")
}

/// The first invoke reply in `effects`, with its addressee.
fn outcome(effects: &[Output]) -> Option<(NodeId, &InvokeOutcome)> {
    sends(effects).into_iter().find_map(|(to, m)| match m {
        ProtoMsg::InvokeReply { outcome, .. } => Some((to, outcome)),
        _ => None,
    })
}

fn unavailable_reply(req: ReqId, user: u64) -> ProtoMsg {
    ProtoMsg::QueryReply {
        req,
        app: AppId(0),
        user: UserId(user),
        verdict: QueryVerdict::Unavailable {
            reason: crate::msg::RejectReason::Recovering,
        },
        mac: None,
    }
}

#[test]
fn unavailable_reply_is_retryable_not_a_veto() {
    let mut host = host_with_two_managers_two_attempts();
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    let req = query_req(&effects);
    // Manager 0 is recovering: no outcome yet — C = 1 is still
    // reachable through manager 1.
    let e1 = h.deliver(&mut host, 0, unavailable_reply(req, 1));
    assert!(outcome(&e1).is_none(), "an unavailable manager must not settle the invoke");
    // Manager 1 grants: quorum met, allowed and cached as usual.
    let e2 = h.deliver(&mut host, 1, grant_reply(req, 1, None));
    assert!(matches!(outcome(&e2), Some((_, InvokeOutcome::Allowed { .. }))));
    assert_eq!(host.stats().denied, 0);
}

#[test]
fn quorum_impossible_after_unavailable_starts_next_attempt_immediately() {
    let mut host = host_with_two_managers_two_attempts();
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    let req1 = query_req(&effects);
    h.deliver(&mut host, 0, unavailable_reply(req1, 1));
    // The second unavailable leaves 0 reachable < C = 1: the host
    // re-queries (attempt 2) without waiting for the query timer.
    let effects = h.deliver(&mut host, 1, unavailable_reply(req1, 1));
    let req2 = query_req(&effects);
    assert_ne!(req1, req2, "a fresh attempt uses a fresh query id");
    // Attempt 2 also finds every manager recovering: attempts are
    // exhausted and the default fail-closed policy answers
    // Unavailable (never Denied — recovery is not a veto).
    h.deliver(&mut host, 0, unavailable_reply(req2, 1));
    let effects = h.deliver(&mut host, 1, unavailable_reply(req2, 1));
    assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Unavailable))));
    assert_eq!(host.stats().unavailable, 1);
    assert_eq!(host.stats().denied, 0);
}

fn host_with_directory(directory: ManagerDirectory, policy: Policy) -> HostNode {
    HostNode::new(
        vec![AppHost {
            app: AppId(0),
            policy,
            directory,
            application: Box::new(CountingApp::new()),
        }],
        None,
    )
}

fn base_policy() -> crate::policy::PolicyBuilder {
    Policy::builder(1)
        .revocation_bound(SimDuration::from_secs(10))
        .query_timeout(SimDuration::from_millis(100))
        .max_attempts(3)
}

/// A host whose one-replica directory has not answered yet.
fn undiscovered_host(policy: Policy) -> HostNode {
    host_with_directory(
        ManagerDirectory::Replicated { replicas: vec![NodeId::from_index(5)], read_quorum: 1 },
        policy,
    )
}

#[test]
fn empty_manager_view_fails_closed_immediately() {
    // Regression: with a directory and no record installed yet, the
    // manager view is empty. The invoke used to sit through
    // R query timeouts with nobody to query (and the Sequential
    // fan-out arm risked a mod-by-zero on the empty view); it must
    // resolve immediately per the exhaustion policy instead.
    let mut host =
        undiscovered_host(base_policy().fanout(QueryFanout::Sequential).build());
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    assert!(matches!(outcome(&effects), Some((to, InvokeOutcome::Unavailable)) if to.index() == 7), "empty view must answer Unavailable in the same event");
    assert!(metric_incrs(&effects).contains(&"host.empty_manager_view"));
    assert!(
        !effects.iter().any(|e| matches!(e, Output::Arm)),
        "no query timer may be armed for an unqueryable attempt"
    );
    assert_eq!(host.stats().unavailable, 1);
    assert_eq!(host.stats().queries_sent, 0);
}

#[test]
fn empty_manager_view_honours_fail_open_policy() {
    let mut host =
        undiscovered_host(base_policy().exhaustion(ExhaustionBehavior::FailOpen).build());
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Allowed { .. }))));
    assert_eq!(host.stats().fail_open_allows, 1);
    // Fail-open caches nothing: the next invoke re-checks.
    assert_eq!(host.cached_entries(AppId(0)), 0);
}

#[test]
fn directory_outage_emptying_the_view_fails_attempts_not_the_host() {
    // Drive the outage through the protocol: a signed record
    // carrying an empty manager set (the directory lost its
    // registrations) replaces the view, then an invoke arrives.
    let (mut host, kp, writer) = replicated_host(1);
    let mut h = Harness::new(9);
    h.start(&mut host);
    let record = |version, managers| {
        record_reply(&whole(version, managers, &kp, writer))
    };
    h.deliver(&mut host, 0, record(1, vec![NodeId::from_index(4)]));
    assert_eq!(host.manager_view(AppId(0)).len(), 1);
    h.timer(&mut host, TAG_NS);
    h.deliver(&mut host, 0, record(2, Vec::new()));
    assert!(host.manager_view(AppId(0)).is_empty());
    let effects = h.deliver(&mut host, 7, invoke(1));
    assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Unavailable))));
    // The host survives to serve a later invoke once the view heals.
    h.timer(&mut host, TAG_NS);
    h.deliver(&mut host, 0, record(3, vec![NodeId::from_index(4)]));
    let effects = h.deliver(&mut host, 7, invoke(1));
    assert!(!queried(&effects).is_empty());
}

#[test]
fn unknown_app_invoke_is_denied_not_a_crash() {
    // Regression for the deny-not-crash contract on the public entry
    // path: a malformed client naming an unserved app gets Denied.
    let mut host = host_with_managers(&[0]);
    let mut h = Harness::new(9);
    let effects = h.deliver(
        &mut host,
        7,
        ProtoMsg::Invoke {
            app: AppId(42),
            user: UserId(1),
            req: ReqId(1),
            payload: "x".into(),
            signature: None,
        },
    );
    assert!(matches!(outcome(&effects), Some((to, InvokeOutcome::Denied)) if to.index() == 7));
    assert!(metric_incrs(&effects).contains(&"host.unknown_app"));
    // The inspection accessors follow the same contract.
    assert!(host.try_application_as::<CountingApp>(AppId(42)).is_none());
    assert!(host.try_application_as::<CountingApp>(AppId(0)).is_some());
}

#[test]
fn latency_split_records_cache_and_quorum_paths() {
    let mut host = host_with_managers(&[0]);
    let mut h = Harness::new(9);
    let effects = h.deliver(&mut host, 7, invoke(1));
    let req = query_req(&effects);
    let effects = h.at(1_000).deliver(&mut host, 0, grant_reply(req, 1, None));
    let observes: Vec<&str> = effects
        .iter()
        .filter_map(|e| match e {
            Output::Observe { name, .. } => Some(name.def().name),
            _ => None,
        })
        .collect();
    assert!(observes.contains(&"host.check_latency_s"), "{observes:?}");
    assert!(observes.contains(&"host.latency.quorum_s"), "{observes:?}");
    // A second invoke hits the cache and records the cache split.
    let effects = h.at(2_000).deliver(&mut host, 7, invoke(1));
    assert!(effects.iter().any(|e| matches!(
        e,
        Output::Observe { name: M::HOST_LATENCY_CACHE_S, .. }
    )));
}

#[test]
fn crash_clears_volatile_state() {
    let mut host = host_with_managers(&[0]);
    let mut h = Harness::new(9);
    h.deliver(&mut host, 7, invoke(1));
    assert_eq!(host.stats().cache_misses, 1);
    host.on_crash();
    assert_eq!(host.cached_entries(AppId(0)), 0);
    // Stats survive (they are measurement, not protocol state).
    assert_eq!(host.stats().cache_misses, 1);
}

// ---- replicated-directory quorum reads ----

use crate::types::ShardId;
use rand::SeedableRng;
use wanacl_auth::rsa::KeyPair;

const TTL: SimDuration = SimDuration::from_secs(60);

fn writer_setup() -> (Arc<KeyRegistry>, KeyPair, PrincipalId) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let writer = PrincipalId(2_000_000);
    let mut registry = KeyRegistry::new();
    let kp = registry.enroll(writer, &mut rng);
    (Arc::new(registry), kp, writer)
}

fn replicated_host(read_quorum: usize) -> (HostNode, KeyPair, PrincipalId) {
    let replicas: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let (registry, kp, writer) = writer_setup();
    let mut host = host_with_directory(
        ManagerDirectory::Replicated { replicas, read_quorum },
        base_policy().build(),
    );
    host.set_ns_trust(registry, writer);
    (host, kp, writer)
}

/// App 0's one-entry record: `managers` serve the whole keyspace.
fn whole(version: u64, managers: Vec<NodeId>, kp: &KeyPair, writer: PrincipalId) -> NsRecord {
    let shards = vec![ShardEntry::whole_keyspace(AppId(0), managers)];
    NsRecord::signed(AppId(0), version, shards, writer, &kp.secret)
}

fn record_reply(record: &NsRecord) -> ProtoMsg {
    ProtoMsg::NsRecordReply { app: record.app, ttl: TTL, record: Some(Box::new(record.clone())) }
}

#[test]
fn quorum_read_installs_freshest_verified_record() {
    let (mut host, kp, writer) = replicated_host(2);
    let mut h = Harness::new(9);
    let effects = h.start(&mut host);
    // The round fans a query to every replica.
    let queried: Vec<NodeId> = sends(&effects)
        .into_iter()
        .filter(|(_, m)| matches!(m, ProtoMsg::NsQuery { .. }))
        .map(|(to, _)| to)
        .collect();
    assert_eq!(queried.len(), 3);
    let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
    let v2 = whole(2, vec![NodeId::from_index(4), NodeId::from_index(5)], &kp, writer);
    // One verified reply is below quorum: nothing installs.
    let e1 = h.at(1_000).deliver(&mut host, 0, record_reply(&v1));
    assert!(host.manager_view(AppId(0)).is_empty());
    assert!(!metric_incrs(&e1).contains(&"ns.installs"));
    // The second reply carries a fresher version: it wins.
    let e2 = h.at(2_000).deliver(&mut host, 1, record_reply(&v2));
    assert_eq!(host.manager_view(AppId(0)).len(), 2);
    assert_eq!(host.directory_version(AppId(0)), 2);
    assert!(metric_incrs(&e2).contains(&"ns.installs"));
    assert!(
        e2.iter().any(|e| matches!(
            e,
            Output::Observe { name: M::NS_LOOKUP_LATENCY_S, .. }
        )),
        "install must record the lookup latency"
    );
    let installed = traces(&e2).into_iter().find_map(|t| match t {
        AuditEvent::NsInstall { version, managers, .. } => Some((*version, managers.to_string())),
        _ => None,
    });
    assert_eq!(installed, Some((2, "4;5".to_owned())));
    // A straggler from the settled round is ignored.
    let e3 = h.at(3_000).deliver(&mut host, 2, record_reply(&v1));
    assert!(metric_incrs(&e3).contains(&"host.late_reply"));
    assert_eq!(host.directory_version(AppId(0)), 2);
}

#[test]
fn forged_record_is_rejected_and_does_not_count_toward_quorum() {
    let (mut host, kp, writer) = replicated_host(2);
    let mut h = Harness::new(9);
    h.start(&mut host);
    let genuine = whole(1, vec![NodeId::from_index(4)], &kp, writer);
    // A malicious replica bumps the version but cannot re-sign.
    let forged = NsRecord { version: 2, ..whole(1, vec![NodeId::from_index(6)], &kp, writer) };
    let e1 = h.deliver(&mut host, 0, record_reply(&forged));
    assert!(metric_incrs(&e1).contains(&"host.ns_reject_bad_sig"));
    // A genuine record of another app is equally worthless.
    let other = NsRecord::signed(AppId(1), 2, forged.shards.clone(), writer, &kp.secret);
    let misfiled = ProtoMsg::NsRecordReply { app: AppId(0), ttl: TTL, record: Some(Box::new(other)) };
    let e2 = h.deliver(&mut host, 1, misfiled);
    assert!(metric_incrs(&e2).contains(&"host.ns_reject_bad_sig"));
    assert!(host.manager_view(AppId(0)).is_empty());
    // Two genuine replies still reach the quorum afterwards.
    h.deliver(&mut host, 0, record_reply(&genuine));
    h.deliver(&mut host, 2, record_reply(&genuine));
    assert_eq!(host.directory_version(AppId(0)), 1);
    assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(4)]);
    // And a reply from outside the replica set never counts.
    let e3 = h.deliver(&mut host, 8, record_reply(&genuine));
    assert!(metric_incrs(&e3).contains(&"host.ns_reply_untrusted"));
}

#[test]
fn ns_trust_unsigned_bug_installs_forged_record() {
    // The planted bug for invariant I7: a host that skips signature
    // verification happily installs a forged manager set.
    let (mut host, kp, writer) = replicated_host(2);
    host.inject_ns_trust_unsigned();
    let mut h = Harness::new(9);
    h.start(&mut host);
    let genuine = whole(1, vec![NodeId::from_index(4)], &kp, writer);
    let forged = NsRecord {
        version: 7,
        signature: genuine.signature,
        ..whole(1, vec![NodeId::from_index(6)], &kp, writer)
    };
    let forged = record_reply(&forged);
    h.deliver(&mut host, 0, record_reply(&genuine));
    h.deliver(&mut host, 1, forged);
    assert_eq!(host.directory_version(AppId(0)), 7);
    assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(6)]);
}

#[test]
fn degraded_round_keeps_last_known_good_then_ttl_expiry_fails_closed() {
    let (mut host, kp, writer) = replicated_host(2);
    let mut h = Harness::new(9);
    h.start(&mut host);
    let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
    h.deliver(&mut host, 0, record_reply(&v1));
    h.deliver(&mut host, 1, record_reply(&v1));
    assert_eq!(host.directory_version(AppId(0)), 1);
    // The scheduled refresh fires: a new round starts (no timeout yet).
    let tag = TAG_NS; // app 0 payload
    let e1 = h.at(TTL.as_nanos() * 8 / 10).timer(&mut host, tag);
    assert!(!metric_incrs(&e1).contains(&"ns.read_timeout"));
    assert!(metric_incrs(&e1).contains(&"ns.read_rounds"));
    // That round gets no replies; the retry timer fires inside the
    // TTL: degraded mode, the stale-but-live record keeps serving.
    let e2 = h.at(TTL.as_nanos() * 9 / 10).timer(&mut host, tag);
    assert!(metric_incrs(&e2).contains(&"ns.read_timeout"));
    assert!(metric_incrs(&e2).contains(&"ns.degraded_rounds"));
    assert!(traces(&e2).iter().any(|t| matches!(t, AuditEvent::NsDegraded { .. })));
    assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(4)]);
    // The TTL lapses without a refresh: the view empties (fail-closed
    // through the empty-manager-view path).
    let e3 = h.at(TTL.as_nanos() + 1).timer(&mut host, TAG_NSEXP);
    assert!(metric_incrs(&e3).contains(&"ns.record_expired"));
    assert!(traces(&e3).iter().any(|t| matches!(t, AuditEvent::NsExpire { .. })));
    assert!(host.manager_view(AppId(0)).is_empty());
    // A later quorum read heals the view.
    h.deliver(&mut host, 0, record_reply(&v1));
    h.deliver(&mut host, 2, record_reply(&v1));
    assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(4)]);
}

#[test]
fn stale_quorum_never_rolls_the_view_back() {
    let (mut host, kp, writer) = replicated_host(2);
    let mut h = Harness::new(9);
    h.start(&mut host);
    let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
    let v2 = whole(2, vec![NodeId::from_index(5)], &kp, writer);
    h.deliver(&mut host, 0, record_reply(&v2));
    h.deliver(&mut host, 1, record_reply(&v2));
    assert_eq!(host.directory_version(AppId(0)), 2);
    // A later round reaches only stale replicas answering v1.
    h.at(1_000_000).timer(&mut host, TAG_NS);
    h.deliver(&mut host, 0, record_reply(&v1));
    let e = h.deliver(&mut host, 1, record_reply(&v1));
    assert!(metric_incrs(&e).contains(&"ns.stale_quorum"));
    assert_eq!(host.directory_version(AppId(0)), 2);
    assert_eq!(host.manager_view(AppId(0)), &[NodeId::from_index(5)]);
}

#[test]
fn negative_quorum_installs_empty_view() {
    let (mut host, _kp, _writer) = replicated_host(2);
    let mut h = Harness::new(9);
    h.start(&mut host);
    let negative =
        ProtoMsg::NsRecordReply { app: AppId(0), ttl: SimDuration::from_secs(15), record: None };
    h.deliver(&mut host, 0, negative.clone());
    let e = h.deliver(&mut host, 1, negative);
    assert!(metric_incrs(&e).contains(&"ns.installs"));
    assert!(host.manager_view(AppId(0)).is_empty());
    assert_eq!(host.directory_version(AppId(0)), 0);
}

#[test]
fn replicated_crash_clears_directory_state() {
    let (mut host, kp, writer) = replicated_host(2);
    let mut h = Harness::new(9);
    h.start(&mut host);
    let v1 = whole(1, vec![NodeId::from_index(4)], &kp, writer);
    h.deliver(&mut host, 0, record_reply(&v1));
    h.deliver(&mut host, 1, record_reply(&v1));
    assert_eq!(host.directory_version(AppId(0)), 1);
    host.on_crash();
    assert!(host.manager_view(AppId(0)).is_empty());
    assert_eq!(host.directory_version(AppId(0)), 0);
    // Recovery restarts the quorum-read machinery from scratch.
    let effects = h.recover(&mut host);
    assert!(sends(&effects).iter().any(|(_, m)| matches!(m, ProtoMsg::NsQuery { .. })));
}

/// A host routes checks only on a live record: once the record's TTL
/// lapses, or the host crashes, a check queries nobody and fails
/// closed — whether the record was one whole-keyspace entry or a
/// two-shard map (user 1 hashes to bucket 18, shard 0's).
#[test]
fn a_host_without_a_live_record_fails_closed_flat_or_sharded() {
    let n = NodeId::from_index;
    let entry = |shard, lo, hi, managers| ShardEntry { shard: ShardId(shard), lo, hi, managers };
    let shapes = [
        ("flat", vec![ShardEntry::whole_keyspace(AppId(0), vec![n(4), n(5)])]),
        ("sharded", vec![entry(0, 0, 127, vec![n(4), n(5)]), entry(1, 128, 255, vec![n(6), n(7)])]),
    ];
    for (shape, shards) in shapes {
        for lapse in ["ttl", "crash"] {
            let (mut host, kp, writer) = replicated_host(2);
            let mut h = Harness::new(9);
            h.start(&mut host);
            let record = NsRecord::signed(AppId(0), 1, shards.clone(), writer, &kp.secret);
            h.deliver(&mut host, 0, record_reply(&record));
            h.deliver(&mut host, 1, record_reply(&record));
            assert_eq!(queried(&h.deliver(&mut host, 7, invoke(1))), [n(4), n(5)], "{shape}");
            if lapse == "ttl" {
                h.at(TTL.as_nanos() + 1).timer(&mut host, TAG_NSEXP);
            } else {
                host.on_crash();
            }
            let effects = h.deliver(&mut host, 7, invoke(1));
            assert!(queried(&effects).is_empty(), "{shape} after {lapse}");
            assert!(metric_incrs(&effects).contains(&"host.empty_manager_view"), "{shape} after {lapse}");
            assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Unavailable))));
            assert!(host.manager_view(AppId(0)).is_empty(), "{shape} after {lapse}");
        }
    }
}

fn bad_macs(effects: &[Output]) -> usize {
    effects
        .iter()
        .filter(|e| matches!(e, Output::Incr { name: M::HOST_BAD_CHANNEL_MAC }))
        .count()
}

/// Sends `invoke(user)` from node 7 and returns the id of the query
/// round it opened.
fn open_query(h: &mut Harness, host: &mut HostNode, user: u64) -> ReqId {
    query_req(&h.deliver(host, 7, invoke(user)))
}

fn grant_reply(req: ReqId, user: u64, mac: Option<wanacl_auth::hmac::Tag>) -> ProtoMsg {
    ProtoMsg::QueryReply {
        req,
        app: AppId(0),
        user: UserId(user),
        verdict: crate::channel::grant(9),
        mac,
    }
}

#[test]
fn authenticated_host_rejects_every_kind_of_wrong_tag() {
    use crate::channel::ChannelKeys;
    let me = NodeId::from_index(9);
    let mgr = NodeId::from_index(0);
    let keys = Arc::new(ChannelKeys::from_seed(1));
    let mut host = host_with_managers(&[0, 1]);
    host.set_channel_keys(keys.clone());
    let mut h = Harness::new(9);
    let req = open_query(&mut h, &mut host, 1);
    let v = crate::channel::grant(9);
    let good = keys.tag_query_reply(mgr, me, req, AppId(0), UserId(1), &v);
    let mut tampered = good;
    tampered.0[0] ^= 0x80;
    let wrong = [
        None,
        Some(tampered),
        // Made by manager 1 under the key it shares with this host.
        Some(keys.tag_query_reply(NodeId::from_index(1), me, req, AppId(0), UserId(1), &v)),
        // Made under the right pair of another deployment's master.
        Some(ChannelKeys::from_seed(2).tag_query_reply(mgr, me, req, AppId(0), UserId(1), &v)),
        // A revoke-notice tag is not a query-reply tag.
        Some(keys.tag_revoke_notice(mgr, me, AppId(0), UserId(1))),
    ];
    for mac in wrong {
        let effects = h.deliver(&mut host, 0, grant_reply(req, 1, mac));
        assert_eq!(bad_macs(&effects), 1, "{mac:?}");
        assert!(sends(&effects).is_empty(), "{mac:?}");
        assert_eq!(host.cached_limit(AppId(0), UserId(1)), None, "{mac:?}");
    }
    let effects = h.deliver(&mut host, 0, grant_reply(req, 1, Some(good)));
    assert_eq!(bad_macs(&effects), 0);
    assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Allowed { .. }))));

    // The same for flushes: only the sender's own tag removes a lease.
    let good = keys.tag_revoke_notice(mgr, me, AppId(0), UserId(1));
    let mut tampered = good;
    tampered.0[31] ^= 1;
    let wrong = [
        None,
        Some(tampered),
        Some(keys.tag_revoke_notice(NodeId::from_index(1), me, AppId(0), UserId(1))),
        Some(ChannelKeys::from_seed(2).tag_revoke_notice(mgr, me, AppId(0), UserId(1))),
        Some(keys.tag_revoke_notice(mgr, me, AppId(0), UserId(2))),
    ];
    for mac in wrong {
        let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac };
        assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 1, "{mac:?}");
        assert!(host.cached_limit(AppId(0), UserId(1)).is_some(), "{mac:?}");
    }
    let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: Some(good) };
    assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 0);
    assert_eq!(host.cached_limit(AppId(0), UserId(1)), None);
    assert_eq!(host.stats().revoke_flushes, 1);
}

/// An authenticated host asking managers 0, 1 and 2 with `C` = 2, the
/// channel keys it holds and the query round `invoke(1)` opened.
fn two_of_three_host(h: &mut Harness) -> (HostNode, Arc<crate::channel::ChannelKeys>, ReqId) {
    let keys = Arc::new(crate::channel::ChannelKeys::from_seed(1));
    let ids = (0..3).map(NodeId::from_index).collect::<Vec<_>>();
    let policy = Policy::builder(2).revocation_bound(SimDuration::from_secs(10)).max_attempts(1).build();
    let mut host = host_with_directory(ManagerDirectory::Static(ids.into()), policy);
    host.set_channel_keys(keys.clone());
    let req = open_query(h, &mut host, 1);
    (host, keys, req)
}

/// Manager `from`'s tag on `grant_reply(req, 1, ..)` to host 9.
fn grant_tag(keys: &crate::channel::ChannelKeys, from: usize, req: ReqId) -> Option<wanacl_auth::hmac::Tag> {
    let v = crate::channel::grant(9);
    Some(keys.tag_query_reply(NodeId::from_index(from), NodeId::from_index(9), req, AppId(0), UserId(1), &v))
}

/// The third manager's reply reaches a check its first two already
/// settled. It is dropped as late before its tag is checked: a forged
/// tag counts no bad MAC, and no key is derived for the sender.
#[test]
fn a_forged_late_reply_counts_late_and_is_never_verified() {
    let mut h = Harness::new(9);
    let (mut host, keys, req) = two_of_three_host(&mut h);
    let tag = |from| grant_tag(&keys, from, req);
    assert!(outcome(&h.deliver(&mut host, 0, grant_reply(req, 1, tag(0)))).is_none());
    let effects = h.deliver(&mut host, 1, grant_reply(req, 1, tag(1)));
    assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Allowed { .. }))));
    let limit = host.cached_limit(AppId(0), UserId(1));
    assert!(limit.is_some());

    let deny = ProtoMsg::QueryReply { req, app: AppId(0), user: UserId(1), verdict: QueryVerdict::Deny, mac: None };
    let effects = h.deliver(&mut host, 2, deny);
    assert!(metric_incrs(&effects).contains(&"host.late_reply"), "{effects:?}");
    assert_eq!(bad_macs(&effects), 0);
    assert!(sends(&effects).is_empty());
    assert_eq!(host.cached_limit(AppId(0), UserId(1)), limit);
    assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(2), "no key derived for manager 2");
}

/// A forged reply to the current attempt is still checked: it counts
/// `host.bad_channel_mac` and casts no vote, so the check needs two
/// genuine replies more.
#[test]
fn a_forged_current_reply_counts_a_bad_mac_and_casts_no_vote() {
    let mut h = Harness::new(9);
    let (mut host, keys, req) = two_of_three_host(&mut h);
    let tag = |from| grant_tag(&keys, from, req);
    // Manager 1's tag, sent as manager 0.
    let effects = h.deliver(&mut host, 0, grant_reply(req, 1, tag(1)));
    assert_eq!(bad_macs(&effects), 1);
    assert!(!metric_incrs(&effects).contains(&"host.late_reply"));
    assert!(sends(&effects).is_empty());
    assert!(outcome(&h.deliver(&mut host, 1, grant_reply(req, 1, tag(1)))).is_none(), "one vote is below C");
    let effects = h.deliver(&mut host, 2, grant_reply(req, 1, tag(2)));
    assert_eq!(bad_macs(&effects), 0);
    assert!(matches!(outcome(&effects), Some((_, InvokeOutcome::Allowed { .. }))));
}

#[test]
fn rekeying_a_host_drops_held_keys_and_rejects_tags_of_the_old_master() {
    use crate::channel::ChannelKeys;
    let me = NodeId::from_index(9);
    let mgr = NodeId::from_index(0);
    let old = Arc::new(ChannelKeys::from_seed(1));
    let new = Arc::new(ChannelKeys::from_seed(2));
    let mut host = host_with_managers(&[0]);
    host.set_channel_keys(old.clone());
    let mut h = Harness::new(9);
    let v = crate::channel::grant(9);
    let req = open_query(&mut h, &mut host, 1);
    let tag = old.tag_query_reply(mgr, me, req, AppId(0), UserId(1), &v);
    assert_eq!(bad_macs(&h.deliver(&mut host, 0, grant_reply(req, 1, Some(tag)))), 0);
    assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(1));

    host.set_channel_keys(new.clone());
    assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(0), "rotation empties the table");
    // A notice tagged before the rotation no longer flushes ...
    let stale = old.tag_revoke_notice(mgr, me, AppId(0), UserId(1));
    let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: Some(stale) };
    assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 1);
    assert!(host.cached_limit(AppId(0), UserId(1)).is_some());
    // ... nor does a reply tagged before it grant ...
    let req = open_query(&mut h, &mut host, 2);
    let stale = old.tag_query_reply(mgr, me, req, AppId(0), UserId(2), &v);
    assert_eq!(bad_macs(&h.deliver(&mut host, 0, grant_reply(req, 2, Some(stale)))), 1);
    assert_eq!(host.cached_limit(AppId(0), UserId(2)), None);
    // ... while tags under the new master do both.
    let fresh = new.tag_query_reply(mgr, me, req, AppId(0), UserId(2), &v);
    assert_eq!(bad_macs(&h.deliver(&mut host, 0, grant_reply(req, 2, Some(fresh)))), 0);
    assert!(host.cached_limit(AppId(0), UserId(2)).is_some());
    let fresh = new.tag_revoke_notice(mgr, me, AppId(0), UserId(1));
    let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: Some(fresh) };
    assert_eq!(bad_macs(&h.deliver(&mut host, 0, notice)), 0);
    assert_eq!(host.cached_limit(AppId(0), UserId(1)), None);
    assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(1));
}

#[test]
fn host_holds_one_pair_key_per_tagging_peer_and_prints_none() {
    use crate::channel::ChannelKeys;
    let me = NodeId::from_index(9);
    let master = *b"an unmistakable 32-byte master!!";
    let keys = Arc::new(ChannelKeys::new(master));
    let mut host = host_with_managers(&[0, 1, 2]);
    host.set_channel_keys(keys.clone());
    let mut h = Harness::new(9);
    let v = crate::channel::grant(9);
    // Replies and notices from three managers, interleaved and
    // repeated; a forged tag from a fourth node; an untagged message
    // from a fifth, which is refused before any key is derived.
    for (user, from) in [(1u64, 0usize), (2, 1), (3, 0), (4, 2), (5, 1), (6, 4)] {
        let req = open_query(&mut h, &mut host, user);
        let from_id = NodeId::from_index(from);
        let tag = keys.tag_query_reply(from_id, me, req, AppId(0), UserId(user), &v);
        h.deliver(&mut host, from, grant_reply(req, user, Some(tag)));
        let tag = keys.tag_revoke_notice(from_id, me, AppId(0), UserId(user));
        let mac = Some(tag);
        let notice = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(user), mac };
        h.deliver(&mut host, from, notice);
    }
    let untagged = ProtoMsg::RevokeNotice { app: AppId(0), user: UserId(1), mac: None };
    assert_eq!(bad_macs(&h.deliver(&mut host, 5, untagged)), 1);
    assert_eq!(host.channel.as_ref().map(|c| c.peers()), Some(4), "peers 0, 1, 2 and 4");

    let shown = format!("{host:?} {host:#?}");
    assert!(shown.contains("ChannelEnd"), "{shown}");
    assert!(!shown.contains("unmistakable"), "{shown}");
    assert!(!shown.contains("97, 110, 32, 117"), "{shown}");
    assert!(!shown.contains("616e20756e"), "{shown}");
}
