//! Hex pins of the bytes the system stores, signs, tags and digests: a
//! manager's WAL records and snapshot, a directory record's WAL bytes,
//! signing bytes and snapshot, the channel's `QueryReply` and
//! `RevokeNotice` tags, `transfer_digest`, `user_bucket` and each audit
//! event's encoding, which the oracle's audit digest folds.
//!
//! A host and a manager compute a tag with the same code, and a writer
//! and a reader of a WAL share one codec, so a layout that moved on both
//! sides at once passes every round-trip test. These literals do not
//! move with it.

use std::any::Any;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wanacl_auth::rsa;
use wanacl_auth::signed::{AuthEncode, KeyRegistry, PrincipalId};
use wanacl_core::manager::transfer_digest;
use wanacl_core::prelude::*;
use wanacl_core::storelog::{encode_record, encode_release, encode_snapshot};
use wanacl_sim::clock::{ClockSpec, LocalTime};
use wanacl_sim::node::NodeId;
use wanacl_sim::storage::{Barrier, Recovered, SimStorage, Storage, StorageError, StorageStats};
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::world::World;

fn n(index: usize) -> NodeId {
    NodeId::from_index(index)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn add() -> (OpId, AclOp) {
    let (app, user) = (AppId(0x0a0b_0c0d), UserId(0x1112_1314_1516_1718));
    let op = AclOp::Add { app, user, right: Right::Use };
    (OpId { origin: n(2), seq: 0x0102_0304_0506_0708 }, op)
}

fn revoke() -> (OpId, AclOp) {
    let op = AclOp::Revoke { app: AppId(7), user: UserId(u64::MAX), right: Right::Manage };
    (OpId { origin: n(0x0102_0304), seq: 9 }, op)
}

#[test]
fn manager_wal_records_and_snapshot() {
    // kind | app | user | right | origin | seq
    let (id, op) = add();
    let want = ["00", "0a0b0c0d", "1112131415161718", "00", "00000002", "0102030405060708"];
    assert_eq!(hex(&encode_record(id, &op)), want.concat());
    let (id, op) = revoke();
    let want = ["01", "00000007", "ffffffffffffffff", "01", "01020304", "0000000000000009"];
    assert_eq!(hex(&encode_record(id, &op)), want.concat());
    // kind | shard | epoch | thirteen zero bytes
    let want = ["02", "01020304", "1112131415161718", "00", "00000000", "0000000000000000"];
    assert_eq!(hex(&encode_release(ShardId(0x0102_0304), 0x1112_1314_1516_1718)), want.concat());

    let state = SnapshotState {
        lamport: 42,
        applied: vec![add().0, revoke().0],
        lww: [add(), revoke()].map(|(id, op)| (op.app(), op.user(), op.right(), id, op)).to_vec(),
        released: vec![(ShardId(5), 3)],
    };
    let want = [
        "57534e50",         // magic "WSNP"
        "02",               // version
        "000000000000002a", // lamport
        "00000002",         // applied
        "000000020102030405060708",
        "010203040000000000000009",
        "00000002", // lww
        "000a0b0c0d111213141516171800000000020102030405060708",
        "0100000007ffffffffffffffff01010203040000000000000009",
        "00000001", // released
        "000000050000000000000003",
    ]
    .concat();
    assert_eq!(hex(&encode_snapshot(&state)), want);
}

/// `(is_snapshot, bytes)` of each write, in write order.
type Written = Arc<Mutex<Vec<(bool, Vec<u8>)>>>;

/// Storage that keeps a copy of every record and snapshot written.
#[derive(Debug)]
struct Copying {
    disk: SimStorage,
    written: Written,
}

impl Copying {
    fn keep(&self, snapshot: bool, bytes: &[u8]) {
        self.written.lock().unwrap().push((snapshot, bytes.to_vec()));
    }
}

impl Storage for Copying {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.keep(false, record);
        self.disk.append(record)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.disk.sync()
    }
    fn barrier(&mut self, tag: u64) -> Barrier {
        self.disk.barrier(tag)
    }
    fn write_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError> {
        self.keep(true, snapshot);
        self.disk.write_snapshot(snapshot)
    }
    fn recover(&mut self) -> Recovered {
        self.disk.recover()
    }
    fn crash(&mut self) {
        self.disk.crash()
    }
    fn stats(&self) -> StorageStats {
        self.disk.stats()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The writer's signing bytes of app 3's version-5 record below:
/// app, version, entry count, then each entry's shard, buckets and
/// managers, each list behind its length.
const SIGNING_BYTES: &str = concat!(
    "00000003",
    "0000000000000005",
    "0000000000000002",
    "0000000000000004", "00", "7f", "0000000000000002", "0000000000000001", "0000000000000002",
    "0000000000000009", "80", "ff", "0000000000000001", "0000000000000003",
);

#[test]
fn directory_record_signing_bytes_wal_bytes_and_snapshot() {
    let mut rng = StdRng::seed_from_u64(77);
    let writer = PrincipalId(2_000_000);
    let mut registry = KeyRegistry::new();
    let kp = registry.enroll(writer, &mut rng);
    let entry = |shard, lo, hi, managers: &[usize]| ShardEntry {
        shard: ShardId(shard),
        lo,
        hi,
        managers: managers.iter().map(|&i| n(i)).collect(),
    };
    let genesis = NsRecord::signed(AppId(3), 4, vec![entry(4, 0, 255, &[1])], writer, &kp.secret);
    let record = NsRecord::signed(
        AppId(3),
        5,
        vec![entry(4, 0, 0x7f, &[1, 2]), entry(9, 0x80, 0xff, &[3])],
        writer,
        &kp.secret,
    );
    let signing: Vec<u8> = (0..SIGNING_BYTES.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&SIGNING_BYTES[i..i + 2], 16).unwrap())
        .collect();
    let signed = [&writer.0.to_be_bytes()[..], &signing].concat();
    assert!(rsa::verify(&kp.public, &signed, &record.signature), "signed: writer, then these bytes");
    assert_eq!(record.signature, rsa::sign(&kp.secret, &signed));

    // A replica on storage snapshots its preloaded genesis record when
    // it starts and logs a publish it accepts.
    let written = Written::default();
    let ttl = SimDuration::from_secs(60);
    let mut replica = DirectoryReplica::new(ttl, vec![], Arc::new(registry), writer);
    let disk = SimStorage::new(1);
    replica.set_storage(Box::new(Copying { disk, written: Arc::clone(&written) }));
    replica.preload(genesis.clone());
    let mut world: World<ProtoMsg> = World::new(1);
    let at = world.add_node("ns", Box::new(replica), ClockSpec::Perfect);
    world.run_for(SimDuration::from_millis(10));
    let publish = ProtoMsg::NsPublish { record: Box::new(record.clone()) };
    world.inject(SimTime::from_millis(20), at, publish);
    world.run_for(SimDuration::from_millis(50));
    assert_eq!(world.node_as::<DirectoryReplica>(at).version_of(AppId(3)), 5);

    let sig = |r: &NsRecord| format!("{:016x}", r.signature.0);
    // app | version | signature | entries, each: shard | lo | hi | managers
    let genesis_body = [
        "00000003",
        "0000000000000004",
        &sig(&genesis),
        "00000001",
        "00000004", "00", "ff", "00000001", "0000000000000001",
    ]
    .concat();
    let record_body = [
        "00000003",
        "0000000000000005",
        &sig(&record),
        "00000002",
        "00000004", "00", "7f", "00000002", "0000000000000001", "0000000000000002",
        "00000009", "80", "ff", "00000001", "0000000000000003",
    ]
    .concat();
    let written: Vec<(bool, String)> =
        written.lock().unwrap().iter().map(|(snapshot, bytes)| (*snapshot, hex(bytes))).collect();
    // The snapshot is each record behind its length.
    assert_eq!(written, vec![(true, format!("0000002a{genesis_body}")), (false, record_body)]);
    assert_eq!(sig(&genesis), "6e6ec7255ce4ce70");
    assert_eq!(sig(&record), "52e9c8ede22fa2c5");
}

#[test]
fn channel_tags_under_seed_7() {
    let keys = ChannelKeys::from_seed(7);
    let (mgr, host, req, app, user) = (n(0), n(3), ReqId(9), AppId(1), UserId(2));
    let tag = |verdict: QueryVerdict| keys.tag_query_reply(mgr, host, req, app, user, &verdict).to_hex();
    let unavailable = |reason| tag(QueryVerdict::Unavailable { reason });
    assert_eq!(
        tag(QueryVerdict::Grant { te: SimDuration::from_secs(30) }),
        "5828d9dd9aaf62a634f67558c9ae006caf8c1ebd1ecb1c32fe4488565f84ea5b"
    );
    assert_eq!(tag(QueryVerdict::Deny), "43aa3ed7bff17d3fc451c9d09904ce833cb9daed1a0ac5f675a77f57849ac7f2");
    assert_eq!(
        unavailable(RejectReason::NotAuthorized),
        "cad2f2e02891f24397f9e6cbd2ebdc71c69728f2c62e57c6317ccf90cec24f24"
    );
    assert_eq!(
        unavailable(RejectReason::BadSignature),
        "8ea0ad0833b99f40565e043be29e382b0bc9a1c9e8642b5bdffc815e6c77832b"
    );
    assert_eq!(
        unavailable(RejectReason::Recovering),
        "31f3486e64959cf34a67c5410bb97be64c045f767ec744952355f706676cf3a2"
    );
    assert_eq!(
        unavailable(RejectReason::UnknownShard),
        "65b9017bfcc1ce2b96bf71fa0c87b224003167c53ad011b767b3c1c659df0566"
    );
    assert_eq!(
        unavailable(RejectReason::ShardMoved),
        "e1ca6eb2b81ba10d110e317857b92b610b16b5bcc41925e08ad7d721cf5465c0"
    );
    assert_eq!(
        keys.tag_revoke_notice(mgr, host, app, user).to_hex(),
        "4c19398925dba578a47a08171cadb93cdf2a74d570be1c00ee30ab167dc487b3"
    );
}

#[test]
fn transfer_digests_and_user_buckets() {
    assert_eq!(transfer_digest(&[]), 0xcbf2_9ce4_8422_2325, "the FNV-1a offset basis");
    assert_eq!(transfer_digest(&[add(), revoke()]), 0x678c_afe3_4cba_4b8d);
    let buckets = [0, 1, 2, 0x0102_0304_0506_0708, u64::MAX].map(|u| user_bucket(UserId(u)));
    assert_eq!(buckets, [197, 18, 95, 237, 61]);
}

/// One encoding per [`AuditEvent`] variant, and per allow and recovery
/// path: a kind byte, then the fields in declaration order at fixed
/// width, big-endian, with lists behind a `u64` count.
#[test]
fn audit_events() {
    let (app, user) = (AppId(3), UserId(41));
    let t = |nanos| LocalTime::from_nanos(nanos);
    let id = OpId { origin: n(1), seq: 4 };
    let managers: NodeList = [n(0), n(2)].into_iter().collect();
    let held = NsHeld { app, version: 7, managers: managers.clone() };
    let ops = ShardOps { shard: ShardId(1), epoch: 4, src: n(2), digest: 777, count: 3 };
    let quorum = |limit| AllowPath::Quorum {
        confirms: 2,
        c: 2,
        managers: managers.clone(),
        started: t(1_000),
        limit,
    };
    let au = "000000030000000000000029"; // app 3 | user 41
    let op = "000000010000000000000004"; // origin 1 | seq 4
    let mgrs = "00000000000000020000000000000002"; // count 2 | node 0 | node 2
    let table: [(AuditEvent, Vec<&str>); 22] = [
        // kind | app | user | path: cache | now | limit
        (
            AuditEvent::Allow { app, user, path: AllowPath::Cache { now: t(4), limit: t(5) } },
            vec!["00", au, "00", "0000000000000004", "0000000000000005"],
        ),
        // … path: quorum | confirms | c | managers | started | limit present | limit
        (
            AuditEvent::Allow { app, user, path: quorum(Some(t(5))) },
            vec![
                "00", au, "01", "0000000000000002", "0000000000000002", mgrs, "00000000000003e8",
                "01", "0000000000000005",
            ],
        ),
        // … limit absent
        (
            AuditEvent::Allow { app, user, path: quorum(None) },
            vec![
                "00", au, "01", "0000000000000002", "0000000000000002", mgrs, "00000000000003e8",
                "00",
            ],
        ),
        (AuditEvent::Allow { app, user, path: AllowPath::FailOpen }, vec!["00", au, "02"]),
        // kind | app | user | started | limit | te
        (
            AuditEvent::CacheStore {
                app,
                user,
                started: t(1),
                limit: t(2),
                te: SimDuration::from_nanos(3),
            },
            vec!["01", au, "0000000000000001", "0000000000000002", "0000000000000003"],
        ),
        (AuditEvent::Grant { app, user, te: SimDuration::from_nanos(9) }, vec!["02", au, "0000000000000009"]),
        (AuditEvent::Deny { app, user }, vec!["03", au]),
        // kind | revoke | app | user | op
        (AuditEvent::Apply { revoke: true, app, user, id }, vec!["04", "01", au, op]),
        (AuditEvent::GrantStable { app, user, id }, vec!["05", au, op]),
        (AuditEvent::RevokeStable { app, user, id }, vec!["06", au, op]),
        // kind | app | user | right | revoke | op
        (
            AuditEvent::Durable { app, user, right: Right::Manage, revoke: false, id },
            vec!["07", au, "01", "00", op],
        ),
        // kind | disk | replayed | torn | slots: count, (app | user | right | op)…
        (
            AuditEvent::Recovered(Recovery::Disk {
                replayed: 2,
                torn: 1,
                slots: vec![(app, user, Right::Use, id)],
            }),
            vec![
                "08", "00", "0000000000000002", "0000000000000001", "0000000000000001", au, "00",
                op,
            ],
        ),
        (AuditEvent::Recovered(Recovery::Sync { merged: 12 }), vec!["08", "01", "000000000000000c"]),
        (AuditEvent::Freeze { app }, vec!["09", "00000003"]),
        (AuditEvent::Thaw { app }, vec!["0a", "00000003"]),
        // kind | app | version | managers
        (AuditEvent::NsPublish(held.clone()), vec!["0b", "00000003", "0000000000000007", mgrs]),
        (AuditEvent::NsApply(held), vec!["0c", "00000003", "0000000000000007", mgrs]),
        // kind | app | version | acks | quorum | managers | ttl
        (
            AuditEvent::NsInstall {
                app,
                version: 7,
                acks: 2,
                quorum: 2,
                managers: managers.clone(),
                ttl: SimDuration::from_nanos(9),
            },
            vec![
                "0d", "00000003", "0000000000000007", "0000000000000002", "0000000000000002", mgrs,
                "0000000000000009",
            ],
        ),
        (AuditEvent::NsDegraded { app, version: 7 }, vec!["0e", "00000003", "0000000000000007"]),
        (AuditEvent::NsExpire { app, version: 7 }, vec!["0f", "00000003", "0000000000000007"]),
        // kind | shard | epoch | src | digest | count
        (
            AuditEvent::ShardHandoff(ops.clone()),
            vec!["10", "00000001", "0000000000000004", "00000002", "0000000000000309", "0000000000000003"],
        ),
        (
            AuditEvent::ShardInstall(ops),
            vec!["11", "00000001", "0000000000000004", "00000002", "0000000000000309", "0000000000000003"],
        ),
    ];
    for (event, want) in table {
        assert_eq!(hex(&event.auth_bytes()), want.concat(), "{event}");
    }
}
