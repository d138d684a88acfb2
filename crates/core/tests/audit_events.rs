//! The line every [`AuditEvent`] prints is pinned here, one literal per
//! variant and per allow/recovery path: trace exports, `wanacl audit`
//! and violation reports are made of these bytes. Beside it, properties
//! of the encoding the audit digest folds instead: two events encode
//! alike exactly when they print alike, a text note never folds like an
//! event, and the oracle's streamed digest is FNV-1a over each note's
//! encoded bytes, while `Note::len()` is the printed line's length.

use proptest::prelude::*;
use wanacl_auth::signed::AuthEncode;
use wanacl_core::prelude::*;
use wanacl_sim::clock::LocalTime;
use wanacl_sim::node::{NodeId, Note};
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::trace::TraceEvent;
use wanacl_sim::world::Observer;

fn n(index: usize) -> NodeId {
    NodeId::from_index(index)
}

fn nodes(indexes: &[usize]) -> NodeList {
    indexes.iter().map(|&i| n(i)).collect()
}

fn local(nanos: u64) -> LocalTime {
    LocalTime::from_nanos(nanos)
}

fn op(seq: u64, origin: usize) -> OpId {
    OpId { origin: n(origin), seq }
}

#[test]
fn every_variant_prints_its_pinned_line() {
    let (app, user) = (AppId(3), UserId(41));
    let allow = |path| AuditEvent::Allow { app, user, path };
    let quorum = |managers: &[usize], limit| {
        allow(AllowPath::Quorum {
            confirms: managers.len(),
            c: 2,
            managers: nodes(managers),
            started: local(1_000_000),
            limit,
        })
    };
    let held = |managers: &[usize]| NsHeld { app, version: 7, managers: nodes(managers) };
    let shard_ops = ShardOps { shard: ShardId(1), epoch: 4, src: n(2), digest: 777, count: 3 };
    let table = [
        (
            allow(AllowPath::Cache { now: local(4_000_000), limit: local(5_001_000_000) }),
            "audit=allow app=3 user=41 mode=cache now=4000000 limit=5001000000",
        ),
        (
            quorum(&[0, 2], Some(local(5_001_000_000))),
            "audit=allow app=3 user=41 mode=quorum confirms=2 c=2 mgrs=0;2 started=1000000 \
             limit=5001000000",
        ),
        (
            // A grant with te = 0 stores no lease; more managers than
            // fit inline print the same way.
            quorum(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 10], None),
            "audit=allow app=3 user=41 mode=quorum confirms=10 c=2 mgrs=0;1;2;3;4;5;6;7;8;10 \
             started=1000000",
        ),
        (quorum(&[], None), "audit=allow app=3 user=41 mode=quorum confirms=0 c=2 mgrs= started=1000000"),
        (allow(AllowPath::FailOpen), "audit=allow app=3 user=41 mode=failopen"),
        (
            AuditEvent::CacheStore {
                app,
                user,
                started: local(1_000_000),
                limit: local(5_001_000_000),
                te: SimDuration::from_secs(5),
            },
            "audit=cache-store app=3 user=41 started=1000000 limit=5001000000 te=5000000000",
        ),
        (
            AuditEvent::Grant { app, user, te: SimDuration::from_millis(9_900) },
            "audit=grant app=3 user=41 te=9900000000",
        ),
        (AuditEvent::Deny { app, user }, "audit=deny app=3 user=41"),
        (
            AuditEvent::Apply { revoke: false, app, user, id: op(4, 1) },
            "audit=apply kind=add app=3 user=41 seq=4 origin=1",
        ),
        (
            AuditEvent::Apply { revoke: true, app, user, id: op(5, 0) },
            "audit=apply kind=revoke app=3 user=41 seq=5 origin=0",
        ),
        (
            AuditEvent::GrantStable { app, user, id: op(4, 1) },
            "audit=grant-stable app=3 user=41 seq=4 origin=1",
        ),
        (
            AuditEvent::RevokeStable { app, user, id: op(5, 0) },
            "audit=revoke-stable app=3 user=41 seq=5 origin=0",
        ),
        (
            AuditEvent::Durable { app, user, right: Right::Use, revoke: false, id: op(4, 1) },
            "audit=durable app=3 user=41 right=use kind=add seq=4 origin=1",
        ),
        (
            AuditEvent::Durable { app, user, right: Right::Manage, revoke: true, id: op(6, 2) },
            "audit=durable app=3 user=41 right=manage kind=revoke seq=6 origin=2",
        ),
        (
            AuditEvent::Recovered(Recovery::Disk {
                replayed: 2,
                torn: 1,
                slots: vec![(app, user, Right::Use, op(4, 1)), (AppId(0), UserId(2), Right::Manage, op(9, 0))],
            }),
            "audit=recovered mode=disk replayed=2 torn=1 slots=3:41:use:4:1,0:2:manage:9:0",
        ),
        (
            AuditEvent::Recovered(Recovery::Disk { replayed: 0, torn: 0, slots: Vec::new() }),
            "audit=recovered mode=disk replayed=0 torn=0 slots=",
        ),
        (AuditEvent::Recovered(Recovery::Sync { merged: 12 }), "audit=recovered mode=sync merged=12"),
        (AuditEvent::Freeze { app }, "audit=freeze app=3"),
        (AuditEvent::Thaw { app }, "audit=thaw app=3"),
        (AuditEvent::NsPublish(held(&[4, 5])), "audit=ns-publish app=3 version=7 mgrs=4;5"),
        (AuditEvent::NsApply(held(&[])), "audit=ns-apply app=3 version=7 mgrs=-"),
        (
            AuditEvent::NsInstall {
                app,
                version: 7,
                acks: 2,
                quorum: 2,
                managers: nodes(&[4, 5]),
                ttl: SimDuration::from_secs(9),
            },
            "audit=ns-install app=3 version=7 mode=quorum acks=2 quorum=2 mgrs=4;5 ttl=9000000000",
        ),
        (
            // The negative answer installs the empty view.
            AuditEvent::NsInstall {
                app,
                version: 0,
                acks: 3,
                quorum: 2,
                managers: nodes(&[]),
                ttl: SimDuration::from_secs(2),
            },
            "audit=ns-install app=3 version=0 mode=quorum acks=3 quorum=2 mgrs=- ttl=2000000000",
        ),
        (AuditEvent::NsDegraded { app, version: 7 }, "audit=ns-degraded app=3 version=7"),
        (AuditEvent::NsExpire { app, version: 7 }, "audit=ns-expire app=3 version=7"),
        (
            AuditEvent::ShardHandoff(shard_ops.clone()),
            "audit=shard-handoff shard=1 epoch=4 src=2 digest=777 count=3",
        ),
        (
            AuditEvent::ShardInstall(shard_ops),
            "audit=shard-install shard=1 epoch=4 src=2 digest=777 count=3",
        ),
    ];
    for (event, line) in table {
        assert_eq!(event.to_string(), line, "{event:?}");
    }
}

/// An event of the variant `kind` selects, its fields drawn from `v`
/// and `managers`.
fn event_from(kind: u8, v: [u64; 4], managers: &[usize]) -> AuditEvent {
    let (app, user) = (AppId(v[0] as u32), UserId(v[1]));
    let id = op(v[2], v[3] as usize % 64);
    let (t0, t1) = (local(v[2]), local(v[3]));
    let peer = n(v[0] as usize % 64);
    let held = NsHeld { app, version: v[1], managers: nodes(managers) };
    let shard_ops = ShardOps {
        shard: ShardId(v[0] as u32),
        epoch: v[1],
        src: peer,
        digest: v[2],
        count: v[3] as usize,
    };
    match kind {
        0 => AuditEvent::Allow { app, user, path: AllowPath::Cache { now: t0, limit: t1 } },
        1 => AuditEvent::Allow {
            app,
            user,
            // `confirms` and `c` come from `v[0]`'s high half, which no
            // other field here reads, so either can differ alone; and
            // `confirms` is not the manager count, so the list's own
            // length is all that delimits it from `started`.
            path: AllowPath::Quorum {
                confirms: (v[0] >> 32) as usize % 4,
                c: (v[0] >> 34) as usize % 9,
                managers: nodes(managers),
                started: t0,
                limit: v[3].is_multiple_of(2).then_some(t1),
            },
        },
        2 => AuditEvent::Allow { app, user, path: AllowPath::FailOpen },
        3 => AuditEvent::CacheStore {
            app,
            user,
            started: t0,
            limit: t1,
            te: SimDuration::from_nanos(v[3]),
        },
        4 => AuditEvent::Grant { app, user, te: SimDuration::from_nanos(v[2]) },
        5 => AuditEvent::Deny { app, user },
        6 => AuditEvent::Apply { revoke: v[3].is_multiple_of(2), app, user, id },
        7 => AuditEvent::GrantStable { app, user, id },
        8 => AuditEvent::RevokeStable { app, user, id },
        9 => AuditEvent::Durable { app, user, right: Right::Manage, revoke: v[2].is_multiple_of(2), id },
        10 => AuditEvent::Recovered(Recovery::Disk {
            replayed: v[0],
            torn: v[1],
            slots: managers.iter().map(|&m| (app, UserId(m as u64), Right::Use, id)).collect(),
        }),
        11 => AuditEvent::Recovered(Recovery::Sync { merged: v[0] }),
        12 => AuditEvent::Freeze { app },
        13 => AuditEvent::Thaw { app },
        14 => AuditEvent::NsPublish(held),
        15 => AuditEvent::NsApply(held),
        16 => AuditEvent::NsInstall {
            app,
            version: v[1],
            acks: managers.len(),
            quorum: v[2] as usize % 9,
            managers: held.managers,
            ttl: SimDuration::from_nanos(v[3]),
        },
        17 => AuditEvent::NsDegraded { app, version: v[1] },
        18 => AuditEvent::NsExpire { app, version: v[1] },
        19 => AuditEvent::ShardHandoff(shard_ops),
        _ => AuditEvent::ShardInstall(shard_ops),
    }
}

/// A note as the audit digest folds it: an event's encoded bytes, or a
/// text note's line.
enum Folded {
    Event(Vec<u8>),
    Text(String),
}

/// FNV-1a over `node ‖ tag ‖ bytes ‖ 0xff` per note: the node's index as
/// a big-endian `u32`; tag 1 and an event's encoding, or tag 0 and a
/// text's length as a big-endian `u64` and its UTF-8 bytes.
fn reference_digest(notes: &[(NodeId, Folded)]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (node, note) in notes {
        let mut bytes = (node.index() as u32).to_be_bytes().to_vec();
        match note {
            Folded::Event(encoded) => {
                bytes.push(1);
                bytes.extend_from_slice(encoded);
            }
            Folded::Text(line) => {
                bytes.push(0);
                bytes.extend_from_slice(&(line.len() as u64).to_be_bytes());
                bytes.extend_from_slice(line.as_bytes());
            }
        }
        bytes.push(0xff);
        for byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The oracle's digest after it has seen `notes`, in order.
fn oracle_digest(notes: impl IntoIterator<Item = (NodeId, Note)>) -> u64 {
    let policy = Policy::builder(2).build();
    let mut oracle = InvariantOracle::new(&policy, SimDuration::ZERO);
    for (i, (node, text)) in notes.into_iter().enumerate() {
        let event = TraceEvent::Note { node, text };
        oracle.on_event(SimTime::from_secs(i as u64), i as u64, &event);
    }
    oracle.audit_digest()
}

/// A field value: mostly 0–2, so that two draws often print alike;
/// sometimes any `u64`.
fn field() -> impl Strategy<Value = u64> {
    (0u64..3, any::<u64>(), 0u8..4).prop_map(|(small, wide, pick)| if pick == 0 { wide } else { small })
}

/// Over every event of a small domain — each variant, each field 0, 1,
/// `1 << 32` or `1 << 56`, up to two managers out of two — two events
/// encode alike exactly when they print alike. The two wide values'
/// big-endian bytes read as other fields would: two node ids side by
/// side, a flag byte and zeros. A list that lost its length prefix
/// collides here: two managers and a `started` of `1 << 56` with no
/// lease limit encode as no manager, a `started` of 0 and a limit of 0.
#[test]
fn events_encode_alike_exactly_when_they_print_alike() {
    let values = [0, 1, 1 << 32, 1 << 56];
    let lists: [&[usize]; 7] = [&[], &[0], &[1], &[0, 0], &[0, 1], &[1, 0], &[1, 1]];
    let mut lines = std::collections::BTreeMap::new();
    let mut encodings = std::collections::BTreeMap::new();
    for kind in 0u8..21 {
        for i in 0..1 << 8 {
            let v: [u64; 4] = std::array::from_fn(|f| values[(i >> (2 * f)) & 3]);
            for managers in lists {
                let event = event_from(kind, v, managers);
                let (line, bytes) = (event.to_string(), event.auth_bytes());
                if let Some(other) = lines.insert(bytes.clone(), line.clone()) {
                    assert_eq!(other, line, "two lines encode as {bytes:?}");
                }
                if let Some(other) = encodings.insert(line.clone(), bytes.clone()) {
                    assert_eq!(other, bytes, "{line} encodes two ways");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4_096, ..ProptestConfig::default() })]
    /// The same, over wide values: the second event keeps each of the
    /// first's kind, fields and managers with even odds, so the pairs
    /// cover equal events, one field apart, and the same fields under
    /// another kind.
    #[test]
    fn random_pairs_encode_alike_exactly_when_they_print_alike(
        kinds in (0u8..21, 0u8..21),
        first in (field(), field(), field(), field()),
        fresh in (field(), field(), field(), field()),
        keep in any::<u8>(),
        managers in (prop::collection::vec(0usize..3, 0..3), prop::collection::vec(0usize..3, 0..3)),
    ) {
        let a = [first.0, first.1, first.2, first.3];
        let fresh = [fresh.0, fresh.1, fresh.2, fresh.3];
        let b: [u64; 4] = std::array::from_fn(|i| if keep >> i & 1 == 1 { a[i] } else { fresh[i] });
        let kind = if keep & 0x10 != 0 { kinds.0 } else { kinds.1 };
        let other = if keep & 0x20 != 0 { &managers.0 } else { &managers.1 };
        let (x, y) = (event_from(kinds.0, a, &managers.0), event_from(kind, b, other));
        prop_assert_eq!(
            x.to_string() == y.to_string(),
            x.auth_bytes() == y.auth_bytes(),
            "{} / {}",
            x,
            y
        );
    }
}

proptest! {
    /// A text note folds as tag 0, an event as tag 1: no line — not the
    /// event's own, not its encoded bytes read as text — folds like it.
    #[test]
    fn a_text_note_never_folds_like_an_event(
        kind in 0u8..21,
        v in (any::<u64>(), field(), field(), field()),
        managers in prop::collection::vec(0usize..1000, 0..12),
        node in 0usize..64,
    ) {
        let event = event_from(kind, [v.0, v.1, v.2, v.3], &managers);
        let record = oracle_digest([(n(node), Note::of(event.clone()))]);
        for text in [event.to_string(), String::from_utf8_lossy(&event.auth_bytes()).into_owned()] {
            prop_assert!(oracle_digest([(n(node), Note::Text(text.clone()))]) != record, "{}", text);
        }
    }

    /// The oracle's digest matches the reference fold of each note's
    /// encoded bytes, and `Note::len()` the rendered line's length.
    /// Kind 21 is a text note carrying the line of event kind 0.
    #[test]
    fn streamed_digest_and_len_match_the_rendered_line(
        stream in prop::collection::vec(
            (
                0u8..22,
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                prop::collection::vec(0usize..1000, 0..12),
                0usize..64,
            ),
            1..8,
        ),
    ) {
        let mut notes = Vec::new();
        let mut folded = Vec::new();
        for (kind, (a, b, c, d), managers, node) in stream {
            let event = event_from(kind % 21, [a, b, c, d], &managers);
            let line = event.to_string();
            prop_assert!(line.starts_with("audit="), "{line}");
            let (note, fold) = if kind == 21 {
                (Note::Text(line.clone()), Folded::Text(line.clone()))
            } else {
                let encoded = event.auth_bytes();
                (Note::of(event), Folded::Event(encoded))
            };
            prop_assert_eq!(note.len(), line.len());
            notes.push((n(node), note));
            folded.push((n(node), fold));
        }
        prop_assert_eq!(oracle_digest(notes), reference_digest(&folded));
    }
}
