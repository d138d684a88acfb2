//! Binary codec for the manager's stable-storage records.
//!
//! The WAL holds one record per applied ACL operation — `(OpId, AclOp)` —
//! and the snapshot holds everything needed to rebuild the manager's
//! durable state: the Lamport counter, the applied-op-id set, and the
//! per-slot last-writer table *with* the winning operations, from which
//! the ACL itself is reconstructed (bootstrap ACL + winning op per slot
//! is exactly the ACL, since every ACL change flows through an op).
//!
//! The encodings are versioned and length-prefixed so a torn or
//! truncated read decodes to `None` instead of garbage; the storage layer
//! below (`wanacl_sim::storage`: CRC frames on a simulated or a real
//! disk) handles physical corruption.

use wanacl_sim::node::NodeId;

use crate::msg::{AclOp, OpId};
use crate::types::{AppId, Right, ShardId, UserId};

/// Snapshot format version: the one that carries the released-shard
/// set (version 1 did not).
const SNAPSHOT_VERSION: u8 = 2;
/// Magic prefix distinguishing a snapshot from arbitrary bytes.
const SNAPSHOT_MAGIC: &[u8; 4] = b"WSNP";

/// Bytes of one encoded WAL record.
pub const RECORD_LEN: usize = 26;

fn right_byte(right: Right) -> u8 {
    match right {
        Right::Use => 0,
        Right::Manage => 1,
    }
}

fn right_from(byte: u8) -> Option<Right> {
    match byte {
        0 => Some(Right::Use),
        1 => Some(Right::Manage),
        _ => None,
    }
}

/// Encodes one applied operation as a fixed-size WAL record.
pub fn encode_record(id: OpId, op: &AclOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_LEN);
    out.push(if op.is_revoke() { 1 } else { 0 });
    out.extend_from_slice(&op.app().0.to_be_bytes());
    out.extend_from_slice(&op.user().0.to_be_bytes());
    out.push(right_byte(op.right()));
    out.extend_from_slice(&(id.origin.index() as u32).to_be_bytes());
    out.extend_from_slice(&id.seq.to_be_bytes());
    out
}

/// One decoded WAL record: either an applied ACL operation or a
/// shard-release marker (the manager durably renounced ownership of a
/// shard during a handoff, so it must stay silent for it after a crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord {
    /// An applied `(OpId, AclOp)` pair — record kinds 0 (add) and 1
    /// (revoke).
    Op(OpId, AclOp),
    /// A shard-release marker — record kind 2.
    ShardRelease {
        /// The shard this manager released.
        shard: ShardId,
        /// The handoff epoch the release belongs to.
        epoch: u64,
    },
}

/// Encodes a shard-release marker as a fixed-size WAL record, reusing
/// the op-record layout: the shard id rides in the app-field slot and
/// the epoch in the user-field slot; the remaining fields are zero.
pub fn encode_release(shard: ShardId, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_LEN);
    out.push(2);
    out.extend_from_slice(&shard.0.to_be_bytes());
    out.extend_from_slice(&epoch.to_be_bytes());
    out.push(0);
    out.extend_from_slice(&0u32.to_be_bytes());
    out.extend_from_slice(&0u64.to_be_bytes());
    out
}

/// Decodes any WAL record kind; `None` on wrong length or invalid
/// fields. [`decode_record`] remains the op-only entry point for
/// callers that never see release markers.
pub fn decode_wal_record(bytes: &[u8]) -> Option<WalRecord> {
    if bytes.len() != RECORD_LEN {
        return None;
    }
    if bytes[0] == 2 {
        let shard = ShardId(u32::from_be_bytes(bytes[1..5].try_into().ok()?));
        let epoch = u64::from_be_bytes(bytes[5..13].try_into().ok()?);
        return Some(WalRecord::ShardRelease { shard, epoch });
    }
    decode_record(bytes).map(|(id, op)| WalRecord::Op(id, op))
}

/// Decodes a WAL record; `None` on wrong length or invalid fields.
pub fn decode_record(bytes: &[u8]) -> Option<(OpId, AclOp)> {
    if bytes.len() != RECORD_LEN {
        return None;
    }
    let kind = bytes[0];
    let app = AppId(u32::from_be_bytes(bytes[1..5].try_into().ok()?));
    let user = UserId(u64::from_be_bytes(bytes[5..13].try_into().ok()?));
    let right = right_from(bytes[13])?;
    let origin = u32::from_be_bytes(bytes[14..18].try_into().ok()?);
    let seq = u64::from_be_bytes(bytes[18..26].try_into().ok()?);
    let id = OpId { origin: NodeId::from_index(origin as usize), seq };
    let op = match kind {
        0 => AclOp::Add { app, user, right },
        1 => AclOp::Revoke { app, user, right },
        _ => return None,
    };
    Some((id, op))
}

/// Everything a manager persists in a snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotState {
    /// The Lamport counter at snapshot time.
    pub lamport: u64,
    /// Every operation id the manager has applied (and acked).
    pub applied: Vec<OpId>,
    /// Per-slot last writer with the winning op, in slot order.
    pub lww: Vec<(AppId, UserId, Right, OpId, AclOp)>,
    /// Shards this manager has durably released (with the handoff
    /// epoch); empty until a handoff moves one away.
    pub released: Vec<(ShardId, u64)>,
}

/// Encodes a snapshot.
pub fn encode_snapshot(state: &SnapshotState) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        16 + state.applied.len() * 12
            + state.lww.len() * (14 + RECORD_LEN)
            + state.released.len() * 12,
    );
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    out.extend_from_slice(&state.lamport.to_be_bytes());
    out.extend_from_slice(&(state.applied.len() as u32).to_be_bytes());
    for id in &state.applied {
        out.extend_from_slice(&(id.origin.index() as u32).to_be_bytes());
        out.extend_from_slice(&id.seq.to_be_bytes());
    }
    out.extend_from_slice(&(state.lww.len() as u32).to_be_bytes());
    for (_, _, _, id, op) in &state.lww {
        // The record's own (app, user, right) fields are the slot key, so
        // the WAL record encoding doubles as the slot entry encoding.
        out.extend_from_slice(&encode_record(*id, op));
    }
    out.extend_from_slice(&(state.released.len() as u32).to_be_bytes());
    for (shard, epoch) in &state.released {
        out.extend_from_slice(&shard.0.to_be_bytes());
        out.extend_from_slice(&epoch.to_be_bytes());
    }
    out
}

/// Reads a big-endian `u32` element count and splits off the `N`-byte
/// elements it announces. A count the remaining bytes cannot hold is
/// rejected here, before it sizes an allocation: it comes from disk.
fn take_elements<'a, const N: usize>(rest: &mut &'a [u8]) -> Option<&'a [[u8; N]]> {
    let (count, tail) = rest.split_first_chunk::<4>()?;
    let count = u32::from_be_bytes(*count) as usize;
    if count > tail.len() / N {
        return None;
    }
    let (elements, tail) = tail.split_at(count * N);
    *rest = tail;
    Some(elements.as_chunks::<N>().0)
}

/// A 12-byte element: an applied op id or a released shard with its epoch.
fn u32_then_u64(&[a, b, c, d, ref tail @ ..]: &[u8; 12]) -> (u32, u64) {
    (u32::from_be_bytes([a, b, c, d]), u64::from_be_bytes(*tail))
}

/// Decodes a snapshot; `None` on any structural mismatch.
pub fn decode_snapshot(bytes: &[u8]) -> Option<SnapshotState> {
    let rest = bytes.strip_prefix(&SNAPSHOT_MAGIC[..])?;
    let rest = rest.strip_prefix(&[SNAPSHOT_VERSION])?;
    let (lamport, mut rest) = rest.split_first_chunk::<8>()?;
    let lamport = u64::from_be_bytes(*lamport);
    let applied = take_elements::<12>(&mut rest)?
        .iter()
        .map(|e| {
            let (origin, seq) = u32_then_u64(e);
            OpId { origin: NodeId::from_index(origin as usize), seq }
        })
        .collect();
    let lww = take_elements::<RECORD_LEN>(&mut rest)?
        .iter()
        .map(|e| decode_record(e).map(|(id, op)| (op.app(), op.user(), op.right(), id, op)))
        .collect::<Option<_>>()?;
    let released = take_elements::<12>(&mut rest)?
        .iter()
        .map(|e| {
            let (shard, epoch) = u32_then_u64(e);
            (ShardId(shard), epoch)
        })
        .collect();
    if !rest.is_empty() {
        return None;
    }
    Some(SnapshotState { lamport, applied, lww, released })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn id(origin: usize, seq: u64) -> OpId {
        OpId { origin: NodeId::from_index(origin), seq }
    }

    #[test]
    fn record_round_trips() {
        let ops = [
            AclOp::Add { app: AppId(3), user: UserId(77), right: Right::Use },
            AclOp::Revoke { app: AppId(0), user: UserId(u64::MAX), right: Right::Manage },
        ];
        for (i, op) in ops.iter().enumerate() {
            let rid = id(i, 900 + i as u64);
            let bytes = encode_record(rid, op);
            assert_eq!(bytes.len(), RECORD_LEN);
            assert_eq!(decode_record(&bytes), Some((rid, *op)));
        }
    }

    #[test]
    fn truncated_or_corrupt_record_is_rejected() {
        let op = AclOp::Add { app: AppId(1), user: UserId(2), right: Right::Use };
        let bytes = encode_record(id(0, 1), &op);
        assert_eq!(decode_record(&bytes[..RECORD_LEN - 1]), None);
        let mut bad_kind = bytes.clone();
        bad_kind[0] = 9;
        assert_eq!(decode_record(&bad_kind), None);
        let mut bad_right = bytes;
        bad_right[13] = 7;
        assert_eq!(decode_record(&bad_right), None);
    }

    #[test]
    fn snapshot_round_trips() {
        let op_a = AclOp::Add { app: AppId(0), user: UserId(1), right: Right::Use };
        let op_b = AclOp::Revoke { app: AppId(0), user: UserId(2), right: Right::Manage };
        let state = SnapshotState {
            lamport: 42,
            applied: vec![id(0, 1), id(2, 41)],
            lww: vec![
                (op_a.app(), op_a.user(), op_a.right(), id(0, 1), op_a),
                (op_b.app(), op_b.user(), op_b.right(), id(2, 41), op_b),
            ],
            released: vec![],
        };
        let bytes = encode_snapshot(&state);
        assert_eq!(bytes[4], SNAPSHOT_VERSION);
        assert_eq!(&bytes[bytes.len() - 4..], &[0; 4], "an empty released set is a zero count");
        assert_eq!(decode_snapshot(&bytes), Some(state));
    }

    #[test]
    fn release_record_round_trips() {
        let bytes = encode_release(ShardId(3), 17);
        assert_eq!(bytes.len(), RECORD_LEN);
        assert_eq!(
            decode_wal_record(&bytes),
            Some(WalRecord::ShardRelease { shard: ShardId(3), epoch: 17 })
        );
        // The op-only decoder must not misread a release as an op.
        assert_eq!(decode_record(&bytes), None);
        // And the generic decoder still reads op records.
        let op = AclOp::Add { app: AppId(1), user: UserId(2), right: Right::Use };
        let op_bytes = encode_record(id(0, 5), &op);
        assert_eq!(decode_wal_record(&op_bytes), Some(WalRecord::Op(id(0, 5), op)));
        assert_eq!(decode_wal_record(&bytes[..RECORD_LEN - 1]), None);
    }

    #[test]
    fn sharded_snapshot_round_trips() {
        let op = AclOp::Add { app: AppId(0), user: UserId(1), right: Right::Use };
        let state = SnapshotState {
            lamport: 9,
            applied: vec![id(0, 1)],
            lww: vec![(op.app(), op.user(), op.right(), id(0, 1), op)],
            released: vec![(ShardId(0), 2), (ShardId(4), 7)],
        };
        let bytes = encode_snapshot(&state);
        assert_eq!(decode_snapshot(&bytes), Some(state.clone()));
        assert_eq!(decode_snapshot(&bytes[..bytes.len() - 1]), None, "truncated");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let state = SnapshotState::default();
        assert_eq!(decode_snapshot(&encode_snapshot(&state)), Some(state));
    }

    #[test]
    fn snapshot_rejects_tampering() {
        let bytes = encode_snapshot(&SnapshotState { lamport: 7, ..Default::default() });
        assert_eq!(decode_snapshot(&bytes[..bytes.len() - 1]), None, "truncated");
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(decode_snapshot(&wrong_version), None, "unknown version");
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode_snapshot(&wrong_magic), None, "bad magic");
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(decode_snapshot(&trailing), None, "trailing bytes");
    }

    /// Each count is checked against the bytes behind it before it sizes
    /// anything: these inputs of 17, 21 and 25 bytes each announce 2³²−1
    /// elements.
    #[test]
    fn snapshot_rejects_a_count_the_remaining_bytes_cannot_hold() {
        let huge = u32::MAX.to_be_bytes();
        let mut applied = encode_snapshot(&SnapshotState::default());
        applied.truncate(13);
        applied.extend_from_slice(&huge);
        assert_eq!(applied.len(), 17);
        assert_eq!(decode_snapshot(&applied), None, "applied_len");

        let mut lww = encode_snapshot(&SnapshotState::default());
        lww.truncate(17);
        lww.extend_from_slice(&huge);
        assert_eq!(lww.len(), 21);
        assert_eq!(decode_snapshot(&lww), None, "lww_len");

        let mut released = encode_snapshot(&SnapshotState::default());
        released.truncate(21);
        released.extend_from_slice(&huge);
        assert_eq!(released.len(), 25);
        assert_eq!(decode_snapshot(&released), None, "released_len");
        // One element short of what the count says is rejected the same way.
        let one = SnapshotState { released: vec![(ShardId(1), 1)], ..Default::default() };
        let mut short = encode_snapshot(&one);
        short[24] = 2;
        assert_eq!(decode_snapshot(&short), None, "released_len 2 over 12 bytes");
    }

    /// `valid` damaged the ways a disk damages it: cut short at `at`,
    /// one bit flipped there, or four bytes there overwritten with a
    /// count no input can hold.
    pub(crate) fn mangled(valid: &[u8], how: u8, at: usize, bit: u8) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        let at = at % bytes.len().max(1);
        match how % 3 {
            0 => bytes.truncate(at),
            1 => bytes.iter_mut().skip(at).take(1).for_each(|b| *b ^= 1 << (bit % 8)),
            _ => bytes.iter_mut().skip(at).take(4).for_each(|b| *b = 0xff),
        }
        bytes
    }

    /// Reject, or mean exactly these bytes: whatever a decoder accepts
    /// must encode back to its input (a release marker's eleven padding
    /// bytes excepted, which `decode_wal_record` does not read).
    fn check_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Some((id, op)) = decode_record(bytes) {
            prop_assert_eq!(encode_record(id, &op), bytes);
        }
        match decode_wal_record(bytes) {
            Some(WalRecord::Op(id, op)) => prop_assert_eq!(encode_record(id, &op), bytes),
            Some(WalRecord::ShardRelease { shard, epoch }) => {
                prop_assert_eq!(&encode_release(shard, epoch)[..13], &bytes[..13])
            }
            None => {}
        }
        if let Some(state) = decode_snapshot(bytes) {
            prop_assert_eq!(encode_snapshot(&state), bytes);
        }
        Ok(())
    }

    fn op_strategy() -> impl Strategy<Value = (OpId, AclOp)> {
        (any::<bool>(), any::<u32>(), any::<u64>(), any::<bool>(), 0usize..1000, any::<u64>()).prop_map(
            |(revoke, app, user, manage, origin, seq)| {
                let (app, user) = (AppId(app), UserId(user));
                let right = if manage { Right::Manage } else { Right::Use };
                let op = match revoke {
                    true => AclOp::Revoke { app, user, right },
                    false => AclOp::Add { app, user, right },
                };
                (id(origin, seq), op)
            },
        )
    }

    fn snapshot_strategy() -> impl Strategy<Value = SnapshotState> {
        (
            any::<u64>(),
            prop::collection::vec((0usize..1000, any::<u64>()), 0..5),
            prop::collection::vec(op_strategy(), 0..5),
            prop::collection::vec((any::<u32>(), any::<u64>()), 0..3),
        )
            .prop_map(|(lamport, applied, lww, released)| SnapshotState {
                lamport,
                applied: applied.into_iter().map(|(origin, seq)| id(origin, seq)).collect(),
                lww: lww
                    .into_iter()
                    .map(|(id, op)| (op.app(), op.user(), op.right(), id, op))
                    .collect(),
                released: released.into_iter().map(|(s, e)| (ShardId(s), e)).collect(),
            })
    }

    // The decoder fuzz harness. Its fixed seeds are the count tests above
    // (`snapshot_rejects_a_count_the_remaining_bytes_cannot_hold`: 17, 21
    // and 25 bytes that each announce 2³²−1 elements).
    proptest! {
        #[test]
        fn decoders_reject_or_round_trip_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..80),
            version in 0u8..4,
        ) {
            check_decoders(&bytes)?;
            // Past the magic and the version byte, where garbage reaches
            // the count arithmetic.
            check_decoders(&[&SNAPSHOT_MAGIC[..], &[version], &bytes].concat())?;
        }

        #[test]
        fn decoders_reject_or_round_trip_damaged_encodings(
            state in snapshot_strategy(),
            (id, op) in op_strategy(),
            release in (any::<u32>(), any::<u64>()),
            (how, at, bit) in (any::<u8>(), any::<usize>(), any::<u8>()),
        ) {
            let snapshot = encode_snapshot(&state);
            prop_assert_eq!(decode_snapshot(&snapshot), Some(state));
            check_decoders(&mangled(&snapshot, how, at, bit))?;
            check_decoders(&mangled(&encode_record(id, &op), how, at, bit))?;
            check_decoders(&mangled(&encode_release(ShardId(release.0), release.1), how, at, bit))?;
        }
    }
}
