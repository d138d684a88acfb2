//! The name service of §3.2, as a replicated, signed directory.
//!
//! "This assumption [a fixed, known manager set] can easily be eliminated
//! by using a trusted name service that provides each host with the set
//! of managers when requested. If the set of managers changes, a scheme
//! similar to the time-based expiration of cached information can be used
//! to trigger a new query to the name service."
//!
//! The paper's single trusted directory is the one-replica case of
//! [`DirectoryReplica`]; with more, no single point is trusted: N
//! replicas hold versioned, writer-signed manager-set records, converge
//! through anti-entropy sync, and serve [`ProtoMsg::NsRecordReply`]
//! answers that hosts cross-check against a read quorum (freshest
//! verified version wins).
//! A replica given [`Storage`] keeps it through the durable log the
//! managers use: an accepted record is appended and held, and only once
//! its fsync barrier succeeds is it served, announced and pushed to
//! peers. A failed barrier is retried on a timer, so a crash never takes
//! back a version the replica served.
//! A replica is *not* trusted: hosts verify every record signature, and
//! replica state accepted from peers is re-verified before it is
//! stored, so one compromised replica can neither forge a manager set
//! nor poison its peers.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use wanacl_auth::signed::{AuthDecoder, AuthEncode, AuthSink, KeyRegistry, PrincipalId};
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::nemesis::Window;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::storage::Storage;
use wanacl_sim::time::{SimDuration, SimTime};

use crate::audit::{AuditEvent, NsHeld};
use crate::durable::DurableLog;
use crate::msg::{NsRecord, ProtoMsg, ShardEntry};
use crate::types::{AppId, ShardId};

/// Upper bound on the TTL carried by a "no such app" answer: even a
/// misconfigured negative TTL must not pin "no managers" in host caches
/// for long — an unknown app is usually one about to be registered.
pub const UNKNOWN_APP_TTL_CAP: SimDuration = SimDuration::from_secs(30);

fn capped_negative_ttl(negative_ttl: SimDuration) -> SimDuration {
    if negative_ttl > UNKNOWN_APP_TTL_CAP { UNKNOWN_APP_TTL_CAP } else { negative_ttl }
}

/// Timer tag of the periodic anti-entropy round.
const TAG_SYNC: u64 = 1;
/// Timer tag of the retry of a failed barrier.
const TAG_FLUSH: u64 = 2;
/// Timer tag of the wake when a write in flight lands.
const TAG_LANDED: u64 = 3;

/// How long after a failed barrier it is retried.
const FLUSH_RETRY: SimDuration = SimDuration::from_millis(500);

/// How many accepted records trigger a snapshot that truncates the WAL.
const SNAPSHOT_EVERY: u64 = 8;

/// Where a held record came from, which decides how it is noted once
/// durable, and whether it is pushed to peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// A writer's publish: noted `NsPublish` and pushed to peers.
    Publish,
    /// A peer's sync response: noted `NsApply`.
    Peer,
}

/// One replica of the replicated directory.
///
/// Holds versioned [`NsRecord`]s, serves signed [`ProtoMsg::NsRecordReply`]
/// answers, and converges with its peers via periodic anti-entropy
/// (advertise held versions, receive strictly-newer records) plus an
/// eager push of freshly accepted publishes. Every record accepted from
/// any source — writer publish, peer sync, or its own WAL at recovery —
/// is verified against the namespace writer's key first, and none is
/// served before its barrier succeeds.
///
/// Fault hooks for the nemesis harness:
/// * [`set_suppress_sync`](DirectoryReplica::set_suppress_sync) freezes
///   anti-entropy in both directions (the *stale replica* fault);
/// * [`set_malicious`](DirectoryReplica::set_malicious) makes the
///   replica serve forged, mis-signed records during a window (the
///   *malicious partial master* fault).
#[derive(Debug)]
pub struct DirectoryReplica {
    records: BTreeMap<AppId, NsRecord>,
    ttl: SimDuration,
    negative_ttl: SimDuration,
    peers: Vec<NodeId>,
    registry: Arc<KeyRegistry>,
    writer: PrincipalId,
    /// The WAL, holding each accepted record until its barrier, keyed by
    /// `(app, version)`.
    log: DurableLog<(AppId, u64), (NsRecord, Source)>,
    /// Whether a barrier retry is pending.
    flush_armed: bool,
    sync_interval: SimDuration,
    sync_cursor: usize,
    lookups: u64,
    suppress_sync: bool,
    malicious: Option<Window>,
}

impl DirectoryReplica {
    /// Creates a replica serving records with the given TTL. `peers` are
    /// the other replicas (anti-entropy partners); `writer` is the only
    /// principal whose records are accepted, checked against `registry`.
    pub fn new(
        ttl: SimDuration,
        peers: Vec<NodeId>,
        registry: Arc<KeyRegistry>,
        writer: PrincipalId,
    ) -> Self {
        DirectoryReplica {
            records: BTreeMap::new(),
            ttl,
            negative_ttl: ttl.mul_f64(0.25),
            peers,
            registry,
            writer,
            log: DurableLog::new(SNAPSHOT_EVERY, None, TAG_LANDED),
            flush_armed: false,
            sync_interval: ttl.mul_f64(0.25),
            sync_cursor: 0,
            lookups: 0,
            suppress_sync: false,
            malicious: None,
        }
    }

    /// Overrides the TTL attached to negative (no-record) answers.
    pub fn set_negative_ttl(&mut self, ttl: SimDuration) {
        self.negative_ttl = ttl;
    }

    /// Attaches stable storage. An accepted record is WAL-appended and
    /// held: it is served, announced and pushed to peers only once its
    /// fsync barrier succeeds, and a failed barrier is retried on a timer
    /// until one does. Every 8th record written snapshots and truncates
    /// the log, and crash recovery replays both.
    pub fn set_storage(&mut self, storage: Box<dyn Storage>) {
        self.log.attach(storage);
    }

    /// Nemesis hook: the *stale replica* fault. While set, the replica
    /// neither initiates anti-entropy, answers peers' sync requests, nor
    /// forwards accepted publishes — it keeps serving whatever versions
    /// it already holds.
    pub fn set_suppress_sync(&mut self, suppress: bool) {
        self.suppress_sync = suppress;
    }

    /// Nemesis hook: the *malicious partial master* fault. During the
    /// window the replica answers queries with a forged record — version
    /// bumped past the genuine one, manager set altered, signature not
    /// matching the forged content — which verifying hosts must reject.
    pub fn set_malicious(&mut self, window: Window) {
        self.malicious = Some(window);
    }

    /// Installs a record at build time, before the world runs (genesis
    /// state; the record is persisted and announced in `on_start`).
    pub fn preload(&mut self, record: NsRecord) {
        self.records.insert(record.app, record);
    }

    /// The version currently held for an app (0 = none).
    pub fn version_of(&self, app: AppId) -> u64 {
        self.records.get(&app).map(|r| r.version).unwrap_or(0)
    }

    /// The managers the record held for an app names.
    pub fn managers(&self, app: AppId) -> Vec<NodeId> {
        self.records.get(&app).map(NsRecord::managers).unwrap_or_default()
    }

    /// How many lookups have been served.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    fn malicious_now(&self, ctx: &Context<'_, ProtoMsg>) -> bool {
        // Replicas run perfect clocks, so local time reads as sim time.
        match &self.malicious {
            Some(w) => w.contains(SimTime::from_nanos(ctx.local_now().as_nanos())),
            None => false,
        }
    }

    /// Emits `via` (`AuditEvent::NsPublish` or `NsApply`) for `record`.
    fn note_record(
        ctx: &mut Context<'_, ProtoMsg>,
        via: fn(NsHeld) -> AuditEvent,
        record: &NsRecord,
    ) {
        ctx.trace_record(|| {
            via(NsHeld {
                app: record.app,
                version: record.version,
                managers: record.managers().into_iter().collect(),
            })
        });
    }

    /// Verifies a record and, if it is strictly newer than any held,
    /// logs it and holds it until its barrier (see
    /// [`set_storage`](DirectoryReplica::set_storage)).
    ///
    /// Takes the record as the message carried it: rejected, stale, and
    /// duplicate publishes (the common case under eager push plus
    /// anti-entropy) are dropped uncopied, and an accepted one is held
    /// as it came.
    fn accept(&mut self, ctx: &mut Context<'_, ProtoMsg>, record: NsRecord, source: Source) {
        if !record.verify(&self.registry, self.writer) {
            ctx.metric_incr(M::NS_PUBLISH_REJECTED);
            return;
        }
        // Newer than held counts the records awaiting their barrier too.
        let pending = self.log.last_held((record.app, 0)..=(record.app, u64::MAX));
        if record.version <= pending.map_or(self.version_of(record.app), |&(_, version)| version) {
            ctx.metric_incr(M::NS_PUBLISH_STALE);
            return;
        }
        let key = (record.app, record.version);
        match self.log.hold(ctx, key, (record, source), |(record, _)| Logged(record).auth_bytes()) {
            Some((record, source)) => self.serve(ctx, record, source),
            None => self.flush(ctx),
        }
    }

    /// Runs the barrier and serves every record it made durable, then
    /// checks the snapshot cadence; a failed barrier arms its retry
    /// instead, and a write in flight wakes the replica when it lands.
    fn flush(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        for (_, (record, source)) in self.log.barrier(ctx) {
            self.serve(ctx, record, source);
        }
        if self.log.is_clear() {
            // After the inserts, so the snapshot holds what triggered it.
            self.log.snapshot_if_due(|| encode_snapshot(self.records.values()));
        } else if !self.log.in_flight() && !std::mem::replace(&mut self.flush_armed, true) {
            ctx.set_timer(FLUSH_RETRY, TAG_FLUSH);
        }
    }

    /// Serves a durable record: noted, counted, pushed to peers if
    /// published here, and stored.
    fn serve(&mut self, ctx: &mut Context<'_, ProtoMsg>, record: NsRecord, source: Source) {
        let via = match source {
            Source::Publish => AuditEvent::NsPublish,
            Source::Peer => AuditEvent::NsApply,
        };
        Self::note_record(ctx, via, &record);
        ctx.metric_incr(M::NS_RECORDS_ACCEPTED);
        if source == Source::Publish && !self.suppress_sync {
            // Eager push: peers converge ahead of the next anti-entropy
            // round (they re-verify on receipt).
            ctx.multicast(self.peers.clone(), ProtoMsg::NsPublish { record: Box::new(record.clone()) });
        }
        self.records.insert(record.app, record);
    }

    /// Replays stable storage into the in-memory record map (freshest
    /// version wins; signatures re-verified — a WAL is not a trust root).
    /// Returns whether there is storage.
    fn recover_from_disk(&mut self) -> bool {
        let Some(recovered) = self.log.recover() else { return false };
        let snapshot = recovered.snapshot.as_deref().and_then(decode_snapshot).unwrap_or_default();
        for record in snapshot.into_iter().chain(recovered.records.iter().filter_map(|r| decode_record(r))) {
            if record.verify(&self.registry, self.writer) && record.version > self.version_of(record.app) {
                self.records.insert(record.app, record);
            }
        }
        true
    }

    /// Announces every held record (idempotent for the oracle) and arms
    /// the anti-entropy timer.
    fn announce_and_arm(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let records: Vec<NsRecord> = self.records.values().cloned().collect();
        for record in &records {
            Self::note_record(ctx, AuditEvent::NsPublish, record);
        }
        self.arm_sync(ctx);
    }

    fn arm_sync(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.peers.is_empty() {
            return;
        }
        // Jittered so replica rounds interleave instead of phase-locking.
        let delay = self.sync_interval.mul_f64(0.8 + 0.4 * ctx.rng().unit());
        ctx.set_timer(delay, TAG_SYNC);
    }

    fn held_versions(&self) -> Vec<(AppId, u64)> {
        self.records.values().map(|r| (r.app, r.version)).collect()
    }
}

impl Node for DirectoryReplica {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        // Genesis records arrive via preload() before storage sees them;
        // snapshot everything so they survive the first crash too.
        if self.recover_from_disk() && !self.records.is_empty() {
            self.log.write_snapshot(&encode_snapshot(self.records.values()));
        }
        self.announce_and_arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::NsQuery { app } => {
                self.lookups += 1;
                ctx.metric_incr(M::NS_LOOKUPS);
                let (record, ttl) = match self.records.get(&app) {
                    Some(record) if self.malicious_now(ctx) => {
                        // Forged answer: bumped version, each entry's
                        // first manager dropped, and a signature that
                        // does not cover the forged content. A verifying
                        // host rejects this.
                        ctx.metric_incr(M::NS_FORGED_REPLY);
                        let mut forged = record.clone();
                        forged.version += 1;
                        for entry in forged.shards.iter_mut().filter(|e| e.managers.len() > 1) {
                            entry.managers.remove(0);
                        }
                        (Some(Box::new(forged)), self.ttl)
                    }
                    Some(record) => (Some(Box::new(record.clone())), self.ttl),
                    None => {
                        ctx.metric_incr(M::NS_UNKNOWN_APP);
                        ctx.metric_incr(M::NS_NEGATIVE_REPLY);
                        (None, capped_negative_ttl(self.negative_ttl))
                    }
                };
                ctx.send(from, ProtoMsg::NsRecordReply { app, ttl, record });
            }
            ProtoMsg::NsPublish { record } => self.accept(ctx, *record, Source::Publish),
            ProtoMsg::NsSyncRequest { versions } => {
                if self.suppress_sync {
                    ctx.metric_incr(M::NS_SYNC_SUPPRESSED);
                    return;
                }
                let newer: Vec<NsRecord> = self
                    .records
                    .values()
                    .filter(|r| {
                        let theirs = versions
                            .iter()
                            .find(|(app, _)| *app == r.app)
                            .map(|(_, v)| *v)
                            .unwrap_or(0);
                        r.version > theirs
                    })
                    .cloned()
                    .collect();
                if !newer.is_empty() {
                    ctx.send(from, ProtoMsg::NsSyncResponse { records: newer });
                }
            }
            ProtoMsg::NsSyncResponse { records } => {
                if self.suppress_sync {
                    ctx.metric_incr(M::NS_SYNC_SUPPRESSED);
                    return;
                }
                for record in records {
                    self.accept(ctx, record, Source::Peer);
                }
            }
            _ => {
                ctx.metric_incr(M::NS_UNEXPECTED_MSG);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        match tag {
            TAG_FLUSH => {
                self.flush_armed = false;
                self.flush(ctx);
            }
            TAG_LANDED => self.flush(ctx),
            TAG_SYNC => {
                if !self.suppress_sync && !self.peers.is_empty() {
                    let peer = self.peers[self.sync_cursor % self.peers.len()];
                    self.sync_cursor = self.sync_cursor.wrapping_add(1);
                    ctx.metric_incr(M::NS_SYNC_ROUNDS);
                    ctx.send(peer, ProtoMsg::NsSyncRequest { versions: self.held_versions() });
                }
                self.arm_sync(ctx);
            }
            _ => {}
        }
    }

    fn on_crash(&mut self) {
        self.log.crash();
        self.records.clear();
        self.flush_armed = false;
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.recover_from_disk() && !self.records.is_empty() {
            ctx.metric_incr(M::NS_RECOVERED_FROM_DISK);
        }
        self.announce_and_arm(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---- WAL / snapshot byte format ----
//
// record   := app:u32 | version:u64 | signature:u64 | scount:u32
//             | (shard:u32 | lo:u8 | hi:u8
//                | mcount:u32 | manager:u64 * mcount) * scount
//                                                     (all big-endian)
// snapshot := (len:u32 | record) *

/// A record as the WAL holds it (the layout above).
struct Logged<'a>(&'a NsRecord);

impl AuthEncode for Logged<'_> {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        let NsRecord { app, version, shards, signature } = self.0;
        app.auth_encode(out);
        version.auth_encode(out);
        signature.0.auth_encode(out);
        (shards.len() as u32).auth_encode(out);
        for e in shards {
            e.shard.0.auth_encode(out);
            out.put(&[e.lo, e.hi]);
            (e.managers.len() as u32).auth_encode(out);
            for m in &e.managers {
                (m.index() as u64).auth_encode(out);
            }
        }
    }
}

fn decode_record(bytes: &[u8]) -> Option<NsRecord> {
    let mut d = AuthDecoder::new(bytes);
    let (app, version) = (AppId(d.u32()?), d.u64()?);
    let signature = wanacl_auth::rsa::Signature(d.u64()?);
    // An entry is at least shard + lo + hi + mcount.
    let shards = (0..d.count(4 + 1 + 1 + 4)?)
        .map(|_| {
            let (shard, lo, hi) = (ShardId(d.u32()?), d.u8()?, d.u8()?);
            // A manager is stored in eight bytes: one that does not fit a
            // `NodeId` was never written by `Logged`.
            let managers = (0..d.count(8)?)
                .map(|_| Some(NodeId::from_index(u32::try_from(d.u64()?).ok()? as usize)))
                .collect::<Option<_>>()?;
            Some(ShardEntry { shard, lo, hi, managers })
        })
        .collect::<Option<_>>()?;
    d.finish(NsRecord { app, version, shards, signature })
}

fn encode_snapshot<'a>(records: impl Iterator<Item = &'a NsRecord>) -> Vec<u8> {
    let mut out = Vec::new();
    for record in records {
        let at = out.len();
        out.put(&[0; 4]);
        Logged(record).auth_encode(&mut out);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }
    out
}

/// Decodes a snapshot; `None` if any record in it does not decode, or
/// a length prefix is cut short.
fn decode_snapshot(bytes: &[u8]) -> Option<Vec<NsRecord>> {
    let mut d = AuthDecoder::new(bytes);
    let mut records = Vec::new();
    while !d.is_empty() {
        let len = d.u32()? as usize;
        records.push(decode_record(d.slice(len)?)?);
    }
    Some(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ShardEntry;
    use crate::storelog::tests::mangled;
    use proptest::prelude::*;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use wanacl_auth::rsa::KeyPair;
    use crate::harness::{metric_incrs, sends, Harness};
    use wanacl_sim::clock::LocalTime;
    use crate::harness::Output;
    use wanacl_sim::storage::{DiskFaultModel, SimStorage};

    const TTL: SimDuration = SimDuration::from_secs(60);

    /// Bytes of a record with no shard entries.
    const RECORD_HEAD_LEN: usize = 4 + 8 + 8 + 4;

    fn encode_record(record: &NsRecord) -> Vec<u8> {
        Logged(record).auth_bytes()
    }

    fn writer_setup() -> (Arc<KeyRegistry>, KeyPair, PrincipalId) {
        let mut rng = StdRng::seed_from_u64(77);
        let writer = PrincipalId(2_000_000);
        let mut registry = KeyRegistry::new();
        let kp = registry.enroll(writer, &mut rng);
        (Arc::new(registry), kp, writer)
    }

    /// App 0's one-entry record: `managers` serve the whole keyspace.
    fn record(kp: &KeyPair, writer: PrincipalId, version: u64, managers: Vec<NodeId>) -> NsRecord {
        let shards = vec![ShardEntry::whole_keyspace(AppId(0), managers)];
        NsRecord::signed(AppId(0), version, shards, writer, &kp.secret)
    }

    fn replica(registry: &Arc<KeyRegistry>, writer: PrincipalId, peers: Vec<NodeId>) -> DirectoryReplica {
        DirectoryReplica::new(TTL, peers, Arc::clone(registry), writer)
    }

    #[test]
    fn replica_serves_signed_record_and_negative_answer() {
        let (registry, kp, writer) = writer_setup();
        let mut rep = replica(&registry, writer, vec![]);
        let mgrs = vec![NodeId::from_index(1), NodeId::from_index(2)];
        rep.preload(record(&kp, writer, 1, mgrs.clone()));
        let mut h = Harness::new(0);
        let host = NodeId::from_index(9);

        let effects = h.deliver(&mut rep, host, ProtoMsg::NsQuery { app: AppId(0) });
        match &sends(&effects)[..] {
            [(to, ProtoMsg::NsRecordReply { ttl, record: Some(r), .. })] => {
                assert_eq!(*to, host);
                assert_eq!(r.version, 1);
                assert_eq!(r.managers(), mgrs);
                assert_eq!(*ttl, TTL);
                assert!(r.verify(&registry, writer));
            }
            other => panic!("unexpected effects: {other:?}"),
        }

        let effects = h.deliver(&mut rep, host, ProtoMsg::NsQuery { app: AppId(5) });
        assert!(metric_incrs(&effects).contains(&"ns.negative_reply"));
        match &sends(&effects)[..] {
            [(_, ProtoMsg::NsRecordReply { ttl, record: None, .. })] => {
                assert_eq!(*ttl, TTL.mul_f64(0.25), "negative answers get the capped TTL");
            }
            other => panic!("unexpected effects: {other:?}"),
        }
        assert_eq!(rep.lookups(), 2);

        // A misconfigured negative TTL cannot pin "no managers" for long.
        rep.set_negative_ttl(SimDuration::from_secs(120));
        let effects = h.deliver(&mut rep, host, ProtoMsg::NsQuery { app: AppId(5) });
        assert!(matches!(
            &sends(&effects)[..],
            [(_, ProtoMsg::NsRecordReply { ttl, .. })] if *ttl == UNKNOWN_APP_TTL_CAP
        ));
    }

    #[test]
    fn publish_rejects_forgery_and_rollback_accepts_newer() {
        let (registry, kp, writer) = writer_setup();
        let mut rep = replica(&registry, writer, vec![]);
        let mut h = Harness::new(0);
        let m = |i| NodeId::from_index(i);

        // v2 accepted.
        let v2 = record(&kp, writer, 2, vec![m(1)]);
        let effects = h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(v2) });
        assert!(metric_incrs(&effects).contains(&"ns.records_accepted"));
        assert_eq!(rep.version_of(AppId(0)), 2);

        // Rollback to v1 rejected even though the signature is valid.
        let v1 = record(&kp, writer, 1, vec![m(9)]);
        let effects = h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(v1) });
        assert!(metric_incrs(&effects).contains(&"ns.publish_stale"));
        assert_eq!(rep.version_of(AppId(0)), 2);

        // Tampered v3 (signature does not cover the altered set) rejected.
        let mut v3 = record(&kp, writer, 3, vec![m(1)]);
        v3.shards[0].managers = vec![m(4)];
        let effects = h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(v3) });
        assert!(metric_incrs(&effects).contains(&"ns.publish_rejected"));
        assert_eq!(rep.managers(AppId(0)), &[m(1)]);

        // Wrong-key v3 rejected too.
        let mut rng = StdRng::seed_from_u64(78);
        let mallory = KeyPair::generate(&mut rng);
        let forged = record(&mallory, writer, 3, vec![m(4)]);
        let effects = h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(forged) });
        assert!(metric_incrs(&effects).contains(&"ns.publish_rejected"));
        assert_eq!(rep.version_of(AppId(0)), 2);
    }

    #[test]
    fn anti_entropy_converges_two_replicas() {
        let (registry, kp, writer) = writer_setup();
        let a_id = NodeId::from_index(0);
        let b_id = NodeId::from_index(1);
        let mut a = replica(&registry, writer, vec![b_id]);
        let mut b = replica(&registry, writer, vec![a_id]);
        let mut h = Harness::new(0);

        // A holds v2; B holds nothing.
        a.preload(record(&kp, writer, 2, vec![NodeId::from_index(3)]));

        // B's sync round probes A ...
        let effects = h.timer(&mut b, TAG_SYNC);
        let (to, probe) = sends(&effects)[0];
        assert_eq!(to, a_id);
        // ... A answers with its newer record ...
        let effects = h.deliver(&mut a, b_id, probe.clone());
        let (to, delta) = sends(&effects)[0];
        assert_eq!(to, b_id);
        // ... and B verifies + installs it.
        let effects = h.deliver(&mut b, a_id, delta.clone());
        assert!(metric_incrs(&effects).contains(&"ns.records_accepted"));
        assert_eq!(b.version_of(AppId(0)), 2);

        // Converged: another probe draws no response.
        let effects = h.timer(&mut b, TAG_SYNC);
        let (_, probe) = sends(&effects)[0];
        let effects = h.deliver(&mut a, b_id, probe.clone());
        assert!(sends(&effects).is_empty(), "no delta when in sync");
    }

    #[test]
    fn stale_replica_suppresses_sync_both_ways() {
        let (registry, kp, writer) = writer_setup();
        let peer = NodeId::from_index(1);
        let mut rep = replica(&registry, writer, vec![peer]);
        rep.preload(record(&kp, writer, 2, vec![NodeId::from_index(3)]));
        rep.set_suppress_sync(true);
        let mut h = Harness::new(0);

        // No outgoing probe (the timer still re-arms).
        let effects = h.timer(&mut rep, TAG_SYNC);
        assert!(sends(&effects).is_empty());
        assert!(effects.iter().any(|e| matches!(e, Output::Arm)));

        // Incoming probes and deltas are dropped.
        let effects = h.deliver(&mut rep, peer, ProtoMsg::NsSyncRequest { versions: vec![] });
        assert!(sends(&effects).is_empty());
        assert!(metric_incrs(&effects).contains(&"ns.sync_suppressed"));
        let newer = record(&kp, writer, 5, vec![NodeId::from_index(8)]);
        let _ = h.deliver(&mut rep, peer, ProtoMsg::NsSyncResponse { records: vec![newer] });
        assert_eq!(rep.version_of(AppId(0)), 2, "stale replica must stay stale");
    }

    #[test]
    fn malicious_window_serves_forged_record_that_fails_verification() {
        let (registry, kp, writer) = writer_setup();
        let mut rep = replica(&registry, writer, vec![]);
        let mgrs = vec![NodeId::from_index(1), NodeId::from_index(2)];
        rep.preload(record(&kp, writer, 3, mgrs.clone()));
        rep.set_malicious(Window::new(SimTime::ZERO, SimTime::from_secs(10)));
        let mut h = Harness::new(0);

        let effects = h.deliver(&mut rep, NodeId::from_index(9), ProtoMsg::NsQuery { app: AppId(0) });
        assert!(metric_incrs(&effects).contains(&"ns.forged_reply"));
        match &sends(&effects)[..] {
            [(_, ProtoMsg::NsRecordReply { record: Some(r), .. })] => {
                assert_eq!(r.version, 4, "forgery rolls the version forward");
                assert_eq!(r.managers(), &mgrs[1..], "forgery alters the manager set");
                assert!(!r.verify(&registry, writer), "forged record must not verify");
            }
            other => panic!("unexpected effects: {other:?}"),
        }

        // Outside the window the genuine record is served again.
        h.now = LocalTime::from_nanos(SimDuration::from_secs(20).as_nanos());
        let effects = h.deliver(&mut rep, NodeId::from_index(9), ProtoMsg::NsQuery { app: AppId(0) });
        match &sends(&effects)[..] {
            [(_, ProtoMsg::NsRecordReply { record: Some(r), .. })] => assert_eq!(r.version, 3),
            other => panic!("unexpected effects: {other:?}"),
        }
    }

    /// The record whose append triggers a snapshot is in that snapshot:
    /// the snapshot truncates the WAL that held it.
    #[test]
    fn the_record_that_triggers_a_snapshot_survives_a_crash() {
        let (registry, kp, writer) = writer_setup();
        let mut rep = replica(&registry, writer, vec![]);
        rep.set_storage(Box::new(SimStorage::new(42)));
        rep.preload(record(&kp, writer, 1, vec![NodeId::from_index(1)]));
        let mut h = Harness::new(0);
        h.start(&mut rep);
        let last = 1 + SNAPSHOT_EVERY;
        for version in 2..=last {
            let r = record(&kp, writer, version, vec![NodeId::from_index(version as usize)]);
            let _ = h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(r) });
        }
        assert_eq!(rep.version_of(AppId(0)), last);
        rep.on_crash();
        h.recover(&mut rep);
        assert_eq!(rep.version_of(AppId(0)), last);
    }

    /// The version a query is answered with (0 = none).
    fn served(h: &mut Harness, rep: &mut DirectoryReplica) -> u64 {
        match &sends(&h.deliver(rep, NodeId::from_index(9), ProtoMsg::NsQuery { app: AppId(0) }))[..] {
            [(_, ProtoMsg::NsRecordReply { record, .. })] => record.as_ref().map_or(0, |r| r.version),
            other => panic!("unexpected effects: {other:?}"),
        }
    }

    /// A peerless replica on a disk whose syncs fail with `sync_fail_prob`,
    /// started with v1.
    fn on_faulty_disk(sync_fail_prob: f64) -> (DirectoryReplica, Harness, KeyPair, PrincipalId) {
        let (registry, kp, writer) = writer_setup();
        let mut rep = replica(&registry, writer, vec![]);
        let faults = DiskFaultModel { sync_fail_prob, torn_tail_prob: 0.0 };
        rep.set_storage(Box::new(SimStorage::with_faults(42, faults)));
        rep.preload(record(&kp, writer, 1, vec![NodeId::from_index(1)]));
        let mut h = Harness::new(0);
        h.start(&mut rep);
        (rep, h, kp, writer)
    }

    /// A record whose barrier failed is not served, so a crash cannot take
    /// it back: served v2, then v1 after recovery, before the barrier held
    /// the promise.
    #[test]
    fn a_record_whose_barrier_failed_is_never_served() {
        let (mut rep, mut h, kp, writer) = on_faulty_disk(1.0);
        let v2 = record(&kp, writer, 2, vec![NodeId::from_index(4)]);
        let effects = h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(v2) });
        assert!(!metric_incrs(&effects).contains(&"ns.records_accepted"));
        assert!(effects.iter().any(|e| matches!(e, Output::Arm)), "the failed barrier arms its retry");
        assert_eq!(served(&mut h, &mut rep), 1);
        rep.on_crash();
        h.recover(&mut rep);
        assert_eq!(served(&mut h, &mut rep), 1);
    }

    proptest! {
        /// Publishes, queries, crashes and barrier retries on a disk whose
        /// syncs never, sometimes or always fail: no version served is
        /// ever lower than one served before, and what a failed barrier
        /// holds is served once a retry's barrier succeeds.
        #[test]
        fn a_replica_never_serves_a_version_it_served_an_older_one_after(
            fail in 0usize..3,
            steps in prop::collection::vec(0u8..5, 12..40),
        ) {
            let sync_fail_prob = [0.0, 0.5, 1.0][fail];
            let (mut rep, mut h, kp, writer) = on_faulty_disk(sync_fail_prob);
            let (mut version, mut highest, mut armed) = (1, 1, false);
            for step in steps {
                let effects = match step {
                    0 | 1 => {
                        version += 1;
                        let r = record(&kp, writer, version, vec![NodeId::from_index(version as usize)]);
                        h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(r) })
                    }
                    2 => {
                        let now = served(&mut h, &mut rep);
                        prop_assert!(now >= highest, "served v{now} after v{highest}");
                        highest = now;
                        Vec::new()
                    }
                    3 => {
                        rep.on_crash();
                        armed = false;
                        h.recover(&mut rep)
                    }
                    _ if std::mem::take(&mut armed) => h.timer(&mut rep, TAG_FLUSH),
                    _ => Vec::new(),
                };
                armed |= effects.iter().any(|e| matches!(e, Output::Arm));
            }
            let held = rep.log.last_held(..).map(|&(_, v)| v);
            prop_assert!(armed || held.is_none(), "a held record has a retry pending");
            for _ in 0..64 {
                if !std::mem::take(&mut armed) {
                    break;
                }
                armed = h.timer(&mut rep, TAG_FLUSH).iter().any(|e| matches!(e, Output::Arm));
            }
            if let (Some(held), true) = (held, sync_fail_prob < 1.0) {
                prop_assert_eq!(served(&mut h, &mut rep), held);
            }
            prop_assert!(served(&mut h, &mut rep) >= highest);
        }
    }

    #[test]
    fn crash_recovery_replays_records_from_stable_storage() {
        let (registry, kp, writer) = writer_setup();
        let mut rep = replica(&registry, writer, vec![]);
        rep.set_storage(Box::new(SimStorage::new(42)));
        rep.preload(record(&kp, writer, 1, vec![NodeId::from_index(1)]));
        let mut h = Harness::new(0);

        // Start persists genesis; a publish lands in the WAL.
        let effects = h.start(&mut rep);
        assert!(effects.iter().any(|e| matches!(
            e,
            Output::Note { text }
                if matches!(text.record(), Some(AuditEvent::NsPublish(_)))
        )));
        let v2 = record(&kp, writer, 2, vec![NodeId::from_index(4)]);
        let _ = h.deliver(&mut rep, NodeId::ENV, ProtoMsg::NsPublish { record: Box::new(v2) });
        assert_eq!(rep.version_of(AppId(0)), 2);

        // Crash wipes volatile state; recovery replays snapshot + WAL.
        rep.on_crash();
        assert_eq!(rep.version_of(AppId(0)), 0);
        let effects = h.recover(&mut rep);
        assert_eq!(rep.version_of(AppId(0)), 2);
        assert_eq!(rep.managers(AppId(0)), &[NodeId::from_index(4)]);
        assert!(metric_incrs(&effects).contains(&"ns.recovered_from_disk"));
    }

    #[test]
    fn record_codec_round_trips_and_rejects_torn_bytes() {
        let (_, kp, writer) = writer_setup();
        let r = record(&kp, writer, 7, vec![NodeId::from_index(3), NodeId::from_index(0)]);
        let bytes = encode_record(&r);
        assert_eq!(decode_record(&bytes), Some(r.clone()));
        assert_eq!(decode_record(&bytes[..bytes.len() - 1]), None, "torn tail");
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_record(&padded), None, "trailing garbage");

        // A count sizes an allocation, so one the bytes behind it cannot
        // hold is refused first (allocating 4 billion elements aborts,
        // which no `catch_unwind` contains): in 34 bytes, app | version
        // | signature | an entry count of 2³²−1 and one entry's worth of
        // bytes; then one entry (shard 0, buckets 0..=255) whose manager
        // count is 2³²−1 in front of one manager.
        let huge = u32::MAX.to_be_bytes();
        let head = [&0u32.to_be_bytes()[..], &1u64.to_be_bytes(), &[0; 8]].concat();
        let entries = [&head[..], &huge, &[0; 10]].concat();
        assert_eq!(decode_record(&entries), None, "oversized shard-entry count");
        let entry = [&head[..], &1u32.to_be_bytes(), &[0; 4], &[0, 255], &huge, &[0; 8]].concat();
        assert_eq!(decode_record(&entry), None, "oversized shard manager count");
        // The bounds admit the smallest entry the encoder writes, and a
        // record with none.
        let smallest = record(&kp, writer, 8, vec![]);
        assert_eq!(decode_record(&encode_record(&smallest)), Some(smallest.clone()));
        let empty = NsRecord { shards: Vec::new(), ..smallest.clone() };
        assert_eq!(encode_record(&empty).len(), RECORD_HEAD_LEN);
        assert_eq!(decode_record(&encode_record(&empty)), Some(empty.clone()));

        let snapshot = encode_snapshot([r.clone(), smallest.clone(), empty.clone()].iter());
        assert_eq!(decode_snapshot(&snapshot), Some(vec![r, smallest, empty]));
    }

    /// A snapshot decodes whole or not at all, like the manager's: one
    /// damaged record in the middle, or a length prefix cut short, and
    /// recovery reads none of it.
    #[test]
    fn a_snapshot_with_one_damaged_record_is_rejected() {
        let (_, kp, writer) = writer_setup();
        let records: Vec<NsRecord> =
            (1..=3).map(|v| record(&kp, writer, v, vec![NodeId::from_index(v as usize)])).collect();
        let snapshot = encode_snapshot(records.iter());
        assert_eq!(decode_snapshot(&snapshot), Some(records.clone()));
        let first = 4 + encode_record(&records[0]).len();
        // The middle record's manager count, raised past its bytes.
        let mut damaged = snapshot.clone();
        damaged[first + 4 + RECORD_HEAD_LEN + 6 + 3] += 1;
        assert_eq!(decode_snapshot(&damaged), None, "damaged middle record");
        // The middle record's length, one short of its body.
        let mut damaged = snapshot.clone();
        damaged[first + 3] -= 1;
        assert_eq!(decode_snapshot(&damaged), None, "length one short");
        assert_eq!(decode_snapshot(&snapshot[..snapshot.len() - 1]), None, "torn tail");
        assert_eq!(decode_snapshot(&[&snapshot[..], &[0, 0]].concat()), None, "a length prefix cut short");
        assert_eq!(decode_snapshot(&[]), Some(Vec::new()), "no records");
    }

    fn node_ids() -> impl Strategy<Value = Vec<NodeId>> {
        prop::collection::vec(0usize..1000, 0..5)
            .prop_map(|ids| ids.into_iter().map(NodeId::from_index).collect())
    }

    fn record_strategy() -> impl Strategy<Value = NsRecord> {
        let entry = (any::<u32>(), any::<u8>(), any::<u8>(), node_ids()).prop_map(
            |(shard, lo, hi, managers)| ShardEntry {
                shard: crate::types::ShardId(shard),
                lo,
                hi,
                managers,
            },
        );
        (any::<u32>(), any::<u64>(), any::<u64>(), prop::collection::vec(entry, 0..4)).prop_map(
            |(app, version, signature, shards)| NsRecord {
                app: AppId(app),
                version,
                shards,
                signature: wanacl_auth::rsa::Signature(signature),
            },
        )
    }

    // The decoder fuzz harness: reject, or mean exactly these bytes. Its
    // fixed seeds are the two oversized counts pinned in
    // `record_codec_round_trips_and_rejects_torn_bytes`.
    proptest! {
        #[test]
        fn record_decoder_rejects_or_round_trips_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            if let Some(record) = decode_record(&bytes) {
                prop_assert_eq!(encode_record(&record), bytes.clone());
            }
            if let Some(records) = decode_snapshot(&bytes) {
                prop_assert_eq!(encode_snapshot(records.iter()), bytes);
            }
        }

        #[test]
        fn record_decoder_rejects_or_round_trips_damaged_encodings(
            records in prop::collection::vec(record_strategy(), 1..4),
            (how, at, bit) in (any::<u8>(), any::<usize>(), any::<u8>()),
        ) {
            let bytes = encode_record(&records[0]);
            prop_assert_eq!(decode_record(&bytes), Some(records[0].clone()));
            let damaged = mangled(&bytes, how, at, bit);
            if let Some(record) = decode_record(&damaged) {
                prop_assert_eq!(encode_record(&record), damaged);
            }
            let snapshot = encode_snapshot(records.iter());
            prop_assert_eq!(decode_snapshot(&snapshot), Some(records.clone()));
            let damaged = mangled(&snapshot, how, at, bit);
            if let Some(records) = decode_snapshot(&damaged) {
                prop_assert_eq!(encode_snapshot(records.iter()), damaged);
            }
        }
    }
}
