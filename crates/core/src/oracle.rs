//! The always-on safety-invariant oracle.
//!
//! An [`InvariantOracle`] is a passive [`Observer`] attached to a
//! [`World`](wanacl_sim::world::World): it watches the
//! [`AuditEvent`]s that hosts and managers emit *as the simulation
//! runs*, and re-checks the paper's safety claims independently of the
//! protocol code under test. It works with the trace buffer disabled,
//! and every violation carries the **event index** of the offending
//! event — a stable coordinate in the deterministic schedule, so
//! `(seed, plan, index)` pinpoints the bug in any replay.
//!
//! Invariants checked:
//!
//! * **Bounded revocation (I1)** — once a revoke of `(app, user)` is
//!   stable (update quorum reached), no host may allow that user more
//!   than `Te` later. Fail-open allows are exempt: Figure 4's fail-open
//!   mode deliberately trades this guarantee for availability.
//! * **Quorum intersection (I2)** — every quorum-backed allow must cite
//!   at least `C` *distinct* managers.
//! * **Cache expiry (I3)** — a cache-hit allow must happen strictly
//!   before the entry's limit, and a stored entry's lifetime must not
//!   exceed the local expiry budget `te = b·Te`.
//! * **Freeze safety (I4)** — `Ti + te ≤ Te` must hold statically, and a
//!   frozen manager (§3.3) must not issue grants.
//! * **Durability (I5)** — every op a storage-backed manager marked
//!   durable (WAL-synced *before* the ack that lets it count toward an
//!   update quorum) must still be present — at the same or a newer
//!   last-writer stamp — after any disk recovery by that manager.
//!   Sync-mode recoveries are exempt: without storage nothing was ever
//!   promised durable.
//! * **Tenant isolation (I8)** — every
//!   quorum-backed allow must cite only managers that own the subject's
//!   bucket in some registered version of the tenant's shard map. A
//!   manager from another tenant (or another shard) confirming a check
//!   is cross-tenant contamination.
//! * **Rebalance safety (I9)** — every shard install must replay exactly
//!   the op set its source handed off: matching digest and count per
//!   `(shard, epoch, source)`, and no install without a corresponding
//!   handoff. A lost or doubled grant/revoke during the move diverges
//!   the FNV digest.
//!
//! The tenth verdict, **settle (I10)**, reads no audit event: a
//! campaign judges it on the finished nodes
//! ([`campaign_report`](crate::campaign::campaign_report)), at the
//! oracle's [`last_event`](InvariantOracle::last_event).

use std::collections::{BTreeMap, BTreeSet};

use wanacl_auth::signed::{AuthEncode, AuthSink};
use wanacl_sim::node::{NodeId, Note};
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::trace::TraceEvent;
use wanacl_sim::world::Observer;

use crate::audit::{AllowPath, AuditEvent, NodeList, NsHeld, Recovery, ShardOps};
use crate::msg::OpId;
use crate::policy::Policy;
use crate::types::{user_bucket, AppId, Fnv1a, Right, ShardId, UserId};

/// Which safety invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// I1: an allow happened more than `Te` after a stable revoke.
    BoundedRevocation,
    /// I2: an allow cited fewer than `C` distinct confirming managers.
    QuorumIntersection,
    /// I3: a cache entry outlived its limit or its `te` budget.
    CacheExpiry,
    /// I4: freeze-strategy safety (static bound or grant-while-frozen).
    FreezeSafety,
    /// I5: a disk recovery lost or rolled back an op the manager had
    /// already marked durable (and therefore acked).
    Durability,
    /// I6: a host acted on a directory record past its TTL after a
    /// fresher version was quorum-acknowledged.
    DirectoryFreshness,
    /// I7: a host installed a manager set no legitimate writer published.
    DirectoryIntegrity,
    /// I8: a quorum allow cited a manager outside the subject's shard in
    /// every registered version of the tenant's shard map.
    TenantIsolation,
    /// I9: a shard handoff lost or invented operations — the install
    /// digest diverged from the source's, or had no source at all.
    RebalanceSafety,
    /// I10: the run did not settle by its deadline — an admin op still
    /// awaited `Stable`, a manager still held an update to retransmit,
    /// or two current owners of a shard disagreed on a scripted right.
    /// Judged once, on the finished nodes, by
    /// [`campaign_report`](crate::campaign::campaign_report).
    Settle,
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InvariantKind::BoundedRevocation => "bounded-revocation",
            InvariantKind::QuorumIntersection => "quorum-intersection",
            InvariantKind::CacheExpiry => "cache-expiry",
            InvariantKind::FreezeSafety => "freeze-safety",
            InvariantKind::Durability => "durability",
            InvariantKind::DirectoryFreshness => "directory-freshness",
            InvariantKind::DirectoryIntegrity => "directory-integrity",
            InvariantKind::TenantIsolation => "tenant-isolation",
            InvariantKind::RebalanceSafety => "rebalance-safety",
            InvariantKind::Settle => "settle",
        };
        f.write_str(s)
    }
}

/// One invariant violation caught by the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// Real simulation time of the offending event.
    pub at: SimTime,
    /// Index of the offending event in the deterministic schedule —
    /// combined with the seed and nemesis plan this makes the violation
    /// replayable.
    pub event_index: u64,
    /// The node whose note triggered the check.
    pub node: NodeId,
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Human-readable account of the evidence.
    pub detail: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] event #{} {}: {} violated: {}",
            self.at, self.event_index, self.node, self.kind, self.detail
        )
    }
}

/// Counters describing how much evidence the oracle actually saw — a
/// campaign with zero violations but also zero checked allows proved
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Allow events checked.
    pub allows: u64,
    /// Quorum-backed allows whose manager sets were checked.
    pub quorum_allows: u64,
    /// Cache-hit allows whose limits were checked.
    pub cache_allows: u64,
    /// Fail-open allows (exempt from I1).
    pub fail_open_allows: u64,
    /// Revoke-stable events observed.
    pub revokes: u64,
    /// Cache-store events checked against the `te` budget.
    pub cache_stores: u64,
    /// Manager grants checked against freeze state.
    pub grants: u64,
    /// Ops observed being marked durable by storage-backed managers.
    pub durable_ops: u64,
    /// Disk-mode recoveries checked against the durable notes.
    pub disk_recoveries: u64,
    /// Directory records observed being published or anti-entropy
    /// applied on replicas.
    pub ns_publishes: u64,
    /// Host directory installs checked against I6/I7.
    pub ns_installs: u64,
    /// Directory versions that reached the write quorum (arming I6).
    pub ns_acked_versions: u64,
    /// Quorum allows checked against a registered shard map (I8).
    pub shard_allows: u64,
    /// Source-side shard handoff notes observed (I9).
    pub shard_handoffs: u64,
    /// Target-side shard install notes checked (I9).
    pub shard_installs: u64,
    /// Notes that carried no [`AuditEvent`] — free text, folded into the
    /// digest and read by no invariant. A deployment of this crate's
    /// nodes emits none.
    pub untyped_notes: u64,
}

/// One manager's durably-noted slots: `(app, user, right)` → newest
/// op fsynced before an ack.
type DurableSlots = BTreeMap<(AppId, UserId, Right), OpId>;

/// In-flight allowance added to the I6 freshness deadline: the
/// longest a directory reply generated *before* a newer version's
/// write-quorum ack can still be travelling toward a host. Sized to
/// dominate the nemesis delay-spike ceiling (~2.5 s extra one-way
/// latency) so a reply that raced the ack never counts as a violation,
/// while a record retained unboundedly past its TTL still trips I6.
pub const NS_INFLIGHT_SLACK: SimDuration = SimDuration::from_secs(3);

/// Replicated-directory shape the oracle checks I6/I7 against.
#[derive(Debug, Clone, Copy)]
struct DirectoryConfig {
    /// Total replica count R.
    replicas: usize,
    /// The hosts' read quorum Q.
    read_quorum: usize,
    /// Worst-case real-time span of a record's TTL on a host clock
    /// honouring the policy's rate bound (TTL / ρ), plus slack.
    ttl_real: SimDuration,
}

impl DirectoryConfig {
    /// The write quorum W = R − Q + 1: once a version sits on W
    /// replicas, every read quorum intersects it, so no correct host
    /// can quorum-read a staler version from then on.
    fn write_quorum(&self) -> usize {
        self.replicas - self.read_quorum + 1
    }
}

/// One registered shard-map row: `(shard, lo, hi, owner node indexes)`.
type ShardMapRow = (u32, u8, u8, BTreeSet<usize>);

/// The online safety checker. Attach with
/// [`World::add_observer`](wanacl_sim::world::World::add_observer);
/// retrieve violations afterwards via
/// [`World::observer_as`](wanacl_sim::world::World::observer_as).
#[derive(Debug)]
pub struct InvariantOracle {
    te_real: SimDuration,
    te_budget: SimDuration,
    check_quorum: usize,
    rate_bound: f64,
    slack: SimDuration,
    /// Newest applied `Add` op per (app, user), in the managers'
    /// `(seq, origin)` last-writer-wins order.
    last_add: BTreeMap<(AppId, UserId), OpId>,
    /// Stable revoke ops per (app, user), each with its earliest
    /// stabilization time. A user counts as revoked only while some
    /// stable revoke is LWW-newer than every applied add — admin
    /// resends can legitimately re-grant *after* a revoke stabilizes,
    /// and stable-event arrival order does not reflect apply order.
    stable_revokes: BTreeMap<(AppId, UserId), BTreeMap<OpId, SimTime>>,
    /// Managers currently frozen per app.
    frozen: BTreeSet<(NodeId, AppId)>,
    /// Per manager: slot → newest op it marked durable. The lower bound
    /// any later disk recovery must reach.
    durable: BTreeMap<NodeId, DurableSlots>,
    /// Replicated-directory shape; `None` disables the I6/I7 checks.
    directory: Option<DirectoryConfig>,
    /// Distinct replicas seen holding each (app, version) — from
    /// `NsPublish` / `NsApply` events.
    ns_replica_records: BTreeMap<(AppId, u64), BTreeSet<NodeId>>,
    /// Highest write-quorum-acknowledged version per app, with the
    /// earliest time it reached the write quorum.
    ns_acked: BTreeMap<AppId, (u64, SimTime)>,
    /// Every manager set a legitimate replica held per (app, version)
    /// — the I7 whitelist a host install must match.
    ns_published: BTreeMap<(AppId, u64), Vec<NodeList>>,
    /// Registered shard maps (I8): per app, per published version, the
    /// entries as `(shard, lo, hi, owner node indexes)`.
    shard_maps: BTreeMap<AppId, BTreeMap<u64, Vec<ShardMapRow>>>,
    /// Source-side handoff claims (I9): `(shard, epoch, source)` →
    /// `(digest, op count)`.
    handoff_digests: BTreeMap<(ShardId, u64, NodeId), (u64, usize)>,
    violations: Vec<OracleViolation>,
    stats: OracleStats,
    digest: Fnv1a,
    /// When the newest event seen happened, and its index.
    last_event: (SimTime, u64),
}

/// Folds one note into `digest`: the node's index as a big-endian
/// `u32`, a tag byte, the note's bytes, `0xff`. An [`AuditEvent`]
/// (`event`, the note's record) is tag 1 and its [`AuthEncode`] bytes;
/// any other note is tag 0 and its line as length-prefixed UTF-8, so no
/// text folds like an event. The digest is a cheap, order-sensitive
/// fingerprint of the full audit stream — two runs of the same seed
/// must produce the same digest, which is how the parallel campaign
/// executor proves bit-for-bit determinism.
fn fold_note(digest: &mut Fnv1a, node: NodeId, note: &Note, event: Option<&AuditEvent>) {
    (node.index() as u32).auth_encode(digest);
    match event {
        Some(event) => {
            digest.put(&[1]);
            event.auth_encode(digest);
        }
        None => {
            digest.put(&[0]);
            note.to_string().auth_encode(digest);
        }
    }
    digest.put(&[0xff]);
}

impl InvariantOracle {
    /// Builds an oracle for a deployment where every app runs `policy`.
    ///
    /// `slack` absorbs measurement fuzz at the `Te` boundary; pass
    /// [`SimDuration::ZERO`] for the exact paper bound (sound whenever
    /// every clock in the run respects the policy's rate bound).
    ///
    /// The static freeze-safety bound `Ti + te ≤ Te` is checked here; a
    /// violation is recorded at time zero.
    pub fn new(policy: &Policy, slack: SimDuration) -> Self {
        let mut o = InvariantOracle {
            te_real: policy.revocation_bound(),
            te_budget: policy.expiry_budget(),
            check_quorum: policy.check_quorum(),
            rate_bound: policy.clock_rate_bound(),
            slack,
            last_add: BTreeMap::new(),
            stable_revokes: BTreeMap::new(),
            frozen: BTreeSet::new(),
            durable: BTreeMap::new(),
            directory: None,
            ns_replica_records: BTreeMap::new(),
            ns_acked: BTreeMap::new(),
            ns_published: BTreeMap::new(),
            shard_maps: BTreeMap::new(),
            handoff_digests: BTreeMap::new(),
            violations: Vec::new(),
            stats: OracleStats::default(),
            digest: Fnv1a::default(),
            last_event: (SimTime::ZERO, 0),
        };
        if let Some(freeze) = policy.freeze() {
            if freeze.ti + policy.expiry_budget() > policy.revocation_bound() {
                o.violations.push(OracleViolation {
                    at: SimTime::ZERO,
                    event_index: 0,
                    node: NodeId::ENV,
                    kind: InvariantKind::FreezeSafety,
                    detail: format!(
                        "static bound broken: Ti {} + te {} > Te {}",
                        freeze.ti,
                        policy.expiry_budget(),
                        policy.revocation_bound()
                    ),
                });
            }
        }
        o
    }

    /// Enables the I6/I7 replicated-directory checks for a deployment
    /// of `replicas` directory replicas read with `read_quorum`, whose
    /// records carry `ttl`. The freshness bound is scaled by the
    /// policy's clock-rate bound — a slow-but-legal host clock may hold
    /// a record for up to `ttl / ρ` real time — and padded by
    /// [`NS_INFLIGHT_SLACK`]: a quorum reply carrying the old version
    /// can already be on the wire when the new version reaches its
    /// write quorum, so a host may legitimately install the old record
    /// up to one maximum message delay *after* the ack and then keep it
    /// for a full TTL.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= read_quorum <= replicas`.
    pub fn set_directory(&mut self, replicas: usize, read_quorum: usize, ttl: SimDuration) {
        assert!(
            read_quorum >= 1 && read_quorum <= replicas,
            "read quorum must satisfy 1 <= q <= replicas"
        );
        self.directory = Some(DirectoryConfig {
            replicas,
            read_quorum,
            ttl_real: ttl.div_f64(self.rate_bound) + NS_INFLIGHT_SLACK,
        });
    }

    /// Registers a published shard map version for `app`, arming the I8
    /// tenant-isolation check: from now on every quorum allow for a user
    /// of `app` must cite only managers owning the user's bucket in
    /// *some* registered version (tolerating map-install races without
    /// tolerating cross-tenant contamination). Call once for the genesis
    /// map and once per rebalance.
    pub fn expect_shard_map(&mut self, app: AppId, version: u64, entries: &[crate::msg::ShardEntry]) {
        let rows = entries
            .iter()
            .map(|e| {
                (e.shard.0, e.lo, e.hi, e.managers.iter().map(|m| m.index()).collect())
            })
            .collect();
        self.shard_maps.entry(app).or_default().insert(version, rows);
    }

    /// The violations found so far (empty means every checked event was
    /// safe).
    pub fn violations(&self) -> &[OracleViolation] {
        &self.violations
    }

    /// Whether no invariant has been broken so far.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Evidence counters.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// When the newest event seen so far happened, and its index: the
    /// replay coordinate of a verdict on the run as a whole.
    pub fn last_event(&self) -> (SimTime, u64) {
        self.last_event
    }

    /// Order-sensitive FNV-1a fingerprint of every audit note seen so
    /// far, over each note's encoded bytes (see [`AuditEvent`]'s
    /// [`AuthEncode`]). Equal digests mean the two runs emitted the same
    /// notes — every event equal, so every printed line equal — in the
    /// same order.
    pub fn audit_digest(&self) -> u64 {
        self.digest.0
    }

    fn fail(
        &mut self,
        at: SimTime,
        index: u64,
        node: NodeId,
        kind: InvariantKind,
        detail: String,
    ) {
        self.violations.push(OracleViolation { at, event_index: index, node, kind, detail });
    }

    /// When the user became definitively revoked: the earliest stable
    /// revoke not overridden by a LWW-newer applied add. `None` while
    /// the user effectively holds the right.
    fn revoked_since(&self, app: AppId, user: UserId) -> Option<SimTime> {
        let add = self.last_add.get(&(app, user)).copied();
        self.stable_revokes
            .get(&(app, user))?
            .iter()
            .filter(|(op, _)| add.is_none_or(|a| **op > a))
            .map(|(_, &t)| t)
            .min()
    }

    /// Records an applied add op: it overrides every LWW-older revoke.
    fn note_add(&mut self, app: AppId, user: UserId, op: OpId) {
        let slot = self.last_add.entry((app, user)).or_insert(op);
        if op > *slot {
            *slot = op;
        }
        let newest = *slot;
        if let Some(revokes) = self.stable_revokes.get_mut(&(app, user)) {
            revokes.retain(|rop, _| *rop > newest);
        }
    }

    fn on_allow(
        &mut self,
        at: SimTime,
        index: u64,
        node: NodeId,
        app: AppId,
        user: UserId,
        path: &AllowPath,
    ) {
        self.stats.allows += 1;
        if let AllowPath::FailOpen = path {
            self.stats.fail_open_allows += 1;
        } else if let Some(revoked_at) = self.revoked_since(app, user) {
            // I1: the paper's headline guarantee — at most Te of
            // residual access after a revoke is stable.
            let deadline = revoked_at + self.te_real + self.slack;
            if at > deadline {
                let over =
                    SimDuration::from_nanos(at.as_nanos().saturating_sub(revoked_at.as_nanos()));
                let mode = if let AllowPath::Cache { .. } = path { "cache" } else { "quorum" };
                self.fail(
                    at,
                    index,
                    node,
                    InvariantKind::BoundedRevocation,
                    format!(
                        "{user} allowed on {app} ({mode}) {over} after revoke stabilized at {revoked_at} (bound Te = {})",
                        self.te_real
                    ),
                );
            }
        }
        match path {
            AllowPath::Quorum { confirms, managers, .. } => {
                self.stats.quorum_allows += 1;
                let managers = managers.as_slice();
                let first_seen =
                    |(i, m): &(usize, &NodeId)| !managers[..*i].contains(m);
                let distinct = managers.iter().enumerate().filter(first_seen).count();
                if *confirms < self.check_quorum || distinct < self.check_quorum {
                    self.fail(
                        at,
                        index,
                        node,
                        InvariantKind::QuorumIntersection,
                        format!(
                            "allow for {user} on {app} backed by {distinct} distinct managers ({confirms} confirms), need C = {}",
                            self.check_quorum
                        ),
                    );
                }
                // I8: only managers owning the user's bucket (in some
                // registered map version) may confirm the check.
                let Some(versions) = self.shard_maps.get(&app) else { return };
                self.stats.shard_allows += 1;
                let bucket = user_bucket(user);
                let owns = |m: &NodeId| {
                    versions.values().flatten().any(|(_, lo, hi, owners)| {
                        *lo <= bucket && bucket <= *hi && owners.contains(&m.index())
                    })
                };
                let foreign: Vec<String> = managers
                    .iter()
                    .enumerate()
                    .filter(first_seen)
                    .filter(|(_, m)| !owns(m))
                    .map(|(_, m)| m.index().to_string())
                    .collect();
                if !foreign.is_empty() {
                    self.fail(
                        at,
                        index,
                        node,
                        InvariantKind::TenantIsolation,
                        format!(
                            "allow for {user} (bucket {bucket}) on {app} confirmed by managers [{}] outside the user's shard in every registered map version",
                            foreign.join(";")
                        ),
                    );
                }
            }
            AllowPath::Cache { now, limit } => {
                self.stats.cache_allows += 1;
                if now >= limit {
                    self.fail(
                        at,
                        index,
                        node,
                        InvariantKind::CacheExpiry,
                        format!(
                            "cache hit for {user} on {app} at local {} ns, entry limit {} ns already passed",
                            now.as_nanos(),
                            limit.as_nanos()
                        ),
                    );
                }
            }
            AllowPath::FailOpen => {}
        }
    }

    /// I3 for a lease or a grant: `life` must not exceed te = b·Te.
    fn check_budget(
        &mut self,
        at: SimTime,
        index: u64,
        node: NodeId,
        life: SimDuration,
        detail: impl FnOnce(SimDuration, SimDuration) -> String,
    ) {
        if life > self.te_budget {
            self.fail(at, index, node, InvariantKind::CacheExpiry, detail(life, self.te_budget));
        }
    }

    fn on_grant(&mut self, at: SimTime, index: u64, node: NodeId, app: AppId, te: SimDuration) {
        self.stats.grants += 1;
        // I4: "no responses are sent to application hosts until all
        // managers are accessible again" (§3.3).
        if self.frozen.contains(&(node, app)) {
            self.fail(
                at,
                index,
                node,
                InvariantKind::FreezeSafety,
                format!("manager granted on {app} while frozen"),
            );
        }
        self.check_budget(at, index, node, te, |te, budget| {
            format!("manager granted te {te} over the budget {budget}")
        });
    }

    /// I5: checks a disk recovery's slots against the node's durable
    /// promises.
    fn on_disk_recovery(
        &mut self,
        at: SimTime,
        index: u64,
        node: NodeId,
        slots: &[(AppId, UserId, Right, OpId)],
    ) {
        self.stats.disk_recoveries += 1;
        let Some(noted) = self.durable.get(&node) else { return };
        let recovered: DurableSlots =
            slots.iter().map(|&(app, user, right, id)| ((app, user, right), id)).collect();
        let mut lost = Vec::new();
        for (slot @ (app, user, right), &stamp) in noted {
            match recovered.get(slot) {
                Some(&got) if got >= stamp => {}
                Some(&got) => lost.push(format!(
                    "{}:{}:{right} rolled back to seq {} origin {} (durable seq {} origin {})",
                    app.0,
                    user.0,
                    got.seq,
                    got.origin.index(),
                    stamp.seq,
                    stamp.origin.index()
                )),
                None => lost.push(format!(
                    "{}:{}:{right} missing (durable up to seq {} origin {})",
                    app.0,
                    user.0,
                    stamp.seq,
                    stamp.origin.index()
                )),
            }
        }
        if !lost.is_empty() {
            self.fail(
                at,
                index,
                node,
                InvariantKind::Durability,
                format!("disk recovery lost acked state: {}", lost.join("; ")),
            );
        }
    }

    /// A replica published or anti-entropy-applied a record: whitelist
    /// the (app, version, manager-set) for I7 and track which replicas
    /// hold the version for the I6 write-quorum ack rule.
    fn on_ns_record_held(&mut self, at: SimTime, node: NodeId, held: &NsHeld) {
        let Some(config) = self.directory else { return };
        let (app, version) = (held.app, held.version);
        self.stats.ns_publishes += 1;
        let sets = self.ns_published.entry((app, version)).or_default();
        if !sets.contains(&held.managers) {
            sets.push(held.managers.clone());
        }
        let holders = self.ns_replica_records.entry((app, version)).or_default();
        let first_crossing = holders.insert(node) && holders.len() == config.write_quorum();
        if first_crossing {
            // This version just reached the write quorum: every read
            // quorum now intersects a holder, so the I6 clock starts —
            // but only if it advances the app's acked version.
            let acked = self.ns_acked.entry(app).or_insert((0, at));
            if version > acked.0 {
                *acked = (version, at);
                self.stats.ns_acked_versions += 1;
            }
        }
    }

    /// I6/I7: a host installed a directory record with manager set
    /// `installed` (`NsInstall`), or is riding one through a degraded
    /// quorum round (`NsDegraded`, `None`).
    fn on_ns_acted(
        &mut self,
        at: SimTime,
        index: u64,
        node: NodeId,
        app: AppId,
        version: u64,
        installed: Option<&NodeList>,
    ) {
        let Some(config) = self.directory else { return };
        if let Some(managers) = installed {
            self.stats.ns_installs += 1;
            // I7: the installed manager set must be one a legitimate
            // writer published (version 0 = the negative answer, which
            // installs the empty view and claims nothing).
            let published = || {
                self.ns_published.get(&(app, version)).is_some_and(|sets| sets.contains(managers))
            };
            if version > 0 && !published() {
                self.fail(
                    at,
                    index,
                    node,
                    InvariantKind::DirectoryIntegrity,
                    format!(
                        "host installed {app} version {version} mgrs={managers} that no legitimate writer published"
                    ),
                );
            }
        }
        // I6: once a fresher version is write-quorum-acknowledged, a
        // host may ride an older record only until that record's TTL
        // (worst-case real time) runs out.
        if let Some(&(acked_version, acked_at)) = self.ns_acked.get(&app) {
            if version < acked_version {
                let deadline = acked_at + config.ttl_real + self.slack;
                if at > deadline {
                    let over = SimDuration::from_nanos(
                        at.as_nanos().saturating_sub(acked_at.as_nanos()),
                    );
                    self.fail(
                        at,
                        index,
                        node,
                        InvariantKind::DirectoryFreshness,
                        format!(
                            "host acted on {app} version {version} {over} after version {acked_version} was quorum-acknowledged at {acked_at} (TTL bound {})",
                            config.ttl_real
                        ),
                    );
                }
            }
        }
    }

    /// I9 target side: the install must byte-match its source's claim.
    fn on_shard_install(&mut self, at: SimTime, index: u64, node: NodeId, ops: &ShardOps) {
        self.stats.shard_installs += 1;
        let &ShardOps { shard, epoch, src, digest, count } = ops;
        let (shard_no, src_no) = (shard.0, src.index());
        match self.handoff_digests.get(&(shard, epoch, src)) {
            None => self.fail(
                at,
                index,
                node,
                InvariantKind::RebalanceSafety,
                format!(
                    "shard {shard_no} epoch {epoch} installed from manager {src_no} which never noted a handoff"
                ),
            ),
            Some(&(want_digest, want_count)) if want_digest != digest || want_count != count => {
                self.fail(
                    at,
                    index,
                    node,
                    InvariantKind::RebalanceSafety,
                    format!(
                        "shard {shard_no} epoch {epoch} install from manager {src_no} diverged: got digest {digest} count {count}, source handed off digest {want_digest} count {want_count}"
                    ),
                )
            }
            Some(_) => {}
        }
    }

    fn on_audit(&mut self, at: SimTime, index: u64, node: NodeId, event: &AuditEvent) {
        match event {
            AuditEvent::Allow { app, user, path } => {
                self.on_allow(at, index, node, *app, *user, path)
            }
            AuditEvent::CacheStore { started, limit, .. } => {
                self.stats.cache_stores += 1;
                // I3: a host must never store a lease longer than te.
                self.check_budget(at, index, node, limit.since(*started), |life, budget| {
                    format!("stored lease lives {life} from its anchor, over the te budget {budget}")
                });
            }
            AuditEvent::Grant { app, te, .. } => self.on_grant(at, index, node, *app, *te),
            AuditEvent::Apply { revoke: false, app, user, id }
            // Stability implies the add was applied at its origin;
            // redundant with the apply note, kept for robustness
            // against truncated traces.
            | AuditEvent::GrantStable { app, user, id } => self.note_add(*app, *user, *id),
            AuditEvent::RevokeStable { app, user, id } => {
                self.stats.revokes += 1;
                // Keep the earliest stabilization per op: that is when
                // the paper's Te clock starts for it.
                self.stable_revokes.entry((*app, *user)).or_default().entry(*id).or_insert(at);
            }
            // A durability promise: the manager fsynced this op before
            // acking it, so it must survive every future disk recovery.
            AuditEvent::Durable { app, user, right, id, .. } => {
                self.stats.durable_ops += 1;
                let slots = self.durable.entry(node).or_default();
                let slot = slots.entry((*app, *user, *right)).or_insert(*id);
                *slot = (*slot).max(*id);
            }
            AuditEvent::Recovered(Recovery::Disk { slots, .. }) => {
                self.on_disk_recovery(at, index, node, slots)
            }
            // I9 source side: remember what the source claims it
            // handed off.
            AuditEvent::ShardHandoff(ops) => {
                self.stats.shard_handoffs += 1;
                self.handoff_digests
                    .insert((ops.shard, ops.epoch, ops.src), (ops.digest, ops.count));
            }
            AuditEvent::ShardInstall(ops) => self.on_shard_install(at, index, node, ops),
            AuditEvent::NsPublish(held) | AuditEvent::NsApply(held) => {
                self.on_ns_record_held(at, node, held)
            }
            AuditEvent::NsInstall { app, version, managers, .. } => {
                self.on_ns_acted(at, index, node, *app, *version, Some(managers))
            }
            AuditEvent::NsDegraded { app, version } => {
                self.on_ns_acted(at, index, node, *app, *version, None)
            }
            AuditEvent::Freeze { app } => {
                self.frozen.insert((node, *app));
            }
            AuditEvent::Thaw { app } => {
                self.frozen.remove(&(node, *app));
            }
            // Evidence for a reader of the trace; no invariant reads them.
            AuditEvent::Apply { revoke: true, .. }
            // A sync-mode recovery promised nothing durable.
            | AuditEvent::Recovered(Recovery::Sync { .. })
            | AuditEvent::Deny { .. }
            | AuditEvent::NsExpire { .. } => {}
        }
    }
}

impl Observer for InvariantOracle {
    fn on_event(&mut self, at: SimTime, index: u64, event: &TraceEvent) {
        self.last_event = (at, index);
        if let TraceEvent::Note { node, text } = event {
            let record = text.record::<AuditEvent>();
            fold_note(&mut self.digest, *node, text, record);
            match record {
                Some(event) => self.on_audit(at, index, *node, event),
                None => self.stats.untyped_notes += 1,
            }
        }
    }

    /// The oracle reads only `Note` events; telling the world so lets
    /// it skip `Debug`-formatting every message on oracle-only runs.
    fn wants_message_events(&self) -> bool {
        false
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FreezePolicy;
    use wanacl_sim::clock::LocalTime;

    fn policy() -> Policy {
        Policy::builder(2)
            .revocation_bound(SimDuration::from_secs(10))
            .clock_rate_bound(0.9)
            .build()
    }

    fn note(o: &mut InvariantOracle, at_s: u64, index: u64, node: usize, event: AuditEvent) {
        o.on_event(
            SimTime::from_secs(at_s),
            index,
            &TraceEvent::Note { node: n(node), text: Note::of(event) },
        );
    }

    fn n(index: usize) -> NodeId {
        NodeId::from_index(index)
    }

    fn op(seq: u64, origin: usize) -> OpId {
        OpId { origin: n(origin), seq }
    }

    fn nodes(indexes: &[usize]) -> NodeList {
        indexes.iter().map(|&i| n(i)).collect()
    }

    fn local(nanos: u64) -> LocalTime {
        LocalTime::from_nanos(nanos)
    }

    fn revoke_stable(app: u32, user: u64, seq: u64, origin: usize) -> AuditEvent {
        AuditEvent::RevokeStable { app: AppId(app), user: UserId(user), id: op(seq, origin) }
    }

    fn apply_add(app: u32, user: u64, seq: u64, origin: usize) -> AuditEvent {
        AuditEvent::Apply { revoke: false, app: AppId(app), user: UserId(user), id: op(seq, origin) }
    }

    fn allow(app: u32, user: u64, path: AllowPath) -> AuditEvent {
        AuditEvent::Allow { app: AppId(app), user: UserId(user), path }
    }

    fn cache_allow(app: u32, user: u64, now: u64, limit: u64) -> AuditEvent {
        allow(app, user, AllowPath::Cache { now: local(now), limit: local(limit) })
    }

    /// A quorum allow under the test policy's C = 2.
    fn quorum_allow(app: u32, user: u64, confirms: usize, managers: &[usize]) -> AuditEvent {
        let path = AllowPath::Quorum {
            confirms,
            c: 2,
            managers: nodes(managers),
            started: local(0),
            limit: Some(local(9)),
        };
        allow(app, user, path)
    }

    /// A lease stored at local 0 that runs for `life`.
    fn cache_store(life: SimDuration) -> AuditEvent {
        AuditEvent::CacheStore {
            app: AppId(0),
            user: UserId(1),
            started: local(0),
            limit: local(0).plus(life),
            te: life,
        }
    }

    fn grant(app: u32, user: u64, te_nanos: u64) -> AuditEvent {
        AuditEvent::Grant { app: AppId(app), user: UserId(user), te: SimDuration::from_nanos(te_nanos) }
    }

    fn durable(app: u32, user: u64, revoke: bool, seq: u64, origin: usize) -> AuditEvent {
        let (app, user) = (AppId(app), UserId(user));
        AuditEvent::Durable { app, user, right: Right::Use, revoke, id: op(seq, origin) }
    }

    /// A disk recovery holding `(app, user, seq, origin)` `use` slots.
    fn disk_recovery(replayed: u64, torn: u64, slots: &[(u32, u64, u64, usize)]) -> AuditEvent {
        let slots = slots
            .iter()
            .map(|&(app, user, seq, origin)| (AppId(app), UserId(user), Right::Use, op(seq, origin)))
            .collect();
        AuditEvent::Recovered(Recovery::Disk { replayed, torn, slots })
    }

    fn held(app: u32, version: u64, managers: &[usize]) -> NsHeld {
        NsHeld { app: AppId(app), version, managers: nodes(managers) }
    }

    /// A two-of-two quorum install.
    fn ns_install(app: u32, version: u64, managers: &[usize], ttl_nanos: u64) -> AuditEvent {
        AuditEvent::NsInstall {
            app: AppId(app),
            version,
            acks: 2,
            quorum: 2,
            managers: nodes(managers),
            ttl: SimDuration::from_nanos(ttl_nanos),
        }
    }

    fn shard_ops(shard: u32, epoch: u64, src: usize, digest: u64, count: usize) -> ShardOps {
        ShardOps { shard: ShardId(shard), epoch, src: n(src), digest, count }
    }

    #[test]
    fn allow_within_te_is_clean() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 5, 1, 0, revoke_stable(0, 1, 3, 0));
        note(&mut o, 14, 2, 3, cache_allow(0, 1, 1, 2));
        // Other users and other apps are never affected by the revoke.
        note(&mut o, 100, 3, 3, cache_allow(0, 2, 1, 2));
        note(&mut o, 100, 4, 3, cache_allow(1, 1, 1, 2));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn allow_past_te_is_a_violation() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 5, 1, 0, revoke_stable(0, 1, 3, 0));
        note(&mut o, 16, 7, 3, cache_allow(0, 1, 1, 2));
        assert_eq!(o.violations().len(), 1);
        let v = &o.violations()[0];
        assert_eq!(v.kind, InvariantKind::BoundedRevocation);
        assert_eq!(v.event_index, 7);
        // Slack tolerates a reply that was already in flight.
        let mut o = InvariantOracle::new(&policy(), SimDuration::from_secs(2));
        note(&mut o, 5, 1, 0, revoke_stable(0, 1, 3, 0));
        note(&mut o, 16, 7, 3, cache_allow(0, 1, 1, 2));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn fail_open_allows_are_exempt_from_bounded_revocation() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 5, 1, 0, revoke_stable(0, 1, 3, 0));
        note(&mut o, 50, 2, 3, allow(0, 1, AllowPath::FailOpen));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.stats().fail_open_allows, 1);
    }

    #[test]
    fn regrant_clears_the_revocation() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 5, 1, 0, revoke_stable(0, 1, 3, 0));
        note(&mut o, 20, 2, 0, apply_add(0, 1, 4, 0));
        note(&mut o, 30, 3, 3, cache_allow(0, 1, 1, 2));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn lww_order_beats_stable_arrival_order() {
        // A resent add (seq 4) applied after the revoke (seq 3) keeps
        // the user granted, even though the revoke's stability notice
        // arrives *later* than the add's apply — stable-event order is
        // not apply order.
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 5, 1, 0, apply_add(0, 1, 4, 0));
        note(&mut o, 6, 2, 0, revoke_stable(0, 1, 3, 0));
        note(&mut o, 40, 3, 3, cache_allow(0, 1, 1, 2));
        assert!(o.is_clean(), "{:?}", o.violations());
        // A revoke that is LWW-newer than the add does arm the bound.
        note(&mut o, 41, 4, 0, revoke_stable(0, 1, 5, 0));
        note(&mut o, 60, 5, 3, cache_allow(0, 1, 1, 2));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::BoundedRevocation);
    }

    #[test]
    fn quorum_allow_needs_c_distinct_managers() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 3, quorum_allow(0, 1, 2, &[0, 1]));
        assert!(o.is_clean());
        note(&mut o, 2, 2, 3, quorum_allow(0, 1, 1, &[0]));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::QuorumIntersection);
    }

    #[test]
    fn cache_hit_past_limit_is_a_violation() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 4, 3, cache_allow(0, 1, 200, 100));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::CacheExpiry);
    }

    #[test]
    fn cache_store_over_budget_is_a_violation() {
        let p = policy(); // te = 0.9 * 10s = 9s
        let mut o = InvariantOracle::new(&p, SimDuration::ZERO);
        note(&mut o, 1, 1, 3, cache_store(SimDuration::from_secs(9)));
        assert!(o.is_clean(), "{:?}", o.violations());
        note(&mut o, 2, 2, 3, cache_store(SimDuration::from_secs(10)));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::CacheExpiry);
    }

    #[test]
    fn grant_while_frozen_is_a_violation() {
        let p = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(10))
            .clock_rate_bound(0.9)
            .freeze(FreezePolicy {
                ti: SimDuration::from_secs(1),
                heartbeat_interval: SimDuration::from_millis(100),
            })
            .build();
        let mut o = InvariantOracle::new(&p, SimDuration::ZERO);
        note(&mut o, 1, 1, 0, AuditEvent::Freeze { app: AppId(0) });
        note(&mut o, 2, 2, 0, grant(0, 1, 1000));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::FreezeSafety);
        // Another manager granting is fine.
        note(&mut o, 2, 3, 1, grant(0, 1, 1000));
        assert_eq!(o.violations().len(), 1);
        // After thaw the same manager may grant again.
        note(&mut o, 3, 4, 0, AuditEvent::Thaw { app: AppId(0) });
        note(&mut o, 4, 5, 0, grant(0, 1, 1000));
        assert_eq!(o.violations().len(), 1);
    }

    #[test]
    fn disk_recovery_must_preserve_durable_ops() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 0, durable(0, 1, false, 3, 0));
        note(&mut o, 2, 2, 0, disk_recovery(1, 0, &[(0, 1, 3, 0)]));
        assert!(o.is_clean(), "{:?}", o.violations());
        // A newer recovered winner for the slot also satisfies the bound.
        note(&mut o, 3, 3, 0, disk_recovery(2, 0, &[(0, 1, 5, 1)]));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.stats().durable_ops, 1);
        assert_eq!(o.stats().disk_recoveries, 2);
        // An empty recovery (the planted drop-the-WAL bug) is caught.
        note(&mut o, 4, 9, 0, disk_recovery(0, 1, &[]));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::Durability);
        assert_eq!(o.violations()[0].event_index, 9);
    }

    #[test]
    fn stale_recovered_slot_is_a_durability_violation() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 0, durable(0, 1, true, 6, 2));
        note(&mut o, 2, 2, 0, disk_recovery(1, 0, &[(0, 1, 4, 1)]));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::Durability);
    }

    #[test]
    fn sync_mode_recovery_is_exempt_from_durability() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 0, durable(0, 1, false, 3, 0));
        note(&mut o, 2, 2, 0, AuditEvent::Recovered(Recovery::Sync { merged: 0 }));
        assert!(o.is_clean(), "{:?}", o.violations());
        // Another manager's disk recovery is not constrained by node 0's
        // durable notes.
        note(&mut o, 3, 3, 1, disk_recovery(0, 0, &[]));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn audit_digest_is_order_and_content_sensitive() {
        let mk = |notes: &[(usize, AuditEvent)]| {
            let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
            for (i, (node, event)) in notes.iter().enumerate() {
                note(&mut o, i as u64, i as u64, *node, event.clone());
            }
            o.audit_digest()
        };
        let a = [(0, grant(0, 1, 1)), (1, AuditEvent::Freeze { app: AppId(0) })];
        let b = [(1, AuditEvent::Freeze { app: AppId(0) }), (0, grant(0, 1, 1))];
        assert_eq!(mk(&a), mk(&a), "same stream, same digest");
        assert_ne!(mk(&a), mk(&b), "order matters");
        assert_ne!(mk(&a[..1]), mk(&a), "content matters");
    }

    fn directory_oracle() -> InvariantOracle {
        // ρ = 0.9, TTL = 9 s → ttl_real = 10 s + 3 s in-flight slack.
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        o.set_directory(3, 2, SimDuration::from_secs(9));
        o
    }

    #[test]
    fn directory_checks_are_off_until_configured() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 6, ns_install(0, 5, &[0, 1], 9000000000));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.stats().ns_installs, 0);
    }

    #[test]
    fn install_of_published_record_is_clean() {
        let mut o = directory_oracle();
        note(&mut o, 1, 1, 3, AuditEvent::NsPublish(held(0, 1, &[0, 1])));
        note(&mut o, 1, 2, 4, AuditEvent::NsApply(held(0, 1, &[0, 1])));
        note(&mut o, 2, 3, 6, ns_install(0, 1, &[0, 1], 9000000000));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.stats().ns_publishes, 2);
        assert_eq!(o.stats().ns_installs, 1);
        assert_eq!(o.stats().ns_acked_versions, 1, "W = 3-2+1 = 2 holders ack v1");
    }

    #[test]
    fn forged_install_violates_directory_integrity() {
        let mut o = directory_oracle();
        note(&mut o, 1, 1, 3, AuditEvent::NsPublish(held(0, 1, &[0, 1])));
        // The version was never published with this manager set.
        note(&mut o, 2, 5, 6, ns_install(0, 2, &[9], 9000000000));
        assert_eq!(o.violations().len(), 1);
        let v = &o.violations()[0];
        assert_eq!(v.kind, InvariantKind::DirectoryIntegrity);
        assert_eq!(v.event_index, 5);
        // A tampered manager set under a *published* version is equally
        // a violation: the whitelist binds version AND set.
        note(&mut o, 3, 6, 6, ns_install(0, 1, &[9], 9000000000));
        assert_eq!(o.violations().len(), 2);
    }

    #[test]
    fn negative_install_claims_nothing() {
        let mut o = directory_oracle();
        note(&mut o, 1, 1, 6, ns_install(0, 0, &[], 2000000000));
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn stale_record_within_ttl_is_graceful_degradation_not_a_violation() {
        let mut o = directory_oracle();
        note(&mut o, 1, 1, 3, AuditEvent::NsPublish(held(0, 1, &[0])));
        note(&mut o, 1, 2, 4, AuditEvent::NsApply(held(0, 1, &[0])));
        // v2 reaches the write quorum at t = 10 s.
        note(&mut o, 10, 3, 3, AuditEvent::NsPublish(held(0, 2, &[0, 1])));
        note(&mut o, 10, 4, 4, AuditEvent::NsApply(held(0, 2, &[0, 1])));
        // A host still riding v1 at t = 19 s is inside the 13 s bound.
        note(&mut o, 19, 5, 6, AuditEvent::NsDegraded { app: AppId(0), version: 1 });
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn stale_record_past_ttl_after_ack_violates_freshness() {
        let mut o = directory_oracle();
        note(&mut o, 1, 1, 3, AuditEvent::NsPublish(held(0, 1, &[0])));
        note(&mut o, 10, 2, 3, AuditEvent::NsPublish(held(0, 2, &[0, 1])));
        note(&mut o, 10, 3, 4, AuditEvent::NsApply(held(0, 2, &[0, 1])));
        // 14 s after the v2 ack > 13 s (ttl/ρ + in-flight slack): the
        // host must have expired v1 by now.
        note(&mut o, 24, 7, 6, AuditEvent::NsDegraded { app: AppId(0), version: 1 });
        assert_eq!(o.violations().len(), 1);
        let v = &o.violations()[0];
        assert_eq!(v.kind, InvariantKind::DirectoryFreshness);
        assert_eq!(v.event_index, 7);
    }

    #[test]
    fn one_replica_holding_a_version_does_not_arm_the_ack_clock() {
        let mut o = directory_oracle();
        note(&mut o, 1, 1, 3, AuditEvent::NsPublish(held(0, 1, &[0])));
        note(&mut o, 1, 2, 4, AuditEvent::NsApply(held(0, 1, &[0])));
        // v2 sits on a single replica: below W = 2, no ack — a host
        // serving v1 forever is legal (the write never committed).
        note(&mut o, 5, 3, 3, AuditEvent::NsPublish(held(0, 2, &[0, 1])));
        note(&mut o, 500, 4, 6, ns_install(0, 1, &[0], 9000000000));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.stats().ns_acked_versions, 1, "only v1 ever acked");
    }

    fn shard_entry(shard: u32, lo: u8, hi: u8, owners: &[usize]) -> crate::msg::ShardEntry {
        crate::msg::ShardEntry {
            shard: crate::types::ShardId(shard),
            lo,
            hi,
            managers: owners.iter().map(|&i| NodeId::from_index(i)).collect(),
        }
    }

    #[test]
    fn shard_allow_by_owners_is_clean_and_by_foreigners_is_not() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        o.expect_shard_map(
            AppId(0),
            1,
            &[shard_entry(0, 0, 127, &[0, 1]), shard_entry(1, 128, 255, &[2, 3])],
        );
        // user 1's bucket decides which owner pair is legal.
        let b = user_bucket(UserId(1));
        let (own, foreign) = if b <= 127 { ([0, 1], [2, 3]) } else { ([2, 3], [0, 1]) };
        note(&mut o, 1, 1, 9, quorum_allow(0, 1, 2, &own));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.stats().shard_allows, 1);
        // An app with no registered map stays unchecked.
        note(&mut o, 2, 2, 9, quorum_allow(7, 1, 2, &[5, 6]));
        assert_eq!(o.stats().shard_allows, 1);
        assert!(o.is_clean());
        // The other shard's owners confirming this user is contamination.
        note(&mut o, 3, 3, 9, quorum_allow(0, 1, 2, &foreign));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::TenantIsolation);
    }

    #[test]
    fn shard_allow_accepts_any_registered_map_version() {
        // After a rebalance both the old and new owners may briefly
        // answer (the drain window); registering both versions keeps the
        // oracle race-free without admitting third parties.
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        let b = user_bucket(UserId(1));
        o.expect_shard_map(AppId(0), 1, &[shard_entry(0, 0, 255, &[0, 1])]);
        o.expect_shard_map(AppId(0), 2, &[shard_entry(0, 0, 255, &[2, 3])]);
        let _ = b;
        note(&mut o, 1, 1, 9, quorum_allow(0, 1, 2, &[0, 1]));
        note(&mut o, 2, 2, 9, quorum_allow(0, 1, 2, &[2, 3]));
        assert!(o.is_clean(), "{:?}", o.violations());
        note(&mut o, 3, 3, 9, quorum_allow(0, 1, 2, &[4, 5]));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::TenantIsolation);
    }

    #[test]
    fn matching_handoff_and_install_digests_are_clean() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 0, AuditEvent::ShardHandoff(shard_ops(0, 2, 0, 777, 3)));
        note(&mut o, 2, 2, 4, AuditEvent::ShardInstall(shard_ops(0, 2, 0, 777, 3)));
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.stats().shard_handoffs, 1);
        assert_eq!(o.stats().shard_installs, 1);
    }

    #[test]
    fn diverged_install_digest_is_a_rebalance_violation() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 0, AuditEvent::ShardHandoff(shard_ops(0, 2, 0, 777, 3)));
        // The lost-tail bug: one op short, different digest.
        note(&mut o, 2, 5, 4, AuditEvent::ShardInstall(shard_ops(0, 2, 0, 123, 2)));
        assert_eq!(o.violations().len(), 1);
        let v = &o.violations()[0];
        assert_eq!(v.kind, InvariantKind::RebalanceSafety);
        assert_eq!(v.event_index, 5);
    }

    #[test]
    fn install_without_a_handoff_is_a_rebalance_violation() {
        let mut o = InvariantOracle::new(&policy(), SimDuration::ZERO);
        note(&mut o, 1, 1, 4, AuditEvent::ShardInstall(shard_ops(0, 2, 0, 777, 3)));
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::RebalanceSafety);
        // Same epoch from a *different* source is tracked independently.
        note(&mut o, 2, 2, 0, AuditEvent::ShardHandoff(shard_ops(0, 2, 1, 9, 1)));
        note(&mut o, 3, 3, 4, AuditEvent::ShardInstall(shard_ops(0, 2, 1, 9, 1)));
        assert_eq!(o.violations().len(), 1);
    }

    #[test]
    fn static_freeze_bound_checked_at_construction() {
        // Ti + te > Te: 5 + 9 > 10.
        let p = Policy::builder(1)
            .revocation_bound(SimDuration::from_secs(10))
            .clock_rate_bound(0.9)
            .freeze(FreezePolicy {
                ti: SimDuration::from_secs(5),
                heartbeat_interval: SimDuration::from_millis(100),
            })
            .build_unchecked();
        let o = InvariantOracle::new(&p, SimDuration::ZERO);
        assert_eq!(o.violations().len(), 1);
        assert_eq!(o.violations()[0].kind, InvariantKind::FreezeSafety);
    }
}
