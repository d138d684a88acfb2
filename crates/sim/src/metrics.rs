//! Run-level measurement: one declared registry of metrics, recorded by
//! handle into slots of counters and bounded log-bucket histograms.
//!
//! Experiments read these after a run to compute empirical availability,
//! security, and overhead numbers.

/// What a metric stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A [`Histogram`] of samples.
    Histogram,
}

/// One row of the registry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted name, as exported.
    pub name: &'static str,
    /// Counter or histogram.
    pub kind: Kind,
    /// What one count or one sample measures.
    pub unit: &'static str,
    /// The component and event that record it.
    pub emitted_by: &'static str,
}

/// Handle of a registered metric: its row number in [`REGISTRY`], so
/// recording through it indexes a slot and compares no string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u16);

macro_rules! registry {
    ($($id:ident = $name:literal, $kind:ident, $unit:literal, $by:literal;)*) => {
        /// Every metric any crate records, in name order: by-name calls
        /// search it and DESIGN §11 prints it.
        pub const REGISTRY: &[MetricDef] =
            &[$(MetricDef { name: $name, kind: Kind::$kind, unit: $unit, emitted_by: $by }),*];
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Row { $($id),* }
        #[allow(missing_docs)] // each is the handle of the row it is named after
        impl MetricId { $(pub const $id: MetricId = MetricId(Row::$id as u16);)* }
    };
}

registry! {
    ADMIN_OP_QUEUED = "admin.op_queued", Counter, "ops", "`AdminAgent` op queued behind the one in flight (serial mode)";
    ADMIN_OP_RESENT = "admin.op_resent", Counter, "ops", "`AdminAgent` unconfirmed op re-sent";
    ADMIN_OP_SENT = "admin.op_sent", Counter, "ops", "`AdminAgent` op submitted to a manager";
    ADMIN_REJECTED = "admin.rejected", Counter, "ops", "`AdminAgent` op a manager refused";
    ADMIN_TIME_TO_STABLE_S = "admin.time_to_stable_s", Histogram, "seconds", "`AdminAgent` op-to-update-quorum latency";
    ADMIN_UNEXPECTED_MSG = "admin.unexpected_msg", Counter, "messages", "`AdminAgent` rejected input";
    BASE_EC_CHECK_QUERIES = "base.ec.check_queries", Counter, "messages", "eventual-consistency baseline: check sent to a replica";
    BASE_EC_CHECK_REPLIES = "base.ec.check_replies", Counter, "messages", "eventual-consistency baseline: replica verdict";
    BASE_EC_CHECKS = "base.ec.checks", Counter, "checks", "eventual-consistency baseline: check started";
    BASE_EC_GOSSIP_MSGS = "base.ec.gossip_msgs", Counter, "messages", "eventual-consistency baseline: anti-entropy gossip";
    BASE_FULL_CHECKS = "base.full.checks", Counter, "checks", "full-replication baseline: check answered locally";
    BASE_FULL_PUSH_MSGS = "base.full.push_msgs", Counter, "messages", "full-replication baseline: update pushed (or re-pushed) to a host";
    BASE_FULL_UPDATES = "base.full.updates", Counter, "ops", "full-replication baseline: update accepted";
    BASE_LOCAL_CHECKS = "base.local.checks", Counter, "checks", "local-only baseline: check started";
    BASE_LOCAL_LOCATE_QUERIES = "base.local.locate_queries", Counter, "messages", "local-only baseline: owner lookup sent";
    BASE_LOCAL_LOCATE_REPLIES = "base.local.locate_replies", Counter, "messages", "local-only baseline: owner lookup answered";
    HOST_ALLOWED = "host.allowed", Counter, "decisions", "`HostNode` final outcome: allow (Figure 4)";
    HOST_ATTEMPT_RETRY = "host.attempt_retry", Counter, "attempts", "`HostNode` check attempts ≥ 2";
    HOST_AUTH_REJECT = "host.auth_reject", Counter, "invokes", "`HostNode` signature verification failed";
    HOST_BAD_CHANNEL_MAC = "host.bad_channel_mac", Counter, "messages", "`HostNode` revoke notice, or reply to a current check attempt, whose channel tag fails";
    HOST_CACHE_HIT = "host.cache_hit", Counter, "invokes", "`HostNode` cache lookup hit (§3.2)";
    HOST_CACHE_MISS = "host.cache_miss", Counter, "invokes", "`HostNode` cache lookup miss (§3.2)";
    HOST_CACHE_SWEPT = "host.cache_swept", Counter, "entries", "`HostNode` expired lease removed by the sweep";
    HOST_CHECK_LATENCY_S = "host.check_latency_s", Histogram, "seconds", "`HostNode` full check latency, all paths";
    HOST_DENIED = "host.denied", Counter, "decisions", "`HostNode` final outcome: deny (Figure 4)";
    HOST_EMPTY_MANAGER_VIEW = "host.empty_manager_view", Counter, "attempts", "`HostNode` attempt resolved with no managers to ask";
    HOST_FAIL_OPEN = "host.fail_open", Counter, "decisions", "`HostNode` final outcome: allowed by the fail-open policy";
    HOST_INVOKES = "host.invokes", Counter, "invokes", "`HostNode` per arriving `Invoke`";
    HOST_LATE_REPLY = "host.late_reply", Counter, "messages", "`HostNode` reply to a check or directory round already settled";
    HOST_LATENCY_CACHE_S = "host.latency.cache_s", Histogram, "seconds", "`HostNode` check latency, resolved from the cache";
    HOST_LATENCY_FAILOPEN_S = "host.latency.failopen_s", Histogram, "seconds", "`HostNode` check latency, resolved by fail-open";
    HOST_LATENCY_QUORUM_S = "host.latency.quorum_s", Histogram, "seconds", "`HostNode` check latency, resolved by a manager quorum";
    HOST_LATENCY_UNAVAILABLE_S = "host.latency.unavailable_s", Histogram, "seconds", "`HostNode` check latency, resolved as unavailable";
    HOST_MANAGER_UNAVAILABLE = "host.manager_unavailable", Counter, "replies", "`HostNode` per recovering-manager reply (§3.4)";
    HOST_NS_PINNED = "host.ns_pinned", Counter, "records", "`HostNode` stale-map fault: a pinned host refusing a newer directory record (§14)";
    HOST_NS_REJECT_BAD_SIG = "host.ns_reject_bad_sig", Counter, "replies", "`HostNode` directory record whose signature does not verify (§12)";
    HOST_NS_REPLY_UNTRUSTED = "host.ns_reply_untrusted", Counter, "messages", "`HostNode` directory reply from a node that is not a replica";
    HOST_NS_UNVERIFIED = "host.ns_unverified", Counter, "replies", "`HostNode` directory record accepted with no key to check it (§12)";
    HOST_QUERIES_SENT = "host.queries_sent", Counter, "messages", "`HostNode` per manager `Query`";
    HOST_REFRESH_DENIED = "host.refresh_denied", Counter, "refreshes", "`HostNode` proactive refresh answered with a deny";
    HOST_REFRESH_FAILED = "host.refresh_failed", Counter, "refreshes", "`HostNode` proactive refresh that found no quorum";
    HOST_REFRESH_RENEWED = "host.refresh_renewed", Counter, "refreshes", "`HostNode` proactive refresh that renewed the lease";
    HOST_REFRESH_SKIPPED_IDLE = "host.refresh_skipped_idle", Counter, "refreshes", "`HostNode` lease left to expire because nobody used it";
    HOST_REFRESH_STARTED = "host.refresh_started", Counter, "refreshes", "`HostNode` proactive lease refresh begun";
    HOST_REPLY_FROM_NON_MANAGER = "host.reply_from_non_manager", Counter, "messages", "`HostNode` query reply from outside the manager set";
    HOST_REVOKE_FLUSH = "host.revoke_flush", Counter, "entries", "`HostNode` cache entry dropped by a revoke notice";
    HOST_UNAVAILABLE = "host.unavailable", Counter, "decisions", "`HostNode` final outcome: unavailable (Figure 4)";
    HOST_UNEXPECTED_MSG = "host.unexpected_msg", Counter, "messages", "`HostNode` rejected input";
    HOST_UNKNOWN_APP = "host.unknown_app", Counter, "invokes", "`HostNode` deny of an unserved app";
    MGR_ADMIN_FORWARDED = "mgr.admin_forwarded", Counter, "ops", "`ManagerNode` admin op relayed to the shard's new owner (§14)";
    MGR_ADMIN_FROZEN_SHARD = "mgr.admin_frozen_shard", Counter, "ops", "`ManagerNode` admin op dropped for a frozen, preparing or moved shard (§14)";
    MGR_ADMIN_REJECTED = "mgr.admin_rejected", Counter, "messages", "`ManagerNode` admin op refused";
    MGR_DELTA_SYNC_COMPLETE = "mgr.delta_sync_complete", Counter, "recoveries", "`ManagerNode` warm peer sync finished (§3.4)";
    MGR_DENIES = "mgr.denies", Counter, "queries", "`ManagerNode` check verdict: deny";
    MGR_FREEZE_TRANSITIONS = "mgr.freeze_transitions", Counter, "messages", "`ManagerNode` entering the frozen state: a peer silent past `Ti` (§3.3)";
    MGR_FROZEN_DROPS = "mgr.frozen_drops", Counter, "messages", "`ManagerNode` query left unanswered while frozen (§3.3)";
    MGR_GRANTS = "mgr.grants", Counter, "queries", "`ManagerNode` check verdict: grant";
    MGR_HANDOFF_BAD_RECORD = "mgr.handoff_bad_record", Counter, "handoffs", "`ManagerNode` handoff record that fails verification or lacks the shard (§14)";
    MGR_HANDOFF_COMPLETE = "mgr.handoff_complete", Counter, "handoffs", "`ManagerNode` rebalance finished, either side (§14)";
    MGR_HANDOFF_SOURCE_STARTED = "mgr.handoff_source_started", Counter, "handoffs", "`ManagerNode` rebalance begun as source (§14)";
    MGR_HANDOFF_TARGET_STARTED = "mgr.handoff_target_started", Counter, "handoffs", "`ManagerNode` rebalance begun as target (§14)";
    MGR_MSG_FROM_NON_PEER = "mgr.msg_from_non_peer", Counter, "messages", "`ManagerNode` peer traffic from outside the manager set";
    MGR_OPS_ORIGINATED = "mgr.ops_originated", Counter, "ops", "`ManagerNode` admin op accepted and stamped (§3.3)";
    MGR_PEER_UPDATES_APPLIED = "mgr.peer_updates_applied", Counter, "ops", "`ManagerNode` peer update applied (§3.3)";
    MGR_QUERIES = "mgr.queries", Counter, "queries", "`ManagerNode` per arriving `Query`";
    MGR_QUORUM_REACHED = "mgr.quorum_reached", Counter, "ops", "`ManagerNode` op acknowledged by an update quorum (§3.3)";
    MGR_RECOVERED_FROM_DISK = "mgr.recovered_from_disk", Counter, "recoveries", "`ManagerNode` state rebuilt from WAL and snapshot (§9)";
    MGR_RECOVERED_VIA_SYNC = "mgr.recovered_via_sync", Counter, "recoveries", "`ManagerNode` state rebuilt from a peer (§3.4)";
    MGR_RECOVERING_DROPS = "mgr.recovering_drops", Counter, "messages", "`ManagerNode` query answered `Recovering` instead of from stale state (§3.4)";
    MGR_REVOKE_NOTICES = "mgr.revoke_notices", Counter, "messages", "`ManagerNode` revocation fan-out to granted hosts";
    MGR_REVOKE_NOTICES_RESENT = "mgr.revoke_notices_resent", Counter, "messages", "`ManagerNode` revocation notice re-sent unacknowledged";
    MGR_SHARD_ACQUIRED = "mgr.shard_acquired", Counter, "shards", "`ManagerNode` shard activated on the target (§14)";
    MGR_SHARD_INSTALLS = "mgr.shard_installs", Counter, "shards", "`ManagerNode` shard snapshot installed (§14)";
    MGR_SHARD_MOVED = "mgr.shard_moved", Counter, "queries", "`ManagerNode` query for a shard that has moved away (§14)";
    MGR_SHARD_RELEASED = "mgr.shard_released", Counter, "shards", "`ManagerNode` shard released by the source (§14)";
    MGR_SHARD_TRANSFER_RESENT = "mgr.shard_transfer_resent", Counter, "transfers", "`ManagerNode` shard transfer re-sent unacknowledged (§14)";
    MGR_SNAPSHOT_WRITES = "mgr.snapshot_writes", Counter, "records", "`ManagerNode` snapshot written, WAL truncated (§9)";
    MGR_SYNC_GAP_RESENDS = "mgr.sync_gap_resends", Counter, "recoveries", "`ManagerNode` op re-sent to a syncing peer whose stamps claimed it";
    MGR_SYNC_STAMPS_BEHIND = "mgr.sync_stamps_behind", Counter, "recoveries", "`ManagerNode` sync reply that leaves its stamps behind the peer's";
    MGR_SYNCS_SERVED = "mgr.syncs_served", Counter, "recoveries", "`ManagerNode` sync request answered";
    MGR_TIME_TO_QUORUM_S = "mgr.time_to_quorum_s", Histogram, "seconds", "`ManagerNode` update-quorum latency";
    MGR_UNEXPECTED_MSG = "mgr.unexpected_msg", Counter, "messages", "`ManagerNode` rejected input";
    MGR_UNKNOWN_SHARD = "mgr.unknown_shard", Counter, "queries", "`ManagerNode` admin op or query for a shard it does not serve (§14)";
    MGR_UPDATE_DEFERRED_RECOVERING = "mgr.update_deferred_recovering", Counter, "messages", "`ManagerNode` peer update held until recovery ends";
    MGR_UPDATES_RESENT = "mgr.updates_resent", Counter, "ops", "`ManagerNode` update re-sent unacknowledged (§3.3)";
    MGR_UPDATES_SENT = "mgr.updates_sent", Counter, "ops", "`ManagerNode` update sent to a peer (§3.3)";
    MGR_WAL_APPEND_FAILED = "mgr.wal_append_failed", Counter, "records", "`ManagerNode` WAL append refused by storage (§9)";
    MGR_WAL_APPENDS = "mgr.wal_appends", Counter, "records", "`ManagerNode` WAL record appended (§9)";
    MGR_WAL_SYNC_FAILED = "mgr.wal_sync_failed", Counter, "records", "`ManagerNode` WAL fsync refused by storage (§9)";
    NET_DELIVERED = "net.delivered", Counter, "messages", "`World` message handed to a node (sim only)";
    NET_DROP_DESTINATION_DOWN = "net.drop.destination_down", Counter, "messages", "`World` or live worker drop: destination crashed";
    NET_DROP_LOSS = "net.drop.loss", Counter, "messages", "`World` drop: random loss (sim only)";
    NET_DROP_PARTITIONED = "net.drop.partitioned", Counter, "messages", "`World` drop: partition (sim only)";
    NET_DUPLICATED = "net.duplicated", Counter, "messages", "`World` message delivered twice (sim only)";
    NET_SENT = "net.sent", Counter, "messages", "`World` per `Effect::Send` (sim only)";
    NODE_CRASHES = "node.crashes", Counter, "events", "Step rule: node crash, or a live kill or handler panic";
    NODE_RECOVERIES = "node.recoveries", Counter, "events", "Step rule: node recovery, or a live restart";
    NS_DEGRADED_ROUNDS = "ns.degraded_rounds", Counter, "rounds", "`HostNode` quorum read settled below quorum (§12)";
    NS_FORGED_REPLY = "ns.forged_reply", Counter, "replies", "`DirectoryReplica` forgery emitted inside a malicious window (§12)";
    NS_INSTALLS = "ns.installs", Counter, "rounds", "`HostNode` directory record installed (§12)";
    NS_LOOKUP_LATENCY_S = "ns.lookup_latency_s", Histogram, "seconds", "`HostNode` quorum-read round latency, send to install/degrade (§12)";
    NS_LOOKUPS = "ns.lookups", Counter, "queries", "`DirectoryReplica` lookup served (§12)";
    NS_NEGATIVE_REPLY = "ns.negative_reply", Counter, "queries", "`DirectoryReplica` lookup answered with no record (§12)";
    NS_PUBLISH_REJECTED = "ns.publish_rejected", Counter, "records", "`DirectoryReplica` record whose signature does not verify (§12)";
    NS_PUBLISH_STALE = "ns.publish_stale", Counter, "records", "`DirectoryReplica` publish older than the held record (§12)";
    NS_READ_ROUNDS = "ns.read_rounds", Counter, "rounds", "`HostNode` quorum-read round begun (§12)";
    NS_READ_TIMEOUT = "ns.read_timeout", Counter, "rounds", "`HostNode` quorum-read round timed out (§12)";
    NS_RECORD_EXPIRED = "ns.record_expired", Counter, "rounds", "`HostNode` directory record TTL ran out (§12)";
    NS_RECORDS_ACCEPTED = "ns.records_accepted", Counter, "records", "`DirectoryReplica` record stored (§12)";
    NS_RECOVERED_FROM_DISK = "ns.recovered_from_disk", Counter, "rounds", "`DirectoryReplica` crash recovery that found records in its log (§12)";
    NS_STALE_QUORUM = "ns.stale_quorum", Counter, "rounds", "`HostNode` quorum's freshest record older than the installed one (§12)";
    NS_SYNC_ROUNDS = "ns.sync_rounds", Counter, "rounds", "`DirectoryReplica` anti-entropy round (§12)";
    NS_SYNC_SUPPRESSED = "ns.sync_suppressed", Counter, "rounds", "`DirectoryReplica` anti-entropy message dropped inside a stale window (§12)";
    NS_UNEXPECTED_MSG = "ns.unexpected_msg", Counter, "queries", "`DirectoryReplica` rejected input";
    NS_UNKNOWN_APP = "ns.unknown_app", Counter, "queries", "`DirectoryReplica` negative lookup of an unregistered app, capped negative TTL (§14)";
    RT_BATCH_SIZE = "rt.batch_size", Histogram, "envelopes", "worker pool: data envelopes consumed per node step (§16; rt only)";
    RT_CHAOS_DELAYED = "rt.chaos_delayed", Counter, "messages", "`ChaosRouter` injected delay on the live transport (§13)";
    RT_CHAOS_DROPPED = "rt.chaos_dropped", Counter, "messages", "`ChaosRouter` injected drop on the live transport (§13)";
    RT_CHAOS_DUPLICATED = "rt.chaos_duplicated", Counter, "messages", "`ChaosRouter` injected duplicate on the live transport (§13)";
    RT_INBOX_OVERFLOW = "rt.inbox_overflow", Counter, "messages", "`Router` / `NodeCell` bounded-inbox drop-newest on the data lane (§13, §16)";
    RT_NODE_KILLED = "rt.node_killed", Counter, "events", "`Runtime::kill` process death (§13)";
    RT_NODE_RESTARTED = "rt.node_restarted", Counter, "events", "`Runtime::restart` process restart (§13)";
    RT_TIMER_DRIFT_NS = "rt.timer_drift_ns", Histogram, "nanoseconds", "worker timer queue: firing lateness past the queued deadline (§16; rt only)";
    SCALE_CHECK_OK = "scale.check_ok", Counter, "checks", "`scale` probe host: check that reached its quorum (§15)";
    SCALE_CHECK_QUORUM_LATENCY_S = "scale.check_quorum_latency_s", Histogram, "seconds", "`scale` probe host: check send to quorum (§15)";
    SCALE_CHECK_REACH = "scale.check_reach", Histogram, "replies", "`scale` probe host: managers heard from per check (§15)";
    SCALE_CHECK_SENT = "scale.check_sent", Counter, "checks", "`scale` probe host: check begun (§15)";
    SCALE_CHECK_UNAVAIL = "scale.check_unavail", Counter, "checks", "`scale` probe host: check that timed out short of quorum (§15)";
    SCALE_MGR_SERVED = "scale.mgr_served", Counter, "messages", "`scale` probe manager: check answered (§15)";
    SCALE_REVOKE_ACKS = "scale.revoke_acks", Histogram, "acks", "`scale` probe admin: managers acknowledging per revoke (§15)";
    SCALE_REVOKE_SENT = "scale.revoke_sent", Counter, "ops", "`scale` probe admin: revoke begun (§15)";
    SHARD_0_CHECKS = "shard.0.checks", Counter, "checks", "`HostNode` check routed to global shard 0 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_0_QUERIES = "shard.0.queries", Counter, "messages", "`ManagerNode` query served for global shard 0 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_0_UPDATES = "shard.0.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 0 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_1_CHECKS = "shard.1.checks", Counter, "checks", "`HostNode` check routed to global shard 1 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_1_QUERIES = "shard.1.queries", Counter, "messages", "`ManagerNode` query served for global shard 1 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_1_UPDATES = "shard.1.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 1 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_2_CHECKS = "shard.2.checks", Counter, "checks", "`HostNode` check routed to global shard 2 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_2_QUERIES = "shard.2.queries", Counter, "messages", "`ManagerNode` query served for global shard 2 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_2_UPDATES = "shard.2.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 2 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_3_CHECKS = "shard.3.checks", Counter, "checks", "`HostNode` check routed to global shard 3 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_3_QUERIES = "shard.3.queries", Counter, "messages", "`ManagerNode` query served for global shard 3 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_3_UPDATES = "shard.3.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 3 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_4_CHECKS = "shard.4.checks", Counter, "checks", "`HostNode` check routed to global shard 4 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_4_QUERIES = "shard.4.queries", Counter, "messages", "`ManagerNode` query served for global shard 4 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_4_UPDATES = "shard.4.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 4 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_5_CHECKS = "shard.5.checks", Counter, "checks", "`HostNode` check routed to global shard 5 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_5_QUERIES = "shard.5.queries", Counter, "messages", "`ManagerNode` query served for global shard 5 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_5_UPDATES = "shard.5.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 5 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_6_CHECKS = "shard.6.checks", Counter, "checks", "`HostNode` check routed to global shard 6 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_6_QUERIES = "shard.6.queries", Counter, "messages", "`ManagerNode` query served for global shard 6 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_6_UPDATES = "shard.6.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 6 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_7_CHECKS = "shard.7.checks", Counter, "checks", "`HostNode` check routed to global shard 7 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_7_QUERIES = "shard.7.queries", Counter, "messages", "`ManagerNode` query served for global shard 7 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_7_UPDATES = "shard.7.updates", Counter, "messages", "`ManagerNode` admin op accepted for global shard 7 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_OTHER_CHECKS = "shard.other.checks", Counter, "checks", "`HostNode` check routed to a global shard id past 7 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_OTHER_QUERIES = "shard.other.queries", Counter, "messages", "`ManagerNode` query served for a global shard id past 7 (every deployment: an app served whole is the shard of its id, §14)";
    SHARD_OTHER_UPDATES = "shard.other.updates", Counter, "messages", "`ManagerNode` admin op accepted for a global shard id past 7 (every deployment: an app served whole is the shard of its id, §14)";
    STORAGE_WAL_FSYNC = "storage.wal_fsync", Counter, "fsyncs", "`FileStorage` fsync done (rt only, via `with_metrics`)";
    STORAGE_WAL_FSYNC_FAILED = "storage.wal_fsync_failed", Counter, "fsyncs", "`FileStorage` fsync error (rt only)";
    STORAGE_WAL_FSYNC_S = "storage.wal_fsync_s", Histogram, "seconds", "`FileStorage` wall-clock fsync latency (rt only)";
    USER_ALLOWED = "user.allowed", Counter, "requests", "`UserAgent` outcome: allowed";
    USER_BAD_SIGNATURE = "user.bad_signature", Counter, "requests", "`UserAgent` outcome: host refused the request's signature";
    USER_DENIED = "user.denied", Counter, "requests", "`UserAgent` outcome: denied";
    USER_SENT = "user.sent", Counter, "requests", "`UserAgent` request sent";
    USER_TIMEOUT = "user.timeout", Counter, "requests", "`UserAgent` outcome: no reply in time";
    USER_UNAVAILABLE = "user.unavailable", Counter, "requests", "`UserAgent` outcome: unavailable";
    USER_UNEXPECTED_MSG = "user.unexpected_msg", Counter, "requests", "`UserAgent` rejected input";
}

impl MetricId {
    /// This metric's registry row.
    pub fn def(self) -> &'static MetricDef {
        &REGISTRY[self.0 as usize]
    }

    /// The handle registered under `name`, if any.
    pub fn named(name: &str) -> Option<MetricId> {
        REGISTRY.binary_search_by(|row| row.name.cmp(name)).ok().map(|row| MetricId(row as u16))
    }
}

/// What names a metric to [`Metrics`] and [`crate::obs::MetricsSink`]: its
/// [`MetricId`], or a name. A registered name reaches the slot its
/// handle does; any other is an ad-hoc metric of that bag (tests and
/// benches record `test.value` and the like).
pub trait MetricKey: Copy {
    /// The handle this key is or names, else the ad-hoc name it is.
    fn resolve(&self) -> Result<MetricId, &str>;
}

impl MetricKey for MetricId {
    fn resolve(&self) -> Result<MetricId, &str> {
        Ok(*self)
    }
}

impl MetricKey for &str {
    fn resolve(&self) -> Result<MetricId, &str> {
        MetricId::named(self).ok_or(self)
    }
}

/// A bag of counters and histograms: a slot of each kind per [`REGISTRY`]
/// row, indexed by [`MetricId`], then per ad-hoc name. A slot is `None`
/// until something is recorded into it (a zero delta counts), and
/// only then is the metric listed and exported.
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: Vec<Option<u64>>,
    histograms: Vec<Option<Box<Histogram>>>,
    /// Names of the slots past the registry's, in slot order: what a
    /// by-name call searches for a name the registry lacks.
    ad_hoc: Vec<String>,
}

impl Default for Metrics {
    fn default() -> Self {
        let rows = REGISTRY.len();
        Metrics { counters: vec![None; rows], histograms: vec![None; rows], ad_hoc: Vec::new() }
    }
}

/// Two bags are equal when they recorded the same values under the same
/// names, in whatever order ad-hoc names were first seen.
impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        self.listed(&self.counters) == other.listed(&other.counters)
            && self.listed(&self.histograms) == other.listed(&other.histograms)
    }
}

impl Metrics {
    /// Creates an empty metrics bag.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, key: impl MetricKey) -> Option<usize> {
        match key.resolve() {
            Ok(id) => Some(id.0 as usize),
            Err(name) => self.ad_hoc.iter().position(|n| n == name).map(|at| REGISTRY.len() + at),
        }
    }

    /// The slot of `key`, opened if it is a new ad-hoc name.
    fn slot(&mut self, key: impl MetricKey) -> usize {
        self.find(key).unwrap_or_else(|| {
            self.ad_hoc.extend(key.resolve().err().map(str::to_owned));
            self.counters.push(None);
            self.histograms.push(None);
            self.counters.len() - 1
        })
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, key: impl MetricKey, delta: u64) {
        let at = self.slot(key);
        *self.counters[at].get_or_insert(0) += delta;
    }

    /// Increments a counter by one.
    pub fn incr(&mut self, key: impl MetricKey) {
        self.add(key, 1);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, key: impl MetricKey) -> u64 {
        self.find(key).and_then(|at| self.counters[at]).unwrap_or(0)
    }

    /// Records one sample into a histogram.
    pub fn observe(&mut self, key: impl MetricKey, value: f64) {
        let at = self.slot(key);
        self.histograms[at].get_or_insert_with(Default::default).record(value);
    }

    /// The histogram under `key`, if any samples were recorded.
    pub fn histogram(&self, key: impl MetricKey) -> Option<&Histogram> {
        self.find(key).and_then(|at| self.histograms[at].as_deref())
    }

    /// The recorded slots of one kind with their names, in name order.
    fn listed<'a, T>(&'a self, slots: &'a [Option<T>]) -> Vec<(&'a str, &'a T)> {
        let names = REGISTRY.iter().map(|row| row.name).chain(self.ad_hoc.iter().map(String::as_str));
        let mut all: Vec<_> =
            names.zip(slots).filter_map(|(name, slot)| Some((name, slot.as_ref()?))).collect();
        all.sort_by_key(|&(name, _)| name);
        all
    }

    /// Iterates over all recorded counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.listed(&self.counters).into_iter().map(|(name, value)| (name, *value))
    }

    /// Iterates over all recorded histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.listed(&self.histograms).into_iter().map(|(name, hist)| (name, &**hist))
    }

    /// Folds `other` into `self`, slot by slot: counters add, histograms
    /// [`Histogram::merge`]. Merging reports in a fixed order therefore
    /// yields a bit-identical rollup regardless of how the individual
    /// runs were scheduled.
    pub fn merge(&mut self, other: &Metrics) {
        let rows = REGISTRY.len();
        for theirs in 0..other.counters.len() {
            let mine = if theirs < rows { theirs } else { self.slot(other.ad_hoc[theirs - rows].as_str()) };
            if let Some(delta) = other.counters[theirs] {
                *self.counters[mine].get_or_insert(0) += delta;
            }
            if let Some(hist) = &other.histograms[theirs] {
                self.histograms[mine].get_or_insert_with(Default::default).merge(hist);
            }
        }
    }

    /// Clears all counters and histograms; the slot tables are kept.
    pub fn reset(&mut self) {
        self.ad_hoc.clear();
        self.counters.clear();
        self.counters.resize(REGISTRY.len(), None);
        self.histograms.clear();
        self.histograms.resize(REGISTRY.len(), None);
    }
}

/// Mantissa bits a bucket keeps: 2⁷ = 128 buckets per power of two, so a
/// bucket's lower edge is below any sample in it by less than 1/128.
const SUB_BITS: u32 = 7;
/// Samples below 2⁻⁴⁰ (≈ 10⁻¹²: zero, for a latency in any unit) are
/// counted as zero; samples of 2⁵⁰ and more share the top bucket.
const FLOOR: f64 = 1.0 / (1u64 << 40) as f64;
const TOP_KEY: u32 = ((1023 + 50) << SUB_BITS) - 1;

/// The bucket of a sample ≥ [`FLOOR`]: its exponent and leading
/// mantissa bits, which order as the values do.
fn bucket_key(value: f64) -> u32 {
    ((value.to_bits() >> (52 - SUB_BITS)) as u32).min(TOP_KEY)
}

/// The lower edge of a bucket.
fn bucket_floor(key: u32) -> f64 {
    f64::from_bits(u64::from(key) << (52 - SUB_BITS))
}

/// A fixed log-bucket histogram: bounded memory, mergeable by adding
/// counts.
///
/// `count`, `sum` (added up in recording order), `min` and `max` are
/// exact. A quantile is the lower edge of the bucket holding the
/// nearest-rank sample, raised to `min` if below it: never above that
/// sample and below it by less than 1/128 (0.79 %), and exactly it when
/// the sample is the largest, has at most eight significant bits —
/// every integer up to 256 — or the distribution is a single value.
/// Samples are magnitudes: a negative one is counted with the zeros.
/// Bucket storage spans the occupied range only, so equal recordings
/// compare equal field by field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    /// Smallest and largest sample.
    range: Option<(f64, f64)>,
    /// Samples below [`FLOOR`].
    zeros: u64,
    /// Key of `buckets[0]`.
    first: u32,
    buckets: Vec<u64>,
}

/// Order statistics of one histogram.
///
/// Produced by [`Histogram::summary`]; the exporters in [`crate::obs`]
/// render these fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples (in recording order, so deterministic).
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (nearest-rank, bucket value).
    pub p50: f64,
    /// 90th percentile (nearest-rank, bucket value).
    pub p90: f64,
    /// 99th percentile (nearest-rank, bucket value).
    pub p99: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "histogram samples must not be NaN");
        self.count += 1;
        self.sum += value;
        self.widen(value, value);
        if value < FLOOR {
            self.zeros += 1;
        } else {
            *self.bucket(bucket_key(value)) += 1;
        }
    }

    fn widen(&mut self, min: f64, max: f64) {
        self.range = Some(self.range.map_or((min, max), |(lo, hi)| (lo.min(min), hi.max(max))));
    }

    /// The count for `key`, the occupied range widened to hold it.
    fn bucket(&mut self, key: u32) -> &mut u64 {
        if self.buckets.is_empty() {
            self.first = key;
        } else if key < self.first {
            self.buckets.splice(0..0, std::iter::repeat_n(0, (self.first - key) as usize));
            self.first = key;
        }
        let index = (key - self.first) as usize;
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        &mut self.buckets[index]
    }

    /// Folds `other` in by adding counts: every field but `sum` ends as
    /// if `other`'s samples had been recorded here, and `sum`, a float
    /// added up in order, may differ from that in its last place.
    pub fn merge(&mut self, other: &Histogram) {
        let Some((min, max)) = other.range else { return };
        self.count += other.count;
        self.sum += other.sum;
        self.widen(min, max);
        self.zeros += other.zeros;
        if let Some(last) = other.buckets.len().checked_sub(1) {
            // Widen to `other`'s range, then add index for index.
            self.bucket(other.first + last as u32);
            self.bucket(other.first);
            let offset = (other.first - self.first) as usize;
            for (mine, theirs) in self.buckets[offset..].iter_mut().zip(&other.buckets) {
                *mine += theirs;
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The `q`-quantile (nearest-rank, bucket value), or `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        let (min, max) = self.range?;
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return Some(max);
        }
        let edges = (self.first..).map(bucket_floor);
        let mut seen = 0;
        // Zeros and buckets add up to `count`, so the scan always stops
        // at or before the top bucket; `max` bounds it regardless.
        let edge = std::iter::once((&self.zeros, 0.0))
            .chain(self.buckets.iter().zip(edges))
            .find(|&(n, _)| {
                seen += n;
                seen >= rank
            })
            .map_or(max, |(_, edge)| edge);
        Some(edge.max(min))
    }

    /// Order statistics over the current samples, or `None` when empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        let (min, max) = self.range?;
        Some(HistogramSummary {
            count: self.count(),
            sum: self.sum,
            mean: self.mean()?,
            min,
            max,
            p50: self.quantile(0.5)?,
            p90: self.quantile(0.9)?,
            p99: self.quantile(0.99)?,
        })
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.range.map(|(_, max)| max)
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.range.map(|(min, _)| min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn registry_is_in_name_order_without_duplicates() {
        for pair in REGISTRY.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} before {}", pair[0].name, pair[1].name);
        }
        for (row, def) in REGISTRY.iter().enumerate() {
            let id = MetricId::named(def.name).expect("every row is found by name");
            assert_eq!((id.0 as usize, id.def().name), (row, def.name));
        }
        assert_eq!(MetricId::named("test.value"), None);
    }

    #[test]
    fn a_name_and_its_handle_reach_the_same_slot() {
        let mut m = Metrics::new();
        m.incr(MetricId::NET_SENT);
        m.add("net.sent", 2);
        m.observe(MetricId::HOST_CHECK_LATENCY_S, 0.5);
        m.observe("host.check_latency_s", 0.25);
        assert_eq!((m.counter("net.sent"), m.counter(MetricId::NET_SENT)), (3, 3));
        assert_eq!(m.histogram(MetricId::HOST_CHECK_LATENCY_S).map(Histogram::count), Some(2));
        assert_eq!(m.counters().collect::<Vec<_>>(), [("net.sent", 3)]);
        assert_eq!(m.histograms().map(|(name, _)| name).collect::<Vec<_>>(), ["host.check_latency_s"]);
        assert!(m.ad_hoc.is_empty(), "a registered name opens no ad-hoc slot");
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("msgs");
        m.add("msgs", 4);
        assert_eq!(m.counter("msgs"), 5);
        assert_eq!(m.counter("other"), 0);
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut m = Metrics::new();
        m.incr("z");
        m.incr(MetricId::NET_SENT);
        m.incr("a");
        m.incr(MetricId::HOST_INVOKES);
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "host.invokes", "net.sent", "z"]);
    }

    #[test]
    fn equality_ignores_the_order_ad_hoc_names_were_first_seen_in() {
        let (mut a, mut b) = (Metrics::new(), Metrics::new());
        a.incr("x");
        a.observe("y", 2.0);
        b.observe("y", 2.0);
        b.incr("x");
        assert_eq!(a, b);
        b.incr("x");
        assert_ne!(a, b);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.incr("x");
        m.observe("h", 1.0);
        m.incr(MetricId::NET_SENT);
        m.reset();
        assert_eq!(m.counter("x"), 0);
        assert!(m.histogram("h").is_none());
        assert_eq!(m, Metrics::new());
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn quantile_edges_single_sample() {
        let mut h = Histogram::new();
        h.record(7.5);
        assert_eq!(h.quantile(0.0), Some(7.5));
        assert_eq!(h.quantile(0.5), Some(7.5));
        assert_eq!(h.quantile(1.0), Some(7.5));
        let s = h.summary().expect("non-empty");
        assert_eq!((s.count, s.min, s.max, s.p50, s.p99), (1, 7.5, 7.5, 7.5, 7.5));
    }

    #[test]
    fn quantile_edges_duplicate_values() {
        let mut h = Histogram::new();
        for v in [2.0, 2.0, 2.0, 9.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(2.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.75), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_out_of_range_panics() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.quantile(1.5);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut m = Metrics::new();
        m.incr("x");
        m.observe("h", 1.0);
        m.reset();
        m.incr("x");
        m.observe("h", 3.0);
        assert_eq!(m.counter("x"), 1);
        assert_eq!(m.histogram("h").and_then(|h| h.mean()), Some(3.0));
    }

    /// Merging adds bucket counts, which leaves every field but `sum` as
    /// concatenating the two sample sets would.
    #[test]
    fn merge_adds_counters_and_concatenates_samples() {
        let mut a = Metrics::new();
        a.add("c", 2);
        a.observe("h", 1.0);
        a.incr(MetricId::NET_SENT);
        let mut b = Metrics::new();
        b.add("c", 3);
        b.incr("only_b");
        b.observe("h", 2.0);
        b.observe("h2", 9.0);
        b.add(MetricId::NET_SENT, 4);
        b.observe(MetricId::MGR_TIME_TO_QUORUM_S, 0.5);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.counter("net.sent"), 5);
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(2.0);
        assert_eq!(a.histogram("h"), Some(&h), "as if both samples had been recorded here");
        assert_eq!(a.histogram("h2"), b.histogram("h2"));
        assert_eq!(a.histogram("mgr.time_to_quorum_s").and_then(|h| h.mean()), Some(0.5));
    }

    #[test]
    fn observe_via_metrics() {
        let mut m = Metrics::new();
        m.observe("latency", 0.25);
        m.observe("latency", 0.75);
        assert_eq!(m.histogram("latency").map(|h| h.count()), Some(2));
        assert_eq!(m.histogram("latency").and_then(|h| h.mean()), Some(0.5));
    }

    #[test]
    fn histogram_storage_follows_the_occupied_range() {
        let mut h = Histogram::new();
        assert_eq!(h.buckets.capacity(), 0, "an empty histogram owns no buckets");
        for _ in 0..10_000 {
            h.record(0.0);
            h.record(0.040);
        }
        assert_eq!(h.buckets.len(), 1, "zeros are counted beside the buckets, not spanned to");
        h.record(0.080);
        assert_eq!(h.buckets.len(), 129, "one octave is 128 buckets");
        // The whole range the layout admits: 90 octaves, 90 KB of counts.
        h.record(f64::MIN_POSITIVE);
        h.record(FLOOR);
        h.record(f64::INFINITY);
        h.record(f64::MAX);
        assert_eq!(h.buckets.len(), 90 * 128);
        assert_eq!((h.zeros, h.quantile(0.0), h.quantile(1.0)), (10_001, Some(0.0), Some(f64::INFINITY)));
        assert_eq!(h.quantile(0.99995), Some(bucket_floor(TOP_KEY)), "2^50 and up share the top bucket");
    }

    /// Non-negative samples from 1 ns to 10⁴ s in either unit the
    /// registry uses (seconds: 10⁻⁹…10⁴, nanoseconds: 1…10¹³), with
    /// zeros and small integers mixed in.
    fn samples() -> impl Strategy<Value = Vec<f64>> {
        let sample = (0u8..10, -9.0f64..13.0, 0u32..300).prop_map(|(pick, exp, int)| match pick {
            0 => 0.0,
            1 | 2 => f64::from(int),
            _ => 10f64.powf(exp),
        });
        proptest::collection::vec(sample, 1..400)
    }

    fn recorded(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        samples.iter().for_each(|&v| h.record(v));
        h
    }

    /// Every field but `sum`, which is a float added in order.
    fn but_sum(h: &Histogram) -> Histogram {
        Histogram { sum: 0.0, ..h.clone() }
    }

    fn merged(a: &Histogram, b: &Histogram) -> Histogram {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    proptest! {
        #[test]
        fn quantiles_track_the_exact_nearest_rank_within_the_bucket_error(
            samples in samples(),
            qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
        ) {
            let h = recorded(&samples);
            let mut exact = samples.clone();
            exact.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let (min, max) = (exact[0], exact[exact.len() - 1]);
            prop_assert_eq!((h.count(), h.min(), h.max()), (exact.len(), Some(min), Some(max)));
            prop_assert_eq!(h.sum, samples.iter().fold(0.0, |sum, v| sum + v));
            for q in qs.into_iter().chain([0.0, 0.5, 0.9, 0.99, 1.0]) {
                let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
                let (want, got) = (exact[rank - 1], h.quantile(q).expect("non-empty"));
                prop_assert!((min..=max).contains(&got), "q{q}: {got} outside [{min}, {max}]");
                prop_assert!(got <= want && want - got <= want / 128.0, "q{q}: {got} for {want}");
                if want <= 256.0 && want.fract() == 0.0 {
                    prop_assert_eq!(got, want, "small integers are exact");
                }
            }
        }

        #[test]
        fn merge_is_recording_both_and_is_associative_and_commutative(
            a in samples(), b in samples(), c in samples(),
        ) {
            let (ha, hb, hc) = (recorded(&a), recorded(&b), recorded(&c));
            let ab = merged(&ha, &hb);
            let both = recorded(&[a.clone(), b.clone()].concat());
            prop_assert_eq!(but_sum(&ab), but_sum(&both));
            prop_assert!((ab.sum - both.sum).abs() <= both.sum * 1e-12);
            prop_assert_eq!(but_sum(&ab), but_sum(&merged(&hb, &ha)));
            prop_assert_eq!(but_sum(&merged(&ab, &hc)), but_sum(&merged(&ha, &merged(&hb, &hc))));
            prop_assert_eq!(merged(&Histogram::new(), &ha), ha.clone(), "sum included: 0 + s is s");
            prop_assert_eq!(merged(&ha, &Histogram::new()), ha);
        }

        #[test]
        fn one_value_however_often_is_reported_exactly(value in 1e-9f64..1e13, n in 1usize..50, q in 0.0f64..=1.0) {
            let h = recorded(&vec![value; n]);
            prop_assert_eq!(h.quantile(q), Some(value));
            let s = h.summary().expect("non-empty");
            prop_assert_eq!((s.min, s.p50, s.p90, s.p99, s.max), (value, value, value, value, value));
        }
    }
}
