//! The metric registry (`wanacl_sim::metrics::REGISTRY`) is the truth,
//! checked both ways: whatever a deployment records is a row of it with
//! the row's kind, every row is recorded by some deployment here or is
//! on a list below that says why not, and DESIGN §11 prints exactly it.

use std::collections::BTreeSet;

use wanacl::analysis::empirical::{run_empirical, ScaleConfig};
use wanacl::baselines::prelude::{run_strategy_metered, ComparisonConfig, Strategy};
use wanacl::core::campaign::{run_campaign, CampaignConfig};
use wanacl::sim::metrics::{Kind, MetricId, Metrics, REGISTRY};
use wanacl::sim::time::SimDuration;

/// Rows only the live executor records: the worker pool, its router,
/// `FileStorage` and `ChaosRouter`. `crates/rt`'s own tests and
/// `wanacl chaos` exercise them.
const LIVE_ONLY: &[&str] = &[
    "rt.batch_size",
    "rt.chaos_delayed",
    "rt.chaos_dropped",
    "rt.chaos_duplicated",
    "rt.inbox_overflow",
    "rt.node_killed",
    "rt.node_restarted",
    "rt.timer_drift_ns",
    "storage.wal_fsync",
    "storage.wal_fsync_failed",
    "storage.wal_fsync_s",
];

/// Rows no deployment below records, each group with the reason.
const NOT_IN_A_CAMPAIGN: &[&str] = &[
    // Input an honest deployment never sends: a message kind the
    // receiver does not serve, a sender outside the configured set, a
    // tag, signature or record that does not verify, an unserved app.
    "admin.unexpected_msg",
    "host.auth_reject",
    "host.bad_channel_mac",
    "host.ns_reply_untrusted",
    "host.unexpected_msg",
    "host.unknown_app",
    "mgr.handoff_bad_record",
    "mgr.msg_from_non_peer",
    "mgr.unexpected_msg",
    "mgr.unknown_shard",
    "ns.negative_reply",
    "ns.publish_rejected",
    "ns.unexpected_msg",
    "ns.unknown_app",
    "user.bad_signature",
    "user.unexpected_msg",
    // Options `CampaignConfig::default_policy` and the campaign's
    // deployment leave off: fail-open exhaustion, proactive lease
    // refresh, the §3.3 freeze, serial admin, an admin without the
    // `manage` right, a directory with no trust anchor, a snapshot
    // interval shorter than a campaign's op count.
    "admin.op_queued",
    "admin.rejected",
    "host.fail_open",
    "host.latency.failopen_s",
    "host.ns_unverified",
    "host.refresh_denied",
    "host.refresh_failed",
    "host.refresh_renewed",
    "host.refresh_skipped_idle",
    "host.refresh_started",
    "mgr.admin_rejected",
    "mgr.freeze_transitions",
    "mgr.frozen_drops",
    "mgr.snapshot_writes",
    // Campaign managers have stable storage, so a restart recovers from
    // disk and never waits on a peer; the nemesis tears tails and fails
    // fsyncs but never an append.
    "mgr.recovered_via_sync",
    "mgr.recovering_drops",
    "mgr.sync_stamps_behind",
    "mgr.update_deferred_recovering",
    "mgr.wal_append_failed",
    // Races a campaign reaches on few seeds: listed so that this test
    // does not hang on which.
    "host.ns_pinned",
    "mgr.shard_transfer_resent",
    "mgr.sync_gap_resends",
];

/// Every name `metrics` recorded, checked against the registry as it
/// goes: a name recorded by name that the table lacks, or under the
/// other kind, fails here.
fn recorded(metrics: &Metrics, from: &str, seen: &mut BTreeSet<&'static str>) {
    let counters = metrics.counters().map(|(name, _)| (name, Kind::Counter));
    let histograms = metrics.histograms().map(|(name, _)| (name, Kind::Histogram));
    for (name, kind) in counters.chain(histograms) {
        let id = MetricId::named(name).unwrap_or_else(|| panic!("{from} records unregistered {name}"));
        assert_eq!(id.def().kind, kind, "{from} records {name} as the other kind");
        seen.insert(id.def().name);
    }
}

#[test]
fn what_deployments_record_and_what_the_registry_declares_are_the_same_set() {
    let mut seen = BTreeSet::new();
    let campaign = |config: CampaignConfig, label: &str, seen: &mut BTreeSet<&'static str>| {
        let report = run_campaign(&config);
        assert!(report.violations.is_empty(), "{label} seed {}: {:?}", config.seed, report.violations);
        // No site was left on text: every note the oracle saw was an
        // `AuditEvent` (an `audit=` line sent as free text would be
        // hashed and otherwise ignored).
        let stats = report.oracle_stats;
        assert!(stats.allows > 0 && stats.grants > 0, "{label} seed {}: {stats:?}", config.seed);
        assert_eq!(stats.untyped_notes, 0, "{label} seed {}", config.seed);
        recorded(&report.metrics, label, seen);
    };
    let short = |seed| CampaignConfig { seed, horizon: SimDuration::from_secs(8), ..Default::default() };
    for seed in 1..=30 {
        campaign(CampaignConfig { disk_faults: true, intensity: 2.0, ..short(seed) }, "flat", &mut seen);
        campaign(
            CampaignConfig { ns_replicas: 3, ns_faults: true, disk_faults: true, intensity: 2.0, ..short(seed) },
            "replicated directory",
            &mut seen,
        );
        campaign(
            CampaignConfig {
                users: 32,
                tenants: 2,
                shards_per_tenant: 5,
                ns_replicas: 3,
                shard_faults: true,
                ..short(100 + seed)
            },
            "sharded",
            &mut seen,
        );
    }
    let comparison = ComparisonConfig { horizon: SimDuration::from_secs(120), ..Default::default() };
    for strategy in Strategy::all() {
        recorded(&run_strategy_metered(strategy, &comparison).1, strategy.name(), &mut seen);
    }
    let probe = ScaleConfig {
        hosts: 50,
        pi: 0.4,
        horizon: SimDuration::from_secs(60),
        revoke_ops: 20,
        ..Default::default()
    };
    recorded(&run_empirical(&probe).metrics, "scale probe", &mut seen);

    for listed in LIVE_ONLY.iter().chain(NOT_IN_A_CAMPAIGN) {
        assert!(MetricId::named(listed).is_some(), "{listed} is listed but not registered");
    }
    for listed in LIVE_ONLY {
        assert!(!seen.contains(listed), "{listed} is listed as live-only, but the simulator recorded it");
    }
    let silent: Vec<&str> = REGISTRY
        .iter()
        .map(|row| row.name)
        .filter(|name| !seen.contains(name) && !LIVE_ONLY.contains(name) && !NOT_IN_A_CAMPAIGN.contains(name))
        .collect();
    assert!(silent.is_empty(), "registered, never recorded, on neither list: {silent:#?}");
}

/// The registry as DESIGN §11's Markdown table.
fn registry_markdown() -> Vec<String> {
    let rows = REGISTRY.iter().map(|row| {
        let kind = format!("{:?}", row.kind).to_lowercase();
        format!("| `{}` | {kind} | {} | {} |", row.name, row.unit, row.emitted_by)
    });
    ["| Name | Kind | Unit | Emitted by |".to_owned(), "|---|---|---|---|".to_owned()]
        .into_iter()
        .chain(rows)
        .collect()
}

/// DESIGN §11's table is [`registry_markdown`], line for line. To
/// regenerate it, run this test and replace the table with the lines
/// the failure prints under `want:`.
#[test]
fn design_section_11_prints_the_registry() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md at the repository root");
    let have: Vec<&str> = design
        .lines()
        .skip_while(|line| *line != "| Name | Kind | Unit | Emitted by |")
        .take_while(|line| line.starts_with('|'))
        .collect();
    let want = registry_markdown();
    for line in want.iter().filter(|line| !have.contains(&line.as_str())) {
        println!("+ {line}");
    }
    for line in have.iter().filter(|line| !want.iter().any(|w| w == *line)) {
        println!("- {line}");
    }
    assert!(have == want, "DESIGN §11 differs from the registry (diff above); want:\n{}", want.join("\n"));
}
