//! The three live workloads: an authenticated deployment on the worker
//! pool runtime, built from generated inputs and driven slice by slice.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wanacl_core::prelude::*;
#[cfg(test)]
use wanacl_rt::router::LossyPolicy;
use wanacl_rt::runtime::RtNode;
use wanacl_rt::{FileStorage, MetricsSink, Runtime, RuntimeBuilder};
use wanacl_sim::node::NodeId;
use wanacl_sim::time::SimDuration;

use crate::client::{
    Admin, AdminCtl, AdminReport, AdminTicks, ChurnTable, Client, ClientConfig, ClientTrace,
    Failures, Offence, SliceCtl, SliceReport,
};
use crate::gen::{
    self, client_hosts, client_req_base, InputSpec, Inputs, UserDraw, ADMIN_USER, APP,
};
use crate::machine;
use crate::stats::LogHist;
use crate::trace::{Request, Role, Span, Traced};

/// Managers in every live deployment, and the check quorum `C`.
pub const MANAGERS: usize = 3;
pub const CHECK_QUORUM: usize = 2;
/// Client nodes and runtime workers: one of each per core of the
/// two-core reference box. A single client serialises every reply
/// through one mailbox and caps the run, so there are two; they are
/// constants, not `nproc`, so that the work is the same on any machine.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// A slice that has not ended after this long is a stall: the run stops
/// and says so instead of hanging.
const SLICE_WATCHDOG: Duration = Duration::from_secs(60);
/// How long tearing a deployment down may take.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(20);

/// One live workload's fixed shape. Nothing here depends on the seed or
/// on the machine.
#[derive(Debug, Clone, Copy)]
pub struct LiveWorkload {
    pub name: &'static str,
    pub hosts: usize,
    pub users: usize,
    pub probes: usize,
    pub churn_users: usize,
    pub draw: UserDraw,
    pub pool_per_client: usize,
    pub prewarm: bool,
    /// Revocation bound `Te`.
    pub te: SimDuration,
    /// Host cache sweep and manager grant-table sweep interval.
    pub sweep: SimDuration,
    /// Outstanding invokes per client.
    pub window: usize,
    /// Checks per slice, all clients together.
    pub slice_checks: u64,
    /// Whether managers log to a `FileStorage` WAL (real fsync).
    pub storage: bool,
    /// Reads, all clients together, that buy one admin operation
    /// (0: no admin node works).
    pub reads_per_admin_op: u64,
    /// Discarded slices that end set-up, enough to reach the steady
    /// state: where leases expire, that is `Te` of wall time.
    pub warmup_slices: u64,
}

/// The steady state the cache exists for: every lease warm, `Te` far
/// away, so signature verify, cache lookup and two runtime hops do all
/// the work and managers and timers none.
pub const LIVE_WARM: LiveWorkload = LiveWorkload {
    name: "live_warm",
    hosts: 64,
    users: 1024,
    probes: 0,
    churn_users: 0,
    draw: UserDraw::Zipf(1.0),
    pool_per_client: 32 * 1024,
    prewarm: true,
    te: SimDuration::from_secs(3600),
    sweep: SimDuration::from_secs(3600),
    window: 32,
    slice_checks: 32_000,
    storage: false,
    reads_per_admin_op: 0,
    warmup_slices: 1,
};

/// Every check misses: distinct `(host, user)` pairs, more of them than
/// can be checked within `Te`, so the full host → managers → quorum →
/// cache-insert path runs with a query timer armed and cancelled per
/// check, at a steady table size kept by half-second sweeps.
pub const LIVE_COLD: LiveWorkload = LiveWorkload {
    name: "live_cold",
    hosts: 64,
    users: 16 * 1024,
    probes: 64,
    churn_users: 0,
    draw: UserDraw::DistinctPairs,
    pool_per_client: 128 * 1024,
    prewarm: false,
    te: SimDuration::from_secs(1),
    sweep: SimDuration::from_millis(500),
    window: 32,
    slice_checks: 3_000,
    storage: false,
    reads_per_admin_op: 0,
    warmup_slices: 16,
};

/// Reads beside writes: managers fsync a WAL before acknowledging, one
/// admin revokes and re-adds the 16 most popular users (one operation
/// per 600 reads, so 20 per slice), and leases last one second, so
/// update dissemination, revoke notices, cache removal and re-checks
/// share workers with the read path.
pub const LIVE_REVOKE: LiveWorkload = LiveWorkload {
    name: "live_revoke",
    hosts: 16,
    users: 256,
    probes: 8,
    churn_users: 16,
    draw: UserDraw::Zipf(1.2),
    pool_per_client: 32 * 1024,
    prewarm: false,
    te: SimDuration::from_secs(1),
    sweep: SimDuration::from_millis(500),
    window: 16,
    slice_checks: 12_000,
    storage: true,
    reads_per_admin_op: 600,
    warmup_slices: 24,
};

impl LiveWorkload {
    pub fn input_spec(&self) -> InputSpec {
        InputSpec {
            hosts: self.hosts,
            clients: CLIENTS,
            users: self.users,
            probes: self.probes,
            churn_users: self.churn_users,
            draw: self.draw,
            pool_per_client: self.pool_per_client,
            prewarm: self.prewarm,
        }
    }

    fn policy(&self) -> Policy {
        Policy::builder(CHECK_QUORUM)
            .revocation_bound(self.te)
            .clock_rate_bound(1.0)
            .query_timeout(SimDuration::from_millis(500))
            .max_attempts(2)
            .cache_sweep_interval(self.sweep)
            .build()
    }
}

/// How a deployment is built.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    pub workers: usize,
    /// Wrap hosts and managers in [`Traced`] and record client spans.
    pub traced: bool,
    /// Drop this fraction of the messages between nodes.
    #[cfg(test)]
    pub loss: Option<f64>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            workers: WORKERS,
            traced: false,
            #[cfg(test)]
            loss: None,
        }
    }
}

/// Which part of each client's pool a slice walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Each `(host, user)` pair once, to fill every lease.
    Prewarm,
    Measured,
}

/// What one slice measured, before normalisation.
#[derive(Debug)]
pub struct SliceOutcome {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub attempted: u64,
    pub failures: Failures,
    pub strays: u64,
    pub latency: LogHist,
    pub admin: Option<AdminReport>,
    pub offence: Option<Offence>,
}

/// The slice watchdog fired: some client never finished.
#[derive(Debug)]
pub struct Stalled;

/// A running live deployment.
pub struct Deployment {
    workload: LiveWorkload,
    rt: Runtime<ProtoMsg>,
    clients: Vec<(NodeId, Arc<SliceCtl>, std::ops::Range<usize>, usize)>,
    admin: Option<(NodeId, Arc<AdminCtl>)>,
    reports: Receiver<SliceReport>,
    admin_reports: Receiver<AdminReport>,
    pub churn: Option<Arc<ChurnTable>>,
    wal_dir: Option<PathBuf>,
    pub metrics: MetricsSink,
    pub epoch: Instant,
}

/// What a deployment leaves behind when it is shut down.
#[derive(Debug, Default)]
pub struct Remains {
    /// Invokes the hosts denied on a manager's verdict.
    pub denied: u64,
    /// Admin operations the managers originated, and the WAL syncs
    /// behind them.
    pub admin_ops: u64,
    pub wal_syncs: u64,
    pub spans: Vec<Span>,
    pub requests: Vec<Request>,
    /// `Revoke` sent → last allow seen, per standing revoke.
    pub revocation_window: LogHist,
}

/// Where the benchmark may write: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Deployment {
    /// Builds and starts the deployment for `workload` from `inputs`.
    pub fn build(workload: &LiveWorkload, inputs: &Inputs, options: BuildOptions) -> Deployment {
        let epoch = Instant::now();
        let policy = workload.policy();
        let mut acl = Acl::new();
        for user in 1..=workload.users as u64 {
            acl.add(UserId(user), Right::Use);
        }
        acl.add(ADMIN_USER, Right::Manage);
        let channel_keys = Arc::new(ChannelKeys::from_seed(0x77616e));

        let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(1);
        b.workers(options.workers);
        let metrics = b.metrics().clone();
        let wal_dir = workload.storage.then(|| {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            out_dir().join(format!("wal-{}-{n}", std::process::id()))
        });
        let span_capacity = if options.traced { 1 << 16 } else { 0 };

        let manager_ids: Vec<NodeId> = (0..MANAGERS).map(NodeId::from_index).collect();
        for (i, &id) in manager_ids.iter().enumerate() {
            let config = ManagerConfig {
                peers: manager_ids.iter().copied().filter(|p| *p != id).collect(),
                apps: vec![ManagerApp {
                    app: APP,
                    policy: policy.clone(),
                    initial_acl: acl.clone(),
                }],
                registry: Some(inputs.registry.clone()),
                enforce_manage_right: true,
                grant_sweep_interval: workload.sweep,
                ..ManagerConfig::default()
            };
            let mut node = ManagerNode::new(config);
            node.set_channel_keys(channel_keys.clone());
            if let Some(dir) = &wal_dir {
                let storage = FileStorage::open(dir.join(format!("m{i}")))
                    .expect("open manager WAL directory")
                    .with_metrics(metrics.clone());
                node.set_storage(Box::new(storage));
            }
            let node: Box<dyn RtNode<ProtoMsg>> = if options.traced {
                Box::new(Traced::new(node, Role::Manager, epoch, span_capacity))
            } else {
                Box::new(node)
            };
            assert_eq!(b.add_node(format!("manager{i}"), node), id);
        }

        // Layout: managers, clients, admin, hosts. Workers take nodes
        // round-robin, so the two clients land on different workers.
        let first_host = MANAGERS + CLIENTS + 1;
        let host_ids: Arc<[NodeId]> = (0..workload.hosts)
            .map(|h| NodeId::from_index(first_host + h))
            .collect();
        let churn = (workload.churn_users > 0).then(|| {
            Arc::new(ChurnTable::new(
                workload.churn_users,
                workload.te.as_nanos(),
            ))
        });

        let admin_id = NodeId::from_index(MANAGERS + CLIENTS);
        let (report_tx, reports) = channel();
        let mut clients = Vec::new();
        for (c, pool) in inputs.pools.iter().enumerate() {
            let ctl = Arc::new(SliceCtl::default());
            let hosts = client_hosts(c, CLIENTS, workload.hosts);
            let trace = options.traced.then(|| {
                ClientTrace::new(
                    hosts.start,
                    hosts.len(),
                    workload.users + workload.probes,
                    1 << 16,
                )
            });
            let node = Client::new(ClientConfig {
                hosts: host_ids.clone(),
                pool: pool.clone(),
                req_base: client_req_base(c),
                window: workload.window,
                ctl: ctl.clone(),
                churn: churn.clone(),
                report: report_tx.clone(),
                epoch,
                trace,
                // Each client ticks once per `reads_per_admin_op` of its
                // own reads, which is once per that many reads overall;
                // the clients' ticks alternate.
                ticks: (workload.reads_per_admin_op > 0).then(|| {
                    let every = workload.reads_per_admin_op;
                    let phase = every * (2 * c as u64 + 1) / (2 * CLIENTS as u64);
                    AdminTicks {
                        admin: admin_id,
                        every,
                        phase,
                    }
                }),
            });
            let id = b.add_node(format!("client{c}"), Box::new(node));
            clients.push((id, ctl, pool.prewarm..pool.entries.len(), pool.prewarm));
        }

        let (admin_tx, admin_reports) = channel();
        let admin_ctl = Arc::new(AdminCtl::default());
        let admin_node = Admin::new(
            manager_ids.clone(),
            inputs.admin_ops.clone(),
            churn
                .clone()
                .unwrap_or_else(|| Arc::new(ChurnTable::new(0, 0))),
            admin_ctl.clone(),
            admin_tx,
            epoch,
        );
        assert_eq!(b.add_node("admin", Box::new(admin_node)), admin_id);
        let admin = churn.is_some().then_some((admin_id, admin_ctl));

        for (h, &id) in host_ids.iter().enumerate() {
            let mut node = HostNode::new(
                vec![AppHost {
                    app: APP,
                    policy: policy.clone(),
                    directory: ManagerDirectory::Static(manager_ids.clone().into()),
                    application: Box::new(CountingApp::new()),
                }],
                Some(inputs.registry.clone()),
            );
            node.set_channel_keys(channel_keys.clone());
            let node: Box<dyn RtNode<ProtoMsg>> = if options.traced {
                Box::new(Traced::new(node, Role::Host, epoch, span_capacity))
            } else {
                Box::new(node)
            };
            assert_eq!(b.add_node(format!("host{h}"), node), id);
        }

        let rt = b.start();
        #[cfg(test)]
        if let Some(fraction) = options.loss {
            rt.router()
                .set_policy(Arc::new(tests::NodeTrafficLoss(LossyPolicy::new(fraction))));
        }
        Deployment {
            workload: *workload,
            rt,
            clients,
            admin,
            reports,
            admin_reports,
            churn,
            wal_dir,
            metrics,
            epoch,
        }
    }

    /// Messages the router has carried so far, and how many it dropped.
    pub fn router_stats(&self) -> (u64, u64) {
        self.rt.router().stats()
    }

    /// Runs one slice: kick every client with its share of `checks`,
    /// wait for their reports, pause the admin. The system is idle again
    /// when this returns.
    pub fn run_slice(&self, phase: Phase, checks: u64) -> Result<SliceOutcome, Stalled> {
        let cpu_before = machine::cpu_time_ns();
        let started = Instant::now();
        for (id, ctl, measured, prewarm) in &self.clients {
            let (range, quota) = match phase {
                Phase::Prewarm => (0..*prewarm, *prewarm as u64),
                Phase::Measured => (measured.clone(), checks / self.clients.len() as u64),
            };
            ctl.lo.store(range.start as u64, Ordering::SeqCst);
            ctl.hi.store(range.end as u64, Ordering::SeqCst);
            ctl.quota.store(quota, Ordering::SeqCst);
            self.rt.send_from_env(*id, ProtoMsg::Heartbeat);
        }
        if let (Phase::Measured, Some((id, ctl))) = (phase, &self.admin) {
            ctl.run.store(true, Ordering::SeqCst);
            self.rt.send_from_env(*id, ProtoMsg::Heartbeat);
        }

        let deadline = started + SLICE_WATCHDOG;
        let mut outcome = SliceOutcome {
            wall_s: 0.0,
            cpu_s: 0.0,
            attempted: 0,
            failures: Failures::default(),
            strays: 0,
            latency: LogHist::default(),
            admin: None,
            offence: None,
        };
        let mut ended = started;
        for _ in &self.clients {
            let wait = deadline.saturating_duration_since(Instant::now());
            let report = match self.reports.recv_timeout(wait) {
                Ok(report) => report,
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    return Err(Stalled)
                }
            };
            ended = ended.max(report.ended);
            outcome.attempted += report.attempted;
            outcome.failures.add(&report.failures);
            outcome.strays += report.strays;
            outcome.latency.merge(&report.latency);
            if outcome.offence.is_none() {
                outcome.offence = report.offence;
            }
        }
        outcome.cpu_s = (machine::cpu_time_ns() - cpu_before) as f64 / 1e9;
        outcome.wall_s = (ended - started).as_secs_f64();

        // The admin serves the ticks it still holds and reports; only
        // then is the system quiescent.
        if let (Phase::Measured, Some((id, ctl))) = (phase, &self.admin) {
            ctl.run.store(false, Ordering::SeqCst);
            self.rt.send_from_env(*id, ProtoMsg::Heartbeat);
            let wait = deadline.saturating_duration_since(Instant::now());
            outcome.admin = Some(self.admin_reports.recv_timeout(wait).map_err(|_| Stalled)?);
        }
        Ok(outcome)
    }

    /// Stops every node, within a bound, and collects what they hold.
    /// A teardown that does not end is a stall like any other.
    pub fn shutdown(self) -> Result<Remains, Stalled> {
        let Deployment { rt, wal_dir, .. } = self;
        let (tx, rx) = channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(rt.shutdown());
        });
        let nodes = rx.recv_timeout(SHUTDOWN_LIMIT).map_err(|_| Stalled)?;
        handle.join().expect("shutdown thread panicked");

        let mut remains = Remains::default();
        for outcome in nodes {
            let (_, node) = outcome.expect("a node under test panicked");
            let any = node.as_any();
            if let Some(traced) = any.downcast_ref::<Traced<HostNode>>() {
                remains.spans.extend_from_slice(&traced.spans);
            } else if let Some(traced) = any.downcast_ref::<Traced<ManagerNode>>() {
                remains.spans.extend_from_slice(&traced.spans);
            } else if let Some(trace) = any.downcast_ref::<Client>().and_then(|c| c.trace.as_ref())
            {
                remains.spans.extend_from_slice(&trace.spans);
                remains.requests.extend_from_slice(&trace.requests);
            }
            if let Some(admin) = any.downcast_ref::<Admin>() {
                remains.revocation_window.merge(&admin.window);
            }
            let host = any
                .downcast_ref::<HostNode>()
                .or_else(|| any.downcast_ref::<Traced<HostNode>>().map(Traced::inner));
            remains.denied += host.map_or(0, |h| h.stats().denied);
            let manager = any
                .downcast_ref::<ManagerNode>()
                .or_else(|| any.downcast_ref::<Traced<ManagerNode>>().map(Traced::inner));
            if let Some(manager) = manager {
                remains.admin_ops += manager.stats().ops_originated;
                remains.wal_syncs += manager.storage_stats().map_or(0, |s| s.syncs);
            }
        }
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(remains)
    }

    pub fn workload(&self) -> &LiveWorkload {
        &self.workload
    }
}

/// Generates the inputs and builds a ready deployment: leases filled if
/// the workload pre-warms, and its discarded warm-up slices run. This is
/// what `setup_s` times.
pub fn set_up(
    workload: &LiveWorkload,
    seed: u64,
    options: BuildOptions,
) -> Result<(Deployment, Inputs), Stalled> {
    let inputs = gen::generate(&workload.input_spec(), seed);
    let deployment = Deployment::build(workload, &inputs, options);
    if workload.prewarm {
        deployment.run_slice(Phase::Prewarm, 0)?;
    }
    for _ in 0..workload.warmup_slices {
        deployment.run_slice(Phase::Measured, workload.slice_checks)?;
    }
    Ok((deployment, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wanacl_rt::router::LinkPolicy;

    /// Loses messages between nodes but never the main thread's kicks:
    /// those stand for the harness's own control, not for the network.
    pub struct NodeTrafficLoss(pub Arc<LossyPolicy>);

    impl LinkPolicy<ProtoMsg> for NodeTrafficLoss {
        fn allow(&self, from: NodeId, to: NodeId, msg: &ProtoMsg) -> bool {
            from == NodeId::ENV || self.0.allow(from, to, msg)
        }
    }

    /// A small workload, so the tests take a second or two.
    fn tiny(storage: bool, churn_users: usize) -> LiveWorkload {
        LiveWorkload {
            name: "tiny",
            hosts: 4,
            users: 64,
            probes: 4,
            churn_users,
            draw: UserDraw::Zipf(1.0),
            pool_per_client: 2_000,
            prewarm: false,
            te: SimDuration::from_secs(1),
            sweep: SimDuration::from_millis(500),
            window: 8,
            slice_checks: 2_000,
            storage,
            reads_per_admin_op: if churn_users > 0 { 100 } else { 0 },
            warmup_slices: 1,
        }
    }

    #[test]
    fn every_reply_is_judged_and_a_clean_run_has_no_failures() {
        let workload = tiny(true, 4);
        let (deployment, _) = set_up(&workload, 5, BuildOptions::default()).expect("set-up");
        let outcome = deployment
            .run_slice(Phase::Measured, 2_000)
            .expect("slice ends");
        assert_eq!(outcome.attempted, 2_000);
        assert_eq!(
            outcome.failures,
            Failures::default(),
            "{:?}",
            outcome.offence
        );
        assert_eq!(outcome.latency.count(), 2_000);
        let admin = outcome.admin.expect("churn workload reports its admin");
        // One operation per hundred reads; a tick that overtakes its
        // slice's end is served by the next slice.
        assert!(
            (19..=21).contains(&admin.attempted),
            "{} admin operations",
            admin.attempted
        );
        assert_eq!(admin.failed, 0);
        let remains = deployment.shutdown().expect("bounded shutdown");
        // Probe users are denied by the managers, never allowed.
        assert!(remains.denied > 0);
        assert!(
            remains.admin_ops > 0 && remains.wal_syncs > 0,
            "admin ops reach the WAL"
        );
    }

    /// Stall-proofing: with one message in fifty dropped, lost invokes
    /// and replies never complete. The slice must still end, and the
    /// losses must show as failed operations, not as a hang.
    #[test]
    fn dropped_messages_become_failed_operations_not_a_hang() {
        let workload = tiny(false, 0);
        let inputs = gen::generate(&workload.input_spec(), 9);
        let options = BuildOptions {
            loss: Some(0.02),
            ..BuildOptions::default()
        };
        let deployment = Deployment::build(&workload, &inputs, options);
        let started = Instant::now();
        let outcome = deployment
            .run_slice(Phase::Measured, 1_000)
            .expect("slice ends");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "deadlines bound the slice"
        );
        assert_eq!(
            outcome.attempted, 1_000,
            "the window is refilled after a loss"
        );
        assert!(
            outcome.failures.timeouts > 0,
            "a lost invoke or reply times out"
        );
        assert_eq!(
            outcome.failures.wrong_verdicts, 0,
            "loss never flips a verdict"
        );
        assert_eq!(outcome.latency.count() + outcome.failures.timeouts, 1_000);
        deployment.shutdown().expect("bounded shutdown");
    }

    #[test]
    fn traced_deployments_record_spans_for_every_check() {
        let workload = tiny(false, 0);
        let options = BuildOptions {
            traced: true,
            ..BuildOptions::default()
        };
        let (deployment, _) = set_up(&workload, 3, options).expect("set-up");
        deployment
            .run_slice(Phase::Measured, 2_000)
            .expect("slice ends");
        let mut remains = deployment.shutdown().expect("bounded shutdown");
        assert_eq!(remains.requests.len(), 4_000, "warm-up and measured slice");
        let summary = crate::trace::summarise(&mut remains.spans, &remains.requests, CHECK_QUORUM);
        assert!(summary.host_calls_per_check >= 1.0);
        // The blocking path tiles each request: nothing is unexplained.
        assert!(
            summary.unexplained_frac.abs() < 0.02,
            "{}",
            summary.unexplained_frac
        );
    }
}
