//! One-stop deployment assembly for experiments, examples, and tests.
//!
//! A [`Scenario`] describes a complete §2.2 system — managers, application
//! hosts, users, an admin, optionally a name service — and lays it out as
//! a [`Roster`]: the nodes in id order plus their [`Layout`]. Installing
//! the roster on a simulated WAN gives a ready-to-run [`Deployment`]
//! ([`Scenario::build`] does both steps); `wanacl-rt` installs the same
//! roster on live threads.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wanacl_auth::rsa::SecretKey;
use wanacl_auth::signed::{KeyRegistry, PrincipalId};
use wanacl_sim::clock::ClockSpec;
use wanacl_sim::net::NetModel;
use wanacl_sim::node::{Node, NodeId};
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::world::World;

use crate::client::{AdminAction, AdminAgent, AdminAgentConfig, AdminRoute, UserAgent, UserAgentConfig};
use crate::host::{AppHost, HostNode, ManagerDirectory};
use crate::manager::{ManagerApp, ManagerConfig, ManagerNode, ManagerShard};
use crate::msg::{AclOp, NsRecord, ProtoMsg, ReqId, ShardEntry};
use crate::nameservice::DirectoryReplica;
use crate::policy::Policy;
use crate::types::{Acl, AppId, Right, ShardId, UserId};
use crate::wrapper::{Application, CountingApp};

/// The principal that signs directory records. Replicas and hosts trust
/// exactly this writer; records signed by anyone else are rejected.
pub const NS_WRITER: PrincipalId = PrincipalId(2_000_000);

/// Builder describing a full deployment. Start from [`Scenario::builder`].
pub struct Scenario {
    seed: u64,
    app: AppId,
    policy: Policy,
    tenants: usize,
    shards_per_tenant: usize,
    managers: usize,
    hosts: usize,
    users: usize,
    initial_rights: Vec<(UserId, Right)>,
    authenticate: bool,
    ns_replicas: usize,
    ns_read_quorum: usize,
    ns_ttl: SimDuration,
    net: Option<Box<dyn NetModel>>,
    manager_clock: ClockSpec,
    host_clock: ClockSpec,
    workload: Option<crate::client::WorkloadShape>,
    request_timeout: SimDuration,
    admin_script: Vec<AdminAction>,
    serial_admin: bool,
    app_factory: Box<dyn Fn(usize) -> Box<dyn Application>>,
    manager_config: ManagerConfig,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("managers", &self.managers)
            .field("hosts", &self.hosts)
            .field("users", &self.users)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Starts a scenario with the given seed. Defaults: one manager, one
    /// host, one user (id 1, granted `use`), no authentication, perfect
    /// clocks, 50 ms perfect network, counting application.
    pub fn builder(seed: u64) -> Scenario {
        Scenario {
            seed,
            app: AppId(0),
            policy: Policy::default(),
            tenants: 0,
            shards_per_tenant: 1,
            managers: 1,
            hosts: 1,
            users: 1,
            initial_rights: Vec::new(),
            authenticate: false,
            ns_replicas: 0,
            ns_read_quorum: 0,
            ns_ttl: SimDuration::from_secs(300),
            net: None,
            manager_clock: ClockSpec::Perfect,
            host_clock: ClockSpec::Perfect,
            workload: None,
            request_timeout: SimDuration::from_secs(10),
            admin_script: Vec::new(),
            serial_admin: false,
            app_factory: Box::new(|_| Box::new(CountingApp::new())),
            manager_config: ManagerConfig::default(),
        }
    }

    /// Switches the deployment to sharded multi-tenant mode: `n` tenants,
    /// each an application `AppId(0..n)` whose ACL keyspace is split into
    /// [`Scenario::shards_per_tenant`] bucket-range shards served by two
    /// managers each. Requires [`Scenario::with_replicated_directory`]
    /// (the signed shard map is a directory record). User `u` belongs to
    /// tenant `(u - 1) % n`. `0` (the default) is the one-tenant,
    /// one-shard case: [`Scenario::managers`] managers serve `AppId(0)`'s
    /// whole keyspace.
    pub fn tenants(mut self, n: usize) -> Self {
        self.tenants = n;
        self
    }

    /// Number of shards each tenant's keyspace is split into (sharded
    /// mode only; default 1).
    pub fn shards_per_tenant(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one shard per tenant");
        assert!(k <= 256, "at most one shard per bucket");
        self.shards_per_tenant = k;
        self
    }

    /// Sets the number of managers `M`.
    pub fn managers(mut self, m: usize) -> Self {
        assert!(m >= 1, "need at least one manager");
        self.managers = m;
        self
    }

    /// Sets the number of application hosts.
    pub fn hosts(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one host");
        self.hosts = n;
        self
    }

    /// Sets the number of users. Users get ids `1..=n`.
    pub fn users(mut self, n: usize) -> Self {
        self.users = n;
        self
    }

    /// Sets the per-application policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Grants initial rights in the bootstrap ACL (beyond the admin's
    /// `manage` right, which is always present).
    pub fn initial_rights(mut self, rights: Vec<(UserId, Right)>) -> Self {
        self.initial_rights = rights;
        self
    }

    /// Grants every user the `use` right at bootstrap.
    pub fn all_users_granted(mut self) -> Self {
        for i in 1..=self.users {
            self.initial_rights.push((UserId(i as u64), Right::Use));
        }
        self
    }

    /// Turns on RSA message authentication for invokes and admin ops.
    pub fn authenticate(mut self) -> Self {
        self.authenticate = true;
        self
    }

    /// Discovers managers through the §3.2 name service instead of
    /// static configuration — a replicated, signed directory:
    /// `replicas` [`DirectoryReplica`] nodes hold versioned records
    /// signed by [`NS_WRITER`], and every host issues quorum reads of
    /// `read_quorum` verified replies (pass 0 for a majority). One
    /// replica with quorum 1 is the paper's single name service.
    pub fn with_replicated_directory(
        mut self,
        replicas: usize,
        read_quorum: usize,
        ttl: SimDuration,
    ) -> Self {
        assert!(replicas >= 1, "need at least one directory replica");
        assert!(read_quorum <= replicas, "read quorum cannot exceed the replica count");
        self.ns_replicas = replicas;
        self.ns_read_quorum = if read_quorum == 0 { replicas / 2 + 1 } else { read_quorum };
        self.ns_ttl = ttl;
        self
    }

    /// Installs a network model (default: perfect 50 ms links).
    pub fn net(mut self, net: Box<dyn NetModel>) -> Self {
        self.net = Some(net);
        self
    }

    /// Clock spec for manager nodes.
    pub fn manager_clock(mut self, spec: ClockSpec) -> Self {
        self.manager_clock = spec;
        self
    }

    /// Clock spec for host nodes.
    pub fn host_clock(mut self, spec: ClockSpec) -> Self {
        self.host_clock = spec;
        self
    }

    /// Enables the automatic Poisson workload on every user agent.
    pub fn workload(mut self, mean_interarrival: SimDuration) -> Self {
        self.workload = Some(crate::client::WorkloadShape::Poisson { mean: mean_interarrival });
        self
    }

    /// Sets the user-side request timeout.
    pub fn request_timeout(mut self, t: SimDuration) -> Self {
        self.request_timeout = t;
        self
    }

    /// Scripts admin operations.
    pub fn admin_script(mut self, script: Vec<AdminAction>) -> Self {
        self.admin_script = script;
        self
    }

    /// Gives the admin §2.3 blocking semantics: operations issue one at
    /// a time, each waiting for the previous `Stable`.
    pub fn serial_admin(mut self) -> Self {
        self.serial_admin = true;
        self
    }

    /// Sets the application each host wraps (called once per host index).
    pub fn application<F>(mut self, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn Application> + 'static,
    {
        self.app_factory = Box::new(factory);
        self
    }

    /// Overrides manager timing configuration (retry/heartbeat/sweep).
    pub fn manager_tuning(mut self, config: ManagerConfig) -> Self {
        self.manager_config = config;
        self
    }

    /// Builds the deployment on a simulated world.
    pub fn build(mut self) -> Deployment {
        let net = self.net.take();
        self.roster().into_deployment(net)
    }

    /// Lays the deployment out without choosing who runs it: the nodes
    /// in id order, plus everything a driver needs to address them.
    /// [`Roster::into_deployment`] installs it on a simulated world
    /// (that is all [`Scenario::build`] does); `wanacl_rt::install_roster`
    /// installs it on the live runtime. The network model, if one was
    /// set, is not part of the roster.
    pub fn roster(self) -> Roster {
        let mut entries: Vec<RosterEntry> = Vec::new();
        let mut add = |name: String, clock: ClockSpec, node: RosterNode| -> NodeId {
            entries.push(RosterEntry { name, clock, node });
            NodeId::from_index(entries.len() - 1)
        };

        // Deterministic key material.
        let mut keyrng = StdRng::seed_from_u64(self.seed ^ 0x00a1_1ce5);
        let admin_user = UserId(1_000_000);
        let mut registry = KeyRegistry::new();
        let mut user_secrets: Vec<Option<SecretKey>> = Vec::new();
        let mut admin_secret = None;
        if self.authenticate {
            for i in 1..=self.users {
                let kp = registry.enroll(UserId(i as u64).into(), &mut keyrng);
                user_secrets.push(Some(kp.secret));
            }
            let kp = registry.enroll(admin_user.into(), &mut keyrng);
            admin_secret = Some(kp.secret);
        } else {
            user_secrets.resize(self.users, None);
        }
        // The directory writer key comes from its own stream so enabling
        // the replicated directory never perturbs user/admin keys.
        let mut ns_writer_secret = None;
        if self.ns_replicas > 0 {
            let mut wrng = StdRng::seed_from_u64(self.seed ^ 0x6e73_7772);
            let kp = registry.enroll(NS_WRITER, &mut wrng);
            ns_writer_secret = Some(kp.secret);
        }
        let registry = Arc::new(registry);
        let registry_opt = if self.authenticate { Some(registry.clone()) } else { None };
        // Authenticated deployments also authenticate the host<->manager
        // channel with pairwise HMAC keys.
        let channel = if self.authenticate {
            Some(Arc::new(crate::channel::ChannelKeys::from_seed(self.seed ^ 0xc4a7)))
        } else {
            None
        };

        // Bootstrap ACL: admin manages, plus configured rights.
        let mut initial_acl = Acl::new();
        initial_acl.add(admin_user, Right::Manage);
        for (user, right) in &self.initial_rights {
            initial_acl.add(*user, *right);
        }

        // Sharded multi-tenant layout: tenant `t` is `AppId(t)`, its
        // keyspace splits into `shards_per_tenant` contiguous bucket
        // ranges, and global shard `s` is served by managers `2s` and
        // `2s+1`. Without tenants, every manager serves `self.app`'s
        // whole keyspace. Past the owner sets, nothing below branches.
        let sharded = self.tenants > 0;
        let managers_total = if sharded {
            assert!(
                self.ns_replicas > 0,
                "sharded mode publishes the shard map through the replicated \
                 directory; call with_replicated_directory first"
            );
            2 * self.tenants * self.shards_per_tenant
        } else {
            self.managers
        };
        let apps: Vec<AppId> =
            if sharded { (0..self.tenants as u32).map(AppId).collect() } else { vec![self.app] };
        // Per-app bootstrap ACL. Tenants are isolated: a user's initial
        // rights land only on their own tenant's application.
        let acl_for = |app: AppId| -> Acl {
            if !sharded {
                return initial_acl.clone();
            }
            let mut acl = Acl::new();
            acl.add(admin_user, Right::Manage);
            for (user, right) in &self.initial_rights {
                if user.0 >= 1 && (user.0 - 1) % self.tenants as u64 == u64::from(app.0) {
                    acl.add(*user, *right);
                }
            }
            acl
        };
        // Managers occupy ids 0..M (added first, so ids are known up
        // front for peer lists).
        let manager_ids: Vec<NodeId> = (0..managers_total).map(NodeId::from_index).collect();
        let spt = self.shards_per_tenant;
        let shard_entries: Vec<(AppId, ShardEntry)> = if sharded {
            (0..self.tenants * spt)
                .map(|s| {
                    let (t, j) = (s / spt, s % spt);
                    let entry = ShardEntry {
                        shard: ShardId(s as u32),
                        lo: (j * 256 / spt) as u8,
                        hi: ((j + 1) * 256 / spt - 1) as u8,
                        managers: vec![NodeId::from_index(2 * s), NodeId::from_index(2 * s + 1)],
                    };
                    (AppId(t as u32), entry)
                })
                .collect()
        } else {
            vec![(self.app, ShardEntry::whole_keyspace(self.app, manager_ids.clone()))]
        };
        for (i, &id) in manager_ids.iter().enumerate() {
            let peers: Vec<NodeId> =
                manager_ids.iter().copied().filter(|p| *p != id).collect();
            // Every manager carries the full per-app bootstrap ACL; the
            // shard map — not ACL content — decides who serves whom, so a
            // rebalance target can activate on deltas alone.
            let shards: Vec<ManagerShard> = shard_entries
                .iter()
                .filter(|(_, e)| e.managers.contains(&id))
                .map(|(app, e)| ManagerShard {
                    shard: e.shard,
                    app: *app,
                    lo: e.lo,
                    hi: e.hi,
                    peers: e.managers.iter().copied().filter(|m| *m != id).collect(),
                })
                .collect();
            let config = ManagerConfig {
                peers,
                apps: apps
                    .iter()
                    .map(|&app| ManagerApp {
                        app,
                        policy: self.policy.clone(),
                        initial_acl: acl_for(app),
                    })
                    .collect(),
                registry: registry_opt.clone(),
                enforce_manage_right: self.authenticate,
                shards,
                ns_trust: Some(registry.clone()),
                ..self.manager_config.clone()
            };
            let spec = ManagerSpec { config, channel: channel.clone() };
            add(format!("manager{i}"), self.manager_clock, RosterNode::Manager(spec));
        }

        // Optional replicated directory: replicas sit right after the
        // managers so campaign node layouts stay arithmetic. Each starts
        // from the same signed genesis record (version 1).
        let mut ns_replica_ids: Vec<NodeId> = Vec::new();
        // The writer key exists exactly when replicas do.
        if let Some(secret) = &ns_writer_secret {
            let first = managers_total;
            ns_replica_ids =
                (first..first + self.ns_replicas).map(NodeId::from_index).collect();
            // One genesis record per app: its shard map, version 1 =
            // handoff epoch 1.
            let genesis: Vec<NsRecord> = apps
                .iter()
                .map(|&app| {
                    let entries: Vec<ShardEntry> = shard_entries
                        .iter()
                        .filter(|(a, _)| *a == app)
                        .map(|(_, e)| e.clone())
                        .collect();
                    NsRecord::signed(app, 1, entries, NS_WRITER, secret)
                })
                .collect();
            for (i, &id) in ns_replica_ids.iter().enumerate() {
                let peers: Vec<NodeId> =
                    ns_replica_ids.iter().copied().filter(|p| *p != id).collect();
                let mut replica =
                    DirectoryReplica::new(self.ns_ttl, peers, registry.clone(), NS_WRITER);
                for record in &genesis {
                    replica.preload(record.clone());
                }
                add(format!("nsreplica{i}"), ClockSpec::Perfect, RosterNode::Directory(replica));
            }
        }

        // Hosts. The static manager list is shared once across every
        // host/app instead of cloned per host (O(hosts) at 10k+ hosts).
        let shared_managers: Arc<[NodeId]> = manager_ids.clone().into();
        let mut host_ids = Vec::with_capacity(self.hosts);
        for i in 0..self.hosts {
            let directory = if ns_replica_ids.is_empty() {
                ManagerDirectory::Static(shared_managers.clone())
            } else {
                ManagerDirectory::Replicated {
                    replicas: ns_replica_ids.clone(),
                    read_quorum: self.ns_read_quorum,
                }
            };
            let mut host = HostNode::new(
                apps.iter()
                    .map(|&app| AppHost {
                        app,
                        policy: self.policy.clone(),
                        directory: directory.clone(),
                        application: (self.app_factory)(i),
                    })
                    .collect(),
                registry_opt.clone(),
            );
            if !ns_replica_ids.is_empty() {
                host.set_ns_trust(registry.clone(), NS_WRITER);
            }
            if let Some(keys) = &channel {
                host.set_channel_keys(keys.clone());
            }
            host_ids.push(add(format!("host{i}"), self.host_clock, RosterNode::Host(host)));
        }

        // Users. The host list is shared across all user agents — at
        // scale, per-user clones were the largest setup allocation
        // (O(hosts × users) NodeIds).
        let shared_hosts: Arc<[NodeId]> = host_ids.clone().into();
        let mut users = Vec::with_capacity(self.users);
        for i in 1..=self.users {
            let user = UserId(i as u64);
            let user_app =
                if sharded { AppId(((i - 1) % self.tenants) as u32) } else { self.app };
            let agent = UserAgent::new(UserAgentConfig {
                user,
                app: user_app,
                hosts: shared_hosts.clone(),
                workload: self.workload,
                payload: format!("request-from-{user}").into(),
                secret: user_secrets[i - 1],
                request_timeout: self.request_timeout,
                max_requests: None,
            });
            let id = add(format!("user{i}"), ClockSpec::Perfect, RosterNode::User(agent));
            users.push((user, id));
        }

        // Admin.
        let admin = add(
            "admin".into(),
            ClockSpec::Perfect,
            RosterNode::Admin(AdminAgent::new(AdminAgentConfig {
                issuer: admin_user,
                secret: admin_secret,
                manager: manager_ids[0],
                routes: shard_entries
                    .iter()
                    .map(|(app, e)| AdminRoute {
                        app: *app,
                        lo: e.lo,
                        hi: e.hi,
                        manager: e.managers[0],
                    })
                    .collect(),
                script: self.admin_script,
                resend_interval: SimDuration::from_millis(500),
                serial: self.serial_admin,
            })),
        );

        // The live shard map the deployment tracks for rebalances: per
        // app, the current record version plus its entries.
        let mut shard_maps: BTreeMap<AppId, (u64, Vec<ShardEntry>)> = BTreeMap::new();
        for (app, entry) in &shard_entries {
            shard_maps.entry(*app).or_insert_with(|| (1, Vec::new())).1.push(entry.clone());
        }

        Roster {
            seed: self.seed,
            entries,
            layout: Layout {
                app: self.app,
                tenants: self.tenants,
                shards_per_tenant: self.shards_per_tenant,
                managers: manager_ids,
                hosts: host_ids,
                users,
                admin,
                admin_user,
                ns_replicas: ns_replica_ids,
                ns_writer_secret,
                shard_maps,
            },
        }
    }
}

/// Everything needed to construct one manager, short of its stable
/// storage. Managers are the one node kind a roster describes instead
/// of holding: the live runtime rebuilds a killed manager from this
/// description, reopening its storage directory.
#[derive(Debug, Clone)]
pub struct ManagerSpec {
    /// Peers, apps, shards, trust anchors and timers.
    pub config: ManagerConfig,
    /// Host↔manager channel keys (authenticated deployments).
    pub channel: Option<Arc<crate::channel::ChannelKeys>>,
}

impl ManagerSpec {
    /// Constructs the manager (attach storage before it starts).
    pub fn build(&self) -> ManagerNode {
        let mut node = ManagerNode::new(self.config.clone());
        if let Some(keys) = &self.channel {
            node.set_channel_keys(keys.clone());
        }
        node
    }
}

/// One node of a [`Roster`].
#[derive(Debug)]
pub enum RosterNode {
    /// An ACL manager, as its construction recipe.
    Manager(ManagerSpec),
    /// A replica of the signed directory.
    Directory(DirectoryReplica),
    /// An application host.
    Host(HostNode),
    /// A user agent.
    User(UserAgent),
    /// The admin agent.
    Admin(AdminAgent),
}

/// One roster row; the row's index is the node's id on any executor.
#[derive(Debug)]
pub struct RosterEntry {
    /// Node name (`manager0`, `host1`, ...).
    pub name: String,
    /// The local clock the node runs on, drawn from its RNG stream by
    /// the step rule's stream rule on either executor.
    pub clock: ClockSpec,
    /// The node.
    pub node: RosterNode,
}

/// A deployment laid out but not yet running anywhere: what
/// [`Scenario::roster`] returns and what each executor installs.
#[derive(Debug)]
pub struct Roster {
    /// The root of the stream rule (`wanacl_sim::node::Streams`) that
    /// gives each node its RNG stream and clock, on either executor.
    pub seed: u64,
    /// The nodes, in id order.
    pub entries: Vec<RosterEntry>,
    /// How to address them.
    pub layout: Layout,
}

impl Roster {
    /// Installs the roster on a fresh simulated world over `net`
    /// (default: perfect 50 ms links).
    pub fn into_deployment(self, net: Option<Box<dyn NetModel>>) -> Deployment {
        let mut world: World<ProtoMsg> = World::new(self.seed);
        if let Some(net) = net {
            world.set_net(net);
        }
        for entry in self.entries {
            let node: Box<dyn Node<Msg = ProtoMsg>> = match entry.node {
                RosterNode::Manager(spec) => Box::new(spec.build()),
                RosterNode::Directory(node) => Box::new(node),
                RosterNode::Host(node) => Box::new(node),
                RosterNode::User(node) => Box::new(node),
                RosterNode::Admin(node) => Box::new(node),
            };
            world.add_node(entry.name, node, entry.clock);
        }
        Deployment { world, layout: self.layout }
    }

    /// The host node with id `id`, before installation (fault hooks
    /// that must be armed on either executor).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a host of this roster.
    pub fn host_mut(&mut self, id: NodeId) -> &mut HostNode {
        match &mut self.entries[id.index()].node {
            RosterNode::Host(host) => host,
            other => panic!("{id} is not a host: {other:?}"),
        }
    }

    /// The directory replica with id `id`, before installation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a directory replica of this roster.
    pub fn replica_mut(&mut self, id: NodeId) -> &mut DirectoryReplica {
        match &mut self.entries[id.index()].node {
            RosterNode::Directory(replica) => replica,
            other => panic!("{id} is not a directory replica: {other:?}"),
        }
    }
}

/// Node ids, key material and shard maps of a deployment — the part of
/// a [`Roster`] that outlives installation.
#[derive(Debug)]
pub struct Layout {
    /// The application under access control (the first tenant's app in
    /// sharded mode).
    pub app: AppId,
    /// Tenant count (0 = the one-tenant, one-shard deployment).
    pub tenants: usize,
    /// Shards per tenant (meaningful only when `tenants > 0`).
    pub shards_per_tenant: usize,
    /// Manager node ids.
    pub managers: Vec<NodeId>,
    /// Host node ids.
    pub hosts: Vec<NodeId>,
    /// `(user, agent node)` pairs.
    pub users: Vec<(UserId, NodeId)>,
    /// The admin agent's node id.
    pub admin: NodeId,
    /// The admin principal (holds `manage` at bootstrap).
    pub admin_user: UserId,
    /// Directory replica node ids (empty without the replicated
    /// directory).
    pub ns_replicas: Vec<NodeId>,
    /// The directory writer's secret key, for publishing new records
    /// mid-run (present iff replicas are).
    pub ns_writer_secret: Option<SecretKey>,
    /// Per-app current shard map: `(record version, entries)` — without
    /// tenants, one whole-keyspace entry over every manager. Updated by
    /// [`Layout::rebalance`].
    pub shard_maps: BTreeMap<AppId, (u64, Vec<ShardEntry>)>,
}

impl Layout {
    /// Current owners of a shard (none for a shard no map lists).
    pub fn shard_owners(&self, shard: ShardId) -> Vec<NodeId> {
        self.shard_maps
            .values()
            .flat_map(|(_, entries)| entries.iter())
            .find(|e| e.shard == shard)
            .map(|e| e.managers.clone())
            .unwrap_or_default()
    }

    /// A new signed record for the app — `managers` serving its whole
    /// keyspace — addressed to ONE replica (index `replica_index`), or
    /// `None` if the deployment has no such replica. Anti-entropy is
    /// responsible for spreading it — which is exactly what stale-replica
    /// and split-brain faults attack.
    pub fn republish(
        &self,
        replica_index: usize,
        version: u64,
        managers: Vec<NodeId>,
    ) -> Option<(NodeId, ProtoMsg)> {
        let replica = *self.ns_replicas.get(replica_index)?;
        let secret = self.ns_writer_secret.as_ref()?;
        let shards = vec![ShardEntry::whole_keyspace(self.app, managers)];
        let record = NsRecord::signed(self.app, version, shards, NS_WRITER, secret);
        Some((replica, ProtoMsg::NsPublish { record: Box::new(record) }))
    }

    /// Starts an online rebalance of `shard` onto `new_owners`: bumps
    /// the owning app's map version, signs the new shard-map record and
    /// returns the `ShardHandoff` kickoff with its recipients — every
    /// current owner (sources) and every new owner (targets). The
    /// sources freeze, snapshot-transfer, and durably release before any
    /// target activates and republishes the map (DESIGN.md §14). `None`
    /// without a replicated directory or for an unknown shard.
    ///
    /// # Panics
    ///
    /// Panics if `new_owners` overlaps the current owner set.
    pub fn rebalance(
        &mut self,
        shard: ShardId,
        new_owners: Vec<NodeId>,
    ) -> Option<(Vec<NodeId>, ProtoMsg)> {
        let secret = self.ns_writer_secret.as_ref()?;
        let (app, version, entries, idx) =
            self.shard_maps.iter_mut().find_map(|(&app, (version, entries))| {
                let idx = entries.iter().position(|e| e.shard == shard)?;
                Some((app, version, entries, idx))
            })?;
        let mut recipients = entries[idx].managers.clone();
        assert!(
            recipients.iter().all(|m| !new_owners.contains(m)),
            "rebalance targets must be disjoint from the current owners"
        );
        *version += 1;
        entries[idx].managers = new_owners.clone();
        let record = NsRecord::signed(app, *version, entries.clone(), NS_WRITER, secret);
        recipients.extend(&new_owners);
        let kickoff = ProtoMsg::ShardHandoff {
            shard,
            epoch: *version,
            record: Box::new(record),
            targets: new_owners,
            publish_to: self.ns_replicas.clone(),
        };
        Some((recipients, kickoff))
    }
}

/// A roster installed on a simulated world, ready to run. Derefs to
/// its [`Layout`], so `deployment.managers`, `deployment.shard_maps`
/// and friends read as fields.
#[derive(Debug)]
pub struct Deployment {
    /// The simulated world (run it with `run_until`/`run_for`).
    pub world: World<ProtoMsg>,
    /// Node ids, key material and shard maps.
    pub layout: Layout,
}

impl std::ops::Deref for Deployment {
    type Target = Layout;
    fn deref(&self) -> &Layout {
        &self.layout
    }
}

impl std::ops::DerefMut for Deployment {
    fn deref_mut(&mut self) -> &mut Layout {
        &mut self.layout
    }
}

impl Deployment {
    /// Injects an admin `Add(app, user, right)` now (routed through the
    /// admin agent, so it is signed and retried like any real op).
    pub fn grant(&mut self, user: UserId, right: Right) {
        let op = AclOp::Add { app: self.app, user, right };
        self.admin_op(op);
    }

    /// Injects an admin `Revoke(app, user, right)` now.
    pub fn revoke(&mut self, user: UserId, right: Right) {
        let op = AclOp::Revoke { app: self.app, user, right };
        self.admin_op(op);
    }

    /// Injects an arbitrary admin operation through the admin agent (so
    /// it is signed, routed to the owning shard, and retried).
    pub fn admin_op(&mut self, op: AclOp) {
        let now = self.world.now();
        let msg = ProtoMsg::Admin { op, req: ReqId(0), issuer: self.admin_user, signature: None };
        self.world.inject(now, self.layout.admin, msg);
    }

    /// Publishes [`Layout::republish`]'s record now; `false` (and
    /// nothing sent) if the deployment has no such replica.
    #[must_use]
    pub fn republish_managers(
        &mut self,
        replica_index: usize,
        version: u64,
        managers: Vec<NodeId>,
    ) -> bool {
        let Some((target, msg)) = self.layout.republish(replica_index, version, managers) else {
            return false;
        };
        let now = self.world.now();
        self.world.inject(now, target, msg);
        true
    }

    /// The directory replica node for index `i`.
    pub fn ns_replica(&self, i: usize) -> &DirectoryReplica {
        self.world.node_as::<DirectoryReplica>(self.ns_replicas[i])
    }

    /// Schedules [`Layout::rebalance`]'s kickoff at `at`; `false` (and
    /// nothing scheduled) without a directory or for an unknown shard.
    #[must_use]
    pub fn rebalance_shard_at(
        &mut self,
        at: SimTime,
        shard: ShardId,
        new_owners: Vec<NodeId>,
    ) -> bool {
        let Some((recipients, kickoff)) = self.layout.rebalance(shard, new_owners) else {
            return false;
        };
        for m in recipients {
            self.world.inject(at, m, kickoff.clone());
        }
        true
    }

    /// Mutable access to manager `i` (fault hooks like the planted
    /// lost-handoff bug).
    pub fn manager_mut(&mut self, i: usize) -> &mut ManagerNode {
        self.world.node_as_mut::<ManagerNode>(self.managers[i])
    }

    /// Mutable access to host `i` (fault hooks like the stale-shard-map
    /// pin).
    pub fn host_mut(&mut self, i: usize) -> &mut HostNode {
        self.world.node_as_mut::<HostNode>(self.hosts[i])
    }

    /// Makes user `i` (0-based index) issue one request now.
    pub fn invoke_from(&mut self, user_index: usize) {
        let (user, node) = self.users[user_index];
        let now = self.world.now();
        self.world.inject(
            now,
            node,
            ProtoMsg::Invoke {
                app: self.app,
                user,
                req: ReqId(0),
                payload: "triggered".into(),
                signature: None,
            },
        );
    }

    /// The user agent for index `i`.
    pub fn user_agent(&self, i: usize) -> &UserAgent {
        self.world.node_as::<UserAgent>(self.users[i].1)
    }

    /// The host node for index `i`.
    pub fn host(&self, i: usize) -> &HostNode {
        self.world.node_as::<HostNode>(self.hosts[i])
    }

    /// The manager node for index `i`.
    pub fn manager(&self, i: usize) -> &ManagerNode {
        self.world.node_as::<ManagerNode>(self.managers[i])
    }

    /// The admin agent.
    pub fn admin_agent(&self) -> &AdminAgent {
        self.world.node_as::<AdminAgent>(self.admin)
    }

    /// Sums allowed/denied/unavailable across all user agents.
    pub fn aggregate_user_stats(&self) -> crate::client::UserStats {
        let mut total = crate::client::UserStats::default();
        for i in 0..self.users.len() {
            total += self.user_agent(i).stats();
        }
        total
    }

    /// Convenience: run the world for a span.
    pub fn run_for(&mut self, span: SimDuration) {
        self.world.run_for(span);
    }

    /// Convenience: run the world until an absolute time.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.world.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Without tenants the layout still holds a shard map: the app's one
    /// whole-keyspace entry over every manager, at version 1.
    #[test]
    fn a_flat_roster_maps_the_whole_keyspace_to_every_manager() {
        let layout = Scenario::builder(1).managers(3).roster().layout;
        let every = (0..3).map(NodeId::from_index).collect();
        let entry = ShardEntry::whole_keyspace(AppId(0), every);
        assert_eq!(layout.shard_maps, BTreeMap::from([(AppId(0), (1, vec![entry]))]));
    }
}
