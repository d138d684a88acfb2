//! # wanacl-core — access control in wide-area networks
//!
//! A from-scratch implementation of the protocol of Hiltunen &
//! Schlichting, *Access Control in Wide-Area Networks* (ICDCS '97):
//! access-control lists held authoritatively by a small set of
//! **managers**, cached at application **hosts** with **time-based
//! expiration** (`te = b·Te`), and coordinated across managers with
//! **check/update quorums** (`C` and `M − C + 1`) so that each
//! application can pick its own point on the security–availability
//! tradeoff when the network partitions.
//!
//! The protocol logic is written against the deterministic simulation
//! substrate of [`wanacl_sim`]; the same node implementations also run on
//! real threads under `wanacl-rt`.
//!
//! ## Modules
//!
//! * [`types`] — applications, users, rights, the authoritative [`types::Acl`]
//! * [`policy`] — the per-application knobs `C`, `Te`, `b`, `R`, `Ti`
//! * [`msg`] — the wire protocol
//! * [`cache`] — the host-side `ACL_cache` with expiry (Figures 2–3)
//! * [`host`] — the application-host node (Figures 2–4 + check quorum)
//! * [`manager`] — the manager node (quorum dissemination, freeze, recovery)
//! * [`nameservice`] — the directory of §3.2, replicated and signed
//! * [`client`] — user and admin workload agents
//! * [`wrapper`] — the Figure 1 application wrapper
//! * [`scenario`] — one-stop deployment assembly
//!
//! ## Example
//!
//! ```
//! use wanacl_core::prelude::*;
//! use wanacl_sim::time::{SimDuration, SimTime};
//!
//! // 3 managers, 2 hosts, 1 user, C = 2.
//! let mut deployment = Scenario::builder(7)
//!     .managers(3)
//!     .hosts(2)
//!     .users(1)
//!     .policy(Policy::builder(2).build())
//!     .all_users_granted()
//!     .build();
//!
//! deployment.run_for(SimDuration::from_secs(1));
//! deployment.invoke_from(0);
//! deployment.run_for(SimDuration::from_secs(5));
//! assert_eq!(deployment.user_agent(0).stats().allowed, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use wanacl_auth as auth;

pub mod audit;
pub mod cache;
pub mod campaign;
pub mod channel;
pub mod client;
mod durable;
#[cfg(test)]
mod harness;
pub mod host;
pub mod manager;
pub mod msg;
pub mod nameservice;
pub mod oracle;
pub mod policy;
pub mod scenario;
pub mod storelog;
pub mod types;
pub mod wrapper;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::audit::{AllowPath, AuditEvent, NodeList, NsHeld, Recovery, ShardOps};
    pub use crate::cache::{AclCache, CacheDecision};
    pub use crate::campaign::{
        rollup_metrics, run_campaign, run_campaigns_parallel, run_plans_parallel,
        run_with_plan, sample_plan, shrink_plan, CampaignConfig, CampaignReport, InjectedBug,
    };
    pub use crate::channel::ChannelKeys;
    pub use crate::client::{
        AdminAction, AdminAgent, AdminAgentConfig, AdminRoute, OpProgress, UserAgent,
        UserAgentConfig, UserStats, WorkloadShape,
    };
    pub use crate::host::{AppHost, HostNode, HostStats, ManagerDirectory};
    pub use crate::manager::{
        ManagerApp, ManagerConfig, ManagerNode, ManagerShard, ManagerStats,
    };
    pub use crate::msg::{
        AclOp, AdminStatus, InvokeOutcome, NsRecord, OpId, ProtoMsg, QueryVerdict, RejectReason,
        ReqId, ShardEntry,
    };
    pub use crate::nameservice::DirectoryReplica;
    pub use crate::oracle::{InvariantKind, InvariantOracle, OracleStats, OracleViolation};
    pub use crate::policy::{ExhaustionBehavior, FreezePolicy, Policy, QueryFanout};
    pub use crate::scenario::{Deployment, Scenario};
    pub use crate::storelog::SnapshotState;
    pub use crate::types::{user_bucket, Acl, AppId, Right, RightsSet, ShardId, UserId};
    pub use crate::wrapper::{Application, CountingApp, EchoApp, StockQuoteApp};
}
