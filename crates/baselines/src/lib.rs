//! # wanacl-baselines — the dissemination strategies the paper compares
//!
//! §3 of the paper motivates its design by contrasting three placements
//! of access-control information:
//!
//! 1. **Full replication to every host** ([`full_replication`]) — free
//!    checks, `O(|Hosts|)` updates, unbounded staleness under partition.
//! 2. **Managers only, hosts query** — *the paper's design with caching*,
//!    implemented in `wanacl-core`.
//! 3. **Local-only at the issuing manager** ([`local_only`]) — free
//!    updates, `O(M)` per check.
//!
//! Plus the related-work comparator \[23\] (Samarati et al.): replicated
//! authorization with **eventual consistency** via gossip
//! ([`eventual`]), which survives partitions but offers no revocation
//! time bound and no per-application tradeoff.
//!
//! [`compare`] runs an identical workload under all four and reports the
//! costs (experiment E8 of DESIGN.md).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod eventual;
pub mod full_replication;
pub mod local_only;
pub mod msg;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::compare::{
        run_strategy, run_strategy_metered, ComparisonConfig, Strategy, StrategyReport,
    };
    pub use crate::eventual::{EventualHost, EventualManager};
    pub use crate::full_replication::{FullReplHost, FullReplManager};
    pub use crate::local_only::{LocalOnlyHost, LocalOnlyManager};
    pub use crate::msg::BaselineMsg;
}
